//! Output checks that share no code with the program under test.
//!
//! Distances come from this module's own Dijkstra over the instance's
//! edge list and the multicast tree from its own Prim, so a fault in the
//! program's graph, metric or cost code cannot hide behind itself. The
//! cost model is the paper's (Section 1.1, update policy "MST multicast"):
//! per object, `Σ cs(c)` over copies, plus `(r_v + w_v) · d(v, C)` for every
//! requesting node, plus `W · MST(C)` with `W` the object's total writes.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Relative tolerance of every cost and distance comparison.
pub const REL_TOL: f64 = 1e-9;

/// True when `a` and `b` agree to [`REL_TOL`] relative (absolute near 0).
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// An undirected weighted network as plain adjacency lists.
#[derive(Debug, Clone)]
pub struct Net {
    adj: Vec<Vec<(usize, f64)>>,
}

#[derive(PartialEq)]
struct Entry(f64, usize);

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    // Reversed so `BinaryHeap` pops the smallest distance first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

impl Net {
    /// A network over nodes `0..n` with the given undirected edges.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize, f64)>) -> Net {
        let mut adj = vec![Vec::new(); n];
        for (u, v, w) in edges {
            adj[u].push((v, w));
            adj[v].push((u, w));
        }
        Net { adj }
    }

    /// The network of a program graph, read from its edge list only.
    pub fn of_graph(g: &dmn_graph::Graph) -> Net {
        Net::from_edges(g.num_nodes(), g.edges().iter().map(|e| (e.u, e.v, e.w)))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Distance from the nearest of `sources` to every node.
    pub fn dist_from(&self, sources: &[usize]) -> Vec<f64> {
        let mut dist = vec![f64::INFINITY; self.adj.len()];
        let mut heap = BinaryHeap::new();
        for &s in sources {
            dist[s] = 0.0;
            heap.push(Entry(0.0, s));
        }
        while let Some(Entry(d, u)) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &(v, w) in &self.adj[u] {
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Entry(nd, v));
                }
            }
        }
        dist
    }
}

/// Weight of a minimum spanning tree over `copies` in the shortest-path
/// metric of `net` (Prim on the complete graph of copy distances).
pub fn mst_weight(net: &Net, copies: &[usize]) -> f64 {
    let rows: Vec<Vec<f64>> = copies.iter().map(|&c| net.dist_from(&[c])).collect();
    let k = copies.len();
    let mut in_tree = vec![false; k];
    let mut best = vec![f64::INFINITY; k];
    best[0] = 0.0;
    let mut total = 0.0;
    for _ in 0..k {
        let i = (0..k)
            .filter(|&i| !in_tree[i])
            .min_by(|&a, &b| best[a].total_cmp(&best[b]))
            .expect("a node is left");
        in_tree[i] = true;
        total += best[i];
        for j in 0..k {
            if !in_tree[j] {
                best[j] = best[j].min(rows[i][copies[j]]);
            }
        }
    }
    total
}

/// The copy sets of a placement, one per object.
pub fn copy_sets(placement: &dmn_core::placement::Placement) -> Vec<Vec<usize>> {
    (0..placement.num_objects())
        .map(|x| placement.copies(x).to_vec())
        .collect()
}

/// Checks one copy set: non-empty, in range, no repeats, and only on
/// nodes whose storage cost is finite.
pub fn check_copy_set(copies: &[usize], storage: &[f64]) -> Result<(), String> {
    if copies.is_empty() {
        return Err("empty copy set".into());
    }
    for (i, &c) in copies.iter().enumerate() {
        if c >= storage.len() {
            return Err(format!("copy on node {c} of {}", storage.len()));
        }
        if !storage[c].is_finite() {
            return Err(format!("copy on node {c}, whose storage cost is infinite"));
        }
        if copies[..i].contains(&c) {
            return Err(format!("node {c} holds two copies"));
        }
    }
    Ok(())
}

/// The paper's cost of serving one object from `copies`.
pub fn object_cost(
    net: &Net,
    storage: &[f64],
    reads: &[f64],
    writes: &[f64],
    copies: &[usize],
) -> f64 {
    let near = net.dist_from(copies);
    let stored: f64 = copies.iter().map(|&c| storage[c]).sum();
    let served: f64 = (0..net.len())
        .map(|v| {
            let mass = reads[v] + writes[v];
            if mass == 0.0 {
                0.0
            } else {
                mass * near[v]
            }
        })
        .sum();
    let total_writes: f64 = writes.iter().sum();
    let multicast = if total_writes > 0.0 && copies.len() > 1 {
        total_writes * mst_weight(net, copies)
    } else {
        0.0
    };
    stored + served + multicast
}

/// Checks every copy set of a placement and recomputes its total cost,
/// which must match `reported` to [`REL_TOL`]. Returns the recomputed cost.
pub fn check_placement(
    net: &Net,
    instance: &dmn_core::instance::Instance,
    sets: &[Vec<usize>],
    reported: f64,
) -> Result<f64, String> {
    if sets.len() != instance.num_objects() {
        return Err(format!(
            "{} copy sets for {} objects",
            sets.len(),
            instance.num_objects()
        ));
    }
    let mut total = 0.0;
    for (x, (set, w)) in sets.iter().zip(&instance.objects).enumerate() {
        check_copy_set(set, &instance.storage_cost).map_err(|e| format!("object {x}: {e}"))?;
        total += object_cost(net, &instance.storage_cost, &w.reads, &w.writes, set);
    }
    if !close(total, reported) {
        return Err(format!(
            "reported cost {reported} but the placement costs {total}"
        ));
    }
    Ok(total)
}

/// Checks one lookup reply: the serving node exists and the reported
/// distance is the shortest-path distance from the requester to it.
/// `from_requester` is the requester's distance row.
pub fn check_lookup(from_requester: &[f64], node: usize, distance: f64) -> Result<(), String> {
    let Some(&d) = from_requester.get(node) else {
        return Err(format!(
            "reply names node {node} of {}",
            from_requester.len()
        ));
    };
    if !close(d, distance) {
        return Err(format!(
            "reply distance {distance} to node {node}, but the shortest path is {d}"
        ));
    }
    Ok(())
}

/// Checks that a reply names a nearest copy of `copies`.
pub fn check_nearest(from_requester: &[f64], copies: &[usize], node: usize) -> Result<(), String> {
    if !copies.contains(&node) {
        return Err(format!("reply names node {node}, which holds no copy"));
    }
    let best = copies
        .iter()
        .map(|&c| from_requester[c])
        .fold(f64::INFINITY, f64::min);
    if !close(from_requester[node], best) {
        return Err(format!(
            "reply names a copy at distance {}, the nearest is at {best}",
            from_requester[node]
        ));
    }
    Ok(())
}

/// Checks the final served epoch: it must be the one the last forced
/// re-solve produced, and cost what a fresh solve of the same
/// instance costs.
pub fn check_final_epoch(
    served_epoch: u64,
    expected_epoch: u64,
    served_cost: f64,
    fresh_cost: f64,
) -> Result<(), String> {
    if served_epoch != expected_epoch {
        return Err(format!(
            "final epoch {served_epoch}, expected {expected_epoch}"
        ));
    }
    if !close(served_cost, fresh_cost) {
        return Err(format!(
            "final epoch costs {served_cost}, a fresh solve costs {fresh_cost}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmn_core::instance::{Instance, ObjectWorkload};

    /// Ring 0-1-2-3-0 with edge weights 1, 2, 1, 3 (edge i joins i and i+1).
    fn ring() -> Net {
        Net::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 0, 3.0)])
    }

    /// Reads 3 at node 0 and 1 at node 2, writes 2 at node 1; storage 5
    /// everywhere except node 3, which cannot store.
    fn ring_instance() -> Instance {
        let graph =
            dmn_graph::Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 0, 3.0)]);
        let mut instance = Instance::builder(graph)
            .storage_costs(vec![5.0, 5.0, 5.0, f64::INFINITY])
            .build();
        instance.push_object(ObjectWorkload::from_sparse(
            4,
            [(0, 3.0), (2, 1.0)],
            [(1, 2.0)],
        ));
        instance
    }

    #[test]
    fn ring_distances_by_hand() {
        // 0→3 goes 0-1-2-3 (1+2+1 = 4) against the direct edge of 3.
        assert_eq!(ring().dist_from(&[0]), vec![0.0, 1.0, 3.0, 3.0]);
        assert_eq!(ring().dist_from(&[1, 3]), vec![1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn ring_costs_by_hand() {
        let net = ring();
        let cs = [5.0, 5.0, 5.0, f64::INFINITY];
        let reads = [3.0, 0.0, 1.0, 0.0];
        let writes = [0.0, 2.0, 0.0, 0.0];
        // One copy at 1: storage 5; reads 3·d(0,1) + 1·d(2,1) = 3 + 2;
        // the writer sits on the copy; one copy needs no multicast.
        assert_eq!(object_cost(&net, &cs, &reads, &writes, &[1]), 10.0);
        // Copies at 0 and 2: storage 10; reads are local; the writer at 1
        // pays d(1,0) = 1 per write (2); multicast 2 writes × MST{0,2} (3) = 6.
        assert_eq!(object_cost(&net, &cs, &reads, &writes, &[0, 2]), 18.0);
        // Copies everywhere storable: storage 15, writes local, multicast
        // 2 writes × MST{0,1,2} (1 + 2) = 6.
        assert_eq!(object_cost(&net, &cs, &reads, &writes, &[0, 1, 2]), 21.0);
    }

    #[test]
    fn ring_placement_matches_the_program() {
        let instance = ring_instance();
        let net = Net::of_graph(&instance.graph);
        let sets = vec![vec![0, 2]];
        assert_eq!(check_placement(&net, &instance, &sets, 18.0), Ok(18.0));
        let program = dmn_core::cost::evaluate(
            &instance,
            &dmn_core::placement::Placement::from_copy_sets(sets.clone()),
            dmn_core::cost::UpdatePolicy::MstMulticast,
        );
        assert!(check_placement(&net, &instance, &sets, program.total()).is_ok());
    }

    #[test]
    fn corrupted_placements_are_rejected() {
        let instance = ring_instance();
        let net = Net::of_graph(&instance.graph);
        let bad = |sets: Vec<Vec<usize>>, cost: f64| check_placement(&net, &instance, &sets, cost);
        assert!(bad(vec![vec![]], 0.0).unwrap_err().contains("empty"));
        assert!(bad(vec![vec![4]], 10.0).unwrap_err().contains("node 4"));
        assert!(bad(vec![vec![3]], 10.0).unwrap_err().contains("infinite"));
        assert!(bad(vec![vec![1, 1]], 10.0)
            .unwrap_err()
            .contains("two copies"));
        assert!(bad(vec![vec![1]], 10.0 + 1e-6)
            .unwrap_err()
            .contains("costs 10"));
        assert!(bad(vec![vec![1], vec![1]], 10.0).is_err());
    }

    #[test]
    fn wrong_lookup_distance_is_rejected() {
        let row = ring().dist_from(&[0]);
        assert!(check_lookup(&row, 3, 3.0).is_ok());
        assert!(check_lookup(&row, 3, 4.0)
            .unwrap_err()
            .contains("shortest path is 3"));
        assert!(check_lookup(&row, 7, 0.0).is_err());
        // Node 2 holds a copy but node 1 is nearer to the requester.
        assert!(check_nearest(&row, &[1, 2], 1).is_ok());
        assert!(check_nearest(&row, &[1, 2], 2)
            .unwrap_err()
            .contains("nearest"));
        assert!(check_nearest(&row, &[1, 2], 0)
            .unwrap_err()
            .contains("no copy"));
    }

    #[test]
    fn stale_final_epoch_is_rejected() {
        assert!(check_final_epoch(9, 9, 100.0, 100.0).is_ok());
        // An older epoch served after the forced re-solve.
        assert!(check_final_epoch(8, 9, 100.0, 100.0).is_err());
        // The right epoch number but a placement from before the last writes.
        assert!(check_final_epoch(9, 9, 101.0, 100.0).is_err());
    }
}
