//! The solve workloads: one pinned instance solved over and over by the
//! registry's `approx` engine, on the sparse metric (`solve-sparse-10k`)
//! or the dense one (`solve-dense-225`).
//!
//! The untraced run times registry `solve` calls. The traced run adds, per
//! round, the same work done layer by layer through each crate's public
//! functions, each call inside a span, between two single-threaded
//! registry solves: their mean is the end-to-end time those layer times
//! and the named remainders add up to.

use std::time::Instant;

use dmn_approx::{place_object_in, place_object_sparse_in, ApproxConfig, SparseOpts};
use dmn_core::cost::{self, UpdatePolicy};
use dmn_core::instance::{Instance, ObjectWorkload};
use dmn_facility::{FlInstance, FlWorkspace, LocalSearchConfig};
use dmn_graph::{ball_candidates, dijkstra, truncated_closure, Graph};
use dmn_solve::{solvers, MetricBackend, SolveReport, SolveRequest, Solver};
use dmn_workloads::Scenario;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::check::{self, copy_sets, Net};
use crate::stats::{median, process_cpu};
use crate::trace::Tracer;
use crate::Outcome;

/// Which solve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `scenarios/grid_10k.json` on the sparse metric.
    Sparse10k,
    /// perf-smoke's pinned 15×15 grid on the dense metric.
    Dense225,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sparse10k => "solve-sparse-10k",
            Kind::Dense225 => "solve-dense-225",
        }
    }
}

/// The pinned scenario of a workload, as committed.
pub fn scenario(kind: Kind) -> Scenario {
    match kind {
        Kind::Sparse10k => {
            let text = include_str!("../../scenarios/grid_10k.json");
            let json = dmn_json::parse(text).expect("grid_10k.json is valid JSON");
            Scenario::from_json(&json).expect("grid_10k.json is a scenario")
        }
        Kind::Dense225 => dmn_bench::perf_smoke::smoke_scenario(),
    }
}

/// Everything before the first timed solve: scenario, instance and, on
/// the dense workload, the metric closure the dense engine reads. The
/// run's seed shuffles the order of the objects: each object's placement
/// and the total cost stay the same (up to summation order), while the
/// order in which objects reach the solver's worker threads changes.
fn setup(kind: Kind, seed: u64) -> Instance {
    let mut instance = scenario(kind).build_instance();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..instance.objects.len()).rev() {
        let j = rng.random_range(0..=i);
        instance.objects.swap(i, j);
    }
    if kind == Kind::Dense225 {
        instance.metric();
    }
    instance
}

fn request(kind: Kind) -> SolveRequest {
    match kind {
        Kind::Sparse10k => SolveRequest::new().metric_backend(MetricBackend::Sparse),
        Kind::Dense225 => SolveRequest::new(),
    }
}

/// The first solve of a run, checked against the independent cost model.
fn reference(
    solver: &dyn Solver,
    instance: &Instance,
    req: &SolveRequest,
) -> Result<SolveReport, String> {
    let report = solver.solve(instance, req);
    if report.degraded {
        return Err("the reference solve is degraded".into());
    }
    let net = Net::of_graph(&instance.graph);
    check::check_placement(
        &net,
        instance,
        &copy_sets(&report.placement),
        report.cost.total(),
    )?;
    Ok(report)
}

/// Repeated solves must return the reference placement and cost.
fn same_as(report: &SolveReport, reference: &SolveReport) -> Result<(), String> {
    if copy_sets(&report.placement) != copy_sets(&reference.placement) {
        return Err("a repeated solve returned a different placement".into());
    }
    if report.cost.total().to_bits() != reference.cost.total().to_bits() {
        return Err(format!(
            "a repeated solve cost {} against {}",
            report.cost.total(),
            reference.cost.total()
        ));
    }
    Ok(())
}

/// Set-ups timed after each solve of an untraced run.
const SETUPS_PER_SOLVE: usize = 3;

/// Runs a solve workload for `seconds` of timed solves.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let t = Instant::now();
    let instance = setup(kind, seed);
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let solver = solvers::by_name("approx").expect("approx is registered");
    let req = request(kind);
    let reference = reference(solver.as_ref(), &instance, &req)?;

    let mut out = Outcome::default();
    out.metric("cost_total", reference.cost.total(), "cost");
    if traced {
        traced_rounds(
            kind,
            seed,
            seconds,
            &instance,
            solver.as_ref(),
            &reference,
            &mut out,
        )?;
    } else {
        let mut walls = Vec::new();
        let started = Instant::now();
        while walls.len() < 3 || started.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            let report = solver.solve(&instance, &req);
            walls.push(t.elapsed().as_secs_f64());
            out.attempted += 1;
            same_as(&report, &reference)?;
            // The set-up, timed again between solves: a median over the
            // whole run sees the same machine as the solves do.
            for _ in 0..SETUPS_PER_SOLVE {
                let t = Instant::now();
                std::hint::black_box(setup(kind, seed));
                setups.push(t.elapsed().as_secs_f64());
            }
        }
        let p50 = median(&walls);
        out.metric("setup_s", median(&setups), "s");
        out.metric("solve_p50_s", p50, "s");
        out.metric("request_p50_us", p50 * 1e6, "us");
        eprintln!(
            "{}: {} solves attempted, 0 failed; {} copies",
            kind.name(),
            walls.len(),
            reference.total_copies()
        );
    }
    out.metric("peak_rss_mb", crate::stats::peak_rss_mb("self"), "MiB");
    Ok(out)
}

/// Layer sums of one layer-by-layer pass over every object.
#[derive(Default)]
struct LayerPass {
    ball: f64,
    closure: f64,
    closure_rows: usize,
    phase1: f64,
    moves: usize,
    candidates: usize,
    object: f64,
    evaluate: f64,
}

/// The objects' clients and candidate-ball size, as the sparse path
/// computes them from [`SparseOpts`].
fn ball_target(graph: &Graph, w: &ObjectWorkload, opts: &SparseOpts) -> (Vec<usize>, usize) {
    let n = graph.num_nodes();
    let clients: Vec<usize> = (0..n).filter(|&v| w.request_mass(v) > 0.0).collect();
    let target = ((clients.len() as f64 * opts.expansion).ceil() as usize)
        .max(opts.min_candidates)
        .min(n);
    (clients, target)
}

/// One pass of every layer call the engine makes, object by object on
/// the calling thread. Phase 1 is also timed on its own (the same local
/// search the engine runs first), so the object call minus it leaves the
/// radius phases; the probe must reach the engine's own phase-1 result.
fn layer_pass(
    kind: Kind,
    t: &mut Tracer,
    instance: &Instance,
    cfg: &ApproxConfig,
    reference: &SolveReport,
) -> Result<LayerPass, String> {
    let mut pass = LayerPass::default();
    let mut ws = FlWorkspace::new();
    let ls = LocalSearchConfig::default();
    let opts = SparseOpts::default();
    let cs = &instance.storage_cost;
    for (x, w) in instance.objects.iter().enumerate() {
        let span = t.begin("object");
        t.attr(span, "object", x as u64);
        let masses = w.request_masses();
        let phase1_open = match kind {
            Kind::Sparse10k => {
                let (clients, target) = ball_target(&instance.graph, w, &opts);
                let (cand, ball) = t.time("graph.ball", |_| {
                    ball_candidates(&instance.graph, &clients, target)
                });
                let (metric, closure) = t.time("graph.closure", |_| {
                    truncated_closure(&instance.graph, &cand)
                });
                let local_cs: Vec<f64> = cand.iter().map(|&v| cs[v]).collect();
                let local_mass: Vec<f64> = cand.iter().map(|&v| masses[v]).collect();
                let (sol, phase1) = t.time("facility.phase1", |_| {
                    ws.local_search(
                        &FlInstance::new(&metric, &local_cs[..], &local_mass[..]),
                        &ls,
                    )
                });
                pass.ball += ball;
                pass.closure += closure;
                pass.closure_rows += cand.len();
                pass.phase1 += phase1;
                sol.open.iter().map(|&i| cand[i]).collect::<Vec<usize>>()
            }
            Kind::Dense225 => {
                let metric = instance.metric();
                let (sol, phase1) = t.time("facility.phase1", |_| {
                    ws.local_search(&FlInstance::new(metric, &cs[..], &masses[..]), &ls)
                });
                pass.phase1 += phase1;
                sol.open
            }
        };
        let stats = ws.last_stats();
        pass.moves += stats.moves;
        pass.candidates += stats.candidates;
        let (trace, object) = match kind {
            Kind::Sparse10k => t.time("approx.sparse_object", |_| {
                place_object_sparse_in(&mut ws, &instance.graph, cs, w, cfg, &opts).trace
            }),
            Kind::Dense225 => t.time("approx.object", |_| {
                place_object_in(&mut ws, instance.metric(), cs, w, cfg).0
            }),
        };
        pass.object += object;
        t.end(span);
        if trace.after_phase1 != phase1_open {
            return Err(format!(
                "object {x}: the phase-1 probe opened {phase1_open:?}, the engine {:?}",
                trace.after_phase1
            ));
        }
        if trace.after_phase3 != reference.placement.copies(x) {
            return Err(format!("object {x}: the layer pass placed it differently"));
        }
    }
    let (evaluated, evaluate) = t.time("cost.evaluate", |_| match kind {
        Kind::Sparse10k => {
            cost::evaluate_sparse(instance, &reference.placement, UpdatePolicy::MstMulticast)
        }
        Kind::Dense225 => {
            cost::evaluate(instance, &reference.placement, UpdatePolicy::MstMulticast)
        }
    });
    pass.evaluate = evaluate;
    if !check::close(evaluated.total(), reference.cost.total()) {
        return Err("cost::evaluate disagrees with the solve's own cost".into());
    }
    Ok(pass)
}

/// Median of one field over the rounds.
fn med(passes: &[LayerPass], f: impl Fn(&LayerPass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<f64>>())
}

/// How far a named remainder may stray, as a share of the single-threaded
/// solve: `solve.unaccounted_s` must lie within ± this share, and
/// `approx.phase23_s` must not fall below minus this share. A larger
/// remainder means the layer calls no longer cover what the solve does.
const REMAINDER_TOLERANCE: f64 = 0.1;

/// Checks that the layer calls account for the single-threaded solve.
fn check_remainders(wall_1t: f64, phase23: f64, unaccounted: f64) -> Result<(), String> {
    let tolerance = REMAINDER_TOLERANCE * wall_1t;
    if unaccounted.abs() > tolerance {
        return Err(format!(
            "the layer calls leave {unaccounted} s of a {wall_1t} s solve unaccounted \
             (at most ±{tolerance} s)"
        ));
    }
    if phase23 < -tolerance {
        return Err(format!(
            "the object calls took {} s less than their phase-1, ball and closure calls \
             (at most {tolerance} s)",
            -phase23
        ));
    }
    Ok(())
}

fn traced_rounds(
    kind: Kind,
    seed: u64,
    seconds: f64,
    instance: &Instance,
    solver: &dyn Solver,
    reference: &SolveReport,
    out: &mut Outcome,
) -> Result<(), String> {
    let req = request(kind);
    let req_1t = request(kind).max_threads(Some(1));
    let cfg = req.approx_config();
    let mut t = Tracer::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut cpus = Vec::new();
    let mut walls_1t = Vec::new();
    let mut passes = Vec::new();
    let mut phase_sums = Vec::new();
    let mut rows_us = Vec::new();
    let mut apsp = Vec::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let solve_1t = |t: &mut Tracer| -> Result<f64, String> {
        let (report, wall) = t.time("solve.1t", |_| solver.solve(instance, &req_1t));
        same_as(&report, reference)?;
        Ok(wall)
    };
    let started = Instant::now();
    while passes.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        // The same registry solve, untraced and inside a span, back to
        // back: their difference is what tracing costs.
        let t0 = Instant::now();
        same_as(&solver.solve(instance, &req), reference)?;
        untraced.push(t0.elapsed().as_secs_f64());
        let cpu0 = process_cpu();
        let (report, wall) = t.time("solve", |_| solver.solve(instance, &req));
        cpus.push((process_cpu() - cpu0).as_secs_f64());
        traced.push(wall);
        same_as(&report, reference)?;
        phase_sums.push(report.phases.iter().map(|p| p.seconds).sum::<f64>());

        // The layer pass sits between two single-threaded solves; its
        // end-to-end time is their mean, so a machine that speeds up or
        // slows down during the round moves both sides alike.
        let before = solve_1t(&mut t)?;
        let span = t.begin("layers");
        passes.push(layer_pass(kind, &mut t, instance, &cfg, reference)?);
        t.end(span);
        let after = solve_1t(&mut t)?;
        walls_1t.push((before + after) / 2.0);
        out.attempted += 4;

        let n = instance.num_nodes();
        for _ in 0..16 {
            let source = rng.random_range(0..n);
            let (_, row) = t.time("graph.sssp_row", |_| {
                dijkstra::shortest_paths(&instance.graph, source)
            });
            rows_us.push(row * 1e6);
        }
        if kind == Kind::Dense225 {
            apsp.push(t.time("graph.apsp", |_| dijkstra::apsp(&instance.graph)).1);
        }
    }

    // The remainders are defined so that
    // wall_1t = ball + closure + phase1 + phase23 + evaluate + unaccounted.
    let wall_1t = median(&walls_1t);
    let phase1 = med(&passes, |p| p.phase1);
    let ball = med(&passes, |p| p.ball);
    let closure = med(&passes, |p| p.closure);
    let object = med(&passes, |p| p.object);
    let evaluate = med(&passes, |p| p.evaluate);
    let rows = passes[0].closure_rows;
    let phase23 = object - phase1 - ball - closure;
    let unaccounted = wall_1t - object - evaluate;
    check_remainders(wall_1t, phase23, unaccounted)?;
    let untraced_p50 = median(&untraced);
    let traced_p50 = median(&traced);
    let sparse = kind == Kind::Sparse10k;
    out.metric("solve.wall_s", traced_p50, "s");
    out.metric("solve.wall_1t_s", wall_1t, "s");
    out.metric("solve.cpu_s", median(&cpus), "s");
    out.metric("solve.unaccounted_s", unaccounted, "s");
    out.metric("graph.sssp_row_us", median(&rows_us), "us");
    out.metric("graph.ball_s", ball, "s");
    out.metric("graph.closure_s", closure, "s");
    out.metric("graph.closure_rows", rows as f64, "count");
    out.metric(
        "graph.closure_row_us",
        if rows > 0 {
            closure / rows as f64 * 1e6
        } else {
            0.0
        },
        "us",
    );
    out.metric(
        "graph.apsp_s",
        if apsp.is_empty() { 0.0 } else { median(&apsp) },
        "s",
    );
    out.metric("facility.phase1_s", phase1, "s");
    out.metric("facility.moves", passes[0].moves as f64, "count");
    out.metric("facility.candidates", passes[0].candidates as f64, "count");
    out.metric("approx.object_s", if sparse { 0.0 } else { object }, "s");
    out.metric(
        "approx.sparse_object_s",
        if sparse { object } else { 0.0 },
        "s",
    );
    out.metric("approx.phase23_s", phase23, "s");
    out.metric("approx.copies", reference.total_copies() as f64, "count");
    out.metric("cost.evaluate_s", evaluate, "s");
    out.metric(
        "trace.overhead_pct",
        (traced_p50 / untraced_p50 - 1.0) * 100.0,
        "%",
    );
    out.metric("trace.spans", t.spans().len() as f64, "count");
    eprintln!(
        "traced {}: {} rounds; single-threaded solve {wall_1t:.4} s = ball {ball:.4} + closure \
         {closure:.4} + phase1 {phase1:.4} + phase2-3 {phase23:.4} + evaluate {evaluate:.4} + \
         unaccounted {unaccounted:.4}; the parallel solve took {traced_p50:.4} s wall and {:.4} s \
         CPU, and its report's phase seconds add up to {:.4} s",
        kind.name(),
        passes.len(),
        median(&cpus),
        median(&phase_sums)
    );
    out.spans = Some(t);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::check_remainders;

    #[test]
    fn remainders_must_stay_small() {
        assert!(check_remainders(1.0, 0.05, 0.02).is_ok());
        assert!(check_remainders(1.0, 0.05, -0.02).is_ok());
        // Layer calls that cover only 80 % of the solve, or more than it.
        assert!(check_remainders(1.0, 0.05, 0.2).is_err());
        assert!(check_remainders(1.0, 0.05, -0.2).is_err());
        // Probes that take longer than the object calls they are part of.
        assert!(check_remainders(1.0, -0.2, 0.0).is_err());
    }
}
