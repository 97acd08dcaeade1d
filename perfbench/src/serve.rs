//! The `serve-tcp-churn` workload: a placement daemon in its own process,
//! driven over loopback TCP by one client connection in a closed loop
//! (one outstanding request at a time).
//!
//! A round is a block of zipf lookups, one `delta` write large enough to
//! cross the drift threshold alone, lookups until a reply carries the next
//! epoch (the swap, whose background re-solve competes with the lookups),
//! and a forced `resolve` of the same instance, timed as the client sees
//! it while nothing else runs. After the last round the client checks the
//! served epoch against a fresh solve of the instance it rebuilt by
//! applying the same writes itself.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dmn_core::instance::{Instance, ObjectWorkload};
use dmn_graph::{dijkstra, shortest_paths};
use dmn_json::Json;
use dmn_server::snapshot::PlacementSnapshot;
use dmn_server::tcp::{self, Request};
use dmn_server::{Event, ServerConfig, ServerHandle};
use dmn_solve::solvers;
use dmn_workloads::{sample_trace, TraceConfig, TraceOp};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::check::{self, copy_sets, Net};
use crate::solve::{scenario, Kind};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::Outcome;

/// Drift fraction at which the daemon re-solves (the scenario default).
const THRESHOLD: f64 = 0.02;
/// Each write moves this share of the instance's request mass, so one
/// write alone crosses [`THRESHOLD`] even after earlier writes grew it.
const WRITE_SHARE: f64 = 0.05;
/// Lookups per round before its write.
const LOOKUPS_PER_ROUND: usize = 200;
/// Length of the zipf lookup sequence the client cycles through.
const TRACE_LOOKUPS: usize = 20_000;
/// In a traced run, one lookup in this many records spans.
const TRACE_EVERY: usize = 16;
/// Daemon starts whose median is `setup_s`. A start includes the first
/// solve on two threads, so it drifts with the machine like the solves.
const SETUP_STARTS: usize = 15;
/// Longest a swap may take before the write counts as failed.
const SWAP_TIMEOUT: Duration = Duration::from_secs(30);

/// The served instance: perf-smoke's pinned 15×15 grid.
pub fn instance() -> Instance {
    scenario(Kind::Dense225).build_instance()
}

fn config() -> ServerConfig {
    ServerConfig {
        resolve_threshold: THRESHOLD,
        ..ServerConfig::default()
    }
}

/// The daemon: serves the workload's instance on an ephemeral loopback
/// port, announced on stdout, until a client sends `quit`.
pub fn daemon() -> Result<(), String> {
    let handle = ServerHandle::start(&instance(), config()).map_err(|e| e.to_string())?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let port = listener.local_addr().map_err(|e| e.to_string())?.port();
    println!("listening {port}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    tcp::serve(listener, handle.clone()).map_err(|e| e.to_string())?;
    handle.shutdown();
    Ok(())
}

/// A daemon process and the client's one connection to it.
struct Conn {
    child: Child,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
    /// Bytes of the last request line plus its reply line.
    last_bytes: usize,
}

impl Conn {
    fn start() -> Result<Conn, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut announce = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut announce);
        let port = match (read, announce.trim().strip_prefix("listening ")) {
            (Ok(_), Some(port)) => port.parse::<u16>().map_err(|e| e.to_string()),
            _ => Err(format!("daemon did not announce a port: {announce:?}")),
        };
        let port = match port {
            Ok(port) => port,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let connected = TcpStream::connect(("127.0.0.1", port)).and_then(|s| {
            s.set_nodelay(true)?;
            Ok((s.try_clone()?, s))
        });
        match connected {
            Ok((read, writer)) => Ok(Conn {
                child,
                reader: BufReader::new(read),
                writer,
                reply: String::new(),
                last_bytes: 0,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("connect to daemon: {e}"))
            }
        }
    }

    /// Sends one request line (without newline) and reads its reply line.
    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))?;
        self.reply.clear();
        let got = self
            .reader
            .read_line(&mut self.reply)
            .map_err(|e| format!("receive: {e}"))?;
        if got == 0 {
            return Err("the daemon closed the connection".into());
        }
        self.last_bytes = buf.len() + got;
        Ok(())
    }

    fn ok(&self) -> bool {
        self.reply.contains("\"ok\":true")
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::stats::peak_rss_mb(&self.child.id().to_string())
    }

    /// Stops the daemon and waits for it to exit.
    fn quit(mut self) -> Result<(), String> {
        self.send("{\"op\":\"quit\"}")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if Instant::now() > deadline => return Err("daemon did not stop".into()),
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The number after `"key":` in a compact reply line.
fn field(reply: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = reply.find(&pat)? + pat.len();
    let rest = &reply[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// A decoded lookup reply.
struct Reply {
    node: usize,
    distance: f64,
    epoch: u64,
}

fn decode_lookup(reply: &str) -> Option<Reply> {
    Some(Reply {
        node: field(reply, "node")? as usize,
        distance: field(reply, "distance")?,
        epoch: field(reply, "epoch")? as u64,
    })
}

/// One demand write of the churn: `delta` read mass for `object` at `node`.
#[derive(Clone, Copy)]
struct DemandWrite {
    object: usize,
    node: usize,
    delta: f64,
}

/// The (object, node) spots the churn writes cycle through, the same in
/// every run. Each write adds mass at the next spot or takes back the
/// older of two outstanding additions, so every spot sees additions and
/// take-backs in pairs. The first pair at a spot rounds its reads once, to
/// the grid of the sum; every later pair leaves them exactly there, since
/// a write outweighs any node's reads and the take-back is then exact
/// (Sterbenz). The end state therefore does not depend on the round count.
const SPOTS: [(usize, usize); 4] = [(3, 20), (11, 100), (19, 150), (27, 210)];
/// Spots of the two additions that end every run.
const FINAL_SPOTS: [(usize, usize); 2] = [(0, 0), (16, 112)];

/// The writes of a run.
struct Churn {
    next_spot: usize,
    outstanding: std::collections::VecDeque<(usize, usize)>,
    mass: f64,
}

impl Churn {
    fn write((object, node): (usize, usize), delta: f64) -> DemandWrite {
        DemandWrite {
            object,
            node,
            delta,
        }
    }

    fn next(&mut self) -> DemandWrite {
        if self.outstanding.len() == 2 {
            let spot = self.outstanding.pop_front().expect("two outstanding");
            return Churn::write(spot, -self.mass);
        }
        let spot = SPOTS[self.next_spot % SPOTS.len()];
        self.next_spot += 1;
        self.outstanding.push_back(spot);
        Churn::write(spot, self.mass)
    }

    /// Writes that bring the instance to the run's end state: every
    /// outstanding addition taken back, an addition and its take-back at
    /// each spot the run has not reached yet, then additions at the
    /// [`FINAL_SPOTS`]. Every spot has then seen at least one pair, so
    /// the final instance, and with it the served cost, is the same
    /// whatever the seed and the round count.
    fn finish(&mut self) -> Vec<DemandWrite> {
        let mass = self.mass;
        let mut writes: Vec<DemandWrite> = self
            .outstanding
            .drain(..)
            .map(|spot| Churn::write(spot, -mass))
            .collect();
        for &spot in SPOTS.iter().skip(self.next_spot) {
            writes.push(Churn::write(spot, mass));
            writes.push(Churn::write(spot, -mass));
        }
        writes.extend(FINAL_SPOTS.iter().map(|&spot| Churn::write(spot, mass)));
        writes
    }
}

/// What the client checks replies against.
struct Expect {
    /// `rows[v]`: shortest-path distances from node `v`.
    rows: Vec<Vec<f64>>,
    /// The epoch-1 placement, solved in-process.
    first: Vec<Vec<usize>>,
}

impl Expect {
    fn lookup(&self, object: usize, node: usize, reply: &Reply) -> Result<(), String> {
        check::check_lookup(&self.rows[node], reply.node, reply.distance)?;
        if reply.epoch == 1 {
            check::check_nearest(&self.rows[node], &self.first[object], reply.node)?;
        }
        Ok(())
    }
}

/// Samples of the client loop.
#[derive(Default)]
struct Samples {
    lookups_us: Vec<f64>,
    traced_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    deltas_us: Vec<f64>,
    swaps_s: Vec<f64>,
    solves_s: Vec<f64>,
    lookup_bytes: usize,
    lookups: usize,
    writes: usize,
    resolves: usize,
    failed: usize,
}

struct Client<'a> {
    conn: Conn,
    expect: &'a Expect,
    trace: Vec<(usize, usize)>,
    next: usize,
    epoch: u64,
    tracer: Option<Tracer>,
    samples: Samples,
}

impl Client<'_> {
    /// One lookup; returns the epoch of the reply.
    fn lookup(&mut self) -> Result<u64, String> {
        let (object, node) = self.trace[self.next % self.trace.len()];
        self.next += 1;
        self.samples.lookups += 1;
        let traced = self.tracer.is_some() && self.next.is_multiple_of(TRACE_EVERY);
        let reply = if traced {
            let t = self.tracer.as_mut().expect("traced");
            let root = t.begin("lookup");
            let enc = t.begin("client.encode");
            let line = format!("{{\"op\":\"lookup\",\"object\":{object},\"node\":{node}}}");
            let encode = t.end(enc);
            let rtt = t.begin("client.rtt");
            self.conn.send(&line)?;
            let t = self.tracer.as_mut().expect("traced");
            t.end(rtt);
            let dec = t.begin("client.decode");
            let reply = self
                .conn
                .ok()
                .then(|| decode_lookup(&self.conn.reply))
                .flatten();
            let decode = t.end(dec);
            let total = t.end(root);
            self.samples.encode_us.push(encode * 1e6);
            self.samples.decode_us.push(decode * 1e6);
            self.samples.traced_us.push(total * 1e6);
            reply
        } else {
            let t0 = Instant::now();
            let line = format!("{{\"op\":\"lookup\",\"object\":{object},\"node\":{node}}}");
            self.conn.send(&line)?;
            let reply = self
                .conn
                .ok()
                .then(|| decode_lookup(&self.conn.reply))
                .flatten();
            self.samples
                .lookups_us
                .push(t0.elapsed().as_secs_f64() * 1e6);
            reply
        };
        self.samples.lookup_bytes += self.conn.last_bytes;
        let Some(reply) = reply else {
            self.samples.failed += 1;
            eprintln!("lookup failed: {}", self.conn.reply.trim());
            return Ok(self.epoch);
        };
        if reply.epoch < self.epoch {
            return Err(format!(
                "epoch went back from {} to {}",
                self.epoch, reply.epoch
            ));
        }
        self.expect.lookup(object, node, &reply)?;
        Ok(reply.epoch)
    }

    /// One round: lookups, a write, lookups until the swap, a resolve.
    fn round(&mut self, write: DemandWrite) -> Result<(), String> {
        for _ in 0..LOOKUPS_PER_ROUND {
            self.lookup()?;
        }
        let line = format!(
            "{{\"op\":\"delta\",\"object\":{},\"node\":{},\"read_delta\":{},\"write_delta\":0}}",
            write.object, write.node, write.delta
        );
        let t0 = Instant::now();
        self.conn.send(&line)?;
        let acked = Instant::now();
        self.samples
            .deltas_us
            .push((acked - t0).as_secs_f64() * 1e6);
        self.samples.writes += 1;
        if !self.conn.ok() {
            self.samples.failed += 1;
            return Err(format!("write failed: {}", self.conn.reply.trim()));
        }
        let target = self.epoch + 1;
        loop {
            let epoch = self.lookup()?;
            if epoch == target {
                break;
            }
            if epoch > target {
                return Err(format!("epoch jumped from {} to {epoch}", self.epoch));
            }
            if acked.elapsed() > SWAP_TIMEOUT {
                self.samples.failed += 1;
                return Err(format!("no swap within {SWAP_TIMEOUT:?} of a write"));
            }
        }
        self.samples.swaps_s.push(acked.elapsed().as_secs_f64());
        self.epoch = target;
        self.resolve()
    }

    /// A forced re-solve of the current instance, timed as the client sees
    /// it; the reply must carry the next epoch.
    fn resolve(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        self.conn.send("{\"op\":\"resolve\"}")?;
        self.samples.solves_s.push(t0.elapsed().as_secs_f64());
        self.samples.resolves += 1;
        if !self.conn.ok() {
            self.samples.failed += 1;
            return Err(format!("resolve failed: {}", self.conn.reply.trim()));
        }
        let epoch = field(&self.conn.reply, "epoch").ok_or("resolve reply lacks an epoch")?;
        if epoch as u64 != self.epoch + 1 {
            return Err(format!(
                "resolve answered epoch {epoch} after {}",
                self.epoch
            ));
        }
        self.epoch += 1;
        Ok(())
    }

    /// Epoch and served cost from `status`.
    fn status(&mut self) -> Result<(u64, f64), String> {
        self.conn.send("{\"op\":\"status\"}")?;
        let doc = dmn_json::parse(&self.conn.reply)?;
        if doc.get("ok") != Some(&Json::Bool(true)) {
            self.samples.failed += 1;
            return Err(format!("status failed: {}", self.conn.reply.trim()));
        }
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("status lacks '{key}'"))
        };
        Ok((num("epoch")? as u64, num("cost_total")?))
    }
}

/// Starts a daemon and times it up to the first good lookup reply.
fn timed_start() -> Result<(Conn, f64), String> {
    let t0 = Instant::now();
    let mut conn = Conn::start()?;
    conn.send("{\"op\":\"lookup\",\"object\":0,\"node\":0}")?;
    if !conn.ok() {
        return Err(format!("first lookup failed: {}", conn.reply.trim()));
    }
    Ok((conn, t0.elapsed().as_secs_f64()))
}

/// Runs the workload for `seconds` of rounds.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    // What the replies are checked against, computed before any timing.
    let instance = instance();
    let n = instance.num_nodes();
    let net = Net::of_graph(&instance.graph);
    let solver = solvers::by_name(&config().solver).expect("registered solver");
    let first = solver.solve(&instance, &config().request);
    check::check_placement(
        &net,
        &instance,
        &copy_sets(&first.placement),
        first.cost.total(),
    )?;
    let expect = Expect {
        rows: (0..n).map(|v| net.dist_from(&[v])).collect(),
        first: copy_sets(&first.placement),
    };
    let lookups: Vec<(usize, usize)> = sample_trace(
        &instance.objects,
        &TraceConfig {
            lookups: TRACE_LOOKUPS,
            drift_events: 0,
            ..TraceConfig::default()
        },
        &mut ChaCha8Rng::seed_from_u64(seed),
    )
    .into_iter()
    .filter_map(|op| match op {
        TraceOp::Lookup { object, node } => Some((object, node)),
        TraceOp::Delta { .. } => None,
    })
    .collect();
    let total_mass: f64 = instance
        .objects
        .iter()
        .map(ObjectWorkload::total_requests)
        .sum();
    let mut churn = Churn {
        next_spot: 0,
        outstanding: Default::default(),
        mass: (WRITE_SHARE * total_mass).round(),
    };
    if let Some(&(object, node)) = SPOTS
        .iter()
        .find(|&&(o, v)| instance.objects[o].reads[v] > churn.mass)
    {
        return Err(format!(
            "object {object} at node {node} has more reads than a write moves"
        ));
    }

    // The daemon is started SETUP_STARTS times, each stopped before the
    // next starts; the last one serves the run.
    let mut conn: Option<Conn> = None;
    let mut setups = Vec::with_capacity(SETUP_STARTS);
    for _ in 0..SETUP_STARTS {
        if let Some(previous) = conn.take() {
            previous.quit()?;
        }
        let (c, secs) = timed_start()?;
        conn = Some(c);
        setups.push(secs);
    }
    let setup_s = median(&setups);
    let mut client = Client {
        conn: conn.expect("at least one set-up"),
        expect: &expect,
        trace: lookups,
        next: 0,
        epoch: 1,
        tracer: traced.then(Tracer::new),
        samples: Samples::default(),
    };
    // The client applies every write to its own copy of the demand too.
    let mut live = instance.objects.clone();
    let mut write_round = |client: &mut Client, write: DemandWrite| {
        let w = &mut live[write.object];
        w.reads[write.node] = (w.reads[write.node] + write.delta).max(0.0);
        client.round(write)
    };
    let started = Instant::now();
    while client.samples.swaps_s.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        write_round(&mut client, churn.next())?;
    }
    for write in churn.finish() {
        write_round(&mut client, write)?;
    }

    // Force a re-solve, then check the served epoch against a fresh solve
    // of the instance rebuilt from the same writes.
    client.resolve()?;
    let expected_epoch = client.epoch;
    let (served_epoch, served_cost) = client.status()?;
    let mut rebuilt = Instance::builder(instance.graph.clone())
        .storage_costs(instance.storage_cost.clone())
        .build();
    for w in live {
        rebuilt.push_object(w);
    }
    let fresh = solver.solve(&rebuilt, &config().request);
    check::check_placement(
        &net,
        &rebuilt,
        &copy_sets(&fresh.placement),
        fresh.cost.total(),
    )?;
    check::check_final_epoch(
        served_epoch,
        expected_epoch,
        served_cost,
        fresh.cost.total(),
    )?;
    let peak_rss = client.conn.peak_rss_mb();
    let Client {
        conn,
        tracer,
        samples: s,
        ..
    } = client;
    conn.quit()?;

    let mut out = Outcome {
        attempted: s.lookups + s.writes + s.resolves + 1,
        failed: s.failed,
        ..Outcome::default()
    };
    out.metric("setup_s", setup_s, "s");
    out.metric("cost_total", served_cost, "cost");
    out.metric("peak_rss_mb", peak_rss, "MiB");
    eprintln!(
        "serve-tcp-churn: {} lookups, {} writes, {} swaps, {} resolves attempted, {} failed; \
         final epoch {served_epoch}",
        s.lookups,
        s.writes,
        s.swaps_s.len(),
        s.resolves,
        s.failed
    );
    if let Some(t) = tracer {
        traced_metrics(&instance, &first, &s, served_epoch, t, &mut out)?;
    } else {
        out.metric("solve_p50_s", median(&s.solves_s), "s");
        out.metric("request_p50_us", median(&s.lookups_us), "us");
    }
    Ok(out)
}

/// Mean seconds per call of `f` over batches of `batch` calls; the median
/// batch mean over `batches` batches.
fn per_call(batches: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut means = Vec::with_capacity(batches);
    for b in 0..batches {
        let t0 = Instant::now();
        for i in 0..batch {
            f(b * batch + i);
        }
        means.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    median(&means)
}

/// The client's own figures plus in-process calls into the server and
/// wire layers on the same instance (after the daemon has stopped, so
/// they compete with nothing).
fn traced_metrics(
    instance: &Instance,
    first: &dmn_solve::SolveReport,
    s: &Samples,
    epochs: u64,
    mut t: Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let handle = ServerHandle::start(
        instance,
        ServerConfig {
            background: false,
            ..config()
        },
    )
    .map_err(|e| e.to_string())?;
    let probe = t.begin("probes");
    let trace: Vec<(u64, usize)> = (0..1024)
        .map(|i| {
            (
                (i * 7 % instance.num_objects()) as u64,
                i * 13 % instance.num_nodes(),
            )
        })
        .collect();
    let lookup_s = t
        .time("server.lookup", |_| {
            per_call(20, 10_000, |i| {
                let (o, v) = trace[i % trace.len()];
                std::hint::black_box(handle.lookup(o, v).expect("known object"));
            })
        })
        .0;
    let lines: Vec<String> = trace
        .iter()
        .map(|&(object, node)| {
            Request::Lookup { object, node }
                .to_json()
                .to_string_compact()
        })
        .collect();
    let parse_s = t
        .time("wire.parse", |_| {
            per_call(20, 2_000, |i| {
                std::hint::black_box(Request::parse(&lines[i % lines.len()]).expect("valid"));
            })
        })
        .0;
    let requests: Vec<Request> = lines
        .iter()
        .map(|l| Request::parse(l).expect("valid"))
        .collect();
    let respond_s = t
        .time("wire.respond", |_| {
            per_call(20, 2_000, |i| {
                let doc = tcp::respond(&handle, &requests[i % requests.len()]);
                std::hint::black_box(doc.to_string_compact());
            })
        })
        .0;
    let apply_s = t
        .time("server.apply", |_| {
            per_call(20, 1_000, |i| {
                let delta = if i % 2 == 0 { 1.0 } else { -1.0 };
                let event = Event::DemandDelta {
                    object: 0,
                    node: 0,
                    read_delta: delta,
                    write_delta: 0.0,
                };
                std::hint::black_box(handle.apply(&event).expect("valid delta"));
            })
        })
        .0;
    let mut resolves = Vec::new();
    for i in 0..5 {
        let delta = if i % 2 == 0 { 50.0 } else { -50.0 };
        let event = Event::DemandDelta {
            object: (i % instance.num_objects()) as u64,
            node: 3,
            read_delta: delta,
            write_delta: 0.0,
        };
        handle.apply(&event).map_err(|e| e.to_string())?;
        resolves.push(t.time("server.resolve", |_| handle.resolve_now()).1);
    }
    handle.shutdown();
    let metric = instance.metric();
    let mut builds = Vec::new();
    for _ in 0..10 {
        let placement = first.placement.clone();
        let ids = (0..placement.num_objects() as u64).collect();
        let (_, secs) = t.time("server.snapshot_build", |_| {
            PlacementSnapshot::build(2, "approx", metric, placement, first.cost, ids, 0.0)
        });
        builds.push(secs);
    }
    let apsp: Vec<f64> = (0..5)
        .map(|_| t.time("graph.apsp", |_| dijkstra::apsp(&instance.graph)).1)
        .collect();
    let rows: Vec<f64> = (0..64)
        .map(|v| {
            t.time("graph.sssp_row", |_| {
                shortest_paths(&instance.graph, v * 3 % instance.num_nodes())
            })
            .1 * 1e6
        })
        .collect();
    t.end(probe);

    let lookup_p50 = median(&s.lookups_us);
    let traced_p50 = median(&s.traced_us);
    let encode = median(&s.encode_us);
    let decode = median(&s.decode_us);
    let parse = parse_s * 1e6;
    let respond = respond_s * 1e6;
    // The remainder is defined so that
    // lookup_p50 = encode + decode + parse + respond + overhead; the round
    // trip crosses loopback twice, so the in-process calls must leave a
    // positive share of it.
    let overhead = lookup_p50 - encode - decode - parse - respond;
    if overhead <= 0.0 {
        return Err(format!(
            "client and server calls take {} us, more than the {lookup_p50} us lookup round trip",
            lookup_p50 - overhead
        ));
    }
    let mut all: Vec<f64> = s.lookups_us.clone();
    all.extend_from_slice(&s.traced_us);
    out.metric("serve.lookup_p50_us", lookup_p50, "us");
    out.metric("serve.lookup_p99_us", quantile(&all, 0.99), "us");
    out.metric("serve.delta_p50_us", median(&s.deltas_us), "us");
    out.metric("serve.swap_p50_s", median(&s.swaps_s), "s");
    out.metric("serve.resolve_p50_s", median(&s.solves_s), "s");
    out.metric("client.encode_us", encode, "us");
    out.metric("client.decode_us", decode, "us");
    out.metric("wire.parse_us", parse, "us");
    out.metric("wire.respond_us", respond, "us");
    out.metric(
        "wire.bytes_per_lookup",
        s.lookup_bytes as f64 / s.lookups as f64,
        "bytes",
    );
    out.metric("wire.rtt_overhead_us", overhead, "us");
    out.metric("server.lookup_ns", lookup_s * 1e9, "ns");
    out.metric("server.apply_us", apply_s * 1e6, "us");
    out.metric("server.resolve_s", median(&resolves), "s");
    out.metric("server.snapshot_build_s", median(&builds), "s");
    out.metric("server.epochs", epochs as f64, "count");
    out.metric("graph.apsp_s", median(&apsp), "s");
    out.metric("graph.sssp_row_us", median(&rows), "us");
    out.metric("approx.copies", first.total_copies() as f64, "count");
    out.metric(
        "trace.overhead_pct",
        (traced_p50 / lookup_p50 - 1.0) * 100.0,
        "%",
    );
    out.metric("trace.spans", t.spans().len() as f64, "count");
    eprintln!(
        "traced serve-tcp-churn: lookup p50 {lookup_p50:.2} us = client encode {encode:.2} + \
         decode {decode:.2} + server parse {parse:.2} + respond {respond:.2} + loopback and \
         wake-ups {overhead:.2}"
    );
    out.spans = Some(t);
    Ok(())
}
