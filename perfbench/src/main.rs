//! The dmn benchmark: end-to-end and per-layer figures of the solve and
//! serve paths, measured from outside the program through each crate's
//! public functions.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench steadiness [--runs N]
//! perfbench daemon                  (the serve workload's daemon process)
//! ```
//!
//! A run prints progress on stderr and, as the last line of stdout, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`). A failed output check prints the reason and exits 1.

mod check;
mod serve;
mod solve;
mod stats;
mod steady;
mod trace;

use solve::Kind;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["solve-sparse-10k", "solve-dense-225", "serve-tcp-churn"];

/// End-to-end metrics and units; every workload reports each of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("solve_p50_s", "s"),
    ("cost_total", "cost"),
    ("peak_rss_mb", "MiB"),
    ("request_p50_us", "us"),
];

/// Per-layer metrics and units. A layer a workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("graph.sssp_row_us", "us"),
    ("graph.ball_s", "s"),
    ("graph.closure_s", "s"),
    ("graph.closure_rows", "count"),
    ("graph.closure_row_us", "us"),
    ("graph.apsp_s", "s"),
    ("facility.phase1_s", "s"),
    ("facility.moves", "count"),
    ("facility.candidates", "count"),
    ("approx.object_s", "s"),
    ("approx.sparse_object_s", "s"),
    ("approx.phase23_s", "s"),
    ("approx.copies", "count"),
    ("cost.evaluate_s", "s"),
    ("solve.wall_s", "s"),
    ("solve.wall_1t_s", "s"),
    ("solve.cpu_s", "s"),
    ("solve.unaccounted_s", "s"),
    ("server.snapshot_build_s", "s"),
    ("server.apply_us", "us"),
    ("server.lookup_ns", "ns"),
    ("server.resolve_s", "s"),
    ("server.epochs", "count"),
    ("wire.parse_us", "us"),
    ("wire.respond_us", "us"),
    ("wire.bytes_per_lookup", "bytes"),
    ("wire.rtt_overhead_us", "us"),
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("serve.lookup_p50_us", "us"),
    ("serve.lookup_p99_us", "us"),
    ("serve.delta_p50_us", "us"),
    ("serve.swap_p50_s", "s"),
    ("serve.resolve_p50_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Option<Tracer>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "{name} = {value}");
        self.metrics.push((name, value, unit));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The result line: exactly the metrics of `table`, in its order; a
    /// per-layer metric the workload did not measure reads 0.
    fn json(&self, table: &[(&'static str, &'static str)], fill_missing: bool) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.value(name) {
                    Some(v) => v,
                    None if fill_missing => 0.0,
                    None => panic!("the workload did not measure {name}"),
                };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      perfbench steadiness [--runs N]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

/// `--flag value` pairs, in order.
fn flags(args: &[String]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            usage()
        };
        let Some(value) = it.next() else { usage() };
        out.push((name.to_string(), value.clone()));
    }
    out
}

fn flag<T: std::str::FromStr>(flags: &[(String, String)], name: &str) -> Option<T> {
    flags.iter().find(|(k, _)| k == name).map(|(_, v)| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --{name}: {v}");
            usage()
        })
    })
}

/// Runs one workload and returns its result line.
fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<String, String> {
    let mut out = match workload {
        "solve-sparse-10k" => solve::run(Kind::Sparse10k, seed, seconds, traced)?,
        "solve-dense-225" => solve::run(Kind::Dense225, seed, seconds, traced)?,
        "serve-tcp-churn" => serve::run(seed, seconds, traced)?,
        _ => usage(),
    };
    if out.failed > 0 {
        eprintln!(
            "{workload}: {} of {} operations failed",
            out.failed, out.attempted
        );
    }
    let Some(spans) = out.spans.take() else {
        return Ok(out.json(&END_TO_END, false));
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-seed{seed}.spans.jsonl"));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "{workload}: {} spans written to {}",
        spans.spans().len(),
        path.display()
    );
    Ok(out.json(&PER_LAYER, true))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("daemon") => serve::daemon().map(|()| None),
        Some("steadiness") => steady::run(&flags(&args[1..])).map(|()| None),
        _ => {
            let f = flags(&args);
            let workload: String = flag(&f, "workload").unwrap_or_else(|| usage());
            let seed: u64 = flag(&f, "seed").unwrap_or_else(|| usage());
            let seconds: f64 = flag(&f, "seconds").unwrap_or_else(|| usage());
            let traced = match flag::<u8>(&f, "trace").unwrap_or(0) {
                0 => false,
                1 => true,
                _ => usage(),
            };
            run(&workload, seed, seconds, traced).map(Some)
        }
    };
    match result {
        Ok(Some(line)) => println!("{line}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use dmn_json::Json;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json lacks {key}")
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = dmn_json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), owned(&super::END_TO_END));
        assert_eq!(names(&doc, "per_layer"), owned(&super::PER_LAYER));
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, super::WORKLOADS);
    }
}
