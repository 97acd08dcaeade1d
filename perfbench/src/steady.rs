//! The steadiness command: runs each workload N times with seeds 1..=N
//! and prints, per end-to-end metric, the median, the quartiles and the
//! spread (interquartile distance over the median) next to the metric's
//! bound in `BENCHMARK.json`. It sets the bounds and rechecks them on a
//! later commit; it exits 1 when a spread exceeds its bound or the share
//! of failed operations differs between runs.

use std::process::{Command, Stdio};

use dmn_json::Json;

use crate::stats::quartiles_exclusive;
use crate::WORKLOADS;

/// The bound and run length `BENCHMARK.json` fixes.
struct Spec {
    run_seconds: f64,
    bounds: Vec<(String, f64)>,
}

fn spec() -> Result<Spec, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = dmn_json::parse(&text)?;
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json lacks run_seconds")?;
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json lacks end_to_end".into());
    };
    let bounds = metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Spec {
        run_seconds,
        bounds,
    })
}

/// One run's result line, decoded.
struct RunResult {
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("no result line")?;
    let doc = dmn_json::parse(last)?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload} seed {seed}: outputs not correct"));
    }
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).ok_or(format!("no {k}"));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("no metrics".into());
    };
    Ok(RunResult {
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics: metrics
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                )
            })
            .collect(),
    })
}

pub fn run(flags: &[(String, String)]) -> Result<(), String> {
    let spec = spec()?;
    let runs: u64 = crate::flag(flags, "runs").unwrap_or(10);
    let seconds = spec.run_seconds;
    if runs < 2 {
        return Err("--runs needs at least 2".into());
    }
    let mut steady = true;
    for workload in WORKLOADS {
        let results = (1..=runs)
            .map(|seed| run_once(workload, seed, seconds))
            .collect::<Result<Vec<_>, String>>()?;
        let shares: Vec<f64> = results.iter().map(|r| r.failed / r.attempted).collect();
        println!("{workload}: {runs} runs of {seconds} s, failed shares {shares:?}");
        if shares.iter().any(|&s| s != shares[0]) {
            steady = false;
            println!("  the share of failed operations differs between runs");
        }
        println!(
            "  {:<16} {:>14} {:>14} {:>14} {:>8} {:>7} {:>8}",
            "metric", "q1", "median", "q3", "spread", "bound", "/bound"
        );
        for (name, bound) in &spec.bounds {
            let values: Vec<f64> = results
                .iter()
                .map(|r| {
                    r.metrics
                        .iter()
                        .find(|(k, _)| k == name)
                        .map_or(f64::NAN, |m| m.1)
                })
                .collect();
            let [q1, q2, q3] = quartiles_exclusive(&values);
            let spread = (q3 - q1) / q2;
            println!(
                "  {name:<16} {q1:>14.6} {q2:>14.6} {q3:>14.6} {spread:>8.4} {bound:>7.3} {:>8.3}",
                spread / bound
            );
            if spread.is_nan() || spread > *bound {
                steady = false;
            }
        }
    }
    if steady {
        Ok(())
    } else {
        Err("a spread exceeds its bound".into())
    }
}
