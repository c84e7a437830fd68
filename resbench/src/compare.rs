//! `sweep` (many runs into one result file) and `compare` (one or two
//! result files against the bounds in `BENCHMARK.json`).
//!
//! A result file holds one JSON object per line:
//! `{"workload": ..., "seed": ..., "trace": 0|1, "available_parallelism": n,
//! "result": <the run's last output line>}`.

use crate::stats::{median, quartiles};
use server::jsonio::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::Command;

/// `resbench sweep --out FILE [--runs N] [--seed0 S] [--seconds S]
/// [--trace 0|1]`: runs every workload `N` times with
/// seeds `S, S+1, ...`, each run in its own process, appending each
/// result to `FILE`.
pub fn sweep(args: &[String]) -> Result<(), String> {
    let out = crate::flag(args, "--out").ok_or("--out is required")?;
    let num = |name: &str, default: &str| -> Result<u64, String> {
        crate::flag(args, name)
            .unwrap_or(default)
            .parse()
            .map_err(|e| format!("{name}: {e}"))
    };
    let runs = num("--runs", "10")?;
    let seed0 = num("--seed0", "1")?;
    let seconds = crate::flag(args, "--seconds").unwrap_or("10");
    let trace = crate::flag(args, "--trace").unwrap_or("0");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)
        .map_err(|e| format!("{out}: {e}"))?;
    for w in crate::WORKLOADS {
        for i in 0..runs {
            let seed = (seed0 + i).to_string();
            let output = Command::new(&exe)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    &seed,
                    "--seconds",
                    seconds,
                    "--trace",
                    trace,
                ])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            if !output.status.success() || parse_json(last).is_err() {
                return Err(format!(
                    "{w} seed {seed} failed: {}",
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let line = format!(
                "{{\"workload\": \"{w}\", \"seed\": {seed}, \"trace\": {trace}, \
                 \"available_parallelism\": {}, \"result\": {last}}}",
                crate::available_parallelism()
            );
            writeln!(file, "{line}").map_err(|e| e.to_string())?;
            eprintln!("resbench sweep: {w} seed {seed}: {last}");
        }
    }
    Ok(())
}

/// Per (workload, trace): metric → values, plus attempted and failed.
#[derive(Default)]
struct Side {
    metrics: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    runs: usize,
    incorrect: usize,
}

fn load(path: &str) -> Result<BTreeMap<(String, u64), Side>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<(String, u64), Side> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = parse_json(line).map_err(|e| format!("{path}: {e}"))?;
        let w = v
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("no workload")?;
        let trace = v.get("trace").and_then(JsonValue::as_usize).unwrap_or(0) as u64;
        let r = v.get("result").ok_or("no result")?;
        let side = out.entry((w.to_string(), trace)).or_default();
        side.runs += 1;
        side.attempted += r
            .get("attempted")
            .and_then(JsonValue::as_usize)
            .unwrap_or(0) as u64;
        side.failed += r.get("failed").and_then(JsonValue::as_usize).unwrap_or(0) as u64;
        if r.get("correct").and_then(JsonValue::as_bool) != Some(true) {
            side.incorrect += 1;
        }
        if let Some(JsonValue::Obj(fields)) = r.get("metrics") {
            for (name, m) in fields {
                if let Some(x) = m.get("value").and_then(JsonValue::as_f64) {
                    side.metrics.entry(name.clone()).or_default().push(x);
                }
            }
        }
    }
    Ok(out)
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds(path: &str) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = parse_json(&text)?;
    let list = v
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Median, quartiles and spread (quartile distance over the median).
fn summary(v: &[f64]) -> (f64, f64, f64, f64) {
    let m = median(v);
    let (q1, q3) = quartiles(v).unwrap_or((m, m));
    let spread = if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
    (m, q1, q3, spread)
}

/// `resbench compare OLD [NEW] [--bench BENCHMARK.json]`. With one file it
/// reports each end-to-end metric's spread against its bound; with two it
/// also flags a metric whose median got worse by more than its bound, and
/// marks "unresolved" a metric whose spread exceeds the bound on either
/// side.
pub fn compare(args: &[String]) -> Result<(), String> {
    let files: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && (*i == 0 || args[i - 1] != "--bench"))
        .map(|(_, a)| a)
        .collect();
    let old = load(files.first().ok_or("compare needs a result file")?)?;
    let new = match files.get(1) {
        Some(f) => Some(load(f)?),
        None => None,
    };
    let bounds = bounds(crate::flag(args, "--bench").unwrap_or("BENCHMARK.json"))?;
    let mut report = String::new();
    let mut worse = 0;
    for ((workload, trace), a) in &old {
        let b = new
            .as_ref()
            .and_then(|n| n.get(&(workload.clone(), *trace)));
        let _ = writeln!(
            report,
            "== {workload} (trace {trace}): {} runs, attempted {}, failed {} ({:.4}%), incorrect runs {}",
            a.runs,
            a.attempted,
            a.failed,
            100.0 * a.failed as f64 / a.attempted.max(1) as f64,
            a.incorrect
        );
        if let Some(b) = b {
            let _ = writeln!(
                report,
                "   new: {} runs, attempted {}, failed {} ({:.4}%), incorrect runs {}",
                b.runs,
                b.attempted,
                b.failed,
                100.0 * b.failed as f64 / b.attempted.max(1) as f64,
                b.incorrect
            );
        }
        for (name, values) in &a.metrics {
            let bound = bounds.iter().find(|(n, _, _)| n == name);
            let (m, q1, q3, spread) = summary(values);
            let mut line = format!(
                "   {name:42} {m:>14.4} [{q1:.4}, {q3:.4}] spread {:.3}",
                spread
            );
            if let Some((_, better, bound)) = bound {
                let _ = write!(line, " bound {bound}");
                let mut unresolved = spread > *bound;
                if let Some(bv) = b.and_then(|b| b.metrics.get(name)) {
                    let (bm, bq1, bq3, bspread) = summary(bv);
                    unresolved |= bspread > *bound;
                    let change = if m != 0.0 { (bm - m) / m.abs() } else { 0.0 };
                    let _ = write!(
                        line,
                        " | new {bm:.4} [{bq1:.4}, {bq3:.4}] spread {bspread:.3} change {:+.1}%",
                        change * 100.0
                    );
                    let is_worse = if better == "lower" {
                        change > *bound
                    } else {
                        -change > *bound
                    };
                    if is_worse {
                        worse += 1;
                        line.push_str(" WORSE");
                    }
                } else if spread * 3.0 > *bound {
                    line.push_str(" (spread above a third of the bound)");
                }
                if unresolved {
                    line.push_str(" unresolved");
                }
            } else if let Some(bv) = b.and_then(|b| b.metrics.get(name)) {
                let _ = write!(line, " | new {:.4}", median(bv));
            }
            report.push_str(&line);
            report.push('\n');
        }
    }
    print!("{report}");
    if worse > 0 {
        println!("{worse} metric(s) worse than their bound");
    }
    Ok(())
}
