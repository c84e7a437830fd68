//! `sharded_stream`: an instance several times the per-shard cap, generated
//! by `workloads::StreamSpec` (Zipf-skewed relation sizes), written as shard
//! snapshots during set-up, then loaded and solved shard by shard.
//!
//! One operation loads every shard snapshot of one instance with
//! `database::snapshot::load` (default `LoadOptions`: mmap, payload checksum
//! verified) and feeds them to `core::shard::solve_sharded_streaming`, which
//! solves each shard while the next one loads.

use crate::check;
use crate::oneshot::decompose;
use crate::trace::{Trace, ROOT};
use crate::{mix, Outcome, Phase, Run};
use database::snapshot::{self, LoadOptions, WriteOptions};
use resilience_core::engine::{Engine, SolveOptions, SolveReport};
use resilience_core::shard::{solve_sharded, solve_sharded_streaming, ShardInstance};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workloads::StreamSpec;

/// The query: the paper's `q_ACconf` (a self-join, solved by linear
/// flow), atoms reordered so that `R`, first in the schema, takes the
/// head of the Zipf split.
const QUERY: &str = "R(x,y), A(x), R(z,y), C(z)";
/// Two instance scales, `(tuples, planted constant groups)`, with the same
/// density (24 constants per group) and the same number of shards. A round
/// solves the smaller one [`SMALL_PER_ROUND`] times and the larger one
/// once, so the larger sets the tail.
const SCALES: [(usize, usize); 2] = [(3_000, 48), (12_000, 192)];
const WIDTH: u64 = 24;
const SHARDS: usize = 8;
const SMALL_PER_ROUND: usize = 15;

fn shard_instance(s: snapshot::Snapshot) -> ShardInstance {
    ShardInstance {
        frozen: Arc::new(s.db),
        source_ids: s.source_ids.unwrap_or_default(),
    }
}

fn load_all(paths: &[PathBuf]) -> Result<Vec<ShardInstance>, String> {
    paths
        .iter()
        .map(|p| {
            snapshot::load(p, &LoadOptions::default())
                .map(shard_instance)
                .map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// One operation: load every shard snapshot and solve them streaming.
/// Returns the merged report and each load's duration.
fn load_and_solve(
    compiled: &resilience_core::engine::CompiledQuery,
    paths: &[PathBuf],
    opts: &SolveOptions,
) -> Result<(SolveReport, Vec<u64>), String> {
    let loads = Mutex::new(Vec::with_capacity(paths.len()));
    let shards = paths.iter().map(|p| {
        let t = Instant::now();
        let r = snapshot::load(p, &LoadOptions::default()).map(shard_instance);
        loads
            .lock()
            .expect("load timer lock poisoned")
            .push(t.elapsed().as_nanos() as u64);
        r
    });
    let out = solve_sharded_streaming(compiled, shards, opts, 1).map_err(|e| e.to_string())?;
    Ok((
        out.report,
        loads.into_inner().expect("load timer lock poisoned"),
    ))
}

/// The set-up pipeline, decomposed into its layer calls under spans:
/// `database::shard::plan_stream`, `build_shard` per shard, and
/// `snapshot::write` per shard. Returns (file bytes, largest shard bytes).
fn traced_pipeline(
    spec: &StreamSpec,
    dir: &Path,
    trace: &mut Trace,
) -> Result<(u64, usize), String> {
    let mut plan = trace.span(
        "shard.plan",
        0,
        ROOT,
        || database::shard::plan_stream(spec.stream(), SHARDS),
        |p| p.stream_len,
    );
    let mut bytes = 0u64;
    let mut max_shard = 0usize;
    for i in 0..plan.shards {
        let shard = trace.span(
            "shard.build",
            0,
            ROOT,
            || database::shard::build_shard(spec.schema(), spec.stream(), &mut plan, i),
            |s| s.frozen.num_tuples() as u64,
        );
        max_shard = max_shard.max(shard.frozen.resident_bytes());
        let path = dir.join(format!("traced-{i}.snap"));
        let opts = WriteOptions {
            labels: None,
            source_ids: Some(&shard.source_ids),
        };
        let stats = trace
            .span(
                "snapshot.write",
                0,
                ROOT,
                || snapshot::write(&path, &shard.frozen, &opts),
                |r| r.as_ref().map_or(0, |s| s.file_len),
            )
            .map_err(|e| e.to_string())?;
        bytes += stats.file_len;
    }
    Ok((bytes, max_shard))
}

/// One instance scale: its stream, shard snapshots and reference answer.
struct Scale {
    spec: StreamSpec,
    tuples: u64,
    paths: Vec<PathBuf>,
    reference: Option<SolveReport>,
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut trace = Trace::new(run.trace);
    let query = trace
        .span("cq.parse", 0, ROOT, || cq::parse_query(QUERY), |_| 1)
        .map_err(|e| e.to_string())?;
    let compiled = trace.span("engine.compile", 0, ROOT, || Engine::compile(&query), |_| 1);
    let mut scales: Vec<Scale> = SCALES
        .iter()
        .enumerate()
        .map(|(i, &(total, groups))| {
            let spec =
                StreamSpec::for_query(&query, mix(run.seed, 0x57, i as u64), total, groups, WIDTH);
            Scale {
                tuples: spec.len() as u64,
                spec,
                paths: Vec::new(),
                reference: None,
            }
        })
        .collect();
    let dir = run
        .work_dir
        .join(format!("shards-{}-{}", run.seed, std::process::id()));
    let result = measure(run, &mut trace, &mut scales, &compiled, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Checks a merged answer: its `ρ` against a whole-instance solve of the
/// same stream, its contingency set (translated to whole-instance tuples)
/// against the independent checker.
fn check_scale(
    scale: &Scale,
    report: &SolveReport,
    compiled: &resilience_core::engine::CompiledQuery,
) -> Result<(), String> {
    let whole = scale.spec.materialize();
    let whole_report = compiled
        .solve(&whole.freeze(), &SolveOptions::new())
        .map_err(|e| format!("whole-instance solve: {e}"))?;
    if whole_report.resilience != report.resilience {
        return Err(format!(
            "sharded ρ {} but whole-instance ρ {}",
            report.resilience, whole_report.resilience
        ));
    }
    let mut inst = check::Instance::default();
    for t in scale.spec.stream() {
        let vals: Vec<u64> = t.values().iter().map(|c| c.value()).collect();
        inst.insert(scale.spec.schema().name(t.rel()), &vals);
    }
    let answer = check::Answer {
        resilience: report.resilience.as_finite(),
        unfalsifiable: report.resilience.is_unfalsifiable(),
        contingency: report.contingency.as_ref().map(|g| {
            g.iter()
                .map(|&t| server::jsonio::render_tuple(&whole, t))
                .collect()
        }),
    };
    let q = check::Query::parse(QUERY)?;
    check::check(&q, &inst, &[], &answer, false).map(|_| ())
}

fn measure(
    run: &Run,
    trace: &mut Trace,
    scales: &mut [Scale],
    compiled: &resilience_core::engine::CompiledQuery,
    dir: &Path,
) -> Result<Outcome, String> {
    let opts = SolveOptions::new();
    // Set-up: write both instances' shard snapshots. A repeated set-up
    // writes another set of files; the operations load the first.
    let write = |scales: &[Scale], prefix: &str| {
        scales
            .iter()
            .enumerate()
            .map(|(i, scale)| {
                database::shard::write_shard_snapshots(
                    scale.spec.schema(),
                    || scale.spec.stream(),
                    SHARDS,
                    dir,
                    &format!("{prefix}{i}"),
                    None,
                )
                .map(|(paths, _plan)| paths)
                .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()
    };
    let t = Instant::now();
    let written = write(scales, "scale")?;
    let first_s = t.elapsed().as_secs_f64();
    for (scale, paths) in scales.iter_mut().zip(written) {
        scale.paths = paths;
    }
    for scale in scales.iter_mut() {
        if scale.paths.len() < 2 {
            return Err(format!(
                "a stream packed into {} shard(s)",
                scale.paths.len()
            ));
        }
        scale.reference = Some(load_and_solve(compiled, &scale.paths, &opts)?.0);
    }

    let mut given = BTreeMap::new();
    if run.trace {
        let (bytes, max_shard) = traced_pipeline(&scales[0].spec, dir, trace)?;
        given.insert(
            "snapshot.bytes_per_tuple",
            bytes as f64 / scales[0].tuples as f64,
        );
        given.insert("shard.max_shard_bytes", max_shard as f64);
    }
    let scales = &*scales;
    let mut setups = crate::Setups {
        times: vec![first_s],
        again: Box::new(|| write(scales, "again").map(|_| ())),
    };
    let mut mismatches = 0u64;
    let mut errors = Vec::new();
    let order: Vec<usize> = std::iter::repeat_n(0, SMALL_PER_ROUND).chain([1]).collect();
    let mut round = |trace: &mut Trace, phase: &mut Phase| {
        for &i in &order {
            let scale = &scales[i];
            let op = phase.attempted;
            let t = Instant::now();
            let got = load_and_solve(compiled, &scale.paths, &opts);
            phase.record(t.elapsed().as_nanos() as u64, scale.tuples);
            match got {
                Ok((report, loads)) => {
                    if Some(&report) != scale.reference.as_ref() {
                        mismatches += 1;
                    }
                    for ns in loads {
                        trace.record("snapshot.load", op, ROOT, ns, 1);
                    }
                }
                Err(e) => {
                    mismatches += 1;
                    errors.push(e);
                }
            }
            if trace.is_on() && i == 0 {
                if let Ok(shards) = load_all(&scale.paths) {
                    trace
                        .span(
                            "shard.solve",
                            op,
                            ROOT,
                            || solve_sharded(compiled, &shards, &opts, 1),
                            |_| 1,
                        )
                        .ok();
                    for s in &shards {
                        let t = Instant::now();
                        if let Ok(r) = compiled.solve(&s.frozen, &opts) {
                            let ns = t.elapsed().as_nanos() as u64;
                            decompose(compiled, &s.frozen, &r, ns, trace, op);
                        }
                    }
                }
            }
        }
    };
    let mut off = Trace::new(false);
    let (untraced, traced) = if run.trace {
        let mut a = Phase::default();
        a.run_rounds(run.seconds / 2.0, None, |p| round(&mut off, p))?;
        let mut b = Phase::default();
        b.run_rounds(run.seconds / 2.0, None, |p| round(trace, p))?;
        (a, Some(b))
    } else {
        let mut a = Phase::default();
        a.run_rounds(run.seconds, Some(&mut setups), |p| round(&mut off, p))?;
        (a, None)
    };
    let peak_rss = crate::peak_rss_mib();

    for scale in scales.iter() {
        let reference = scale.reference.as_ref().expect("solved in set-up");
        if let Err(e) = check_scale(scale, reference, compiled) {
            errors.push(format!("{} tuples: {e}", scale.tuples));
        }
    }
    let attempted = untraced.attempted + traced.as_ref().map_or(0, |p| p.attempted);
    let mut failed = mismatches;
    if !errors.is_empty() && failed == 0 {
        failed = attempted;
    }
    for e in &errors {
        eprintln!("resbench: sharded_stream: {e}");
    }
    let mut outcome = Outcome {
        correct: errors.is_empty() && mismatches == 0,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    if let Some(traced) = traced {
        outcome.metrics = crate::per_layer(trace, &untraced, &traced, &given);
        crate::write_spans(run, trace);
    } else {
        outcome.metrics = untraced.end_to_end(setups.median_s(), peak_rss);
    }
    Ok(outcome)
}
