//! `resbench` — one benchmark for the resilience engine and `resd`.
//!
//! ```text
//! resbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! resbench sweep --out <file> [--runs N] [--seed0 S] [--seconds S] [--trace 0|1]
//! resbench compare <old> <new> [--bench BENCHMARK.json]
//! resbench faults [--seeds N]
//! resbench serve <addr>
//! ```
//!
//! A run prints, as the last line of its standard output, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Spans of
//! a traced run are written to `.resbench/spans-<workload>-<seed>.jsonl`.
//! `serve` is the daemon the `resd_mixed` workload starts as a child
//! process: the `resd` binary's body (`server::serve`) with one worker.
//! See README.md for the workloads, metrics and checks.

mod check;
mod compare;
mod oneshot;
mod resd;
mod sharded;
mod stats;
mod trace;

use server::jsonio::{self, JsonValue};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;

pub const WORKLOADS: [&str; 4] = [
    "oneshot_flow",
    "oneshot_exact",
    "resd_mixed",
    "sharded_stream",
];

/// One benchmark run's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout (`.resbench/`).
    pub work_dir: PathBuf,
}

/// A metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// The set-ups of an untraced run: the first, made before the timed phase,
/// and `again`, which [`Phase::run_rounds`] repeats between the timed
/// phase's segments so that the median sees the host over the whole run,
/// as the operations do. A repeated set-up builds its own state and leaves
/// the one the operations use alone.
pub struct Setups<'a> {
    pub times: Vec<f64>,
    pub again: Box<dyn FnMut() -> Result<(), String> + 'a>,
}

impl Setups<'_> {
    pub fn median_s(&self) -> f64 {
        stats::median(&self.times)
    }
}

/// Operation latencies and counts of one timed phase.
#[derive(Default)]
pub struct Phase {
    pub lat_ns: Vec<u64>,
    pub attempted: u64,
    pub tuples: u64,
    pub rounds: u64,
    pub elapsed_s: f64,
}

impl Phase {
    pub fn record(&mut self, ns: u64, tuples: u64) {
        self.lat_ns.push(ns);
        self.attempted += 1;
        self.tuples += tuples;
    }

    /// Runs whole rounds until `seconds` have passed. With `setups`, the
    /// time is split into [`SETUPS`] segments, and each segment but the
    /// first follows one more set-up, timed outside the phase.
    pub fn run_rounds(
        &mut self,
        seconds: f64,
        setups: Option<&mut Setups>,
        mut round: impl FnMut(&mut Phase),
    ) -> Result<(), String> {
        let Some(setups) = setups else {
            self.segment(seconds, round);
            return Ok(());
        };
        for k in 0..SETUPS {
            if k > 0 {
                let t = Instant::now();
                (setups.again)()?;
                setups.times.push(t.elapsed().as_secs_f64());
            }
            self.segment(seconds / SETUPS as f64, &mut round);
        }
        Ok(())
    }

    fn segment(&mut self, seconds: f64, mut round: impl FnMut(&mut Phase)) {
        let t = Instant::now();
        loop {
            round(self);
            self.rounds += 1;
            if t.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        self.elapsed_s += t.elapsed().as_secs_f64();
    }

    fn ms(&self) -> Vec<f64> {
        self.lat_ns.iter().map(|&n| n as f64 / 1e6).collect()
    }

    pub fn p50_ms(&self) -> f64 {
        stats::median(&self.ms())
    }

    pub fn end_to_end(&self, setup_s: f64, peak_rss_mib: f64) -> Vec<Metric> {
        let ms = self.ms();
        vec![
            ("op_p50_ms".to_string(), stats::median(&ms), "ms"),
            ("op_p99_ms".to_string(), stats::percentile(&ms, 99.0), "ms"),
            (
                "ops_per_s".to_string(),
                self.attempted as f64 / self.elapsed_s,
                "ops/s",
            ),
            (
                "tuples_per_s".to_string(),
                self.tuples as f64 / self.elapsed_s,
                "tuples/s",
            ),
            ("setup_s".to_string(), setup_s, "s"),
            ("peak_rss_mib".to_string(), peak_rss_mib, "MiB"),
        ]
    }
}

/// How a per-layer metric is reduced from the spans.
enum Reduce {
    /// Median span duration in µs.
    MedianUs(&'static str),
    /// Total span ns over the total span counts.
    NsPerCount(&'static str),
    /// Mean span count.
    MeanCount(&'static str),
    /// A value the workload measured itself (0 when it did not).
    Given,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: &[(&str, &str, Reduce)] = &[
    ("cq.parse_us", "us", Reduce::MedianUs("cq.parse")),
    (
        "engine.compile_us",
        "us",
        Reduce::MedianUs("engine.compile"),
    ),
    ("engine.solve_us", "us", Reduce::MedianUs("engine.solve")),
    ("plancache.hit_us", "us", Reduce::MedianUs("plancache.hit")),
    (
        "plancache.miss_us",
        "us",
        Reduce::MedianUs("plancache.miss"),
    ),
    ("plancache.hit_ratio", "ratio", Reduce::Given),
    (
        "dbtext.ns_per_tuple",
        "ns",
        Reduce::NsPerCount("dbtext.parse"),
    ),
    (
        "frozen.ns_per_tuple",
        "ns",
        Reduce::NsPerCount("frozen.freeze"),
    ),
    (
        "eval.enumerate_us",
        "us",
        Reduce::MedianUs("eval.enumerate"),
    ),
    (
        "eval.witnesses",
        "count",
        Reduce::MeanCount("eval.enumerate"),
    ),
    (
        "eval.ns_per_witness",
        "ns",
        Reduce::NsPerCount("eval.enumerate"),
    ),
    ("witness.index_us", "us", Reduce::MedianUs("witness.index")),
    (
        "witness.reduce_us",
        "us",
        Reduce::MedianUs("witness.reduce"),
    ),
    (
        "witness.reduced_sets",
        "count",
        Reduce::MeanCount("witness.reduce"),
    ),
    ("dispatch.flow_us", "us", Reduce::MedianUs("dispatch.flow")),
    (
        "dispatch.flow_us.LinearFlow",
        "us",
        Reduce::MedianUs("dispatch.flow.LinearFlow"),
    ),
    (
        "dispatch.flow_us.BipartiteCover",
        "us",
        Reduce::MedianUs("dispatch.flow.BipartiteCover"),
    ),
    (
        "dispatch.flow_us.PermutationFlow",
        "us",
        Reduce::MedianUs("dispatch.flow.PermutationFlow"),
    ),
    (
        "dispatch.flow_us.RepFlow",
        "us",
        Reduce::MedianUs("dispatch.flow.RepFlow"),
    ),
    (
        "dispatch.flow_us.ComponentMinimum",
        "us",
        Reduce::MedianUs("dispatch.flow.ComponentMinimum"),
    ),
    (
        "dispatch.flow_us.SpecialFlow.q_A3perm-R",
        "us",
        Reduce::MedianUs("dispatch.flow.SpecialFlow.q_A3perm-R"),
    ),
    (
        "dispatch.flow_us.SpecialFlow.q_Swx3perm-R",
        "us",
        Reduce::MedianUs("dispatch.flow.SpecialFlow.q_Swx3perm-R"),
    ),
    (
        "dispatch.flow_us.SpecialFlow.q_TS3conf",
        "us",
        Reduce::MedianUs("dispatch.flow.SpecialFlow.q_TS3conf"),
    ),
    ("exact.us", "us", Reduce::MedianUs("exact.search")),
    ("exact.nodes", "count", Reduce::MeanCount("exact.search")),
    (
        "exact.ns_per_node",
        "ns",
        Reduce::NsPerCount("exact.search"),
    ),
    (
        "session.mutate_us",
        "us",
        Reduce::MedianUs("session.mutate"),
    ),
    (
        "session.resolve_us",
        "us",
        Reduce::MedianUs("session.resolve"),
    ),
    ("session.flow_paths_repaired", "count", Reduce::Given),
    ("session.flow_cold_rebuilds", "count", Reduce::Given),
    ("jsonio.render_us", "us", Reduce::MedianUs("jsonio.render")),
    ("jsonio.bytes", "bytes", Reduce::MeanCount("jsonio.render")),
    ("server.ping_rtt_us", "us", Reduce::MedianUs("server.ping")),
    (
        "server.overhead_us",
        "us",
        Reduce::MedianUs("server.overhead"),
    ),
    (
        "snapshot.write_us",
        "us",
        Reduce::MedianUs("snapshot.write"),
    ),
    ("snapshot.load_us", "us", Reduce::MedianUs("snapshot.load")),
    ("snapshot.bytes_per_tuple", "bytes", Reduce::Given),
    (
        "shard.plan_ns_per_tuple",
        "ns",
        Reduce::NsPerCount("shard.plan"),
    ),
    (
        "shard.build_ns_per_tuple",
        "ns",
        Reduce::NsPerCount("shard.build"),
    ),
    ("shard.solve_us", "us", Reduce::MedianUs("shard.solve")),
    ("shard.max_shard_bytes", "bytes", Reduce::Given),
    ("trace.spans", "count", Reduce::Given),
    ("trace.overhead_pct", "%", Reduce::Given),
];

/// Reduces a traced run to every per-layer metric. `untraced` and `traced`
/// are the two halves of the run (same operations, tracing off then on);
/// their median latencies give the tracing overhead.
pub fn per_layer(
    trace: &Trace,
    untraced: &Phase,
    traced: &Phase,
    given: &BTreeMap<&str, f64>,
) -> Vec<Metric> {
    let overhead = (traced.p50_ms() / untraced.p50_ms() - 1.0) * 100.0;
    PER_LAYER
        .iter()
        .map(|(name, unit, how)| {
            let value = match (name, how) {
                (&"trace.spans", _) => trace.spans.len() as f64,
                (&"trace.overhead_pct", _) => overhead,
                (_, Reduce::MedianUs(span)) => trace.median_us(span),
                (_, Reduce::NsPerCount(span)) => trace.ns_per_count(span),
                (_, Reduce::MeanCount(span)) => trace.mean_count(span),
                (_, Reduce::Given) => given.get(name).copied().unwrap_or(0.0),
            };
            (name.to_string(), value, *unit)
        })
        .collect()
}

/// Spans written per traced run: the first ones, enough to follow several
/// whole rounds of every workload (the metrics use all of them).
const WRITTEN_SPANS: usize = 100_000;

/// Writes a traced run's first [`WRITTEN_SPANS`] spans as JSON lines.
pub fn write_spans(run: &Run, trace: &Trace) {
    let path = run
        .work_dir
        .join(format!("spans-{}-{}.jsonl", run.workload, run.seed));
    if let Err(e) = std::fs::write(&path, trace.to_jsonl(WRITTEN_SPANS)) {
        eprintln!("resbench: cannot write {}: {e}", path.display());
    }
    eprintln!(
        "resbench: wrote {} of {} spans to {}",
        trace.spans.len().min(WRITTEN_SPANS),
        trace.spans.len(),
        path.display()
    );
}

/// Peak resident set (VmHWM) of process `pid` in MiB (0 when unreadable).
pub fn peak_rss_of(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    peak_rss_of("self")
}

/// A seed for input `(a, b)` of the run seeded `seed` (splitmix64).
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(0x632b_e59b_d9b4_e019);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The query's atoms as text, without the `name :-` head: a catalogue
/// name such as `q_A3perm-R` renders through `Query`'s `Display` but does
/// not parse back (see CHANGES.md), so inputs carry the body only.
pub fn body_text(q: &cq::Query) -> String {
    let s = q.to_string();
    match s.split_once(":- ") {
        Some((_, body)) => body.to_string(),
        None => s,
    }
}

/// Reads the answer fields of a rendered report or solve event.
pub fn answer_from_json(text: &str) -> Result<check::Answer, String> {
    let v = jsonio::parse_json(text)?;
    let unfalsifiable = v
        .get("unfalsifiable")
        .and_then(JsonValue::as_bool)
        .ok_or("answer has no unfalsifiable flag")?;
    let resilience = match v.get("resilience") {
        Some(JsonValue::Null) => None,
        Some(x) => Some(x.as_usize().ok_or("resilience is not a count")?),
        None => return Err("answer has no resilience".to_string()),
    };
    let contingency = match v.get("contingency") {
        Some(JsonValue::Arr(items)) => Some(
            items
                .iter()
                .map(|t| {
                    t.as_str()
                        .map(str::to_string)
                        .ok_or("contingency tuple is not a string")
                })
                .collect::<Result<Vec<String>, &str>>()?,
        ),
        _ => None,
    };
    Ok(check::Answer {
        resilience,
        unfalsifiable,
        contingency,
    })
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run_workload(args: &[String]) -> Result<Outcome, String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    let seed: u64 = flag(args, "--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = flag(args, "--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = flag(args, "--trace").unwrap_or("0") == "1";
    let cores = available_parallelism();
    let pinned = match pin_to_one_cpu() {
        Ok(cpu) => format!("the run is pinned to CPU {cpu}"),
        Err(e) => format!("WARNING: the run is not pinned to one CPU: {e}"),
    };
    let work_dir = PathBuf::from(".resbench");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("cannot create .resbench: {e}"))?;
    let run = Run {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        work_dir,
    };
    eprintln!(
        "resbench: workload {workload} seed {seed} seconds {seconds} trace {} \
         available_parallelism {cores} ({pinned})",
        u8::from(trace),
    );
    match workload {
        "oneshot_flow" => oneshot::run(&run, oneshot::flow_cases(seed)),
        "oneshot_exact" => oneshot::run(&run, oneshot::exact_cases(seed)),
        "resd_mixed" => resd::run(&run),
        "sharded_stream" => sharded::run(&run),
        other => Err(format!("unknown workload {other}; one of {WORKLOADS:?}")),
    }
}

/// Pins the calling thread, and so every thread and child process it starts
/// afterwards, to the first CPU of its allowed set; returns that CPU. On a
/// small virtual machine the closed loop's wake-ups between client, event
/// loop and worker otherwise land on either core, and runs differed by up
/// to twice in latency depending on where they landed. Where the affinity
/// calls are not permitted the run goes on unpinned, with a warning.
fn pin_to_one_cpu() -> Result<usize, String> {
    // A `cpu_set_t`: 1024 CPU bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..WORDS * 64)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => resd::serve_child(&args[1..]),
        Some("sweep") => compare::sweep(&args[1..]),
        Some("compare") => compare::compare(&args[1..]),
        Some("faults") => oneshot::faults(&args[1..]),
        _ => run_workload(&args).map(|outcome| println!("{}", outcome.to_json())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("resbench: {e}");
            ExitCode::FAILURE
        }
    }
}
