//! `resd_mixed`: the daemon with one worker, driven in a closed loop over
//! one connection from this process: each request is sent when the previous
//! response has arrived, as `rescli remote` does.
//!
//! The loop repeats the same round of requests: a `ping`, a `solve`
//! of every instance uploaded during set-up, four `compile`s of renamed and
//! permuted catalogue variants (plan-cache hits) and one of a freshly
//! renamed shape (a miss), and what-if sessions (`session`, then
//! `delete`/`restore` writes between warm `resolve` reads, then `close`).
//! Every operation is timed at the client from send until the whole
//! response line has arrived.

use crate::check;
use crate::trace::{Trace, ROOT};
use crate::{answer_from_json, body_text, mix, Outcome, Phase, Run};
use database::{Database, FrozenDb, TupleId};
use resilience_core::engine::{CompiledQuery, Engine, SolveOptions};
use resilience_core::plancache::PlanCache;
use server::client::Client;
use server::jsonio::{self, JsonValue};
use server::{dbtext, ServerConfig};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Instant;
use workloads::Workload;

/// `resbench serve <addr>`: the `resd` binary's body with one worker.
pub fn serve_child(args: &[String]) -> Result<(), String> {
    let addr = args.first().ok_or("serve needs an address")?;
    server::serve(ServerConfig::new(addr.clone()).workers(1)).map_err(|e| e.to_string())
}

/// A daemon child process; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["serve", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stdout = child.stdout.take().ok_or("daemon stdout")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("resd listening on ")
            .ok_or_else(|| format!("unexpected daemon greeting {line:?}"))?
            .to_string();
        Ok(Daemon { child, addr })
    }

    fn peak_rss_mib(&self) -> f64 {
        crate::peak_rss_of(&self.child.id().to_string())
    }

    /// Graceful shutdown through the protocol, then reap.
    fn stop(mut self) -> Result<(), String> {
        let mut c = Client::connect(self.addr.as_str()).map_err(|e| e.to_string())?;
        c.shutdown()?;
        self.child.wait().map_err(|e| e.to_string())?;
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One uploaded instance and everything needed to check its answers.
struct Item {
    name: &'static str,
    query_text: String,
    db_text: String,
    tag: String,
    tuples: usize,
    query: cq::Query,
    compiled: CompiledQuery,
    db: Database,
    frozen: FrozenDb,
    labels: HashMap<String, u64>,
    /// The local solve's rendered report: every `solve` response must
    /// carry exactly this `result`.
    expected: String,
    query_id: String,
    db_id: String,
}

/// Solve instances: `(query, tuples per relation, domain, copies)`.
const SOLVE_SET: &[(&str, usize, u64, u64)] = &[
    ("q_rats", 60, 15, 2),
    ("q_ACconf", 60, 15, 2),
    ("q_Aperm", 60, 15, 2),
    ("z3", 60, 15, 2),
    ("q_TS3conf", 60, 15, 2),
    ("q_comp", 40, 12, 2),
    ("q_lin", 60, 15, 2),
    ("q_chain", 16, 6, 2),
    ("q_sj1triangle", 16, 6, 2),
    ("q_AC3conf", 14, 6, 2),
];

/// Items that also back a what-if session (first copy of each).
const SESSION_QUERIES: &[&str] = &["q_ACconf", "q_Aperm", "z3", "q_chain"];

/// Compiles of catalogue variants per round (cache hits) and of fresh
/// shapes (misses).
const HITS_PER_ROUND: usize = 4;
const VARIANTS_PER_SHAPE: usize = 4;

/// A session's script: the deleted set after each step is implied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Step {
    Open,
    Resolve,
    Delete(usize),
    Restore(usize),
    Close,
}

const SCRIPT: [Step; 9] = [
    Step::Open,
    Step::Resolve,
    Step::Delete(0),
    Step::Resolve,
    Step::Delete(1),
    Step::Resolve,
    Step::Restore(0),
    Step::Resolve,
    Step::Close,
];

/// Which of the two scripted deletions are in force after step `k`.
fn deleted_after(k: usize) -> [bool; 2] {
    let mut d = [false; 2];
    for s in &SCRIPT[..=k] {
        match *s {
            Step::Delete(i) => d[i] = true,
            Step::Restore(i) => d[i] = false,
            _ => {}
        }
    }
    d
}

struct SessionPlan {
    item: usize,
    /// The two facts the script deletes, rendered, and their local ids.
    facts: [String; 2],
    ids: [TupleId; 2],
}

/// A catalogue shape for the compile mix.
struct Shape {
    query: cq::Query,
    /// The representative's text, compiled during set-up.
    text: String,
    /// What `compile` echoed for the representative: every variant's
    /// compile must echo the same.
    echo: String,
    variants: Vec<String>,
}

struct Setup {
    items: Vec<Item>,
    sessions: Vec<SessionPlan>,
    shapes: Vec<Shape>,
}

fn build_inputs(seed: u64) -> Result<Setup, String> {
    let opts = SolveOptions::new();
    let mut items = Vec::new();
    for (k, &(name, tpr, dom, copies)) in SOLVE_SET.iter().enumerate() {
        let nq = cq::catalogue::by_name(name).ok_or("catalogue query missing")?;
        for c in 0..copies {
            let gen =
                Workload::new(mix(seed, 0x5E55 + k as u64, c)).random_database(&nq.query, tpr, dom);
            let query_text = body_text(&nq.query);
            let db_text = dbtext::to_text(&gen);
            // The local reference: the same calls `rescli solve` makes.
            let query = cq::parse_query(&query_text).map_err(|e| e.to_string())?;
            let compiled = Engine::compile(&query);
            let (db, labels) = dbtext::parse_database_with_labels(&query, &db_text)?;
            let frozen = db.freeze();
            let tag = format!("{name}#{c}");
            let report = compiled
                .solve(&frozen, &opts)
                .map_err(|e| format!("{name}: local solve: {e}"))?;
            let expected = jsonio::report_json(&tag, &db, &report);
            items.push(Item {
                name: nq.name,
                query_text,
                db_text,
                tag,
                tuples: db.num_tuples(),
                query,
                compiled,
                db,
                frozen,
                labels,
                expected,
                query_id: String::new(),
                db_id: String::new(),
            });
        }
    }
    let mut sessions = Vec::new();
    for name in SESSION_QUERIES {
        let item = items
            .iter()
            .position(|it| it.name == *name)
            .ok_or("session item missing")?;
        let it = &items[item];
        // Delete tuples of the answer's own contingency set, so that each
        // write changes the value; fall back to any endogenous tuple.
        let ans = answer_from_json(&it.expected)?;
        let mut facts: Vec<String> = ans.contingency.unwrap_or_default();
        for t in it.db.endogenous_tuples(&it.query) {
            let f = jsonio::render_tuple(&it.db, t);
            if !facts.contains(&f) {
                facts.push(f);
            }
        }
        if facts.len() < 2 {
            return Err(format!("{name}: fewer than two endogenous tuples"));
        }
        let lookup = |f: &str| dbtext::lookup_fact(&it.query, &it.labels, &it.frozen, f);
        sessions.push(SessionPlan {
            item,
            ids: [lookup(&facts[0])?, lookup(&facts[1])?],
            facts: [facts[0].clone(), facts[1].clone()],
        });
    }
    let shapes = cq::catalogue::all_named_queries()
        .into_iter()
        .enumerate()
        .map(|(i, nq)| {
            let mut wl = Workload::new(mix(seed, 0xCA7, i as u64));
            Shape {
                text: body_text(&nq.query),
                echo: String::new(),
                variants: wl
                    .query_variants(&nq.query, VARIANTS_PER_SHAPE)
                    .iter()
                    .map(body_text)
                    .collect(),
                query: nq.query,
            }
        })
        .collect();
    Ok(Setup {
        items,
        sessions,
        shapes,
    })
}

/// The ids one daemon gave during set-up: each shape's echoed query, each
/// item's query and instance id.
struct Ids {
    echoes: Vec<String>,
    items: Vec<(String, String)>,
}

/// The daemon's set-up: start it, compile every catalogue shape and the
/// solve queries, upload every instance. Returns the daemon and its ids.
fn set_up(setup: &Setup) -> Result<(Daemon, Ids), String> {
    let daemon = Daemon::start()?;
    let mut client = Client::connect(daemon.addr.as_str()).map_err(|e| e.to_string())?;
    let mut query_ids: HashMap<&str, String> = HashMap::new();
    let mut ids = Ids {
        echoes: Vec::with_capacity(setup.shapes.len()),
        items: Vec::with_capacity(setup.items.len()),
    };
    for shape in &setup.shapes {
        let (qid, echo, _) = client.compile(&shape.text)?;
        ids.echoes.push(echo);
        query_ids.insert(&shape.text, qid);
    }
    for item in &setup.items {
        let qid = query_ids
            .get(item.query_text.as_str())
            .cloned()
            .ok_or("solve query not compiled")?;
        let (did, tuples) = client.load_text(&qid, &item.db_text)?;
        if tuples != item.tuples {
            return Err(format!(
                "{}: daemon loaded {tuples} tuples, expected {}",
                item.tag, item.tuples
            ));
        }
        ids.items.push((qid, did));
    }
    Ok((daemon, ids))
}

/// A fresh shape: catalogue query `shape` with every relation renamed by
/// `suffix`, so its canonical form was never seen.
fn fresh_shape(q: &cq::Query, suffix: u64) -> String {
    let atoms: Vec<String> = q
        .atoms()
        .iter()
        .map(|a| {
            let args: Vec<&str> = a.args.iter().map(|&v| q.var_name(v)).collect();
            format!(
                "{}f{suffix}{}({})",
                q.schema().name(a.relation),
                if a.exogenous { "^x" } else { "" },
                args.join(",")
            )
        })
        .collect();
    atoms.join(", ")
}

/// Results gathered during the timed phases.
#[derive(Default)]
struct Log {
    errors: Vec<String>,
    /// Distinct resolve events per (session, step), with multiplicity.
    resolves: HashMap<(usize, usize, String), u64>,
    paths_repaired: u64,
    cold_rebuilds: u64,
    traced_resolves: u64,
    /// Rounds started, to name fresh shapes uniquely.
    rounds: u64,
}

fn ok(raw: &str) -> bool {
    raw.starts_with("{\"ok\": true")
}

/// The closed loop for `seconds`.
fn drive(
    setup: &Setup,
    client: &mut Client,
    seconds: f64,
    setups: Option<&mut crate::Setups>,
    trace: &mut Trace,
    log: &mut Log,
) -> Result<Phase, String> {
    let opts = SolveOptions::new();
    let mirror_cache = PlanCache::new(resilience_core::plancache::DEFAULT_CAPACITY);
    let sid = "s0";
    let mut phase = Phase::default();
    phase.run_rounds(seconds, setups, |phase: &mut Phase| {
        let round = log.rounds;
        log.rounds += 1;
        let mut send = |req: &str, tuples: usize, phase: &mut Phase| -> (String, u64) {
            let t = Instant::now();
            let raw = client
                .request_raw(req)
                .unwrap_or_else(|e| format!("transport: {e}"));
            let ns = t.elapsed().as_nanos() as u64;
            phase.record(ns, tuples as u64);
            (raw, ns)
        };

        let op = phase.attempted;
        let (raw, ns) = send("{\"op\": \"ping\"}", 0, phase);
        if !ok(&raw) {
            log.errors.push(format!("ping: {raw}"));
        }
        trace.record("server.ping", op, ROOT, ns, 0);

        for it in &setup.items {
            let req = format!(
                "{{\"op\": \"solve\", \"query_id\": \"{}\", \"db_id\": \"{}\", \"tag\": \"{}\"}}",
                it.query_id, it.db_id, it.tag
            );
            let op = phase.attempted;
            let (raw, rtt) = send(&req, it.tuples, phase);
            if jsonio::extract_raw(&raw, "result") != Some(it.expected.as_str()) {
                log.errors.push(format!("solve {}: {raw}", it.tag));
            }
            if trace.is_on() {
                let t = Instant::now();
                let report = it.compiled.solve(&it.frozen, &opts);
                let solve_ns = t.elapsed().as_nanos() as u64;
                trace.record("engine.solve", op, ROOT, solve_ns, it.tuples as u64);
                if let Ok(report) = report {
                    let t = Instant::now();
                    let json = jsonio::report_json(&it.tag, &it.db, &report);
                    let render_ns = t.elapsed().as_nanos() as u64;
                    trace.record("jsonio.render", op, ROOT, render_ns, json.len() as u64);
                    let local = solve_ns + render_ns;
                    trace.record("server.overhead", op, ROOT, rtt.saturating_sub(local), 1);
                }
            }
        }

        // Compiles: variants of successive shapes hit, one fresh shape
        // misses.
        let n = setup.shapes.len();
        let mut compiles: Vec<(String, String)> = (0..HITS_PER_ROUND)
            .map(|j| {
                let k = (round as usize * HITS_PER_ROUND + j) % (n * VARIANTS_PER_SHAPE);
                let shape = &setup.shapes[k % n];
                (shape.variants[k / n].clone(), shape.echo.clone())
            })
            .collect();
        let fresh = fresh_shape(&setup.shapes[round as usize % n].query, round);
        let fresh_display = cq::parse_query(&fresh)
            .map(|q| q.to_string())
            .unwrap_or_default();
        compiles.push((fresh, fresh_display));
        for (text, want) in &compiles {
            let req = format!(
                "{{\"op\": \"compile\", \"query\": \"{}\", \"id\": \"probe\"}}",
                jsonio::json_escape(text)
            );
            let op = phase.attempted;
            let (raw, _) = send(&req, 0, phase);
            let echo = jsonio::parse_json(&raw).ok().and_then(|v| {
                v.get("query")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            });
            if echo.as_deref() != Some(want.as_str()) {
                log.errors.push(format!("compile {text}: {raw}"));
            }
            if trace.is_on() {
                if let Ok(q) = trace.span("cq.parse", op, ROOT, || cq::parse_query(text), |_| 1) {
                    let t = Instant::now();
                    let cached = mirror_cache.compile(&q);
                    let ns = t.elapsed().as_nanos() as u64;
                    let name = if cached.hit {
                        "plancache.hit"
                    } else {
                        "plancache.miss"
                    };
                    trace.record(name, op, ROOT, ns, 1);
                    if !cached.hit {
                        trace.span("engine.compile", op, ROOT, || Engine::compile(&q), |_| 1);
                    }
                }
            }
        }

        for (si, plan) in setup.sessions.iter().enumerate() {
            let it = &setup.items[plan.item];
            let mut mirror = None;
            for (k, step) in SCRIPT.iter().enumerate() {
                let (req, tuples) =
                    match *step {
                        Step::Open => (
                            format!(
                                "{{\"op\": \"session\", \"query_id\": \"{}\", \"db_id\": \"{}\", \
                             \"session_id\": \"{sid}\"}}",
                                it.query_id, it.db_id
                            ),
                            0,
                        ),
                        Step::Resolve => (
                            format!("{{\"op\": \"resolve\", \"session_id\": \"{sid}\"}}"),
                            it.tuples,
                        ),
                        Step::Delete(i) | Step::Restore(i) => {
                            (
                                format!(
                            "{{\"op\": \"{}\", \"session_id\": \"{sid}\", \"tuple\": \"{}\"}}",
                            if matches!(step, Step::Delete(_)) { "delete" } else { "restore" },
                            jsonio::json_escape(&plan.facts[i])
                        ),
                                0,
                            )
                        }
                        Step::Close => (
                            format!("{{\"op\": \"close\", \"session_id\": \"{sid}\"}}"),
                            0,
                        ),
                    };
                let op = phase.attempted;
                let (raw, _) = send(&req, tuples, phase);
                if !ok(&raw) {
                    log.errors.push(format!("session step {step:?}: {raw}"));
                    continue;
                }
                if *step == Step::Resolve {
                    let event = jsonio::extract_raw(&raw, "event")
                        .unwrap_or_default()
                        .to_string();
                    if trace.is_on() {
                        if let Ok(v) = jsonio::parse_json(&event) {
                            let solver = v.get("solver");
                            let field = |k: &str| solver.and_then(|s| s.get(k));
                            log.paths_repaired += field("flow_paths_repaired")
                                .and_then(JsonValue::as_usize)
                                .unwrap_or(0)
                                as u64;
                            log.cold_rebuilds += u64::from(
                                field("flow_cold_rebuild").and_then(JsonValue::as_bool)
                                    == Some(true),
                            );
                            log.traced_resolves += 1;
                        }
                    }
                    *log.resolves.entry((si, k, event)).or_default() += 1;
                }
                if trace.is_on() {
                    match *step {
                        Step::Open => mirror = it.compiled.session(&it.frozen).ok(),
                        Step::Resolve => {
                            if let Some(m) = mirror.as_mut() {
                                trace.span(
                                    "session.resolve",
                                    op,
                                    ROOT,
                                    || m.solve(&opts).ok(),
                                    |_| 1,
                                );
                            }
                        }
                        Step::Delete(i) => {
                            if let Some(m) = mirror.as_mut() {
                                trace.span(
                                    "session.mutate",
                                    op,
                                    ROOT,
                                    || m.delete(&[plan.ids[i]]),
                                    |_| 1,
                                );
                            }
                        }
                        Step::Restore(i) => {
                            if let Some(m) = mirror.as_mut() {
                                trace.span(
                                    "session.mutate",
                                    op,
                                    ROOT,
                                    || m.restore(&[plan.ids[i]]),
                                    |_| 1,
                                );
                            }
                        }
                        Step::Close => mirror = None,
                    }
                }
            }
        }
    })?;
    Ok(phase)
}

/// Plan-cache `(hits, misses)` from the daemon's `stats`.
fn cache_counters(client: &mut Client) -> Result<(f64, f64), String> {
    let (v, _) = client.request("{\"op\": \"stats\"}")?;
    let pc = v
        .get("stats")
        .and_then(|s| s.get("plan_cache"))
        .ok_or("stats has no plan_cache")?;
    let get = |k: &str| pc.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    Ok((get("hits"), get("misses")))
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut setup = build_inputs(run.seed)?;

    // Set up; the first daemon serves the timed phase, and each repeated
    // set-up starts, fills and stops a daemon of its own.
    let t = Instant::now();
    let (daemon, ids) = set_up(&setup)?;
    let first_s = t.elapsed().as_secs_f64();
    for (shape, echo) in setup.shapes.iter_mut().zip(ids.echoes) {
        shape.echo = echo;
    }
    for (item, (qid, did)) in setup.items.iter_mut().zip(ids.items) {
        item.query_id = qid;
        item.db_id = did;
    }
    let setup = setup;
    let mut setups = crate::Setups {
        times: vec![first_s],
        again: Box::new(|| set_up(&setup).and_then(|(d, _)| d.stop())),
    };

    let mut client = Client::connect(daemon.addr.as_str()).map_err(|e| e.to_string())?;
    let mut log = Log::default();
    let mut off = Trace::new(false);
    let mut trace = Trace::new(run.trace);
    let mut given = BTreeMap::new();
    let (untraced, traced) = if run.trace {
        let a = drive(
            &setup,
            &mut client,
            run.seconds / 2.0,
            None,
            &mut off,
            &mut log,
        )?;
        let (h0, m0) = cache_counters(&mut client)?;
        let b = drive(
            &setup,
            &mut client,
            run.seconds / 2.0,
            None,
            &mut trace,
            &mut log,
        )?;
        let (h1, m1) = cache_counters(&mut client)?;
        given.insert(
            "plancache.hit_ratio",
            (h1 - h0) / ((h1 - h0) + (m1 - m0)).max(1.0),
        );
        (a, Some(b))
    } else {
        (
            drive(
                &setup,
                &mut client,
                run.seconds,
                Some(&mut setups),
                &mut off,
                &mut log,
            )?,
            None,
        )
    };
    let peak_rss = daemon.peak_rss_mib();
    drop(client);
    daemon.stop()?;

    // Checks outside the timed phase.
    let mut errors = std::mem::take(&mut log.errors);
    let mut failed = errors.len() as u64;
    let mut instances: HashMap<usize, (check::Query, check::Instance)> = HashMap::new();
    for ((si, step, event), n) in &log.resolves {
        let plan = &setup.sessions[*si];
        let it = &setup.items[plan.item];
        let (q, inst) = match instances.entry(plan.item) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert((
                check::Query::parse(&it.query_text)?,
                check::Instance::parse(&it.db_text)?,
            )),
        };
        let (q, inst) = (&*q, &*inst);
        let mut deleted = vec![false; inst.facts.len()];
        for (i, on) in deleted_after(*step).iter().enumerate() {
            if *on {
                let t = inst
                    .find(&plan.facts[i])
                    .ok_or("deleted fact not in the instance")?;
                deleted[t as usize] = true;
            }
        }
        let verdict =
            answer_from_json(event).and_then(|a| check::check(q, inst, &deleted, &a, true));
        if let Err(e) = verdict {
            errors.push(format!("resolve {} step {step}: {e}", it.tag));
            failed += n;
        }
    }
    // A renamed variant answers like its representative on the same facts.
    for (i, shape) in setup.shapes.iter().enumerate() {
        let db =
            Workload::new(mix(run.seed, 0xD1FF, i as u64)).random_database(&shape.query, 12, 6);
        let text = dbtext::to_text(&db);
        let rho = |query_text: &str| -> Result<String, String> {
            let q = cq::parse_query(query_text).map_err(|e| e.to_string())?;
            let db = dbtext::parse_database(&q, &text)?;
            let r = Engine::compile(&q)
                .solve(&db.freeze(), &SolveOptions::new())
                .map_err(|e| e.to_string())?;
            Ok(r.resilience.to_string())
        };
        let want = rho(&shape.text)?;
        for v in &shape.variants {
            let got = rho(v)?;
            if got != want {
                errors.push(format!("variant {v}: ρ {got}, representative {want}"));
            }
        }
    }
    for e in &errors {
        eprintln!("resbench: resd_mixed: {e}");
    }
    let attempted = untraced.attempted + traced.as_ref().map_or(0, |p| p.attempted);
    let mut outcome = Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics: Vec::new(),
    };
    if let Some(traced) = traced {
        let resolves = log.traced_resolves.max(1) as f64;
        given.insert(
            "session.flow_paths_repaired",
            log.paths_repaired as f64 / resolves,
        );
        given.insert(
            "session.flow_cold_rebuilds",
            log.cold_rebuilds as f64 / resolves,
        );
        outcome.metrics = crate::per_layer(&trace, &untraced, &traced, &given);
        crate::write_spans(run, &trace);
    } else {
        outcome.metrics = untraced.end_to_end(setups.median_s(), peak_rss);
    }
    Ok(outcome)
}
