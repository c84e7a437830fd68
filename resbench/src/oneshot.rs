//! `oneshot_flow` and `oneshot_exact`: the `rescli solve` path, text in and
//! JSON answer out, one instance per operation.
//!
//! An operation calls `cq::parse_query`, `Engine::compile`,
//! `server::dbtext::parse_database_with_labels`, `Database::freeze`,
//! `CompiledQuery::solve` and `server::jsonio::report_json`, exactly the
//! calls `rescli solve --json` makes.

use crate::check;
use crate::trace::{Trace, ROOT};
use crate::{answer_from_json, body_text, mix, Outcome, Phase, Run};
use cq::catalogue::PaperClass;
use database::{QueryPlan, WitnessSet};
use resilience_core::engine::{Engine, SolveMethod, SolveOptions, SolveReport};
use server::{dbtext, jsonio};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use workloads::Workload;

/// One operation's input.
#[derive(Clone, Debug)]
pub struct Case {
    pub name: &'static str,
    pub query_text: String,
    pub db_text: String,
    pub tuples: usize,
    /// Generated from a fixed seed, not from `--seed`.
    pub fixed: bool,
    /// The checker runs its exhaustive search on this case.
    pub brute: bool,
}

/// The two Section 8.4 queries whose permutation-plus-R flow can return a
/// contingency set that leaves a witness standing; see the README.
pub const PERM_R: [&str; 2] = ["q_A3perm-R", "q_Swx3perm-R"];

/// Instances per query and round.
const FLOW_PER_QUERY: usize = 16;
const EXACT_PER_QUERY: usize = 6;
/// Fixed instances per permutation-plus-R query: small ones (seeds
/// `0..24`, 20 tuples per relation over 6 constants) that the exhaustive
/// check covers, and large ones (seeds `100..102`, 400 over 80) where the
/// construction's cubic scan shows in the tail.
const PERM_R_SMALL: u64 = 24;
const PERM_R_LARGE: std::ops::Range<u64> = 100..102;

fn case(name: &'static str, q: &cq::Query, seed: u64, tpr: usize, dom: u64) -> Case {
    let db = Workload::new(seed).random_database(q, tpr, dom);
    Case {
        name,
        query_text: body_text(q),
        db_text: dbtext::to_text(&db),
        tuples: db.num_tuples(),
        fixed: false,
        brute: false,
    }
}

/// Sizes of the `i`-th flow instance: every fourth is small enough for the
/// exhaustive check, the rest grow in three steps.
fn flow_size(i: usize) -> (usize, u64, bool) {
    match i % 4 {
        0 => (20, 6, true),
        1 => (80, 20, false),
        2 => (160, 40, false),
        _ => (240, 60, false),
    }
}

/// The `oneshot_flow` inputs: seeded instances of every PTIME catalogue
/// query, plus fixed instances of the two permutation-plus-R queries.
pub fn flow_cases(seed: u64) -> Vec<Case> {
    let mut out = Vec::new();
    for (qi, nq) in cq::catalogue::all_named_queries().into_iter().enumerate() {
        if nq.paper_class != PaperClass::PTime {
            continue;
        }
        if PERM_R.contains(&nq.name) {
            for i in 0..PERM_R_SMALL {
                let mut c = case(nq.name, &nq.query, i, 20, 6);
                c.fixed = true;
                c.brute = true;
                out.push(c);
            }
            for i in PERM_R_LARGE {
                let mut c = case(nq.name, &nq.query, i, 400, 80);
                c.fixed = true;
                out.push(c);
            }
            continue;
        }
        for i in 0..FLOW_PER_QUERY {
            let (tpr, dom, brute) = flow_size(i);
            let mut c = case(nq.name, &nq.query, mix(seed, qi as u64, i as u64), tpr, dom);
            c.brute = brute;
            out.push(c);
        }
    }
    out
}

/// The `oneshot_exact` inputs: seeded instances of every NP-complete and
/// open catalogue query, small enough for the exhaustive check.
pub fn exact_cases(seed: u64) -> Vec<Case> {
    let mut out = Vec::new();
    for (qi, nq) in cq::catalogue::all_named_queries().into_iter().enumerate() {
        if nq.paper_class == PaperClass::PTime {
            continue;
        }
        for i in 0..EXACT_PER_QUERY {
            let (tpr, dom) = [(12, 5), (18, 6), (24, 7)][i % 3];
            let mut c = case(nq.name, &nq.query, mix(seed, qi as u64, i as u64), tpr, dom);
            c.brute = true;
            out.push(c);
        }
    }
    out
}

/// One text-to-answer solve. With tracing on, each layer call is a child
/// span of the operation's root span, and after the operation (outside its
/// timed window) the solve is decomposed: enumeration, witness index and
/// reduced sets are timed on the same normalized query and instance.
pub fn solve_case(
    c: &Case,
    opts: &SolveOptions,
    trace: &mut Trace,
    op: u64,
) -> Result<String, String> {
    let root = trace.open("op", op, ROOT);
    let q = trace
        .span(
            "cq.parse",
            op,
            root,
            || cq::parse_query(&c.query_text),
            |_| 1,
        )
        .map_err(|e| format!("{}: query: {e}", c.name))?;
    let compiled = trace.span("engine.compile", op, root, || Engine::compile(&q), |_| 1);
    let (db, _labels) = trace
        .span(
            "dbtext.parse",
            op,
            root,
            || dbtext::parse_database_with_labels(&q, &c.db_text),
            |r| r.as_ref().map_or(0, |(d, _)| d.num_tuples() as u64),
        )
        .map_err(|e| format!("{}: database: {e}", c.name))?;
    let frozen = trace.span(
        "frozen.freeze",
        op,
        root,
        || db.freeze(),
        |f| f.num_tuples() as u64,
    );
    let solve_span = trace.open("engine.solve", op, root);
    let report = compiled.solve(&frozen, opts);
    trace.close(solve_span, c.tuples as u64);
    let report = report.map_err(|e| format!("{}: solve: {e}", c.name))?;
    let json = trace.span(
        "jsonio.render",
        op,
        root,
        || jsonio::report_json(c.name, &db, &report),
        |s| s.len() as u64,
    );
    trace.close(root, c.tuples as u64);
    if trace.is_on() {
        let solve_ns = trace.spans[solve_span as usize].ns();
        decompose(&compiled, &frozen, &report, solve_ns, trace, op);
    }
    Ok(json)
}

/// The span name of a flow method's derived dispatch time.
pub fn flow_span_name(method: &SolveMethod) -> Option<&'static str> {
    Some(match method {
        SolveMethod::LinearFlow => "dispatch.flow.LinearFlow",
        SolveMethod::BipartiteCover => "dispatch.flow.BipartiteCover",
        SolveMethod::PermutationFlow => "dispatch.flow.PermutationFlow",
        SolveMethod::RepFlow => "dispatch.flow.RepFlow",
        SolveMethod::ComponentMinimum => "dispatch.flow.ComponentMinimum",
        SolveMethod::SpecialFlow("q_A3perm-R") => "dispatch.flow.SpecialFlow.q_A3perm-R",
        SolveMethod::SpecialFlow("q_Swx3perm-R") => "dispatch.flow.SpecialFlow.q_Swx3perm-R",
        SolveMethod::SpecialFlow("q_TS3conf") => "dispatch.flow.SpecialFlow.q_TS3conf",
        _ => return None,
    })
}

/// Times enumeration, the witness index and the reduced sets of one solve
/// on the normalized query, and derives the dispatch time as the solve's
/// time minus enumeration and index (minus reduction too on the exact
/// path, which builds reduced sets before searching).
pub fn decompose(
    compiled: &resilience_core::engine::CompiledQuery,
    frozen: &database::FrozenDb,
    report: &SolveReport,
    solve_ns: u64,
    trace: &mut Trace,
    op: u64,
) {
    let parent = trace.open("decompose", op, ROOT);
    let normalized = &compiled.classification().evidence.normalized;
    let Ok(translation) = database::try_relation_translation(normalized, frozen) else {
        trace.close(parent, 0);
        return;
    };
    let plan = QueryPlan::compile(normalized);
    let mut buf = Vec::new();
    let t = Instant::now();
    database::witnesses_with_plan_into(&plan, &translation, frozen, &mut buf);
    let enum_ns = t.elapsed().as_nanos() as u64;
    trace.record("eval.enumerate", op, parent, enum_ns, buf.len() as u64);
    let t = Instant::now();
    let ws = WitnessSet::from_witnesses(normalized, frozen, buf);
    let index_ns = t.elapsed().as_nanos() as u64;
    trace.record("witness.index", op, parent, index_ns, ws.len() as u64);
    let t = Instant::now();
    let reduced = black_box(ws.reduced());
    let reduce_ns = t.elapsed().as_nanos() as u64;
    trace.record(
        "witness.reduce",
        op,
        parent,
        reduce_ns,
        reduced.len() as u64,
    );
    let dispatch = solve_ns.saturating_sub(enum_ns + index_ns);
    if let Some(name) = flow_span_name(&report.method) {
        trace.record("dispatch.flow", op, parent, dispatch, 1);
        trace.record(name, op, parent, dispatch, 1);
    } else if report.method == SolveMethod::ExactBranchAndBound {
        trace.record(
            "exact.search",
            op,
            parent,
            dispatch.saturating_sub(reduce_ns),
            report.nodes_explored as u64,
        );
    }
    trace.close(parent, 0);
}

/// Checks one case's rendered answer with the independent checker.
pub fn check_case(c: &Case, json: &str) -> Result<check::Verdict, String> {
    let q = check::Query::parse(&c.query_text)?;
    let inst = check::Instance::parse(&c.db_text)?;
    let ans = answer_from_json(json)?;
    check::check(&q, &inst, &[], &ans, c.brute)
}

/// Runs one oneshot workload over `cases`.
pub fn run(run: &Run, cases: Vec<Case>) -> Result<Outcome, String> {
    let opts = SolveOptions::new();
    let mut off = Trace::new(false);

    // Set-up: one whole round. The first round's answers are the reference
    // every later round must repeat byte for byte; `rescli solve` has no
    // set-up apart from the operations themselves.
    let mut warm = Trace::new(false);
    let t = Instant::now();
    let reference: Vec<Result<String, String>> = cases
        .iter()
        .enumerate()
        .map(|(i, c)| solve_case(c, &opts, &mut warm, i as u64))
        .collect();
    let mut setups = crate::Setups {
        times: vec![t.elapsed().as_secs_f64()],
        again: Box::new(|| {
            for (i, c) in cases.iter().enumerate() {
                black_box(solve_case(c, &opts, &mut warm, i as u64).ok());
            }
            Ok(())
        }),
    };

    let mut mismatches = 0u64;
    let mut round = |trace: &mut Trace, phase: &mut Phase| {
        for (i, c) in cases.iter().enumerate() {
            let op = phase.attempted;
            let first_span = trace.spans.len();
            let t = Instant::now();
            let got = solve_case(c, &opts, trace, op);
            let mut ns = t.elapsed().as_nanos() as u64;
            // Traced, the call also decomposes the solve after closing the
            // operation's root span: the operation's latency is that span.
            if let Some(root) = trace.spans.get(first_span).filter(|s| s.ns() > 0) {
                ns = root.ns();
            }
            phase.record(ns, c.tuples as u64);
            let same = match (&got, &reference[i]) {
                (Ok(s), Ok(r)) => s == r,
                (Err(a), Err(b)) => a == b,
                _ => false,
            };
            if !same {
                mismatches += 1;
            }
            black_box(got.ok());
        }
    };
    let mut trace = Trace::new(run.trace);
    let (untraced, traced) = if run.trace {
        let mut a = Phase::default();
        a.run_rounds(run.seconds / 2.0, None, |p| round(&mut off, p))?;
        let mut b = Phase::default();
        b.run_rounds(run.seconds / 2.0, None, |p| round(&mut trace, p))?;
        (a, Some(b))
    } else {
        let mut a = Phase::default();
        a.run_rounds(run.seconds, Some(&mut setups), |p| round(&mut off, p))?;
        (a, None)
    };
    let peak_rss = crate::peak_rss_mib();
    let rounds = untraced.rounds + traced.as_ref().map_or(0, |p| p.rounds);

    // Check every distinct answer once, outside the timed phase.
    let mut failed_cases = 0u64;
    let mut unexpected: Vec<String> = Vec::new();
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    for (c, r) in cases.iter().zip(&reference) {
        let verdict = r
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|json| check_case(c, json));
        match verdict {
            Ok(v) => {
                for (flag, key) in [
                    (v.certificate, "certificate"),
                    (v.konig, "konig"),
                    (v.brute_force, "brute_force"),
                    (v.brute_gave_up, "brute_gave_up"),
                ] {
                    if flag {
                        *tally.entry(key).or_default() += 1;
                    }
                }
            }
            Err(e) => {
                failed_cases += 1;
                if !c.fixed {
                    unexpected.push(format!("{}: {e}", c.name));
                }
                eprintln!("resbench: failed {} ({}): {e}", c.name, c.query_text);
            }
        }
    }
    eprintln!("resbench: checks per distinct answer: {tally:?}");
    for u in &unexpected {
        eprintln!("resbench: UNEXPECTED failure: {u}");
    }
    let attempted = untraced.attempted + traced.as_ref().map_or(0, |p| p.attempted);
    let mut outcome = Outcome {
        correct: unexpected.is_empty() && mismatches == 0,
        attempted,
        failed: failed_cases * rounds + mismatches,
        metrics: Vec::new(),
    };
    if let Some(traced) = traced {
        outcome.metrics = crate::per_layer(&trace, &untraced, &traced, &BTreeMap::new());
        crate::write_spans(run, &trace);
    } else {
        outcome.metrics = untraced.end_to_end(setups.median_s(), peak_rss);
    }
    Ok(outcome)
}

/// `resbench faults [--seeds N]`: solves `N` instances (seeds `0..N`, 20
/// tuples per relation over 6 constants, the sizing of `oneshot_flow`'s
/// fixed instances) of each permutation-plus-R query and lists every
/// `(query, seed)` pair whose answer the checker rejects.
pub fn faults(args: &[String]) -> Result<(), String> {
    let seeds: u64 = crate::flag(args, "--seeds")
        .unwrap_or("500")
        .parse()
        .map_err(|e| format!("--seeds: {e}"))?;
    let opts = SolveOptions::new();
    let mut off = Trace::new(false);
    for name in PERM_R {
        let nq = cq::catalogue::by_name(name).ok_or("catalogue query missing")?;
        let mut failing = 0;
        for seed in 0..seeds {
            let mut c = case(nq.name, &nq.query, seed, 20, 6);
            c.brute = true;
            let verdict =
                solve_case(&c, &opts, &mut off, seed).and_then(|json| check_case(&c, &json));
            if let Err(e) = verdict {
                failing += 1;
                println!("{name}\t{seed}\t{e}");
            }
        }
        println!("# {name}: {failing} of {seeds} instances rejected");
    }
    Ok(())
}
