//! The independent answer checker.
//!
//! Everything here is computed without the program: the query and the
//! instance are parsed from their text forms by this module's own parsers,
//! witnesses come from this module's own hash-join evaluator (never
//! `database::eval`), and an answer is judged from its rendered output (the
//! fact texts of its contingency set), not from the program's tuple ids.
//!
//! An answer `(ρ, Γ)` passes when:
//! * the unfalsifiable flag holds exactly when some witness has no
//!   endogenous tuple;
//! * `Γ` (when present) holds only endogenous, live tuples, `|Γ| = ρ`, the
//!   query is false on `D ∖ Γ` (re-evaluated), and every tuple of `Γ` is the
//!   only `Γ`-tuple of some witness;
//! * a greedy packing of pairwise disjoint witness sets (a lower bound) is
//!   at most `ρ`;
//! * where the reduced witness sets form a bipartite graph, a König maximum
//!   matching equals `ρ` — this is the check for answers that carry no `Γ`;
//! * where asked, an exhaustive minimum hitting-set search equals `ρ`.

use std::collections::{HashMap, HashSet};

/// One atom of a checker query.
#[derive(Clone, Debug)]
pub struct Atom {
    pub rel: String,
    pub vars: Vec<usize>,
    pub exogenous: bool,
}

/// A Boolean conjunctive query as the checker sees it.
#[derive(Clone, Debug)]
pub struct Query {
    pub atoms: Vec<Atom>,
    pub num_vars: usize,
}

impl Query {
    /// Parses `[name :-] Rel(x,y), Rel^x(y,z), ...`.
    pub fn parse(text: &str) -> Result<Query, String> {
        let body = match text.find(":-") {
            Some(i) => &text[i + 2..],
            None => text,
        };
        let mut atoms = Vec::new();
        let mut var_ids: HashMap<String, usize> = HashMap::new();
        let mut rest = body.trim();
        while !rest.is_empty() {
            let open = rest
                .find('(')
                .ok_or_else(|| format!("missing '(' in {rest:?}"))?;
            let close = rest
                .find(')')
                .ok_or_else(|| format!("missing ')' in {rest:?}"))?;
            let head = rest[..open].trim();
            let (rel, exogenous) = match head.strip_suffix("^x") {
                Some(r) => (r.trim(), true),
                None => (head, false),
            };
            if rel.is_empty() {
                return Err(format!("empty relation name in {text:?}"));
            }
            let mut vars = Vec::new();
            for v in rest[open + 1..close].split(',') {
                let v = v.trim();
                let next = var_ids.len();
                vars.push(*var_ids.entry(v.to_string()).or_insert(next));
            }
            atoms.push(Atom {
                rel: rel.to_string(),
                vars,
                exogenous,
            });
            rest = rest[close + 1..].trim_start();
            rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
        }
        if atoms.is_empty() {
            return Err("query has no atoms".to_string());
        }
        Ok(Query {
            atoms,
            num_vars: var_ids.len(),
        })
    }

    /// Relations with at least one endogenous atom: their tuples may be
    /// deleted.
    pub fn endogenous_relations(&self) -> HashSet<&str> {
        self.atoms
            .iter()
            .filter(|a| !a.exogenous)
            .map(|a| a.rel.as_str())
            .collect()
    }
}

/// A stored fact.
#[derive(Clone, Debug)]
pub struct Fact {
    pub rel: String,
    pub values: Vec<u64>,
}

/// A set-semantics instance: duplicate facts collapse.
#[derive(Clone, Debug, Default)]
pub struct Instance {
    pub facts: Vec<Fact>,
    by_rel: HashMap<String, Vec<u32>>,
    lookup: HashMap<String, u32>,
}

/// The canonical fact text `Rel(c1,c2,...)`.
pub fn fact_text(rel: &str, values: &[u64]) -> String {
    let vals: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("{rel}({})", vals.join(","))
}

fn canonical(text: &str) -> String {
    text.chars().filter(|c| !c.is_whitespace()).collect()
}

impl Instance {
    /// Adds a fact; returns its id (the existing one for a duplicate).
    pub fn insert(&mut self, rel: &str, values: &[u64]) -> u32 {
        let key = fact_text(rel, values);
        if let Some(&id) = self.lookup.get(&key) {
            return id;
        }
        let id = self.facts.len() as u32;
        self.facts.push(Fact {
            rel: rel.to_string(),
            values: values.to_vec(),
        });
        self.by_rel.entry(rel.to_string()).or_default().push(id);
        self.lookup.insert(key, id);
        id
    }

    /// Parses the one-fact-per-line text format (numeric constants only,
    /// `#` comments).
    pub fn parse(text: &str) -> Result<Instance, String> {
        let mut inst = Instance::default();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (rel, values) = parse_fact(line)?;
            inst.insert(&rel, &values);
        }
        Ok(inst)
    }

    /// The id of a fact given as text, if present.
    pub fn find(&self, text: &str) -> Option<u32> {
        self.lookup.get(&canonical(text)).copied()
    }

    fn tuples_of(&self, rel: &str) -> &[u32] {
        self.by_rel.get(rel).map_or(&[], Vec::as_slice)
    }
}

/// Splits `Rel(1,2)` into its relation and numeric values.
pub fn parse_fact(text: &str) -> Result<(String, Vec<u64>), String> {
    let text = text.trim();
    let open = text.find('(').ok_or_else(|| format!("bad fact {text:?}"))?;
    let inner = text[open + 1..]
        .strip_suffix(')')
        .ok_or_else(|| format!("bad fact {text:?}"))?;
    let values = inner
        .split(',')
        .map(|v| {
            v.trim()
                .parse::<u64>()
                .map_err(|e| format!("{text:?}: {e}"))
        })
        .collect::<Result<Vec<u64>, String>>()?;
    Ok((text[..open].trim().to_string(), values))
}

/// One join step: the atom, the positions whose variables earlier steps
/// bound (probe key), and a hash index from those values to live facts.
struct Step<'a> {
    atom: &'a Atom,
    key_positions: Vec<usize>,
    index: HashMap<Vec<u64>, Vec<u32>>,
}

/// Plans a left-deep hash join: start at the atom with the fewest facts,
/// then repeatedly take the atom sharing the most already-bound variables
/// (fewest facts on ties).
fn plan<'a>(q: &'a Query, inst: &Instance, deleted: &[bool]) -> Vec<Step<'a>> {
    let mut bound = vec![false; q.num_vars];
    let mut left: Vec<usize> = (0..q.atoms.len()).collect();
    let mut steps = Vec::new();
    while !left.is_empty() {
        let score = |i: usize| {
            let a = &q.atoms[i];
            let shared = a.vars.iter().filter(|&&v| bound[v]).count();
            (shared, usize::MAX - inst.tuples_of(&a.rel).len())
        };
        let pick = *left.iter().max_by_key(|&&i| score(i)).expect("nonempty");
        left.retain(|&i| i != pick);
        let atom = &q.atoms[pick];
        let key_positions: Vec<usize> = (0..atom.vars.len())
            .filter(|&p| bound[atom.vars[p]])
            .collect();
        let mut index: HashMap<Vec<u64>, Vec<u32>> = HashMap::new();
        for &t in inst.tuples_of(&atom.rel) {
            if deleted.get(t as usize).copied().unwrap_or(false) {
                continue;
            }
            let vals = &inst.facts[t as usize].values;
            if vals.len() != atom.vars.len() {
                continue;
            }
            // A repeated variable inside the atom must take one value.
            let consistent = (0..vals.len()).all(|p| {
                let first = atom.vars.iter().position(|&v| v == atom.vars[p]);
                first.is_none_or(|f| vals[f] == vals[p])
            });
            if consistent {
                let key: Vec<u64> = key_positions.iter().map(|&p| vals[p]).collect();
                index.entry(key).or_default().push(t);
            }
        }
        for &v in &atom.vars {
            bound[v] = true;
        }
        steps.push(Step {
            atom,
            key_positions,
            index,
        });
    }
    steps
}

/// Enumerates the witnesses of `q` on the live facts (`deleted[t]` false),
/// each as its sorted, deduplicated set of fact ids; distinct valuations with
/// the same fact set are reported once. Stops after `limit` witnesses.
pub fn witnesses(q: &Query, inst: &Instance, deleted: &[bool], limit: usize) -> Vec<Vec<u32>> {
    let steps = plan(q, inst, deleted);
    let mut valuation: Vec<Option<u64>> = vec![None; q.num_vars];
    let mut chosen: Vec<u32> = Vec::with_capacity(steps.len());
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    let mut out = Vec::new();
    join(
        &steps,
        inst,
        &mut valuation,
        &mut chosen,
        &mut seen,
        &mut out,
        limit,
    );
    out
}

fn join(
    steps: &[Step<'_>],
    inst: &Instance,
    valuation: &mut Vec<Option<u64>>,
    chosen: &mut Vec<u32>,
    seen: &mut HashSet<Vec<u32>>,
    out: &mut Vec<Vec<u32>>,
    limit: usize,
) {
    if out.len() >= limit {
        return;
    }
    let Some((step, rest)) = steps.split_first() else {
        let mut set = chosen.clone();
        set.sort_unstable();
        set.dedup();
        if seen.insert(set.clone()) {
            out.push(set);
        }
        return;
    };
    let key: Vec<u64> = step
        .key_positions
        .iter()
        .map(|&p| valuation[step.atom.vars[p]].expect("bound by an earlier step"))
        .collect();
    let Some(candidates) = step.index.get(&key) else {
        return;
    };
    for &t in candidates {
        let vals = &inst.facts[t as usize].values;
        let mut newly = Vec::new();
        for (p, &v) in step.atom.vars.iter().enumerate() {
            if valuation[v].is_none() {
                valuation[v] = Some(vals[p]);
                newly.push(v);
            }
        }
        chosen.push(t);
        join(rest, inst, valuation, chosen, seen, out, limit);
        chosen.pop();
        for v in newly {
            valuation[v] = None;
        }
        if out.len() >= limit {
            return;
        }
    }
}

/// An answer to check, as read from the program's rendered output.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// `ρ`, `None` when unfalsifiable.
    pub resilience: Option<usize>,
    pub unfalsifiable: bool,
    /// Contingency set as fact texts; `None` when the method gives none.
    pub contingency: Option<Vec<String>>,
}

/// Node cap of the exhaustive minimum hitting-set search; past it the
/// search gives up (reported, not failed).
const BRUTE_NODES: usize = 2_000_000;
/// Largest reduced hypergraph (in sets) the König and reduction steps take
/// on.
const MAX_REDUCE_SETS: usize = 20_000;

/// What a passing check established.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// The certificate `Γ` was verified.
    pub certificate: bool,
    /// `ρ` equals a König maximum matching.
    pub konig: bool,
    /// `ρ` equals the exhaustive minimum.
    pub brute_force: bool,
    /// The exhaustive search was asked for but gave up at its node cap.
    pub brute_gave_up: bool,
}

/// Checks `ans` for `q` on the live facts of `inst`; see the module docs.
/// `brute_force` also runs the exhaustive minimum hitting-set search.
/// `Err` describes the first property that failed.
pub fn check(
    q: &Query,
    inst: &Instance,
    deleted: &[bool],
    ans: &Answer,
    brute_force: bool,
) -> Result<Verdict, String> {
    let ws = witnesses(q, inst, deleted, usize::MAX);
    let endo_rels = q.endogenous_relations();
    let endo: Vec<bool> = inst
        .facts
        .iter()
        .map(|f| endo_rels.contains(f.rel.as_str()))
        .collect();
    let sets: Vec<Vec<u32>> = ws
        .iter()
        .map(|w| w.iter().copied().filter(|&t| endo[t as usize]).collect())
        .collect();
    let mut verdict = Verdict::default();

    let unfalsifiable = sets.iter().any(Vec::is_empty);
    if ans.unfalsifiable != unfalsifiable {
        return Err(format!(
            "unfalsifiable is {} but {} witness has no endogenous tuple",
            ans.unfalsifiable,
            if unfalsifiable { "some" } else { "no" }
        ));
    }
    if unfalsifiable {
        if ans.resilience.is_some() || ans.contingency.is_some() {
            return Err("an unfalsifiable answer carries a value or a contingency".to_string());
        }
        return Ok(verdict);
    }
    let rho = ans
        .resilience
        .ok_or("a falsifiable answer has no resilience value")?;

    if let Some(gamma_text) = &ans.contingency {
        let mut gamma: Vec<u32> = Vec::with_capacity(gamma_text.len());
        for f in gamma_text {
            let t = inst
                .find(f)
                .ok_or_else(|| format!("contingency tuple {f} is not in the instance"))?;
            if deleted.get(t as usize).copied().unwrap_or(false) {
                return Err(format!("contingency tuple {f} is already deleted"));
            }
            if !endo[t as usize] {
                return Err(format!("contingency tuple {f} is exogenous"));
            }
            gamma.push(t);
        }
        let distinct: HashSet<u32> = gamma.iter().copied().collect();
        if distinct.len() != gamma.len() {
            return Err("contingency lists a tuple twice".to_string());
        }
        if gamma.len() != rho {
            return Err(format!("|contingency| = {} but ρ = {rho}", gamma.len()));
        }
        let mut after = deleted.to_vec();
        after.resize(inst.facts.len(), false);
        for &t in &gamma {
            after[t as usize] = true;
        }
        if let Some(w) = witnesses(q, inst, &after, 1).first() {
            let facts: Vec<String> = w
                .iter()
                .map(|&t| {
                    let f = &inst.facts[t as usize];
                    fact_text(&f.rel, &f.values)
                })
                .collect();
            return Err(format!(
                "the query still holds after deleting the contingency: witness {facts:?}"
            ));
        }
        // Minimality: each Γ tuple is the only Γ tuple of some witness.
        let mut sole = HashSet::new();
        for s in &sets {
            let mut hits = s.iter().filter(|t| distinct.contains(t));
            if let (Some(&t), None) = (hits.next(), hits.next()) {
                sole.insert(t);
            }
        }
        if let Some(&t) = gamma.iter().find(|t| !sole.contains(t)) {
            let f = &inst.facts[t as usize];
            return Err(format!(
                "contingency tuple {} is never the only one hitting a witness",
                fact_text(&f.rel, &f.values)
            ));
        }
        verdict.certificate = true;
    }

    let packing = greedy_packing(&sets);
    if packing > rho {
        return Err(format!("{packing} disjoint witnesses but ρ = {rho}"));
    }

    if sets.len() <= MAX_REDUCE_SETS {
        let reduced = reduce(sets);
        if let Some(k) = konig(&reduced) {
            if k != rho {
                return Err(format!("König matching gives {k} but ρ = {rho}"));
            }
            verdict.konig = true;
        }
        if brute_force {
            match min_hitting_set(&reduced, BRUTE_NODES) {
                Some(k) if k != rho => {
                    return Err(format!("exhaustive search gives {k} but ρ = {rho}"))
                }
                Some(_) => verdict.brute_force = true,
                None => verdict.brute_gave_up = true,
            }
        }
    } else if brute_force {
        verdict.brute_gave_up = true;
    }
    if ans.contingency.is_none() && !verdict.konig && !verdict.brute_force && rho > packing {
        return Err(format!(
            "no certificate and no independent value for ρ = {rho} (packing {packing})"
        ));
    }
    Ok(verdict)
}

/// A maximal family of pairwise disjoint sets, smallest sets first: a lower
/// bound on every hitting set.
pub fn greedy_packing(sets: &[Vec<u32>]) -> usize {
    let mut order: Vec<&Vec<u32>> = sets.iter().collect();
    order.sort_by_key(|s| s.len());
    let mut used: HashSet<u32> = HashSet::new();
    let mut count = 0;
    for s in order {
        if s.iter().all(|t| !used.contains(t)) {
            used.extend(s.iter().copied());
            count += 1;
        }
    }
    count
}

/// Minimum-hitting-set preserving reductions, to a fixpoint: drop sets that
/// contain another set, and drop a tuple whose sets all contain some other
/// tuple (that tuple can stand in for it in every hitting set).
pub fn reduce(sets: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    let mut sets = sets;
    loop {
        sets = drop_supersets(sets);
        let mut incidence: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, s) in sets.iter().enumerate() {
            for &t in s {
                incidence.entry(t).or_default().push(i);
            }
        }
        let mut tuples: Vec<u32> = incidence.keys().copied().collect();
        tuples.sort_unstable();
        let mut dropped: HashSet<u32> = HashSet::new();
        for &t in &tuples {
            let wt = &incidence[&t];
            let first = &sets[wt[0]];
            let dominated = first.iter().any(|&u| {
                u != t
                    && !dropped.contains(&u)
                    && is_subset(wt, &incidence[&u])
                    // Equal incidence: keep the smaller id only.
                    && (incidence[&u].len() > wt.len() || u < t)
            });
            if dominated {
                dropped.insert(t);
            }
        }
        if dropped.is_empty() {
            return sets;
        }
        for s in &mut sets {
            s.retain(|t| !dropped.contains(t));
        }
    }
}

fn is_subset(small: &[usize], big: &[usize]) -> bool {
    let mut j = 0;
    for &x in small {
        while j < big.len() && big[j] < x {
            j += 1;
        }
        if j == big.len() || big[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

fn drop_supersets(sets: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    let mut sets: Vec<Vec<u32>> = sets
        .into_iter()
        .map(|mut s| {
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect();
    sets.sort();
    sets.dedup();
    let present: HashSet<Vec<u32>> = sets.iter().cloned().collect();
    sets.into_iter()
        .filter(|s| {
            let n = s.len();
            if n > 16 {
                return true;
            }
            // Some proper nonempty subset is itself a set?
            !(1..(1u32 << n) - 1).any(|mask| {
                let sub: Vec<u32> = (0..n)
                    .filter(|&i| mask & (1 << i) != 0)
                    .map(|i| s[i])
                    .collect();
                present.contains(&sub)
            })
        })
        .collect()
}

/// König's theorem: when every set has at most two tuples and the pairs form
/// a bipartite graph, the minimum hitting set is the singletons plus a
/// maximum matching of the pairs they leave unhit. `None` otherwise.
pub fn konig(sets: &[Vec<u32>]) -> Option<usize> {
    if sets.iter().any(|s| s.len() > 2) {
        return None;
    }
    let forced: HashSet<u32> = sets.iter().filter(|s| s.len() == 1).map(|s| s[0]).collect();
    let edges: Vec<(u32, u32)> = sets
        .iter()
        .filter(|s| s.len() == 2 && !forced.contains(&s[0]) && !forced.contains(&s[1]))
        .map(|s| (s[0], s[1]))
        .collect();
    let mut ids: HashMap<u32, usize> = HashMap::new();
    for &(a, b) in &edges {
        for t in [a, b] {
            let next = ids.len();
            ids.entry(t).or_insert(next);
        }
    }
    let n = ids.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &edges {
        adj[ids[&a]].push(ids[&b]);
        adj[ids[&b]].push(ids[&a]);
    }
    // Two-colour the graph; an odd cycle means König does not apply.
    let mut side: Vec<Option<bool>> = vec![None; n];
    for start in 0..n {
        if side[start].is_some() {
            continue;
        }
        side[start] = Some(false);
        let mut stack = vec![start];
        while let Some(v) = stack.pop() {
            let s = side[v].expect("coloured before push");
            for &w in &adj[v] {
                match side[w] {
                    None => {
                        side[w] = Some(!s);
                        stack.push(w);
                    }
                    Some(x) if x == s => return None,
                    Some(_) => {}
                }
            }
        }
    }
    // Kuhn's augmenting paths from the `false` side.
    let mut mate: Vec<Option<usize>> = vec![None; n];
    let mut matching = 0;
    for v in (0..n).filter(|&v| side[v] == Some(false)) {
        let mut seen = vec![false; n];
        if augment(v, &adj, &mut mate, &mut seen) {
            matching += 1;
        }
    }
    Some(forced.len() + matching)
}

fn augment(v: usize, adj: &[Vec<usize>], mate: &mut [Option<usize>], seen: &mut [bool]) -> bool {
    for &w in &adj[v] {
        if seen[w] {
            continue;
        }
        seen[w] = true;
        if mate[w].is_none_or(|u| augment(u, adj, mate, seen)) {
            mate[w] = Some(v);
            return true;
        }
    }
    false
}

/// Exhaustive minimum hitting set: branch on the unhit set with the fewest
/// tuples, prune with a disjoint-packing bound. `None` past `max_nodes`.
pub fn min_hitting_set(sets: &[Vec<u32>], max_nodes: usize) -> Option<usize> {
    if sets.is_empty() {
        return Some(0);
    }
    let mut ids: HashMap<u32, usize> = HashMap::new();
    let dense: Vec<Vec<usize>> = sets
        .iter()
        .map(|s| {
            s.iter()
                .map(|&t| {
                    let next = ids.len();
                    *ids.entry(t).or_insert(next)
                })
                .collect()
        })
        .collect();
    let mut of_tuple: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
    for (i, s) in dense.iter().enumerate() {
        for &t in s {
            of_tuple[t].push(i);
        }
    }
    let mut search = Search {
        sets: &dense,
        of_tuple: &of_tuple,
        hit: vec![0; dense.len()],
        best: dense.len(),
        nodes: 0,
        max_nodes,
    };
    search.branch(0);
    (search.nodes <= max_nodes).then_some(search.best)
}

struct Search<'a> {
    sets: &'a [Vec<usize>],
    of_tuple: &'a [Vec<usize>],
    /// Number of chosen tuples in each set.
    hit: Vec<u32>,
    best: usize,
    nodes: usize,
    max_nodes: usize,
}

impl Search<'_> {
    fn packing_bound(&self) -> usize {
        let mut used = vec![false; self.of_tuple.len()];
        let mut count = 0;
        for (i, s) in self.sets.iter().enumerate() {
            if self.hit[i] == 0 && s.iter().all(|&t| !used[t]) {
                for &t in s {
                    used[t] = true;
                }
                count += 1;
            }
        }
        count
    }

    fn branch(&mut self, chosen: usize) {
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            return;
        }
        let unhit = (0..self.sets.len())
            .filter(|&i| self.hit[i] == 0)
            .min_by_key(|&i| self.sets[i].len());
        let Some(pick) = unhit else {
            self.best = self.best.min(chosen);
            return;
        };
        if chosen + self.packing_bound() >= self.best {
            return;
        }
        for k in 0..self.sets[pick].len() {
            let t = self.sets[pick][k];
            for &i in &self.of_tuple[t] {
                self.hit[i] += 1;
            }
            self.branch(chosen + 1);
            for &i in &self.of_tuple[t] {
                self.hit[i] -= 1;
            }
            if self.nodes > self.max_nodes {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `R(x,y), R(y,z)` on a path 1→2→3→4 plus a loop at 5: witnesses
    /// {R(1,2),R(2,3)}, {R(2,3),R(3,4)}, {R(5,5)}; ρ = 2 with Γ = {R(2,3),
    /// R(5,5)}.
    fn chain() -> (Query, Instance) {
        let q = Query::parse("q_chain :- R(x,y), R(y,z)").unwrap();
        let inst = Instance::parse("R(1,2)\nR(2,3)\nR(3,4)\nR(5,5)\n").unwrap();
        (q, inst)
    }

    fn answer(rho: usize, gamma: &[&str]) -> Answer {
        Answer {
            resilience: Some(rho),
            unfalsifiable: false,
            contingency: Some(gamma.iter().map(|s| s.to_string()).collect()),
        }
    }

    #[test]
    fn evaluator_finds_the_witness_sets() {
        let (q, inst) = chain();
        let mut ws = witnesses(&q, &inst, &[], usize::MAX);
        ws.sort();
        assert_eq!(ws, vec![vec![0, 1], vec![1, 2], vec![3]]);
    }

    #[test]
    fn repeated_variables_filter_facts() {
        let q = Query::parse("R(x,x), R(x,y), A(y)").unwrap();
        let inst = Instance::parse("R(1,1)\nR(1,2)\nA(2)\nR(3,4)\nA(4)\n").unwrap();
        // R(3,4) has no loop R(3,3), so only x = 1 gives a witness.
        let ws = witnesses(&q, &inst, &[], usize::MAX);
        assert_eq!(ws, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn a_correct_answer_passes_every_check() {
        let (q, inst) = chain();
        let v = check(&q, &inst, &[], &answer(2, &["R(2,3)", "R(5,5)"]), true).unwrap();
        assert!(v.certificate && v.brute_force);
    }

    #[test]
    fn rho_plus_one_is_rejected() {
        let (q, inst) = chain();
        let ans = answer(3, &["R(2,3)", "R(5,5)", "R(1,2)"]);
        assert!(check(&q, &inst, &[], &ans, true).is_err());
        // Without a certificate the exhaustive search still rejects it.
        let mut bare = answer(3, &[]);
        bare.contingency = None;
        assert!(check(&q, &inst, &[], &bare, true).is_err());
    }

    #[test]
    fn rho_minus_one_is_rejected() {
        let (q, inst) = chain();
        let ans = answer(1, &["R(2,3)"]);
        assert!(check(&q, &inst, &[], &ans, false).is_err());
        let mut bare = answer(1, &[]);
        bare.contingency = None;
        assert!(check(&q, &inst, &[], &bare, true).is_err());
        // The packing bound alone catches a value below two disjoint
        // witnesses.
        assert!(check(&q, &inst, &[], &bare, false).is_err());
    }

    #[test]
    fn a_contingency_missing_one_tuple_is_rejected() {
        let (q, inst) = chain();
        let ans = answer(2, &["R(2,3)"]);
        let err = check(&q, &inst, &[], &ans, false).unwrap_err();
        assert!(err.contains("|contingency|"), "{err}");
        // Even when the value is adjusted to match, the witness stands.
        let ans = answer(1, &["R(2,3)"]);
        let err = check(&q, &inst, &[], &ans, false).unwrap_err();
        assert!(err.contains("still holds"), "{err}");
    }

    #[test]
    fn a_contingency_with_a_deleted_tuple_is_rejected() {
        let (q, inst) = chain();
        // R(5,5) is deleted: the live instance has ρ = 1 with Γ = {R(2,3)}.
        let mut deleted = vec![false; inst.facts.len()];
        deleted[inst.find("R(5,5)").unwrap() as usize] = true;
        assert!(check(&q, &inst, &deleted, &answer(1, &["R(2,3)"]), true).is_ok());
        let err = check(&q, &inst, &deleted, &answer(2, &["R(2,3)", "R(5,5)"]), true).unwrap_err();
        assert!(err.contains("already deleted"), "{err}");
    }

    #[test]
    fn a_redundant_tuple_is_rejected() {
        let (q, inst) = chain();
        // Three tuples hit everything, but R(1,2) is never the only hitter.
        let ans = answer(3, &["R(1,2)", "R(2,3)", "R(5,5)"]);
        let err = check(&q, &inst, &[], &ans, false).unwrap_err();
        assert!(err.contains("never the only"), "{err}");
    }

    #[test]
    fn exogenous_tuples_cannot_be_deleted() {
        let q = Query::parse("A(x), H^x(x,y)").unwrap();
        let inst = Instance::parse("A(1)\nH(1,2)\n").unwrap();
        assert!(check(&q, &inst, &[], &answer(1, &["A(1)"]), true).is_ok());
        let err = check(&q, &inst, &[], &answer(1, &["H(1,2)"]), true).unwrap_err();
        assert!(err.contains("exogenous"), "{err}");
    }

    #[test]
    fn unfalsifiable_exactly_when_a_witness_is_all_exogenous() {
        let q = Query::parse("A^x(x), H^x(x,y)").unwrap();
        let inst = Instance::parse("A(1)\nH(1,2)\n").unwrap();
        let unf = Answer {
            resilience: None,
            unfalsifiable: true,
            contingency: None,
        };
        assert!(check(&q, &inst, &[], &unf, false).is_ok());
        let (cq, cinst) = chain();
        assert!(check(&cq, &cinst, &[], &unf, false).is_err());
        assert!(check(&q, &inst, &[], &answer(0, &[]), false).is_err());
    }

    #[test]
    fn konig_checks_answers_without_a_certificate() {
        // q_rats-like: A dominates R, so the reduced sets are A–S pairs.
        let q = Query::parse("R(x,y), A(x), T(z,x), S(y,z)").unwrap();
        let inst =
            Instance::parse("R(1,2)\nA(1)\nT(3,1)\nS(2,3)\nR(1,4)\nT(5,1)\nS(4,5)\n").unwrap();
        let mut ans = answer(1, &[]);
        ans.contingency = None;
        let v = check(&q, &inst, &[], &ans, false).unwrap();
        assert!(v.konig);
        ans.resilience = Some(2);
        assert!(check(&q, &inst, &[], &ans, false).is_err());
    }

    #[test]
    fn exhaustive_search_matches_small_cases() {
        // A triangle of pairs needs two tuples; König does not apply.
        let sets = vec![vec![1, 2], vec![2, 3], vec![1, 3]];
        assert_eq!(konig(&sets), None);
        assert_eq!(min_hitting_set(&sets, 1000), Some(2));
        assert_eq!(min_hitting_set(&[], 10), Some(0));
        // A star is hit by its centre.
        let star = vec![vec![0, 1], vec![0, 2], vec![0, 3]];
        assert_eq!(min_hitting_set(&star, 1000), Some(1));
        assert_eq!(konig(&star), Some(1));
    }

    #[test]
    fn reduction_keeps_the_minimum() {
        let sets = vec![vec![1, 2, 3], vec![1, 2], vec![4, 5], vec![5, 6, 4]];
        let reduced = reduce(sets.clone());
        assert_eq!(
            min_hitting_set(&reduced, 1000),
            min_hitting_set(&sets, 1000)
        );
        assert!(reduced.iter().all(|s| s.len() == 1));
    }
}
