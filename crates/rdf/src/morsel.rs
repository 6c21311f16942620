//! Morsel-driven, work-stealing BGP execution over one graph — the
//! crate's one optimised engine: the planner, the join loop and the
//! output stage of [`execute_morsel`], and of [`crate::engine::execute`]
//! as its one-inline-worker form.
//!
//! The *seed scan* (the first pattern of the join order) is split into
//! fixed-size **morsels**, the morsels feed one worker pool through
//! per-worker deques, and an idle worker **steals** from a victim's deque
//! — so the largest single work unit is bounded by
//! [`MorselConfig::morsel_triples`] no matter how large the seed range is.
//! The seed is the first pattern's slice of the index, or, when a
//! `st_within`/`st_near`/`t_between` filter's candidate ids (the sorted
//! run the spatial or temporal index answers, kept as is) are fewer than
//! that slice's triples, those ids: the first pattern becomes the
//! cheapest one mentioning the filtered variable, probed once per id in
//! run order, so a narrow box or window reads its few candidates instead
//! of the whole predicate. A join binds a filtered variable only to ids
//! a `binary_search` finds in its run.
//! Hand-rolled on `std` threads and mutex-guarded deques, matching the
//! repo's build-the-substrate style (no rayon). A pool of one runs inline
//! on the caller thread. Like every read of the graph, a query sees it as
//! of its last commit: the seed, the probes and the candidates all come
//! from the sorted levels.
//!
//! Each worker carries one set of flat columnar binding buffers
//! (`cur`/`next`/`scratch`, `width`-sized row chunks) across every
//! operator of every morsel it runs, so the hot join loop never
//! reallocates per pattern. Two refinements ride on the plan:
//!
//! * **eager comparison filters** — a `FILTER (?s >= k)` is applied the
//!   moment `?s` binds instead of after the last join, collapsing the
//!   intermediate row count at the earliest possible step (a per-worker
//!   memo caches the verdict per term id, so runs of equal ids decode and
//!   compare once); a candidate seed applies its variable's filters to
//!   each id before probing with it;
//! * **hinted probes** — within a morsel the probe keys of a join step
//!   ascend whenever the seed came off a sorted index prefix or sorted
//!   candidate ids, so each step (a candidate seed's probes too) keeps a
//!   [`ProbeHint`] cursor and probes via [`Graph::pattern_slice_hinted`]
//!   (galloping search from the previous position) instead of a cold
//!   O(log n) binary search.
//!
//! Join order comes from the per-predicate statistics
//! ([`Graph::probe_width`] plus degree refinement), computed **once
//! up front** — valid because the greedy cost function depends only on
//! which variables are bound, which is identical for every row.
//!
//! Workers append projected rows to a flat id buffer (no per-row
//! allocation); the merge concatenates them. Each projected row is hashed
//! **at most once per query**, and where it happens is read off the
//! query, never a setting:
//!
//! * a projection that covers every BGP variable needs no dedup at all —
//!   an index-nested-loop join over a duplicate-free store cannot repeat
//!   a full binding (the binding fixes the triple each pattern matched,
//!   every triple lives in exactly one morsel);
//! * a projection that drops a variable dedups once, in the merge, which
//!   is also what catches the same row produced by two workers;
//! * only `LIMIT` over such a projection keeps a worker-local set too:
//!   the early exit fires when one worker alone has produced `limit`
//!   *distinct* rows, and that count needs the set.

use crate::dict::TermId;
use crate::engine::{
    cmp_satisfies, cmp_terms, pushdown_candidates, Bindings, Candidates, QueryStats, Row,
};
use crate::query::{CmpOp, FilterExpr, PatternTerm, SelectQuery};
use crate::store::{Graph, PatternSlice, ProbeHint, Triple};
use crate::term::Term;
use datacron_geo::{FxHashMap, FxHashSet};
use datacron_obs::Stopwatch;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::time::Duration;

/// Default morsel size: small enough that one work unit can't serialize a
/// query (the p99-tail guarantee), large enough to amortize deque traffic.
pub const DEFAULT_MORSEL_TRIPLES: usize = 4096;

/// Executor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorselConfig {
    /// Worker pool size; `0` = one worker per available core.
    pub workers: usize,
    /// Seed-scan triples, or seed candidate ids, per morsel (the bound on
    /// the largest single work unit). Values below 1 are treated as 1.
    pub morsel_triples: usize,
}

impl Default for MorselConfig {
    fn default() -> Self {
        MorselConfig {
            workers: 0,
            morsel_triples: DEFAULT_MORSEL_TRIPLES,
        }
    }
}

impl MorselConfig {
    /// A config with an explicit worker count (`0` = auto) and the default
    /// morsel size.
    pub fn with_workers(workers: usize) -> Self {
        MorselConfig {
            workers,
            ..MorselConfig::default()
        }
    }

    /// The concrete pool size this config resolves to on this host.
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        }
    }
}

/// Executor statistics: how much of the pool the execution used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MorselStats {
    /// Worker pool size the config resolved to.
    pub workers: usize,
    /// Workers that processed at least one morsel.
    pub workers_used: usize,
    /// Morsels executed.
    pub morsels: u64,
    /// Morsels obtained by stealing from another worker's deque.
    pub steals: u64,
}

/// One position of a planned pattern, resolved against the graph's
/// dictionary: a constant id or a variable slot.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Const(TermId),
    Var(usize),
}

impl Slot {
    /// The probe value of this position for `row` (`None` = wildcard or
    /// not-yet-bound variable).
    fn probe(&self, row: &[Option<TermId>]) -> Option<TermId> {
        match *self {
            Slot::Const(id) => Some(id),
            Slot::Var(vi) => row[vi],
        }
    }
}

/// One join step: a triple pattern resolved against the graph (a variable
/// may repeat within one pattern).
#[derive(Debug, Clone, Copy)]
struct Step {
    s: Slot,
    p: Slot,
    o: Slot,
}

impl Step {
    /// The pattern's probe values under `row`.
    fn probe(&self, row: &[Option<TermId>]) -> (Option<TermId>, Option<TermId>, Option<TermId>) {
        (self.s.probe(row), self.p.probe(row), self.o.probe(row))
    }

    /// True when the variable `vi` occurs in the pattern.
    fn mentions(&self, vi: usize) -> bool {
        [self.s, self.p, self.o]
            .into_iter()
            .any(|slot| matches!(slot, Slot::Var(v) if v == vi))
    }
}

/// Graph-independent query analysis: variable table, projection, eager
/// comparison filters. Same validity rules as the reference engine's
/// prologue.
struct Shape<'q> {
    all_vars: Vec<String>,
    /// The all-unbound row: what a seed scan extends, and what a pattern
    /// probes with before any variable is bound.
    unbound: Vec<Option<TermId>>,
    projected: Vec<String>,
    proj_idx: Vec<usize>,
    /// True when the projection drops a BGP variable, so two bindings can
    /// project to one row and the output needs a dedup.
    drops_var: bool,
    /// Per variable slot: the comparison filters to apply the moment the
    /// slot binds.
    eager: Vec<Vec<(CmpOp, &'q Term)>>,
    var_idx: FxHashMap<String, usize>,
    /// False when a filter or projected variable never occurs in the BGP
    /// (the query is empty everywhere).
    valid: bool,
}

fn shape(q: &SelectQuery) -> Shape<'_> {
    let all_vars = q.all_vars();
    let var_idx: FxHashMap<String, usize> = all_vars
        .iter()
        .enumerate()
        .map(|(i, v)| (v.clone(), i))
        .collect();
    let projected: Vec<String> = if q.vars.is_empty() {
        all_vars.clone()
    } else {
        q.vars.clone()
    };
    let valid = q.filters.iter().all(|f| var_idx.contains_key(f.var()))
        && projected.iter().all(|v| var_idx.contains_key(v));
    let proj_idx: Vec<usize> = if valid {
        projected.iter().map(|v| var_idx[v]).collect()
    } else {
        Vec::new()
    };
    let mut eager: Vec<Vec<(CmpOp, &Term)>> = vec![Vec::new(); all_vars.len()];
    if valid {
        for f in &q.filters {
            if let FilterExpr::Compare { var, op, value } = f {
                eager[var_idx[var]].push((*op, value));
            }
        }
    }
    let drops_var = (0..all_vars.len()).any(|vi| !proj_idx.contains(&vi));
    Shape {
        unbound: vec![None; all_vars.len()],
        all_vars,
        projected,
        proj_idx,
        drops_var,
        eager,
        var_idx,
        valid,
    }
}

/// What the first step of the join order runs against before any
/// variable is bound.
enum Seed<'a> {
    /// The triples matching the first step, found once.
    Slice(PatternSlice<'a>),
    /// The candidate run of variable slot `var`: the first step is probed
    /// once per id with `var` bound to it, so successive probes gallop
    /// through the index.
    Candidates { var: usize },
}

/// An execution plan: join order as resolved steps, the pushdown
/// candidate runs, and the seed.
struct Plan<'a> {
    steps: Vec<Step>,
    candidates: Candidates,
    seed: Seed<'a>,
}

/// The planner's estimate of the rows `step` yields per incoming row once
/// the variables in `bound` are bound: its O(log n) range estimate,
/// refined by predicate statistics (a bound variable acts as a constant at
/// probe time, so the predicate's average degree predicts the per-probe
/// fan-out, and an unbound variable with pushdown candidates can bind only
/// those, each with that same fan-out).
fn step_cost(
    g: &Graph,
    shape: &Shape<'_>,
    candidates: &Candidates,
    step: &Step,
    bound: &[bool],
) -> f64 {
    let (s, p, o) = step.probe(&shape.unbound);
    let mut cost = g.probe_width(s, p, o) as f64;
    let pstats = p.and_then(|pid| g.predicate_stats(pid));
    for (slot, degree) in [
        (
            step.s,
            pstats.map(|st| st.triples as f64 / st.distinct_subjects.max(1) as f64),
        ),
        (step.p, None),
        (
            step.o,
            pstats.map(|st| st.triples as f64 / st.distinct_objects.max(1) as f64),
        ),
    ] {
        let Slot::Var(vi) = slot else { continue };
        if bound[vi] {
            cost = match degree {
                Some(d) => cost.min(d),
                None => cost / 16.0,
            };
        } else if let Some(cand) = &candidates[vi] {
            cost = cost.min(cand.len() as f64 * degree.unwrap_or(1.0));
        }
        // A variable with an eager comparison filter sheds rows at bind
        // time, so patterns binding it early are cheaper than their raw
        // range width.
        if !shape.eager[vi].is_empty() {
            cost /= 4.0;
        }
    }
    cost
}

/// Greedy join order over `remaining`, starting with only the `seed`
/// variable bound, if any: repeatedly the cheapest step ([`step_cost`]),
/// the first one drawn from the steps that mention `seed`.
/// Computed once, not per join state: the cost depends only on the
/// bound-variable set, which the order itself determines. The last step
/// left needs no costing.
fn join_order(
    g: &Graph,
    shape: &Shape<'_>,
    candidates: &Candidates,
    mut remaining: Vec<Step>,
    mut seed: Option<usize>,
) -> Vec<Step> {
    let mut bound: Vec<bool> = (0..shape.all_vars.len())
        .map(|vi| seed == Some(vi))
        .collect();
    let mut steps = Vec::with_capacity(remaining.len());
    while remaining.len() > 1 {
        let mut best: Option<(usize, f64)> = None;
        for (ri, step) in remaining.iter().enumerate() {
            if !seed.is_none_or(|vi| step.mentions(vi)) {
                continue;
            }
            let cost = step_cost(g, shape, candidates, step, &bound);
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((ri, cost));
            }
        }
        let Some((ri, _)) = best else { break };
        let step = remaining.swap_remove(ri);
        for slot in [step.s, step.p, step.o] {
            if let Slot::Var(vi) = slot {
                bound[vi] = true;
            }
        }
        steps.push(step);
        seed = None;
    }
    steps.append(&mut remaining);
    steps
}

/// Plans `q` (a non-empty BGP) against the graph. Returns the plan
/// (`None` = provably empty: a variable the BGP never binds, a filter the
/// graph's spatial or temporal index finds no candidate for, or a constant
/// absent from the dictionary) and the pushdown candidate count (counted
/// even for a missing constant, matching the reference engine's accounting).
///
/// The seed is the greedy first step's slice, unless a variable of that
/// step has pushdown candidates fewer than the slice's triples: then the
/// smallest such run seeds the join as it is, the first step is the
/// cheapest one mentioning its variable, and the rest follow greedily
/// with it bound.
/// That step's cost weighs each candidate by its fan-out, so instants a
/// whole fleet shares do not seed ahead of points of one node each.
fn plan_graph<'a>(g: &'a Graph, q: &SelectQuery, shape: &Shape<'_>) -> (Option<Plan<'a>>, usize) {
    if !shape.valid {
        return (None, 0);
    }
    let (candidates, pushdown) = pushdown_candidates(g, q, &shape.var_idx);
    // Every filter variable occurs in the BGP, so every row binds it to a
    // candidate: with none, no seed scan can produce a row.
    if candidates.iter().flatten().any(Vec::is_empty) {
        return (None, pushdown);
    }

    // Resolve every pattern against the dictionary, once.
    let slot = |pt: &PatternTerm| match pt {
        PatternTerm::Term(t) => g.dict().lookup(t).map(Slot::Const),
        PatternTerm::Var(v) => Some(Slot::Var(shape.var_idx[v])),
    };
    let mut remaining: Vec<Step> = Vec::with_capacity(q.patterns.len());
    for pat in &q.patterns {
        let (Some(s), Some(p), Some(o)) = (slot(&pat.s), slot(&pat.p), slot(&pat.o)) else {
            // Unknown constant: zero matches — the query is empty.
            return (None, pushdown);
        };
        remaining.push(Step { s, p, o });
    }

    let steps = join_order(g, shape, &candidates, remaining.clone(), None);
    let Some(first) = steps.first() else {
        return (None, pushdown);
    };
    let (s, p, o) = first.probe(&shape.unbound);
    let slice = g.pattern_slice(s, p, o);
    let smallest = (0..candidates.len())
        .filter(|&vi| first.mentions(vi))
        .filter_map(|vi| Some((candidates[vi].as_ref()?.len(), vi)))
        .min()
        .filter(|&(len, _)| len < slice.len());
    let plan = match smallest {
        None => Plan {
            steps,
            seed: Seed::Slice(slice),
            candidates,
        },
        Some((_, var)) => Plan {
            steps: join_order(g, shape, &candidates, remaining, Some(var)),
            seed: Seed::Candidates { var },
            candidates,
        },
    };
    (Some(plan), pushdown)
}

/// A fixed-size unit of seed-scan work: a key range of the seed slice or
/// a run of the seed's candidate ids.
#[derive(Debug, Clone, Copy)]
struct Morsel {
    lo: usize,
    hi: usize,
}

/// Everything a worker needs, shared by reference across the pool.
struct Ctx<'a, 'q> {
    graph: &'a Graph,
    plan: Plan<'a>,
    shape: &'q Shape<'q>,
    /// The query's `LIMIT`, at least 1 (see [`RunOutcome::limit`]).
    limit: Option<usize>,
    limit_hit: AtomicBool,
}

/// Per-worker results, merged after the scope joins.
#[derive(Default)]
struct WorkerOut {
    /// Projected rows back to back, `proj_idx.len()` ids each.
    flat: Vec<TermId>,
    /// Rows in `flat` (a count of its own: rows may be zero ids wide).
    rows: usize,
    probes: usize,
    intermediate: usize,
    morsels: u64,
    steals: u64,
}

/// Pops the next morsel: own deque from the front (preserving ascending
/// seed order for the probe hints), victims from the back (the far end,
/// minimizing repeat steals from the same run). Never holds two deque
/// locks at once, so no ordering edge is ever introduced.
fn next_morsel(deques: &[Mutex<VecDeque<Morsel>>], w: usize, steals: &mut u64) -> Option<Morsel> {
    if let Ok(mut own) = deques[w].lock() {
        if let Some(m) = own.pop_front() {
            return Some(m);
        }
    }
    let n = deques.len();
    for i in 1..n {
        let v = (w + i) % n;
        if let Ok(mut victim) = deques[v].lock() {
            if let Some(m) = victim.pop_back() {
                *steals += 1;
                return Some(m);
            }
        }
    }
    None
}

/// The buffers `bind` writes: the one-row staging area and the
/// eager-filter memo.
struct BindBufs {
    /// Staging row; on a successful bind it holds the extended row.
    scratch: Vec<Option<TermId>>,
    /// Per-variable memo of the last eager-filter verdict: consecutive
    /// equal ids (sorted seed slices) decode and compare once.
    memo: Vec<Option<(TermId, bool)>>,
}

/// Reusable per-worker state: the flat columnar binding buffers carried
/// across operators and morsels, probe hints, and the local dedup set.
struct WorkerState {
    /// Current bindings, `width`-sized row chunks.
    cur: Vec<Option<TermId>>,
    /// Next step's bindings (swapped with `cur` after each step).
    next: Vec<Option<TermId>>,
    /// Per-step probe cursors (reset at morsel start).
    hints: Vec<ProbeHint>,
    /// The all-unbound row but for the seeded variable: what a candidate
    /// seed probes the first step with.
    seed_row: Vec<Option<TermId>>,
    bufs: BindBufs,
    /// Worker-local dedup over projected rows; used only when a `LIMIT`
    /// has to count distinct rows of a variable-dropping projection.
    seen: FxHashSet<Row>,
}

impl WorkerState {
    fn new(width: usize, steps: usize) -> Self {
        WorkerState {
            cur: Vec::new(),
            next: Vec::new(),
            hints: vec![ProbeHint::default(); steps],
            seed_row: vec![None; width],
            bufs: BindBufs {
                scratch: vec![None; width],
                memo: vec![None; width],
            },
            seen: FxHashSet::default(),
        }
    }
}

/// Whether `id` passes every eager comparison filter of variable slot
/// `vi`. `memo` keeps the last verdict per slot, so runs of equal ids
/// decode and compare once.
fn eager_ok(ctx: &Ctx<'_, '_>, vi: usize, id: TermId, memo: &mut [Option<(TermId, bool)>]) -> bool {
    let filters = &ctx.shape.eager[vi];
    if filters.is_empty() {
        return true;
    }
    match memo[vi] {
        Some((mid, verdict)) if mid == id => verdict,
        _ => {
            let verdict = ctx.graph.decode(id).is_some_and(|term| {
                filters
                    .iter()
                    .all(|(op, value)| cmp_satisfies(*op, cmp_terms(term, value)))
            });
            memo[vi] = Some((id, verdict));
            verdict
        }
    }
}

/// Binds `t` into `bufs.scratch` (copied from `row` first), honoring
/// repeated variables, pushdown candidate runs, and eager comparison
/// filters. Returns false when the triple cannot extend the row.
fn bind(
    ctx: &Ctx<'_, '_>,
    step: &Step,
    row: &[Option<TermId>],
    t: Triple,
    bufs: &mut BindBufs,
) -> bool {
    bufs.scratch.copy_from_slice(row);
    for (slot, id) in [(step.s, t.s), (step.p, t.p), (step.o, t.o)] {
        let Slot::Var(vi) = slot else { continue };
        match bufs.scratch[vi] {
            Some(existing) if existing != id => return false,
            Some(_) => {}
            None => {
                if let Some(cand) = &ctx.plan.candidates[vi] {
                    if cand.binary_search(&id).is_err() {
                        return false;
                    }
                }
                if !eager_ok(ctx, vi, id, &mut bufs.memo) {
                    return false;
                }
                bufs.scratch[vi] = Some(id);
            }
        }
    }
    true
}

/// One probe of one join step: extends `row` with every triple of
/// `matches` that binds. Appends the extended rows to `next` and returns
/// how many there were.
fn extend_row(
    ctx: &Ctx<'_, '_>,
    step: &Step,
    row: &[Option<TermId>],
    matches: PatternSlice<'_>,
    bufs: &mut BindBufs,
    next: &mut Vec<Option<TermId>>,
) -> usize {
    let mut rows = 0;
    for t in matches.iter() {
        if bind(ctx, step, row, t, bufs) {
            next.extend_from_slice(&bufs.scratch);
            rows += 1;
        }
    }
    rows
}

/// Runs one morsel through every join step and appends surviving projected
/// rows to `out`.
fn run_morsel(ctx: &Ctx<'_, '_>, m: Morsel, st: &mut WorkerState, out: &mut WorkerOut) {
    let (g, shape) = (ctx.graph, ctx.shape);
    let width = shape.all_vars.len();
    let Some((seed, joins)) = ctx.plan.steps.split_first() else {
        return;
    };
    for h in &mut st.hints {
        *h = ProbeHint::default();
    }
    let Some((seed_hint, join_hints)) = st.hints.split_first_mut() else {
        return;
    };

    // Seed phase, into the flat `cur` buffer: the all-unbound row against
    // the morsel's key range, or one hinted probe per candidate id of the
    // morsel that passes its variable's eager filters.
    st.cur.clear();
    let mut cur_rows = match &ctx.plan.seed {
        Seed::Slice(slice) => extend_row(
            ctx,
            seed,
            &shape.unbound,
            slice.slice(m.lo, m.hi),
            &mut st.bufs,
            &mut st.cur,
        ),
        &Seed::Candidates { var } => {
            let ids = ctx.plan.candidates[var].as_deref().unwrap_or_default();
            let mut rows = 0;
            for &id in &ids[m.lo..m.hi] {
                if !eager_ok(ctx, var, id, &mut st.bufs.memo) {
                    continue;
                }
                st.seed_row[var] = Some(id);
                let (s, p, o) = seed.probe(&st.seed_row);
                let matches = g.pattern_slice_hinted(s, p, o, seed_hint);
                out.probes += 1;
                rows += extend_row(ctx, seed, &st.seed_row, matches, &mut st.bufs, &mut st.cur);
            }
            rows
        }
    };
    out.intermediate += cur_rows;

    // Join steps over the reused flat buffers.
    for (step, hint) in joins.iter().zip(join_hints) {
        if cur_rows == 0 {
            break;
        }
        st.next.clear();
        let mut next_rows = 0usize;
        for r in 0..cur_rows {
            let row = &st.cur[r * width..(r + 1) * width];
            let (s, p, o) = step.probe(row);
            let matches = g.pattern_slice_hinted(s, p, o, hint);
            out.probes += 1;
            next_rows += extend_row(ctx, step, row, matches, &mut st.bufs, &mut st.next);
        }
        std::mem::swap(&mut st.cur, &mut st.next);
        cur_rows = next_rows;
        out.intermediate += cur_rows;
    }

    // Projection + limit cap. Every BGP variable is bound after the last
    // step, so no residual filter pass remains (the eager path already
    // applied every comparison).
    let cap = ctx.limit;
    let count_distinct = cap.is_some() && shape.drops_var;
    for r in 0..cur_rows {
        if cap.is_some_and(|c| out.rows >= c) {
            // This worker alone already holds `limit` distinct rows, so
            // the rest of the morsel can be dropped.
            break;
        }
        let row = &st.cur[r * width..(r + 1) * width];
        let start = out.flat.len();
        out.flat
            .extend(shape.proj_idx.iter().filter_map(|&i| row[i]));
        let projected = &out.flat[start..];
        if projected.len() != shape.proj_idx.len()
            || (count_distinct && !st.seen.insert(projected.to_vec()))
        {
            out.flat.truncate(start);
            continue;
        }
        out.rows += 1;
    }
    if cap.is_some_and(|c| out.rows >= c) {
        ctx.limit_hit.store(true, AtomicOrdering::Relaxed);
    }
}

/// The worker loop: run morsels from `next` until it is dry or the limit
/// is hit. `next` also counts the steals it makes.
fn worker_run(ctx: &Ctx<'_, '_>, mut next: impl FnMut(&mut u64) -> Option<Morsel>) -> WorkerOut {
    let mut out = WorkerOut::default();
    let mut st = WorkerState::new(ctx.shape.all_vars.len(), ctx.plan.steps.len());
    loop {
        if ctx.limit_hit.load(AtomicOrdering::Relaxed) {
            break;
        }
        let Some(m) = next(&mut out.steals) else {
            break;
        };
        out.morsels += 1;
        run_morsel(ctx, m, &mut st, &mut out);
    }
    out
}

/// Splits the seed scan into fixed-size morsels and drains them through
/// the work-stealing pool.
fn drain(ctx: &Ctx<'_, '_>, morsel_triples: usize, stats: &mut MorselStats) -> Vec<WorkerOut> {
    let step = morsel_triples.max(1);
    let n = match &ctx.plan.seed {
        Seed::Slice(slice) => slice.len(),
        &Seed::Candidates { var } => ctx.plan.candidates[var].as_ref().map_or(0, Vec::len),
    };
    let morsels: Vec<Morsel> = (0..n)
        .step_by(step)
        .map(|lo| Morsel {
            lo,
            hi: (lo + step).min(n),
        })
        .collect();
    stats.morsels = morsels.len() as u64;

    let pool = stats.workers.min(morsels.len()).max(1);
    if pool <= 1 {
        // No parallelism to win: the caller thread runs the morsels in
        // order — no deque, no lock, no spawn.
        let mut inline = morsels.into_iter();
        return vec![worker_run(ctx, |_| inline.next())];
    }
    // Contiguous runs per worker, so each own deque ascends (probe hints
    // stay monotonic); stealing takes from the far end. All morsels
    // exist up front, so one empty sweep means done.
    let total = morsels.len();
    let mut queues: Vec<VecDeque<Morsel>> = (0..pool).map(|_| VecDeque::new()).collect();
    for (i, m) in morsels.into_iter().enumerate() {
        queues[i * pool / total].push_back(m);
    }
    let deques: Vec<Mutex<VecDeque<Morsel>>> = queues.into_iter().map(Mutex::new).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pool)
            .map(|w| {
                let deques = &deques;
                scope.spawn(move || worker_run(ctx, |steals| next_morsel(deques, w, steals)))
            })
            .collect();
        handles
            .into_iter()
            // lint:allow(no_panic) re-raise a worker panic on the
            // caller thread rather than silently dropping results.
            .map(|h| h.join().expect("morsel worker panicked"))
            .collect()
    })
}

/// The outcome of a pool run, before the merge.
struct RunOutcome {
    projected: Vec<String>,
    /// Whether the merge must dedup (see the module docs).
    dedup: bool,
    /// Rows the merge may return. `LIMIT 0` behaves as `LIMIT 1`, as in
    /// the reference engine, which checks the limit after pushing a row.
    limit: Option<usize>,
    workers: Vec<WorkerOut>,
    stats: QueryStats,
    morsel: MorselStats,
}

/// Plans `q` against `g`, splits the seed scan into morsels, and drains
/// them through the work-stealing pool.
fn run(g: &Graph, q: &SelectQuery, cfg: &MorselConfig) -> RunOutcome {
    let shape = shape(q);
    let limit = q.limit.map(|l| l.max(1));
    let mut stats = QueryStats::default();
    let mut morsel = MorselStats {
        workers: cfg.resolved_workers(),
        ..MorselStats::default()
    };
    let workers = if q.patterns.is_empty() {
        // The empty BGP has exactly one solution, the empty binding;
        // there is no seed scan to morselize.
        let rows = usize::from(shape.valid);
        vec![WorkerOut {
            rows,
            ..WorkerOut::default()
        }]
    } else {
        let t_plan = Stopwatch::start();
        let (plan, pushdown) = plan_graph(g, q, &shape);
        stats.planning_us = t_plan.elapsed().as_micros() as u64;
        stats.pushdown_candidates = pushdown;
        match plan {
            None => Vec::new(),
            Some(plan) => {
                // A slice seed counts as one probe (morsels chunk that
                // one logical probe); a candidate seed counts its probes.
                stats.probes = usize::from(matches!(plan.seed, Seed::Slice(_)));
                let ctx = Ctx {
                    graph: g,
                    plan,
                    shape: &shape,
                    limit,
                    limit_hit: AtomicBool::new(false),
                };
                drain(&ctx, cfg.morsel_triples, &mut morsel)
            }
        }
    };
    for o in &workers {
        stats.probes += o.probes;
        stats.intermediate += o.intermediate;
        morsel.steals += o.steals;
        if o.morsels > 0 {
            morsel.workers_used += 1;
        }
    }
    RunOutcome {
        projected: shape.projected,
        dedup: shape.drops_var,
        limit,
        workers,
        stats,
        morsel,
    }
}

/// Executes `q` against a single graph on the morsel executor. Returns
/// the same row set as [`crate::engine::execute_reference`] (order
/// unspecified; under `LIMIT`, some `min(limit, distinct)` of its rows),
/// plus the executor statistics.
pub fn execute_morsel(
    graph: &Graph,
    q: &SelectQuery,
    cfg: &MorselConfig,
) -> (Bindings, QueryStats, MorselStats) {
    let t_total = Stopwatch::start();
    let out = run(graph, q, cfg);
    let width = out.projected.len();
    let mut seen: FxHashSet<&[TermId]> = FxHashSet::default();
    let rows: Vec<Row> = out
        .workers
        .iter()
        .flat_map(|w| (0..w.rows).map(move |r| &w.flat[r * width..(r + 1) * width]))
        .filter(|&row| !out.dedup || seen.insert(row))
        .take(out.limit.unwrap_or(usize::MAX))
        .map(<[TermId]>::to_vec)
        .collect();
    let mut stats = out.stats;
    // Time since the start not already reported as planning.
    stats.exec_us = t_total
        .elapsed()
        .saturating_sub(Duration::from_micros(stats.planning_us))
        .as_micros() as u64;
    let bindings = Bindings {
        vars: out.projected,
        rows,
    };
    (bindings, stats, out.morsel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute_reference;
    use crate::parser::parse_query;

    fn fleet() -> Graph {
        use datacron_geo::{GeoPoint, TimeMs};
        let mut g = Graph::new();
        for i in 0..30i64 {
            let v = Term::iri(format!("v{i}"));
            g.insert(&v, &Term::iri("type"), &Term::iri("Vessel"));
            g.insert(&v, &Term::iri("speed"), &Term::double(i as f64 / 2.0));
            g.insert(
                &v,
                &Term::iri("pos"),
                &Term::point(GeoPoint::new(20.0 + (i % 6) as f64, 36.0)),
            );
            g.insert(&v, &Term::iri("at"), &Term::time(TimeMs(i * 1000)));
            g.insert(
                &v,
                &Term::iri("near"),
                &Term::iri(format!("v{}", (i + 1) % 30)),
            );
        }
        g.commit();
        g
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort();
        rows
    }

    fn check_equivalence(g: &Graph, text: &str) {
        let q = parse_query(text).unwrap();
        let (reference, _) = execute_reference(g, &q);
        for workers in [1, 2, 8] {
            for morsel_triples in [3, 4096] {
                let cfg = MorselConfig {
                    workers,
                    morsel_triples,
                };
                let (b, _, ms) = execute_morsel(g, &q, &cfg);
                assert_eq!(b.vars, reference.vars, "{text}");
                if q.limit.is_some() {
                    assert_eq!(b.rows.len(), reference.rows.len(), "{text}");
                } else {
                    assert_eq!(
                        sorted(b.rows),
                        sorted(reference.rows.clone()),
                        "{text} workers={workers} morsel={morsel_triples}"
                    );
                }
                assert_eq!(ms.workers, workers);
            }
        }
    }

    #[test]
    fn matches_reference_on_query_zoo() {
        let g = fleet();
        for text in [
            "SELECT ?v WHERE { ?v type Vessel }",
            "SELECT ?v ?s WHERE { ?v type Vessel . ?v speed ?s . FILTER (?s >= 9.0) }",
            "SELECT ?v ?s WHERE { ?v type Vessel . ?v speed ?s . ?v at ?t . FILTER (?s < 3.0) }",
            "SELECT ?a ?c WHERE { ?a near ?b . ?b near ?c }",
            "SELECT ?t WHERE { ?v type ?t }",
            "SELECT ?v WHERE { ?v type Vessel } LIMIT 7",
            "SELECT ?v WHERE { ?v pos ?g . FILTER st_within(?g, 19.5, 35.5, 21.5, 36.5) }",
            "SELECT ?v WHERE { ?v at ?t . FILTER t_between(?t, 5000, 12000) }",
            "SELECT ?v WHERE { ?v type Submarine }",
        ] {
            check_equivalence(&g, text);
        }
    }

    #[test]
    fn matches_reference_with_uncommitted_tail() {
        let text = "SELECT ?v ?s WHERE { ?v type Vessel . ?v speed ?s . FILTER (?s >= 9.0) }";
        let q = parse_query(text).unwrap();
        let mut g = fleet();
        let rows = |g: &Graph| {
            execute_morsel(g, &q, &MorselConfig::with_workers(2))
                .0
                .len()
        };
        let committed = rows(&g);
        g.insert(&Term::iri("v99"), &Term::iri("type"), &Term::iri("Vessel"));
        g.insert(&Term::iri("v99"), &Term::iri("speed"), &Term::double(40.0));
        // No commit: both engines read the graph as of the last commit.
        check_equivalence(&g, text);
        assert_eq!(rows(&g), committed);
        g.commit();
        check_equivalence(&g, text);
        assert_eq!(rows(&g), committed + 1);
    }

    #[test]
    fn counts_morsels_and_bounds_work_units() {
        let g = fleet();
        let q = parse_query("SELECT ?v WHERE { ?v type Vessel }").unwrap();
        let cfg = MorselConfig {
            workers: 2,
            morsel_triples: 4,
        };
        let (b, _, ms) = execute_morsel(&g, &q, &cfg);
        assert_eq!(b.rows.len(), 30);
        // 30 seed triples at 4 per morsel → 8 morsels.
        assert_eq!(ms.morsels, 8);
        assert!(ms.workers_used >= 1 && ms.workers_used <= 2);
    }

    #[test]
    fn shared_variable_within_pattern() {
        let mut g = Graph::new();
        g.insert(&Term::iri("a"), &Term::iri("p"), &Term::iri("a"));
        g.insert(&Term::iri("b"), &Term::iri("p"), &Term::iri("c"));
        g.commit();
        check_equivalence(&g, "SELECT ?x WHERE { ?x p ?x }");
    }

    #[test]
    fn empty_bgp_has_the_one_empty_binding() {
        let g = fleet();
        let q = SelectQuery::new(Vec::new());
        let (b, stats, ms) = execute_morsel(&g, &q, &MorselConfig::default());
        let (reference, _) = execute_reference(&g, &q);
        assert_eq!(b.rows, vec![Row::new()]);
        assert_eq!(b, reference);
        assert_eq!((stats.probes, ms.morsels), (0, 0));
        assert!(ms.workers >= 1);
        // A projected variable the (empty) BGP cannot bind: no solution.
        let q = SelectQuery::new(Vec::new()).select(&["v"]);
        assert_eq!(execute_morsel(&g, &q, &MorselConfig::default()).0, {
            execute_reference(&g, &q).0
        });
    }

    #[test]
    fn a_filter_without_candidates_plans_nothing() {
        let g = fleet();
        for text in [
            "SELECT ?v WHERE { ?v type Vessel . ?v pos ?g . FILTER st_within(?g, 0, 0, 1, 1) }",
            "SELECT ?v WHERE { ?v pos ?g . FILTER st_near(?g, 20, 36, 100000) FILTER st_within(?g, 22, 35, 26, 37) FILTER st_near(?g, 25, 36, 1000) }",
            "SELECT ?v ?t WHERE { ?v at ?t . ?v type Vessel . FILTER t_between(?t, 30000, 99000) }",
        ] {
            let q = parse_query(text).unwrap();
            let (b, stats, ms) = execute_morsel(&g, &q, &MorselConfig::default());
            assert_eq!(b, execute_reference(&g, &q).0, "{text}");
            assert!(b.rows.is_empty(), "{text}");
            assert_eq!((stats.probes, ms.morsels), (0, 0), "{text}");
        }
        // One candidate is enough to plan and scan.
        let text = "SELECT ?v WHERE { ?v at ?t . FILTER t_between(?t, 29000, 99000) }";
        let (b, stats, _) =
            execute_morsel(&g, &parse_query(text).unwrap(), &MorselConfig::default());
        assert_eq!((b.rows.len(), stats.pushdown_candidates), (1, 1));
        assert!(stats.probes > 0);
    }

    #[test]
    fn all_constant_bgp_has_zero_width_rows() {
        let g = fleet();
        let pat = |s: &str, p: &str, o: &str| {
            crate::query::TriplePattern::new(Term::iri(s), Term::iri(p), Term::iri(o))
        };
        for (patterns, rows) in [
            (vec![pat("v3", "type", "Vessel")], 1),
            (
                vec![pat("v3", "type", "Vessel"), pat("v3", "near", "v4")],
                1,
            ),
            (
                vec![pat("v3", "type", "Vessel"), pat("v3", "near", "v9")],
                0,
            ),
        ] {
            let q = SelectQuery::new(patterns);
            let (reference, _) = execute_reference(&g, &q);
            assert_eq!(reference.rows.len(), rows);
            for workers in [1, 4] {
                let (b, _, _) = execute_morsel(&g, &q, &MorselConfig::with_workers(workers));
                assert_eq!(b, reference, "{q:?}");
            }
        }
    }

    #[test]
    fn stats_reflect_execution() {
        let g = fleet();
        let q = parse_query("SELECT ?v ?s WHERE { ?v type Vessel . ?v speed ?s }").unwrap();
        let (b, stats, ms) = execute_morsel(&g, &q, &MorselConfig::with_workers(1));
        assert_eq!(b.rows.len(), 30);
        assert!(stats.probes > 1);
        assert!(stats.intermediate >= 30);
        assert!(ms.morsels >= 1);
        assert_eq!(ms.workers_used, 1);
    }
}
