//! BGP evaluation: the result and statistics types, term comparison, the
//! single-threaded [`execute`] entry point (the morsel plan run by one
//! inline worker), and the reference engine the test suites compare
//! every executor against.

use crate::dict::TermId;
use crate::morsel::{execute_morsel, MorselConfig};
use crate::query::{CmpOp, FilterExpr, PatternTerm, SelectQuery, TriplePattern};
use crate::store::Graph;
use crate::term::{Literal, Term};
use datacron_obs::Stopwatch;
use rustc_hash::{FxHashMap, FxHashSet};
use std::cmp::Ordering;
use std::time::Duration;

/// One result row: the projected terms in projection order.
pub type Row = Vec<TermId>;

/// Query results plus the projection schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Bindings {
    /// Projected variable names.
    pub vars: Vec<String>,
    /// Result rows (term ids decode through the graph's dictionary).
    pub rows: Vec<Row>,
}

impl Bindings {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows matched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Decodes a row into terms via `graph`.
    pub fn decode_row<'g>(&self, graph: &'g Graph, row: &Row) -> Vec<&'g Term> {
        row.iter()
            // lint:allow(no_panic) ids in a Row were produced by this
            // graph's dictionary; decode of one is infallible.
            .map(|id| graph.decode(*id).expect("id from this graph"))
            .collect()
    }
}

/// Execution statistics, used by the partitioning experiments and exposed
/// per query through the server's `sparql` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Intermediate bindings materialised across join steps.
    pub intermediate: usize,
    /// Candidate ids produced by spatial/temporal pushdown (0 = no pushdown).
    pub pushdown_candidates: usize,
    /// Triple-pattern index probes.
    pub probes: usize,
    /// Join-order planning time, microseconds.
    pub planning_us: u64,
    /// Everything-else time (probes, filters, projection), microseconds.
    pub exec_us: u64,
}

/// Numeric/lexicographic comparison of two terms; `None` when incomparable.
pub(crate) fn cmp_terms(a: &Term, b: &Term) -> Option<Ordering> {
    use Literal::*;
    match (a, b) {
        (Term::Iri(x), Term::Iri(y)) => Some(x.cmp(y)),
        (Term::Literal(x), Term::Literal(y)) => match (x, y) {
            (String(p), String(q)) => Some(p.cmp(q)),
            (Integer(p), Integer(q)) => Some(p.cmp(q)),
            (Double(p), Double(q)) => p.partial_cmp(q),
            (Integer(p), Double(q)) => (*p as f64).partial_cmp(q),
            (Double(p), Integer(q)) => p.partial_cmp(&(*q as f64)),
            (Boolean(p), Boolean(q)) => Some(p.cmp(q)),
            (Time(p), Time(q)) => Some(p.cmp(q)),
            _ => None,
        },
        _ => None,
    }
}

pub(crate) fn cmp_satisfies(op: CmpOp, ord: Option<Ordering>) -> bool {
    match (op, ord) {
        (CmpOp::Eq, Some(Ordering::Equal)) => true,
        (CmpOp::Ne, Some(o)) => o != Ordering::Equal,
        (CmpOp::Lt, Some(Ordering::Less)) => true,
        (CmpOp::Le, Some(o)) => o != Ordering::Greater,
        (CmpOp::Gt, Some(Ordering::Greater)) => true,
        (CmpOp::Ge, Some(o)) => o != Ordering::Less,
        // Incomparable terms fail every comparison except Ne.
        (CmpOp::Ne, None) => true,
        _ => false,
    }
}

/// Resolves a pattern term against the dictionary and a partial binding.
/// `Err(())` means a constant term is absent from the graph entirely.
fn resolve(
    pt: &PatternTerm,
    graph: &Graph,
    var_idx: &FxHashMap<String, usize>,
    row: &[Option<TermId>],
) -> Result<Option<TermId>, ()> {
    match pt {
        PatternTerm::Term(t) => graph.dict().lookup(t).map(Some).ok_or(()),
        PatternTerm::Var(v) => Ok(var_idx.get(v).and_then(|&i| row[i])),
    }
}

/// Pushdown: the candidate id set per variable slot from the
/// spatiotemporal filters of `q` (several filters on one variable
/// intersect), plus the number of candidate ids the indexes produced.
/// Every filter variable must be in `var_idx`.
pub(crate) fn pushdown_candidates(
    graph: &Graph,
    q: &SelectQuery,
    var_idx: &FxHashMap<String, usize>,
) -> (FxHashMap<usize, FxHashSet<TermId>>, usize) {
    let mut produced = 0usize;
    let mut candidates: FxHashMap<usize, FxHashSet<TermId>> = FxHashMap::default();
    for f in &q.filters {
        let set = match f {
            FilterExpr::SpatialWithin { bbox, .. } => graph.spatial().within(bbox),
            FilterExpr::SpatialNear {
                center, radius_m, ..
            } => graph.spatial().near(center, *radius_m),
            FilterExpr::TimeBetween { interval, .. } => graph.temporal().between(interval),
            FilterExpr::Compare { .. } => continue,
        };
        produced += set.len();
        let idx = var_idx[f.var()];
        match candidates.get_mut(&idx) {
            Some(existing) => existing.retain(|id| set.contains(id)),
            None => {
                candidates.insert(idx, set);
            }
        }
    }
    (candidates, produced)
}

/// The reference engine's prologue: variable table, projection, pushdown
/// candidate sets. `Err` carries the (empty) early-exit result.
struct Prologue {
    all_vars: Vec<String>,
    var_idx: FxHashMap<String, usize>,
    projected: Vec<String>,
    candidates: FxHashMap<usize, FxHashSet<TermId>>,
}

fn prologue(graph: &Graph, q: &SelectQuery, stats: &mut QueryStats) -> Result<Prologue, Bindings> {
    // Variable table.
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

    let empty = |projected: &[String]| Bindings {
        vars: projected.to_vec(),
        rows: Vec::new(),
    };

    // Filters over variables that never occur in the BGP can never bind.
    for f in &q.filters {
        if !var_idx.contains_key(f.var()) {
            return Err(empty(&projected));
        }
    }
    // Projected variables must occur in the BGP.
    for v in &projected {
        if !var_idx.contains_key(v) {
            return Err(empty(&projected));
        }
    }

    let (candidates, produced) = pushdown_candidates(graph, q, &var_idx);
    stats.pushdown_candidates += produced;

    Ok(Prologue {
        all_vars,
        var_idx,
        projected,
        candidates,
    })
}

/// Executes a query against a single graph on the calling thread: the
/// morsel executor's plan and join loop ([`crate::morsel`]) run by one
/// inline worker — no thread is spawned. Row order is unspecified.
pub fn execute(graph: &Graph, q: &SelectQuery) -> (Bindings, QueryStats) {
    let (bindings, stats, _) = execute_morsel(graph, q, &MorselConfig::with_workers(1));
    (bindings, stats)
}

/// Executes a query on the **reference path**: the original O(matches)
/// `count_pattern` planner and per-triple callback probes with per-row
/// allocation. Retained verbatim so the morsel executor can be validated
/// for identical row sets and benchmarked for planning cost — do not
/// "optimise" this function.
pub fn execute_reference(graph: &Graph, q: &SelectQuery) -> (Bindings, QueryStats) {
    let t_total = Stopwatch::start();
    let mut stats = QueryStats::default();
    let pro = match prologue(graph, q, &mut stats) {
        Ok(p) => p,
        Err(b) => return (b, stats),
    };
    let Prologue {
        all_vars,
        var_idx,
        projected,
        candidates,
    } = pro;
    let mut planning = Duration::ZERO;

    // Greedy join order: repeatedly take the cheapest remaining pattern.
    let mut remaining: Vec<&TriplePattern> = q.patterns.iter().collect();
    let mut bound: FxHashSet<usize> = FxHashSet::default();
    let mut rows: Vec<Vec<Option<TermId>>> = vec![vec![None; all_vars.len()]];

    while !remaining.is_empty() {
        // Cost estimate: matches with constants only, discounted per
        // already-bound variable (a bound var acts as a constant at probe
        // time) and per candidate-restricted variable.
        let t_plan = Stopwatch::start();
        let empty_row = vec![None; all_vars.len()];
        let mut best: Option<(usize, f64)> = None;
        for (i, pat) in remaining.iter().enumerate() {
            let consts = |pt: &PatternTerm| match resolve(pt, graph, &var_idx, &empty_row) {
                Ok(x) => Ok(x),
                Err(()) => Err(()),
            };
            let (s, p, o) = match (consts(&pat.s), consts(&pat.p), consts(&pat.o)) {
                (Ok(s), Ok(p), Ok(o)) => (s, p, o),
                _ => {
                    // Unknown constant: zero matches — this pattern kills
                    // the query, pick it immediately.
                    best = Some((i, -1.0));
                    break;
                }
            };
            let mut cost = graph.count_pattern(s, p, o) as f64;
            for v in pat.vars() {
                let vi = var_idx[v];
                if bound.contains(&vi) {
                    cost /= 16.0;
                }
                if candidates.contains_key(&vi) {
                    cost /= 4.0;
                }
            }
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((i, cost));
            }
        }
        // lint:allow(no_panic) the loop guard ensures `remaining` is
        // non-empty, and every pattern yields a candidate cost.
        let (chosen_idx, _) = best.expect("remaining non-empty");
        let pat = remaining.remove(chosen_idx);
        planning += t_plan.elapsed();

        let mut next_rows: Vec<Vec<Option<TermId>>> = Vec::new();
        for row in &rows {
            let (rs, rp, ro) = match (
                resolve(&pat.s, graph, &var_idx, row),
                resolve(&pat.p, graph, &var_idx, row),
                resolve(&pat.o, graph, &var_idx, row),
            ) {
                (Ok(s), Ok(p), Ok(o)) => (s, p, o),
                _ => continue, // unknown constant: no matches
            };
            stats.probes += 1;
            graph.match_pattern(rs, rp, ro, &mut |t| {
                let mut new_row = row.clone();
                let mut ok = true;
                for (pt, id) in [(&pat.s, t.s), (&pat.p, t.p), (&pat.o, t.o)] {
                    if let PatternTerm::Var(v) = pt {
                        let vi = var_idx[v];
                        match new_row[vi] {
                            Some(existing) if existing != id => {
                                ok = false;
                                break;
                            }
                            Some(_) => {}
                            None => {
                                if let Some(cand) = candidates.get(&vi) {
                                    if !cand.contains(&id) {
                                        ok = false;
                                        break;
                                    }
                                }
                                new_row[vi] = Some(id);
                            }
                        }
                    }
                }
                if ok {
                    next_rows.push(new_row);
                }
            });
        }
        for v in pat.vars() {
            bound.insert(var_idx[v]);
        }
        stats.intermediate += next_rows.len();
        rows = next_rows;
        if rows.is_empty() {
            break;
        }
    }

    // Residual comparison filters.
    let rows: Vec<Vec<Option<TermId>>> = rows
        .into_iter()
        .filter(|row| {
            q.filters.iter().all(|f| {
                let FilterExpr::Compare { var, op, value } = f else {
                    return true; // pushdown filters already applied
                };
                let Some(Some(id)) = var_idx.get(var).map(|&i| row[i]) else {
                    return false;
                };
                // lint:allow(no_panic) bound ids come from this graph's indexes.
                let term = graph.decode(id).expect("id from this graph");
                cmp_satisfies(*op, cmp_terms(term, value))
            })
        })
        .collect();

    // Projection + limit + dedup.
    let proj_idx: Vec<usize> = projected.iter().map(|v| var_idx[v]).collect();
    let mut out_rows: Vec<Row> = Vec::with_capacity(rows.len());
    let mut seen: FxHashSet<Row> = FxHashSet::default();
    for row in rows {
        let maybe_out: Option<Row> = proj_idx.iter().map(|&i| row[i]).collect();
        let Some(out) = maybe_out else {
            continue; // a projected var ended up unbound (empty BGP)
        };
        if seen.insert(out.clone()) {
            out_rows.push(out);
            if let Some(limit) = q.limit {
                if out_rows.len() >= limit {
                    break;
                }
            }
        }
    }

    stats.planning_us = planning.as_micros() as u64;
    stats.exec_us = t_total.elapsed().saturating_sub(planning).as_micros() as u64;
    (
        Bindings {
            vars: projected,
            rows: out_rows,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{BoundingBox, GeoPoint, TimeInterval, TimeMs};

    /// A small fleet graph: vessels with types, names, positions, times.
    fn fleet() -> Graph {
        let mut g = Graph::new();
        let ty = Term::iri("rdf:type");
        let vessel = Term::iri("da:Vessel");
        for i in 0..10 {
            let v = Term::iri(format!("da:v{i}"));
            g.insert(&v, &ty, &vessel);
            g.insert(
                &v,
                &Term::iri("da:name"),
                &Term::string(format!("SHIP {i}")),
            );
            g.insert(&v, &Term::iri("da:speed"), &Term::double(i as f64));
            g.insert(
                &v,
                &Term::iri("da:pos"),
                &Term::point(GeoPoint::new(23.0 + 0.1 * i as f64, 37.0)),
            );
            g.insert(&v, &Term::iri("da:at"), &Term::time(TimeMs(i * 1000)));
        }
        g.commit();
        g
    }

    fn var(v: &str) -> PatternTerm {
        PatternTerm::var(v)
    }

    #[test]
    fn single_pattern_lookup() {
        let g = fleet();
        let q = SelectQuery::new(vec![TriplePattern::new(
            var("v"),
            Term::iri("rdf:type"),
            Term::iri("da:Vessel"),
        )]);
        let (b, _) = execute(&g, &q);
        assert_eq!(b.vars, vec!["v"]);
        assert_eq!(b.len(), 10);
    }

    #[test]
    fn star_join() {
        let g = fleet();
        let q = SelectQuery::new(vec![
            TriplePattern::new(var("v"), Term::iri("rdf:type"), Term::iri("da:Vessel")),
            TriplePattern::new(var("v"), Term::iri("da:name"), var("n")),
        ])
        .select(&["v", "n"]);
        let (b, stats) = execute(&g, &q);
        assert_eq!(b.len(), 10);
        // The morsel executor's accounting: the seed scan is one probe,
        // then one probe per seeded row; both steps keep all 10 rows.
        assert_eq!((stats.probes, stats.intermediate), (11, 20));
        // Decode one row to terms.
        let terms = b.decode_row(&g, &b.rows[0]);
        assert!(terms[0].is_iri());
        assert!(matches!(terms[1], Term::Literal(Literal::String(_))));
    }

    #[test]
    fn unknown_constant_gives_empty() {
        let g = fleet();
        let q = SelectQuery::new(vec![TriplePattern::new(
            var("v"),
            Term::iri("rdf:type"),
            Term::iri("da:Submarine"),
        )]);
        let (b, _) = execute(&g, &q);
        assert!(b.is_empty());
    }

    #[test]
    fn comparison_filter() {
        let g = fleet();
        let q = SelectQuery::new(vec![TriplePattern::new(
            var("v"),
            Term::iri("da:speed"),
            var("s"),
        )])
        .filter(FilterExpr::Compare {
            var: "s".into(),
            op: CmpOp::Ge,
            value: Term::double(7.0),
        });
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 3); // speeds 7, 8, 9
    }

    #[test]
    fn integer_vs_double_comparison() {
        let g = fleet();
        let q = SelectQuery::new(vec![TriplePattern::new(
            var("v"),
            Term::iri("da:speed"),
            var("s"),
        )])
        .filter(FilterExpr::Compare {
            var: "s".into(),
            op: CmpOp::Lt,
            value: Term::integer(2),
        });
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 2); // 0.0, 1.0
    }

    #[test]
    fn spatial_within_pushdown() {
        let g = fleet();
        let q = SelectQuery::new(vec![TriplePattern::new(
            var("v"),
            Term::iri("da:pos"),
            var("g"),
        )])
        .select(&["v"])
        .filter(FilterExpr::SpatialWithin {
            var: "g".into(),
            bbox: BoundingBox::new(23.25, 36.5, 23.65, 37.5),
        });
        let (b, stats) = execute(&g, &q);
        // Positions 23.3..=23.6 → indexes 3,4,5,6.
        assert_eq!(b.len(), 4);
        assert!(stats.pushdown_candidates >= 4);
    }

    #[test]
    fn spatial_near() {
        let g = fleet();
        let q = SelectQuery::new(vec![TriplePattern::new(
            var("v"),
            Term::iri("da:pos"),
            var("g"),
        )])
        .filter(FilterExpr::SpatialNear {
            var: "g".into(),
            center: GeoPoint::new(23.0, 37.0),
            radius_m: 15_000.0,
        });
        let (b, _) = execute(&g, &q);
        // 0.1 deg lon at lat 37 ≈ 8.9 km → vessels 0 and 1 within 15 km.
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn temporal_between_pushdown() {
        let g = fleet();
        let q = SelectQuery::new(vec![TriplePattern::new(
            var("v"),
            Term::iri("da:at"),
            var("t"),
        )])
        .filter(FilterExpr::TimeBetween {
            var: "t".into(),
            interval: TimeInterval::new(TimeMs(2000), TimeMs(5000)),
        });
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 3); // 2000, 3000, 4000
    }

    #[test]
    fn combined_spatiotemporal_star() {
        let g = fleet();
        let q = SelectQuery::new(vec![
            TriplePattern::new(var("v"), Term::iri("da:pos"), var("g")),
            TriplePattern::new(var("v"), Term::iri("da:at"), var("t")),
        ])
        .select(&["v"])
        .filter(FilterExpr::SpatialWithin {
            var: "g".into(),
            bbox: BoundingBox::new(22.9, 36.5, 23.45, 37.5),
        })
        .filter(FilterExpr::TimeBetween {
            var: "t".into(),
            interval: TimeInterval::new(TimeMs(1000), TimeMs(10_000)),
        });
        let (b, _) = execute(&g, &q);
        // Spatial: vessels 0..=4; temporal: 1..=9; intersection 1..=4.
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn path_join_two_hops() {
        let mut g = Graph::new();
        g.insert(&Term::iri("a"), &Term::iri("knows"), &Term::iri("b"));
        g.insert(&Term::iri("b"), &Term::iri("knows"), &Term::iri("c"));
        g.insert(&Term::iri("c"), &Term::iri("knows"), &Term::iri("d"));
        g.commit();
        let q = SelectQuery::new(vec![
            TriplePattern::new(var("x"), Term::iri("knows"), var("y")),
            TriplePattern::new(var("y"), Term::iri("knows"), var("z")),
        ])
        .select(&["x", "z"]);
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 2); // a-c, b-d
    }

    #[test]
    fn shared_var_must_agree() {
        let mut g = Graph::new();
        g.insert(&Term::iri("a"), &Term::iri("p"), &Term::iri("a"));
        g.insert(&Term::iri("b"), &Term::iri("p"), &Term::iri("c"));
        g.commit();
        // ?x p ?x — only the self-loop matches.
        let q = SelectQuery::new(vec![TriplePattern::new(var("x"), Term::iri("p"), var("x"))]);
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn limit_respected() {
        let g = fleet();
        let q = SelectQuery::new(vec![TriplePattern::new(
            var("v"),
            Term::iri("rdf:type"),
            Term::iri("da:Vessel"),
        )])
        .with_limit(3);
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn projection_dedups() {
        let g = fleet();
        // Project only the type object: 10 bindings collapse to 1.
        let q = SelectQuery::new(vec![TriplePattern::new(
            var("v"),
            Term::iri("rdf:type"),
            var("t"),
        )])
        .select(&["t"]);
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn filter_on_unbound_var_is_empty() {
        let g = fleet();
        let q = SelectQuery::new(vec![TriplePattern::new(
            var("v"),
            Term::iri("rdf:type"),
            Term::iri("da:Vessel"),
        )])
        .filter(FilterExpr::Compare {
            var: "nope".into(),
            op: CmpOp::Eq,
            value: Term::integer(1),
        });
        let (b, _) = execute(&g, &q);
        assert!(b.is_empty());
    }

    #[test]
    fn ne_on_incomparable_is_true() {
        assert!(cmp_satisfies(
            CmpOp::Ne,
            cmp_terms(&Term::iri("a"), &Term::integer(1))
        ));
        assert!(!cmp_satisfies(
            CmpOp::Lt,
            cmp_terms(&Term::iri("a"), &Term::integer(1))
        ));
    }
}
