//! Differential suite: the morsel executor against the reference engine
//! on seeded spatiotemporal BGPs. Every case is a connected BGP of one to
//! three patterns carrying `st_within`, `st_near` or `t_between` filters,
//! sometimes a comparison on a filtered variable, a `LIMIT` and a
//! projection subset, over a graph whose committed triples and literals
//! sit in a base that has absorbed two folds and a non-empty delta, beside
//! an uncommitted tail. Rows are compared decoded, at 1, 2 and 4 workers
//! and at two morsel sizes. Both engines read the same spatial and
//! temporal indexes, so every unlimited case is also checked against a
//! filter oracle that tests each decoded literal directly. The cases
//! cover candidate sets both smaller than every pattern slice (the
//! executor seeds from them) and at least as large as every slice (it
//! scans one). `scripts/ci.sh` runs it in release too, where workers race.

use datacron_geo::{BoundingBox, FxHashSet, GeoPoint, Rng, TimeInterval, TimeMs};
use datacron_rdf::query::CmpOp;
use datacron_rdf::{
    execute_morsel, execute_reference, Bindings, FilterExpr, Graph, MorselConfig, PatternTerm,
    SelectQuery, Term, TermId, TriplePattern, DEFAULT_MORSEL_TRIPLES,
};

const GRAPHS: u64 = 16;
const QUERIES_PER_GRAPH: u64 = 16;

/// Inserts node `i`: a point, an instant, an owning object, and for
/// every other node an event that reuses the node's point or has its own.
fn insert_node(g: &mut Graph, rng: &mut Rng, i: usize, objects: usize) {
    let n = Term::iri(format!("n{i}"));
    let point = GeoPoint::new(rng.gen_range(20.0..28.0), rng.gen_range(34.0..41.0));
    // Whole seconds, so instants repeat across nodes.
    let at = TimeMs(rng.gen_range(0i64..2_000) * 1000);
    g.insert(&n, &Term::iri("pos"), &Term::point(point));
    g.insert(&n, &Term::iri("at"), &Term::time(at));
    let o = rng.gen_range(0..objects);
    g.insert(&n, &Term::iri("obj"), &Term::iri(format!("o{o}")));
    if i.is_multiple_of(2) {
        let e = Term::iri(format!("e{i}"));
        let event_point = if rng.gen_bool(0.5) {
            point
        } else {
            GeoPoint::new(rng.gen_range(20.0..28.0), rng.gen_range(34.0..41.0))
        };
        g.insert(&e, &Term::iri("evPos"), &Term::point(event_point));
        g.insert(&e, &Term::iri("evAt"), &Term::time(at));
    }
}

/// A graph in all three states at once: a base that has absorbed two
/// folds, a delta the last commit merged into (under `1/32` of the base,
/// so it did not fold), and an uncommitted tail. Each node brings one or
/// two fresh point literals, so each fold commit adds at least a fifth of
/// the points already indexed and the spatial levels fold with the triple
/// indexes; the 3-node delta commit adds too few to fold either.
fn arb_graph(rng: &mut Rng) -> Graph {
    let mut g = Graph::new();
    let objects = rng.gen_range(8..40);
    for o in 0..objects {
        let class = if rng.gen_bool(0.6) { "Vessel" } else { "Buoy" };
        g.insert(
            &Term::iri(format!("o{o}")),
            &Term::iri("type"),
            &Term::iri(class),
        );
    }
    let base = rng.gen_range(300..700);
    let fold = base / 4;
    let delta = 3;
    let tail = rng.gen_range(2..6);
    let mut i = 0;
    for (nodes, commit) in [
        (base, true),
        (fold, true),
        (fold, true),
        (delta, true),
        (tail, false),
    ] {
        for _ in 0..nodes {
            insert_node(&mut g, rng, i, objects);
            i += 1;
        }
        if commit {
            g.commit();
        }
    }
    assert_eq!(
        g.folds(),
        2,
        "the second and third commits fold, the fourth does not"
    );
    assert!(g.tail_len() > 0);
    g
}

/// The pattern templates: `(subject var, predicate, object)`, where the
/// object is a variable name or, for `type`, the constant class.
const TEMPLATES: [(&str, &str, &str); 6] = [
    ("n", "pos", "g"),
    ("n", "at", "t"),
    ("n", "obj", "o"),
    ("o", "type", "Vessel"),
    ("e", "evPos", "g"),
    ("e", "evAt", "t"),
];

fn template_vars(t: usize) -> Vec<&'static str> {
    let (s, p, o) = TEMPLATES[t];
    if p == "type" {
        vec![s]
    } else {
        vec![s, o]
    }
}

fn pattern(t: usize) -> TriplePattern {
    let (s, p, o) = TEMPLATES[t];
    let object = if p == "type" {
        PatternTerm::from(Term::iri(o))
    } else {
        PatternTerm::var(o)
    };
    TriplePattern::new(PatternTerm::var(s), Term::iri(p), object)
}

/// A box inside the fleet's region, from a few hundredths of a degree to
/// most of it, or the whole world.
fn arb_bbox(rng: &mut Rng) -> BoundingBox {
    if rng.gen_bool(0.3) {
        return BoundingBox::new(-180.0, -90.0, 180.0, 90.0);
    }
    let (w, h) = if rng.gen_bool(0.5) {
        (rng.gen_range(0.05..0.6), rng.gen_range(0.05..0.6))
    } else {
        (rng.gen_range(2.0..9.0), rng.gen_range(2.0..8.0))
    };
    let (lon, lat) = (rng.gen_range(19.5..27.5), rng.gen_range(33.5..40.5));
    BoundingBox::new(lon, lat, lon + w, lat + h)
}

fn arb_case(rng: &mut Rng) -> SelectQuery {
    // A connected BGP: each further template shares a variable.
    let mut chosen = vec![rng.gen_range(0..TEMPLATES.len())];
    let size = rng.gen_range(1..=3usize);
    while chosen.len() < size {
        let vars: FxHashSet<&str> = chosen.iter().flat_map(|&t| template_vars(t)).collect();
        let next: Vec<usize> = (0..TEMPLATES.len())
            .filter(|t| !chosen.contains(t))
            .filter(|&t| template_vars(t).iter().any(|v| vars.contains(v)))
            .collect();
        chosen.push(next[rng.gen_range(0..next.len())]);
    }
    let vars: Vec<&str> = {
        let mut vars: Vec<&str> = chosen.iter().flat_map(|&t| template_vars(t)).collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    };
    let mut q = SelectQuery::new(chosen.iter().map(|&t| pattern(t)).collect());
    if vars.contains(&"g") && rng.gen_bool(0.8) {
        q = if rng.gen_bool(0.6) {
            q.filter(FilterExpr::SpatialWithin {
                var: "g".into(),
                bbox: arb_bbox(rng),
            })
        } else {
            let center = GeoPoint::new(rng.gen_range(20.0..28.0), rng.gen_range(34.0..41.0));
            let radius_m = [2_000.0, 20_000.0, 80_000.0, 400_000.0][rng.gen_range(0..4usize)];
            q.filter(FilterExpr::SpatialNear {
                var: "g".into(),
                center,
                radius_m,
            })
        };
        if rng.gen_bool(0.15) {
            // Points compare with nothing, so `!=` keeps every row: the
            // eager filter runs on the seeded variable and drops none.
            let value = Term::point(GeoPoint::new(24.0, 37.0));
            q = q.filter(FilterExpr::Compare {
                var: "g".into(),
                op: CmpOp::Ne,
                value,
            });
        }
    }
    if vars.contains(&"t") && rng.gen_bool(0.8) {
        let (start, len) = if rng.gen_bool(0.5) {
            (
                rng.gen_range(0i64..1_950) * 1000,
                rng.gen_range(1i64..40) * 1000,
            )
        } else {
            (0, rng.gen_range(500i64..2_500) * 1000)
        };
        q = q.filter(FilterExpr::TimeBetween {
            var: "t".into(),
            interval: TimeInterval::new(TimeMs(start), TimeMs(start + len)),
        });
        if rng.gen_bool(0.5) {
            let op =
                [CmpOp::Ge, CmpOp::Gt, CmpOp::Lt, CmpOp::Le, CmpOp::Ne][rng.gen_range(0..5usize)];
            let value = Term::time(TimeMs(start + rng.gen_range(0..=len)));
            q = q.filter(FilterExpr::Compare {
                var: "t".into(),
                op,
                value,
            });
        }
    }
    if rng.gen_bool(0.5) {
        let subset: Vec<&str> = vars.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        let subset = if subset.is_empty() {
            vec![vars[rng.gen_range(0..vars.len())]]
        } else {
            subset
        };
        q = q.select(&subset);
    }
    if rng.gen_bool(0.3) {
        q = q.with_limit(rng.gen_range(1..20));
    }
    q
}

/// Each row decoded and rendered, so rows compare as term sets.
fn decoded(g: &Graph, b: &Bindings) -> Vec<String> {
    let mut rows: Vec<String> = b
        .rows
        .iter()
        .map(|r| {
            b.decode_row(g, r)
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    rows.sort();
    rows
}

/// The candidate ids per filtered variable, as the spatial and temporal
/// indexes answer each filter (several filters on one variable intersect).
fn candidate_sets(g: &Graph, q: &SelectQuery) -> Vec<FxHashSet<TermId>> {
    let mut sets: Vec<(String, FxHashSet<TermId>)> = Vec::new();
    for f in &q.filters {
        let set = match f {
            FilterExpr::SpatialWithin { bbox, .. } => g.spatial().within(bbox),
            FilterExpr::SpatialNear {
                center, radius_m, ..
            } => g.spatial().near(center, *radius_m),
            FilterExpr::TimeBetween { interval, .. } => g.temporal().between(interval),
            FilterExpr::Compare { .. } => continue,
        };
        match sets.iter_mut().find(|(v, _)| v == f.var()) {
            Some((_, existing)) => existing.retain(|id| set.contains(id)),
            None => sets.push((f.var().to_string(), set)),
        }
    }
    sets.into_iter().map(|(_, set)| set).collect()
}

/// Triples a scan of each pattern with every variable unbound would read:
/// its committed slice plus the whole tail.
fn slice_widths(g: &Graph, q: &SelectQuery) -> Vec<usize> {
    let id = |pt: &PatternTerm| match pt {
        PatternTerm::Term(t) => g.dict().lookup(t),
        PatternTerm::Var(_) => None,
    };
    q.patterns
        .iter()
        .map(|p| g.probe_width(id(&p.s), id(&p.p), id(&p.o)) + g.tail_len())
        .collect()
}

/// True when the decoded literal behind `id` satisfies the spatial or
/// temporal filter `f`, tested directly on the value: `contains`,
/// `haversine_m` or the half-open interval, with no index involved.
fn holds(g: &Graph, f: &FilterExpr, id: TermId) -> bool {
    let term = g.decode(id).unwrap();
    match f {
        FilterExpr::SpatialWithin { bbox, .. } => {
            term.as_point().is_some_and(|p| bbox.contains(&p))
        }
        FilterExpr::SpatialNear {
            center, radius_m, ..
        } => term
            .as_point()
            .is_some_and(|p| p.haversine_m(center) <= *radius_m),
        FilterExpr::TimeBetween { interval, .. } => {
            term.as_time().is_some_and(|t| interval.contains(t))
        }
        FilterExpr::Compare { .. } => unreachable!("comparisons stay in the query"),
    }
}

/// The filter oracle: the query without its `st_within`, `st_near` and
/// `t_between` filters, every variable projected, kept where each of those
/// filters holds on its variable's decoded literal ([`holds`]), then
/// projected as the query projects. The reference engine answers only the
/// unfiltered patterns, so a wrong candidate set from the spatial or
/// temporal index cannot pass both sides.
fn filter_oracle(g: &Graph, q: &SelectQuery) -> Vec<String> {
    let mut all = q.clone();
    let (compares, st): (Vec<FilterExpr>, Vec<FilterExpr>) = q
        .filters
        .iter()
        .cloned()
        .partition(|f| matches!(f, FilterExpr::Compare { .. }));
    all.filters = compares;
    all.vars.clear();
    let (wide, _) = execute_reference(g, &all);
    let col = |v: &str| wide.vars.iter().position(|w| w == v).unwrap();
    let projected: Vec<usize> = if q.vars.is_empty() {
        (0..wide.vars.len()).collect()
    } else {
        q.vars.iter().map(|v| col(v)).collect()
    };
    let rows: Vec<Vec<TermId>> = wide
        .rows
        .iter()
        .filter(|r| st.iter().all(|f| holds(g, f, r[col(f.var())])))
        .map(|r| projected.iter().map(|&i| r[i]).collect())
        .collect::<FxHashSet<_>>()
        .into_iter()
        .collect();
    let vars = projected.iter().map(|&i| wide.vars[i].clone()).collect();
    decoded(g, &Bindings { vars, rows })
}

#[test]
fn morsel_executor_matches_the_reference_on_spatiotemporal_bgps() {
    let (mut fewer, mut more) = (0, 0);
    // Oracle checks per filter kind: `st_within`, `st_near`, `t_between`.
    let mut checked = [0u64; 3];
    for graph_seed in 0..GRAPHS {
        let mut rng = Rng::seed_from_u64(graph_seed);
        let g = arb_graph(&mut rng);
        for query_seed in 0..QUERIES_PER_GRAPH {
            let q = arb_case(&mut rng);
            let case = format!("graph {graph_seed}, query {query_seed}: {q:?}");

            let smallest = candidate_sets(&g, &q).iter().map(FxHashSet::len).min();
            let widths = slice_widths(&g, &q);
            if let Some(k) = smallest {
                if widths.iter().all(|&w| k < w) {
                    fewer += 1;
                } else if widths.iter().all(|&w| k >= w) {
                    more += 1;
                }
            }

            let (reference, _) = execute_reference(&g, &q);
            let want = decoded(&g, &reference);
            let unlimited = {
                let mut all = q.clone();
                all.limit = None;
                decoded(&g, &execute_reference(&g, &all).0)
            };
            if q.limit.is_none() {
                assert_eq!(want, filter_oracle(&g, &q), "{case}");
                for f in &q.filters {
                    match f {
                        FilterExpr::SpatialWithin { .. } => checked[0] += 1,
                        FilterExpr::SpatialNear { .. } => checked[1] += 1,
                        FilterExpr::TimeBetween { .. } => checked[2] += 1,
                        FilterExpr::Compare { .. } => {}
                    }
                }
            }
            for workers in [1, 2, 4] {
                for morsel_triples in [5, DEFAULT_MORSEL_TRIPLES] {
                    let cfg = MorselConfig {
                        workers,
                        morsel_triples,
                    };
                    let (b, _, _) = execute_morsel(&g, &q, &cfg);
                    let at = format!("{case} at {workers} workers, morsels of {morsel_triples}");
                    assert_eq!(b.vars, reference.vars, "{at}");
                    let got = decoded(&g, &b);
                    if q.limit.is_none() {
                        assert_eq!(got, want, "{at}");
                    } else {
                        // Some `min(limit, distinct)` rows of the answer,
                        // none twice.
                        assert_eq!(got.len(), want.len(), "{at}");
                        assert!(got.windows(2).all(|w| w[0] != w[1]), "{at}");
                        assert!(
                            got.iter().all(|r| unlimited.binary_search(r).is_ok()),
                            "{at}"
                        );
                    }
                }
            }
        }
    }
    let cases = GRAPHS * QUERIES_PER_GRAPH;
    assert!(
        fewer >= cases / 8 && more >= cases / 16 && checked.iter().all(|&n| n >= cases / 16),
        "coverage: {fewer} cases with candidates fewer than every slice, {more} with \
         candidates at least every slice, {checked:?} st_within/st_near/t_between \
         oracle checks"
    );
}
