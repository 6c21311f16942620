//! Differential suite: the morsel executor against the reference engine
//! on seeded BGPs, over graphs whose committed triples and literals sit
//! in a base that has absorbed two folds and a non-empty delta, beside an
//! uncommitted tail. Rows are compared decoded, at 1, 2 and 4 workers and
//! at two morsel sizes. `scripts/ci.sh` runs it in release too, where
//! workers race.
//!
//! The first property draws spatiotemporal cases: connected BGPs of one
//! to three patterns carrying `st_within`, `st_near` or `t_between`
//! filters, sometimes a comparison on a filtered variable, a `LIMIT` and
//! a projection subset. Both engines read the same spatial and temporal
//! indexes, so every unlimited case is also checked against a filter
//! oracle that tests each decoded literal directly (`st_near` centres
//! include ones given a turn or two of 360° off the globe). The cases
//! cover candidate sets both smaller than every pattern slice (the
//! executor seeds from them) and at least as large as every slice (it
//! scans one). The second draws unfiltered stars, paths, unknown
//! constants and the empty BGP.

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
            // Sometimes the centre is given one or two turns of 360° away:
            // `st_near` takes any longitude, and the haversine distance
            // does not see the turns.
            let turns = if rng.gen_bool(0.5) {
                [-2.0, -1.0, 1.0, 2.0][rng.gen_range(0..4usize)]
            } else {
                0.0
            };
            let center = GeoPoint::new(
                rng.gen_range(20.0..28.0) + turns * 360.0,
                rng.gen_range(34.0..41.0),
            );
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
/// indexes answer each filter: sorted runs (several filters on one
/// variable intersect).
fn candidate_sets(g: &Graph, q: &SelectQuery) -> Vec<Vec<TermId>> {
    let mut sets: Vec<(String, Vec<TermId>)> = Vec::new();
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
            Some((_, existing)) => existing.retain(|id| set.binary_search(id).is_ok()),
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

/// The morsel executor's rows for `q` at 1, 2 and 4 workers and at two
/// morsel sizes against `execute_reference`'s: the same projected
/// variables and the same decoded row set, or under `LIMIT` some
/// `min(limit, distinct)` rows of the unlimited answer, none twice.
fn assert_matches_reference(g: &Graph, q: &SelectQuery, case: &str) {
    let (reference, _) = execute_reference(g, q);
    let want = decoded(g, &reference);
    let unlimited = {
        let mut all = q.clone();
        all.limit = None;
        decoded(g, &execute_reference(g, &all).0)
    };
    for workers in [1, 2, 4] {
        for morsel_triples in [5, DEFAULT_MORSEL_TRIPLES] {
            let cfg = MorselConfig {
                workers,
                morsel_triples,
            };
            let (b, _, _) = execute_morsel(g, q, &cfg);
            let at = format!("{case} at {workers} workers, morsels of {morsel_triples}");
            assert_eq!(b.vars, reference.vars, "{at}");
            let got = decoded(g, &b);
            if q.limit.is_none() {
                assert_eq!(got, want, "{at}");
            } else {
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

#[test]
fn morsel_executor_matches_the_reference_on_spatiotemporal_bgps() {
    let (mut fewer, mut more) = (0, 0);
    // Oracle checks per filter kind: `st_within`, `st_near`, `t_between`,
    // and `st_near` around a centre outside [-180°, 180°].
    let mut checked = [0u64; 4];
    for graph_seed in 0..GRAPHS {
        let mut rng = Rng::seed_from_u64(graph_seed);
        let g = arb_graph(&mut rng);
        for query_seed in 0..QUERIES_PER_GRAPH {
            let q = arb_case(&mut rng);
            let case = format!("graph {graph_seed}, query {query_seed}: {q:?}");

            let smallest = candidate_sets(&g, &q).iter().map(Vec::len).min();
            let widths = slice_widths(&g, &q);
            if let Some(k) = smallest {
                if widths.iter().all(|&w| k < w) {
                    fewer += 1;
                } else if widths.iter().all(|&w| k >= w) {
                    more += 1;
                }
            }

            if q.limit.is_none() {
                let want = decoded(&g, &execute_reference(&g, &q).0);
                assert_eq!(want, filter_oracle(&g, &q), "{case}");
                for f in &q.filters {
                    match f {
                        FilterExpr::SpatialWithin { .. } => checked[0] += 1,
                        FilterExpr::SpatialNear { center, .. } => {
                            checked[1] += 1;
                            checked[3] += u64::from(center.lon.abs() > 180.0);
                        }
                        FilterExpr::TimeBetween { .. } => checked[2] += 1,
                        FilterExpr::Compare { .. } => {}
                    }
                }
            }
            assert_matches_reference(&g, &q, &case);
        }
    }
    let cases = GRAPHS * QUERIES_PER_GRAPH;
    assert!(
        fewer >= cases / 8
            && more >= cases / 16
            && checked[..3].iter().all(|&n| n >= cases / 16)
            && checked[3] >= cases / 32,
        "coverage: {fewer} cases with candidates fewer than every slice, {more} with \
         candidates at least every slice, {checked:?} st_within/st_near/t_between/ \
         off-globe st_near oracle checks"
    );
}

// ---- Stars, paths, the empty BGP and unknown constants, unfiltered -------

const PREDICATES: [&str; 6] = ["pos", "at", "obj", "type", "evPos", "evAt"];

/// A constant subject: a node, an object or an event of `arb_graph`'s
/// vocabulary (the event may not exist: only every other node has one).
fn arb_subject(rng: &mut Rng) -> Term {
    match rng.gen_range(0..3u32) {
        0 => Term::iri(format!("n{}", rng.gen_range(0..300))),
        1 => Term::iri(format!("o{}", rng.gen_range(0..8))),
        _ => Term::iri(format!("e{}", rng.gen_range(0..300))),
    }
}

/// A constant object: a class or an object IRI.
fn arb_object(rng: &mut Rng) -> Term {
    match rng.gen_range(0..3u32) {
        0 => Term::iri("Vessel"),
        1 => Term::iri("Buoy"),
        _ => Term::iri(format!("o{}", rng.gen_range(0..8))),
    }
}

/// A subject star without filters: 1–3 patterns on one subject (the
/// variable `?s`, or a constant), constant or variable predicates, and
/// objects that are constants, a variable the patterns share, or one of
/// their own.
fn arb_star(rng: &mut Rng) -> SelectQuery {
    let subject = if rng.gen_bool(0.7) {
        PatternTerm::var("s")
    } else {
        PatternTerm::from(arb_subject(rng))
    };
    let patterns = (0..rng.gen_range(1..=3usize))
        .map(|i| {
            let p = if rng.gen_bool(0.2) {
                PatternTerm::var(format!("p{i}"))
            } else {
                PatternTerm::from(Term::iri(PREDICATES[rng.gen_range(0..PREDICATES.len())]))
            };
            let o = match rng.gen_range(0..5u32) {
                0 => PatternTerm::from(arb_object(rng)),
                1 => PatternTerm::var("x"),
                _ => PatternTerm::var(format!("v{i}")),
            };
            TriplePattern::new(subject.clone(), p, o)
        })
        .collect();
    SelectQuery::new(patterns)
}

/// A path without filters, its patterns in any order: node → object →
/// class (`?n obj ?o . ?o type ?c`), sometimes one hop further out of the
/// class (which has no triples), or a node and an event that share an
/// instant (a join on the object); one variable may be a constant, any
/// predicate a variable.
fn arb_path(rng: &mut Rng) -> SelectQuery {
    let mut patterns = match rng.gen_range(0..3u32) {
        0 => vec![("n", "obj", "o"), ("o", "type", "c")],
        1 => vec![("n", "obj", "o"), ("o", "type", "c"), ("c", "p", "x")],
        _ => vec![("n", "at", "t"), ("e", "evAt", "t")],
    }
    .into_iter()
    .map(|(s, p, o)| {
        let p = if p == "p" || rng.gen_bool(0.15) {
            PatternTerm::var(format!("p_{s}"))
        } else {
            PatternTerm::from(Term::iri(p))
        };
        TriplePattern::new(PatternTerm::var(s), p, PatternTerm::var(o))
    })
    .collect::<Vec<_>>();
    // Bind one variable to a constant in every pattern that names it.
    if rng.gen_bool(0.4) {
        let (var, term) = match rng.gen_range(0..3u32) {
            0 => ("n", Term::iri(format!("n{}", rng.gen_range(0..300)))),
            1 => ("o", Term::iri(format!("o{}", rng.gen_range(0..8)))),
            _ => ("c", arb_object(rng)),
        };
        for pat in &mut patterns {
            for slot in [&mut pat.s, &mut pat.o] {
                if slot.as_var() == Some(var) {
                    *slot = PatternTerm::from(term.clone());
                }
            }
        }
    }
    shuffle(rng, &mut patterns);
    SelectQuery::new(patterns)
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Puts a term the graph never stored in one position of one of `q`'s
/// patterns.
fn with_unknown_constant(rng: &mut Rng, mut q: SelectQuery) -> SelectQuery {
    let i = rng.gen_range(0..q.patterns.len());
    let pat = &mut q.patterns[i];
    match rng.gen_range(0..3u32) {
        0 => pat.s = Term::iri("n_unknown").into(),
        1 => pat.p = Term::iri("draught").into(),
        _ => pat.o = Term::iri("Submarine").into(),
    }
    q
}

/// Unfiltered stars with variable and constant subjects, paths, unknown
/// constants and the empty BGP, with projections that may drop the
/// subject and sometimes a `LIMIT`: the morsel executor returns
/// `execute_reference`'s rows at every worker count, over a folded base,
/// a delta and an uncommitted tail.
#[test]
fn morsel_executor_matches_the_reference_on_stars_paths_and_empty_answers() {
    // Cases per kind: variable-subject star, constant-subject star, star
    // projecting its subject away, limited star, path, unknown constant,
    // empty BGP.
    let mut drawn = [0u64; 7];
    for graph_seed in 0..GRAPHS {
        let mut rng = Rng::seed_from_u64(1_000 + graph_seed);
        let g = arb_graph(&mut rng);
        for query_seed in 0..QUERIES_PER_GRAPH {
            let kind = rng.gen_range(0..8u32);
            let mut q = match kind {
                0..=3 => arb_star(&mut rng),
                4 | 5 => arb_path(&mut rng),
                6 => {
                    let q = if rng.gen_bool(0.5) {
                        arb_star(&mut rng)
                    } else {
                        arb_path(&mut rng)
                    };
                    with_unknown_constant(&mut rng, q)
                }
                _ => SelectQuery::new(Vec::new()),
            };
            let vars = q.all_vars();
            if !vars.is_empty() && rng.gen_bool(0.4) {
                let subset: Vec<&str> = vars
                    .iter()
                    .map(String::as_str)
                    .filter(|_| rng.gen_bool(0.5))
                    .collect();
                if !subset.is_empty() {
                    q = q.select(&subset);
                }
            }
            if rng.gen_bool(0.3) {
                q = q.with_limit(rng.gen_range(1..20));
            }
            if kind <= 3 {
                let var_subject = q.patterns[0].s.as_var() == Some("s");
                drawn[0] += u64::from(var_subject);
                drawn[1] += u64::from(!var_subject);
                drawn[2] += u64::from(
                    var_subject && !q.vars.is_empty() && !q.vars.contains(&"s".to_string()),
                );
                drawn[3] += u64::from(q.limit.is_some());
            }
            drawn[4] += u64::from(kind == 4 || kind == 5);
            drawn[5] += u64::from(kind == 6);
            drawn[6] += u64::from(kind == 7);
            let case = format!("graph {graph_seed}, query {query_seed}: {q:?}");
            assert_matches_reference(&g, &q, &case);
        }
    }
    assert!(
        drawn.iter().all(|&n| n >= 8),
        "coverage: {drawn:?} variable-subject stars, constant-subject stars, \
         subject-dropping stars, limited stars, paths, unknown constants, empty BGPs"
    );
}
