//! Property tests for the RDF store. Each property runs on 256 seeded
//! cases, and a failure names the seed that reproduces it.

use datacron_geo::{BoundingBox, GeoPoint, Rng, TimeInterval, TimeMs};
use datacron_rdf::{
    execute, from_binary, to_binary, FilterExpr, Graph, PatternTerm, SelectQuery, Term,
    TriplePattern,
};

const CASES: u64 = 256;

/// Up to 119 triples over a small vocabulary, so joins actually happen.
fn arb_triples(rng: &mut Rng) -> Vec<(u8, u8, u8)> {
    let n = rng.gen_range(0..120);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0u8..20),
                rng.gen_range(0u8..5),
                rng.gen_range(0u8..20),
            )
        })
        .collect()
}

/// `lens` points in the Aegean-sized box lon 20–28, lat 34–41.
fn arb_points(rng: &mut Rng, lens: std::ops::Range<usize>) -> Vec<(f64, f64)> {
    let n = rng.gen_range(lens);
    (0..n)
        .map(|_| (rng.gen_range(20.0..28.0), rng.gen_range(34.0..41.0)))
        .collect()
}

fn term_s(i: u8) -> Term {
    Term::iri(format!("s{i}"))
}
fn term_p(i: u8) -> Term {
    Term::iri(format!("p{i}"))
}
fn term_o(i: u8) -> Term {
    Term::iri(format!("o{i}"))
}

fn build_graph(triples: &[(u8, u8, u8)]) -> Graph {
    let mut g = Graph::new();
    for &(s, p, o) in triples {
        g.insert(&term_s(s), &term_p(p), &term_o(o));
    }
    g.commit();
    g
}

/// A pattern over constants `(qs, qp, qo)`, bound where `shape` has bits
/// 1 (subject), 2 (predicate) and 4 (object), must match exactly what a
/// linear scan over `triples` finds. `case` names the input in failures.
fn check_pattern_against_scan(case: &str, triples: &[(u8, u8, u8)], q: (u8, u8, u8), shape: u8) {
    let (qs, qp, qo) = q;
    let g = build_graph(triples);
    let want_s = (shape & 1 != 0).then_some(qs);
    let want_p = (shape & 2 != 0).then_some(qp);
    let want_o = (shape & 4 != 0).then_some(qo);

    let sid = want_s.and_then(|i| g.dict().lookup(&term_s(i)));
    let pid = want_p.and_then(|i| g.dict().lookup(&term_p(i)));
    let oid = want_o.and_then(|i| g.dict().lookup(&term_o(i)));
    // If a requested constant isn't in the dictionary, the reference
    // count is zero and we skip the index probe (the engine handles
    // that case separately).
    let missing = (want_s.is_some() && sid.is_none())
        || (want_p.is_some() && pid.is_none())
        || (want_o.is_some() && oid.is_none());

    let mut expected: Vec<(u8, u8, u8)> = triples
        .iter()
        .filter(|&&(s, p, o)| {
            want_s.is_none_or(|x| x == s)
                && want_p.is_none_or(|x| x == p)
                && want_o.is_none_or(|x| x == o)
        })
        .copied()
        .collect();
    expected.sort_unstable();
    expected.dedup();

    if missing {
        assert!(expected.is_empty(), "{case}");
        return;
    }
    let got = g.collect_pattern(sid, pid, oid);
    assert_eq!(got.len(), expected.len(), "{case}");
    for t in got {
        let s = g.decode(t.s).unwrap().to_string();
        let p = g.decode(t.p).unwrap().to_string();
        let o = g.decode(t.o).unwrap().to_string();
        assert!(
            expected.iter().any(|&(es, ep, eo)| {
                s == format!("<s{es}>") && p == format!("<p{ep}>") && o == format!("<o{eo}>")
            }),
            "{case}: unexpected triple {s} {p} {o}"
        );
    }
}

/// Every pattern shape must agree with a linear scan over the input.
#[test]
fn pattern_matching_equals_linear_scan() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let triples = arb_triples(&mut rng);
        let q = (
            rng.gen_range(0u8..20),
            rng.gen_range(0u8..5),
            rng.gen_range(0u8..20),
        );
        let shape = rng.gen_range(0u8..8);
        check_pattern_against_scan(&format!("seed {seed}"), &triples, q, shape);
    }
}

/// A case the property once failed on: subject and object bound, both in
/// the dictionary, with no triple joining them.
#[test]
fn pattern_matching_regression_bound_subject_and_object_never_joined() {
    check_pattern_against_scan("regression", &[(5, 0, 0), (0, 0, 19)], (5, 0, 19), 5);
}

/// Spatial pushdown agrees with post-filtering.
#[test]
fn spatial_pushdown_equals_post_filter() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let points = arb_points(&mut rng, 1..80);
        let q_lon = rng.gen_range(20.0..27.0);
        let q_lat = rng.gen_range(34.0..40.0);
        let w = rng.gen_range(0.1..4.0);
        let h = rng.gen_range(0.1..4.0);
        let mut g = Graph::new();
        for (i, &(lon, lat)) in points.iter().enumerate() {
            let s = Term::iri(format!("v{i}"));
            g.insert(&s, &Term::iri("pos"), &Term::point(GeoPoint::new(lon, lat)));
        }
        g.commit();
        let bbox = BoundingBox::new(q_lon, q_lat, q_lon + w, q_lat + h);
        let q = SelectQuery::new(vec![TriplePattern::new(
            PatternTerm::var("v"),
            Term::iri("pos"),
            PatternTerm::var("g"),
        )])
        .select(&["v"])
        .filter(datacron_rdf::FilterExpr::SpatialWithin {
            var: "g".into(),
            bbox,
        });
        let (b, _) = execute(&g, &q);
        let expected = points
            .iter()
            .filter(|&&(lon, lat)| bbox.contains(&GeoPoint::new(lon, lat)))
            .count();
        assert_eq!(b.len(), expected, "seed {seed}");
    }
}

/// `st_near` returns exactly the points a brute-force `haversine_m` scan
/// over the decoded point literals finds within the radius: at latitudes
/// 0–85° and across the antimeridian, for radii of 100 m to 50 km, on
/// indexes of 500 and 9 001 committed points. Points lie at 0.5–1.5 radii
/// of the centre, so most are near the circle's edge.
#[test]
fn st_near_matches_brute_force_haversine() {
    let radii = [100.0, 1_000.0, 10_000.0, 50_000.0];
    let centers = [
        (10.0, 0.0),
        (10.0, 37.0),
        (10.0, 60.0),
        (10.0, 70.0),
        (10.0, 85.0),
    ];
    let centers = centers.into_iter().chain([(179.99, 60.0)]);
    for (seed, (lon, lat)) in centers.enumerate() {
        let center = GeoPoint::new(lon, lat);
        let mut rng = Rng::seed_from_u64(seed as u64);
        for n in [500, 9_001] {
            let mut g = Graph::new();
            for i in 0..n {
                let radius = radii[rng.gen_range(0..radii.len())];
                let d = radius * rng.gen_range(0.5..1.5);
                let p = center.destination(rng.gen_range(0.0..360.0), d);
                g.insert(
                    &Term::iri(format!("v{i}")),
                    &Term::iri("pos"),
                    &Term::point(p),
                );
            }
            g.commit();
            let all = SelectQuery::new(vec![TriplePattern::new(
                PatternTerm::var("v"),
                Term::iri("pos"),
                PatternTerm::var("g"),
            )]);
            let (points, _) = execute(&g, &all);
            for radius_m in radii {
                let mut want: Vec<&Term> = points
                    .rows
                    .iter()
                    .map(|r| points.decode_row(&g, r))
                    .filter(|r| r[1].as_point().unwrap().haversine_m(&center) <= radius_m)
                    .map(|r| r[0])
                    .collect();
                let q = all.clone().select(&["v"]).filter(FilterExpr::SpatialNear {
                    var: "g".into(),
                    center,
                    radius_m,
                });
                let (b, _) = execute(&g, &q);
                let mut got: Vec<&Term> = b.rows.iter().map(|r| b.decode_row(&g, r)[0]).collect();
                want.sort_by_key(|t| t.to_string());
                got.sort_by_key(|t| t.to_string());
                let case = format!("centre {center:?}, {n} points, {radius_m} m");
                assert!(want.len() > n / 16, "{case}: {} in range", want.len());
                assert_eq!(got, want, "{case}");
            }
        }
    }
}

/// Temporal pushdown agrees with interval membership.
#[test]
fn temporal_pushdown_equals_post_filter() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let times: Vec<i64> = (0..rng.gen_range(1..80))
            .map(|_| rng.gen_range(0i64..100_000))
            .collect();
        let start = rng.gen_range(0i64..90_000);
        let dur = rng.gen_range(1i64..50_000);
        let mut g = Graph::new();
        for (i, &t) in times.iter().enumerate() {
            let s = Term::iri(format!("e{i}"));
            g.insert(&s, &Term::iri("at"), &Term::time(TimeMs(t)));
        }
        g.commit();
        let interval = TimeInterval::new(TimeMs(start), TimeMs(start + dur));
        let q = SelectQuery::new(vec![TriplePattern::new(
            PatternTerm::var("e"),
            Term::iri("at"),
            PatternTerm::var("t"),
        )])
        .select(&["e"])
        .filter(datacron_rdf::FilterExpr::TimeBetween {
            var: "t".into(),
            interval,
        });
        let (b, _) = execute(&g, &q);
        let expected = times
            .iter()
            .filter(|&&t| interval.contains(TimeMs(t)))
            .count();
        assert_eq!(b.len(), expected, "seed {seed}");
    }
}

/// The restored spatial and temporal indexes, each sorted once into its
/// base level, answer `within`, `near` and `between` exactly as the
/// source's do. The source holds a folded base, a delta and inserts not
/// yet committed, which neither answers.
#[test]
fn restore_answers_like_the_source() {
    const POINTS: usize = 2 * 8_192 + 1;
    let mut rng = Rng::seed_from_u64(11);
    let mut g = Graph::new();
    let (pos, at) = (Term::iri("pos"), Term::iri("at"));
    for i in 0..POINTS {
        let s = Term::iri(format!("n{i}"));
        let p = GeoPoint::new(rng.gen_range(20.0..28.0), rng.gen_range(34.0..41.0));
        g.insert(&s, &pos, &Term::point(p));
        g.insert(&s, &at, &Term::time(TimeMs(rng.gen_range(0i64..1_000_000))));
        // Commit in growing batches, then leave the last ones pending.
        if i < POINTS - 40 && (i + 1) % (1 + i / 8) == 0 {
            g.commit();
        }
    }
    assert!(g.folds() > 0 && g.spatial().len() < POINTS);
    let restored = from_binary(&to_binary(&g)).expect("restore");
    assert_eq!(restored.spatial().len(), g.spatial().len());
    assert_eq!(restored.temporal().len(), g.temporal().len());
    for _ in 0..64 {
        let (lon, lat) = (rng.gen_range(19.0..28.0), rng.gen_range(33.0..41.0));
        let bbox = BoundingBox::new(
            lon,
            lat,
            lon + rng.gen_range(0.01..3.0),
            lat + rng.gen_range(0.01..3.0),
        );
        assert_eq!(restored.spatial().within(&bbox), g.spatial().within(&bbox));
        let center = GeoPoint::new(lon, lat);
        let radius_m = rng.gen_range(100.0..80_000.0);
        assert_eq!(
            restored.spatial().near(&center, radius_m),
            g.spatial().near(&center, radius_m)
        );
        let start = rng.gen_range(0i64..1_000_000);
        let window = TimeInterval::new(TimeMs(start), TimeMs(start + rng.gen_range(1..50_000)));
        assert_eq!(
            restored.temporal().between(&window),
            g.temporal().between(&window)
        );
    }
}

/// A point literal for the secondary-index property: one of the edge
/// cases (the antimeridian, the poles, past ±180°, NaN and ±∞) or a
/// random point anywhere on the globe. Most are fresh values.
fn arb_edge_point(rng: &mut Rng) -> GeoPoint {
    let lat = rng.gen_range(-90.0..90.0);
    match rng.gen_range(0..12u32) {
        0 => GeoPoint::new(
            [-180.0, 180.0, 179.99, -179.99][rng.gen_range(0..4usize)],
            lat,
        ),
        1 => GeoPoint::new(
            rng.gen_range(-180.0..180.0),
            [-90.0, 90.0][rng.gen_range(0..2usize)],
        ),
        2 => {
            let lon = rng.gen_range(180.0..359.0);
            GeoPoint::new(if rng.gen_bool(0.5) { lon } else { -lon }, lat)
        }
        3 => {
            let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
            let other = rng.gen_range(-90.0..90.0);
            match rng.gen_range(0..3u32) {
                0 => GeoPoint::new(odd, other),
                1 => GeoPoint::new(other, odd),
                _ => GeoPoint::new(odd, odd),
            }
        }
        4 => GeoPoint::new(rng.gen_range(179.0..180.0), rng.gen_range(59.0..61.0)),
        5 => GeoPoint::new(rng.gen_range(-180.0..-179.0), rng.gen_range(59.0..61.0)),
        _ => GeoPoint::new(rng.gen_range(-180.0..180.0), lat),
    }
}

/// A query box: whole-world, one whose edges pass exactly through stored
/// points, one reaching past ±180°, one with infinite edges, or a random
/// one.
fn arb_edge_box(rng: &mut Rng, stored: &[GeoPoint]) -> BoundingBox {
    let finite: Vec<&GeoPoint> = stored
        .iter()
        .filter(|p| p.lon.abs() <= 400.0 && p.lat.is_finite())
        .collect();
    match rng.gen_range(0..6u32) {
        0 => BoundingBox::new(-180.0, -90.0, 180.0, 90.0),
        1 if finite.len() >= 2 => {
            let (a, b) = (
                finite[rng.gen_range(0..finite.len())],
                finite[rng.gen_range(0..finite.len())],
            );
            BoundingBox::new(
                a.lon.min(b.lon),
                a.lat.min(b.lat),
                a.lon.max(b.lon),
                a.lat.max(b.lat),
            )
        }
        2 => {
            let lon = rng.gen_range(150.0..350.0);
            let (lon, w) = if rng.gen_bool(0.5) {
                (lon, rng.gen_range(1.0..60.0))
            } else {
                (-lon - 60.0, rng.gen_range(1.0..60.0))
            };
            BoundingBox::new(lon, -90.0, lon + w, rng.gen_range(-90.0..90.0))
        }
        3 => BoundingBox::new(f64::NEG_INFINITY, -90.0, f64::INFINITY, f64::INFINITY),
        _ => {
            let (lon, lat) = (rng.gen_range(-180.0..170.0), rng.gen_range(-90.0..80.0));
            BoundingBox::new(
                lon,
                lat,
                lon + rng.gen_range(0.001..30.0),
                lat + rng.gen_range(0.001..30.0),
            )
        }
    }
}

/// `within`, `near` and `between` return exactly what a linear scan of
/// the point and time literals the dictionary held at the last commit
/// finds, as the same sorted run: on the live graph after every commit,
/// with a batch of literals still uncommitted (which no read may see),
/// and after `from_binary`. The literals come in a first commit and then
/// four commits that each add a quarter of what is indexed (so each
/// folds the secondary levels: a fold needs `1/32`), then one commit too
/// small to fold, so the live checks see a folded base, a delta, and
/// pending literals. Points include the antimeridian, the poles, points
/// past ±180°, NaN and ±∞, and box edges through stored points; `near`
/// runs across the antimeridian and at the poles.
#[test]
fn secondary_indexes_match_a_dictionary_scan() {
    fn check(g: &Graph, terms: usize, rng: &mut Rng, stored: &[GeoPoint], case: &str) {
        let points = || {
            g.dict()
                .iter()
                .take(terms)
                .filter_map(|(id, t)| t.as_point().map(|p| (id, p)))
        };
        // The dictionary iterates in id order, so a scan is a sorted run.
        let scan = |keep: &dyn Fn(&GeoPoint) -> bool| -> Vec<_> {
            points()
                .filter(|(_, p)| keep(p))
                .map(|(id, _)| id)
                .collect()
        };
        assert_eq!(g.spatial().len(), points().count(), "{case}");
        for _ in 0..12 {
            let bbox = arb_edge_box(rng, stored);
            let want = scan(&|p| bbox.contains(p));
            assert_eq!(g.spatial().within(&bbox), want, "{case}: within {bbox:?}");
        }
        for _ in 0..8 {
            let center = match rng.gen_range(0..4u32) {
                0 => GeoPoint::new(
                    [179.99, -179.99, 180.0, -180.0][rng.gen_range(0..4usize)],
                    rng.gen_range(59.0..61.0),
                ),
                1 => GeoPoint::new(
                    rng.gen_range(-180.0..180.0),
                    [-90.0, 90.0, 89.99][rng.gen_range(0..3usize)],
                ),
                _ => {
                    // A stored point, past ±180° included: `near` wraps
                    // the centre's longitude before it builds its boxes.
                    let finite: Vec<&GeoPoint> = stored
                        .iter()
                        .filter(|p| p.lon.is_finite() && p.lat.abs() <= 90.0)
                        .collect();
                    *finite[rng.gen_range(0..finite.len())]
                }
            };
            let radius_m = [500.0, 20_000.0, 150_000.0, 2_000_000.0][rng.gen_range(0..4usize)];
            let want = scan(&|p| p.haversine_m(&center) <= radius_m);
            assert_eq!(
                g.spatial().near(&center, radius_m),
                want,
                "{case}: near {center:?} {radius_m}"
            );
        }
        let instants: Vec<_> = g
            .dict()
            .iter()
            .take(terms)
            .filter_map(|(id, t)| t.as_time().map(|t| (id, t)))
            .collect();
        assert_eq!(g.temporal().len(), instants.len(), "{case}");
        for _ in 0..8 {
            let (start, end) = match rng.gen_range(0..4u32) {
                0 => (TimeMs(i64::MIN), TimeMs(i64::MAX)),
                1 if !instants.is_empty() => {
                    let a = instants[rng.gen_range(0..instants.len())].1;
                    let b = instants[rng.gen_range(0..instants.len())].1;
                    (a.min(b), a.max(b))
                }
                _ => {
                    let start = rng.gen_range(-1_000i64..10_000);
                    (TimeMs(start), TimeMs(start + rng.gen_range(0..3_000)))
                }
            };
            let window = TimeInterval::new(start, end);
            let want: Vec<_> = instants
                .iter()
                .filter(|(_, t)| window.contains(*t))
                .map(|(id, _)| *id)
                .collect();
            assert_eq!(
                g.temporal().between(&window),
                want,
                "{case}: between {window:?}"
            );
        }
    }

    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let mut g = Graph::new();
        let mut stored = Vec::new();
        let (pos, at) = (Term::iri("pos"), Term::iri("at"));
        let first = rng.gen_range(40..80);
        let mut batches = vec![first];
        let mut total = first;
        for _ in 0..4 {
            batches.push(total / 4 + 1);
            total += total / 4 + 1;
        }
        batches.push(rng.gen_range(1..3));
        batches.push(rng.gen_range(1..6));
        let last = batches.len() - 1;
        let (mut n, mut terms) = (0, 0);
        for (b, &size) in batches.iter().enumerate() {
            for _ in 0..size {
                let s = Term::iri(format!("n{n}"));
                n += 1;
                let p = arb_edge_point(&mut rng);
                stored.push(p);
                g.insert(&s, &pos, &Term::point(p));
                let t = match rng.gen_range(0..16u32) {
                    0 => [i64::MIN, i64::MAX, -1, 0][rng.gen_range(0..4usize)],
                    _ => rng.gen_range(-1_000i64..10_000),
                };
                g.insert(&s, &at, &Term::time(TimeMs(t)));
            }
            if b < last {
                g.commit();
                terms = g.dict().len();
            }
            let case = format!("seed {seed}, batch {b}");
            check(&g, terms, &mut rng, &stored, &case);
        }
        assert!(g.dict().len() > terms);
        let restored = from_binary(&to_binary(&g)).expect("restore");
        assert_eq!(restored.dict().len(), terms);
        let case = format!("seed {seed}, restored");
        check(&restored, terms, &mut rng, &stored, &case);
    }
}

// ---- Commit merges each batch into the sorted indexes ----------------------
//
// Seeded interleavings of insert and commit against a `BTreeSet` model,
// plus fixed shapes. Each index has a base and a delta level; reads must
// not show where one ends, whichever side of a fold they run, and no read
// may show an insert before its commit.

mod commit_merge {
    use datacron_geo::Rng;
    use datacron_rdf::{
        from_binary, to_binary, Graph, PredicateStats, ProbeHint, Term, TermId, Triple,
    };
    use std::collections::{BTreeMap, BTreeSet};

    type Ids = (u32, u32, u32);

    fn ids(t: Triple) -> Ids {
        (t.s.raw(), t.p.raw(), t.o.raw())
    }

    /// Bits of a pattern's bound components: `S | P | O`.
    const S: u8 = 4;
    const P: u8 = 2;
    const O: u8 = 1;

    /// The sort key of the index a pattern with bound components `mask`
    /// reads: SPO, or OSP for `o` and `(s, o)`, or POS for `p` and
    /// `(p, o)`. The bound components are always the key's prefix.
    fn order_key(mask: u8, (s, p, o): Ids) -> Ids {
        if mask & O != 0 && mask & P == 0 {
            (o, s, p)
        } else if mask & P != 0 && mask & S == 0 {
            (p, o, s)
        } else {
            (s, p, o)
        }
    }

    /// The pattern with `mask`'s components of `t` bound.
    fn pattern(mask: u8, (s, p, o): Ids) -> [Option<TermId>; 3] {
        [(S, s), (P, p), (O, o)].map(|(bit, id)| (mask & bit != 0).then_some(TermId(id)))
    }

    /// A graph beside the model of what it must hold: the committed
    /// triples, which every read sees, and the pending ones, which none
    /// does.
    struct Modelled {
        graph: Graph,
        committed: BTreeSet<(u32, u32, u32)>,
        pending: BTreeSet<(u32, u32, u32)>,
    }

    impl Modelled {
        /// A graph whose dictionary holds ids `0..vocabulary`, committed.
        fn new(vocabulary: u32) -> Self {
            let mut graph = Graph::new();
            for i in 0..vocabulary {
                assert_eq!(graph.encode(&Term::integer(i64::from(i))), TermId(i));
            }
            graph.commit();
            Modelled {
                graph,
                committed: BTreeSet::new(),
                pending: BTreeSet::new(),
            }
        }

        fn insert(&mut self, s: u32, p: u32, o: u32) {
            self.graph.insert_encoded(Triple {
                s: TermId(s),
                p: TermId(p),
                o: TermId(o),
            });
            if !self.committed.contains(&(s, p, o)) {
                self.pending.insert((s, p, o));
            }
        }

        fn commit(&mut self) {
            self.graph.commit();
            self.committed.append(&mut self.pending);
        }

        /// Every pattern shape (all 8 bound combinations), probed at every
        /// prefix the model holds, through every read path: plain and
        /// sub-range slices, hinted probes in ascending and descending
        /// order, `match_pattern` and `probe_width`.
        fn check_reads(&self) {
            let g = &self.graph;
            for mask in 0..8u8 {
                let mut rows: Vec<(Ids, Ids)> = self
                    .committed
                    .iter()
                    .map(|&t| (order_key(mask, t), t))
                    .collect();
                rows.sort_unstable();
                let bound = mask.count_ones() as usize;
                let prefix = |k: Ids| {
                    let mut key = [k.0, k.1, k.2];
                    key[bound..].fill(u32::MAX);
                    key
                };
                let groups: Vec<&[(Ids, Ids)]> =
                    rows.chunk_by(|a, b| prefix(a.0) == prefix(b.0)).collect();
                let (mut up, mut down) = (ProbeHint::default(), ProbeHint::default());
                for (i, group) in groups.iter().enumerate() {
                    let want: Vec<Ids> = group.iter().map(|r| r.1).collect();
                    let [s, p, o] = pattern(mask, want[0]);
                    let slice = g.pattern_slice(s, p, o);
                    let got: Vec<Ids> = slice.iter().map(ids).collect();
                    assert_eq!(got, want, "mask {mask:03b} at {:?}", want[0]);
                    assert_eq!(slice.len(), want.len());
                    assert_eq!(g.probe_width(s, p, o), want.len());
                    // Every split point of a small slice, and fixed-size
                    // chunks (as the morsel executor cuts them) of any.
                    if want.len() <= 4 {
                        for lo in 0..=want.len() + 1 {
                            for hi in 0..=want.len() + 1 {
                                let sub: Vec<Ids> = slice.slice(lo, hi).iter().map(ids).collect();
                                let (a, b) =
                                    (lo.min(want.len()), hi.clamp(lo.min(want.len()), want.len()));
                                assert_eq!(sub, &want[a..b], "mask {mask:03b} slice({lo}, {hi})");
                            }
                        }
                    }
                    for step in [1, 7] {
                        let chunks: Vec<Ids> = (0..want.len())
                            .step_by(step)
                            .flat_map(|lo| slice.slice(lo, lo + step).iter().map(ids))
                            .collect();
                        assert_eq!(chunks, want, "mask {mask:03b} in chunks of {step}");
                    }
                    let hinted = g.pattern_slice_hinted(s, p, o, &mut up);
                    assert_eq!(hinted.iter().map(ids).collect::<Vec<_>>(), want);
                    let back = groups[groups.len() - 1 - i];
                    let [bs, bp, bo] = pattern(mask, back[0].1);
                    let hinted = g.pattern_slice_hinted(bs, bp, bo, &mut down);
                    assert!(hinted.iter().map(ids).eq(back.iter().map(|r| r.1)));
                    // The committed matches in index order, and nothing else.
                    let mut visited = Vec::new();
                    g.match_pattern(s, p, o, &mut |t| visited.push(ids(t)));
                    assert_eq!(visited, want, "mask {mask:03b} callback path");
                }
                // A prefix the graph does not hold.
                if mask != 0 {
                    let v = u32::try_from(g.dict().len()).unwrap();
                    let [s, p, o] = pattern(mask, (v, v, v));
                    assert!(g.pattern_slice(s, p, o).is_empty());
                    assert_eq!(g.probe_width(s, p, o), 0);
                }
            }
            // No pending triple shows before its commit.
            for &(s, p, o) in &self.pending {
                let [s, p, o] = pattern(S | P | O, (s, p, o));
                assert!(g.pattern_slice(s, p, o).is_empty(), "{s:?} {p:?} {o:?}");
            }
        }

        /// What [`Modelled::check_committed`] checks, and the same of the
        /// graph a snapshot of this one restores.
        fn check(&self) {
            self.check_committed();
            self.check_restore();
        }

        /// A restore holds the source's committed triples, in the base,
        /// and none of its pending ones: it must read like the model's
        /// committed set through every path `check_committed` probes (all
        /// 8 pattern shapes, plain and hinted, and every predicate's
        /// statistics).
        fn check_restore(&self) {
            let restored = Modelled {
                graph: from_binary(&to_binary(&self.graph)).expect("own snapshot restores"),
                committed: self.committed.clone(),
                pending: BTreeSet::new(),
            };
            restored.check_committed();
            assert_eq!(restored.graph.folds(), 0, "a restore lands in the base");
            assert_eq!(restored.graph.dict().len(), self.graph.dict().len());
        }

        /// The committed indexes, the counts and the statistics all agree
        /// with the model.
        fn check_committed(&self) {
            self.check_reads();
            let g = &self.graph;
            assert_eq!(g.len(), self.committed.len());

            // SPO: one slice is the whole index.
            let spo: Vec<_> = g
                .pattern_slice(None, None, None)
                .iter()
                .map(|t| (t.s.raw(), t.p.raw(), t.o.raw()))
                .collect();
            assert!(spo.iter().eq(self.committed.iter()), "SPO order");

            // POS and OSP: the per-key slices, concatenated in key order.
            let ids = 0..u32::try_from(g.dict().len()).unwrap();
            let mut pos = Vec::new();
            let mut osp = Vec::new();
            for id in ids.clone().map(TermId) {
                let by_predicate = g.pattern_slice(None, Some(id), None);
                pos.extend(
                    by_predicate
                        .iter()
                        .map(|t| (t.p.raw(), t.o.raw(), t.s.raw())),
                );
                let by_object = g.pattern_slice(None, None, Some(id));
                osp.extend(by_object.iter().map(|t| (t.o.raw(), t.s.raw(), t.p.raw())));
            }
            let want: BTreeSet<_> = self.committed.iter().map(|&(s, p, o)| (p, o, s)).collect();
            assert!(pos.iter().eq(want.iter()), "POS order");
            let want: BTreeSet<_> = self.committed.iter().map(|&(s, p, o)| (o, s, p)).collect();
            assert!(osp.iter().eq(want.iter()), "OSP order");

            // Statistics: a recount from scratch, for every id as predicate.
            let mut of_p: BTreeMap<u32, (usize, BTreeSet<u32>, BTreeSet<u32>)> = BTreeMap::new();
            for &(s, p, o) in &self.committed {
                let (triples, subjects, objects) = of_p.entry(p).or_default();
                *triples += 1;
                subjects.insert(s);
                objects.insert(o);
            }
            for p in ids {
                let want = of_p.get(&p).map(|(triples, s, o)| PredicateStats {
                    triples: *triples,
                    distinct_subjects: s.len(),
                    distinct_objects: o.len(),
                });
                assert_eq!(g.predicate_stats(TermId(p)), want, "stats of predicate {p}");
            }

            // A snapshot is the triple set, not the split: a restore puts
            // everything in the base and writes the same bytes.
            let bytes = to_binary(g);
            let restored = from_binary(&bytes).expect("own snapshot restores");
            assert_eq!(to_binary(&restored), bytes);
        }
    }

    #[test]
    fn commit_into_an_empty_base_then_one_larger_than_the_base() {
        let mut m = Modelled::new(60);
        for (s, p, o) in [(5, 1, 9), (2, 1, 9), (7, 0, 3)] {
            m.insert(s, p, o);
        }
        m.commit();
        m.check();
        assert_eq!(m.graph.folds(), 0, "an empty base takes the run as is");
        for s in 0..60 {
            m.insert(s, 1, 59 - s);
            m.insert(s, 2, 9);
        }
        m.commit();
        m.check();
        assert_eq!(m.graph.folds(), 1, "a run larger than the base folds");
        // A small commit now sits in the delta until the next fold.
        m.insert(30, 0, 3);
        m.insert(31, 1, 9);
        m.commit();
        m.check();
        assert_eq!(m.graph.folds(), 1);
        // Re-inserting what only the delta holds is a duplicate.
        m.insert(30, 0, 3);
        m.commit();
        m.check();
        assert_eq!(m.graph.len(), m.committed.len());
    }

    #[test]
    fn seeded_interleavings_cross_three_folds() {
        for seed in 0..6u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let vocabulary = rng.gen_range(40u32..80);
            let predicates = rng.gen_range(2u32..5);
            let mut m = Modelled::new(vocabulary);
            let triple = |rng: &mut Rng| {
                // Low, high or anywhere: runs land below, above and
                // between the keys of both levels.
                let s = match rng.gen_range(0u32..3) {
                    0 => rng.gen_range(0..vocabulary / 4),
                    1 => rng.gen_range(vocabulary - vocabulary / 4..vocabulary),
                    _ => rng.gen_range(0..vocabulary),
                };
                (
                    s,
                    rng.gen_range(0..predicates),
                    rng.gen_range(0..vocabulary),
                )
            };
            // A bulk first commit into the empty base, then small batches,
            // so the delta lives through several commits before each fold.
            for _ in 0..rng.gen_range(400usize..1200) {
                let (s, p, o) = triple(&mut rng);
                m.insert(s, p, o);
            }
            m.commit();
            m.check();
            let mut last: Vec<Ids> = Vec::new();
            let mut commits = 0;
            while m.graph.folds() < 3 {
                commits += 1;
                assert!(commits < 2_000, "seed {seed}: no third fold");
                let mut batch = Vec::new();
                for _ in 0..rng.gen_range(1usize..10) {
                    batch.push(triple(&mut rng));
                }
                // Repeats of the last batch, which the delta holds unless
                // that commit folded.
                if !last.is_empty() && rng.gen_bool(0.5) {
                    batch.push(last[rng.gen_range(0..last.len())]);
                }
                for &(s, p, o) in &batch {
                    m.insert(s, p, o);
                }
                m.commit();
                m.check();
                last = batch;
            }
        }
    }

    #[test]
    fn restore_of_a_folded_base_a_delta_and_a_pending_tail() {
        for seed in 0..24u64 {
            let mut rng = Rng::seed_from_u64(100 + seed);
            let vocabulary = rng.gen_range(8u32..64);
            let predicates = rng.gen_range(1u32..6).min(vocabulary);
            let mut m = Modelled::new(vocabulary);
            let triple = |rng: &mut Rng| {
                (
                    rng.gen_range(0..vocabulary),
                    rng.gen_range(0..predicates),
                    rng.gen_range(0..vocabulary),
                )
            };
            for _ in 0..rng.gen_range(50usize..400) {
                let (s, p, o) = triple(&mut rng);
                m.insert(s, p, o);
            }
            m.commit();
            // Commit small batches until one folds, then until new
            // triples sit in the delta: committed since the last fold.
            let mut at_fold = None;
            while at_fold.is_none_or(|n| m.committed.len() == n) {
                let folds = m.graph.folds();
                for _ in 0..rng.gen_range(1usize..12) {
                    let (s, p, o) = triple(&mut rng);
                    m.insert(s, p, o);
                }
                m.commit();
                if m.graph.folds() > folds {
                    at_fold = Some(m.committed.len());
                }
            }
            // Pending inserts: new triples and repeats of committed ones.
            while m.pending.is_empty() {
                let (s, p, o) = triple(&mut rng);
                m.insert(s, p, o);
            }
            m.check();
        }
    }

    #[test]
    fn commit_of_nothing_and_into_an_empty_index() {
        let mut m = Modelled::new(8);
        m.commit();
        m.check();
        for (s, p, o) in [(3, 1, 4), (1, 1, 4), (7, 0, 0), (1, 0, 7)] {
            m.insert(s, p, o);
        }
        m.check();
        m.commit();
        m.check();
        m.commit();
        m.check();
    }

    #[test]
    fn tail_larger_than_the_index() {
        let mut m = Modelled::new(40);
        m.insert(20, 1, 20);
        m.insert(21, 2, 19);
        m.commit();
        for i in 0..40 {
            m.insert(i, i % 3, 39 - i);
            m.insert(i, 1, 20);
        }
        m.commit();
        m.check();
    }

    #[test]
    fn keys_below_above_and_between_the_index() {
        // Subjects 10..20 first; then runs entirely below, entirely above
        // and interleaved in SPO — each of which lands differently in POS
        // and OSP, where the object decides.
        let mut m = Modelled::new(30);
        for s in 10..20 {
            m.insert(s, 1, 29 - s);
            m.insert(s, 2, s);
        }
        m.commit();
        m.check();
        for s in 0..10 {
            m.insert(s, 1, 29 - s);
        }
        m.commit();
        m.check();
        for s in 20..30 {
            m.insert(s, 2, 29 - s);
        }
        m.commit();
        m.check();
        for s in (0..30).step_by(3) {
            m.insert(s, 0, s);
            m.insert(s, 1, s);
            m.insert(s, 3, 0);
        }
        m.commit();
        m.check();
    }

    #[test]
    fn repeated_inserts_of_committed_and_pending_triples() {
        let mut m = Modelled::new(6);
        for round in 0..4 {
            for s in 0..6 {
                for o in 0..3 {
                    m.insert(s, (s + o) % 2, o);
                    // Again while still pending.
                    m.insert(s, (s + o) % 2, o);
                }
            }
            m.check();
            if round % 2 == 1 {
                m.commit();
                m.check();
            }
        }
        assert_eq!(m.graph.len(), 18);
    }

    #[test]
    fn seeded_interleavings_agree_with_the_model() {
        for seed in 0..60u64 {
            let mut rng = Rng::seed_from_u64(seed);
            // Small vocabularies repeat triples often; large ones rarely.
            let vocabulary = rng.gen_range(2u32..48);
            let predicates = rng.gen_range(1u32..5).min(vocabulary);
            let commit_share = rng.gen_range(0.01f64..0.3);
            let mut m = Modelled::new(vocabulary);
            let mut commits = 0u32;
            for _ in 0..rng.gen_range(1usize..400) {
                if rng.gen_bool(commit_share) {
                    // Every commit is checked, the snapshot's byte round
                    // trip included; the restored graph's reads are checked
                    // at each seed's end and at every 8th commit.
                    m.commit();
                    commits += 1;
                    if commits.is_multiple_of(8) {
                        m.check();
                    } else {
                        m.check_committed();
                    }
                } else {
                    // A third of the inserts come from the low, the high or
                    // the whole id range, so runs sit below, above or
                    // between the committed keys.
                    let s = match rng.gen_range(0u32..3) {
                        0 => rng.gen_range(0..vocabulary.div_ceil(4)),
                        1 => rng.gen_range(vocabulary - vocabulary.div_ceil(4)..vocabulary),
                        _ => rng.gen_range(0..vocabulary),
                    };
                    m.insert(
                        s,
                        rng.gen_range(0..predicates),
                        rng.gen_range(0..vocabulary),
                    );
                }
            }
            m.check();
            m.commit();
            m.check();
        }
    }
}
