//! Executor regression suite. There is one optimised engine — the morsel
//! executor, which `execute` runs with one inline worker — and it must
//! return exactly the retained reference engine's row set (any order) at
//! every worker count and morsel size; predicate statistics must stay
//! exact under interleaved insert/commit cycles, and index selection must
//! stay pinned to the tightest permutation index.

use datacron_geo::{BoundingBox, GeoPoint, TimeInterval, TimeMs};
use datacron_rdf::query::CmpOp;
use datacron_rdf::{
    execute, execute_morsel, execute_reference, from_binary, parse_query, to_binary, Bindings,
    FilterExpr, Graph, MorselConfig, PatternTerm, SelectQuery, Term, TermId, Triple, TriplePattern,
    DEFAULT_MORSEL_TRIPLES,
};

/// Deterministic xorshift64* — the suite must not depend on ambient
/// randomness, so failures reproduce from the seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A randomized entity graph: `s{i} type Vessel|Buoy`, `s{i} speed <f>`,
/// and random `link` edges. Every query shape below is answerable on it.
fn random_graph(rng: &mut Rng, entities: u64, links: u64) -> Graph {
    let mut g = Graph::new();
    for i in 0..entities {
        let s = Term::iri(format!("s{i}"));
        let class = if rng.below(3) == 0 { "Buoy" } else { "Vessel" };
        g.insert(&s, &Term::iri("type"), &Term::iri(class));
        g.insert(
            &s,
            &Term::iri("speed"),
            &Term::double(rng.below(20) as f64 / 2.0),
        );
    }
    for _ in 0..links {
        let a = Term::iri(format!("s{}", rng.below(entities)));
        let b = Term::iri(format!("s{}", rng.below(entities)));
        g.insert(&a, &Term::iri("link"), &b);
    }
    g
}

const QUERY_SHAPES: &[&str] = &[
    "SELECT ?v WHERE { ?v type Vessel }",
    "SELECT ?v ?s WHERE { ?v type Vessel . ?v speed ?s }",
    "SELECT ?a ?b WHERE { ?a link ?b . ?b type Buoy }",
    "SELECT ?a ?s WHERE { ?a link ?b . ?b speed ?s . ?a type Vessel }",
    "SELECT ?v ?s WHERE { ?v type Vessel . ?v speed ?s . FILTER (?s >= 4.0) }",
    "SELECT ?t WHERE { ?v type ?t }",
];

fn sorted_rows(mut rows: Vec<Vec<TermId>>) -> Vec<Vec<TermId>> {
    rows.sort();
    rows
}

/// The acceptance property: `execute` and the reference engine return the
/// same row set (order-independent; no LIMIT, which legitimately picks
/// different subsets) on randomized graphs.
#[test]
fn execute_matches_reference_on_random_graphs() {
    let mut rng = Rng(0x5EED_0001);
    for round in 0..8 {
        let entities = 5 + rng.below(60);
        let mut g = random_graph(&mut rng, entities, entities * 2);
        g.commit();
        for shape in QUERY_SHAPES {
            let q = parse_query(shape).unwrap();
            let (fast, fast_stats) = execute(&g, &q);
            let (reference, _) = execute_reference(&g, &q);
            assert_eq!(fast.vars, reference.vars, "round {round}: {shape}");
            assert_eq!(
                sorted_rows(fast.rows),
                sorted_rows(reference.rows),
                "round {round}: {shape}"
            );
            assert!(
                fast_stats.planning_us <= 1_000_000,
                "planning must not dominate: {fast_stats:?}"
            );
        }
    }
}

/// Same property with inserts pending: both engines answer from the
/// graph as of its last commit, and agree again once the inserts commit.
#[test]
fn execute_matches_reference_with_pending_tail() {
    let mut rng = Rng(0x5EED_0002);
    for round in 0..8 {
        let entities = 5 + rng.below(40);
        let mut g = random_graph(&mut rng, entities, entities);
        g.commit();
        let before: Vec<_> = QUERY_SHAPES
            .iter()
            .map(|shape| sorted_rows(execute(&g, &parse_query(shape).unwrap()).0.rows))
            .collect();
        // Extra links + one new entity, not yet committed.
        let x = Term::iri("extra");
        g.insert(&x, &Term::iri("type"), &Term::iri("Vessel"));
        g.insert(&x, &Term::iri("speed"), &Term::double(3.5));
        for _ in 0..entities {
            let a = Term::iri(format!("s{}", rng.below(entities)));
            g.insert(&a, &Term::iri("link"), &x);
        }
        for (shape, before) in QUERY_SHAPES.iter().zip(&before) {
            let q = parse_query(shape).unwrap();
            let (fast, _) = execute(&g, &q);
            let (reference, _) = execute_reference(&g, &q);
            assert_eq!(&sorted_rows(fast.rows), before, "round {round}: {shape}");
            assert_eq!(
                &sorted_rows(reference.rows),
                before,
                "round {round}: {shape}"
            );
        }
        g.commit();
        for shape in QUERY_SHAPES {
            let q = parse_query(shape).unwrap();
            let (fast, _) = execute(&g, &q);
            let (reference, _) = execute_reference(&g, &q);
            assert_eq!(
                sorted_rows(fast.rows),
                sorted_rows(reference.rows),
                "round {round}, committed: {shape}"
            );
        }
    }
}

/// The morsel executor shares no join code with the reference engine:
/// every query shape, at worker counts {1, 2, 8} and a
/// morsel size small enough to force multi-morsel execution, returns
/// exactly the reference engine's row set.
#[test]
fn morsel_executor_matches_reference_at_all_worker_counts() {
    let mut rng = Rng(0x5EED_0007);
    for round in 0..6 {
        let entities = 5 + rng.below(50);
        let mut g = random_graph(&mut rng, entities, entities * 2);
        g.commit();
        for shape in QUERY_SHAPES {
            let q = parse_query(shape).unwrap();
            let (reference, _) = execute_reference(&g, &q);
            for workers in [1usize, 2, 8] {
                let cfg = MorselConfig {
                    workers,
                    morsel_triples: 8,
                };
                let (b, _, ms) = execute_morsel(&g, &q, &cfg);
                assert_eq!(b.vars, reference.vars, "round {round}: {shape}");
                assert_eq!(
                    sorted_rows(b.rows),
                    sorted_rows(reference.rows.clone()),
                    "round {round} workers {workers}: {shape}"
                );
                assert_eq!(ms.workers, workers);
            }
        }
    }
}

/// A projection that drops a variable can produce the same row from two
/// morsels, hence from two workers; nothing dedups before the merge (no
/// LIMIT here), so the merge's one dedup must catch every such pair. Both
/// shapes × workers {1, 2, 8} × morsel sizes {7, default} return exactly
/// the reference row set — no row twice, none lost.
#[test]
fn dropped_variable_projections_dedup_across_workers() {
    let mut rng = Rng(0x5EED_0009);
    for round in 0..4 {
        let entities = 40 + rng.below(60);
        let mut g = random_graph(&mut rng, entities, entities * 3);
        g.commit();
        for shape in [
            "SELECT ?t WHERE { ?v type ?t }",
            "SELECT ?a WHERE { ?a link ?b . ?b type Buoy }",
        ] {
            let q = parse_query(shape).unwrap();
            let (reference, _) = execute_reference(&g, &q);
            let expected = sorted_rows(reference.rows);
            for workers in [1usize, 2, 8] {
                for morsel_triples in [7, MorselConfig::default().morsel_triples] {
                    let cfg = MorselConfig {
                        workers,
                        morsel_triples,
                    };
                    let (b, _, _) = execute_morsel(&g, &q, &cfg);
                    assert_eq!(
                        sorted_rows(b.rows),
                        expected,
                        "round {round} workers {workers} morsel {morsel_triples}: {shape}"
                    );
                }
            }
        }
    }
}

/// Terms of decoded rows, rendered for comparison across dictionaries.
fn rendered(rows: &[Vec<Term>]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    out.sort();
    out
}

/// Id rows decoded to owned terms through `g`'s dictionary.
fn decoded(g: &Graph, b: &Bindings) -> Vec<Vec<Term>> {
    b.rows
        .iter()
        .map(|row| b.decode_row(g, row).into_iter().cloned().collect())
        .collect()
}

/// The reference engine's rows, decoded and rendered like [`rendered`].
fn reference_rendered(g: &Graph, text: &str) -> Vec<String> {
    let (reference, _) = execute_reference(g, &parse_query(text).unwrap());
    rendered(&decoded(g, &reference))
}

/// `LIMIT n` returns `min(n, distinct)` rows, each a member of the
/// reference row set and none twice, at every worker count.
#[test]
fn limit_returns_min_of_limit_and_distinct_members() {
    let mut rng = Rng(0x5EED_000A);
    let mut g = random_graph(&mut rng, 60, 150);
    g.commit();
    for body in [
        "SELECT ?v WHERE { ?v type Vessel }",
        "SELECT ?t WHERE { ?v type ?t }",
        "SELECT ?s WHERE { ?v type Vessel . ?v speed ?s }",
        "SELECT ?a WHERE { ?a link ?b . ?b type Buoy }",
    ] {
        let all = reference_rendered(&g, body);
        for n in [1usize, 2, 5, 1000] {
            let text = format!("{body} LIMIT {n}");
            let q = parse_query(&text).unwrap();
            let want = n.min(all.len());
            for workers in [1usize, 2, 8] {
                let cfg = MorselConfig {
                    workers,
                    morsel_triples: 7,
                };
                let (b, _, _) = execute_morsel(&g, &q, &cfg);
                let got = rendered(&decoded(&g, &b));
                assert_eq!(got.len(), want, "{text} workers {workers}");
                assert!(got.windows(2).all(|w| w[0] != w[1]), "{text}: duplicate");
                assert!(
                    got.iter().all(|r| all.binary_search(r).is_ok()),
                    "{text}: row outside the reference set"
                );
            }
        }
    }
}

/// Queries with nothing to scan — the empty BGP, and constants absent
/// from the dictionary — agree with the reference engine.
#[test]
fn empty_bgp_and_unknown_constants_agree_with_reference() {
    let mut rng = Rng(0x5EED_000B);
    let mut g = random_graph(&mut rng, 30, 60);
    g.commit();
    let empty_bgp = SelectQuery::new(Vec::new());
    let unknown = [
        "SELECT ?v WHERE { ?v type Submarine }",
        "SELECT ?v ?s WHERE { ?v type Vessel . ?v draught ?s }",
        "SELECT ?p ?o WHERE { s9999 ?p ?o }",
    ]
    .map(|text| parse_query(text).unwrap());
    for q in std::iter::once(&empty_bgp).chain(&unknown) {
        let (reference, _) = execute_reference(&g, q);
        let (single, stats) = execute(&g, q);
        assert_eq!(single, reference, "{q:?}");
        assert_eq!(stats.probes, 0, "{q:?}");
    }
    // The empty BGP's one solution is the empty binding.
    assert_eq!(execute(&g, &empty_bgp).0.rows, vec![Vec::<TermId>::new()]);
}

/// The morsel executor stays correct while the graph is being ingested
/// into concurrently: readers hold the same lock discipline the server
/// uses (queries under read, ingest under write) and every answer at 2
/// workers must equal the reference engine's answer over the graph
/// version the same read lock pins.
#[test]
fn morsel_executor_matches_reference_under_concurrent_ingest() {
    use std::sync::RwLock;

    let shared = RwLock::new(Graph::new());
    let rounds = 12;

    std::thread::scope(|scope| {
        // Writer: batches of inserts, each committed under the write lock.
        scope.spawn(|| {
            let mut rng = Rng(0x5EED_0008);
            for _ in 0..rounds {
                let mut g = shared.write().unwrap();
                for _ in 0..30 {
                    let s = Term::iri(format!("s{}", rng.below(20)));
                    let class = if rng.below(3) == 0 { "Buoy" } else { "Vessel" };
                    g.insert(&s, &Term::iri("type"), &Term::iri(class));
                    g.insert(
                        &s,
                        &Term::iri("speed"),
                        &Term::double(rng.below(20) as f64 / 2.0),
                    );
                    let b = Term::iri(format!("s{}", rng.below(20)));
                    g.insert(&s, &Term::iri("link"), &b);
                }
                g.commit();
                drop(g);
                std::thread::yield_now();
            }
        });
        for reader in 0..2 {
            let shared = &shared;
            scope.spawn(move || {
                let cfg = MorselConfig {
                    workers: 2,
                    morsel_triples: 8,
                };
                for i in 0..rounds {
                    let g = shared.read().unwrap();
                    let shape = QUERY_SHAPES[(reader + i) % QUERY_SHAPES.len()];
                    let (b, _, _) = execute_morsel(&g, &parse_query(shape).unwrap(), &cfg);
                    assert_eq!(
                        rendered(&decoded(&g, &b)),
                        reference_rendered(&g, shape),
                        "{shape}"
                    );
                    drop(g);
                    std::thread::yield_now();
                }
            });
        }
    });
}

/// Predicate statistics stay exact across interleaved insert/commit
/// cycles, duplicate inserts included — checked against a brute-force
/// recount of the final graph.
#[test]
fn predicate_stats_exact_under_interleaved_commits() {
    let mut rng = Rng(0x5EED_0003);
    let mut g = Graph::new();
    for cycle in 0..6 {
        for _ in 0..50 {
            let s = Term::iri(format!("s{}", rng.below(20)));
            let p = Term::iri(format!("p{}", rng.below(4)));
            let o = Term::iri(format!("o{}", rng.below(15)));
            g.insert(&s, &p, &o);
        }
        // Re-insert triples that are already committed (duplicates must
        // not inflate any counter).
        if cycle > 0 {
            let dups: Vec<Triple> = g.iter_triples().take(10).collect();
            for t in dups {
                g.insert_encoded(t);
            }
        }
        g.commit();
    }
    for pid in 0..4 {
        let p = g.encode(&Term::iri(format!("p{pid}")));
        let matches: Vec<Triple> = g.collect_pattern(None, Some(p), None);
        let mut subjects: Vec<TermId> = matches.iter().map(|t| t.s).collect();
        let mut objects: Vec<TermId> = matches.iter().map(|t| t.o).collect();
        subjects.sort();
        subjects.dedup();
        objects.sort();
        objects.dedup();
        let st = g.predicate_stats(p).expect("predicate has triples");
        assert_eq!(st.triples, matches.len(), "p{pid} triple count");
        assert_eq!(st.distinct_subjects, subjects.len(), "p{pid} subjects");
        assert_eq!(st.distinct_objects, objects.len(), "p{pid} objects");
    }
}

/// Index selection regression: a pattern binding subject *and* object
/// must use the OSP index with prefix `(o, s)` — the probe width (keys
/// the scan visits) equals the true match count, not the subject's or
/// object's full degree.
#[test]
fn s_and_o_bound_pattern_scans_tight_osp_range() {
    let mut g = Graph::new();
    let hub = Term::iri("hub");
    let target = Term::iri("target");
    // Three parallel edges hub→target under distinct predicates...
    for p in ["p0", "p1", "p2"] {
        g.insert(&hub, &Term::iri(p), &target);
    }
    // ...plus 50 other edges out of `hub` and 50 into `target`.
    for i in 0..50 {
        g.insert(&hub, &Term::iri("out"), &Term::iri(format!("o{i}")));
        g.insert(&Term::iri(format!("s{i}")), &Term::iri("in"), &target);
    }
    g.commit();
    let s = g.encode(&hub);
    let o = g.encode(&target);
    assert_eq!(g.collect_pattern(Some(s), None, Some(o)).len(), 3);
    assert_eq!(
        g.probe_width(Some(s), None, Some(o)),
        3,
        "(s,?,o) must prefix-scan OSP, not post-filter a one-key prefix"
    );
    // The same tightness property holds for every bound combination: the
    // chosen index always makes the bound components a prefix.
    let mut rng = Rng(0x5EED_0004);
    let mut rg = random_graph(&mut rng, 30, 60);
    rg.commit();
    let triples: Vec<Triple> = rg.iter_triples().collect();
    for i in 0..triples.len().min(40) {
        let t = triples[i * 7919 % triples.len()];
        for mask in 0..8u32 {
            let s = (mask & 1 != 0).then_some(t.s);
            let p = (mask & 2 != 0).then_some(t.p);
            let o = (mask & 4 != 0).then_some(t.o);
            assert_eq!(
                rg.probe_width(s, p, o),
                rg.count_pattern(s, p, o),
                "mask {mask:#b} of {t:?}"
            );
        }
    }
}

/// Slice scans see exactly what the callback path sees, in the same
/// order: the committed triples, with a pending insert in neither.
#[test]
fn pattern_slice_plus_tail_equals_callback_path() {
    let mut rng = Rng(0x5EED_0005);
    let mut g = random_graph(&mut rng, 40, 80);
    g.commit();
    g.insert(&Term::iri("late"), &Term::iri("type"), &Term::iri("Vessel"));
    let ty = g.dict().lookup(&Term::iri("type")).unwrap();
    let vessel = g.dict().lookup(&Term::iri("Vessel")).unwrap();
    let late = g.dict().lookup(&Term::iri("late")).unwrap();
    for (s, p, o) in [
        (None, Some(ty), None),
        (None, Some(ty), Some(vessel)),
        (None, None, None),
    ] {
        let via_slice: Vec<Triple> = g.pattern_slice(s, p, o).iter().collect();
        assert_eq!(via_slice, g.collect_pattern(s, p, o));
        assert!(via_slice.iter().all(|t| t.s != late));
    }
}

/// `len()` counts the distinct committed triples: repeats within one
/// commit's inserts and of committed triples are dropped at the commit.
#[test]
fn len_is_exact_with_duplicate_inserts() {
    let mut g = Graph::new();
    let t = (Term::iri("a"), Term::iri("b"), Term::iri("c"));
    g.insert(&t.0, &t.1, &t.2);
    g.insert(&t.0, &t.1, &t.2); // repeated before the commit
    assert_eq!(g.len(), 0);
    g.commit();
    assert_eq!(g.len(), 1);
    g.insert(&t.0, &t.1, &t.2); // repeats a committed triple
    g.insert(&t.0, &t.1, &Term::iri("d"));
    assert_eq!(g.len(), 1);
    g.commit();
    assert_eq!(g.len(), 2);
    assert_eq!(g.iter_triples().count(), 2);
}

/// A read sees the graph as of its last commit. An inserted triple and a
/// new point and time literal are invisible to every read path — slices,
/// the callback path, both engines, the literal indexes, the triple
/// iterator and a snapshot — until the commit, and visible to all of
/// them after it.
#[test]
fn uncommitted_writes_are_invisible_until_commit() {
    let mut rng = Rng(0x5EED_000C);
    let mut g = random_graph(&mut rng, 20, 30);
    g.commit();
    let (here, now) = (GeoPoint::new(23.5, 37.9), TimeMs(1_234));
    let x = Term::iri("fresh");
    g.insert(&x, &Term::iri("type"), &Term::iri("Vessel"));
    g.insert(&x, &Term::iri("pos"), &Term::point(here));
    g.insert(&x, &Term::iri("at"), &Term::time(now));
    let box_ = BoundingBox::new(23.0, 37.5, 24.0, 38.5);
    let window = TimeInterval::new(TimeMs(1_000), TimeMs(2_000));
    let q = parse_query(
        "SELECT ?v WHERE { ?v type Vessel . ?v pos ?g . FILTER st_within(?g, 23, 37.5, 24, 38.5) }",
    )
    .unwrap();
    let ty = g.dict().lookup(&Term::iri("type")).unwrap();
    let fresh = g.dict().lookup(&x).unwrap();

    // What each read path answers about the fresh node and its literals.
    let seen = |g: &Graph| {
        let slice = g.pattern_slice(Some(fresh), None, None).len();
        let callback = g.collect_pattern(None, Some(ty), None).len();
        let rows = execute(g, &q).0.len();
        let reference = execute_reference(g, &q).0.len();
        let within = g.spatial().within(&box_).len();
        let between = g.temporal().between(&window).len();
        let iter = g.iter_triples().filter(|t| t.s == fresh).count();
        let restored = from_binary(&to_binary(g)).unwrap();
        let snapshot = (
            restored.dict().lookup(&x).is_some(),
            restored.len(),
            restored.spatial().within(&box_).len(),
            restored.temporal().between(&window).len(),
        );
        (
            slice, callback, rows, reference, within, between, iter, snapshot,
        )
    };
    let vessels = g.collect_pattern(None, Some(ty), None).len();
    let committed = g.len();
    assert_eq!(
        seen(&g),
        (0, vessels, 0, 0, 0, 0, 0, (false, committed, 0, 0)),
        "before the commit"
    );
    g.commit();
    assert_eq!(
        seen(&g),
        (3, vessels + 1, 1, 1, 1, 1, 3, (true, committed + 3, 1, 1)),
        "after the commit"
    );
}

/// A graph grown by many small commits — across folds of its delta level
/// into the base — and the same graph restored from its snapshot, which
/// holds everything in the base, answer every query shape with the same
/// rows in the same order: a leader, its follower and a restored server
/// never disagree about row order.
#[test]
fn per_batch_commits_and_snapshot_restore_return_the_same_rows() {
    let mut rng = Rng(0x5EED_000A);
    let entities = 400;
    let mut g = Graph::new();
    for i in 0..entities {
        let s = Term::iri(format!("s{i}"));
        let class = if rng.below(3) == 0 { "Buoy" } else { "Vessel" };
        g.insert(&s, &Term::iri("type"), &Term::iri(class));
        g.insert(
            &s,
            &Term::iri("speed"),
            &Term::double(rng.below(20) as f64 / 2.0),
        );
        for _ in 0..2 {
            let b = Term::iri(format!("s{}", rng.below(i + 1)));
            g.insert(&s, &Term::iri("link"), &b);
        }
        if i % 4 == 3 {
            g.commit();
        }
    }
    g.commit();
    assert!(g.folds() >= 3, "the build must cross folds: {}", g.folds());
    let restored = from_binary(&to_binary(&g)).expect("snapshot restores");
    assert_eq!(restored.folds(), 0);
    for shape in QUERY_SHAPES {
        let q = parse_query(shape).unwrap();
        let (built, _) = execute(&g, &q);
        let (back, _) = execute(&restored, &q);
        assert_eq!(built.rows, back.rows, "{shape}");
        let (reference, _) = execute_reference(&g, &q);
        let (reference_back, _) = execute_reference(&restored, &q);
        assert_eq!(reference.rows, reference_back.rows, "{shape}");
        assert_eq!(
            sorted_rows(built.rows),
            sorted_rows(reference.rows),
            "{shape}"
        );
        // Small morsels cut the seed slice across both levels.
        let cfg = MorselConfig {
            workers: 1,
            morsel_triples: 7,
        };
        let (a, _, _) = execute_morsel(&g, &q, &cfg);
        let (b, _, _) = execute_morsel(&restored, &q, &cfg);
        assert_eq!(a.rows, b.rows, "{shape} in morsels of 7");
    }
}

/// 20 000 nodes, each with its own point on a 200 × 100 grid of 0.01°
/// steps from (20°, 34°) and its own instant, one second apart.
fn located_nodes() -> Graph {
    let mut g = Graph::new();
    for i in 0..20_000i64 {
        let n = Term::iri(format!("n{i}"));
        let (lon, lat) = (
            20.0 + (i % 200) as f64 * 0.01,
            34.0 + (i / 200) as f64 * 0.01,
        );
        g.insert(&n, &Term::iri("pos"), &Term::point(GeoPoint::new(lon, lat)));
        g.insert(&n, &Term::iri("at"), &Term::time(TimeMs(i * 1000)));
        let class = if i % 3 == 0 { "Buoy" } else { "Vessel" };
        g.insert(&n, &Term::iri("type"), &Term::iri(class));
    }
    g.commit();
    g
}

/// A narrow `st_within` seeds the join from its candidate ids: one morsel,
/// one probe per candidate, and no more seed rows than candidates — where
/// a slice seed would scan all 20 000 `pos` triples in five morsels. A
/// box around the whole world has as many candidates as the slice has
/// triples, so it keeps the slice seed.
#[test]
fn a_narrow_box_seeds_from_its_candidates_and_the_world_box_from_the_slice() {
    let g = located_nodes();
    let narrow = BoundingBox::new(20.995, 34.195, 21.055, 34.245);
    let candidates = g.spatial().within(&narrow).len();
    assert_eq!(candidates, 6 * 5);
    for workers in [1, 2, 4] {
        let cfg = MorselConfig::with_workers(workers);
        let q = parse_query(
            "SELECT ?n WHERE { ?n pos ?g . FILTER st_within(?g, 20.995, 34.195, 21.055, 34.245) }",
        )
        .unwrap();
        let (b, stats, ms) = execute_morsel(&g, &q, &cfg);
        assert_eq!(b.rows.len(), candidates);
        assert_eq!(stats.pushdown_candidates, candidates);
        assert!(stats.intermediate <= candidates, "{stats:?}");
        assert_eq!(ms.morsels, 1, "{ms:?}");
        assert_eq!(stats.probes, candidates, "{stats:?}");

        let q =
            parse_query("SELECT ?n WHERE { ?n pos ?g . FILTER st_within(?g, -180, -90, 180, 90) }")
                .unwrap();
        let (b, stats, ms) = execute_morsel(&g, &q, &cfg);
        assert_eq!(b.rows.len(), 20_000);
        assert_eq!(stats.pushdown_candidates, 20_000);
        assert_eq!(
            ms.morsels,
            20_000usize.div_ceil(DEFAULT_MORSEL_TRIPLES) as u64
        );
        assert_eq!(stats.probes, 1, "one slice scan: {stats:?}");
    }
}

/// A comparison filter on the variable a `t_between` seeds from still
/// sheds the candidates it rejects: with `?t >= 105 s` beside a window
/// of 100–120 s, the rows are the reference engine's, not the window's.
#[test]
fn a_candidate_seed_keeps_the_eager_filter_on_its_variable() {
    let g = located_nodes();
    let window = FilterExpr::TimeBetween {
        var: "t".into(),
        interval: TimeInterval::new(TimeMs(100_000), TimeMs(120_000)),
    };
    let at_least = FilterExpr::Compare {
        var: "t".into(),
        op: CmpOp::Ge,
        value: Term::time(TimeMs(105_000)),
    };
    let pattern =
        |s: &str, p: &str, o: PatternTerm| TriplePattern::new(PatternTerm::var(s), Term::iri(p), o);
    let shapes = [
        SelectQuery::new(vec![pattern("n", "at", PatternTerm::var("t"))]),
        SelectQuery::new(vec![
            pattern("n", "type", Term::iri("Vessel").into()),
            pattern("n", "at", PatternTerm::var("t")),
        ]),
    ];
    for q in shapes {
        let windowed = q.clone().filter(window.clone());
        let q = windowed.clone().filter(at_least.clone());
        let (reference, _) = execute_reference(&g, &q);
        let (wide, _) = execute_reference(&g, &windowed);
        assert!(
            !reference.rows.is_empty() && reference.rows.len() < wide.rows.len(),
            "the comparison must drop some of the window's rows"
        );
        for workers in [1, 2, 4] {
            let (b, stats, ms) = execute_morsel(&g, &q, &MorselConfig::with_workers(workers));
            assert_eq!(ms.morsels, 1, "a candidate seed: {ms:?}");
            assert_eq!(stats.pushdown_candidates, 20);
            assert_eq!(
                sorted_rows(b.rows),
                sorted_rows(reference.rows.clone()),
                "{q:?} at {workers} workers"
            );
        }
    }
}

/// Both filters of a spatiotemporal star have candidates, and the smaller
/// set is the worse seed: 2 instants that 1 000 nodes each share, against
/// 30 points of one node each. The join seeds from the points (a probe per
/// point, then one per node it reached: 60) instead of from the instants
/// (2 probes, then one per node: 2 002).
#[test]
fn the_seed_weighs_each_candidate_by_its_fan_out() {
    let mut g = Graph::new();
    for i in 0..20_000i64 {
        let n = Term::iri(format!("n{i}"));
        let (lon, lat) = (
            20.0 + (i % 200) as f64 * 0.01,
            34.0 + (i / 200) as f64 * 0.01,
        );
        g.insert(&n, &Term::iri("pos"), &Term::point(GeoPoint::new(lon, lat)));
        g.insert(&n, &Term::iri("at"), &Term::time(TimeMs((i % 20) * 1000)));
    }
    g.commit();
    let q = parse_query(
        "SELECT ?n WHERE { ?n pos ?g . ?n at ?t . \
         FILTER st_within(?g, 20.995, 34.195, 21.055, 34.245) FILTER t_between(?t, 0, 2000) }",
    )
    .unwrap();
    let (reference, _) = execute_reference(&g, &q);
    assert_eq!(reference.rows.len(), 10);
    for workers in [1, 2, 4] {
        let (b, stats, _) = execute_morsel(&g, &q, &MorselConfig::with_workers(workers));
        assert_eq!(stats.pushdown_candidates, 30 + 2);
        assert_eq!(stats.probes, 60, "{stats:?}");
        assert_eq!(sorted_rows(b.rows), sorted_rows(reference.rows.clone()));
    }
}
