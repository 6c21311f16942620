//! Executor regression suite. There is one optimised engine — the morsel
//! executor, which `execute` runs with one inline worker — and it must
//! return exactly the retained reference engine's row set (any order) at
//! every worker count and morsel size, on the single graph and through
//! the partitioned store; predicate statistics must stay exact under
//! interleaved insert/commit cycles, and index selection must stay pinned
//! to the tightest permutation index.

use datacron_geo::{BoundingBox, GeoPoint, TimeInterval, TimeMs};
use datacron_rdf::query::CmpOp;
use datacron_rdf::{
    execute, execute_morsel, execute_reference, from_binary, parse_query, to_binary, Bindings,
    FilterExpr, Graph, HashPartitioner, MorselConfig, NotAStar, PartitionedStore, PatternTerm,
    SelectQuery, Term, TermId, Triple, TriplePattern, DEFAULT_MORSEL_TRIPLES,
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

/// Same property with a non-empty uncommitted tail: the executor's
/// separate tail scan must not lose or duplicate matches.
#[test]
fn execute_matches_reference_with_pending_tail() {
    let mut rng = Rng(0x5EED_0002);
    for round in 0..8 {
        let entities = 5 + rng.below(40);
        let mut g = random_graph(&mut rng, entities, entities);
        g.commit();
        // Extra links + one new entity stay in the tail.
        let x = Term::iri("extra");
        g.insert(&x, &Term::iri("type"), &Term::iri("Vessel"));
        g.insert(&x, &Term::iri("speed"), &Term::double(3.5));
        for _ in 0..entities {
            let a = Term::iri(format!("s{}", rng.below(entities)));
            g.insert(&a, &Term::iri("link"), &x);
        }
        assert!(g.tail_len() > 0, "the tail must actually be non-empty");
        for shape in QUERY_SHAPES {
            let q = parse_query(shape).unwrap();
            let (fast, _) = execute(&g, &q);
            let (reference, _) = execute_reference(&g, &q);
            assert_eq!(
                sorted_rows(fast.rows),
                sorted_rows(reference.rows),
                "round {round}: {shape}"
            );
        }
    }
}

/// The morsel executor shares no join code with the reference engine:
/// every query shape, at worker counts {1, 2, 8} and a
/// morsel size small enough to force multi-morsel execution, returns
/// exactly the reference engine's row set — committed-only graphs and
/// graphs with a pending tail alike.
#[test]
fn morsel_executor_matches_reference_at_all_worker_counts() {
    let mut rng = Rng(0x5EED_0007);
    for round in 0..6 {
        let entities = 5 + rng.below(50);
        let mut g = random_graph(&mut rng, entities, entities * 2);
        g.commit();
        if round % 2 == 1 {
            // Odd rounds leave fresh triples in the uncommitted tail.
            let x = Term::iri("extra");
            g.insert(&x, &Term::iri("type"), &Term::iri("Vessel"));
            g.insert(&x, &Term::iri("speed"), &Term::double(4.5));
            assert!(g.tail_len() > 0);
        }
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
/// reference row set and none twice — on the single graph at every worker
/// count, and through the partitioned store for star shapes (the store
/// refuses the path).
#[test]
fn limit_returns_min_of_limit_and_distinct_members() {
    let mut rng = Rng(0x5EED_000A);
    let mut g = random_graph(&mut rng, 60, 150);
    g.commit();
    let store = PartitionedStore::build(&g, Box::new(HashPartitioner::new(4)));
    for (body, star) in [
        ("SELECT ?v WHERE { ?v type Vessel }", true),
        ("SELECT ?t WHERE { ?v type ?t }", true),
        ("SELECT ?s WHERE { ?v type Vessel . ?v speed ?s }", true),
        ("SELECT ?a WHERE { ?a link ?b . ?b type Buoy }", false),
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
                let mut got = vec![rendered(&decoded(&g, &b))];
                match store.execute_with(&q, &cfg) {
                    Ok((parted, _)) if star => got.push(rendered(&parted.rows)),
                    answer => assert_eq!(answer, Err(NotAStar), "{text}"),
                }
                for got in got {
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
}

/// Queries with nothing to scan — the empty BGP, and constants absent
/// from the dictionary — agree with the reference engine on both routes.
#[test]
fn empty_bgp_and_unknown_constants_agree_with_reference() {
    let mut rng = Rng(0x5EED_000B);
    let mut g = random_graph(&mut rng, 30, 60);
    g.commit();
    let store = PartitionedStore::build(&g, Box::new(HashPartitioner::new(4)));
    let empty_bgp = SelectQuery::new(Vec::new());
    let unknown = [
        "SELECT ?v WHERE { ?v type Submarine }",
        "SELECT ?v ?s WHERE { ?v type Vessel . ?v draught ?s }",
        "SELECT ?p ?o WHERE { s9999 ?p ?o }",
    ]
    .map(|text| parse_query(text).unwrap());
    for q in std::iter::once(&empty_bgp).chain(&unknown) {
        let (reference, _) = execute_reference(&g, q);
        let (single, _) = execute(&g, q);
        assert_eq!(single, reference, "{q:?}");
        let (parted, stats) = store.execute(q).expect("a star");
        assert_eq!(parted.vars, reference.vars, "{q:?}");
        assert_eq!(parted.rows, decoded(&g, &reference), "{q:?}");
        assert_eq!(stats.partitions_probed, 0, "{q:?}");
    }
    // The empty BGP's one solution is the empty binding.
    assert_eq!(execute(&g, &empty_bgp).0.rows, vec![Vec::<TermId>::new()]);
}

/// The morsel executor stays correct while the partition mirror is being
/// ingested into concurrently: readers hold the same lock discipline the
/// server uses (queries under read, ingest under write) and every answer
/// must equal the reference engine's answer over the source graph
/// observed under the same read lock.
#[test]
fn morsel_executor_matches_reference_under_concurrent_ingest() {
    use std::sync::RwLock;

    struct Mirrored {
        source: Graph,
        mirror: PartitionedStore,
    }

    let mut source = Graph::new();
    source.track_new_triples(true);
    let shared = RwLock::new(Mirrored {
        source,
        mirror: PartitionedStore::empty(Box::new(HashPartitioner::new(4))),
    });
    let rounds = 12;

    std::thread::scope(|scope| {
        // Writer: batches of inserts, each committed and synced to the
        // mirror under the write lock.
        scope.spawn(|| {
            let mut rng = Rng(0x5EED_0008);
            for _ in 0..rounds {
                let mut st = shared.write().unwrap();
                for _ in 0..30 {
                    let s = Term::iri(format!("s{}", rng.below(20)));
                    let class = if rng.below(3) == 0 { "Buoy" } else { "Vessel" };
                    st.source.insert(&s, &Term::iri("type"), &Term::iri(class));
                    st.source.insert(
                        &s,
                        &Term::iri("speed"),
                        &Term::double(rng.below(20) as f64 / 2.0),
                    );
                    let b = Term::iri(format!("s{}", rng.below(20)));
                    st.source.insert(&s, &Term::iri("link"), &b);
                }
                st.source.commit();
                let delta = st.source.take_new_triples();
                let Mirrored { source, mirror } = &mut *st;
                mirror.ingest(source, &delta);
                drop(st);
                std::thread::yield_now();
            }
        });
        // Readers: hammer the mirror with every query shape at 2 workers
        // and check each answer against the reference engine over the
        // exact graph version the same read lock pins.
        for reader in 0..2 {
            let shared = &shared;
            scope.spawn(move || {
                let cfg = MorselConfig {
                    workers: 2,
                    morsel_triples: 8,
                };
                // Subject stars only: the mirror partitions by subject and
                // refuses every other shape (`NotAStar`).
                let star_shapes: Vec<&str> =
                    [0, 1, 4, 5].iter().map(|&i| QUERY_SHAPES[i]).collect();
                for i in 0..rounds {
                    let st = shared.read().unwrap();
                    let shape = star_shapes[(reader + i) % star_shapes.len()];
                    let q = parse_query(shape).unwrap();
                    let (b, _) = st.mirror.execute_with(&q, &cfg).expect("a star");
                    let got = rendered(&b.rows);
                    let expected = reference_rendered(&st.source, shape);
                    assert_eq!(got, expected, "{shape}");
                    drop(st);
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

/// Slice scans see exactly what the callback path sees, committed and
/// pending alike.
#[test]
fn pattern_slice_plus_tail_equals_callback_path() {
    let mut rng = Rng(0x5EED_0005);
    let mut g = random_graph(&mut rng, 40, 80);
    g.commit();
    g.insert(&Term::iri("late"), &Term::iri("type"), &Term::iri("Vessel"));
    let ty = g.encode(&Term::iri("type"));
    let vessel = g.encode(&Term::iri("Vessel"));
    for (s, p, o) in [
        (None, Some(ty), None),
        (None, Some(ty), Some(vessel)),
        (None, None, None),
    ] {
        let mut via_slice: Vec<Triple> = g.pattern_slice(s, p, o).iter().collect();
        via_slice.extend(g.tail_triples().iter().filter(|t| t.matches(s, p, o)));
        let mut via_callback = g.collect_pattern(s, p, o);
        via_slice.sort();
        via_callback.sort();
        assert_eq!(via_slice, via_callback);
    }
}

/// `len()` stays exact at every point — duplicates against committed
/// data and within the tail are both rejected at insert time.
#[test]
fn len_is_exact_with_duplicate_inserts() {
    let mut g = Graph::new();
    let t = (Term::iri("a"), Term::iri("b"), Term::iri("c"));
    g.insert(&t.0, &t.1, &t.2);
    g.insert(&t.0, &t.1, &t.2); // duplicate within the tail
    assert_eq!(g.len(), 1);
    g.commit();
    assert_eq!(g.len(), 1);
    g.insert(&t.0, &t.1, &t.2); // duplicate against committed data
    assert_eq!(g.len(), 1);
    assert_eq!(g.tail_len(), 0);
    g.insert(&t.0, &t.1, &Term::iri("d"));
    assert_eq!(g.len(), 2);
    g.commit();
    assert_eq!(g.iter_triples().count(), 2);
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

/// The commit log hands every committed triple to the partition mirror
/// exactly once: an incrementally synced mirror answers queries
/// identically to one bulk-built from the final graph.
#[test]
fn incremental_partition_mirror_matches_bulk_build() {
    let mut rng = Rng(0x5EED_0006);
    let mut source = Graph::new();
    source.track_new_triples(true);
    let mut mirror = PartitionedStore::empty(Box::new(HashPartitioner::new(4)));
    for _ in 0..5 {
        for _ in 0..40 {
            let s = Term::iri(format!("s{}", rng.below(25)));
            let p = Term::iri(format!("p{}", rng.below(3)));
            let o = Term::iri(format!("o{}", rng.below(12)));
            source.insert(&s, &p, &o);
        }
        source.commit();
        let delta = source.take_new_triples();
        mirror.ingest(&source, &delta);
    }
    assert_eq!(mirror.len(), source.len(), "no triple lost or duplicated");
    let bulk = PartitionedStore::build(&source, Box::new(HashPartitioner::new(4)));
    assert_eq!(mirror.partition_sizes(), bulk.partition_sizes());
    let q = parse_query("SELECT ?s ?o WHERE { ?s p0 ?o }").unwrap();
    let (inc, inc_stats) = mirror.execute(&q).expect("a star");
    let (blk, _) = bulk.execute(&q).expect("a star");
    assert_eq!(rendered(&inc.rows), rendered(&blk.rows));
    assert!(
        inc_stats.partitions_probed > 1,
        "hash partitioning must spread this workload: {inc_stats:?}"
    );
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
