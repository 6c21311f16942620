//! Property-based tests for the RDF store.

use datacron_geo::{BoundingBox, GeoPoint, TimeInterval, TimeMs};
use datacron_rdf::{
    execute, Graph, HashPartitioner, PartitionedStore, PatternTerm, SelectQuery,
    SpatialGridPartitioner, Term, TriplePattern,
};
use proptest::prelude::*;

/// Random triples over a small vocabulary, so joins actually happen.
fn arb_triples() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0u8..20, 0u8..5, 0u8..20), 0..120)
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

proptest! {
    /// Every pattern shape must agree with a linear scan over the input.
    #[test]
    fn pattern_matching_equals_linear_scan(
        triples in arb_triples(),
        qs in 0u8..20, qp in 0u8..5, qo in 0u8..20,
        shape in 0u8..8,
    ) {
        let g = build_graph(&triples);
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
            prop_assert!(expected.is_empty());
            return Ok(());
        }
        let got = g.collect_pattern(sid, pid, oid);
        prop_assert_eq!(got.len(), expected.len());
        for t in got {
            let s = g.decode(t.s).unwrap().to_string();
            let p = g.decode(t.p).unwrap().to_string();
            let o = g.decode(t.o).unwrap().to_string();
            prop_assert!(expected.iter().any(|&(es, ep, eo)| {
                s == format!("<s{es}>") && p == format!("<p{ep}>") && o == format!("<o{eo}>")
            }), "unexpected triple {s} {p} {o}");
        }
    }

    /// Star queries return identical answers on the single graph and on any
    /// partitioned store.
    #[test]
    fn partitioned_star_query_matches_single_graph(
        triples in arb_triples(),
        qp in 0u8..5,
        n_parts in 1usize..6,
    ) {
        let g = build_graph(&triples);
        let q = SelectQuery::new(vec![TriplePattern::new(
            PatternTerm::var("s"),
            term_p(qp),
            PatternTerm::var("o"),
        )]);
        let (single, _) = execute(&g, &q);
        let store = PartitionedStore::build(&g, Box::new(HashPartitioner::new(n_parts)));
        let (parted, stats) = store.execute(&q);
        prop_assert_eq!(single.len(), parted.rows.len());
        prop_assert_eq!(stats.partitions_total, n_parts);
    }

    /// Spatial pushdown agrees with post-filtering.
    #[test]
    fn spatial_pushdown_equals_post_filter(
        points in prop::collection::vec((20.0f64..28.0, 34.0f64..41.0), 1..80),
        q_lon in 20.0f64..27.0, q_lat in 34.0f64..40.0,
        w in 0.1f64..4.0, h in 0.1f64..4.0,
    ) {
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
        let expected = points.iter().filter(|&&(lon, lat)| {
            bbox.contains(&GeoPoint::new(lon, lat))
        }).count();
        prop_assert_eq!(b.len(), expected);
    }

    /// Temporal pushdown agrees with interval membership.
    #[test]
    fn temporal_pushdown_equals_post_filter(
        times in prop::collection::vec(0i64..100_000, 1..80),
        start in 0i64..90_000,
        dur in 1i64..50_000,
    ) {
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
        let expected = times.iter().filter(|&&t| interval.contains(TimeMs(t))).count();
        prop_assert_eq!(b.len(), expected);
    }

    /// Spatial partitioning never loses or duplicates star-query rows, and
    /// pruning never drops answers.
    #[test]
    fn spatial_partitioning_sound_under_pruning(
        points in prop::collection::vec((20.0f64..28.0, 34.0f64..41.0), 1..60),
        q_lon in 20.0f64..27.0, q_lat in 34.0f64..40.0,
    ) {
        let mut g = Graph::new();
        for (i, &(lon, lat)) in points.iter().enumerate() {
            let s = Term::iri(format!("v{i}"));
            g.insert(&s, &Term::iri("pos"), &Term::point(GeoPoint::new(lon, lat)));
            g.insert(&s, &Term::iri("kind"), &Term::iri("V"));
        }
        g.commit();
        let bbox = BoundingBox::new(q_lon, q_lat, q_lon + 1.5, q_lat + 1.5);
        let q = SelectQuery::new(vec![
            TriplePattern::new(PatternTerm::var("v"), Term::iri("kind"), Term::iri("V")),
            TriplePattern::new(PatternTerm::var("v"), Term::iri("pos"), PatternTerm::var("g")),
        ])
        .select(&["v"])
        .filter(datacron_rdf::FilterExpr::SpatialWithin { var: "g".into(), bbox });
        let (single, _) = execute(&g, &q);
        let store = PartitionedStore::build(
            &g,
            Box::new(SpatialGridPartitioner::new(
                5,
                BoundingBox::new(19.0, 33.0, 29.0, 42.0),
                1.0,
            )),
        );
        let (parted, _) = store.execute(&q);
        prop_assert_eq!(single.len(), parted.rows.len());
    }
}

// ---- Commit merges each batch into the sorted indexes ----------------------
//
// Seeded interleavings of insert and commit against a `BTreeSet` model. Plain
// tests over fixed seeds rather than `proptest!` cases: the 64k auto-commit
// shape needs 70 000 inserts per case, and the seeds must replay exactly.

mod commit_merge {
    use datacron_rdf::{Graph, PredicateStats, Term, TermId, Triple};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// `Graph::insert_encoded` commits by itself when the tail reaches this.
    const AUTO_COMMIT_TAIL: usize = 64 * 1024;

    /// A graph beside the model of what it must hold.
    struct Modelled {
        graph: Graph,
        committed: BTreeSet<(u32, u32, u32)>,
        pending: BTreeSet<(u32, u32, u32)>,
    }

    impl Modelled {
        /// A graph whose dictionary holds ids `0..vocabulary`.
        fn new(vocabulary: u32) -> Self {
            let mut graph = Graph::new();
            for i in 0..vocabulary {
                assert_eq!(graph.encode(&Term::integer(i64::from(i))), TermId(i));
            }
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
            if self.pending.len() >= AUTO_COMMIT_TAIL {
                self.committed.append(&mut self.pending);
            }
        }

        fn commit(&mut self) {
            self.graph.commit();
            self.committed.append(&mut self.pending);
        }

        /// The committed indexes, the counts and the statistics all agree
        /// with the model.
        fn check(&self) {
            let g = &self.graph;
            assert_eq!(g.len(), self.committed.len() + self.pending.len());
            assert_eq!(g.tail_len(), self.pending.len());
            let tail: BTreeSet<_> = g
                .tail_triples()
                .iter()
                .map(|t| (t.s.raw(), t.p.raw(), t.o.raw()))
                .collect();
            assert_eq!(tail, self.pending);

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
            for p in ids {
                let of_p = || self.committed.iter().filter(move |t| t.1 == p);
                let recount = PredicateStats {
                    triples: of_p().count(),
                    distinct_subjects: of_p().map(|t| t.0).collect::<BTreeSet<_>>().len(),
                    distinct_objects: of_p().map(|t| t.2).collect::<BTreeSet<_>>().len(),
                };
                let want = (recount.triples > 0).then_some(recount);
                assert_eq!(g.predicate_stats(TermId(p)), want, "stats of predicate {p}");
            }
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
            let mut rng = StdRng::seed_from_u64(seed);
            // Small vocabularies repeat triples often; large ones rarely.
            let vocabulary = rng.gen_range(2u32..48);
            let predicates = rng.gen_range(1u32..5).min(vocabulary);
            let commit_share = rng.gen_range(0.01f64..0.3);
            let mut m = Modelled::new(vocabulary);
            for _ in 0..rng.gen_range(1usize..400) {
                if rng.gen_bool(commit_share) {
                    m.commit();
                    m.check();
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

    #[test]
    fn a_run_crossing_the_auto_commit() {
        // 70 000 distinct triples without a commit call: the tail commits
        // by itself at 64k, into an index that already holds a committed
        // prefix, and the rest stays pending.
        let mut m = Modelled::new(300);
        for s in 0..20 {
            m.insert(s * 7, 1, s);
        }
        m.commit();
        let mut n = 0;
        'fill: for s in 0..300 {
            for o in 0..300 {
                m.insert(s, 2 + (o % 2), o);
                n += 1;
                if n == 70_000 {
                    break 'fill;
                }
            }
        }
        assert_eq!(m.pending.len(), 70_000 - AUTO_COMMIT_TAIL);
        m.check();
        m.commit();
        m.check();
    }
}
