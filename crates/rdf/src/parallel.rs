//! The partitioned store: a graph split across partitions by subject,
//! answering subject-star queries partition by partition and merging the
//! results.
//!
//! # Query semantics
//!
//! All partitioners place triples **by subject**, so a *star* query (every
//! pattern shares one subject term — the same variable or the same
//! constant) evaluates exactly: each binding is wholly contained in one
//! partition. Subject stars are the one query shape subject-hash
//! partitioning keeps local (Özsu, *A Survey of RDF Data Management
//! Systems*, listed in PAPERS.md). Any other BGP — a path, or two patterns
//! on different subjects — can bind triples from two partitions, which
//! this store does not join, so [`PartitionedStore::execute`] refuses it
//! with [`NotAStar`] instead of answering with a partition-local subset.
//!
//! # Pruning
//!
//! One rule decides where a spatial or temporal match can be: the index
//! that answers the filter. Every partition is planned; a partition whose
//! own spatial or temporal index leaves a filter without a candidate is
//! provably empty, so it costs that one lookup and runs no scan
//! ([`PartitionedStats::partitions_probed`] does not count it). The
//! partitioner's homes decide placement only — a spatial or temporal
//! partitioner puts the matches of the filters it was designed for in few
//! partitions — so the answer is exact by construction, also for a subject
//! with several points or instants, or one the hash fallback placed.
//!
//! The store is **not a serving route**: the server answers every SPARQL
//! request from its one [`Graph`] on the morsel pool
//! ([`crate::morsel::execute_morsel`]), which is exact for any join
//! shape. `PartitionedStore` and the partitioners are the library's
//! partitioning code (experiment E5) and the starting point for a shard
//! router, which would need a gather-side join to answer more than stars.

use crate::engine::QueryStats;
use crate::morsel::{execute_morsel, MorselConfig};
use crate::partition::Partitioner;
use crate::query::SelectQuery;
use crate::store::{Graph, Triple};
use crate::term::Term;
use datacron_geo::FxHashSet;

/// Aggregate statistics of a partitioned execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionedStats {
    /// Partitions that existed.
    pub partitions_total: usize,
    /// Partitions whose plan issued an index probe: the rest were pruned,
    /// their indexes holding no candidate for a filter (or their
    /// dictionaries no pattern constant, or a comparison filter rejecting
    /// every candidate a seed would probe with). > 1 means the query
    /// really fanned out.
    pub partitions_probed: usize,
    /// Worker pool size the morsel executor resolved to.
    pub workers: usize,
    /// The most workers that processed a morsel of one partition: the
    /// partitions run one after another, each on the whole pool.
    pub workers_used: usize,
    /// Morsels executed across all partitions.
    pub morsels: u64,
    /// Morsels obtained by work stealing.
    pub steals: u64,
    /// Per-partition engine statistics, summed — `planning_us` and
    /// `exec_us` too, since the partitions run one after another.
    pub engine: QueryStats,
}

/// The refusal of a query that is not a subject star: its patterns do not
/// all share one subject term, so a binding may span two partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotAStar;

impl std::fmt::Display for NotAStar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a partitioned store answers subject-star queries only")
    }
}

impl std::error::Error for NotAStar {}

/// Decoded query results (terms, not ids — ids are partition-local).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedBindings {
    /// Projected variable names.
    pub vars: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Term>>,
}

/// A store split across partitions by subject.
pub struct PartitionedStore {
    parts: Vec<Graph>,
    partitioner: Box<dyn Partitioner>,
}

impl PartitionedStore {
    /// Partitions `source` with `partitioner` (two-pass: `prepare` then
    /// `assign`) and builds one graph per partition.
    pub fn build(source: &Graph, mut partitioner: Box<dyn Partitioner>) -> Self {
        partitioner.prepare(source);
        let mut store = Self::empty(partitioner);
        store.place(source, source.iter_triples());
        store
    }

    /// An empty store ready for incremental [`PartitionedStore::ingest`].
    /// There is no `prepare` pass, so a location- or time-homed
    /// partitioner places every subject by its hash fallback: answers stay
    /// exact, only the locality is lost.
    pub fn empty(partitioner: Box<dyn Partitioner>) -> Self {
        let parts = (0..partitioner.partitions())
            .map(|_| Graph::new())
            .collect();
        Self { parts, partitioner }
    }

    /// Applies newly committed triples of `source` to the partitions
    /// and commits the touched ones. `new` must be the
    /// post-dedup commit delta (see [`Graph::take_new_triples`]); ids are
    /// decoded through `source`'s dictionary and re-encoded per partition.
    pub fn ingest(&mut self, source: &Graph, new: &[Triple]) {
        self.place(source, new.iter().copied());
    }

    /// Inserts `triples` (encoded by `source`) into the partitions the
    /// partitioner assigns them to, then commits the touched partitions.
    fn place(&mut self, source: &Graph, triples: impl Iterator<Item = Triple>) {
        let mut touched = vec![false; self.parts.len()];
        for t in triples {
            let idx = self.partitioner.assign(&t, source);
            let (s, p, o) = (
                // lint:allow(no_panic) callers pass triples encoded by
                // `source`; see `ingest`'s contract.
                source.decode(t.s).expect("id from source"),
                source.decode(t.p).expect("id from source"), // lint:allow(no_panic)
                source.decode(t.o).expect("id from source"), // lint:allow(no_panic)
            );
            self.parts[idx].insert(s, p, o);
            touched[idx] = true;
        }
        for (g, touched) in self.parts.iter_mut().zip(touched) {
            if touched {
                g.commit();
            }
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Triples per partition (balance diagnostics).
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.parts.iter().map(|g| g.len()).collect()
    }

    /// Total triples.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|g| g.len()).sum()
    }

    /// True when the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Executes a subject-star query across the partitions on the morsel
    /// executor (default configuration: one worker per core) and
    /// merges the decoded results; refuses any other query.
    pub fn execute(
        &self,
        q: &SelectQuery,
    ) -> Result<(DecodedBindings, PartitionedStats), NotAStar> {
        self.execute_with(q, &MorselConfig::default())
    }

    /// [`PartitionedStore::execute`] with an explicit executor
    /// configuration (worker count, morsel size).
    ///
    /// The partitions run one after another, each on the whole worker
    /// pool with the query's own `LIMIT`; their rows are decoded
    /// (ids are partition-local) and deduplicated, and the loop stops once
    /// `LIMIT` rows are merged. As every partition may return the full
    /// limit, the answer is the single graph's row set, or under `LIMIT`
    /// some `min(limit, distinct)` of its rows. The empty BGP is a star.
    pub fn execute_with(
        &self,
        q: &SelectQuery,
        cfg: &MorselConfig,
    ) -> Result<(DecodedBindings, PartitionedStats), NotAStar> {
        if q.patterns.windows(2).any(|w| w[0].s != w[1].s) {
            return Err(NotAStar);
        }
        let mut stats = PartitionedStats {
            partitions_total: self.parts.len(),
            workers: cfg.resolved_workers(),
            ..PartitionedStats::default()
        };
        let limit = q.limit.map_or(usize::MAX, |l| l.max(1));
        let vars = if q.vars.is_empty() {
            q.all_vars()
        } else {
            q.vars.clone()
        };
        // A non-empty star's binding lives in one partition; dropping a variable can repeat rows.
        let dedup = q.patterns.is_empty() || q.all_vars().iter().any(|v| !vars.contains(v));
        let mut seen: FxHashSet<Vec<Term>> = FxHashSet::default();
        let mut rows: Vec<Vec<Term>> = Vec::new();
        for g in &self.parts {
            if rows.len() >= limit {
                break;
            }
            let (b, engine, ms) = execute_morsel(g, q, cfg);
            stats.partitions_probed += usize::from(engine.probes > 0);
            stats.workers_used = stats.workers_used.max(ms.workers_used);
            stats.morsels += ms.morsels;
            stats.steals += ms.steals;
            let sum = &mut stats.engine;
            sum.intermediate += engine.intermediate;
            sum.pushdown_candidates += engine.pushdown_candidates;
            sum.probes += engine.probes;
            sum.planning_us += engine.planning_us;
            sum.exec_us += engine.exec_us;
            for row in b.rows {
                let terms: Vec<Term> = row
                    .iter()
                    // lint:allow(no_panic) ids are local to the partition
                    // that produced them.
                    .map(|id| g.decode(*id).expect("local id").clone())
                    .collect();
                if rows.len() < limit && (!dedup || seen.insert(terms.clone())) {
                    rows.push(terms);
                }
            }
        }
        Ok((DecodedBindings { vars, rows }, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute_reference;
    use crate::parser::parse_query;
    use crate::partition::{HashPartitioner, SpatialGridPartitioner, TemporalPartitioner};
    use datacron_geo::{BoundingBox, GeoPoint, TimeMs};

    fn source() -> Graph {
        let mut g = Graph::new();
        for i in 0..40i64 {
            let s = Term::iri(format!("v{i}"));
            g.insert(&s, &Term::iri("type"), &Term::iri("Vessel"));
            g.insert(
                &s,
                &Term::iri("pos"),
                &Term::point(GeoPoint::new(
                    20.0 + (i % 10) as f64,
                    36.0 + (i / 10) as f64 * 0.5,
                )),
            );
            g.insert(&s, &Term::iri("at"), &Term::time(TimeMs(i * 60_000)));
            g.insert(&s, &Term::iri("speed"), &Term::double(i as f64 / 4.0));
        }
        g.commit();
        g
    }

    fn sorted(mut rows: Vec<Vec<Term>>) -> Vec<Vec<Term>> {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    }

    /// The reference engine's rows for `text` over `source()`, decoded.
    fn reference(text: &str) -> Vec<Vec<Term>> {
        let g = source();
        let (b, _) = execute_reference(&g, &parse_query(text).unwrap());
        let rows = b.rows.iter().map(|r| b.decode_row(&g, r));
        sorted(rows.map(|r| r.into_iter().cloned().collect()).collect())
    }

    /// The store's rows for `text`, sorted; panics on a refusal.
    fn answer(store: &PartitionedStore, text: &str, cfg: &MorselConfig) -> Vec<Vec<Term>> {
        let (b, _) = store
            .execute_with(&parse_query(text).unwrap(), cfg)
            .unwrap();
        sorted(b.rows)
    }

    fn stores() -> Vec<PartitionedStore> {
        let g = source();
        vec![
            PartitionedStore::build(&g, Box::new(HashPartitioner::new(4))),
            PartitionedStore::build(
                &g,
                Box::new(SpatialGridPartitioner::new(
                    4,
                    BoundingBox::new(19.0, 35.0, 31.0, 39.0),
                    2.0,
                )),
            ),
            PartitionedStore::build(
                &g,
                Box::new(TemporalPartitioner::new(4, TimeMs(0), 10 * 60_000)),
            ),
        ]
    }

    #[test]
    fn build_preserves_triple_count() {
        for store in stores() {
            assert_eq!(store.len(), 160, "{:?}", store.partition_sizes());
            assert_eq!(store.partitions(), 4);
            assert!(!store.is_empty());
        }
    }

    #[test]
    fn star_query_same_answer_on_every_partitioning() {
        let text = "SELECT ?v ?s WHERE { ?v type Vessel . ?v speed ?s . FILTER (?s >= 5.0) }";
        let want = reference(text);
        // speeds 5.0..=9.75 → i in 20..40 → 20 rows.
        assert_eq!(want.len(), 20);
        for store in stores() {
            assert_eq!(answer(&store, text, &MorselConfig::default()), want);
        }
    }

    #[test]
    fn spatial_query_prunes_partitions_under_spatial_partitioning() {
        let g = source();
        let store = PartitionedStore::build(
            &g,
            Box::new(SpatialGridPartitioner::new(
                8,
                BoundingBox::new(19.0, 35.0, 31.0, 39.0),
                1.0,
            )),
        );
        let text = "SELECT ?v WHERE { ?v pos ?g . FILTER st_within(?g, 19.5, 35.5, 21.5, 38.5) }";
        let q = parse_query(text).unwrap();
        let (b, stats) = store.execute(&q).unwrap();
        // Vessels with lon 20 or 21: i%10 ∈ {0,1} → 8 vessels.
        assert_eq!(reference(text).len(), 8);
        assert_eq!(sorted(b.rows), reference(text));
        assert!(
            stats.partitions_probed < stats.partitions_total,
            "no pruning: {stats:?}"
        );
        // Hash partitioning scatters the same matches over more partitions.
        let hash_store = PartitionedStore::build(&g, Box::new(HashPartitioner::new(8)));
        let (b2, stats2) = hash_store.execute(&q).unwrap();
        assert_eq!(sorted(b2.rows), reference(text));
        assert!(
            stats.partitions_probed < stats2.partitions_probed,
            "{stats:?} vs {stats2:?}"
        );
    }

    #[test]
    fn temporal_query_prunes_partitions_under_temporal_partitioning() {
        let g = source();
        let store = PartitionedStore::build(
            &g,
            Box::new(TemporalPartitioner::new(4, TimeMs(0), 10 * 60_000)),
        );
        let text = "SELECT ?v WHERE { ?v at ?t . FILTER t_between(?t, 0, 600000) }";
        let (b, stats) = store.execute(&parse_query(text).unwrap()).unwrap();
        assert_eq!(sorted(b.rows), reference(text)); // first 10 minutes → v0..v9
        assert_eq!(reference(text).len(), 10);
        assert_eq!(stats.partitions_probed, 1);
    }

    #[test]
    fn limit_respected_across_partitions() {
        let all = reference("SELECT ?v WHERE { ?v type Vessel }");
        for store in stores() {
            let got = answer(
                &store,
                "SELECT ?v WHERE { ?v type Vessel } LIMIT 7",
                &MorselConfig::default(),
            );
            assert_eq!(got.len(), 7);
            assert!(got.windows(2).all(|w| w[0] != w[1]), "duplicate row");
            assert!(
                got.iter().all(|r| all.contains(r)),
                "row outside the reference set"
            );
        }
    }

    #[test]
    fn dedup_across_partitions() {
        // Projecting a constant-valued variable dedups globally.
        let text = "SELECT ?t WHERE { ?v type ?t }";
        assert_eq!(reference(text), vec![vec![Term::iri("Vessel")]]);
        for store in stores() {
            assert_eq!(
                answer(&store, text, &MorselConfig::default()),
                reference(text)
            );
        }
    }

    #[test]
    fn execute_with_explicit_workers_matches_default() {
        let text = "SELECT ?v ?s WHERE { ?v type Vessel . ?v speed ?s . FILTER (?s >= 5.0) }";
        let q = parse_query(text).unwrap();
        for store in stores() {
            for workers in [1, 2, 8] {
                let cfg = MorselConfig {
                    workers,
                    morsel_triples: 16,
                };
                assert_eq!(answer(&store, text, &cfg), reference(text));
                let (_, stats) = store.execute_with(&q, &cfg).unwrap();
                assert_eq!(stats.workers, workers);
                assert!(stats.workers_used >= 1 && stats.workers_used <= workers);
                // 4 partitions × (40 type triples at 16/morsel = 3 morsels)
                // — partitioning skew can shift the split but every
                // partition contributes at least one morsel.
                assert!(stats.morsels >= 4, "{stats:?}");
                assert!(stats.partitions_probed >= 1);
            }
        }
    }

    #[test]
    fn stats_surface_morsel_counters() {
        let store = &stores()[0];
        let q = parse_query("SELECT ?v WHERE { ?v type Vessel }").unwrap();
        let (b, stats) = store.execute(&q).unwrap();
        assert_eq!(b.rows.len(), 40);
        assert!(stats.workers >= 1);
        assert!(stats.morsels >= stats.partitions_probed as u64);
        assert_eq!(stats.partitions_probed, 4);
    }

    #[test]
    fn empty_query_on_empty_store() {
        let g = Graph::new();
        let store = PartitionedStore::build(&g, Box::new(HashPartitioner::new(2)));
        let q = parse_query("SELECT ?v WHERE { ?v type Vessel }").unwrap();
        let (b, stats) = store.execute(&q).unwrap();
        assert!(b.rows.is_empty());
        assert_eq!((stats.partitions_probed, stats.partitions_total), (0, 2));
    }
}
