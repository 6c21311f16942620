//! The partitioned, parallel store: queries fan out to partition workers
//! and results merge, with partition pruning driven by the partitioner's
//! routing knowledge.
//!
//! # Query semantics
//!
//! All partitioners place triples **by subject**, so a *star* query (every
//! pattern shares one subject variable) evaluates exactly: each binding is
//! wholly contained in one partition. General joins are evaluated
//! *partition-locally* (co-partitioned join semantics — the standard
//! trade-off of hash-partitioned RDF stores that avoid broadcast joins);
//! bindings that would span two partitions are not produced. The
//! experiments use star-shaped and co-partitioned workloads, matching how
//! the datAcron ontology models per-entity data.
//!
//! Those partition-local joins are why this store is **not a serving
//! route**: the server answers every SPARQL request from its one [`Graph`]
//! on the morsel pool ([`crate::morsel::execute_morsel`]), which is exact
//! for any join shape. `PartitionedStore` and the partitioners are the
//! library's partitioning code (experiment E5) and the starting point for
//! a shard router, which needs a gather-side join for non-star queries.

use crate::engine::QueryStats;
use crate::morsel::{self, MorselConfig};
use crate::partition::Partitioner;
use crate::query::{FilterExpr, SelectQuery};
use crate::store::{Graph, Triple};
use crate::term::Term;
use datacron_geo::BoundingBox;
use rustc_hash::FxHashSet;

/// Aggregate statistics of a partitioned execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionedStats {
    /// Partitions the query was routed to.
    pub partitions_touched: usize,
    /// Partitions that existed.
    pub partitions_total: usize,
    /// Partitions whose engine actually issued index probes (the
    /// partition-parallelism proof: > 1 means the query really fanned out).
    pub partitions_probed: usize,
    /// Worker pool size the morsel executor resolved to.
    pub workers: usize,
    /// Workers that processed at least one morsel (the intra-query
    /// parallelism proof — can exceed `partitions_probed` now that work
    /// units are morsels, not partitions).
    pub workers_used: usize,
    /// Morsels executed across all partitions.
    pub morsels: u64,
    /// Morsels obtained by work stealing.
    pub steals: u64,
    /// Merged per-partition engine statistics: counters are summed;
    /// `planning_us`/`exec_us` take the per-partition maximum (the
    /// critical path, since partitions run on concurrent workers).
    pub engine: QueryStats,
}

/// Decoded query results (terms, not ids — ids are partition-local).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedBindings {
    /// Projected variable names.
    pub vars: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Term>>,
}

/// A store split across partitions, queried in parallel.
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
    /// Intended for partitioners whose `assign` needs no `prepare` pass
    /// (hash by subject); location/time-homed partitioners would route
    /// every subject through the hash fallback.
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

    /// The partitions a query must touch, from its pushdown filters.
    fn route(&self, q: &SelectQuery) -> Vec<usize> {
        let mut routed: Option<FxHashSet<usize>> = None;
        let narrow = |set: Vec<usize>, routed: &mut Option<FxHashSet<usize>>| {
            let set: FxHashSet<usize> = set.into_iter().collect();
            *routed = Some(match routed.take() {
                None => set,
                Some(prev) => prev.intersection(&set).copied().collect(),
            });
        };
        for f in &q.filters {
            match f {
                FilterExpr::SpatialWithin { bbox, .. } => {
                    narrow(self.partitioner.route_bbox(bbox), &mut routed)
                }
                FilterExpr::SpatialNear {
                    center, radius_m, ..
                } => {
                    let margin = radius_m / 111_000.0 * 1.5 + 1e-6;
                    let bbox = BoundingBox::from_point(*center).buffered(margin);
                    narrow(self.partitioner.route_bbox(&bbox), &mut routed)
                }
                FilterExpr::TimeBetween { interval, .. } => {
                    narrow(self.partitioner.route_interval(interval), &mut routed)
                }
                FilterExpr::Compare { .. } => {}
            }
        }
        let mut out: Vec<usize> = match routed {
            None => (0..self.parts.len()).collect(),
            Some(set) => set.into_iter().collect(),
        };
        out.sort_unstable();
        out
    }

    /// Executes a query across the routed partitions on the morsel-driven
    /// work-stealing executor (default configuration: one worker per
    /// core) and merges the decoded results.
    pub fn execute(&self, q: &SelectQuery) -> (DecodedBindings, PartitionedStats) {
        self.execute_with(q, &MorselConfig::default())
    }

    /// [`PartitionedStore::execute`] with an explicit executor
    /// configuration (worker count, morsel size).
    ///
    /// All routed partitions feed **one** shared worker pool: each
    /// partition's seed scan is split into fixed-size morsels distributed
    /// over per-worker deques, and idle workers steal, so a skewed
    /// partition no longer serializes the query the way the old
    /// one-thread-per-partition model did. Joins stay partition-local
    /// (the co-partitioned semantics documented above).
    pub fn execute_with(
        &self,
        q: &SelectQuery,
        cfg: &MorselConfig,
    ) -> (DecodedBindings, PartitionedStats) {
        let routed = self.route(q);
        let graphs: Vec<&Graph> = routed.iter().map(|&idx| &self.parts[idx]).collect();
        let (bindings, mut stats) = morsel::execute_routed(&graphs, q, cfg);
        stats.partitions_total = self.parts.len();
        (bindings, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::partition::{HashPartitioner, SpatialGridPartitioner, TemporalPartitioner};
    use datacron_geo::{GeoPoint, TimeMs};

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
        let q =
            parse_query("SELECT ?v ?s WHERE { ?v type Vessel . ?v speed ?s . FILTER (?s >= 5.0) }")
                .unwrap();
        let mut counts = Vec::new();
        for store in stores() {
            let (b, _) = store.execute(&q);
            counts.push(b.rows.len());
        }
        // speeds 5.0..=9.75 → i in 20..40 → 20 rows.
        assert_eq!(counts, vec![20, 20, 20]);
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
        let q = parse_query(
            "SELECT ?v WHERE { ?v pos ?g . FILTER st_within(?g, 19.5, 35.5, 21.5, 38.5) }",
        )
        .unwrap();
        let (b, stats) = store.execute(&q);
        // Vessels with lon 20 or 21: i%10 ∈ {0,1} → 8 vessels.
        assert_eq!(b.rows.len(), 8);
        assert!(
            stats.partitions_touched < stats.partitions_total,
            "no pruning: {stats:?}"
        );
        // Hash partitioning cannot prune the same query.
        let hash_store = PartitionedStore::build(&g, Box::new(HashPartitioner::new(8)));
        let (b2, stats2) = hash_store.execute(&q);
        assert_eq!(b2.rows.len(), 8);
        assert_eq!(stats2.partitions_touched, stats2.partitions_total);
    }

    #[test]
    fn temporal_query_prunes_partitions_under_temporal_partitioning() {
        let g = source();
        let store = PartitionedStore::build(
            &g,
            Box::new(TemporalPartitioner::new(4, TimeMs(0), 10 * 60_000)),
        );
        let q =
            parse_query("SELECT ?v WHERE { ?v at ?t . FILTER t_between(?t, 0, 600000) }").unwrap();
        let (b, stats) = store.execute(&q);
        assert_eq!(b.rows.len(), 10); // first 10 minutes → v0..v9
        assert_eq!(stats.partitions_touched, 1);
    }

    #[test]
    fn limit_respected_across_partitions() {
        let store = &stores()[0];
        let q = parse_query("SELECT ?v WHERE { ?v type Vessel } LIMIT 7").unwrap();
        let (b, _) = store.execute(&q);
        assert_eq!(b.rows.len(), 7);
    }

    #[test]
    fn dedup_across_partitions() {
        // Projecting a constant-valued variable dedups globally.
        let store = &stores()[0];
        let q = parse_query("SELECT ?t WHERE { ?v type ?t }").unwrap();
        let (b, _) = store.execute(&q);
        assert_eq!(b.rows.len(), 1);
        assert_eq!(b.rows[0][0], Term::iri("Vessel"));
    }

    #[test]
    fn execute_with_explicit_workers_matches_default() {
        let q =
            parse_query("SELECT ?v ?s WHERE { ?v type Vessel . ?v speed ?s . FILTER (?s >= 5.0) }")
                .unwrap();
        for store in stores() {
            let (reference, _) = store.execute(&q);
            let mut reference_rows = reference.rows;
            reference_rows.sort_by_key(|r| format!("{r:?}"));
            for workers in [1, 2, 8] {
                let cfg = MorselConfig {
                    workers,
                    morsel_triples: 16,
                };
                let (b, stats) = store.execute_with(&q, &cfg);
                let mut rows = b.rows;
                rows.sort_by_key(|r| format!("{r:?}"));
                assert_eq!(rows, reference_rows);
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
        let (b, stats) = store.execute(&q);
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
        let (b, stats) = store.execute(&q);
        assert!(b.rows.is_empty());
        assert_eq!(stats.partitions_touched, 2);
    }
}
