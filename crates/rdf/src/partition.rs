//! RDF partitioning algorithms — the paper's "sophisticated RDF
//! partitioning" under evaluation.
//!
//! All partitioners assign triples to partitions **by subject**, so every
//! triple about one entity lands in one partition and subject-star queries
//! evaluate partition-locally. They differ in how a subject's home is
//! chosen:
//!
//! * [`HashPartitioner`] — uniform hash of the subject id (the baseline);
//! * [`SpatialGridPartitioner`] — a subject's home follows its *location*
//!   (the point literal it links to), so the points a spatial range query
//!   matches sit in few partitions;
//! * [`TemporalPartitioner`] — the home follows the subject's timestamp
//!   literal, so the instants a time window matches sit in few partitions.
//!
//! A home decides placement only (balance and locality), never which
//! partitions a query reads: each partition's own spatial and temporal
//! indexes answer its filters, and a partition they leave without a
//! candidate is skipped after that one lookup (see [`crate::parallel`]).
//! So a subject with several points or instants, or one placed by the
//! hash fallback, is found wherever it lives.

use crate::dict::TermId;
use crate::store::{Graph, Triple};
use datacron_geo::FxHashMap;
use datacron_geo::{BoundingBox, GeoPoint, Grid, TimeMs};

/// Assigns each subject (and thus each triple) to a partition.
pub trait Partitioner: Send + Sync {
    /// Number of partitions produced.
    fn partitions(&self) -> usize;

    /// The partition a triple belongs to, given the source graph (used to
    /// look at literal values).
    fn assign(&self, triple: &Triple, source: &Graph) -> usize;

    /// Hook called once before assignment so the partitioner can learn
    /// subject homes (two-pass partitioning). Default: nothing.
    fn prepare(&mut self, _source: &Graph) {}
}

/// Fibonacci hashing of the dense subject id onto `n` partitions: spreads
/// sequential ids well.
fn hash_home(s: TermId, n: usize) -> usize {
    let h = (s.raw() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (((h >> 32) * n as u64) >> 32) as usize
}

/// A learned home, or the hash of the subject id for a subject `prepare`
/// saw no point or instant for.
fn home_or_hash(homes: &FxHashMap<TermId, usize>, s: TermId, n: usize) -> usize {
    homes.get(&s).copied().unwrap_or_else(|| hash_home(s, n))
}

/// Uniform hash partitioning by subject id.
#[derive(Debug, Clone)]
pub struct HashPartitioner {
    n: usize,
}

impl HashPartitioner {
    /// Creates a hash partitioner over `n` partitions.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        Self { n }
    }
}

impl Partitioner for HashPartitioner {
    fn partitions(&self) -> usize {
        self.n
    }

    fn assign(&self, triple: &Triple, _source: &Graph) -> usize {
        hash_home(triple.s, self.n)
    }
}

/// Spatial grid partitioning: subjects live where their geometry is.
///
/// `prepare` scans the graph for triples whose object is a point literal and
/// records each subject's last seen location; `assign` then places all of a
/// subject's triples in the grid cell of that location (cells are folded
/// onto `n` partitions round-robin). Subjects without geometry fall back to
/// hash placement.
#[derive(Debug)]
pub struct SpatialGridPartitioner {
    n: usize,
    grid: Grid,
    homes: FxHashMap<TermId, usize>,
}

impl SpatialGridPartitioner {
    /// Creates a spatial partitioner with `n` partitions over `extent`
    /// tiled at `cell_deg`.
    pub fn new(n: usize, extent: BoundingBox, cell_deg: f64) -> Self {
        assert!(n > 0);
        Self {
            n,
            grid: Grid::new(extent, cell_deg).unwrap_or_else(Grid::global),
            homes: FxHashMap::default(),
        }
    }

    fn partition_of_point(&self, p: &GeoPoint) -> usize {
        // Row-major fold keeps neighbouring cells on mostly-distinct
        // partitions while remaining deterministic.
        (self.grid.cell_of_clamped(p).pack() % self.n as u64) as usize
    }
}

impl Partitioner for SpatialGridPartitioner {
    fn partitions(&self) -> usize {
        self.n
    }

    fn prepare(&mut self, source: &Graph) {
        for t in source.iter_triples() {
            if let Some(term) = source.decode(t.o) {
                if let Some(p) = term.as_point() {
                    self.homes.insert(t.s, self.partition_of_point(&p));
                }
            }
        }
    }

    fn assign(&self, triple: &Triple, _source: &Graph) -> usize {
        home_or_hash(&self.homes, triple.s, self.n)
    }
}

/// Temporal range partitioning: subjects live in the time slice of their
/// timestamp literal.
#[derive(Debug)]
pub struct TemporalPartitioner {
    n: usize,
    epoch: TimeMs,
    slice_ms: i64,
    homes: FxHashMap<TermId, usize>,
}

impl TemporalPartitioner {
    /// Creates a temporal partitioner with `n` partitions of `slice_ms`
    /// each, starting at `epoch` (wrapping round-robin after `n` slices).
    pub fn new(n: usize, epoch: TimeMs, slice_ms: i64) -> Self {
        assert!(n > 0 && slice_ms > 0);
        Self {
            n,
            epoch,
            slice_ms,
            homes: FxHashMap::default(),
        }
    }

    fn partition_of_time(&self, t: TimeMs) -> usize {
        let slice = (t - self.epoch).div_euclid(self.slice_ms);
        (slice.rem_euclid(self.n as i64)) as usize
    }
}

impl Partitioner for TemporalPartitioner {
    fn partitions(&self) -> usize {
        self.n
    }

    fn prepare(&mut self, source: &Graph) {
        for t in source.iter_triples() {
            if let Some(term) = source.decode(t.o) {
                if let Some(time) = term.as_time() {
                    self.homes.insert(t.s, self.partition_of_time(time));
                }
            }
        }
    }

    fn assign(&self, triple: &Triple, _source: &Graph) -> usize {
        home_or_hash(&self.homes, triple.s, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn geo_graph() -> Graph {
        let mut g = Graph::new();
        for i in 0..20 {
            let s = Term::iri(format!("v{i}"));
            g.insert(
                &s,
                &Term::iri("pos"),
                &Term::point(GeoPoint::new(20.0 + i as f64 * 0.4, 36.0)),
            );
            g.insert(&s, &Term::iri("name"), &Term::string(format!("N{i}")));
            g.insert(&s, &Term::iri("at"), &Term::time(TimeMs(i * 60_000)));
        }
        g.commit();
        g
    }

    #[test]
    fn hash_partitioner_covers_all_and_is_deterministic() {
        let g = geo_graph();
        let p = HashPartitioner::new(4);
        let mut counts = vec![0usize; 4];
        for t in g.iter_triples() {
            let a = p.assign(&t, &g);
            assert_eq!(a, p.assign(&t, &g));
            counts[a] += 1;
        }
        // All partitions used; rough balance (each subject has 3 triples).
        for &c in &counts {
            assert!(c > 0, "unused partition: {counts:?}");
        }
    }

    #[test]
    fn subject_locality_is_preserved_by_all_partitioners() {
        let g = geo_graph();
        let extent = BoundingBox::new(19.0, 35.0, 29.0, 42.0);
        let mut spatial = SpatialGridPartitioner::new(4, extent, 1.0);
        spatial.prepare(&g);
        let mut temporal = TemporalPartitioner::new(4, TimeMs(0), 5 * 60_000);
        temporal.prepare(&g);
        let hash = HashPartitioner::new(4);
        let parts: [&dyn Partitioner; 3] = [&hash, &spatial, &temporal];
        for p in parts {
            let mut homes: FxHashMap<TermId, usize> = FxHashMap::default();
            for t in g.iter_triples() {
                let a = p.assign(&t, &g);
                if let Some(&prev) = homes.get(&t.s) {
                    assert_eq!(prev, a, "subject split across partitions");
                } else {
                    homes.insert(t.s, a);
                }
            }
        }
    }

    #[test]
    fn subjects_without_hints_fall_back_to_hash() {
        let mut g = Graph::new();
        g.insert(&Term::iri("x"), &Term::iri("p"), &Term::iri("y"));
        g.commit();
        let extent = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        let mut sp = SpatialGridPartitioner::new(4, extent, 1.0);
        sp.prepare(&g);
        let t = g.iter_triples().next().unwrap();
        let a = sp.assign(&t, &g);
        assert!(a < 4);
        // Deterministic fallback.
        assert_eq!(a, sp.assign(&t, &g));
    }
}
