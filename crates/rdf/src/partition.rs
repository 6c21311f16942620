//! The hash-placed copy of a graph that the benchmark harness's traced
//! replay (`benchmark/src/traced.rs`) syncs after every commit and times as
//! `rdf.mirror_sync_us_per_batch`. It answers no query and no serving path
//! holds one. It stays only because a PR may not edit `benchmark/`
//! together with other code: once ROADMAP item 1(a) removes that caller,
//! the next code PR deletes it, as it does
//! `AnalyticsState::with_sparql_partitions`.

use crate::dict::TermId;
use crate::store::{Graph, Triple};

/// Fibonacci hashing of the dense subject id onto `n` partitions.
fn hash_home(s: TermId, n: usize) -> usize {
    let h = (s.raw() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (((h >> 32) * n as u64) >> 32) as usize
}

/// Places every triple on one of `n` partitions by a hash of its subject.
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

/// A copy of a graph split across partitions by subject hash.
pub struct PartitionedStore {
    parts: Vec<Graph>,
}

impl PartitionedStore {
    /// An empty store with one graph per partition.
    // The harness passes `Box::new(HashPartitioner::new(n))`.
    #[allow(clippy::boxed_local)]
    pub fn empty(partitioner: Box<HashPartitioner>) -> Self {
        Self {
            parts: (0..partitioner.n).map(|_| Graph::new()).collect(),
        }
    }

    /// Places newly committed triples of `source` on their subjects'
    /// partitions and commits the touched ones. `new` must be the
    /// post-dedup commit delta (see [`Graph::take_new_triples`]); ids are
    /// decoded through `source`'s dictionary and re-encoded per partition.
    pub fn ingest(&mut self, source: &Graph, new: &[Triple]) {
        let mut touched = vec![false; self.parts.len()];
        for t in new {
            let idx = hash_home(t.s, self.parts.len());
            // lint:allow(no_panic) `new` holds ids of `source` (see above).
            let term = |id: TermId| source.decode(id).expect("id from source");
            self.parts[idx].insert(term(t.s), term(t.p), term(t.o));
            touched[idx] = true;
        }
        for (g, touched) in self.parts.iter_mut().zip(touched) {
            if touched {
                g.commit();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    #[test]
    fn hash_partitioner_covers_all_and_is_deterministic() {
        let mut g = Graph::new();
        for i in 0..20 {
            let s = Term::iri(format!("v{i}"));
            g.insert(&s, &Term::iri("name"), &Term::string(format!("N{i}")));
        }
        g.commit();
        let mut counts = [0usize; 4];
        for t in g.iter_triples() {
            let home = hash_home(t.s, 4);
            assert_eq!(home, hash_home(t.s, 4));
            counts[home] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "unused partition: {counts:?}"
        );
    }

    /// Every committed triple reaches the partition of its subject's hash
    /// exactly once, across commits that repeat triples.
    #[test]
    fn ingest_places_each_committed_triple_once_by_subject() {
        let mut source = Graph::new();
        source.track_new_triples(true);
        let mut store = PartitionedStore::empty(Box::new(HashPartitioner::new(4)));
        for round in 0..5 {
            for i in 0..40 {
                let s = Term::iri(format!("s{}", (i * 7 + round) % 25));
                let o = Term::iri(format!("o{}", i % 12));
                source.insert(&s, &Term::iri(format!("p{}", i % 3)), &o);
            }
            source.commit();
            let delta = source.take_new_triples();
            store.ingest(&source, &delta);
        }
        let total: usize = store.parts.iter().map(Graph::len).sum();
        assert_eq!(total, source.len(), "no triple lost or duplicated");
        for t in source.iter_triples() {
            let [s, p, o] = [t.s, t.p, t.o].map(|id| source.decode(id).unwrap());
            let part = &store.parts[hash_home(t.s, 4)];
            let ids = [s, p, o].map(|term| part.dict().lookup(term));
            let [Some(ps), Some(pp), Some(po)] = ids else {
                panic!("{s} {p} {o} is not on its subject's partition");
            };
            assert_eq!(part.probe_width(Some(ps), Some(pp), Some(po)), 1);
        }
    }
}
