//! The crate's one way of adding keys to a sorted index: sort the new
//! keys, then merge that run in place.

/// Merges the ascending `run` into the ascending `index` in place, back to
/// front: the index grows by `run.len()`, then for each run key from the
/// largest down, the old keys above it move up as one block
/// (`copy_within`, a memmove) and the key drops into the gap.
///
/// Cost: per run key, a search down from the previous key's slot that
/// costs O(log gap) ([`slot_from_end`]), and every old key moves at most
/// once — the prefix below the smallest run key is never touched — with no
/// buffer beyond the index's own growth. That holds at every run/index
/// ratio (an empty index, a run longer than the index), so no caller ever
/// falls back to re-sorting the whole index.
///
/// A run key equal to an old key lands before it; callers that need a
/// strictly increasing index keep the run duplicate-free and disjoint from
/// the index.
pub(crate) fn merge_sorted_run<T: Ord + Copy>(index: &mut Vec<T>, run: &[T]) {
    debug_assert!(run.windows(2).all(|w| w[0] <= w[1]), "run must be sorted");
    // `index[..src]` is the part of the old index not moved yet; the slots
    // `src..dst` are free; everything from `dst` up is final.
    let mut src = index.len();
    // Grows the index by the run's length; the loop overwrites every slot.
    index.extend_from_slice(run);
    let mut dst = index.len();
    for &key in run.iter().rev() {
        let slot = slot_from_end(&index[..src], &key);
        dst -= src - slot;
        index.copy_within(slot..src, dst);
        src = slot;
        dst -= 1;
        index[dst] = key;
    }
}

/// `prefix.partition_point(|k| k < key)`, searched from the end: steps
/// of 1, 2, 4, … down bracket the answer, then a binary search inside the
/// bracket finishes. O(log gap) compares, all near the end of `prefix`,
/// where a whole-prefix binary search would miss the cache on most of its
/// log n probes — the difference between a fold of the delta into a large
/// base costing its memmove and costing one cold search per delta key.
fn slot_from_end<T: Ord>(prefix: &[T], key: &T) -> usize {
    // Every key in `prefix[hi..]` is at least `key`.
    let mut hi = prefix.len();
    let mut step = 1;
    while hi > 0 {
        let probe = hi.saturating_sub(step);
        if prefix[probe] < *key {
            return probe + 1 + prefix[probe + 1..hi].partition_point(|k| k < key);
        }
        hi = probe;
        step *= 2;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::Rng;

    fn merged(index: &[u32], run: &[u32]) -> Vec<u32> {
        let mut v = index.to_vec();
        merge_sorted_run(&mut v, run);
        let mut want = [index, run].concat();
        want.sort_unstable();
        assert_eq!(v, want, "index {index:?} run {run:?}");
        v
    }

    #[test]
    fn empty_index_takes_the_run() {
        assert_eq!(merged(&[], &[1, 5, 9]), vec![1, 5, 9]);
        assert_eq!(merged(&[], &[]), Vec::<u32>::new());
        assert_eq!(merged(&[2, 4], &[]), vec![2, 4]);
    }

    #[test]
    fn run_longer_than_the_index() {
        assert_eq!(
            merged(&[10, 20], &[1, 2, 11, 12, 13, 21, 22]),
            vec![1, 2, 10, 11, 12, 13, 20, 21, 22]
        );
    }

    #[test]
    fn run_entirely_below_the_index() {
        assert_eq!(merged(&[10, 20, 30], &[1, 2, 3]), vec![1, 2, 3, 10, 20, 30]);
    }

    #[test]
    fn run_entirely_above_the_index() {
        assert_eq!(merged(&[10, 20, 30], &[31, 32]), vec![10, 20, 30, 31, 32]);
    }

    #[test]
    fn run_interleaved_with_the_index() {
        assert_eq!(
            merged(&[10, 20, 30, 40], &[5, 15, 16, 35, 45]),
            vec![5, 10, 15, 16, 20, 30, 35, 40, 45]
        );
    }

    #[test]
    fn equal_keys_are_kept() {
        assert_eq!(merged(&[1, 2, 2, 3], &[2, 3, 3]), vec![1, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn search_from_the_end_is_the_partition_point() {
        let v: Vec<u32> = (0..100).map(|i| i * 2).collect();
        for len in [0, 1, 2, 3, 7, 64, 100] {
            for key in 0..=201 {
                let prefix = &v[..len];
                let want = prefix.partition_point(|k| *k < key);
                assert_eq!(slot_from_end(prefix, &key), want, "len {len} key {key}");
            }
        }
    }

    #[test]
    fn seeded_shapes_agree_with_a_full_sort() {
        let mut rng = Rng::seed_from_u64(15);
        for _ in 0..200 {
            // A narrow spread repeats keys; a wide one rarely does.
            let spread = rng.gen_range(1u32..60);
            let (n, t) = (rng.gen_range(0usize..40), rng.gen_range(0usize..40));
            let mut sorted = |len: usize| {
                let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..spread)).collect();
                v.sort_unstable();
                v
            };
            let (index, run) = (sorted(n), sorted(t));
            merged(&index, &run);
        }
    }
}
