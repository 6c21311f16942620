//! The workspace's one latency histogram.
//!
//! The paper's headline operational requirement is millisecond latency;
//! this type holds every latency distribution the server, the storage
//! layer, the pipeline and the experiments report.

use crate::clock::Stopwatch;
use parking_lot::Mutex;

/// Number of logarithmic latency buckets: bucket `i` covers
/// `[2^i, 2^(i+1))` microseconds, bucket 0 covers `[0, 2)` µs.
const BUCKETS: usize = 40;

/// A thread-safe log-scale latency histogram in microseconds.
///
/// Log buckets give ≤ 2× relative quantile error across nine decades, which
/// is ample for distinguishing "microseconds" from "milliseconds" from
/// "seconds" — the distinction the paper's latency requirement draws.
#[derive(Debug)]
pub struct LatencyHistogram {
    inner: Mutex<Hist>,
}

#[derive(Debug, Clone)]
struct Hist {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for LatencyHistogram {
    /// Snapshots the histogram; the clone records independently afterwards.
    fn clone(&self) -> Self {
        Self {
            inner: Mutex::new(self.inner.lock().clone()),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Hist {
                buckets: [0; BUCKETS],
                count: 0,
                sum_us: 0,
                max_us: 0,
            }),
        }
    }

    /// Records one latency sample in microseconds.
    pub fn record_us(&self, us: u64) {
        let bucket = (64 - u64::leading_zeros(us.max(1)) as usize - 1).min(BUCKETS - 1);
        let mut h = self.inner.lock();
        h.buckets[bucket] += 1;
        h.count += 1;
        h.sum_us += us;
        h.max_us = h.max_us.max(us);
    }

    /// Records the elapsed time on a [`Stopwatch`] — the only sanctioned
    /// way to hold a start time outside the clock module.
    pub fn observe(&self, sw: &Stopwatch) {
        self.record_us(sw.elapsed_us());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.inner.lock().count
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        let h = self.inner.lock();
        if h.count == 0 {
            0.0
        } else {
            h.sum_us as f64 / h.count as f64
        }
    }

    /// Maximum recorded latency in microseconds.
    pub fn max_us(&self) -> u64 {
        self.inner.lock().max_us
    }

    /// Sum of all recorded samples, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.inner.lock().sum_us
    }

    /// Approximate quantile (`q` in `[0,1]`) in microseconds: the upper edge
    /// of the bucket containing the q-th sample, clamped to the observed
    /// maximum so `quantile_us(q) <= max_us()` always holds (the raw bucket
    /// edge can exceed every sample — a single 5 µs sample lands in the
    /// `[4, 8)` bucket, whose edge would report p99 = 8 µs).
    pub fn quantile_us(&self, q: f64) -> u64 {
        let h = self.inner.lock();
        if h.count == 0 {
            return 0;
        }
        let target = ((h.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (1u64 << (i + 1)).min(h.max_us);
            }
        }
        h.max_us
    }

    /// `(p50, p99, max)` in microseconds — the tuple the reports print.
    pub fn summary_us(&self) -> (u64, u64, u64) {
        (self.quantile_us(0.5), self.quantile_us(0.99), self.max_us())
    }

    /// Folds another histogram into this one (bucket-wise addition); used to
    /// aggregate per-worker histograms into one server-wide distribution.
    pub fn merge(&self, other: &LatencyHistogram) {
        // Snapshot `other` before locking `self` so the two locks are never
        // held together; self-merge would double counts, so reject it.
        if std::ptr::eq(self, other) {
            return;
        }
        let o = other.inner.lock().clone();
        let mut h = self.inner.lock();
        for (b, ob) in h.buckets.iter_mut().zip(o.buckets.iter()) {
            *b += ob;
        }
        h.count += o.count;
        h.sum_us += o.sum_us;
        h.max_us = h.max_us.max(o.max_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::new();
        for us in [1u64, 10, 100, 1000, 10_000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_us(), 10_000);
        // p50 bucket upper edge must be >= 100 (the median sample) and
        // within 2x of it.
        let p50 = h.quantile_us(0.5);
        assert!((100..=256).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_us(0.99);
        assert!(p99 >= 10_000, "p99 = {p99}");
    }

    #[test]
    fn histogram_empty() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.summary_us(), (0, 0, 0));
    }

    #[test]
    fn histogram_mean() {
        let h = LatencyHistogram::new();
        h.record_us(100);
        h.record_us(300);
        assert_eq!(h.mean_us(), 200.0);
    }

    #[test]
    fn histogram_zero_sample_goes_to_first_bucket() {
        let h = LatencyHistogram::new();
        h.record_us(0);
        assert_eq!(h.count(), 1);
        assert!(h.quantile_us(1.0) <= 2);
    }

    #[test]
    fn histogram_concurrent_recording() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    h.record_us(i);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn clone_snapshots_and_diverges() {
        let h = LatencyHistogram::new();
        h.record_us(100);
        let c = h.clone();
        assert_eq!(c.count(), 1);
        assert_eq!(c.max_us(), 100);
        h.record_us(9_000);
        assert_eq!(c.count(), 1, "clone must not share state");
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn merge_adds_counts_and_keeps_max() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for us in [10u64, 20, 30] {
            a.record_us(us);
        }
        for us in [1_000u64, 50_000] {
            b.record_us(us);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max_us(), 50_000);
        assert_eq!(a.mean_us(), (10.0 + 20.0 + 30.0 + 1_000.0 + 50_000.0) / 5.0);
        // b is untouched.
        assert_eq!(b.count(), 2);
        // Merged quantiles bracket the combined samples.
        assert!(a.quantile_us(1.0) >= 50_000);
    }

    #[test]
    fn merge_with_self_is_noop() {
        let a = LatencyHistogram::new();
        a.record_us(42);
        a.merge(&a);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn quantile_never_exceeds_max() {
        // Regression: a single 5 µs sample lands in the [4, 8) bucket and
        // used to report p99 = 8 µs with max_us = 5 µs.
        let h = LatencyHistogram::new();
        h.record_us(5);
        assert_eq!(h.max_us(), 5);
        assert_eq!(h.quantile_us(0.99), 5);
        assert_eq!(h.quantile_us(1.0), 5);
        assert_eq!(h.quantile_us(0.5), 5);
    }

    #[test]
    fn sum_us_accumulates() {
        let h = LatencyHistogram::new();
        h.record_us(100);
        h.record_us(250);
        assert_eq!(h.sum_us(), 350);
    }

    #[test]
    fn repeated_merge_into_fresh_accumulator_never_double_counts() {
        // The stats path folds per-worker histograms into a fresh
        // accumulator on every call; repeating the aggregation must give
        // identical results every round.
        let workers: Vec<LatencyHistogram> = (0..4)
            .map(|w| {
                let h = LatencyHistogram::new();
                for i in 0..25u64 {
                    h.record_us(w * 1_000 + i * 10);
                }
                h
            })
            .collect();
        let mut last: Option<(u64, u64, u64, u64)> = None;
        for _ in 0..3 {
            let total = LatencyHistogram::new();
            for w in &workers {
                total.merge(w);
            }
            let snap = (
                total.count(),
                total.sum_us(),
                total.max_us(),
                total.quantile_us(0.99),
            );
            assert_eq!(snap.0, 100);
            if let Some(prev) = last {
                assert_eq!(prev, snap, "aggregation must be idempotent per round");
            }
            last = Some(snap);
        }
        // Source histograms are untouched by the repeated merges.
        for w in &workers {
            assert_eq!(w.count(), 25);
        }
    }

    proptest::proptest! {
        /// Invariants: for any two sample sets and any `q1 <= q2`, the
        /// quantile is monotone in `q` and never exceeds the observed
        /// maximum, and merging two histograms equals recording the
        /// union of their samples into one.
        #[test]
        fn quantiles_monotone_bounded_and_merge_is_union(
            left in proptest::collection::vec(0u64..2_000_000_000, 1..200),
            right in proptest::collection::vec(0u64..2_000_000_000, 0..200),
            qa in 0.0f64..=1.0,
            qb in 0.0f64..=1.0,
        ) {
            let record = |samples: &[u64]| {
                let h = LatencyHistogram::new();
                samples.iter().for_each(|&s| h.record_us(s));
                h
            };
            let (q1, q2) = if qa <= qb { (qa, qb) } else { (qb, qa) };
            let merged = record(&left);
            merged.merge(&record(&right));
            let union = record(&[left.as_slice(), right.as_slice()].concat());

            let max = merged.max_us();
            proptest::prop_assert_eq!(max, *left.iter().chain(&right).max().unwrap());
            proptest::prop_assert!(merged.quantile_us(q1) <= merged.quantile_us(q2));
            proptest::prop_assert!(merged.quantile_us(q2) <= max);
            proptest::prop_assert_eq!(merged.count(), union.count());
            proptest::prop_assert_eq!(merged.sum_us(), union.sum_us());
            proptest::prop_assert_eq!(max, union.max_us());
            for q in [0.0, q1, 0.5, q2, 0.99, 1.0] {
                proptest::prop_assert_eq!(merged.quantile_us(q), union.quantile_us(q));
            }
        }
    }

    #[test]
    fn quantile_monotone_in_q() {
        let h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record_us(i);
        }
        let mut last = 0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile_us(q);
            assert!(v >= last, "quantile not monotone at q={q}");
            last = v;
        }
    }
}
