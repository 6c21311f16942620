//! Bucketed temporal rollups.

use datacron_geo::{TimeInterval, TimeMs};
use rustc_hash::FxHashMap;

/// A bucketed counter over time, with one series per category label.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bucket_ms: i64,
    /// category → (bucket start ms → count).
    series: FxHashMap<String, FxHashMap<i64, u64>>,
}

impl TimeSeries {
    /// Creates a rollup with the given bucket width.
    pub fn new(bucket_ms: i64) -> Self {
        assert!(bucket_ms > 0, "bucket must be positive");
        Self {
            bucket_ms,
            series: FxHashMap::default(),
        }
    }

    fn bucket_of(&self, t: TimeMs) -> i64 {
        t.millis() - t.millis().rem_euclid(self.bucket_ms)
    }

    /// Records one occurrence of `category` at `t`.
    pub fn record(&mut self, category: &str, t: TimeMs) {
        let b = self.bucket_of(t);
        *self
            .series
            .entry(category.to_string())
            .or_default()
            .entry(b)
            .or_insert(0) += 1;
    }

    /// The count of `category` in the bucket containing `t`.
    pub fn count_at(&self, category: &str, t: TimeMs) -> u64 {
        let b = self.bucket_of(t);
        self.series
            .get(category)
            .and_then(|s| s.get(&b))
            .copied()
            .unwrap_or(0)
    }

    /// Total count of a category.
    pub fn total(&self, category: &str) -> u64 {
        self.series.get(category).map_or(0, |s| s.values().sum())
    }

    /// Known category labels, sorted.
    pub fn categories(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.series.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// The series of `(bucket interval, count)` for a category within
    /// `range`, in time order, including empty buckets.
    pub fn series_in(&self, category: &str, range: &TimeInterval) -> Vec<(TimeInterval, u64)> {
        let mut out = Vec::new();
        let Some(s) = self.series.get(category) else {
            return out;
        };
        let mut b = self.bucket_of(range.start);
        while b < range.end.millis() {
            let interval = TimeInterval::new(TimeMs(b), TimeMs(b + self.bucket_ms));
            out.push((interval, s.get(&b).copied().unwrap_or(0)));
            b += self.bucket_ms;
        }
        out
    }

    /// The busiest `(bucket start, count)` of a category.
    pub fn peak(&self, category: &str) -> Option<(TimeMs, u64)> {
        self.series.get(category).and_then(|s| {
            s.iter()
                .max_by_key(|&(b, c)| (*c, -*b))
                .map(|(&b, &c)| (TimeMs(b), c))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_bucket() {
        let mut ts = TimeSeries::new(60_000);
        ts.record("stop", TimeMs(10_000));
        ts.record("stop", TimeMs(50_000));
        ts.record("stop", TimeMs(70_000));
        ts.record("turn", TimeMs(10_000));
        assert_eq!(ts.count_at("stop", TimeMs(0)), 2);
        assert_eq!(ts.count_at("stop", TimeMs(60_000)), 1);
        assert_eq!(ts.count_at("turn", TimeMs(30_000)), 1);
        assert_eq!(ts.count_at("gap", TimeMs(0)), 0);
        assert_eq!(ts.total("stop"), 3);
    }

    #[test]
    fn categories_sorted() {
        let mut ts = TimeSeries::new(1000);
        ts.record("z", TimeMs(0));
        ts.record("a", TimeMs(0));
        assert_eq!(ts.categories(), vec!["a", "z"]);
    }

    #[test]
    fn series_includes_empty_buckets() {
        let mut ts = TimeSeries::new(100);
        ts.record("e", TimeMs(0));
        ts.record("e", TimeMs(250));
        let s = ts.series_in("e", &TimeInterval::new(TimeMs(0), TimeMs(300)));
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].1, 1);
        assert_eq!(s[1].1, 0);
        assert_eq!(s[2].1, 1);
        assert_eq!(s[0].0.start, TimeMs(0));
        assert_eq!(s[2].0.end, TimeMs(300));
    }

    #[test]
    fn series_for_unknown_category_empty() {
        let ts = TimeSeries::new(100);
        assert!(ts
            .series_in("x", &TimeInterval::new(TimeMs(0), TimeMs(1000)))
            .is_empty());
    }

    #[test]
    fn peak_detection() {
        let mut ts = TimeSeries::new(100);
        ts.record("e", TimeMs(50));
        ts.record("e", TimeMs(150));
        ts.record("e", TimeMs(160));
        assert_eq!(ts.peak("e"), Some((TimeMs(100), 2)));
        assert_eq!(ts.peak("none"), None);
    }

    #[test]
    fn negative_times_bucket_correctly() {
        let mut ts = TimeSeries::new(100);
        ts.record("e", TimeMs(-50));
        assert_eq!(ts.count_at("e", TimeMs(-1)), 1);
        assert_eq!(ts.count_at("e", TimeMs(0)), 0);
    }
}
