//! Exact order statistics over raw samples. Latencies are kept as
//! nanosecond samples and sorted; nothing here buckets.

/// The `p`-th percentile (0 < p ≤ 100) of an ascending slice, by nearest
/// rank: the smallest sample with at least `p` % of the samples at or
/// below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// `ceil(p % of n)`, in whole hundredths of a percent so that 99.9 % of
/// 10 000 is 9 990 and not a float's 9 990.000000000002 rounded up.
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000)
}

/// The highest of the usual percentile levels that still has at least ten
/// samples beyond it, or `None` when even the 90th does not.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    const LEVELS: [f64; 5] = [99.99, 99.9, 99.0, 95.0, 90.0];
    LEVELS
        .into_iter()
        .find(|&level| samples.saturating_sub(rank(samples, level)) >= 10)
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; needs two values or more.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the spread the
/// benchmark contract bounds.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.5), 1);
        assert_eq!(percentile(&[7], 50.0), 7);
        // Four samples: p50 is the second, p75 the third, p76 the fourth.
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 75.0), 30);
        assert_eq!(percentile(&[10, 20, 30, 40], 76.0), 40);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
    }
}
