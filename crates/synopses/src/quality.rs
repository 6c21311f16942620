//! Quality metrics: does compression hurt the analytics' view of movement?

use datacron_geo::position_at_time;
use datacron_model::TrajPoint;

/// Synchronized-Euclidean-Distance error statistics between an original
/// trajectory and its compressed reconstruction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SedStats {
    /// Number of original points compared.
    pub n: usize,
    /// Mean error, metres.
    pub mean_m: f64,
    /// Root-mean-square error, metres.
    pub rmse_m: f64,
    /// Maximum error, metres.
    pub max_m: f64,
}

/// Computes SED error: for every original point, the compressed trajectory
/// is linearly interpolated at the same timestamp and the great-circle
/// distance is measured.
///
/// `compressed` must be a time-ordered subset (or re-sampling) of the same
/// track. Original points outside the compressed time span are compared
/// against the nearest compressed endpoint.
pub fn sed_error(original: &[TrajPoint], compressed: &[TrajPoint]) -> SedStats {
    if original.is_empty() || compressed.is_empty() {
        return SedStats::default();
    }
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let mut max = 0.0f64;
    let mut seg = 0usize;
    for p in original {
        // Advance the segment cursor: compressed[seg] <= p.time < compressed[seg+1].
        while seg + 1 < compressed.len() && compressed[seg + 1].time <= p.time {
            seg += 1;
        }
        let approx = if seg + 1 < compressed.len() {
            let a = &compressed[seg];
            let b = &compressed[seg + 1];
            if p.time <= a.time {
                a.position()
            } else {
                position_at_time((&a.position(), a.time), (&b.position(), b.time), p.time)
            }
        } else {
            compressed[seg].position()
        };
        let err = p.position().haversine_m(&approx);
        sum += err;
        sum_sq += err * err;
        max = max.max(err);
    }
    let n = original.len();
    SedStats {
        n,
        mean_m: sum / n as f64,
        rmse_m: (sum_sq / n as f64).sqrt(),
        max_m: max,
    }
}

/// Compression ratio `1 - kept/original` in `[0, 1]`; 0 when nothing was
/// compressed (or inputs are empty).
pub fn compression_ratio(original: usize, kept: usize) -> f64 {
    if original == 0 {
        0.0
    } else {
        (1.0 - kept as f64 / original as f64).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{GeoPoint, TimeMs};

    fn tp(t_s: i64, lon: f64, lat: f64) -> TrajPoint {
        TrajPoint::new2(TimeMs(t_s * 1000), GeoPoint::new(lon, lat), 5.0, 90.0)
    }

    #[test]
    fn identical_trajectories_have_zero_error() {
        let pts: Vec<_> = (0..10)
            .map(|i| tp(i, 24.0 + 0.01 * i as f64, 37.0))
            .collect();
        let s = sed_error(&pts, &pts);
        assert_eq!(s.n, 10);
        assert!(s.mean_m < 1e-6);
        assert!(s.max_m < 1e-6);
    }

    #[test]
    fn straight_line_endpoints_reconstruct_exactly() {
        // Uniform motion: keeping only the endpoints loses nothing.
        let pts: Vec<_> = (0..11)
            .map(|i| tp(i * 10, 24.0, 37.0 + 0.001 * i as f64))
            .collect();
        let compressed = vec![pts[0], pts[10]];
        let s = sed_error(&pts, &compressed);
        assert!(s.max_m < 2.0, "max = {}", s.max_m);
    }

    #[test]
    fn detour_shows_up_as_error() {
        let mut pts: Vec<_> = (0..11)
            .map(|i| tp(i * 10, 24.0 + 0.001 * i as f64, 37.0))
            .collect();
        // A ~1.1 km northward detour in the middle.
        pts[5] = tp(50, 24.005, 37.01);
        let compressed = vec![pts[0], pts[10]];
        let s = sed_error(&pts, &compressed);
        assert!(s.max_m > 1_000.0, "max = {}", s.max_m);
        assert!(s.mean_m < s.max_m);
        assert!(s.rmse_m >= s.mean_m);
    }

    #[test]
    fn points_outside_span_use_endpoints() {
        let pts = vec![tp(0, 24.0, 37.0), tp(100, 24.1, 37.0)];
        let compressed = vec![tp(50, 24.05, 37.0)];
        let s = sed_error(&pts, &compressed);
        // Both originals compare against the single compressed point.
        assert_eq!(s.n, 2);
        assert!(s.max_m > 4000.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(sed_error(&[], &[]), SedStats::default());
        let pts = vec![tp(0, 24.0, 37.0)];
        assert_eq!(sed_error(&pts, &[]), SedStats::default());
        assert_eq!(sed_error(&[], &pts), SedStats::default());
    }

    #[test]
    fn ratio_math() {
        assert_eq!(compression_ratio(100, 10), 0.9);
        assert_eq!(compression_ratio(0, 0), 0.0);
        assert_eq!(compression_ratio(10, 10), 0.0);
        assert_eq!(compression_ratio(10, 20), 0.0, "clamped at zero");
    }
}
