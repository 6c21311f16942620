//! The horizon-sweep evaluation harness (experiments E6/E7).

use crate::Predictor;
use datacron_model::Trajectory;

/// Error distribution at one horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Evaluation cases attempted.
    pub cases: usize,
    /// Cases where the model produced a prediction.
    pub predicted: usize,
    /// Median error over predicted cases, metres.
    pub median_m: f64,
    /// 90th-percentile error, metres.
    pub p90_m: f64,
    /// Mean error, metres.
    pub mean_m: f64,
}

/// One row of the horizon sweep.
#[derive(Debug, Clone)]
pub struct HorizonReport {
    /// Predictor name.
    pub model: String,
    /// Horizon in minutes.
    pub horizon_min: i64,
    /// Error statistics.
    pub stats: ErrorStats,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

/// Evaluates a predictor on true trajectories at several horizons.
///
/// For each trajectory and each evaluation anchor (every `anchor_step_ms`
/// along the track, provided enough history and future exist), the model
/// sees the prefix up to the anchor and predicts `horizon` ahead; the error
/// is the great-circle distance to the trajectory's true interpolated
/// position.
pub fn evaluate_horizons(
    model: &dyn Predictor,
    trajectories: &[Trajectory],
    horizons_min: &[i64],
    anchor_step_ms: i64,
    min_history_ms: i64,
) -> Vec<HorizonReport> {
    let mut out = Vec::with_capacity(horizons_min.len());
    for &h_min in horizons_min {
        let horizon_ms = h_min * 60_000;
        let mut errors: Vec<f64> = Vec::new();
        let mut cases = 0usize;
        for traj in trajectories {
            let pts = traj.points();
            if pts.len() < 3 {
                continue;
            }
            let t0 = pts[0].time;
            let t_end = pts[pts.len() - 1].time;
            let mut anchor = t0 + min_history_ms;
            while anchor + horizon_ms <= t_end {
                let prefix_end = pts.partition_point(|p| p.time <= anchor);
                if prefix_end >= 2 {
                    cases += 1;
                    let target = anchor + horizon_ms;
                    if let (Some(pred), Some(truth)) = (
                        model.predict(&pts[..prefix_end], target),
                        traj.position_at(target),
                    ) {
                        errors.push(pred.haversine_m(&truth));
                    }
                }
                anchor = anchor + anchor_step_ms;
            }
        }
        errors.sort_by(|a, b| a.total_cmp(b));
        let stats = ErrorStats {
            cases,
            predicted: errors.len(),
            median_m: percentile(&errors, 0.5),
            p90_m: percentile(&errors, 0.9),
            mean_m: if errors.is_empty() {
                f64::NAN
            } else {
                errors.iter().sum::<f64>() / errors.len() as f64
            },
        };
        out.push(HorizonReport {
            model: model.name().to_string(),
            horizon_min: h_min,
            stats,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::DeadReckoningPredictor;
    use datacron_geo::{GeoPoint, TimeMs};
    use datacron_model::{ObjectId, TrajPoint};

    fn straight(n: i64) -> Trajectory {
        let start = GeoPoint::new(24.0, 37.0);
        let pts: Vec<TrajPoint> = (0..n)
            .map(|i| {
                TrajPoint::new2(
                    TimeMs(i * 60_000),
                    start.destination(90.0, 6.0 * 60.0 * i as f64),
                    6.0,
                    90.0,
                )
            })
            .collect();
        Trajectory::from_points(ObjectId(1), pts)
    }

    #[test]
    fn dead_reckoning_near_zero_error_on_straight_line() {
        let trajs = vec![straight(120)];
        let reports = evaluate_horizons(
            &DeadReckoningPredictor,
            &trajs,
            &[5, 20],
            10 * 60_000,
            10 * 60_000,
        );
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.stats.cases > 0);
            assert_eq!(r.stats.cases, r.stats.predicted);
            assert!(r.stats.median_m < 50.0, "median {}", r.stats.median_m);
            assert!(r.stats.p90_m >= r.stats.median_m);
        }
    }

    #[test]
    fn error_grows_with_horizon_on_curved_track() {
        // A slowly curving track defeats dead reckoning more at longer
        // horizons.
        let mut pos = GeoPoint::new(24.0, 37.0);
        let mut heading = 90.0;
        let pts: Vec<TrajPoint> = (0..180)
            .map(|i| {
                let p = TrajPoint::new2(TimeMs(i * 60_000), pos, 6.0, heading);
                heading = datacron_geo::units::normalize_deg(heading + 0.5);
                pos = pos.destination(heading, 360.0);
                p
            })
            .collect();
        let trajs = vec![Trajectory::from_points(ObjectId(1), pts)];
        let reports = evaluate_horizons(
            &DeadReckoningPredictor,
            &trajs,
            &[5, 30, 60],
            15 * 60_000,
            10 * 60_000,
        );
        assert!(reports[0].stats.median_m < reports[1].stats.median_m);
        assert!(reports[1].stats.median_m < reports[2].stats.median_m);
    }

    #[test]
    fn short_trajectories_produce_no_cases() {
        let trajs = vec![straight(2)];
        let reports = evaluate_horizons(&DeadReckoningPredictor, &trajs, &[60], 60_000, 60_000);
        assert_eq!(reports[0].stats.cases, 0);
        assert!(reports[0].stats.median_m.is_nan());
    }

    #[test]
    fn percentile_edges() {
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[1.0], 0.5), 1.0);
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
    }
}
