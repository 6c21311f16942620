//! The measurement model: how true positions become noisy observed reports.

use datacron_model::PositionReport;
use rand::rngs::StdRng;
use rand::Rng;

/// Parameters of the observation noise applied to true kinematic states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Standard deviation of the position error, metres.
    pub pos_sigma_m: f64,
    /// Standard deviation of speed-over-ground error, m/s.
    pub speed_sigma_mps: f64,
    /// Standard deviation of course-over-ground error, degrees.
    pub heading_sigma_deg: f64,
    /// Probability a report is silently lost.
    pub dropout_prob: f64,
    /// Probability a report is replaced by a gross outlier (GPS glitch).
    pub outlier_prob: f64,
    /// Outlier displacement, metres.
    pub outlier_offset_m: f64,
    /// Maximum extra delivery delay (uniform in `[0, max]`), milliseconds.
    /// Produces out-of-order arrival when > report interval.
    pub max_delay_ms: i64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self {
            pos_sigma_m: 12.0,
            speed_sigma_mps: 0.2,
            heading_sigma_deg: 2.0,
            dropout_prob: 0.02,
            outlier_prob: 0.002,
            outlier_offset_m: 8_000.0,
            max_delay_ms: 4_000,
        }
    }
}

impl NoiseModel {
    /// A noiseless model (for tests and quality baselines).
    pub fn none() -> Self {
        Self {
            pos_sigma_m: 0.0,
            speed_sigma_mps: 0.0,
            heading_sigma_deg: 0.0,
            dropout_prob: 0.0,
            outlier_prob: 0.0,
            outlier_offset_m: 0.0,
            max_delay_ms: 0,
        }
    }

    /// Applies observation noise to a true report.
    ///
    /// Returns `None` when the report is dropped, otherwise the noisy report
    /// plus its *delivery time* (event time + transport delay), which callers
    /// use to order the observed stream.
    pub fn observe(
        &self,
        truth: &PositionReport,
        rng: &mut StdRng,
    ) -> Option<(PositionReport, i64)> {
        if self.dropout_prob > 0.0 && rng.gen::<f64>() < self.dropout_prob {
            return None;
        }
        let mut obs = *truth;
        let pos = truth.position();
        let noisy = if self.outlier_prob > 0.0 && rng.gen::<f64>() < self.outlier_prob {
            pos.destination(rng.gen::<f64>() * 360.0, self.outlier_offset_m)
        } else if self.pos_sigma_m > 0.0 {
            // Isotropic Gaussian via two independent axes.
            let d = gaussian(rng) * self.pos_sigma_m;
            let bearing = rng.gen::<f64>() * 360.0;
            pos.destination(bearing, d.abs())
        } else {
            pos
        };
        obs.lon = noisy.lon;
        obs.lat = noisy.lat;
        if obs.speed_mps.is_finite() && self.speed_sigma_mps > 0.0 {
            obs.speed_mps = (obs.speed_mps + gaussian(rng) * self.speed_sigma_mps).max(0.0);
        }
        if obs.heading_deg.is_finite() && self.heading_sigma_deg > 0.0 {
            obs.heading_deg = datacron_geo::units::normalize_deg(
                obs.heading_deg + gaussian(rng) * self.heading_sigma_deg,
            );
        }
        let delay = if self.max_delay_ms > 0 {
            rng.gen_range(0..=self.max_delay_ms)
        } else {
            0
        };
        Some((obs, truth.time.millis() + delay))
    }
}

/// A standard-normal sample (Box–Muller; one value per call keeps the code
/// simple — the generator is not the bottleneck).
pub fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{GeoPoint, TimeMs};
    use datacron_model::{NavStatus, ObjectId, SourceId};
    use rand::SeedableRng;

    fn truth() -> PositionReport {
        PositionReport::maritime(
            ObjectId(1),
            TimeMs(10_000),
            GeoPoint::new(24.0, 37.0),
            5.0,
            90.0,
            SourceId::AIS_TERRESTRIAL,
            NavStatus::UnderWay,
        )
    }

    #[test]
    fn noiseless_model_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let (obs, delivery) = NoiseModel::none().observe(&truth(), &mut rng).unwrap();
        assert_eq!(obs, truth());
        assert_eq!(delivery, 10_000);
    }

    #[test]
    fn noise_perturbs_but_stays_close() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = NoiseModel {
            outlier_prob: 0.0,
            dropout_prob: 0.0,
            ..NoiseModel::default()
        };
        let t = truth();
        for _ in 0..200 {
            let (obs, delivery) = model.observe(&t, &mut rng).unwrap();
            let err = obs.position().haversine_m(&t.position());
            assert!(err < 120.0, "err = {err}");
            assert!(obs.speed_mps >= 0.0);
            assert!((0.0..360.0).contains(&obs.heading_deg));
            assert!(delivery >= 10_000 && delivery <= 10_000 + model.max_delay_ms);
        }
    }

    #[test]
    fn dropout_rate_approximately_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = NoiseModel {
            dropout_prob: 0.3,
            ..NoiseModel::none()
        };
        let t = truth();
        let n = 5000;
        let kept = (0..n)
            .filter(|_| model.observe(&t, &mut rng).is_some())
            .count();
        let rate = 1.0 - kept as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "dropout rate {rate}");
    }

    #[test]
    fn outliers_jump_far() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = NoiseModel {
            pos_sigma_m: 0.0,
            outlier_prob: 1.0,
            outlier_offset_m: 8000.0,
            dropout_prob: 0.0,
            speed_sigma_mps: 0.0,
            heading_sigma_deg: 0.0,
            max_delay_ms: 0,
        };
        let t = truth();
        let (obs, _) = model.observe(&t, &mut rng).unwrap();
        let err = obs.position().haversine_m(&t.position());
        assert!((err - 8000.0).abs() < 1.0, "err = {err}");
    }

    #[test]
    fn deterministic_given_seed() {
        let model = NoiseModel::default();
        let t = truth();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50)
                .filter_map(|_| model.observe(&t, &mut rng))
                .map(|(o, d)| (o.lon, o.lat, d))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }
}
