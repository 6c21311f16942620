//! A constant-velocity Kalman filter for trajectory smoothing.
//!
//! Trajectory *reconstruction* in datAcron is more than resampling: raw
//! fixes carry GPS noise that downstream analytics (speed thresholds, turn
//! detection) are sensitive to. This filter estimates position+velocity in
//! a local tangent plane per object and emits smoothed fixes.
//!
//! State: `[x, y, vx, vy]` metres / metres-per-second in an
//! equirectangular plane anchored at the first fix (adequate for regional
//! tracks). Process noise is parameterised by a white acceleration
//! density; measurement noise by the GPS sigma.

use datacron_geo::{GeoPoint, TimeMs, EARTH_RADIUS_M};
use datacron_model::TrajPoint;

/// A 4-state constant-velocity Kalman filter over one track.
#[derive(Debug, Clone)]
pub struct KalmanSmoother {
    /// Measurement noise sigma, metres.
    pub meas_sigma_m: f64,
    /// Process (acceleration) noise density, m/s².
    pub accel_sigma: f64,
    anchor: Option<GeoPoint>,
    cos_lat: f64,
    /// State `[x, y, vx, vy]`.
    x: [f64; 4],
    /// Covariance (row-major 4×4).
    p: [[f64; 4]; 4],
    last_t: TimeMs,
    initialized: bool,
}

impl KalmanSmoother {
    /// Creates a smoother with the given noise parameters.
    pub fn new(meas_sigma_m: f64, accel_sigma: f64) -> Self {
        Self {
            meas_sigma_m,
            accel_sigma,
            anchor: None,
            cos_lat: 1.0,
            x: [0.0; 4],
            p: [[0.0; 4]; 4],
            last_t: TimeMs::MIN,
            initialized: false,
        }
    }

    /// Defaults tuned for AIS (12 m GPS noise, gentle manoeuvres).
    pub fn ais() -> Self {
        Self::new(12.0, 0.05)
    }

    fn to_plane(&self, p: &GeoPoint) -> (f64, f64) {
        let a = self.anchor.expect("anchored");
        (
            (p.lon - a.lon).to_radians() * self.cos_lat * EARTH_RADIUS_M,
            (p.lat - a.lat).to_radians() * EARTH_RADIUS_M,
        )
    }

    fn to_geo(&self, x: f64, y: f64) -> GeoPoint {
        let a = self.anchor.expect("anchored");
        GeoPoint::new(
            a.lon + (x / (self.cos_lat * EARTH_RADIUS_M)).to_degrees(),
            a.lat + (y / EARTH_RADIUS_M).to_degrees(),
        )
    }

    /// Processes one fix, returning the smoothed fix. Out-of-order fixes
    /// return `None`.
    pub fn update(&mut self, fix: &TrajPoint) -> Option<TrajPoint> {
        let pos = fix.position();
        if !self.initialized {
            self.anchor = Some(pos);
            self.cos_lat = pos.lat.to_radians().cos().max(0.01);
            self.x = [0.0, 0.0, 0.0, 0.0];
            let r2 = self.meas_sigma_m * self.meas_sigma_m;
            self.p = [[0.0; 4]; 4];
            self.p[0][0] = r2;
            self.p[1][1] = r2;
            self.p[2][2] = 100.0; // generous initial velocity uncertainty
            self.p[3][3] = 100.0;
            self.last_t = fix.time;
            self.initialized = true;
            return Some(*fix);
        }
        if fix.time <= self.last_t {
            return None;
        }
        let dt = (fix.time - self.last_t) as f64 / 1000.0;
        self.last_t = fix.time;

        // Predict: x' = F x, P' = F P Fᵀ + Q.
        let (x0, y0, vx, vy) = (self.x[0], self.x[1], self.x[2], self.x[3]);
        self.x = [x0 + vx * dt, y0 + vy * dt, vx, vy];
        // F P Fᵀ expanded for the CV model.
        let mut p = self.p;
        for i in 0..2 {
            let v = i + 2;
            // Row/col updates: position rows pick up velocity covariances.
            let pii = p[i][i] + dt * (p[v][i] + p[i][v]) + dt * dt * p[v][v];
            let piv = p[i][v] + dt * p[v][v];
            p[i][i] = pii;
            p[i][v] = piv;
            p[v][i] = piv;
        }
        // Cross terms x-y are tiny for independent axes; keep them zeroed.
        let q = self.accel_sigma * self.accel_sigma;
        let dt2 = dt * dt;
        let dt3 = dt2 * dt;
        let dt4 = dt3 * dt;
        for i in 0..2 {
            let v = i + 2;
            p[i][i] += q * dt4 / 4.0;
            p[i][v] += q * dt3 / 2.0;
            p[v][i] += q * dt3 / 2.0;
            p[v][v] += q * dt2;
        }

        // Update with the measured position (H = [I2 0]).
        let (zx, zy) = self.to_plane(&pos);
        let r = self.meas_sigma_m * self.meas_sigma_m;
        for (axis, z) in [(0usize, zx), (1usize, zy)] {
            let v = axis + 2;
            let s = p[axis][axis] + r;
            let k_pos = p[axis][axis] / s;
            let k_vel = p[v][axis] / s;
            let innov = z - self.x[axis];
            self.x[axis] += k_pos * innov;
            self.x[v] += k_vel * innov;
            // Joseph-free covariance update for the 2×2 block.
            let p_aa = (1.0 - k_pos) * p[axis][axis];
            let p_av = (1.0 - k_pos) * p[axis][v];
            let p_vv = p[v][v] - k_vel * p[axis][v];
            p[axis][axis] = p_aa;
            p[axis][v] = p_av;
            p[v][axis] = p_av;
            p[v][v] = p_vv;
        }
        self.p = p;

        let smoothed = self.to_geo(self.x[0], self.x[1]);
        let speed = (self.x[2] * self.x[2] + self.x[3] * self.x[3]).sqrt();
        let heading = if speed > 0.1 {
            datacron_geo::units::normalize_deg(self.x[2].atan2(self.x[3]).to_degrees())
        } else {
            fix.heading_deg
        };
        Some(TrajPoint {
            time: fix.time,
            lon: smoothed.lon,
            lat: smoothed.lat,
            alt_m: fix.alt_m,
            speed_mps: speed,
            heading_deg: heading,
        })
    }

    /// The current velocity estimate `(vx_east, vy_north)` m/s.
    pub fn velocity(&self) -> (f64, f64) {
        (self.x[2], self.x[3])
    }

    /// Smooths a whole track.
    pub fn smooth_track(
        points: &[TrajPoint],
        meas_sigma_m: f64,
        accel_sigma: f64,
    ) -> Vec<TrajPoint> {
        let mut kf = KalmanSmoother::new(meas_sigma_m, accel_sigma);
        points.iter().filter_map(|p| kf.update(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A straight track with Gaussian position noise.
    fn noisy_track(n: usize, sigma_m: f64, seed: u64) -> (Vec<TrajPoint>, Vec<GeoPoint>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = GeoPoint::new(24.0, 37.0);
        let speed = 6.0;
        let mut noisy = Vec::new();
        let mut truth = Vec::new();
        for i in 0..n {
            let true_pos = start.destination(90.0, speed * 10.0 * i as f64);
            truth.push(true_pos);
            let bearing: f64 = rng.gen_range(0.0..360.0);
            let d: f64 = rng.gen_range(0.0..2.0 * sigma_m);
            let obs = true_pos.destination(bearing, d);
            noisy.push(TrajPoint::new2(TimeMs(i as i64 * 10_000), obs, speed, 90.0));
        }
        (noisy, truth)
    }

    #[test]
    fn smoothing_reduces_position_error() {
        let (noisy, truth) = noisy_track(120, 25.0, 42);
        // Low acceleration noise: the test track is straight, so the filter
        // may trust the CV model heavily.
        let smoothed = KalmanSmoother::smooth_track(&noisy, 25.0, 0.01);
        assert_eq!(smoothed.len(), noisy.len());
        // Compare mean error over the second half (after convergence).
        let half = noisy.len() / 2;
        let err = |pts: &[TrajPoint]| -> f64 {
            pts[half..]
                .iter()
                .zip(&truth[half..])
                .map(|(p, t)| p.position().haversine_m(t))
                .sum::<f64>()
                / (pts.len() - half) as f64
        };
        let raw_err = err(&noisy);
        let kf_err = err(&smoothed);
        assert!(
            kf_err < raw_err * 0.7,
            "kalman {kf_err:.1} m vs raw {raw_err:.1} m"
        );
    }

    #[test]
    fn velocity_estimate_converges() {
        let (noisy, _) = noisy_track(120, 15.0, 7);
        let mut kf = KalmanSmoother::ais();
        for p in &noisy {
            kf.update(p);
        }
        let (vx, vy) = kf.velocity();
        // True velocity: 6 m/s due east.
        assert!((vx - 6.0).abs() < 0.5, "vx = {vx}");
        assert!(vy.abs() < 0.5, "vy = {vy}");
    }

    #[test]
    fn smoothed_speed_tracks_truth() {
        let (noisy, _) = noisy_track(120, 15.0, 9);
        let smoothed = KalmanSmoother::smooth_track(&noisy, 15.0, 0.05);
        // The instantaneous estimate has a steady-state sd of ~0.25 m/s
        // (measured over 40 seeds), so a single-point ±0.5 assertion fails
        // for ~5% of seeds. Judge the converged mean instead (sd ~0.016).
        let half = smoothed.len() / 2;
        let mean_speed = smoothed[half..].iter().map(|p| p.speed_mps).sum::<f64>()
            / (smoothed.len() - half) as f64;
        assert!((mean_speed - 6.0).abs() < 0.2, "v = {mean_speed}");
        let last = smoothed.last().unwrap();
        assert!(
            datacron_geo::units::heading_delta_deg(last.heading_deg, 90.0).abs() < 10.0,
            "heading = {}",
            last.heading_deg
        );
    }

    #[test]
    fn out_of_order_fix_rejected() {
        let mut kf = KalmanSmoother::ais();
        let p0 = TrajPoint::new2(TimeMs(10_000), GeoPoint::new(24.0, 37.0), 5.0, 90.0);
        let p1 = TrajPoint::new2(TimeMs(5_000), GeoPoint::new(24.1, 37.0), 5.0, 90.0);
        assert!(kf.update(&p0).is_some());
        assert!(kf.update(&p1).is_none());
    }

    #[test]
    fn first_fix_passes_through() {
        let mut kf = KalmanSmoother::ais();
        let p0 = TrajPoint::new2(TimeMs(0), GeoPoint::new(24.0, 37.0), 5.0, 90.0);
        let out = kf.update(&p0).unwrap();
        assert_eq!(out.position(), p0.position());
    }

    #[test]
    fn stationary_target_stays_put() {
        // A fixed offset sequence, no generator: the golden-angle bearing
        // spreads the fixes evenly around the centre, so the assertions
        // test the filter and not a random stream.
        const RADII_M: [f64; 5] = [3.0, 17.0, 9.0, 20.0, 12.0];
        let center = GeoPoint::new(24.0, 37.0);
        let mut kf = KalmanSmoother::ais();
        let mut last = None;
        for i in 0..100 {
            let bearing = (i as f64 * 137.5) % 360.0;
            let obs = center.destination(bearing, RADII_M[i as usize % RADII_M.len()]);
            last = kf.update(&TrajPoint::new2(TimeMs(i * 10_000), obs, 0.0, f64::NAN));
        }
        let p = last.unwrap();
        assert!(p.position().haversine_m(&center) < 10.0);
        assert!(p.speed_mps < 0.5, "phantom speed {}", p.speed_mps);
    }
}
