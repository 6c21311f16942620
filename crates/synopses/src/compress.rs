//! Trajectory compression: online dead-reckoning and offline Douglas–Peucker.

use datacron_geo::{GeoPoint, TimeMs};
use datacron_model::{ObjectId, PositionReport, TrajPoint};
use rustc_hash::FxHashMap;

/// Online threshold compression by dead reckoning.
///
/// For each object the compressor keeps the last *kept* report. A new report
/// is kept only when it deviates from the dead-reckoned prediction (last
/// kept position advanced along its heading at its speed) by more than
/// `threshold_m` — or when too much time has passed (`max_silence_ms`), so
/// downstream gap detection still works on the compressed stream.
#[derive(Debug)]
pub struct DeadReckoningCompressor {
    /// Deviation threshold in metres.
    pub threshold_m: f64,
    /// Emit a keep-alive report after this much silence even without
    /// deviation, ms.
    pub max_silence_ms: i64,
    kept_state: FxHashMap<ObjectId, PositionReport>,
    seen: u64,
    kept: u64,
}

impl DeadReckoningCompressor {
    /// Creates a compressor with the given deviation threshold and a
    /// 5-minute keep-alive.
    pub fn new(threshold_m: f64) -> Self {
        Self {
            threshold_m,
            max_silence_ms: 5 * 60_000,
            kept_state: FxHashMap::default(),
            seen: 0,
            kept: 0,
        }
    }

    /// Reports seen.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Reports kept.
    pub fn kept(&self) -> u64 {
        self.kept
    }

    /// Compression ratio achieved so far (`1 - kept/seen`).
    pub fn ratio(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            1.0 - self.kept as f64 / self.seen as f64
        }
    }

    /// Dead-reckoned position of `from` at time `t`.
    fn predict(from: &PositionReport, t: TimeMs) -> GeoPoint {
        let dt_s = (t - from.time) as f64 / 1000.0;
        if !from.speed_mps.is_finite() || !from.heading_deg.is_finite() || dt_s <= 0.0 {
            return from.position();
        }
        from.position()
            .destination(from.heading_deg, from.speed_mps * dt_s)
    }

    /// Decides whether to keep `r`. Updates state.
    pub fn check(&mut self, r: &PositionReport) -> bool {
        self.seen += 1;
        let keep = match self.kept_state.get(&r.object) {
            None => true,
            Some(last) => {
                if r.time <= last.time {
                    false
                } else if r.time - last.time >= self.max_silence_ms {
                    true
                } else {
                    let predicted = Self::predict(last, r.time);
                    predicted.haversine_m(&r.position()) > self.threshold_m
                }
            }
        };
        if keep {
            self.kept_state.insert(r.object, *r);
            self.kept += 1;
        }
        keep
    }

    /// Compresses a batch, returning the kept reports.
    pub fn compress_batch(&mut self, reports: &[PositionReport]) -> Vec<PositionReport> {
        reports.iter().filter(|r| self.check(r)).copied().collect()
    }
}

/// Offline Douglas–Peucker simplification of a trajectory polyline.
///
/// Returns the indices of the retained points (always includes the first and
/// last). `epsilon_m` is the maximum allowed perpendicular deviation.
pub fn douglas_peucker(points: &[TrajPoint], epsilon_m: f64) -> Vec<usize> {
    let n = points.len();
    if n <= 2 {
        return (0..n).collect();
    }
    let mut keep = vec![false; n];
    keep[0] = true;
    keep[n - 1] = true;
    // Explicit stack instead of recursion: trajectories can be long.
    let mut stack = vec![(0usize, n - 1)];
    while let Some((lo, hi)) = stack.pop() {
        if hi <= lo + 1 {
            continue;
        }
        let a = points[lo].position();
        let b = points[hi].position();
        let (mut max_d, mut max_i) = (0.0f64, lo + 1);
        for (i, p) in points.iter().enumerate().take(hi).skip(lo + 1) {
            let d = p.position().segment_distance_m(&a, &b);
            if d > max_d {
                max_d = d;
                max_i = i;
            }
        }
        if max_d > epsilon_m {
            keep[max_i] = true;
            stack.push((lo, max_i));
            stack.push((max_i, hi));
        }
    }
    keep.iter()
        .enumerate()
        .filter_map(|(i, k)| k.then_some(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_model::{NavStatus, SourceId};

    fn rep(t_s: i64, pos: GeoPoint, speed: f64, heading: f64) -> PositionReport {
        PositionReport::maritime(
            ObjectId(1),
            TimeMs(t_s * 1000),
            pos,
            speed,
            heading,
            SourceId::AIS_TERRESTRIAL,
            NavStatus::UnderWay,
        )
    }

    /// A vessel sailing due east at exactly its reported speed: perfectly
    /// predictable, so only the first report should be kept.
    #[test]
    fn perfectly_predictable_track_collapses_to_first() {
        let mut c = DeadReckoningCompressor::new(50.0);
        let start = GeoPoint::new(24.0, 37.0);
        let speed = 6.0;
        let mut kept = 0;
        for i in 0..20 {
            let pos = start.destination(90.0, speed * 10.0 * i as f64);
            if c.check(&rep(i * 10, pos, speed, 90.0)) {
                kept += 1;
            }
        }
        assert_eq!(kept, 1);
        assert!(c.ratio() > 0.94);
    }

    #[test]
    fn course_change_is_kept() {
        let mut c = DeadReckoningCompressor::new(50.0);
        let start = GeoPoint::new(24.0, 37.0);
        let speed = 6.0;
        assert!(c.check(&rep(0, start, speed, 90.0)));
        // Continue straight: dropped.
        let p1 = start.destination(90.0, 60.0);
        assert!(!c.check(&rep(10, p1, speed, 90.0)));
        // Veer north: deviation grows past 50 m → kept.
        let p2 = start.destination(45.0, 160.0);
        assert!(c.check(&rep(27, p2, speed, 45.0)));
    }

    #[test]
    fn keep_alive_after_silence() {
        let mut c = DeadReckoningCompressor::new(1e9); // never deviates
        let start = GeoPoint::new(24.0, 37.0);
        assert!(c.check(&rep(0, start, 5.0, 90.0)));
        assert!(!c.check(&rep(60, start, 5.0, 90.0)));
        // Past max_silence (300 s): kept regardless of deviation.
        assert!(c.check(&rep(301, start, 5.0, 90.0)));
    }

    #[test]
    fn stale_duplicate_not_kept() {
        let mut c = DeadReckoningCompressor::new(50.0);
        let start = GeoPoint::new(24.0, 37.0);
        assert!(c.check(&rep(10, start, 5.0, 90.0)));
        assert!(!c.check(&rep(10, start, 5.0, 90.0)));
        assert!(!c.check(&rep(5, start, 5.0, 90.0)));
    }

    #[test]
    fn missing_kinematics_fall_back_to_position_hold() {
        let mut c = DeadReckoningCompressor::new(50.0);
        let start = GeoPoint::new(24.0, 37.0);
        let mut r0 = rep(0, start, f64::NAN, f64::NAN);
        r0.speed_mps = f64::NAN;
        assert!(c.check(&r0));
        // Object actually moved 200 m: prediction is "stay put" → kept.
        let r1 = rep(10, start.destination(90.0, 200.0), f64::NAN, f64::NAN);
        assert!(c.check(&r1));
    }

    #[test]
    fn per_object_independence() {
        let mut c = DeadReckoningCompressor::new(50.0);
        let mut a = rep(0, GeoPoint::new(24.0, 37.0), 5.0, 90.0);
        let mut b = rep(0, GeoPoint::new(25.0, 38.0), 5.0, 90.0);
        b.object = ObjectId(2);
        assert!(c.check(&a));
        assert!(c.check(&b));
        // Move object 1 exactly where dead reckoning predicts: dropped.
        let moved = GeoPoint::new(24.0, 37.0).destination(90.0, 50.0);
        a.time = TimeMs(10_000);
        a.lon = moved.lon;
        a.lat = moved.lat;
        assert!(!c.check(&a)); // predictable
        assert_eq!(c.seen(), 3);
        assert_eq!(c.kept(), 2);
    }

    // --- Douglas–Peucker ---

    fn tp(t_s: i64, lon: f64, lat: f64) -> TrajPoint {
        TrajPoint::new2(TimeMs(t_s * 1000), GeoPoint::new(lon, lat), 5.0, 90.0)
    }

    #[test]
    fn dp_straight_line_keeps_endpoints() {
        let pts: Vec<_> = (0..10)
            .map(|i| tp(i, 24.0 + 0.01 * i as f64, 37.0))
            .collect();
        let kept = douglas_peucker(&pts, 10.0);
        assert_eq!(kept, vec![0, 9]);
    }

    #[test]
    fn dp_keeps_corner() {
        let mut pts: Vec<_> = (0..5)
            .map(|i| tp(i, 24.0 + 0.01 * i as f64, 37.0))
            .collect();
        pts.extend((1..5).map(|i| tp(4 + i, 24.04, 37.0 + 0.01 * i as f64)));
        let kept = douglas_peucker(&pts, 10.0);
        assert!(kept.contains(&4), "corner dropped: {kept:?}");
        assert_eq!(*kept.first().unwrap(), 0);
        assert_eq!(*kept.last().unwrap(), pts.len() - 1);
    }

    #[test]
    fn dp_epsilon_controls_detail() {
        // A gentle arc.
        let pts: Vec<_> = (0..50)
            .map(|i| {
                let x = i as f64 / 49.0;
                tp(
                    i,
                    24.0 + 0.1 * x,
                    37.0 + 0.02 * (x * std::f64::consts::PI).sin(),
                )
            })
            .collect();
        let coarse = douglas_peucker(&pts, 2000.0);
        let fine = douglas_peucker(&pts, 20.0);
        assert!(coarse.len() < fine.len());
        assert!(fine.len() <= pts.len());
    }

    #[test]
    fn dp_small_inputs() {
        assert_eq!(douglas_peucker(&[], 10.0), Vec::<usize>::new());
        assert_eq!(douglas_peucker(&[tp(0, 24.0, 37.0)], 10.0), vec![0]);
        assert_eq!(
            douglas_peucker(&[tp(0, 24.0, 37.0), tp(1, 24.1, 37.0)], 10.0),
            vec![0, 1]
        );
    }

    #[test]
    fn dp_error_bound_holds() {
        // Property: every dropped point is within epsilon of the kept
        // polyline (checked against its bracketing kept segment).
        let pts: Vec<_> = (0..100)
            .map(|i| {
                let x = i as f64 / 99.0;
                tp(
                    i,
                    24.0 + 0.2 * x,
                    37.0 + 0.05 * (3.0 * x * std::f64::consts::PI).sin(),
                )
            })
            .collect();
        let eps = 500.0;
        let kept = douglas_peucker(&pts, eps);
        for (i, p) in pts.iter().enumerate() {
            if kept.contains(&i) {
                continue;
            }
            let seg_end_pos = kept.iter().position(|&k| k > i).unwrap();
            let a = pts[kept[seg_end_pos - 1]].position();
            let b = pts[kept[seg_end_pos]].position();
            let d = p.position().segment_distance_m(&a, &b);
            assert!(d <= eps + 1.0, "point {i} deviates {d} m");
        }
    }
}
