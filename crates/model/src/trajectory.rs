//! Trajectories: time-ordered sequences of kinematic fixes.

use crate::ids::ObjectId;
use crate::report::PositionReport;
use datacron_geo::{BoundingBox, GeoPoint, GeoPoint3, TimeInterval, TimeMs};

/// One fix of a trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajPoint {
    /// Event time.
    pub time: TimeMs,
    /// Longitude, degrees.
    pub lon: f64,
    /// Latitude, degrees.
    pub lat: f64,
    /// Altitude, metres (0 for maritime).
    pub alt_m: f64,
    /// Speed over ground, m/s (`NaN` when unknown).
    pub speed_mps: f64,
    /// Course over ground, degrees (`NaN` when unknown).
    pub heading_deg: f64,
}

impl TrajPoint {
    /// Creates a 2D fix.
    pub fn new2(time: TimeMs, pos: GeoPoint, speed_mps: f64, heading_deg: f64) -> Self {
        Self {
            time,
            lon: pos.lon,
            lat: pos.lat,
            alt_m: 0.0,
            speed_mps,
            heading_deg,
        }
    }

    /// The horizontal position.
    pub fn position(&self) -> GeoPoint {
        GeoPoint::new(self.lon, self.lat)
    }

    /// The 3D position.
    pub fn position3(&self) -> GeoPoint3 {
        GeoPoint3::new(self.lon, self.lat, self.alt_m)
    }
}

impl From<&PositionReport> for TrajPoint {
    fn from(r: &PositionReport) -> Self {
        TrajPoint {
            time: r.time,
            lon: r.lon,
            lat: r.lat,
            alt_m: r.alt_m,
            speed_mps: r.speed_mps,
            heading_deg: r.heading_deg,
        }
    }
}

/// A time-ordered trajectory of one moving object.
///
/// The point sequence is kept sorted by time with strictly increasing
/// timestamps; [`Trajectory::push`] enforces the invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// The moving object.
    pub object: ObjectId,
    points: Vec<TrajPoint>,
}

impl Trajectory {
    /// An empty trajectory for `object`.
    pub fn new(object: ObjectId) -> Self {
        Self {
            object,
            points: Vec::new(),
        }
    }

    /// Builds a trajectory from points, sorting them by time and dropping
    /// duplicate timestamps (keeping the first occurrence).
    pub fn from_points(object: ObjectId, mut points: Vec<TrajPoint>) -> Self {
        points.sort_by_key(|p| p.time);
        points.dedup_by_key(|p| p.time);
        Self { object, points }
    }

    /// Appends a fix. Returns `false` (and drops the fix) when its timestamp
    /// is not strictly after the current last fix.
    pub fn push(&mut self, p: TrajPoint) -> bool {
        if let Some(last) = self.points.last() {
            if p.time <= last.time {
                return false;
            }
        }
        self.points.push(p);
        true
    }

    /// The fixes, in time order.
    pub fn points(&self) -> &[TrajPoint] {
        &self.points
    }

    /// Number of fixes.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the trajectory has no fixes.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// First fix, if any.
    pub fn first(&self) -> Option<&TrajPoint> {
        self.points.first()
    }

    /// Last fix, if any.
    pub fn last(&self) -> Option<&TrajPoint> {
        self.points.last()
    }

    /// The covered time interval `[first, last]`, when at least one fix
    /// exists (end is exclusive: last time + 1ms).
    pub fn time_span(&self) -> Option<TimeInterval> {
        Some(TimeInterval::new(
            self.points.first()?.time,
            self.points.last()?.time + 1,
        ))
    }

    /// Total great-circle path length in metres.
    pub fn length_m(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].position().haversine_m(&w[1].position()))
            .sum()
    }

    /// Tight bounding box of all fixes.
    pub fn bbox(&self) -> Option<BoundingBox> {
        BoundingBox::from_points(self.points.iter().map(|p| p.position()))
    }

    /// Interpolated horizontal position at `t`, `None` outside the time span.
    pub fn position_at(&self, t: TimeMs) -> Option<GeoPoint> {
        if self.points.is_empty() {
            return None;
        }
        let first = self.points.first().unwrap();
        let last = self.points.last().unwrap();
        if t < first.time || t > last.time {
            return None;
        }
        let idx = self.points.partition_point(|p| p.time <= t);
        if idx == 0 {
            return Some(first.position());
        }
        let before = &self.points[idx - 1];
        if before.time == t || idx == self.points.len() {
            return Some(before.position());
        }
        let after = &self.points[idx];
        Some(datacron_geo::position_at_time(
            (&before.position(), before.time),
            (&after.position(), after.time),
            t,
        ))
    }

    /// The sub-trajectory whose fixes fall inside `[interval.start, interval.end)`.
    pub fn slice_time(&self, interval: &TimeInterval) -> Trajectory {
        let pts = self
            .points
            .iter()
            .filter(|p| interval.contains(p.time))
            .copied()
            .collect();
        Trajectory {
            object: self.object,
            points: pts,
        }
    }

    /// Mean ground speed over the whole trajectory (path length / duration),
    /// `None` for trajectories with fewer than two fixes or zero duration.
    pub fn mean_speed_mps(&self) -> Option<f64> {
        let span = self.time_span()?;
        let dur_s = (span.duration_ms() - 1) as f64 / 1000.0;
        (dur_s > 0.0).then(|| self.length_m() / dur_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(t: i64, lon: f64, lat: f64) -> TrajPoint {
        TrajPoint::new2(TimeMs(t), GeoPoint::new(lon, lat), 5.0, 90.0)
    }

    fn straight_line() -> Trajectory {
        Trajectory::from_points(
            ObjectId(1),
            vec![pt(0, 0.0, 0.0), pt(1000, 0.1, 0.0), pt(2000, 0.2, 0.0)],
        )
    }

    #[test]
    fn push_enforces_monotone_time() {
        let mut t = Trajectory::new(ObjectId(1));
        assert!(t.push(pt(100, 0.0, 0.0)));
        assert!(t.push(pt(200, 0.1, 0.0)));
        assert!(!t.push(pt(200, 0.2, 0.0)), "equal time rejected");
        assert!(!t.push(pt(50, 0.3, 0.0)), "regressing time rejected");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn from_points_sorts_and_dedups() {
        let t = Trajectory::from_points(
            ObjectId(1),
            vec![
                pt(2000, 0.2, 0.0),
                pt(0, 0.0, 0.0),
                pt(1000, 0.1, 0.0),
                pt(1000, 9.9, 9.9),
            ],
        );
        assert_eq!(t.len(), 3);
        let times: Vec<i64> = t.points().iter().map(|p| p.time.millis()).collect();
        assert_eq!(times, vec![0, 1000, 2000]);
        // First occurrence kept on duplicate timestamp.
        assert_eq!(t.points()[1].lon, 0.1);
    }

    #[test]
    fn length_and_speed() {
        let t = straight_line();
        let expected = GeoPoint::new(0.0, 0.0).haversine_m(&GeoPoint::new(0.2, 0.0));
        assert!((t.length_m() - expected).abs() < 1.0);
        let v = t.mean_speed_mps().unwrap();
        assert!((v - expected / 2.0).abs() < 1.0, "v = {v}");
    }

    #[test]
    fn empty_trajectory_edge_cases() {
        let t = Trajectory::new(ObjectId(9));
        assert!(t.is_empty());
        assert!(t.time_span().is_none());
        assert!(t.bbox().is_none());
        assert!(t.position_at(TimeMs(0)).is_none());
        assert!(t.mean_speed_mps().is_none());
        assert_eq!(t.length_m(), 0.0);
    }

    #[test]
    fn position_at_interpolates() {
        let t = straight_line();
        let p = t.position_at(TimeMs(500)).unwrap();
        assert!((p.lon - 0.05).abs() < 1e-4, "lon = {}", p.lon);
        // Exact fix times return the fix.
        assert_eq!(
            t.position_at(TimeMs(1000)).unwrap(),
            GeoPoint::new(0.1, 0.0)
        );
        // Outside the span.
        assert!(t.position_at(TimeMs(-1)).is_none());
        assert!(t.position_at(TimeMs(2001)).is_none());
        // Boundary fixes.
        assert_eq!(t.position_at(TimeMs(0)).unwrap(), GeoPoint::new(0.0, 0.0));
        assert_eq!(
            t.position_at(TimeMs(2000)).unwrap(),
            GeoPoint::new(0.2, 0.0)
        );
    }

    #[test]
    fn slice_time_half_open() {
        let t = straight_line();
        let s = t.slice_time(&TimeInterval::new(TimeMs(0), TimeMs(2000)));
        assert_eq!(s.len(), 2, "end exclusive");
        let s = t.slice_time(&TimeInterval::new(TimeMs(500), TimeMs(1500)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.object, t.object);
    }

    #[test]
    fn bbox_covers_fixes() {
        let t = straight_line();
        let b = t.bbox().unwrap();
        assert_eq!(b, BoundingBox::new(0.0, 0.0, 0.2, 0.0));
    }

    #[test]
    fn trajpoint_from_report() {
        let r = PositionReport::maritime(
            ObjectId(3),
            TimeMs(7),
            GeoPoint::new(1.0, 2.0),
            4.0,
            180.0,
            crate::ids::SourceId::AIS_TERRESTRIAL,
            crate::report::NavStatus::UnderWay,
        );
        let p = TrajPoint::from(&r);
        assert_eq!(p.time, TimeMs(7));
        assert_eq!(p.position(), GeoPoint::new(1.0, 2.0));
        assert_eq!(p.speed_mps, 4.0);
    }
}
