//! Critical-point detection: the trajectory synopsis.
//!
//! A synopsis replaces the dense report stream with the handful of points
//! where the movement *changes*: track start/end, stop start/end, turning
//! points, speed changes, communication gaps, and — for aviation — takeoff,
//! landing and level-off. Between critical points the movement is assumed
//! kinematically predictable, which is what makes the compression lossless
//! *for analytics* rather than for geometry.

use datacron_geo::units::heading_delta_deg;
use datacron_geo::TimeMs;
use datacron_model::{ObjectId, PositionReport};
use rustc_hash::FxHashMap;

/// Thresholds steering critical-point detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynopsisConfig {
    /// Below this speed an object counts as stopped, m/s.
    pub stop_speed_mps: f64,
    /// A stop must last at least this long to be reported, ms.
    pub min_stop_ms: i64,
    /// Accumulated heading change that constitutes a turning point, degrees.
    pub turn_threshold_deg: f64,
    /// Relative speed change that constitutes a speed-change point.
    pub speed_change_frac: f64,
    /// Silence longer than this opens a communication gap, ms.
    pub gap_threshold_ms: i64,
    /// Altitude above which an aircraft counts as airborne, metres
    /// (aviation only; maritime reports never cross it).
    pub airborne_alt_m: f64,
    /// Vertical rate below which flight counts as level, m/s.
    pub level_vrate_mps: f64,
}

impl Default for SynopsisConfig {
    fn default() -> Self {
        Self {
            stop_speed_mps: 0.5,
            min_stop_ms: 5 * 60_000,
            turn_threshold_deg: 15.0,
            speed_change_frac: 0.25,
            gap_threshold_ms: 10 * 60_000,
            airborne_alt_m: 100.0,
            level_vrate_mps: 1.5,
        }
    }
}

/// The kinds of critical points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CriticalKind {
    /// First report of a track.
    TrackStart,
    /// Object dropped below the stop speed and stayed there.
    StopStart,
    /// Object resumed moving after a stop.
    StopEnd,
    /// Accumulated heading change exceeded the threshold.
    Turn,
    /// Speed changed by more than the configured fraction.
    SpeedChange,
    /// Silence exceeded the gap threshold (stamped at the last report
    /// before the silence).
    GapStart,
    /// First report after a gap.
    GapEnd,
    /// Aircraft became airborne.
    Takeoff,
    /// Aircraft returned to the surface.
    Landing,
    /// Aircraft transitioned from climb/descent to level flight.
    LevelOff,
}

/// A critical point: a kind plus the report it was detected at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalPoint {
    /// Why this report is critical.
    pub kind: CriticalKind,
    /// The underlying report.
    pub report: PositionReport,
}

/// Per-object detector state.
#[derive(Debug, Clone)]
struct TrackState {
    last: PositionReport,
    /// Heading accumulated since the last emitted turn/speed anchor.
    heading_acc: f64,
    /// Speed at the last speed anchor.
    anchor_speed: f64,
    /// Time the object first dipped below stop speed (None = moving).
    stop_since: Option<TimeMs>,
    /// Whether a StopStart has been emitted for the current stop.
    stop_open: bool,
    airborne: bool,
    climbing: bool,
}

/// The critical-point detector. Feed reports per object in event-time order
/// ([`CriticalPointDetector::update`]); it keys by object internally.
#[derive(Debug)]
pub struct CriticalPointDetector {
    config: SynopsisConfig,
    tracks: FxHashMap<ObjectId, TrackState>,
    emitted: u64,
    seen: u64,
}

impl CriticalPointDetector {
    /// Creates a detector.
    pub fn new(config: SynopsisConfig) -> Self {
        Self {
            config,
            tracks: FxHashMap::default(),
            emitted: 0,
            seen: 0,
        }
    }

    /// Reports seen so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Critical points emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Compression ratio achieved so far (`1 - emitted/seen`).
    pub fn ratio(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            1.0 - self.emitted as f64 / self.seen as f64
        }
    }

    /// Processes one report, appending any detected critical points to
    /// `out`. Reports must arrive in event-time order per object; stale
    /// reports are ignored.
    pub fn update(&mut self, r: &PositionReport, out: &mut Vec<CriticalPoint>) {
        self.seen += 1;
        let cfg = self.config;
        let n_before = out.len();
        match self.tracks.get_mut(&r.object) {
            None => {
                out.push(CriticalPoint {
                    kind: CriticalKind::TrackStart,
                    report: *r,
                });
                let airborne = r.alt_m > cfg.airborne_alt_m;
                self.tracks.insert(
                    r.object,
                    TrackState {
                        last: *r,
                        heading_acc: 0.0,
                        anchor_speed: r.speed_mps,
                        stop_since: (r.speed_mps < cfg.stop_speed_mps).then_some(r.time),
                        stop_open: false,
                        airborne,
                        climbing: r.vrate_mps.abs() > cfg.level_vrate_mps,
                    },
                );
            }
            Some(st) => {
                if r.time <= st.last.time {
                    self.seen -= 1;
                    return;
                }
                // --- gaps ---
                if r.time - st.last.time > cfg.gap_threshold_ms {
                    out.push(CriticalPoint {
                        kind: CriticalKind::GapStart,
                        report: st.last,
                    });
                    out.push(CriticalPoint {
                        kind: CriticalKind::GapEnd,
                        report: *r,
                    });
                    // A gap resets kinematic anchors.
                    st.heading_acc = 0.0;
                    st.anchor_speed = r.speed_mps;
                    st.stop_since = None;
                    st.stop_open = false;
                }

                // --- stops ---
                let slow = r.speed_mps.is_finite() && r.speed_mps < cfg.stop_speed_mps;
                match (slow, st.stop_since, st.stop_open) {
                    (true, None, _) => st.stop_since = Some(r.time),
                    (true, Some(since), false) if r.time - since >= cfg.min_stop_ms => {
                        out.push(CriticalPoint {
                            kind: CriticalKind::StopStart,
                            report: *r,
                        });
                        st.stop_open = true;
                    }
                    (false, Some(_), true) => {
                        out.push(CriticalPoint {
                            kind: CriticalKind::StopEnd,
                            report: *r,
                        });
                        st.stop_since = None;
                        st.stop_open = false;
                        st.anchor_speed = r.speed_mps;
                        st.heading_acc = 0.0;
                    }
                    (false, Some(_), false) => st.stop_since = None,
                    _ => {}
                }

                // --- turns & speed changes (only while moving) ---
                if !st.stop_open {
                    if r.heading_deg.is_finite() && st.last.heading_deg.is_finite() {
                        st.heading_acc += heading_delta_deg(r.heading_deg, st.last.heading_deg);
                        if st.heading_acc.abs() >= cfg.turn_threshold_deg {
                            out.push(CriticalPoint {
                                kind: CriticalKind::Turn,
                                report: *r,
                            });
                            st.heading_acc = 0.0;
                        }
                    }
                    if r.speed_mps.is_finite() && st.anchor_speed.is_finite() {
                        let base = st.anchor_speed.max(cfg.stop_speed_mps);
                        if (r.speed_mps - st.anchor_speed).abs() / base >= cfg.speed_change_frac {
                            out.push(CriticalPoint {
                                kind: CriticalKind::SpeedChange,
                                report: *r,
                            });
                            st.anchor_speed = r.speed_mps;
                        }
                    }
                }

                // --- aviation vertical profile ---
                let airborne_now = r.alt_m > cfg.airborne_alt_m;
                if airborne_now != st.airborne {
                    out.push(CriticalPoint {
                        kind: if airborne_now {
                            CriticalKind::Takeoff
                        } else {
                            CriticalKind::Landing
                        },
                        report: *r,
                    });
                    st.airborne = airborne_now;
                }
                let climbing_now = r.vrate_mps.abs() > cfg.level_vrate_mps;
                if st.climbing && !climbing_now && airborne_now {
                    out.push(CriticalPoint {
                        kind: CriticalKind::LevelOff,
                        report: *r,
                    });
                }
                st.climbing = climbing_now;

                st.last = *r;
            }
        }
        self.emitted += (out.len() - n_before) as u64;
    }

    /// Batch helper: runs the detector over reports (already event-time
    /// ordered per object) and returns all critical points.
    pub fn detect_batch(&mut self, reports: &[PositionReport]) -> Vec<CriticalPoint> {
        let mut out = Vec::new();
        for r in reports {
            self.update(r, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::GeoPoint;
    use datacron_model::{NavStatus, SourceId};

    fn rep(t_min: i64, lon: f64, speed: f64, heading: f64) -> PositionReport {
        PositionReport::maritime(
            ObjectId(1),
            TimeMs(t_min * 60_000),
            GeoPoint::new(lon, 37.0),
            speed,
            heading,
            SourceId::AIS_TERRESTRIAL,
            NavStatus::UnderWay,
        )
    }

    fn kinds(points: &[CriticalPoint]) -> Vec<CriticalKind> {
        points.iter().map(|p| p.kind).collect()
    }

    #[test]
    fn first_report_is_track_start() {
        let mut d = CriticalPointDetector::new(SynopsisConfig::default());
        let pts = d.detect_batch(&[rep(0, 24.0, 5.0, 90.0)]);
        assert_eq!(kinds(&pts), vec![CriticalKind::TrackStart]);
    }

    #[test]
    fn steady_cruise_emits_nothing_after_start() {
        let mut d = CriticalPointDetector::new(SynopsisConfig::default());
        let reports: Vec<_> = (0..60)
            .map(|i| rep(i, 24.0 + 0.005 * i as f64, 5.0, 90.0))
            .collect();
        let pts = d.detect_batch(&reports);
        assert_eq!(pts.len(), 1, "got {:?}", kinds(&pts));
        assert!(d.ratio() > 0.9);
    }

    #[test]
    fn stop_start_and_end() {
        let cfg = SynopsisConfig::default();
        let mut d = CriticalPointDetector::new(cfg);
        let mut reports = vec![rep(0, 24.0, 5.0, 90.0), rep(1, 24.003, 5.0, 90.0)];
        // Stop for 10 minutes (threshold 5).
        for i in 2..12 {
            reports.push(rep(i, 24.006, 0.1, 90.0));
        }
        reports.push(rep(12, 24.007, 4.0, 90.0));
        let pts = d.detect_batch(&reports);
        let ks = kinds(&pts);
        assert!(ks.contains(&CriticalKind::StopStart), "{ks:?}");
        assert!(ks.contains(&CriticalKind::StopEnd), "{ks:?}");
        // Exactly one stop episode.
        assert_eq!(
            ks.iter().filter(|k| **k == CriticalKind::StopStart).count(),
            1
        );
    }

    #[test]
    fn brief_slowdown_is_not_a_stop() {
        let mut d = CriticalPointDetector::new(SynopsisConfig::default());
        let reports = vec![
            rep(0, 24.0, 5.0, 90.0),
            rep(1, 24.003, 0.1, 90.0), // slow for 1 min only
            rep(2, 24.006, 5.0, 90.0),
        ];
        let pts = d.detect_batch(&reports);
        assert!(!kinds(&pts).contains(&CriticalKind::StopStart));
    }

    #[test]
    fn gradual_turn_detected_once_threshold_accumulates() {
        let mut d = CriticalPointDetector::new(SynopsisConfig::default());
        // 4 degrees per minute: crosses 15 degrees at the 4th delta.
        let reports: Vec<_> = (0..8)
            .map(|i| rep(i, 24.0 + 0.003 * i as f64, 5.0, 90.0 + 4.0 * i as f64))
            .collect();
        let pts = d.detect_batch(&reports);
        let turns = kinds(&pts)
            .iter()
            .filter(|k| **k == CriticalKind::Turn)
            .count();
        assert_eq!(turns, 1, "{:?}", kinds(&pts));
    }

    #[test]
    fn oscillating_heading_does_not_accumulate() {
        let mut d = CriticalPointDetector::new(SynopsisConfig::default());
        // ±5 degrees wiggle never sums past 15.
        let reports: Vec<_> = (0..20)
            .map(|i| {
                let h = if i % 2 == 0 { 90.0 } else { 95.0 };
                rep(i, 24.0 + 0.003 * i as f64, 5.0, h)
            })
            .collect();
        let pts = d.detect_batch(&reports);
        assert!(!kinds(&pts).contains(&CriticalKind::Turn));
    }

    #[test]
    fn speed_change_detected() {
        let mut d = CriticalPointDetector::new(SynopsisConfig::default());
        let reports = vec![
            rep(0, 24.0, 5.0, 90.0),
            rep(1, 24.003, 5.2, 90.0),
            rep(2, 24.006, 8.0, 90.0), // +60 %
        ];
        let pts = d.detect_batch(&reports);
        assert!(kinds(&pts).contains(&CriticalKind::SpeedChange));
    }

    #[test]
    fn gap_emits_start_at_last_fix_and_end_at_next() {
        let mut d = CriticalPointDetector::new(SynopsisConfig::default());
        let reports = vec![
            rep(0, 24.0, 5.0, 90.0),
            rep(1, 24.003, 5.0, 90.0),
            rep(30, 24.1, 5.0, 90.0), // 29-minute silence
        ];
        let pts = d.detect_batch(&reports);
        let ks = kinds(&pts);
        assert!(ks.contains(&CriticalKind::GapStart));
        assert!(ks.contains(&CriticalKind::GapEnd));
        let gap_start = pts
            .iter()
            .find(|p| p.kind == CriticalKind::GapStart)
            .unwrap();
        assert_eq!(gap_start.report.time, TimeMs(60_000), "stamped at last fix");
        let gap_end = pts.iter().find(|p| p.kind == CriticalKind::GapEnd).unwrap();
        assert_eq!(gap_end.report.time, TimeMs(30 * 60_000));
    }

    #[test]
    fn takeoff_landing_level_off() {
        let mut d = CriticalPointDetector::new(SynopsisConfig::default());
        let mk = |t_min: i64, alt: f64, vrate: f64| {
            PositionReport::aviation(
                ObjectId(9),
                TimeMs(t_min * 60_000),
                datacron_geo::GeoPoint3::new(10.0, 45.0, alt),
                200.0,
                0.0,
                vrate,
                SourceId::ADSB,
            )
        };
        let reports = vec![
            mk(0, 50.0, 0.0),
            mk(1, 500.0, 10.0), // takeoff
            mk(2, 5_000.0, 10.0),
            mk(3, 10_000.0, 0.0), // level-off
            mk(4, 10_000.0, 0.0),
            mk(5, 5_000.0, -10.0),
            mk(6, 50.0, -5.0), // landing
        ];
        let pts = d.detect_batch(&reports);
        let ks = kinds(&pts);
        assert!(ks.contains(&CriticalKind::Takeoff), "{ks:?}");
        assert!(ks.contains(&CriticalKind::LevelOff), "{ks:?}");
        assert!(ks.contains(&CriticalKind::Landing), "{ks:?}");
    }

    #[test]
    fn stale_reports_ignored() {
        let mut d = CriticalPointDetector::new(SynopsisConfig::default());
        let mut out = Vec::new();
        d.update(&rep(5, 24.0, 5.0, 90.0), &mut out);
        let before = d.seen();
        d.update(&rep(3, 24.1, 5.0, 90.0), &mut out);
        assert_eq!(d.seen(), before, "stale report counted");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn counters_and_ratio() {
        let mut d = CriticalPointDetector::new(SynopsisConfig::default());
        let reports: Vec<_> = (0..100)
            .map(|i| rep(i, 24.0 + 0.003 * i as f64, 5.0, 90.0))
            .collect();
        let pts = d.detect_batch(&reports);
        assert_eq!(d.seen(), 100);
        assert_eq!(d.emitted(), pts.len() as u64);
        assert!(d.ratio() >= 0.99 - f64::EPSILON);
    }
}
