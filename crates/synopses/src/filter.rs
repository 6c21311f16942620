//! Noise filtering applied directly on the raw report stream.

use datacron_geo::TimeMs;
use datacron_model::{ObjectId, PositionReport};
use rustc_hash::FxHashMap;

/// Counters describing what the cleanser dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanseStats {
    /// Reports accepted.
    pub accepted: u64,
    /// Dropped: invalid coordinates / timestamps / kinematics.
    pub implausible: u64,
    /// Dropped: duplicate (object, timestamp) pairs.
    pub duplicates: u64,
    /// Dropped: implied speed from the previous accepted fix exceeds the
    /// physical limit (GPS glitch / identity mix-up).
    pub speed_jumps: u64,
    /// Dropped: timestamp at or before the previous accepted fix.
    pub stale: u64,
}

impl CleanseStats {
    /// Total dropped reports.
    pub fn dropped(&self) -> u64 {
        self.implausible + self.duplicates + self.speed_jumps + self.stale
    }
}

#[derive(Debug, Clone, Copy)]
struct LastFix {
    time: TimeMs,
    lon: f64,
    lat: f64,
}

/// The stream cleanser: stateless plausibility checks plus per-object
/// monotonicity and speed-jump checks.
///
/// A plain filter: [`Cleanser::check`] per report, or
/// [`Cleanser::clean_batch`] over a slice.
#[derive(Debug)]
pub struct Cleanser {
    /// Maximum physically plausible speed, m/s (default 60 ≈ 117 kn covers
    /// every vessel; use ~350 for aviation).
    pub max_speed_mps: f64,
    stats: CleanseStats,
    last: FxHashMap<ObjectId, LastFix>,
}

impl Default for Cleanser {
    fn default() -> Self {
        Self::new(60.0)
    }
}

impl Cleanser {
    /// Creates a cleanser with the given speed limit.
    pub fn new(max_speed_mps: f64) -> Self {
        Self {
            max_speed_mps,
            stats: CleanseStats::default(),
            last: FxHashMap::default(),
        }
    }

    /// The running statistics.
    pub fn stats(&self) -> CleanseStats {
        self.stats
    }

    /// Checks one report, updating per-object state. Returns `true` when the
    /// report survives.
    pub fn check(&mut self, r: &PositionReport) -> bool {
        if !r.is_plausible() {
            self.stats.implausible += 1;
            return false;
        }
        match self.last.get(&r.object) {
            Some(prev) if r.time == prev.time => {
                self.stats.duplicates += 1;
                return false;
            }
            Some(prev) if r.time < prev.time => {
                self.stats.stale += 1;
                return false;
            }
            Some(prev) => {
                let dt_s = (r.time - prev.time) as f64 / 1000.0;
                let prev_pos = datacron_geo::GeoPoint::new(prev.lon, prev.lat);
                let dist = r.position().haversine_m(&prev_pos);
                if dist / dt_s > self.max_speed_mps {
                    self.stats.speed_jumps += 1;
                    return false;
                }
            }
            None => {}
        }
        self.last.insert(
            r.object,
            LastFix {
                time: r.time,
                lon: r.lon,
                lat: r.lat,
            },
        );
        self.stats.accepted += 1;
        true
    }

    /// Cleans a batch, returning the surviving reports.
    pub fn clean_batch(&mut self, reports: &[PositionReport]) -> Vec<PositionReport> {
        reports.iter().filter(|r| self.check(r)).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::GeoPoint;
    use datacron_model::{NavStatus, SourceId};

    fn report(obj: u64, t: i64, lon: f64, lat: f64) -> PositionReport {
        PositionReport::maritime(
            ObjectId(obj),
            TimeMs(t),
            GeoPoint::new(lon, lat),
            5.0,
            90.0,
            SourceId::AIS_TERRESTRIAL,
            NavStatus::UnderWay,
        )
    }

    #[test]
    fn accepts_clean_sequence() {
        let mut c = Cleanser::default();
        // 0.001 deg ≈ 90 m per 60 s → ~1.5 m/s.
        for i in 0..10 {
            assert!(c.check(&report(1, i * 60_000, 24.0 + 0.001 * i as f64, 37.0)));
        }
        assert_eq!(c.stats().accepted, 10);
        assert_eq!(c.stats().dropped(), 0);
    }

    #[test]
    fn rejects_implausible() {
        let mut c = Cleanser::default();
        let mut r = report(1, 0, 24.0, 37.0);
        r.lat = 95.0;
        assert!(!c.check(&r));
        assert_eq!(c.stats().implausible, 1);
    }

    #[test]
    fn rejects_duplicates_and_stale() {
        let mut c = Cleanser::default();
        assert!(c.check(&report(1, 1000, 24.0, 37.0)));
        assert!(!c.check(&report(1, 1000, 24.0, 37.0)));
        assert!(!c.check(&report(1, 500, 24.0, 37.0)));
        assert_eq!(c.stats().duplicates, 1);
        assert_eq!(c.stats().stale, 1);
        // A later report is fine.
        assert!(c.check(&report(1, 2000, 24.0001, 37.0)));
    }

    #[test]
    fn rejects_speed_jump_then_recovers() {
        let mut c = Cleanser::default();
        assert!(c.check(&report(1, 0, 24.0, 37.0)));
        // 0.5 degrees (~44 km) in 60 s → ~740 m/s: glitch.
        assert!(!c.check(&report(1, 60_000, 24.5, 37.0)));
        assert_eq!(c.stats().speed_jumps, 1);
        // The glitch did not poison the state: a sane follow-up passes.
        assert!(c.check(&report(1, 120_000, 24.002, 37.0)));
    }

    #[test]
    fn per_object_state_is_independent() {
        let mut c = Cleanser::default();
        assert!(c.check(&report(1, 1000, 24.0, 37.0)));
        // Different object at the same instant, far away: fine.
        assert!(c.check(&report(2, 1000, 26.0, 39.0)));
        assert_eq!(c.stats().accepted, 2);
    }

    #[test]
    fn batch_filtering() {
        let mut c = Cleanser::default();
        let batch = vec![
            report(1, 0, 24.0, 37.0),
            report(1, 0, 24.0, 37.0),      // dup
            report(1, 60_000, 24.5, 37.0), // jump
            report(1, 120_000, 24.001, 37.0),
        ];
        let clean = c.clean_batch(&batch);
        assert_eq!(clean.len(), 2);
        assert_eq!(c.stats().dropped(), 2);
    }
}
