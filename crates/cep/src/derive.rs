//! Low-level event derivation: critical points → events, zone crossings.

use datacron_geo::FxHashMap;
use datacron_geo::Polygon;
use datacron_model::{EventKind, EventRecord, ObjectId, PositionReport};
use datacron_synopses::{CriticalKind, CriticalPoint};

/// Converts a critical point from the in-situ synopsis into a low-level
/// event record. `None` for kinds that are synopsis bookkeeping rather than
/// analytics events (track start).
pub fn critical_to_event(cp: &CriticalPoint) -> Option<EventRecord> {
    let kind = match cp.kind {
        CriticalKind::StopStart => EventKind::StopStart,
        CriticalKind::StopEnd => EventKind::StopEnd,
        CriticalKind::Turn => EventKind::TurningPoint,
        CriticalKind::SpeedChange => EventKind::SpeedChange,
        CriticalKind::GapStart => EventKind::GapStart,
        CriticalKind::GapEnd => EventKind::GapEnd,
        CriticalKind::Takeoff => EventKind::Takeoff,
        CriticalKind::Landing => EventKind::Landing,
        CriticalKind::LevelOff => EventKind::LevelFlight,
        CriticalKind::TrackStart => return None,
    };
    Some(EventRecord::instant(
        kind,
        cp.report.object,
        cp.report.time,
        cp.report.position(),
    ))
}

/// Tracks zone membership per object and emits entry/exit events.
pub struct ZoneTracker {
    zones: Vec<(String, Polygon)>,
    /// object → bitmask of zones currently containing it (≤ 64 zones).
    inside: FxHashMap<ObjectId, u64>,
}

impl ZoneTracker {
    /// Creates a tracker for up to 64 named zones.
    pub fn new(zones: Vec<(String, Polygon)>) -> Self {
        assert!(zones.len() <= 64, "at most 64 zones per tracker");
        Self {
            zones,
            inside: FxHashMap::default(),
        }
    }

    /// Processes one report, returning entry/exit events.
    pub fn update(&mut self, r: &PositionReport) -> Vec<EventRecord> {
        let pos = r.position();
        let mut mask = 0u64;
        for (i, (_, poly)) in self.zones.iter().enumerate() {
            if poly.contains(&pos) {
                mask |= 1 << i;
            }
        }
        let prev = self.inside.insert(r.object, mask).unwrap_or(0);
        let mut out = Vec::new();
        let changed = prev ^ mask;
        if changed != 0 {
            for (i, (name, _)) in self.zones.iter().enumerate() {
                let bit = 1u64 << i;
                if changed & bit != 0 {
                    let kind = if mask & bit != 0 {
                        EventKind::ZoneEntry
                    } else {
                        EventKind::ZoneExit
                    };
                    out.push(
                        EventRecord::instant(kind, r.object, r.time, pos).with_attr("zone", name),
                    );
                }
            }
        }
        out
    }

    /// True when `obj` is currently inside the named zone.
    pub fn is_inside(&self, obj: ObjectId, zone: &str) -> bool {
        let Some(idx) = self.zones.iter().position(|(n, _)| n == zone) else {
            return false;
        };
        self.inside
            .get(&obj)
            .is_some_and(|mask| mask & (1 << idx) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{BoundingBox, GeoPoint, TimeMs};
    use datacron_model::{NavStatus, SourceId};

    fn rep(obj: u64, t: i64, lon: f64, lat: f64) -> PositionReport {
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

    fn tracker() -> ZoneTracker {
        ZoneTracker::new(vec![
            (
                "alpha".into(),
                Polygon::rectangle(&BoundingBox::new(0.0, 0.0, 1.0, 1.0)),
            ),
            (
                "beta".into(),
                Polygon::rectangle(&BoundingBox::new(0.5, 0.5, 2.0, 2.0)),
            ),
        ])
    }

    #[test]
    fn entry_and_exit_sequence() {
        let mut zt = tracker();
        // Outside → no event.
        assert!(zt.update(&rep(1, 0, 5.0, 5.0)).is_empty());
        // Enter alpha only.
        let evs = zt.update(&rep(1, 1000, 0.2, 0.2));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::ZoneEntry);
        assert_eq!(evs[0].attr("zone"), Some("alpha"));
        assert!(zt.is_inside(ObjectId(1), "alpha"));
        // Move to the overlap: enter beta.
        let evs = zt.update(&rep(1, 2000, 0.7, 0.7));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::ZoneEntry);
        assert_eq!(evs[0].attr("zone"), Some("beta"));
        // Leave both at once: two exits.
        let evs = zt.update(&rep(1, 3000, 5.0, 5.0));
        assert_eq!(evs.len(), 2);
        assert!(evs.iter().all(|e| e.kind == EventKind::ZoneExit));
        assert!(!zt.is_inside(ObjectId(1), "alpha"));
    }

    #[test]
    fn per_object_independence() {
        let mut zt = tracker();
        zt.update(&rep(1, 0, 0.2, 0.2));
        let evs = zt.update(&rep(2, 0, 0.2, 0.2));
        assert_eq!(evs.len(), 1, "second object gets its own entry event");
    }

    #[test]
    fn unknown_zone_query() {
        let zt = tracker();
        assert!(!zt.is_inside(ObjectId(1), "gamma"));
    }

    #[test]
    fn critical_point_conversion() {
        let cp = CriticalPoint {
            kind: CriticalKind::Turn,
            report: rep(3, 5000, 0.5, 0.5),
        };
        let ev = critical_to_event(&cp).unwrap();
        assert_eq!(ev.kind, EventKind::TurningPoint);
        assert_eq!(ev.objects, vec![ObjectId(3)]);
        assert_eq!(ev.interval.start, TimeMs(5000));

        let start = CriticalPoint {
            kind: CriticalKind::TrackStart,
            report: rep(3, 0, 0.0, 0.0),
        };
        assert!(critical_to_event(&start).is_none());
    }

    #[test]
    fn all_event_kinds_map() {
        for (ck, ek) in [
            (CriticalKind::StopStart, EventKind::StopStart),
            (CriticalKind::StopEnd, EventKind::StopEnd),
            (CriticalKind::SpeedChange, EventKind::SpeedChange),
            (CriticalKind::GapStart, EventKind::GapStart),
            (CriticalKind::GapEnd, EventKind::GapEnd),
            (CriticalKind::Takeoff, EventKind::Takeoff),
            (CriticalKind::Landing, EventKind::Landing),
            (CriticalKind::LevelOff, EventKind::LevelFlight),
        ] {
            let cp = CriticalPoint {
                kind: ck,
                report: rep(1, 0, 0.0, 0.0),
            };
            assert_eq!(critical_to_event(&cp).unwrap().kind, ek);
        }
    }
}
