//! Recognised events: low-level derived events and complex events.

use crate::ids::ObjectId;
use datacron_geo::{GeoPoint, TimeInterval, TimeMs};
use std::fmt;

/// The kinds of events the analytics components recognise or forecast.
///
/// Low-level events are derived per object from the synopses stream; complex
/// events combine multiple low-level events and/or multiple objects, matching
/// the examples called out by the paper (collision prediction, capacity
/// demand, hot spots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    // --- low-level (single report/segment scope) ---
    /// Object became stationary.
    StopStart,
    /// Object resumed moving.
    StopEnd,
    /// Significant change of heading.
    TurningPoint,
    /// Significant change of speed.
    SpeedChange,
    /// Communication gap began (no reports for longer than expected).
    GapStart,
    /// Communication gap ended.
    GapEnd,
    /// Aircraft left ground / entered the airborne phase.
    Takeoff,
    /// Aircraft landed.
    Landing,
    /// Aircraft levelled off after climb/descent.
    LevelFlight,
    // --- complex (pattern/multi-object scope) ---
    /// Entered a zone of interest.
    ZoneEntry,
    /// Left a zone of interest.
    ZoneExit,
    /// Slow, meandering movement inside a confined area.
    Loitering,
    /// Two vessels meeting at sea (possible transshipment).
    Rendezvous,
    /// AIS switched off inside a monitored zone.
    DarkActivity,
    /// Vessel moving with no propulsion signature.
    Drifting,
    /// Projected closest point of approach below safety threshold.
    CollisionRisk,
    /// Aircraft flying a holding pattern.
    HoldingPattern,
    /// Sector occupancy above capacity (hotspot / capacity demand).
    SectorHotspot,
    /// Projected loss of separation between aircraft.
    SeparationRisk,
}

impl EventKind {
    /// True for the low-level, single-object event kinds.
    pub fn is_low_level(self) -> bool {
        use EventKind::*;
        matches!(
            self,
            StopStart
                | StopEnd
                | TurningPoint
                | SpeedChange
                | GapStart
                | GapEnd
                | Takeoff
                | Landing
                | LevelFlight
        )
    }

    /// A stable lowercase identifier used in RDF IRIs and reports.
    pub fn tag(self) -> &'static str {
        use EventKind::*;
        match self {
            StopStart => "stop_start",
            StopEnd => "stop_end",
            TurningPoint => "turning_point",
            SpeedChange => "speed_change",
            GapStart => "gap_start",
            GapEnd => "gap_end",
            Takeoff => "takeoff",
            Landing => "landing",
            LevelFlight => "level_flight",
            ZoneEntry => "zone_entry",
            ZoneExit => "zone_exit",
            Loitering => "loitering",
            Rendezvous => "rendezvous",
            DarkActivity => "dark_activity",
            Drifting => "drifting",
            CollisionRisk => "collision_risk",
            HoldingPattern => "holding_pattern",
            SectorHotspot => "sector_hotspot",
            SeparationRisk => "separation_risk",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A recognised (or forecast) event instance.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// What happened.
    pub kind: EventKind,
    /// The objects involved (one for low-level events, two or more for
    /// rendezvous/collision-risk style events).
    pub objects: Vec<ObjectId>,
    /// When it happened (instantaneous events use a zero-length interval).
    pub interval: TimeInterval,
    /// Representative location.
    pub location: GeoPoint,
    /// Confidence in `[0, 1]`: 1.0 for recognised events, lower for
    /// forecast ones.
    pub confidence: f64,
    /// Wall-clock detection time used for latency accounting (event-time to
    /// detection-time distance); equals `interval.end` when not measured.
    pub detected_at: TimeMs,
    /// Free-form attributes, e.g. zone name, CPA distance in metres.
    pub attrs: Vec<(String, String)>,
}

impl EventRecord {
    /// A recognised instantaneous single-object event.
    pub fn instant(kind: EventKind, object: ObjectId, time: TimeMs, location: GeoPoint) -> Self {
        Self {
            kind,
            objects: vec![object],
            interval: TimeInterval::instant(time),
            location,
            confidence: 1.0,
            detected_at: time,
            attrs: Vec::new(),
        }
    }

    /// A recognised durative event over `interval`.
    pub fn durative(
        kind: EventKind,
        objects: Vec<ObjectId>,
        interval: TimeInterval,
        location: GeoPoint,
    ) -> Self {
        Self {
            kind,
            objects,
            interval,
            location,
            confidence: 1.0,
            detected_at: interval.end,
            attrs: Vec::new(),
        }
    }

    /// Adds an attribute, builder style.
    pub fn with_attr(mut self, key: &str, value: impl ToString) -> Self {
        self.attrs.push((key.to_string(), value.to_string()));
        self
    }

    /// Marks the record as a forecast with the given confidence.
    pub fn as_forecast(mut self, confidence: f64) -> Self {
        self.confidence = confidence.clamp(0.0, 1.0);
        self
    }

    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Detection latency in milliseconds (detection time minus the event's
    /// end time). Zero for events stamped at recognition time.
    pub fn detection_latency_ms(&self) -> i64 {
        self.detected_at - self.interval.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_level_classification() {
        assert!(EventKind::StopStart.is_low_level());
        assert!(EventKind::GapEnd.is_low_level());
        assert!(!EventKind::Rendezvous.is_low_level());
        assert!(!EventKind::SectorHotspot.is_low_level());
    }

    #[test]
    fn tags_unique_and_stable() {
        use EventKind::*;
        let all = [
            StopStart,
            StopEnd,
            TurningPoint,
            SpeedChange,
            GapStart,
            GapEnd,
            Takeoff,
            Landing,
            LevelFlight,
            ZoneEntry,
            ZoneExit,
            Loitering,
            Rendezvous,
            DarkActivity,
            Drifting,
            CollisionRisk,
            HoldingPattern,
            SectorHotspot,
            SeparationRisk,
        ];
        let mut tags: Vec<&str> = all.iter().map(|k| k.tag()).collect();
        tags.sort_unstable();
        let before = tags.len();
        tags.dedup();
        assert_eq!(tags.len(), before, "duplicate tags");
        assert_eq!(EventKind::Rendezvous.to_string(), "rendezvous");
    }

    #[test]
    fn instant_event_shape() {
        let e = EventRecord::instant(
            EventKind::TurningPoint,
            ObjectId(5),
            TimeMs(1000),
            GeoPoint::new(1.0, 2.0),
        );
        assert!(e.interval.is_empty());
        assert_eq!(e.objects, vec![ObjectId(5)]);
        assert_eq!(e.confidence, 1.0);
        assert_eq!(e.detection_latency_ms(), 0);
    }

    #[test]
    fn attrs_and_forecast() {
        let e = EventRecord::durative(
            EventKind::Rendezvous,
            vec![ObjectId(1), ObjectId(2)],
            TimeInterval::new(TimeMs(0), TimeMs(60_000)),
            GeoPoint::new(24.0, 37.5),
        )
        .with_attr("min_dist_m", 120.5)
        .as_forecast(0.7);
        assert_eq!(e.attr("min_dist_m"), Some("120.5"));
        assert_eq!(e.attr("missing"), None);
        assert!((e.confidence - 0.7).abs() < 1e-12);
        // Confidence clamps.
        let e2 = e.clone().as_forecast(1.5);
        assert_eq!(e2.confidence, 1.0);
    }

    #[test]
    fn detection_latency() {
        let mut e = EventRecord::instant(
            EventKind::StopStart,
            ObjectId(1),
            TimeMs(1000),
            GeoPoint::new(0.0, 0.0),
        );
        e.detected_at = TimeMs(1025);
        assert_eq!(e.detection_latency_ms(), 25);
    }
}
