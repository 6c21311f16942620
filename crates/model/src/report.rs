//! Position reports and static entity metadata.

use crate::ids::{Domain, ObjectId, SourceId};
use datacron_geo::{GeoPoint, GeoPoint3, TimeMs};

/// Navigational status carried by AIS-style reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NavStatus {
    /// Under way using engine.
    #[default]
    UnderWay,
    /// At anchor.
    AtAnchor,
    /// Moored in port.
    Moored,
    /// Engaged in fishing.
    Fishing,
    /// Restricted manoeuvrability / not under command.
    Restricted,
    /// Status not available.
    Unknown,
}

/// A single kinematic position report from any surveillance source.
///
/// This is the unit that flows through the in-situ processing pipeline at
/// "extremely high rates". The struct is kept at 64 bytes so hot channels
/// move it by value without `memcpy` overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionReport {
    /// The reporting object.
    pub object: ObjectId,
    /// Event time of the fix.
    pub time: TimeMs,
    /// Longitude, degrees east.
    pub lon: f64,
    /// Latitude, degrees north.
    pub lat: f64,
    /// Altitude in metres; `0.0` for maritime reports.
    pub alt_m: f64,
    /// Speed over ground in metres per second; `NaN` when unavailable.
    pub speed_mps: f64,
    /// Course over ground in degrees `[0, 360)`; `NaN` when unavailable.
    pub heading_deg: f64,
    /// Vertical rate in metres per second (aviation); `0.0` for maritime.
    pub vrate_mps: f64,
    /// Which source produced the report.
    pub source: SourceId,
    /// Navigational status (maritime); `Unknown` for aviation.
    pub nav_status: NavStatus,
}

impl PositionReport {
    /// Builds a maritime report.
    #[allow(clippy::too_many_arguments)]
    pub fn maritime(
        object: ObjectId,
        time: TimeMs,
        pos: GeoPoint,
        speed_mps: f64,
        heading_deg: f64,
        source: SourceId,
        nav_status: NavStatus,
    ) -> Self {
        Self {
            object,
            time,
            lon: pos.lon,
            lat: pos.lat,
            alt_m: 0.0,
            speed_mps,
            heading_deg,
            vrate_mps: 0.0,
            source,
            nav_status,
        }
    }

    /// Builds an aviation report.
    #[allow(clippy::too_many_arguments)]
    pub fn aviation(
        object: ObjectId,
        time: TimeMs,
        pos: GeoPoint3,
        speed_mps: f64,
        heading_deg: f64,
        vrate_mps: f64,
        source: SourceId,
    ) -> Self {
        Self {
            object,
            time,
            lon: pos.horiz.lon,
            lat: pos.horiz.lat,
            alt_m: pos.alt_m,
            speed_mps,
            heading_deg,
            vrate_mps,
            source,
            nav_status: NavStatus::Unknown,
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

    /// True when coordinates are valid and the timestamp is non-negative.
    /// Speed/heading may legitimately be `NaN` (unavailable).
    pub fn is_plausible(&self) -> bool {
        self.position().is_valid()
            && self.time.millis() >= 0
            && (self.speed_mps.is_nan() || (0.0..=350.0).contains(&self.speed_mps))
            && (self.heading_deg.is_nan() || (0.0..360.0).contains(&self.heading_deg))
            && self.alt_m.is_finite()
            && (-500.0..=25_000.0).contains(&self.alt_m)
    }
}

/// Static metadata for a vessel, as found in ship registries.
#[derive(Debug, Clone, PartialEq)]
pub struct VesselInfo {
    /// Internal object id.
    pub object: ObjectId,
    /// Maritime Mobile Service Identity (9 digits).
    pub mmsi: u32,
    /// Vessel name as registered.
    pub name: String,
    /// Ship type (AIS type codes: 30 fishing, 70-79 cargo, 80-89 tanker…).
    pub ship_type: u8,
    /// Length overall in metres.
    pub length_m: f32,
    /// Flag state (ISO 3166 alpha-2).
    pub flag: String,
}

/// Static metadata for a flight.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightInfo {
    /// Internal object id.
    pub object: ObjectId,
    /// ICAO 24-bit transponder address.
    pub icao24: u32,
    /// Callsign, e.g. `"AEE123"`.
    pub callsign: String,
    /// Departure aerodrome (ICAO code).
    pub origin: String,
    /// Destination aerodrome (ICAO code).
    pub destination: String,
}

/// Returns the domain a report most plausibly belongs to, judged by its
/// source (preferred) or altitude.
pub fn domain_of(report: &PositionReport) -> Domain {
    match report.source {
        SourceId::ADSB | SourceId::RADAR => Domain::Aviation,
        SourceId::AIS_TERRESTRIAL | SourceId::AIS_SATELLITE => Domain::Maritime,
        _ if report.alt_m > 50.0 => Domain::Aviation,
        _ => Domain::Maritime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_maritime() -> PositionReport {
        PositionReport::maritime(
            ObjectId(1),
            TimeMs(1000),
            GeoPoint::new(23.5, 37.9),
            5.0,
            135.0,
            SourceId::AIS_TERRESTRIAL,
            NavStatus::UnderWay,
        )
    }

    #[test]
    fn report_is_compact() {
        // Keep the hot-path struct small; see crate docs.
        assert!(
            std::mem::size_of::<PositionReport>() <= 72,
            "PositionReport grew to {} bytes",
            std::mem::size_of::<PositionReport>()
        );
    }

    #[test]
    fn maritime_constructor_defaults() {
        let r = sample_maritime();
        assert_eq!(r.alt_m, 0.0);
        assert_eq!(r.vrate_mps, 0.0);
        assert_eq!(r.position(), GeoPoint::new(23.5, 37.9));
        assert_eq!(domain_of(&r), Domain::Maritime);
        assert!(r.is_plausible());
    }

    #[test]
    fn aviation_constructor() {
        let r = PositionReport::aviation(
            ObjectId(2),
            TimeMs(5000),
            GeoPoint3::new(23.9, 37.9, 10_000.0),
            230.0,
            270.0,
            -5.0,
            SourceId::ADSB,
        );
        assert_eq!(r.position3().alt_m, 10_000.0);
        assert_eq!(domain_of(&r), Domain::Aviation);
        assert!(r.is_plausible());
    }

    #[test]
    fn plausibility_rejects_garbage() {
        let mut r = sample_maritime();
        r.lat = 95.0;
        assert!(!r.is_plausible());

        let mut r = sample_maritime();
        r.speed_mps = -3.0;
        assert!(!r.is_plausible());

        let mut r = sample_maritime();
        r.speed_mps = 1000.0;
        assert!(!r.is_plausible());

        let mut r = sample_maritime();
        r.heading_deg = 360.0;
        assert!(!r.is_plausible());

        let mut r = sample_maritime();
        r.alt_m = f64::NAN;
        assert!(!r.is_plausible());

        let mut r = sample_maritime();
        r.time = TimeMs(-5);
        assert!(!r.is_plausible());
    }

    #[test]
    fn plausibility_allows_missing_kinematics() {
        let mut r = sample_maritime();
        r.speed_mps = f64::NAN;
        r.heading_deg = f64::NAN;
        assert!(r.is_plausible());
    }

    #[test]
    fn domain_heuristic_by_altitude() {
        let mut r = sample_maritime();
        r.source = SourceId(42);
        assert_eq!(domain_of(&r), Domain::Maritime);
        r.alt_m = 3000.0;
        assert_eq!(domain_of(&r), Domain::Aviation);
    }
}
