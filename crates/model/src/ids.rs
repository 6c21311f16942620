//! Identities of moving objects and data sources.

use std::fmt;

/// The surveillance domain an entity belongs to.
///
/// datAcron targets exactly these two: maritime (2D movement) and aviation
/// (3D movement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Vessels at sea (AIS-style reports, 2D).
    Maritime,
    /// Aircraft (ADS-B/radar-style reports, 3D).
    Aviation,
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Maritime => write!(f, "maritime"),
            Domain::Aviation => write!(f, "aviation"),
        }
    }
}

/// A dense numeric identifier for a moving object (vessel or aircraft).
///
/// External identifiers (MMSI, ICAO 24-bit address, callsigns) live in the
/// static metadata ([`crate::VesselInfo`] / [`crate::FlightInfo`]); hot paths
/// key everything by this `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// The raw value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj:{}", self.0)
    }
}

/// Identifies one of the heterogeneous data sources feeding the system
/// (terrestrial AIS, satellite AIS, radar, ADS-B network, vessel registry…).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SourceId(pub u16);

impl SourceId {
    /// Terrestrial AIS receiver network.
    pub const AIS_TERRESTRIAL: SourceId = SourceId(1);
    /// Satellite AIS.
    pub const AIS_SATELLITE: SourceId = SourceId(2);
    /// ADS-B surveillance network.
    pub const ADSB: SourceId = SourceId(3);
    /// Radar-derived tracks.
    pub const RADAR: SourceId = SourceId(4);
    /// Static registry data (ship registers, flight plans).
    pub const REGISTRY: SourceId = SourceId(5);
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match *self {
            SourceId::AIS_TERRESTRIAL => "ais-terrestrial",
            SourceId::AIS_SATELLITE => "ais-satellite",
            SourceId::ADSB => "adsb",
            SourceId::RADAR => "radar",
            SourceId::REGISTRY => "registry",
            SourceId(n) => return write!(f, "source:{n}"),
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(ObjectId(42).to_string(), "obj:42");
        assert_eq!(SourceId::ADSB.to_string(), "adsb");
        assert_eq!(SourceId(99).to_string(), "source:99");
        assert_eq!(Domain::Maritime.to_string(), "maritime");
        assert_eq!(Domain::Aviation.to_string(), "aviation");
    }

    #[test]
    fn object_id_ordering_and_raw() {
        assert!(ObjectId(1) < ObjectId(2));
        assert_eq!(ObjectId(7).raw(), 7);
    }

    #[test]
    fn well_known_sources_distinct() {
        let all = [
            SourceId::AIS_TERRESTRIAL,
            SourceId::AIS_SATELLITE,
            SourceId::ADSB,
            SourceId::RADAR,
            SourceId::REGISTRY,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
