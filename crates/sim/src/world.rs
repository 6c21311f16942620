//! Static world models: ports, shipping lanes, airports and airways.

use datacron_geo::{BoundingBox, GeoPoint, Polygon};

/// A port in the maritime world.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Human-readable name.
    pub name: String,
    /// Port location (harbour entrance).
    pub location: GeoPoint,
}

/// The maritime world: a region, its ports and the shipping lanes that
/// connect them.
#[derive(Debug, Clone, PartialEq)]
pub struct MaritimeWorld {
    /// Region of interest.
    pub region: BoundingBox,
    /// Ports vessels travel between.
    pub ports: Vec<Port>,
    /// Shipping lanes: waypoint polylines indexed by `(from_port, to_port)`.
    /// Lanes are stored one-way; the reverse direction reverses the points.
    pub lanes: Vec<Lane>,
    /// Monitored zones (e.g. protected areas) used for zone-event scripts.
    pub zones: Vec<(String, Polygon)>,
}

/// A shipping lane between two ports, as a waypoint polyline.
#[derive(Debug, Clone, PartialEq)]
pub struct Lane {
    /// Index of the origin port in [`MaritimeWorld::ports`].
    pub from: usize,
    /// Index of the destination port.
    pub to: usize,
    /// Intermediate waypoints, excluding the port endpoints.
    pub waypoints: Vec<GeoPoint>,
}

impl MaritimeWorld {
    /// The full waypoint path (including endpoints) for a lane index, in the
    /// requested direction.
    pub fn lane_path(&self, lane_idx: usize, reversed: bool) -> Vec<GeoPoint> {
        let lane = &self.lanes[lane_idx];
        let mut path = Vec::with_capacity(lane.waypoints.len() + 2);
        path.push(self.ports[lane.from].location);
        path.extend(lane.waypoints.iter().copied());
        path.push(self.ports[lane.to].location);
        if reversed {
            path.reverse();
        }
        path
    }
}

/// An airport in the aviation world.
#[derive(Debug, Clone, PartialEq)]
pub struct Airport {
    /// ICAO code, e.g. `"LGAV"`.
    pub icao: String,
    /// Airport reference point.
    pub location: GeoPoint,
    /// Field elevation in metres.
    pub elevation_m: f64,
}

/// The aviation world: a region, its airports, and en-route sectors used for
/// hotspot/capacity analytics.
#[derive(Debug, Clone, PartialEq)]
pub struct AviationWorld {
    /// Region of interest.
    pub region: BoundingBox,
    /// Airports flights operate between.
    pub airports: Vec<Airport>,
    /// En-route sectors (name, polygon, declared capacity in simultaneous
    /// flights).
    pub sectors: Vec<(String, Polygon, usize)>,
}

/// The default maritime world: a stylised Aegean with six ports and lanes
/// between the major pairs.
pub fn aegean_world() -> MaritimeWorld {
    let ports = vec![
        Port {
            name: "Piraeus".into(),
            location: GeoPoint::new(23.60, 37.93),
        },
        Port {
            name: "Thessaloniki".into(),
            location: GeoPoint::new(22.91, 40.61),
        },
        Port {
            name: "Heraklion".into(),
            location: GeoPoint::new(25.14, 35.35),
        },
        Port {
            name: "Rhodes".into(),
            location: GeoPoint::new(28.22, 36.44),
        },
        Port {
            name: "Izmir".into(),
            location: GeoPoint::new(26.97, 38.44),
        },
        Port {
            name: "Chania".into(),
            location: GeoPoint::new(24.02, 35.52),
        },
    ];
    // Waypoints bend lanes around the larger islands; geometry is stylised
    // but produces realistic lane-following traffic.
    let lanes = vec![
        Lane {
            from: 0,
            to: 1,
            waypoints: vec![GeoPoint::new(24.00, 38.80), GeoPoint::new(23.60, 39.90)],
        },
        Lane {
            from: 0,
            to: 2,
            waypoints: vec![GeoPoint::new(24.20, 37.20), GeoPoint::new(24.80, 36.10)],
        },
        Lane {
            from: 0,
            to: 3,
            waypoints: vec![GeoPoint::new(25.30, 37.00), GeoPoint::new(27.00, 36.50)],
        },
        Lane {
            from: 0,
            to: 4,
            waypoints: vec![GeoPoint::new(24.70, 37.80), GeoPoint::new(26.00, 38.20)],
        },
        Lane {
            from: 2,
            to: 3,
            waypoints: vec![GeoPoint::new(26.40, 35.60)],
        },
        Lane {
            from: 1,
            to: 4,
            waypoints: vec![GeoPoint::new(24.50, 40.00), GeoPoint::new(25.80, 39.20)],
        },
        Lane {
            from: 2,
            to: 5,
            waypoints: vec![GeoPoint::new(24.60, 35.20)],
        },
        Lane {
            from: 3,
            to: 4,
            waypoints: vec![GeoPoint::new(27.40, 37.40)],
        },
    ];
    let zones = vec![
        (
            "natura-kyklades".to_string(),
            Polygon::circle(GeoPoint::new(25.2, 36.9), 45_000.0, 24),
        ),
        (
            "anchorage-piraeus".to_string(),
            Polygon::circle(GeoPoint::new(23.55, 37.88), 8_000.0, 16),
        ),
    ];
    MaritimeWorld {
        region: BoundingBox::new(22.0, 34.5, 29.5, 41.2),
        ports,
        lanes,
        zones,
    }
}

/// The default aviation world: eight European airports and a 3×2 grid of
/// en-route sectors over the core area.
pub fn european_airspace() -> AviationWorld {
    let airports = vec![
        Airport {
            icao: "LGAV".into(),
            location: GeoPoint::new(23.94, 37.94),
            elevation_m: 94.0,
        },
        Airport {
            icao: "LIRF".into(),
            location: GeoPoint::new(12.25, 41.80),
            elevation_m: 5.0,
        },
        Airport {
            icao: "LFPG".into(),
            location: GeoPoint::new(2.55, 49.01),
            elevation_m: 119.0,
        },
        Airport {
            icao: "EDDF".into(),
            location: GeoPoint::new(8.57, 50.03),
            elevation_m: 111.0,
        },
        Airport {
            icao: "LEMD".into(),
            location: GeoPoint::new(-3.57, 40.47),
            elevation_m: 610.0,
        },
        Airport {
            icao: "EHAM".into(),
            location: GeoPoint::new(4.76, 52.31),
            elevation_m: -3.0,
        },
        Airport {
            icao: "LOWW".into(),
            location: GeoPoint::new(16.57, 48.11),
            elevation_m: 183.0,
        },
        Airport {
            icao: "LSZH".into(),
            location: GeoPoint::new(8.56, 47.46),
            elevation_m: 432.0,
        },
    ];
    let mut sectors = Vec::new();
    let (lon0, lat0) = (2.0, 42.0);
    let (dlon, dlat) = (7.0, 4.5);
    for sy in 0..2 {
        for sx in 0..3 {
            let b = BoundingBox::new(
                lon0 + dlon * sx as f64,
                lat0 + dlat * sy as f64,
                lon0 + dlon * (sx + 1) as f64,
                lat0 + dlat * (sy + 1) as f64,
            );
            sectors.push((format!("SECT-{sx}{sy}"), Polygon::rectangle(&b), 12usize));
        }
    }
    AviationWorld {
        region: BoundingBox::new(-6.0, 34.0, 30.0, 55.0),
        airports,
        sectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aegean_world_is_consistent() {
        let w = aegean_world();
        assert!(w.ports.len() >= 4);
        for port in &w.ports {
            assert!(
                w.region.contains(&port.location),
                "{} outside region",
                port.name
            );
        }
        for lane in &w.lanes {
            assert!(lane.from < w.ports.len());
            assert!(lane.to < w.ports.len());
            assert_ne!(lane.from, lane.to);
            for wp in &lane.waypoints {
                assert!(w.region.contains(wp));
            }
        }
    }

    #[test]
    fn lane_path_directions() {
        let w = aegean_world();
        let fwd = w.lane_path(0, false);
        let rev = w.lane_path(0, true);
        assert_eq!(fwd.len(), rev.len());
        assert_eq!(fwd.first(), rev.last());
        assert_eq!(fwd.last(), rev.first());
        assert_eq!(*fwd.first().unwrap(), w.ports[w.lanes[0].from].location);
        assert_eq!(*fwd.last().unwrap(), w.ports[w.lanes[0].to].location);
    }

    #[test]
    fn airspace_sectors_cover_core() {
        let w = european_airspace();
        assert_eq!(w.sectors.len(), 6);
        for ap in &w.airports {
            assert!(
                w.region.contains(&ap.location),
                "{} outside region",
                ap.icao
            );
        }
        // Sector polygons are disjoint rectangles (tile the core area).
        let p = GeoPoint::new(5.0, 44.0);
        let containing = w
            .sectors
            .iter()
            .filter(|(_, poly, _)| poly.contains(&p))
            .count();
        assert_eq!(containing, 1);
    }

    #[test]
    fn zones_inside_region() {
        let w = aegean_world();
        for (name, poly) in &w.zones {
            let b = poly.bbox();
            for corner in [
                GeoPoint::new(b.min_lon, b.min_lat),
                GeoPoint::new(b.max_lon, b.max_lat),
            ] {
                assert!(w.region.contains(&corner), "zone {name} escapes region");
            }
        }
    }
}
