//! Axis-aligned spatial and spatiotemporal envelopes.

use crate::point::{GeoPoint, EARTH_RADIUS_M};
use crate::time::TimeInterval;

/// An axis-aligned bounding box in lon/lat degrees.
///
/// Boxes never wrap the antimeridian; the synthetic worlds used in this
/// reproduction (Aegean, western Europe) stay far from it, and callers that
/// do need wrap-around can split into two boxes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Minimum longitude (west edge).
    pub min_lon: f64,
    /// Minimum latitude (south edge).
    pub min_lat: f64,
    /// Maximum longitude (east edge).
    pub max_lon: f64,
    /// Maximum latitude (north edge).
    pub max_lat: f64,
}

impl BoundingBox {
    /// A degenerate "empty" box that expands to fit the first point added.
    pub const EMPTY: BoundingBox = BoundingBox {
        min_lon: f64::INFINITY,
        min_lat: f64::INFINITY,
        max_lon: f64::NEG_INFINITY,
        max_lat: f64::NEG_INFINITY,
    };

    /// Creates a box from corner coordinates; callers must keep min <= max.
    pub fn new(min_lon: f64, min_lat: f64, max_lon: f64, max_lat: f64) -> Self {
        debug_assert!(min_lon <= max_lon && min_lat <= max_lat, "inverted bbox");
        Self {
            min_lon,
            min_lat,
            max_lon,
            max_lat,
        }
    }

    /// The zero-area box at a single point.
    pub fn from_point(p: GeoPoint) -> Self {
        Self::new(p.lon, p.lat, p.lon, p.lat)
    }

    /// A box that contains every point within `radius_m` of `center`, by
    /// [`GeoPoint::haversine_m`] or by [`GeoPoint::fast_dist2_m2`]. No
    /// distance is shorter than its span in latitude, so the latitude span
    /// is exact. Both distances shrink longitude by the cosine of a
    /// latitude inside that span, so the longitude span is sized at the
    /// box's poleward edge; at the pole it is every longitude. The box does
    /// not wrap at ±180° and the haversine distance does: a caller that
    /// measures across the antimeridian also looks 360° over.
    pub fn around(center: &GeoPoint, radius_m: f64) -> Self {
        // Wider by a part in 10⁹ than the exact span, so a point exactly
        // at `radius_m` cannot fall outside on rounding.
        let dlat = (radius_m / EARTH_RADIUS_M).to_degrees() * (1.0 + 1e-9);
        let poleward = (center.lat.abs() + dlat).min(90.0);
        let dlon = (dlat / poleward.to_radians().cos()).min(360.0);
        BoundingBox {
            min_lon: center.lon - dlon,
            min_lat: center.lat - dlat,
            max_lon: center.lon + dlon,
            max_lat: center.lat + dlat,
        }
    }

    /// The tightest box around an iterator of points; `None` when empty.
    pub fn from_points<I: IntoIterator<Item = GeoPoint>>(points: I) -> Option<Self> {
        let mut bbox = Self::EMPTY;
        let mut any = false;
        for p in points {
            bbox.expand_point(p);
            any = true;
        }
        any.then_some(bbox)
    }

    /// True when no point has been added yet.
    pub fn is_empty(&self) -> bool {
        self.min_lon > self.max_lon
    }

    /// Grows the box to cover `p`.
    pub fn expand_point(&mut self, p: GeoPoint) {
        self.min_lon = self.min_lon.min(p.lon);
        self.min_lat = self.min_lat.min(p.lat);
        self.max_lon = self.max_lon.max(p.lon);
        self.max_lat = self.max_lat.max(p.lat);
    }

    /// Grows the box to cover `other`.
    pub fn expand_bbox(&mut self, other: &BoundingBox) {
        self.min_lon = self.min_lon.min(other.min_lon);
        self.min_lat = self.min_lat.min(other.min_lat);
        self.max_lon = self.max_lon.max(other.max_lon);
        self.max_lat = self.max_lat.max(other.max_lat);
    }

    /// Returns a copy enlarged by `margin_deg` degrees on every side.
    pub fn buffered(&self, margin_deg: f64) -> BoundingBox {
        BoundingBox {
            min_lon: self.min_lon - margin_deg,
            min_lat: self.min_lat - margin_deg,
            max_lon: self.max_lon + margin_deg,
            max_lat: self.max_lat + margin_deg,
        }
    }

    /// True when `p` lies inside or on the boundary.
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.lon >= self.min_lon
            && p.lon <= self.max_lon
            && p.lat >= self.min_lat
            && p.lat <= self.max_lat
    }

    /// True when the two boxes share any point (boundaries included).
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.min_lon <= other.max_lon
            && other.min_lon <= self.max_lon
            && self.min_lat <= other.max_lat
            && other.min_lat <= self.max_lat
    }

    /// True when `other` lies entirely inside `self`.
    pub fn contains_bbox(&self, other: &BoundingBox) -> bool {
        other.min_lon >= self.min_lon
            && other.max_lon <= self.max_lon
            && other.min_lat >= self.min_lat
            && other.max_lat <= self.max_lat
    }

    /// The centre point of the box.
    pub fn center(&self) -> GeoPoint {
        GeoPoint::new(
            (self.min_lon + self.max_lon) / 2.0,
            (self.min_lat + self.max_lat) / 2.0,
        )
    }

    /// Width in degrees of longitude.
    pub fn width_deg(&self) -> f64 {
        (self.max_lon - self.min_lon).max(0.0)
    }

    /// Height in degrees of latitude.
    pub fn height_deg(&self) -> f64 {
        (self.max_lat - self.min_lat).max(0.0)
    }

    /// Area in square degrees — a cheap size proxy, not a physical area.
    pub fn area_deg2(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width_deg() * self.height_deg()
        }
    }

    /// Minimum distance in metres from `p` to the box (0 when inside),
    /// computed with the equirectangular approximation.
    pub fn min_distance_m(&self, p: &GeoPoint) -> f64 {
        let clamped = GeoPoint::new(
            p.lon.clamp(self.min_lon, self.max_lon),
            p.lat.clamp(self.min_lat, self.max_lat),
        );
        p.fast_dist2_m2(&clamped).sqrt()
    }
}

/// A spatiotemporal envelope: a bounding box plus a time interval.
///
/// Used by the RDF store's spatiotemporal filters and by the space-time
/// blocking scheme in link discovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceTimeBox {
    /// Spatial extent.
    pub space: BoundingBox,
    /// Temporal extent.
    pub time: TimeInterval,
}

impl SpaceTimeBox {
    /// Creates a space-time envelope.
    pub fn new(space: BoundingBox, time: TimeInterval) -> Self {
        Self { space, time }
    }

    /// True when the point `(p, t)` falls inside the envelope.
    pub fn contains(&self, p: &GeoPoint, t: crate::time::TimeMs) -> bool {
        self.space.contains(p) && self.time.contains(t)
    }

    /// True when the two envelopes intersect in both space and time.
    pub fn intersects(&self, other: &SpaceTimeBox) -> bool {
        self.space.intersects(&other.space) && self.time.overlaps(&other.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeMs;

    #[test]
    fn from_points_and_contains() {
        let pts = vec![
            GeoPoint::new(1.0, 2.0),
            GeoPoint::new(-1.0, 5.0),
            GeoPoint::new(3.0, 0.0),
        ];
        let b = BoundingBox::from_points(pts).unwrap();
        assert_eq!(b, BoundingBox::new(-1.0, 0.0, 3.0, 5.0));
        assert!(b.contains(&GeoPoint::new(0.0, 3.0)));
        assert!(b.contains(&GeoPoint::new(-1.0, 0.0)), "boundary included");
        assert!(!b.contains(&GeoPoint::new(3.1, 3.0)));
    }

    #[test]
    fn from_points_empty() {
        assert!(BoundingBox::from_points(std::iter::empty()).is_none());
        assert!(BoundingBox::EMPTY.is_empty());
        assert_eq!(BoundingBox::EMPTY.area_deg2(), 0.0);
    }

    #[test]
    fn intersects_cases() {
        let a = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        assert!(a.intersects(&BoundingBox::new(5.0, 5.0, 15.0, 15.0)));
        assert!(
            a.intersects(&BoundingBox::new(10.0, 10.0, 20.0, 20.0)),
            "touching corners intersect"
        );
        assert!(!a.intersects(&BoundingBox::new(10.01, 0.0, 20.0, 10.0)));
        assert!(
            a.intersects(&BoundingBox::new(2.0, 2.0, 3.0, 3.0)),
            "containment is intersection"
        );
    }

    #[test]
    fn contains_bbox_and_expand() {
        let mut a = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        let inner = BoundingBox::new(1.0, 1.0, 9.0, 9.0);
        assert!(a.contains_bbox(&inner));
        assert!(!inner.contains_bbox(&a));
        a.expand_bbox(&BoundingBox::new(-5.0, 2.0, 1.0, 12.0));
        assert_eq!(a, BoundingBox::new(-5.0, 0.0, 10.0, 12.0));
    }

    #[test]
    fn center_width_height_buffer() {
        let b = BoundingBox::new(0.0, 0.0, 4.0, 2.0);
        assert_eq!(b.center(), GeoPoint::new(2.0, 1.0));
        assert_eq!(b.width_deg(), 4.0);
        assert_eq!(b.height_deg(), 2.0);
        assert_eq!(b.area_deg2(), 8.0);
        let buf = b.buffered(1.0);
        assert_eq!(buf, BoundingBox::new(-1.0, -1.0, 5.0, 3.0));
    }

    #[test]
    fn min_distance_zero_inside() {
        let b = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(b.min_distance_m(&GeoPoint::new(0.5, 0.5)), 0.0);
        let d = b.min_distance_m(&GeoPoint::new(2.0, 0.5));
        // 1 degree of longitude at the equator-ish is ~111 km.
        assert!((d - 111_000.0).abs() < 2_000.0, "d = {d}");
    }

    #[test]
    fn space_time_box() {
        let stb = SpaceTimeBox::new(
            BoundingBox::new(0.0, 0.0, 1.0, 1.0),
            TimeInterval::new(TimeMs(0), TimeMs(100)),
        );
        assert!(stb.contains(&GeoPoint::new(0.5, 0.5), TimeMs(50)));
        assert!(!stb.contains(&GeoPoint::new(0.5, 0.5), TimeMs(100)));
        assert!(!stb.contains(&GeoPoint::new(2.0, 0.5), TimeMs(50)));
        let other = SpaceTimeBox::new(
            BoundingBox::new(0.5, 0.5, 2.0, 2.0),
            TimeInterval::new(TimeMs(50), TimeMs(150)),
        );
        assert!(stb.intersects(&other));
        let disjoint_time = SpaceTimeBox::new(
            BoundingBox::new(0.5, 0.5, 2.0, 2.0),
            TimeInterval::new(TimeMs(100), TimeMs(150)),
        );
        assert!(!stb.intersects(&disjoint_time));
    }
}
