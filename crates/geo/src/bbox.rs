//! Axis-aligned spatial envelopes.

use crate::point::{GeoPoint, EARTH_RADIUS_M};

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn center_width_height_buffer() {
        let b = BoundingBox::new(0.0, 0.0, 4.0, 2.0);
        assert_eq!(b.center(), GeoPoint::new(2.0, 1.0));
        assert_eq!(b.width_deg(), 4.0);
        assert_eq!(b.height_deg(), 2.0);
        let buf = b.buffered(1.0);
        assert_eq!(buf, BoundingBox::new(-1.0, -1.0, 5.0, 3.0));
    }
}
