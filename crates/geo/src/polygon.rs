//! Simple polygons for zones of interest (ports, fishing areas, sectors).

use crate::bbox::BoundingBox;
use crate::point::GeoPoint;

/// A simple (non-self-intersecting) polygon in lon/lat degrees.
///
/// The ring is stored open (first vertex not repeated); closure is implicit.
/// Point-in-polygon uses even-odd ray casting in coordinate space, which is
/// accurate for the regional zones used in maritime/aviation surveillance.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    ring: Vec<GeoPoint>,
    bbox: BoundingBox,
}

impl Polygon {
    /// Builds a polygon from at least three vertices.
    ///
    /// Returns `None` for fewer than three vertices or any invalid vertex.
    pub fn new(mut ring: Vec<GeoPoint>) -> Option<Self> {
        // Drop an explicitly repeated closing vertex.
        if ring.len() >= 2 {
            let (first, last) = (ring[0], *ring.last().unwrap());
            if first == last {
                ring.pop();
            }
        }
        if ring.len() < 3 || ring.iter().any(|p| !p.is_valid()) {
            return None;
        }
        let bbox = BoundingBox::from_points(ring.iter().copied())?;
        Some(Self { ring, bbox })
    }

    /// An axis-aligned rectangle as a polygon.
    pub fn rectangle(b: &BoundingBox) -> Self {
        Polygon::new(vec![
            GeoPoint::new(b.min_lon, b.min_lat),
            GeoPoint::new(b.max_lon, b.min_lat),
            GeoPoint::new(b.max_lon, b.max_lat),
            GeoPoint::new(b.min_lon, b.max_lat),
        ])
        .expect("rectangle is a valid polygon")
    }

    /// A regular polygon approximating a circle of `radius_m` metres around
    /// `center`, with `segments` vertices (min 3).
    pub fn circle(center: GeoPoint, radius_m: f64, segments: usize) -> Self {
        let n = segments.max(3);
        let ring = (0..n)
            .map(|i| center.destination(360.0 * i as f64 / n as f64, radius_m))
            .collect();
        Polygon::new(ring).expect("circle is a valid polygon")
    }

    /// The polygon's vertices (open ring).
    pub fn ring(&self) -> &[GeoPoint] {
        &self.ring
    }

    /// The precomputed bounding box.
    pub fn bbox(&self) -> &BoundingBox {
        &self.bbox
    }

    /// Even-odd point-in-polygon test. Points exactly on an edge may land on
    /// either side; zones are defined with margins so this is acceptable.
    pub fn contains(&self, p: &GeoPoint) -> bool {
        if !self.bbox.contains(p) {
            return false;
        }
        let mut inside = false;
        let n = self.ring.len();
        let mut j = n - 1;
        for i in 0..n {
            let (a, b) = (&self.ring[i], &self.ring[j]);
            let crosses = (a.lat > p.lat) != (b.lat > p.lat);
            if crosses {
                let x_at = a.lon + (p.lat - a.lat) / (b.lat - a.lat) * (b.lon - a.lon);
                if p.lon < x_at {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Signed area in square degrees via the shoelace formula. Positive for
    /// counter-clockwise rings.
    pub fn signed_area_deg2(&self) -> f64 {
        let n = self.ring.len();
        let mut acc = 0.0;
        for i in 0..n {
            let a = &self.ring[i];
            let b = &self.ring[(i + 1) % n];
            acc += a.lon * b.lat - b.lon * a.lat;
        }
        acc / 2.0
    }

    /// Centroid of the vertex set (adequate for labelling zones).
    pub fn vertex_centroid(&self) -> GeoPoint {
        let n = self.ring.len() as f64;
        let (sx, sy) = self
            .ring
            .iter()
            .fold((0.0, 0.0), |(sx, sy), p| (sx + p.lon, sy + p.lat));
        GeoPoint::new(sx / n, sy / n)
    }

    /// Minimum distance in metres from `p` to the polygon boundary, or 0.0
    /// when `p` is inside.
    pub fn distance_m(&self, p: &GeoPoint) -> f64 {
        if self.contains(p) {
            return 0.0;
        }
        let n = self.ring.len();
        let mut best = f64::INFINITY;
        for i in 0..n {
            let a = &self.ring[i];
            let b = &self.ring[(i + 1) % n];
            best = best.min(p.segment_distance_m(a, b));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::rectangle(&BoundingBox::new(0.0, 0.0, 1.0, 1.0))
    }

    #[test]
    fn rejects_degenerate_rings() {
        assert!(Polygon::new(vec![]).is_none());
        assert!(Polygon::new(vec![GeoPoint::new(0.0, 0.0), GeoPoint::new(1.0, 1.0)]).is_none());
        assert!(Polygon::new(vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(1.0, 1.0),
            GeoPoint::new(f64::NAN, 0.0),
        ])
        .is_none());
    }

    #[test]
    fn strips_closing_vertex() {
        let p = Polygon::new(vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(1.0, 0.0),
            GeoPoint::new(0.0, 1.0),
            GeoPoint::new(0.0, 0.0),
        ])
        .unwrap();
        assert_eq!(p.ring().len(), 3);
    }

    #[test]
    fn square_containment() {
        let sq = unit_square();
        assert!(sq.contains(&GeoPoint::new(0.5, 0.5)));
        assert!(!sq.contains(&GeoPoint::new(1.5, 0.5)));
        assert!(!sq.contains(&GeoPoint::new(0.5, -0.1)));
        assert!(!sq.contains(&GeoPoint::new(-0.5, 0.5)));
    }

    #[test]
    fn concave_polygon_containment() {
        // A "C" shape: the notch on the right side must be outside.
        let c = Polygon::new(vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(3.0, 0.0),
            GeoPoint::new(3.0, 1.0),
            GeoPoint::new(1.0, 1.0),
            GeoPoint::new(1.0, 2.0),
            GeoPoint::new(3.0, 2.0),
            GeoPoint::new(3.0, 3.0),
            GeoPoint::new(0.0, 3.0),
        ])
        .unwrap();
        assert!(c.contains(&GeoPoint::new(0.5, 1.5)), "spine of the C");
        assert!(!c.contains(&GeoPoint::new(2.0, 1.5)), "notch of the C");
        assert!(c.contains(&GeoPoint::new(2.0, 0.5)), "lower arm");
        assert!(c.contains(&GeoPoint::new(2.0, 2.5)), "upper arm");
    }

    #[test]
    fn circle_roughly_round() {
        let center = GeoPoint::new(24.0, 37.0);
        let circle = Polygon::circle(center, 10_000.0, 32);
        assert!(circle.contains(&center));
        assert!(circle.contains(&center.destination(123.0, 9_000.0)));
        assert!(!circle.contains(&center.destination(123.0, 11_000.0)));
    }

    #[test]
    fn signed_area_orientation() {
        let ccw = Polygon::new(vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(1.0, 0.0),
            GeoPoint::new(1.0, 1.0),
            GeoPoint::new(0.0, 1.0),
        ])
        .unwrap();
        assert!((ccw.signed_area_deg2() - 1.0).abs() < 1e-12);
        let cw = Polygon::new(vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(0.0, 1.0),
            GeoPoint::new(1.0, 1.0),
            GeoPoint::new(1.0, 0.0),
        ])
        .unwrap();
        assert!((cw.signed_area_deg2() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn distance_zero_inside_positive_outside() {
        let sq = unit_square();
        assert_eq!(sq.distance_m(&GeoPoint::new(0.5, 0.5)), 0.0);
        let d = sq.distance_m(&GeoPoint::new(2.0, 0.5));
        assert!((d - 111_000.0).abs() < 2_000.0, "d = {d}");
    }

    #[test]
    fn vertex_centroid_of_square() {
        let c = unit_square().vertex_centroid();
        assert!((c.lon - 0.5).abs() < 1e-12 && (c.lat - 0.5).abs() < 1e-12);
    }
}
