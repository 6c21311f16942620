//! Geographic points and spherical-Earth math.

/// Mean Earth radius in metres (IUGG mean radius R1).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A position on the Earth's surface in degrees of longitude and latitude.
///
/// Longitude is in `[-180, 180]`, latitude in `[-90, 90]`. Constructors do
/// not normalise automatically; use [`GeoPoint::normalized`] when ingesting
/// untrusted data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Longitude in degrees east.
    pub lon: f64,
    /// Latitude in degrees north.
    pub lat: f64,
}

impl GeoPoint {
    /// Creates a point from longitude and latitude in degrees.
    pub const fn new(lon: f64, lat: f64) -> Self {
        Self { lon, lat }
    }

    /// Returns a copy with longitude wrapped to `[-180, 180]` and latitude
    /// clamped to `[-90, 90]`.
    pub fn normalized(self) -> Self {
        let mut lon = self.lon % 360.0;
        if lon > 180.0 {
            lon -= 360.0;
        } else if lon < -180.0 {
            lon += 360.0;
        }
        Self {
            lon,
            lat: self.lat.clamp(-90.0, 90.0),
        }
    }

    /// True when both coordinates are finite and within valid ranges.
    pub fn is_valid(&self) -> bool {
        self.lon.is_finite()
            && self.lat.is_finite()
            && (-180.0..=180.0).contains(&self.lon)
            && (-90.0..=90.0).contains(&self.lat)
    }

    /// Great-circle (haversine) distance to `other`, in metres.
    pub fn haversine_m(&self, other: &GeoPoint) -> f64 {
        let (lat1, lat2) = (self.lat.to_radians(), other.lat.to_radians());
        let dlat = lat2 - lat1;
        let dlon = (other.lon - self.lon).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Initial great-circle bearing towards `other`, in degrees `[0, 360)`.
    pub fn bearing_deg(&self, other: &GeoPoint) -> f64 {
        let (lat1, lat2) = (self.lat.to_radians(), other.lat.to_radians());
        let dlon = (other.lon - self.lon).to_radians();
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        let deg = y.atan2(x).to_degrees();
        (deg + 360.0) % 360.0
    }

    /// The point reached by travelling `distance_m` metres along the great
    /// circle with initial `bearing_deg`.
    pub fn destination(&self, bearing_deg: f64, distance_m: f64) -> GeoPoint {
        let delta = distance_m / EARTH_RADIUS_M;
        let theta = bearing_deg.to_radians();
        let lat1 = self.lat.to_radians();
        let lon1 = self.lon.to_radians();
        let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
        let lon2 = lon1
            + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
        GeoPoint::new(lon2.to_degrees(), lat2.to_degrees()).normalized()
    }

    /// Cross-track distance in metres from this point to the great-circle
    /// path from `a` to `b`. Positive values lie to the right of the path.
    pub fn cross_track_m(&self, a: &GeoPoint, b: &GeoPoint) -> f64 {
        let d13 = a.haversine_m(self) / EARTH_RADIUS_M;
        let t13 = a.bearing_deg(self).to_radians();
        let t12 = a.bearing_deg(b).to_radians();
        (d13.sin() * (t13 - t12).sin()).asin() * EARTH_RADIUS_M
    }

    /// Distance in metres from this point to the great-circle *segment*
    /// `a`–`b` (not the infinite great circle).
    pub fn segment_distance_m(&self, a: &GeoPoint, b: &GeoPoint) -> f64 {
        let d_ab = a.haversine_m(b);
        if d_ab < 1e-9 {
            return self.haversine_m(a);
        }
        // Along-track distance of the perpendicular foot from `a`.
        let d13 = a.haversine_m(self) / EARTH_RADIUS_M;
        let t13 = a.bearing_deg(self).to_radians();
        let t12 = a.bearing_deg(b).to_radians();
        let xt = (d13.sin() * (t13 - t12).sin()).asin();
        let at = (d13.cos() / xt.cos()).clamp(-1.0, 1.0).acos() * EARTH_RADIUS_M;
        let along = if (t13 - t12).cos() < 0.0 { -at } else { at };
        if along < 0.0 {
            self.haversine_m(a)
        } else if along > d_ab {
            self.haversine_m(b)
        } else {
            (xt * EARTH_RADIUS_M).abs()
        }
    }

    /// Equirectangular local approximation of the squared distance in
    /// metres². Accurate for separations up to a few tens of kilometres and
    /// far cheaper than [`GeoPoint::haversine_m`]; used in hot loops
    /// (blocking).
    pub fn fast_dist2_m2(&self, other: &GeoPoint) -> f64 {
        let mean_lat = ((self.lat + other.lat) / 2.0).to_radians();
        let dx = (other.lon - self.lon).to_radians() * mean_lat.cos() * EARTH_RADIUS_M;
        let dy = (other.lat - self.lat).to_radians() * EARTH_RADIUS_M;
        dx * dx + dy * dy
    }

    /// Midpoint of the great-circle segment to `other`.
    pub fn midpoint(&self, other: &GeoPoint) -> GeoPoint {
        let lat1 = self.lat.to_radians();
        let lat2 = other.lat.to_radians();
        let lon1 = self.lon.to_radians();
        let dlon = (other.lon - self.lon).to_radians();
        let bx = lat2.cos() * dlon.cos();
        let by = lat2.cos() * dlon.sin();
        let lat3 = (lat1.sin() + lat2.sin()).atan2(((lat1.cos() + bx).powi(2) + by * by).sqrt());
        let lon3 = lon1 + by.atan2(lat1.cos() + bx);
        GeoPoint::new(lon3.to_degrees(), lat3.to_degrees()).normalized()
    }
}

/// A position with altitude, used in the aviation (3D) domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint3 {
    /// Horizontal position.
    pub horiz: GeoPoint,
    /// Altitude above mean sea level, in metres.
    pub alt_m: f64,
}

impl GeoPoint3 {
    /// Creates a 3D point from longitude, latitude (degrees) and altitude
    /// (metres).
    pub const fn new(lon: f64, lat: f64, alt_m: f64) -> Self {
        Self {
            horiz: GeoPoint::new(lon, lat),
            alt_m,
        }
    }

    /// 3D separation in metres: Euclidean combination of the great-circle
    /// horizontal distance and the altitude difference.
    pub fn distance_m(&self, other: &GeoPoint3) -> f64 {
        let h = self.horiz.haversine_m(&other.horiz);
        let v = self.alt_m - other.alt_m;
        (h * h + v * v).sqrt()
    }

    /// Horizontal great-circle distance in metres, ignoring altitude.
    pub fn horizontal_m(&self, other: &GeoPoint3) -> f64 {
        self.horiz.haversine_m(&other.horiz)
    }

    /// Absolute vertical separation in metres.
    pub fn vertical_m(&self, other: &GeoPoint3) -> f64 {
        (self.alt_m - other.alt_m).abs()
    }
}

impl From<GeoPoint> for GeoPoint3 {
    fn from(p: GeoPoint) -> Self {
        GeoPoint3 {
            horiz: p,
            alt_m: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn haversine_known_distance() {
        // Piraeus to Heraklion is roughly 320 km.
        let piraeus = GeoPoint::new(23.647, 37.948);
        let heraklion = GeoPoint::new(25.144, 35.339);
        let d = piraeus.haversine_m(&heraklion);
        assert!((300_000.0..340_000.0).contains(&d), "d = {d}");
    }

    #[test]
    fn haversine_zero_for_same_point() {
        let p = GeoPoint::new(10.0, 50.0);
        assert!(p.haversine_m(&p) < 1e-6);
    }

    #[test]
    fn haversine_symmetric() {
        let a = GeoPoint::new(3.0, 42.0);
        let b = GeoPoint::new(-7.5, 55.1);
        assert!(close(a.haversine_m(&b), b.haversine_m(&a), 1e-6));
    }

    #[test]
    fn bearing_cardinal_directions() {
        let origin = GeoPoint::new(0.0, 0.0);
        assert!(close(
            origin.bearing_deg(&GeoPoint::new(0.0, 1.0)),
            0.0,
            1e-9
        ));
        assert!(close(
            origin.bearing_deg(&GeoPoint::new(1.0, 0.0)),
            90.0,
            1e-9
        ));
        assert!(close(
            origin.bearing_deg(&GeoPoint::new(0.0, -1.0)),
            180.0,
            1e-9
        ));
        assert!(close(
            origin.bearing_deg(&GeoPoint::new(-1.0, 0.0)),
            270.0,
            1e-9
        ));
    }

    #[test]
    fn destination_round_trip() {
        let start = GeoPoint::new(23.6, 37.9);
        let dest = start.destination(47.0, 12_345.0);
        assert!(close(start.haversine_m(&dest), 12_345.0, 0.5));
        assert!(close(start.bearing_deg(&dest), 47.0, 0.05));
    }

    #[test]
    fn destination_wraps_antimeridian() {
        let start = GeoPoint::new(179.9, 0.0);
        let dest = start.destination(90.0, 50_000.0);
        assert!(dest.is_valid());
        assert!(dest.lon < -179.0, "lon = {}", dest.lon);
    }

    #[test]
    fn normalization_wraps_longitude() {
        let p = GeoPoint::new(190.0, 95.0).normalized();
        assert!(close(p.lon, -170.0, 1e-9));
        assert!(close(p.lat, 90.0, 1e-9));
        let q = GeoPoint::new(-200.0, -95.0).normalized();
        assert!(close(q.lon, 160.0, 1e-9));
        assert!(close(q.lat, -90.0, 1e-9));
    }

    #[test]
    fn validity_checks() {
        assert!(GeoPoint::new(0.0, 0.0).is_valid());
        assert!(!GeoPoint::new(f64::NAN, 0.0).is_valid());
        assert!(!GeoPoint::new(181.0, 0.0).is_valid());
        assert!(!GeoPoint::new(0.0, -91.0).is_valid());
    }

    #[test]
    fn cross_track_sign_and_magnitude() {
        // Path west->east along the equator; a point 1 degree north is
        // ~111 km to the left (negative).
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(10.0, 0.0);
        let p = GeoPoint::new(5.0, 1.0);
        let xt = p.cross_track_m(&a, &b);
        assert!(xt < 0.0);
        assert!(close(xt.abs(), 111_195.0, 500.0), "xt = {xt}");
    }

    #[test]
    fn segment_distance_clamps_to_endpoints() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(1.0, 0.0);
        // Point "behind" a: distance should be to a, not the infinite circle.
        let p = GeoPoint::new(-1.0, 0.5);
        let d = p.segment_distance_m(&a, &b);
        assert!(close(d, p.haversine_m(&a), 1.0));
        // Point "past" b.
        let q = GeoPoint::new(2.0, -0.5);
        let d = q.segment_distance_m(&a, &b);
        assert!(close(d, q.haversine_m(&b), 1.0));
    }

    #[test]
    fn segment_distance_interior() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(2.0, 0.0);
        let p = GeoPoint::new(1.0, 0.5);
        let d = p.segment_distance_m(&a, &b);
        assert!(close(d, 55_597.0, 300.0), "d = {d}");
    }

    #[test]
    fn segment_distance_degenerate_segment() {
        let a = GeoPoint::new(5.0, 5.0);
        let p = GeoPoint::new(5.1, 5.0);
        assert!(close(p.segment_distance_m(&a, &a), p.haversine_m(&a), 1e-6));
    }

    #[test]
    fn fast_dist2_close_to_haversine_at_short_range() {
        let a = GeoPoint::new(23.60, 37.90);
        let b = GeoPoint::new(23.65, 37.93);
        let fast = a.fast_dist2_m2(&b).sqrt();
        let exact = a.haversine_m(&b);
        assert!((fast - exact).abs() / exact < 0.01, "{fast} vs {exact}");
    }

    #[test]
    fn midpoint_lies_between() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(10.0, 10.0);
        let m = a.midpoint(&b);
        let d_am = a.haversine_m(&m);
        let d_mb = m.haversine_m(&b);
        assert!(close(d_am, d_mb, 1.0));
        assert!(close(d_am + d_mb, a.haversine_m(&b), 1.0));
    }

    #[test]
    fn point3_distances() {
        let a = GeoPoint3::new(0.0, 0.0, 0.0);
        let b = GeoPoint3::new(0.0, 0.0, 3000.0);
        assert!(close(a.distance_m(&b), 3000.0, 1e-6));
        assert!(close(a.vertical_m(&b), 3000.0, 1e-9));
        assert!(close(a.horizontal_m(&b), 0.0, 1e-9));
        let c = GeoPoint3::new(1.0, 0.0, 0.0);
        let h = a.horizontal_m(&c);
        let d = GeoPoint3::new(1.0, 0.0, 1000.0);
        assert!(a.distance_m(&d) > h);
        assert!(close(a.distance_m(&d), (h * h + 1.0e6).sqrt(), 1e-6));
    }
}
