//! Unit conversions used across the maritime and aviation domains.

/// Metres per nautical mile.
pub const METERS_PER_NM: f64 = 1852.0;

/// Metres per foot.
pub const METERS_PER_FT: f64 = 0.3048;

/// Converts speed in knots to metres per second.
pub fn knots_to_mps(knots: f64) -> f64 {
    knots * METERS_PER_NM / 3600.0
}

/// Converts speed in metres per second to knots.
pub fn mps_to_knots(mps: f64) -> f64 {
    mps * 3600.0 / METERS_PER_NM
}

/// Converts feet to metres (aviation altitudes).
pub fn ft_to_m(ft: f64) -> f64 {
    ft * METERS_PER_FT
}

/// Converts metres to feet.
pub fn m_to_ft(m: f64) -> f64 {
    m / METERS_PER_FT
}

/// Normalises an angle in degrees to `[0, 360)`.
pub fn normalize_deg(deg: f64) -> f64 {
    let d = deg % 360.0;
    if d < 0.0 {
        d + 360.0
    } else {
        d
    }
}

/// The smallest signed difference `a - b` between two headings, in
/// `(-180, 180]` degrees. Positive means `a` lies clockwise of `b`.
pub fn heading_delta_deg(a: f64, b: f64) -> f64 {
    let mut d = normalize_deg(a) - normalize_deg(b);
    if d > 180.0 {
        d -= 360.0;
    } else if d <= -180.0 {
        d += 360.0;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn speed_round_trip() {
        assert!(close(mps_to_knots(knots_to_mps(12.5)), 12.5));
        assert!((knots_to_mps(1.0) - 0.514444).abs() < 1e-5);
    }

    #[test]
    fn altitude_conversions() {
        assert!(close(ft_to_m(1000.0), 304.8));
        assert!(close(m_to_ft(ft_to_m(35_000.0)), 35_000.0));
    }

    #[test]
    fn normalize_degrees() {
        assert!(close(normalize_deg(370.0), 10.0));
        assert!(close(normalize_deg(-10.0), 350.0));
        assert!(close(normalize_deg(720.0), 0.0));
        assert!(close(normalize_deg(0.0), 0.0));
    }

    #[test]
    fn heading_delta_shortest_arc() {
        assert!(close(heading_delta_deg(10.0, 350.0), 20.0));
        assert!(close(heading_delta_deg(350.0, 10.0), -20.0));
        assert!(close(heading_delta_deg(90.0, 270.0), 180.0));
        assert!(close(heading_delta_deg(0.0, 0.0), 0.0));
        assert!(close(heading_delta_deg(45.0, 45.0), 0.0));
    }

    #[test]
    fn heading_delta_bounds() {
        for a in (0..360).step_by(17) {
            for b in (0..360).step_by(13) {
                let d = heading_delta_deg(a as f64, b as f64);
                assert!(d > -180.0 - 1e-9 && d <= 180.0 + 1e-9, "{a} {b} -> {d}");
            }
        }
    }
}
