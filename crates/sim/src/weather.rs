//! A synthetic weather grid — the archival enrichment source.
//!
//! datAcron enriches trajectories with meteorological context. We substitute
//! a smooth, seeded wind field: a sum of seeded sinusoidal modes over space
//! and time, sampled onto a [`datacron_geo::Grid`].

use datacron_geo::Rng;
use datacron_geo::{BoundingBox, GeoPoint, Grid, TimeMs};

/// One sinusoidal mode of the synthetic field.
#[derive(Debug, Clone, Copy)]
struct Mode {
    kx: f64,
    ky: f64,
    kt: f64,
    phase: f64,
    amp: f64,
}

/// A smooth synthetic wind field over a region.
#[derive(Debug, Clone)]
pub struct WeatherGrid {
    grid: Grid,
    modes_u: Vec<Mode>,
    modes_v: Vec<Mode>,
    /// Mean wind components, m/s.
    mean_u: f64,
    mean_v: f64,
}

impl WeatherGrid {
    /// Builds a seeded wind field over `extent` with `cell_deg` resolution.
    pub fn new(extent: BoundingBox, cell_deg: f64, seed: u64) -> Option<Self> {
        let grid = Grid::new(extent, cell_deg)?;
        let mut rng = Rng::seed_from_u64(seed);
        let gen_modes = |rng: &mut Rng| -> Vec<Mode> {
            (0..5)
                .map(|_| Mode {
                    kx: rng.gen_range(0.2..1.5),
                    ky: rng.gen_range(0.2..1.5),
                    kt: rng.gen_range(0.05..0.5),
                    phase: rng.gen_range(0.0..std::f64::consts::TAU),
                    amp: rng.gen_range(0.5..2.5),
                })
                .collect()
        };
        let modes_u = gen_modes(&mut rng);
        let modes_v = gen_modes(&mut rng);
        Some(Self {
            grid,
            modes_u,
            modes_v,
            mean_u: rng.gen_range(-4.0..4.0),
            mean_v: rng.gen_range(-4.0..4.0),
        })
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    fn eval(modes: &[Mode], mean: f64, p: &GeoPoint, t_hours: f64) -> f64 {
        mean + modes
            .iter()
            .map(|m| m.amp * (m.kx * p.lon + m.ky * p.lat + m.kt * t_hours + m.phase).sin())
            .sum::<f64>()
    }

    /// Wind vector `(u, v)` in m/s at a point and time.
    pub fn wind_at(&self, p: &GeoPoint, t: TimeMs) -> (f64, f64) {
        let th = t.as_secs_f64() / 3600.0;
        (
            Self::eval(&self.modes_u, self.mean_u, p, th),
            Self::eval(&self.modes_v, self.mean_v, p, th),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> WeatherGrid {
        WeatherGrid::new(BoundingBox::new(22.0, 34.0, 30.0, 41.0), 0.5, 17).unwrap()
    }

    #[test]
    fn deterministic() {
        let a = field();
        let b = field();
        let p = GeoPoint::new(24.3, 37.1);
        assert_eq!(
            a.wind_at(&p, TimeMs(3_600_000)),
            b.wind_at(&p, TimeMs(3_600_000))
        );
    }

    #[test]
    fn bounded_magnitude() {
        let f = field();
        for i in 0..20 {
            for j in 0..20 {
                let p = GeoPoint::new(22.0 + 0.4 * i as f64, 34.0 + 0.35 * j as f64);
                let (u, v) = f.wind_at(&p, TimeMs(i * 600_000));
                let s = u.hypot(v);
                // 5 modes × 2.5 + mean 4 per component → well under 25 m/s.
                assert!(s < 25.0, "wind {s} m/s");
            }
        }
    }

    #[test]
    fn smooth_in_space() {
        let f = field();
        let p = GeoPoint::new(25.0, 37.0);
        let q = GeoPoint::new(25.01, 37.0);
        let (u1, v1) = f.wind_at(&p, TimeMs(0));
        let (u2, v2) = f.wind_at(&q, TimeMs(0));
        assert!((u1 - u2).abs() < 0.5);
        assert!((v1 - v2).abs() < 0.5);
    }

    #[test]
    fn varies_in_time() {
        let f = field();
        let p = GeoPoint::new(25.0, 37.0);
        let a = f.wind_at(&p, TimeMs(0));
        let b = f.wind_at(&p, TimeMs::from_hours(12));
        assert_ne!(a, b);
    }

    #[test]
    fn rejects_bad_grid() {
        assert!(WeatherGrid::new(BoundingBox::EMPTY, 0.5, 1).is_none());
        assert!(WeatherGrid::new(BoundingBox::new(0.0, 0.0, 1.0, 1.0), 0.0, 1).is_none());
    }
}
