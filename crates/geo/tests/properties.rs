//! Property tests for the geometry substrate: each property runs on 256
//! seeded cases, and a failure names the seed that reproduces it.

use datacron_geo::{
    point_along, BoundingBox, CellId, GeoPoint, Grid, Polygon, Rng, TimeInterval, TimeMs,
    EARTH_RADIUS_M,
};

const CASES: u64 = 256;

fn arb_point(rng: &mut Rng) -> GeoPoint {
    GeoPoint::new(rng.gen_range(-179.0..179.0), rng.gen_range(-85.0..85.0))
}

fn arb_regional_point(rng: &mut Rng) -> GeoPoint {
    // A region the size of the Aegean, away from poles/antimeridian.
    GeoPoint::new(rng.gen_range(20.0..28.0), rng.gen_range(34.0..41.0))
}

/// `lens` points drawn by `point`.
fn arb_points(
    rng: &mut Rng,
    lens: std::ops::Range<usize>,
    point: fn(&mut Rng) -> GeoPoint,
) -> Vec<GeoPoint> {
    let n = rng.gen_range(lens);
    (0..n).map(|_| point(rng)).collect()
}

/// Two intervals `[s, s + d)` with `s` in `0..100` and `d` in `1..100`.
fn arb_intervals(rng: &mut Rng) -> (TimeInterval, TimeInterval) {
    let mut interval = || {
        let s = rng.gen_range(0i64..100);
        let d = rng.gen_range(1i64..100);
        TimeInterval::new(TimeMs(s), TimeMs(s + d))
    };
    (interval(), interval())
}

#[test]
fn haversine_triangle_inequality() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let (a, b, c) = (
            arb_point(&mut rng),
            arb_point(&mut rng),
            arb_point(&mut rng),
        );
        let ab = a.haversine_m(&b);
        let bc = b.haversine_m(&c);
        let ac = a.haversine_m(&c);
        // Allow a small absolute slack for floating error on near-degenerate triangles.
        assert!(ac <= ab + bc + 1e-4, "seed {seed}");
    }
}

#[test]
fn haversine_nonnegative_symmetric() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let (a, b) = (arb_point(&mut rng), arb_point(&mut rng));
        let d1 = a.haversine_m(&b);
        let d2 = b.haversine_m(&a);
        assert!(d1 >= 0.0, "seed {seed}");
        assert!((d1 - d2).abs() < 1e-6, "seed {seed}");
    }
}

#[test]
fn destination_distance_consistent() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let p = arb_regional_point(&mut rng);
        let bearing = rng.gen_range(0.0..360.0);
        let dist = rng.gen_range(1.0..200_000.0);
        let q = p.destination(bearing, dist);
        assert!(
            (p.haversine_m(&q) - dist).abs() < dist * 1e-6 + 0.01,
            "seed {seed}"
        );
    }
}

/// `BoundingBox::around` holds every point within the radius, by the
/// haversine and by the equirectangular distance, for centres up to 89.9°
/// of latitude and radii up to 1 000 km. Points are drawn at a random
/// bearing, most of them near the edge of the range. The box does not wrap
/// and the haversine distance does, so a haversine point may lie in the
/// box 360° over instead.
#[test]
fn radius_box_holds_every_point_in_range() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let center = GeoPoint::new(rng.gen_range(-180.0..180.0), rng.gen_range(-89.9..89.9));
        let radius_m = rng.gen_range(1.0..1_000_000.0);
        let bbox = BoundingBox::around(&center, radius_m);
        let inside = |p: GeoPoint| {
            [0.0, 360.0, -360.0]
                .iter()
                .any(|shift| bbox.contains(&GeoPoint::new(p.lon + shift, p.lat)))
        };
        for _ in 0..64 {
            let bearing: f64 = rng.gen_range(0.0..360.0);
            let d = radius_m * rng.f64().powf(0.25);
            let p = center.destination(bearing, d);
            if p.haversine_m(&center) <= radius_m {
                assert!(inside(p), "seed {seed}: {p:?} by haversine, {bbox:?}");
            }
            // The point `d` away by the equirectangular distance, if it is
            // a point on the globe.
            let lat = center.lat + (d * bearing.to_radians().cos() / EARTH_RADIUS_M).to_degrees();
            let mean_lat = ((center.lat + lat) / 2.0).to_radians();
            let dlon =
                (d * bearing.to_radians().sin() / (EARTH_RADIUS_M * mean_lat.cos())).to_degrees();
            let q = GeoPoint::new(center.lon + dlon, lat);
            if q.is_valid() && q.fast_dist2_m2(&center).sqrt() <= radius_m {
                assert!(
                    bbox.contains(&q),
                    "seed {seed}: {q:?} by fast_dist2, {bbox:?}"
                );
            }
        }
    }
}

#[test]
fn point_along_stays_on_segment() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let (a, b) = (arb_regional_point(&mut rng), arb_regional_point(&mut rng));
        let f = rng.f64();
        let m = point_along(&a, &b, f);
        let total = a.haversine_m(&b);
        let via = a.haversine_m(&m) + m.haversine_m(&b);
        // The interpolated point must not add length (within tolerance).
        assert!(
            via <= total + total * 1e-3 + 0.5,
            "seed {seed}: via {via} total {total}"
        );
    }
}

#[test]
fn normalized_always_valid() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let lon = rng.gen_range(-1000.0..1000.0);
        let lat = rng.gen_range(-200.0..200.0);
        assert!(
            GeoPoint::new(lon, lat).normalized().is_valid(),
            "seed {seed}"
        );
    }
}

#[test]
fn bbox_from_points_contains_all() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let pts = arb_points(&mut rng, 1..50, arb_point);
        let bbox = BoundingBox::from_points(pts.iter().copied()).unwrap();
        assert!(pts.iter().all(|p| bbox.contains(p)), "seed {seed}");
    }
}

#[test]
fn grid_cell_of_round_trips_through_bbox() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let p = arb_regional_point(&mut rng);
        let cell_deg = rng.gen_range(0.01..2.0);
        let grid = Grid::new(BoundingBox::new(20.0, 34.0, 28.0, 41.0), cell_deg).unwrap();
        let cell = grid.cell_of(&p).unwrap();
        let bbox = grid.cell_bbox(cell);
        assert!(
            bbox.contains(&p),
            "seed {seed}: cell bbox {bbox:?} missing {p:?}"
        );
        // Cell centre maps back to the same cell.
        assert_eq!(
            grid.cell_of_clamped(&grid.cell_center(cell)),
            cell,
            "seed {seed}"
        );
    }
}

#[test]
fn cellid_pack_unpack() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let c = CellId {
            x: rng.gen_range(0..=u32::MAX),
            y: rng.gen_range(0..=u32::MAX),
        };
        assert_eq!(CellId::unpack(c.pack()), c, "seed {seed}");
    }
}

#[test]
fn polygon_bbox_contains_polygon_points() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let pts = arb_points(&mut rng, 3..20, arb_regional_point);
        if let Some(poly) = Polygon::new(pts) {
            assert!(
                poly.ring().iter().all(|v| poly.bbox().contains(v)),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn circle_polygon_contains_interior_points() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let center = arb_regional_point(&mut rng);
        let radius = rng.gen_range(1_000.0..50_000.0);
        let bearing = rng.gen_range(0.0..360.0);
        let frac = rng.gen_range(0.0..0.8);
        let poly = Polygon::circle(center, radius, 36);
        let inside = center.destination(bearing, radius * frac);
        assert!(poly.contains(&inside), "seed {seed}");
        let outside = center.destination(bearing, radius * 1.3);
        assert!(!poly.contains(&outside), "seed {seed}");
    }
}

#[test]
fn allen_relations_partition() {
    use datacron_geo::AllenRelation::*;
    for seed in 0..CASES {
        let (a, b) = arb_intervals(&mut Rng::seed_from_u64(seed));
        // Exactly one relation holds, and it is consistent with overlaps().
        let rel = a.allen(&b);
        assert_eq!(rel.inverse(), b.allen(&a), "seed {seed}");
        let disjoint = matches!(rel, Before | After | Meets | MetBy);
        assert_eq!(a.overlaps(&b), !disjoint, "seed {seed}: rel {rel:?}");
    }
}

#[test]
fn interval_intersection_inside_both() {
    for seed in 0..CASES {
        let (a, b) = arb_intervals(&mut Rng::seed_from_u64(seed));
        if let Some(i) = a.intersection(&b) {
            assert!(i.start >= a.start && i.end <= a.end, "seed {seed}");
            assert!(i.start >= b.start && i.end <= b.end, "seed {seed}");
            assert!(a.overlaps(&b), "seed {seed}");
        } else {
            assert!(!a.overlaps(&b), "seed {seed}");
        }
    }
}
