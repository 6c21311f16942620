//! Secondary indexes over typed literals, behind `FILTER st_within`,
//! `st_near` and `t_between` pushdown. Both are sorted key runs in the
//! graph's own two-level shape (a base and a delta, folded like SPO/POS/
//! OSP), read here through borrowed views:
//!
//! * [`SpatialIndex`] keys a point literal by the Z-order (bit-interleaved)
//!   key of its (lon, lat), each axis quantised to 32 bits, then its
//!   [`TermId`]. A box becomes the key range between its corners' keys; a
//!   scan of that range jumps past keys outside the box with BIGMIN and
//!   refines every hit on the point decoded from the dictionary. The
//!   quantisation saturates, so a point outside [-180, 180] × [-90, 90]
//!   (or with a NaN or infinite coordinate) sits on an edge cell and is
//!   refined like any other.
//! * [`TemporalIndex`] keys a time literal by its instant, then its id; an
//!   interval is one range per level.
//!
//! Both hold the point and time literals encoded before the graph's last
//! commit. A read answers a sorted, duplicate-free id run.

use crate::dict::{Dictionary, TermId};
use crate::term::Term;
use datacron_geo::{BoundingBox, GeoPoint, TimeInterval, TimeMs};

/// A spatial index key: the Z-order key of the point's cell, then its id.
pub(crate) type PointKey = (u64, u32);

/// A temporal index key: the instant in milliseconds, then its id.
pub(crate) type InstantKey = (i64, u32);

/// The cell of `v` on an axis from `min` to `min + span`, in 2³² steps.
/// Monotone, so a point inside a box has its cell inside the box's cells;
/// the `as` cast saturates (below `min` and NaN to 0, from `min + span` up
/// to `u32::MAX`).
fn cell(v: f64, min: f64, span: f64) -> u32 {
    ((v - min) / span * 4_294_967_296.0) as u32
}

/// The (lon, lat) cell of a coordinate pair.
fn cells(lon: f64, lat: f64) -> (u32, u32) {
    (cell(lon, -180.0, 360.0), cell(lat, -90.0, 180.0))
}

/// `v`'s bits spread onto the even bits of a `u64`.
fn spread(v: u32) -> u64 {
    let mut x = u64::from(v);
    x = (x | x << 16) & 0x0000_FFFF_0000_FFFF;
    x = (x | x << 8) & 0x00FF_00FF_00FF_00FF;
    x = (x | x << 4) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555
}

/// The even bits of `z`, packed: the inverse of [`spread`].
fn squash(z: u64) -> u32 {
    let mut x = z & 0x5555_5555_5555_5555;
    x = (x | x >> 1) & 0x3333_3333_3333_3333;
    x = (x | x >> 2) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | x >> 4) & 0x00FF_00FF_00FF_00FF;
    x = (x | x >> 8) & 0x0000_FFFF_0000_FFFF;
    (x | x >> 16) as u32
}

/// The Z-order key of a cell: longitude on the even bits, latitude on the
/// odd ones.
fn z_order((x, y): (u32, u32)) -> u64 {
    spread(x) | spread(y) << 1
}

/// The spatial index key of point literal `id`.
pub(crate) fn point_key(p: &GeoPoint, id: TermId) -> PointKey {
    (z_order(cells(p.lon, p.lat)), id.raw())
}

/// The temporal index key of time literal `id`.
pub(crate) fn instant_key(t: TimeMs, id: TermId) -> InstantKey {
    (t.millis(), id.raw())
}

/// True when the cell behind Z-order key `z` lies in the cell box `lo..=hi`.
fn in_cells(z: u64, lo: (u32, u32), hi: (u32, u32)) -> bool {
    let (x, y) = (squash(z), squash(z >> 1));
    lo.0 <= x && x <= hi.0 && lo.1 <= y && y <= hi.1
}

/// BIGMIN (Tropf and Herzog, 1981): the least Z-order key above `z` whose
/// cell lies in the box with corner keys `lo` and `hi`, for a `z` between
/// them whose cell does not; `u64::MAX` when there is none. One pass from
/// the top bit: where `lo` and `hi` differ, the box splits in two along
/// that bit's axis, and `z`'s bit says which half holds it.
fn bigmin(z: u64, mut lo: u64, mut hi: u64) -> u64 {
    let mut next = u64::MAX;
    for bit in (0..64).rev() {
        let m = 1u64 << bit;
        // The lower bits of `bit`'s axis: the even ones for longitude,
        // the odd ones for latitude.
        let axis = if bit % 2 == 0 {
            0x5555_5555_5555_5555
        } else {
            0xAAAA_AAAA_AAAA_AAAA
        };
        let below = (m - 1) & axis;
        match (z & m != 0, lo & m != 0, hi & m != 0) {
            // `z` is in the lower half: the upper half's least key is the
            // answer unless the lower half has one.
            (false, false, true) => {
                next = (lo & !below) | m;
                hi = (hi & !m) | below;
            }
            // The box lies wholly above `z`.
            (false, true, true) => return lo,
            // The box lies wholly below `z`.
            (true, false, false) => return next,
            // `z` is in the upper half: search it.
            (true, false, true) => lo = (lo & !below) | m,
            _ => {}
        }
    }
    next
}

/// Calls `hit` with the id of each key of the sorted `level` whose cell
/// lies in the cell box `lo..=hi`: a scan of the keys from `lo`'s to
/// `hi`'s that jumps with [`bigmin`] past each run outside the box.
fn scan(level: &[PointKey], lo: (u32, u32), hi: (u32, u32), hit: &mut impl FnMut(u32)) {
    let (z_lo, z_hi) = (z_order(lo), z_order(hi));
    let mut i = level.partition_point(|k| k.0 < z_lo);
    while let Some(&(z, id)) = level.get(i) {
        if z > z_hi {
            break;
        }
        if in_cells(z, lo, hi) {
            hit(id);
            i += 1;
        } else {
            let next = bigmin(z, z_lo, z_hi);
            i += level[i..].partition_point(|k| k.0 < next);
        }
    }
}

/// The spatial index of a [`crate::Graph`]: its committed point literals,
/// in two sorted levels.
#[derive(Debug, Clone, Copy)]
pub struct SpatialIndex<'a> {
    pub(crate) levels: [&'a [PointKey]; 2],
    pub(crate) dict: &'a Dictionary,
}

impl SpatialIndex<'_> {
    /// Number of indexed point literals.
    pub fn len(&self) -> usize {
        self.levels[0].len() + self.levels[1].len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends to `out` each point literal `keep` accepts among those whose
    /// cell lies in `bbox`'s cells, a superset of those inside `bbox`.
    fn hits(&self, bbox: &BoundingBox, keep: impl Fn(GeoPoint) -> bool, out: &mut Vec<TermId>) {
        let (lo, hi) = (
            cells(bbox.min_lon, bbox.min_lat),
            cells(bbox.max_lon, bbox.max_lat),
        );
        if lo.0 > hi.0 || lo.1 > hi.1 {
            return;
        }
        let mut hit = |id: u32| {
            let id = TermId(id);
            let point = self.dict.decode(id).and_then(Term::as_point);
            if point.is_some_and(&keep) {
                out.push(id);
            }
        };
        for level in self.levels {
            scan(level, lo, hi, &mut hit);
        }
    }

    /// Ids of point literals inside `bbox`, ascending.
    pub fn within(&self, bbox: &BoundingBox) -> Vec<TermId> {
        let mut out = Vec::new();
        self.hits(bbox, |p| bbox.contains(&p), &mut out);
        out.sort_unstable();
        out
    }

    /// Ids of point literals within `radius_m` of `center`
    /// ([`GeoPoint::haversine_m`]), ascending.
    pub fn near(&self, center: &GeoPoint, radius_m: f64) -> Vec<TermId> {
        // Prefilter by the box around the radius and its copies 360° east
        // and west (they hold points only where the box crosses the
        // antimeridian, and the edge cells past ±180°); refine by distance.
        // The box is built around the centre's longitude wrapped into
        // [-180°, 180°), as the haversine distance sees it (-356° is 4°).
        // Two boxes share the saturated edge cell: a point on it may repeat.
        let lon = (center.lon + 180.0).rem_euclid(360.0) - 180.0;
        let reach = BoundingBox::around(&GeoPoint::new(lon, center.lat), radius_m);
        let mut out = Vec::new();
        for shift in [0.0, 360.0, -360.0] {
            let bbox = BoundingBox {
                min_lon: reach.min_lon + shift,
                max_lon: reach.max_lon + shift,
                ..reach
            };
            self.hits(&bbox, |p| p.haversine_m(center) <= radius_m, &mut out);
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The temporal index of a [`crate::Graph`]: its committed time literals,
/// in two sorted levels.
#[derive(Debug, Clone, Copy)]
pub struct TemporalIndex<'a> {
    pub(crate) levels: [&'a [InstantKey]; 2],
}

impl TemporalIndex<'_> {
    /// Number of indexed time literals.
    pub fn len(&self) -> usize {
        self.levels[0].len() + self.levels[1].len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids of time literals inside the half-open `interval`, ascending.
    pub fn between(&self, interval: &TimeInterval) -> Vec<TermId> {
        let (start, end) = (interval.start.millis(), interval.end.millis());
        let mut out = Vec::new();
        for level in self.levels {
            let a = level.partition_point(|k| k.0 < start);
            let b = a + level[a..].partition_point(|k| k.0 < end);
            out.extend(level[a..b].iter().map(|&(_, id)| TermId(id)));
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_binary, to_binary, Graph};
    use datacron_geo::Rng;

    fn point(g: &mut Graph, lon: f64, lat: f64) -> TermId {
        g.encode(&Term::point(GeoPoint::new(lon, lat)))
    }

    fn instant(g: &mut Graph, ms: i64) -> TermId {
        g.encode(&Term::time(TimeMs(ms)))
    }

    #[test]
    fn spatial_within_basic() {
        let mut g = Graph::new();
        let a = point(&mut g, 23.0, 37.0);
        let b = point(&mut g, 25.0, 38.0);
        point(&mut g, 40.0, 50.0);
        g.commit();
        let hits = g
            .spatial()
            .within(&BoundingBox::new(22.0, 36.0, 26.0, 39.0));
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&a) && hits.contains(&b));
    }

    #[test]
    fn spatial_within_after_rebuild() {
        let mut g = Graph::new();
        let ids: Vec<TermId> = (0..100)
            .map(|i| point(&mut g, 23.0 + 0.01 * i as f64, 37.0))
            .collect();
        g.commit();
        // A second commit puts a point in the delta level.
        let fresh = point(&mut g, 23.055, 37.0);
        g.commit();
        let hits = g
            .spatial()
            .within(&BoundingBox::new(23.0, 36.9, 23.1, 37.1));
        assert!(hits.contains(&fresh));
        assert!(hits.contains(&ids[0]));
        assert!(hits.contains(&ids[10]));
        assert!(!hits.contains(&ids[50]));
        assert_eq!(g.spatial().len(), 101);
    }

    #[test]
    fn spatial_near_refines_by_distance() {
        let mut g = Graph::new();
        let c = GeoPoint::new(24.0, 37.0);
        let a = g.encode(&Term::point(c.destination(90.0, 500.0)));
        g.encode(&Term::point(c.destination(90.0, 2_000.0)));
        let b = g.encode(&Term::point(c.destination(0.0, 900.0)));
        g.commit();
        let hits = g.spatial().near(&c, 1_000.0);
        assert_eq!(hits, [a, b]);
    }

    #[test]
    fn temporal_between_half_open() {
        let mut g = Graph::new();
        let ids: Vec<TermId> = (0..10).map(|i| instant(&mut g, i * 100)).collect();
        g.commit();
        let hits = g
            .temporal()
            .between(&TimeInterval::new(TimeMs(200), TimeMs(500)));
        // 200, 300, 400 — 500 excluded.
        assert_eq!(hits.len(), 3);
        assert!(hits.contains(&ids[2]));
        assert!(hits.contains(&ids[4]));
        assert!(!hits.contains(&ids[5]));
    }

    /// An instant encoded after the last commit is not answered until the
    /// next one, which puts it in the delta beside the base's.
    #[test]
    fn temporal_mixed_sorted_and_tail() {
        let mut g = Graph::new();
        let first = instant(&mut g, 100);
        g.commit();
        let second = instant(&mut g, 150);
        let window = TimeInterval::new(TimeMs(0), TimeMs(200));
        assert_eq!(g.temporal().between(&window), [first]);
        g.commit();
        assert_eq!(g.temporal().between(&window), [first, second]);
    }

    #[test]
    fn temporal_rebuild_keeps_between_answers_with_out_of_order_inserts() {
        let mut g = Graph::new();
        let mut encoded: Vec<(i64, TermId)> = Vec::new();
        // Three rounds, each encoded out of time order and overlapping the
        // rounds before it, so every commit merges below, between and
        // above the sorted levels. Repeated instants keep their one id.
        for round in 0..3i64 {
            for k in (0..200i64).rev() {
                let ms = (k * 37 + round * 11) % 500 * 10;
                encoded.push((ms, instant(&mut g, ms)));
            }
            g.commit();
            let idx = g.temporal();
            for level in idx.levels {
                assert!(level.windows(2).all(|w| w[0] < w[1]));
            }
            for (a, b) in [
                (0, 5_000),
                (0, 1),
                (1_230, 1_240),
                (2_000, 3_500),
                (4_990, 9_000),
            ] {
                let mut want: Vec<TermId> = encoded
                    .iter()
                    .filter(|&&(ms, _)| a <= ms && ms < b)
                    .map(|&(_, id)| id)
                    .collect();
                want.sort_unstable();
                want.dedup();
                let got = idx.between(&TimeInterval::new(TimeMs(a), TimeMs(b)));
                assert_eq!(got, want, "[{a}, {b}) after commit {round}");
            }
        }
    }

    #[test]
    fn bulk_built_indexes_answer_like_inserted_ones() {
        let mut g = Graph::new();
        for i in 0..5_000usize {
            let s = Term::iri(format!("n{i}"));
            let p = GeoPoint::new(20.0 + (i % 97) as f64 * 0.01, 37.0 + (i % 89) as f64 * 0.01);
            let t = TimeMs(i64::try_from((i * 7_919) % 10_007).unwrap());
            g.insert(&s, &Term::iri("pos"), &Term::point(p));
            g.insert(&s, &Term::iri("at"), &Term::time(t));
            if i % 300 == 299 {
                g.commit();
            }
        }
        g.commit();
        let restored = from_binary(&to_binary(&g)).unwrap();
        let (spatial, temporal) = (restored.spatial(), restored.temporal());
        assert!(spatial.levels[1].is_empty() && temporal.levels[1].is_empty());
        let bbox = BoundingBox::new(20.2, 37.1, 20.5, 37.6);
        assert_eq!(spatial.within(&bbox), g.spatial().within(&bbox));
        let c = GeoPoint::new(20.4, 37.4);
        assert_eq!(spatial.near(&c, 5_000.0), g.spatial().near(&c, 5_000.0));
        let w = TimeInterval::new(TimeMs(1_000), TimeMs(1_500));
        assert_eq!(temporal.between(&w), g.temporal().between(&w));
    }

    #[test]
    fn empty_indexes() {
        let g = Graph::new();
        let s = g.spatial();
        assert!(s.is_empty());
        assert!(s.within(&BoundingBox::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        let t = g.temporal();
        assert!(t.is_empty());
        assert!(t
            .between(&TimeInterval::new(TimeMs(0), TimeMs(100)))
            .is_empty());
    }

    #[test]
    fn points_past_the_antimeridian_sit_on_the_edge_cells() {
        let mut g = Graph::new();
        // 200° is -160°, and -200° is 160°.
        let east = point(&mut g, 200.0, 37.0);
        let west = point(&mut g, -200.0, 37.0);
        point(&mut g, 179.0, 37.0);
        g.commit();
        let spatial = g.spatial();
        let within = |a, b| spatial.within(&BoundingBox::new(a, 36.0, b, 38.0));
        assert_eq!(within(199.0, 201.0), [east]);
        assert_eq!(within(-201.0, -199.0), [west]);
        // The haversine distance wraps, and the copy 360° over reaches
        // the edge cell.
        let near = |lon| spatial.near(&GeoPoint::new(lon, 37.0), 1_000.0);
        assert_eq!(near(-160.0), [east]);
        assert_eq!(near(160.0), [west]);
    }

    /// Every read answers a strictly ascending run, from the base and the
    /// delta alike. `near`'s boxes 360° apart both reach the saturated
    /// edge cell, where every point at lon 180° or past it sits: each is
    /// answered once.
    #[test]
    fn reads_answer_strictly_ascending_runs_of_distinct_ids() {
        let mut g = Graph::new();
        let edge: Vec<TermId> = [180.0, 180.02, 180.05, 180.1]
            .into_iter()
            .map(|lon| point(&mut g, lon, 37.0))
            .collect();
        point(&mut g, 179.0, 37.0);
        point(&mut g, 200.0, 37.0);
        g.commit();
        let near = |g: &Graph| g.spatial().near(&GeoPoint::new(179.9, 37.0), 20_000.0);
        assert_eq!(near(&g), edge, "base");
        // Points and instants out of id order, committed in batches.
        for i in (0..340i64).rev() {
            let (lon, lat) = (
                23.0 + (i * 37 % 100) as f64 * 0.01,
                37.0 + (i % 7) as f64 * 0.1,
            );
            point(&mut g, lon, lat);
            instant(&mut g, i * 53 % 1_000);
            if i % 100 == 50 {
                g.commit();
            }
        }
        g.commit();
        assert_eq!(near(&g), edge, "base and delta");
        let ascending = |ids: &[TermId]| ids.len() > 40 && ids.windows(2).all(|w| w[0] < w[1]);
        let hits = g
            .spatial()
            .within(&BoundingBox::new(23.2, 37.0, 23.8, 37.5));
        assert!(ascending(&hits), "{hits:?}");
        let hits = g
            .temporal()
            .between(&TimeInterval::new(TimeMs(100), TimeMs(990)));
        assert!(ascending(&hits), "{hits:?}");
    }

    #[test]
    fn cells_saturate_at_the_edges() {
        assert_eq!(cells(-180.0, -90.0), (0, 0));
        assert_eq!(cells(180.0, 90.0), (u32::MAX, u32::MAX));
        assert_eq!(cells(-200.0, f64::NAN), (0, 0));
        assert_eq!(cells(f64::INFINITY, 1e9), (u32::MAX, u32::MAX));
        assert_eq!(cells(0.0, 0.0), (1 << 31, 1 << 31));
        for (x, y) in [(0, 0), (1, 2), (u32::MAX, 7), (0xDEAD_BEEF, 0x0BAD_F00D)] {
            let z = z_order((x, y));
            assert_eq!((squash(z), squash(z >> 1)), (x, y));
        }
    }

    /// BIGMIN against the brute-force next key in every box of an 8 × 8
    /// grid, for every key between the box's corners outside it.
    #[test]
    fn bigmin_is_the_next_key_inside_the_box() {
        for (x0, x1, y0, y1) in (0..8u32)
            .flat_map(|x0| (x0..8).map(move |x1| (x0, x1)))
            .flat_map(|(x0, x1)| (0..8u32).map(move |y0| (x0, x1, y0)))
            .flat_map(|(x0, x1, y0)| (y0..8).map(move |y1| (x0, x1, y0, y1)))
        {
            let (lo, hi) = ((x0, y0), (x1, y1));
            let (z_lo, z_hi) = (z_order(lo), z_order(hi));
            for z in z_lo..=z_hi {
                if in_cells(z, lo, hi) {
                    continue;
                }
                let want = (z + 1..=z_hi)
                    .find(|&k| in_cells(k, lo, hi))
                    .unwrap_or(u64::MAX);
                assert_eq!(bigmin(z, z_lo, z_hi), want, "z {z} in {lo:?}..={hi:?}");
            }
        }
    }

    /// A range scan finds exactly the keys whose cells lie in the box.
    #[test]
    fn scan_finds_exactly_the_cells_in_the_box() {
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..64 {
            let mut level: Vec<PointKey> = (0..300u32)
                .map(|id| (z_order((rng.gen_range(0..64), rng.gen_range(0..64))), id))
                .collect();
            level.sort_unstable();
            let (x0, y0) = (rng.gen_range(0..64u32), rng.gen_range(0..64u32));
            let (lo, hi) = (
                (x0, y0),
                (x0 + rng.gen_range(0..8), y0 + rng.gen_range(0..8)),
            );
            let mut got = Vec::new();
            scan(&level, lo, hi, &mut |id| got.push(id));
            let want: Vec<u32> = level
                .iter()
                .filter(|k| in_cells(k.0, lo, hi))
                .map(|k| k.1)
                .collect();
            assert_eq!(got, want);
        }
    }
}
