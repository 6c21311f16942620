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
//! Literals encoded since the last commit are queued, unsorted, and each
//! read scans the queue too.

use crate::dict::{Dictionary, TermId};
use crate::term::Term;
use datacron_geo::{BoundingBox, FxHashSet, GeoPoint, TimeInterval, TimeMs};

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

/// The spatial index of a [`crate::Graph`]: its point literals, committed
/// (two sorted levels) and queued (unsorted).
#[derive(Debug, Clone, Copy)]
pub struct SpatialIndex<'a> {
    pub(crate) sorted: [&'a [PointKey]; 2],
    pub(crate) pending: &'a [PointKey],
    pub(crate) dict: &'a Dictionary,
}

impl SpatialIndex<'_> {
    /// Number of indexed point literals.
    pub fn len(&self) -> usize {
        self.sorted[0].len() + self.sorted[1].len() + self.pending.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `visit` with each point literal whose cell lies in `bbox`'s
    /// cells, a superset of those inside `bbox`.
    fn for_each_in(&self, bbox: &BoundingBox, mut visit: impl FnMut(TermId, GeoPoint)) {
        let (lo, hi) = (
            cells(bbox.min_lon, bbox.min_lat),
            cells(bbox.max_lon, bbox.max_lat),
        );
        if lo.0 > hi.0 || lo.1 > hi.1 {
            return;
        }
        let mut hit = |id: u32| {
            let id = TermId(id);
            if let Some(p) = self.dict.decode(id).and_then(Term::as_point) {
                visit(id, p);
            }
        };
        for level in self.sorted {
            scan(level, lo, hi, &mut hit);
        }
        for &(z, id) in self.pending {
            if in_cells(z, lo, hi) {
                hit(id);
            }
        }
    }

    /// Ids of point literals inside `bbox`.
    pub fn within(&self, bbox: &BoundingBox) -> FxHashSet<TermId> {
        let mut out = FxHashSet::default();
        self.for_each_in(bbox, |id, p| {
            if bbox.contains(&p) {
                out.insert(id);
            }
        });
        out
    }

    /// Ids of point literals within `radius_m` of `center`
    /// ([`GeoPoint::haversine_m`]).
    pub fn near(&self, center: &GeoPoint, radius_m: f64) -> FxHashSet<TermId> {
        // Prefilter by the box around the radius and its copies 360° east
        // and west (they hold points only where the box crosses the
        // antimeridian, and the edge cells past ±180°); refine by distance.
        let reach = BoundingBox::around(center, radius_m);
        let mut out = FxHashSet::default();
        for shift in [0.0, 360.0, -360.0] {
            let bbox = BoundingBox {
                min_lon: reach.min_lon + shift,
                max_lon: reach.max_lon + shift,
                ..reach
            };
            self.for_each_in(&bbox, |id, p| {
                if p.haversine_m(center) <= radius_m {
                    out.insert(id);
                }
            });
        }
        out
    }
}

/// The temporal index of a [`crate::Graph`]: its time literals, committed
/// (two sorted levels) and queued (unsorted).
#[derive(Debug, Clone, Copy)]
pub struct TemporalIndex<'a> {
    pub(crate) sorted: [&'a [InstantKey]; 2],
    pub(crate) pending: &'a [InstantKey],
}

impl TemporalIndex<'_> {
    /// Number of indexed time literals.
    pub fn len(&self) -> usize {
        self.sorted[0].len() + self.sorted[1].len() + self.pending.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids of time literals inside the half-open `interval`.
    pub fn between(&self, interval: &TimeInterval) -> FxHashSet<TermId> {
        let (start, end) = (interval.start.millis(), interval.end.millis());
        let mut out = FxHashSet::default();
        for level in self.sorted {
            let a = level.partition_point(|k| k.0 < start);
            let b = a + level[a..].partition_point(|k| k.0 < end);
            out.extend(level[a..b].iter().map(|&(_, id)| TermId(id)));
        }
        for &(t, id) in self.pending {
            if start <= t && t < end {
                out.insert(TermId(id));
            }
        }
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
        // Committed levels plus a queued point.
        let fresh = point(&mut g, 23.055, 37.0);
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
        let hits = g.spatial().near(&c, 1_000.0);
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&a) && hits.contains(&b));
        // After a commit, same answer from the sorted levels.
        g.commit();
        assert!(g.spatial().pending.is_empty());
        assert_eq!(g.spatial().near(&c, 1_000.0), hits);
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

    #[test]
    fn temporal_mixed_sorted_and_tail() {
        let mut g = Graph::new();
        instant(&mut g, 100);
        g.commit();
        instant(&mut g, 150);
        let hits = g
            .temporal()
            .between(&TimeInterval::new(TimeMs(0), TimeMs(200)));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn temporal_rebuild_keeps_between_answers_with_out_of_order_inserts() {
        let mut g = Graph::new();
        // Three rounds, each encoded out of time order and overlapping the
        // rounds before it, so every commit merges below, between and
        // above the sorted levels. Repeated instants keep their one id.
        for round in 0..3i64 {
            for k in (0..200i64).rev() {
                instant(&mut g, (k * 37 + round * 11) % 500 * 10);
            }
            let intervals = [
                (0, 5_000),
                (0, 1),
                (1_230, 1_240),
                (2_000, 3_500),
                (4_990, 9_000),
            ];
            let before: Vec<_> = intervals
                .iter()
                .map(|&(a, b)| {
                    g.temporal()
                        .between(&TimeInterval::new(TimeMs(a), TimeMs(b)))
                })
                .collect();
            g.commit();
            let idx = g.temporal();
            assert!(idx.pending.is_empty());
            for level in idx.sorted {
                assert!(level.windows(2).all(|w| w[0] < w[1]));
            }
            for (&(a, b), want) in intervals.iter().zip(&before) {
                let got = idx.between(&TimeInterval::new(TimeMs(a), TimeMs(b)));
                assert_eq!(&got, want, "[{a}, {b}) after commit {round}");
            }
            assert_eq!(before[0].len(), idx.len());
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
        let restored = from_binary(&to_binary(&g)).unwrap();
        let (spatial, temporal) = (restored.spatial(), restored.temporal());
        assert!(spatial.sorted[1].is_empty() && spatial.pending.is_empty());
        assert!(temporal.sorted[1].is_empty() && temporal.pending.is_empty());
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
        assert_eq!(within(199.0, 201.0), [east].into_iter().collect());
        assert_eq!(within(-201.0, -199.0), [west].into_iter().collect());
        // The haversine distance wraps, and the copy 360° over reaches
        // the edge cell.
        let near = |lon| spatial.near(&GeoPoint::new(lon, 37.0), 1_000.0);
        assert_eq!(near(-160.0), [east].into_iter().collect());
        assert_eq!(near(160.0), [west].into_iter().collect());
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
