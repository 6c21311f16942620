//! Secondary indexes over typed literals: spatial (R-tree) and temporal
//! (sorted runs). These power `FILTER st_within` / `t_between` pushdown.

use crate::dict::TermId;
use crate::merge::merge_sorted_run;
use datacron_geo::FxHashSet;
use datacron_geo::{BoundingBox, GeoPoint, RTree, RTreeEntry, TimeInterval, TimeMs};

/// A spatial index over point literals.
///
/// New points buffer in a tail; queries lazily rebuild the R-tree when the
/// tail grows past a threshold, otherwise they scan it linearly — the same
/// amortised-bulk pattern as the triple indexes.
#[derive(Debug, Default)]
pub struct SpatialIndex {
    tree: RTree<TermId>,
    tail: Vec<(GeoPoint, TermId)>,
    /// R-tree bulk loads since this index was built.
    builds: u64,
}

const SPATIAL_TAIL_LIMIT: usize = 8 * 1024;

impl SpatialIndex {
    /// An index over all of `points` at once, for snapshot restore: one
    /// R-tree bulk load (none when empty) and an empty tail.
    pub(crate) fn from_points(points: Vec<(GeoPoint, TermId)>) -> Self {
        let mut idx = Self {
            tail: points,
            ..Self::default()
        };
        idx.rebuild();
        idx
    }

    /// R-tree bulk loads since this index was built: one per tail fold,
    /// and one for a restore.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Registers a point literal.
    pub fn insert(&mut self, id: TermId, p: GeoPoint) {
        self.tail.push((p, id));
        if self.tail.len() >= SPATIAL_TAIL_LIMIT {
            self.rebuild();
        }
    }

    /// Number of indexed point literals.
    pub fn len(&self) -> usize {
        self.tree.len() + self.tail.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds the tail into the R-tree.
    pub fn rebuild(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        // Every entry of the old tree, wherever its point lies: the
        // dictionary accepts any `f64` pair as a point literal.
        let mut entries = std::mem::take(&mut self.tree).into_entries();
        entries.extend(self.tail.drain(..).map(|(p, id)| RTreeEntry::point(p, id)));
        self.tree = RTree::bulk_load(entries);
        self.builds += 1;
    }

    /// Ids of point literals inside `bbox`.
    pub fn within(&self, bbox: &BoundingBox) -> FxHashSet<TermId> {
        let mut out = FxHashSet::default();
        self.tree.for_each_in(bbox, |e| {
            out.insert(e.item);
        });
        for (p, id) in &self.tail {
            if bbox.contains(p) {
                out.insert(*id);
            }
        }
        out
    }

    /// Ids of point literals within `radius_m` of `center`
    /// ([`GeoPoint::haversine_m`]).
    pub fn near(&self, center: &GeoPoint, radius_m: f64) -> FxHashSet<TermId> {
        // Prefilter by the box around the radius and its copies 360° east
        // and west (they hold points only where the box crosses the
        // antimeridian); refine by distance.
        let reach = BoundingBox::around(center, radius_m);
        let mut out = FxHashSet::default();
        for shift in [0.0, 360.0, -360.0] {
            let bbox = BoundingBox {
                min_lon: reach.min_lon + shift,
                max_lon: reach.max_lon + shift,
                ..reach
            };
            self.tree.for_each_in(&bbox, |e| {
                if e.bbox.center().haversine_m(center) <= radius_m {
                    out.insert(e.item);
                }
            });
        }
        for (p, id) in &self.tail {
            if p.haversine_m(center) <= radius_m {
                out.insert(*id);
            }
        }
        out
    }
}

/// A temporal index over time literals: a sorted run plus an unsorted tail.
#[derive(Debug, Default)]
pub struct TemporalIndex {
    sorted: Vec<(TimeMs, TermId)>,
    tail: Vec<(TimeMs, TermId)>,
}

const TEMPORAL_TAIL_LIMIT: usize = 8 * 1024;

impl TemporalIndex {
    /// An index over all of `instants` at once, for snapshot restore:
    /// one sort and an empty tail.
    pub(crate) fn from_instants(mut instants: Vec<(TimeMs, TermId)>) -> Self {
        instants.sort_unstable();
        Self {
            sorted: instants,
            tail: Vec::new(),
        }
    }

    /// Registers a time literal.
    pub fn insert(&mut self, id: TermId, t: TimeMs) {
        self.tail.push((t, id));
        if self.tail.len() >= TEMPORAL_TAIL_LIMIT {
            self.rebuild();
        }
    }

    /// Number of indexed time literals.
    pub fn len(&self) -> usize {
        self.sorted.len() + self.tail.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds the tail into the sorted run.
    pub fn rebuild(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        self.tail.sort_unstable();
        merge_sorted_run(&mut self.sorted, &self.tail);
        self.tail.clear();
    }

    /// Ids of time literals inside the half-open `interval`.
    pub fn between(&self, interval: &TimeInterval) -> FxHashSet<TermId> {
        let mut out = FxHashSet::default();
        let start = self.sorted.partition_point(|&(t, _)| t < interval.start);
        for &(t, id) in &self.sorted[start..] {
            if t >= interval.end {
                break;
            }
            out.insert(id);
        }
        for &(t, id) in &self.tail {
            if interval.contains(t) {
                out.insert(id);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_within_basic() {
        let mut idx = SpatialIndex::default();
        idx.insert(TermId(1), GeoPoint::new(23.0, 37.0));
        idx.insert(TermId(2), GeoPoint::new(25.0, 38.0));
        idx.insert(TermId(3), GeoPoint::new(40.0, 50.0));
        let hits = idx.within(&BoundingBox::new(22.0, 36.0, 26.0, 39.0));
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&TermId(1)) && hits.contains(&TermId(2)));
    }

    #[test]
    fn spatial_within_after_rebuild() {
        let mut idx = SpatialIndex::default();
        for i in 0..100 {
            idx.insert(TermId(i), GeoPoint::new(23.0 + 0.01 * i as f64, 37.0));
        }
        idx.rebuild();
        // Mix of tree + fresh tail.
        idx.insert(TermId(1000), GeoPoint::new(23.05, 37.0));
        let hits = idx.within(&BoundingBox::new(23.0, 36.9, 23.1, 37.1));
        assert!(hits.contains(&TermId(1000)));
        assert!(hits.contains(&TermId(0)));
        assert!(hits.contains(&TermId(10)));
        assert!(!hits.contains(&TermId(50)));
        assert_eq!(idx.len(), 101);
    }

    #[test]
    fn spatial_rebuild_keeps_points_outside_the_lon_lat_box() {
        // The dictionary accepts any `f64` pair as a point literal; two
        // rebuilds must not lose the one at lon 200.
        let far = TermId(u32::MAX);
        let around_far = BoundingBox::new(199.0, 36.0, 201.0, 38.0);
        let mut idx = SpatialIndex::default();
        idx.insert(far, GeoPoint::new(200.0, 37.0));
        assert!(idx.within(&around_far).contains(&far));
        for i in 0..2 * SPATIAL_TAIL_LIMIT {
            idx.insert(
                TermId(u32::try_from(i).unwrap()),
                GeoPoint::new(20.0 + (i % 100) as f64 * 0.01, 37.0),
            );
            // The tail folds into the tree at every SPATIAL_TAIL_LIMIT-th
            // insert: the far point goes in at the first rebuild and is
            // carried over by the second.
            assert_eq!(idx.len(), i + 2);
        }
        assert_eq!(idx.tree.len(), 2 * SPATIAL_TAIL_LIMIT, "both rebuilds ran");
        assert_eq!(idx.len(), 2 * SPATIAL_TAIL_LIMIT + 1);
        assert_eq!(idx.within(&around_far).len(), 1);
        assert!(idx.within(&around_far).contains(&far));
    }

    #[test]
    fn spatial_near_refines_by_distance() {
        let mut idx = SpatialIndex::default();
        let c = GeoPoint::new(24.0, 37.0);
        idx.insert(TermId(1), c.destination(90.0, 500.0));
        idx.insert(TermId(2), c.destination(90.0, 2_000.0));
        idx.insert(TermId(3), c.destination(0.0, 900.0));
        let hits = idx.near(&c, 1_000.0);
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&TermId(1)) && hits.contains(&TermId(3)));
        // After rebuild, same answer via the tree path.
        idx.rebuild();
        assert_eq!(idx.near(&c, 1_000.0), hits);
    }

    #[test]
    fn temporal_between_half_open() {
        let mut idx = TemporalIndex::default();
        for i in 0..10 {
            idx.insert(TermId(i), TimeMs(i as i64 * 100));
        }
        idx.rebuild();
        let hits = idx.between(&TimeInterval::new(TimeMs(200), TimeMs(500)));
        // 200, 300, 400 — 500 excluded.
        assert_eq!(hits.len(), 3);
        assert!(hits.contains(&TermId(2)));
        assert!(hits.contains(&TermId(4)));
        assert!(!hits.contains(&TermId(5)));
    }

    #[test]
    fn temporal_mixed_sorted_and_tail() {
        let mut idx = TemporalIndex::default();
        idx.insert(TermId(1), TimeMs(100));
        idx.rebuild();
        idx.insert(TermId(2), TimeMs(150));
        let hits = idx.between(&TimeInterval::new(TimeMs(0), TimeMs(200)));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn temporal_rebuild_keeps_between_answers_with_out_of_order_inserts() {
        let mut idx = TemporalIndex::default();
        // Three rounds, each inserted out of time order and overlapping the
        // rounds before it, so every rebuild merges below, between and
        // above the sorted run. Instants repeat under different ids.
        let mut id = 0u32;
        for round in 0..3i64 {
            for k in (0..200i64).rev() {
                let t = (k * 37 + round * 11) % 500;
                idx.insert(TermId(id), TimeMs(t * 10));
                id += 1;
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
                .map(|&(a, b)| idx.between(&TimeInterval::new(TimeMs(a), TimeMs(b))))
                .collect();
            idx.rebuild();
            assert!(idx.tail.is_empty());
            assert!(idx.sorted.windows(2).all(|w| w[0] <= w[1]));
            for (&(a, b), want) in intervals.iter().zip(&before) {
                let got = idx.between(&TimeInterval::new(TimeMs(a), TimeMs(b)));
                assert_eq!(&got, want, "[{a}, {b}) after rebuild {round}");
            }
            assert_eq!(before[0].len(), idx.len());
        }
    }

    #[test]
    fn bulk_built_indexes_answer_like_inserted_ones() {
        let (mut spatial, mut temporal) = (SpatialIndex::default(), TemporalIndex::default());
        let (mut points, mut instants) = (Vec::new(), Vec::new());
        for i in 0..(2 * SPATIAL_TAIL_LIMIT + 1) {
            let id = TermId(u32::try_from(i).unwrap());
            let p = GeoPoint::new(20.0 + (i % 97) as f64 * 0.01, 37.0 + (i % 89) as f64 * 0.01);
            let t = TimeMs(i64::try_from((i * 7_919) % 10_007).unwrap());
            spatial.insert(id, p);
            temporal.insert(id, t);
            points.push((p, id));
            instants.push((t, id));
        }
        assert_eq!(spatial.builds(), 2, "inserts fold the tail twice");
        let (bulk_spatial, bulk_temporal) = (
            SpatialIndex::from_points(points),
            TemporalIndex::from_instants(instants),
        );
        assert_eq!(bulk_spatial.builds(), 1);
        assert!(bulk_spatial.tail.is_empty() && bulk_temporal.tail.is_empty());
        let bbox = BoundingBox::new(20.2, 37.1, 20.5, 37.6);
        assert_eq!(bulk_spatial.within(&bbox), spatial.within(&bbox));
        let c = GeoPoint::new(20.4, 37.4);
        assert_eq!(bulk_spatial.near(&c, 5_000.0), spatial.near(&c, 5_000.0));
        let w = TimeInterval::new(TimeMs(1_000), TimeMs(1_500));
        assert_eq!(bulk_temporal.between(&w), temporal.between(&w));
        assert_eq!(SpatialIndex::from_points(Vec::new()).builds(), 0);
    }

    #[test]
    fn empty_indexes() {
        let s = SpatialIndex::default();
        assert!(s.is_empty());
        assert!(s.within(&BoundingBox::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        let t = TemporalIndex::default();
        assert!(t.is_empty());
        assert!(t
            .between(&TimeInterval::new(TimeMs(0), TimeMs(100)))
            .is_empty());
    }

    #[test]
    fn spatial_autorebuild_at_limit() {
        let mut idx = SpatialIndex::default();
        for i in 0..(super::SPATIAL_TAIL_LIMIT + 10) {
            idx.insert(
                TermId(i as u32),
                GeoPoint::new(20.0 + (i % 100) as f64 * 0.01, 37.0),
            );
        }
        assert_eq!(idx.len(), super::SPATIAL_TAIL_LIMIT + 10);
        let hits = idx.within(&BoundingBox::new(19.0, 36.0, 22.0, 38.0));
        assert_eq!(hits.len(), super::SPATIAL_TAIL_LIMIT + 10);
    }
}
