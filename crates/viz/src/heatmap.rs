//! Streaming density grids and hotspot extraction.

use datacron_geo::{CellId, GeoPoint, Grid};
use rustc_hash::FxHashMap;

/// A hotspot: a cell and its weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hotspot {
    /// The cell.
    pub cell: CellId,
    /// Cell centre.
    pub center: GeoPoint,
    /// Accumulated weight (counts).
    pub weight: f64,
}

/// A sparse density grid accumulating weighted point observations.
#[derive(Debug, Clone)]
pub struct DensityGrid {
    grid: Grid,
    cells: FxHashMap<u64, f64>,
    total: f64,
    dropped_outside: u64,
}

impl DensityGrid {
    /// Creates an empty density grid.
    pub fn new(grid: Grid) -> Self {
        Self {
            grid,
            cells: FxHashMap::default(),
            total: 0.0,
            dropped_outside: 0,
        }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Adds one observation with weight 1.
    pub fn add(&mut self, p: &GeoPoint) {
        self.add_weighted(p, 1.0);
    }

    /// Adds a trajectory segment: every cell the great-circle chord from
    /// `a` to `b` passes through receives weight 1 (sampled at half-cell
    /// resolution, deduplicating consecutive cells). This is the "hot
    /// paths" aggregation: point density over-weights slow traffic, while
    /// segment density weights distance travelled.
    pub fn add_segment(&mut self, a: &GeoPoint, b: &GeoPoint) {
        let cell_m = self.grid.cell_deg() * 111_000.0;
        let dist = a.haversine_m(b);
        let steps = ((dist / (cell_m / 2.0)).ceil() as usize).clamp(1, 10_000);
        let mut last_cell: Option<u64> = None;
        for i in 0..=steps {
            let f = i as f64 / steps as f64;
            let p = datacron_geo::point_along(a, b, f);
            match self.grid.cell_of(&p) {
                Some(cell) => {
                    let packed = cell.pack();
                    if last_cell != Some(packed) {
                        *self.cells.entry(packed).or_insert(0.0) += 1.0;
                        self.total += 1.0;
                        last_cell = Some(packed);
                    }
                }
                None => {
                    self.dropped_outside += 1;
                    last_cell = None;
                }
            }
        }
    }

    /// Adds a weighted observation. Points outside the extent are counted
    /// in [`DensityGrid::dropped_outside`] rather than silently clamped.
    pub fn add_weighted(&mut self, p: &GeoPoint, w: f64) {
        match self.grid.cell_of(p) {
            Some(cell) => {
                *self.cells.entry(cell.pack()).or_insert(0.0) += w;
                self.total += w;
            }
            None => self.dropped_outside += 1,
        }
    }

    /// Total accumulated weight.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Observations outside the grid extent.
    pub fn dropped_outside(&self) -> u64 {
        self.dropped_outside
    }

    /// Number of non-empty cells.
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// The weight of one cell.
    pub fn weight_of(&self, cell: CellId) -> f64 {
        self.cells.get(&cell.pack()).copied().unwrap_or(0.0)
    }

    /// The maximum cell weight (0 when empty).
    pub fn max_weight(&self) -> f64 {
        self.cells.values().fold(0.0, |a, &b| a.max(b))
    }

    /// The `k` heaviest cells, heaviest first (ties broken by cell id for
    /// determinism).
    pub fn top_k(&self, k: usize) -> Vec<Hotspot> {
        let mut entries: Vec<(u64, f64)> = self.cells.iter().map(|(&c, &w)| (c, w)).collect();
        entries.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        entries
            .into_iter()
            .take(k)
            .map(|(c, w)| {
                let cell = CellId::unpack(c);
                Hotspot {
                    cell,
                    center: self.grid.cell_center(cell),
                    weight: w,
                }
            })
            .collect()
    }

    /// Merges another grid of identical geometry into this one.
    ///
    /// Panics when the geometries differ (caller bug).
    pub fn merge(&mut self, other: &DensityGrid) {
        assert_eq!(self.grid, *other.grid(), "merging incompatible grids");
        for (&c, &w) in &other.cells {
            *self.cells.entry(c).or_insert(0.0) += w;
        }
        self.total += other.total;
        self.dropped_outside += other.dropped_outside;
    }

    /// Multiplies every cell by `factor` (exponential decay for streaming
    /// "recent activity" maps) and drops cells below `min_weight`.
    pub fn decay(&mut self, factor: f64, min_weight: f64) {
        self.total = 0.0;
        self.cells.retain(|_, w| {
            *w *= factor;
            if *w >= min_weight {
                self.total += *w;
                true
            } else {
                false
            }
        });
    }

    /// Exports the accumulator state for a persistence snapshot:
    /// `(packed cell, weight)` pairs in cell order (deterministic dumps)
    /// plus the dropped-outside counter. The grid geometry travels
    /// separately ([`DensityGrid::grid`]); the total is derived.
    pub fn export_state(&self) -> (Vec<(u64, f64)>, u64) {
        let mut cells: Vec<(u64, f64)> = self.cells.iter().map(|(&c, &w)| (c, w)).collect();
        cells.sort_unstable_by_key(|&(c, _)| c);
        (cells, self.dropped_outside)
    }

    /// Rebuilds a grid from exported state (the total is recomputed — it
    /// is always the sum of cell weights).
    pub fn from_state(grid: Grid, cells: Vec<(u64, f64)>, dropped_outside: u64) -> Self {
        let total = cells.iter().map(|&(_, w)| w).sum();
        Self {
            grid,
            cells: cells.into_iter().collect(),
            total,
            dropped_outside,
        }
    }

    /// Row-major dense snapshot (row 0 = south), for rendering.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let (cols, rows) = (self.grid.cols() as usize, self.grid.rows() as usize);
        let mut out = vec![vec![0.0; cols]; rows];
        for (&c, &w) in &self.cells {
            let cell = CellId::unpack(c);
            // Keys come from this grid in normal operation, but state can
            // be rebuilt from untrusted exports — drop foreign cells
            // instead of indexing out of bounds.
            if let Some(slot) = out
                .get_mut(cell.y as usize)
                .and_then(|row| row.get_mut(cell.x as usize))
            {
                *slot = w;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::BoundingBox;

    fn grid() -> Grid {
        Grid::new(BoundingBox::new(0.0, 0.0, 10.0, 10.0), 1.0).unwrap()
    }

    #[test]
    fn add_and_query() {
        let mut d = DensityGrid::new(grid());
        d.add(&GeoPoint::new(0.5, 0.5));
        d.add(&GeoPoint::new(0.6, 0.4));
        d.add(&GeoPoint::new(5.5, 5.5));
        assert_eq!(d.total(), 3.0);
        assert_eq!(d.occupied_cells(), 2);
        assert_eq!(d.weight_of(CellId { x: 0, y: 0 }), 2.0);
        assert_eq!(d.weight_of(CellId { x: 5, y: 5 }), 1.0);
        assert_eq!(d.weight_of(CellId { x: 9, y: 9 }), 0.0);
        assert_eq!(d.max_weight(), 2.0);
    }

    #[test]
    fn outside_points_counted_not_clamped() {
        let mut d = DensityGrid::new(grid());
        d.add(&GeoPoint::new(-5.0, 5.0));
        assert_eq!(d.total(), 0.0);
        assert_eq!(d.dropped_outside(), 1);
    }

    #[test]
    fn top_k_ordering_and_determinism() {
        let mut d = DensityGrid::new(grid());
        for _ in 0..5 {
            d.add(&GeoPoint::new(1.5, 1.5));
        }
        for _ in 0..3 {
            d.add(&GeoPoint::new(2.5, 2.5));
        }
        d.add(&GeoPoint::new(3.5, 3.5));
        let top = d.top_k(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].cell, CellId { x: 1, y: 1 });
        assert_eq!(top[0].weight, 5.0);
        assert_eq!(top[1].cell, CellId { x: 2, y: 2 });
        // k beyond occupancy.
        assert_eq!(d.top_k(100).len(), 3);
        // Centre is inside the cell.
        assert_eq!(top[0].center, GeoPoint::new(1.5, 1.5));
    }

    #[test]
    fn merge_adds_weights() {
        let mut a = DensityGrid::new(grid());
        let mut b = DensityGrid::new(grid());
        a.add(&GeoPoint::new(1.5, 1.5));
        b.add(&GeoPoint::new(1.5, 1.5));
        b.add(&GeoPoint::new(2.5, 2.5));
        a.merge(&b);
        assert_eq!(a.total(), 3.0);
        assert_eq!(a.weight_of(CellId { x: 1, y: 1 }), 2.0);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn merge_rejects_different_grids() {
        let mut a = DensityGrid::new(grid());
        let b = DensityGrid::new(Grid::new(BoundingBox::new(0.0, 0.0, 10.0, 10.0), 2.0).unwrap());
        a.merge(&b);
    }

    #[test]
    fn decay_shrinks_and_prunes() {
        let mut d = DensityGrid::new(grid());
        for _ in 0..4 {
            d.add(&GeoPoint::new(1.5, 1.5));
        }
        d.add(&GeoPoint::new(2.5, 2.5));
        d.decay(0.5, 1.0);
        assert_eq!(d.weight_of(CellId { x: 1, y: 1 }), 2.0);
        // 0.5 < min weight 1.0 → pruned.
        assert_eq!(d.weight_of(CellId { x: 2, y: 2 }), 0.0);
        assert_eq!(d.occupied_cells(), 1);
        assert_eq!(d.total(), 2.0);
    }

    #[test]
    fn dense_snapshot_layout() {
        let mut d = DensityGrid::new(grid());
        d.add(&GeoPoint::new(0.5, 9.5)); // north-west corner
        let dense = d.to_dense();
        assert_eq!(dense.len(), 10);
        assert_eq!(dense[9][0], 1.0, "row 9 is the north row");
        assert_eq!(dense[0][0], 0.0);
    }

    #[test]
    fn segment_marks_every_crossed_cell_once() {
        let mut d = DensityGrid::new(grid());
        // A horizontal chord crossing cells x = 1..=8 at y = 4.
        d.add_segment(&GeoPoint::new(1.5, 4.5), &GeoPoint::new(8.5, 4.5));
        assert_eq!(d.occupied_cells(), 8);
        for x in 1..=8 {
            assert_eq!(d.weight_of(CellId { x, y: 4 }), 1.0, "cell x={x}");
        }
    }

    #[test]
    fn segment_within_one_cell_counts_once() {
        let mut d = DensityGrid::new(grid());
        d.add_segment(&GeoPoint::new(2.1, 2.1), &GeoPoint::new(2.9, 2.9));
        assert_eq!(d.occupied_cells(), 1);
        assert_eq!(d.weight_of(CellId { x: 2, y: 2 }), 1.0);
    }

    #[test]
    fn segment_leaving_extent_counts_dropped() {
        let mut d = DensityGrid::new(grid());
        d.add_segment(&GeoPoint::new(9.5, 5.5), &GeoPoint::new(12.0, 5.5));
        assert!(d.dropped_outside() > 0);
        assert!(d.weight_of(CellId { x: 9, y: 5 }) >= 1.0);
    }

    #[test]
    fn state_round_trip() {
        let mut d = DensityGrid::new(grid());
        d.add(&GeoPoint::new(1.5, 1.5));
        d.add(&GeoPoint::new(1.5, 1.5));
        d.add_weighted(&GeoPoint::new(2.5, 2.5), 0.5);
        d.add(&GeoPoint::new(-5.0, 5.0)); // dropped
        let (cells, dropped) = d.export_state();
        let d2 = DensityGrid::from_state(grid(), cells, dropped);
        assert_eq!(d2.total(), d.total());
        assert_eq!(d2.dropped_outside(), 1);
        assert_eq!(d2.weight_of(CellId { x: 1, y: 1 }), 2.0);
        assert_eq!(d2.weight_of(CellId { x: 2, y: 2 }), 0.5);
        assert_eq!(d2.top_k(10), d.top_k(10));
    }

    #[test]
    fn weighted_adds() {
        let mut d = DensityGrid::new(grid());
        d.add_weighted(&GeoPoint::new(1.5, 1.5), 2.5);
        assert_eq!(d.total(), 2.5);
        assert_eq!(d.max_weight(), 2.5);
    }
}
