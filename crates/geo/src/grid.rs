//! Equi-angular space tiling.
//!
//! A [`Grid`] divides a bounding region into fixed-size cells addressed by
//! [`CellId`]. Grids are the workhorse discretisation in this reproduction:
//! link-discovery blocking, spatial RDF partitioning, Markov-grid
//! forecasting and heatmap aggregation all tile space the same way.

use crate::bbox::BoundingBox;
use crate::point::GeoPoint;

/// A cell address within a [`Grid`]: column (x, west→east) and row
/// (y, south→north).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Column index.
    pub x: u32,
    /// Row index.
    pub y: u32,
}

impl CellId {
    /// Packs the cell address into a single `u64` (row-major), useful as a
    /// compact hash/partition key.
    pub fn pack(self) -> u64 {
        (u64::from(self.y) << 32) | u64::from(self.x)
    }

    /// Inverse of [`CellId::pack`].
    pub fn unpack(key: u64) -> CellId {
        CellId {
            x: (key & 0xFFFF_FFFF) as u32,
            y: (key >> 32) as u32,
        }
    }
}

/// A uniform lon/lat grid over a bounding region.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    extent: BoundingBox,
    cell_deg: f64,
    cols: u32,
    rows: u32,
}

impl Grid {
    /// Creates a grid over `extent` with square cells of `cell_deg` degrees.
    ///
    /// Returns `None` for non-positive cell sizes or empty extents.
    pub fn new(extent: BoundingBox, cell_deg: f64) -> Option<Self> {
        if cell_deg <= 0.0 || cell_deg.is_nan() || extent.is_empty() {
            return None;
        }
        let cols = (extent.width_deg() / cell_deg).ceil().max(1.0) as u32;
        let rows = (extent.height_deg() / cell_deg).ceil().max(1.0) as u32;
        Some(Self {
            extent,
            cell_deg,
            cols,
            rows,
        })
    }

    /// The infallible whole-earth fallback: 1° cells over
    /// (-180, -90)..(180, 90). Callers that must produce *some* grid when
    /// a configured extent turns out to be degenerate (empty region, NaN
    /// cell size) fall back to this instead of panicking.
    pub fn global() -> Self {
        Self {
            extent: BoundingBox::new(-180.0, -90.0, 180.0, 90.0),
            cell_deg: 1.0,
            cols: 360,
            rows: 180,
        }
    }

    /// The grid's extent.
    pub fn extent(&self) -> &BoundingBox {
        &self.extent
    }

    /// Cell edge length in degrees.
    pub fn cell_deg(&self) -> f64 {
        self.cell_deg
    }

    /// Number of columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// The cell containing `p`, or `None` when `p` is outside the extent.
    /// Points on the east/north boundary are assigned to the last cell.
    pub fn cell_of(&self, p: &GeoPoint) -> Option<CellId> {
        if !self.extent.contains(p) {
            return None;
        }
        let x = (((p.lon - self.extent.min_lon) / self.cell_deg) as u32).min(self.cols - 1);
        let y = (((p.lat - self.extent.min_lat) / self.cell_deg) as u32).min(self.rows - 1);
        Some(CellId { x, y })
    }

    /// Like [`Grid::cell_of`] but clamps points outside the extent to the
    /// nearest border cell. Never fails.
    pub fn cell_of_clamped(&self, p: &GeoPoint) -> CellId {
        let lon = p.lon.clamp(self.extent.min_lon, self.extent.max_lon);
        let lat = p.lat.clamp(self.extent.min_lat, self.extent.max_lat);
        self.cell_of(&GeoPoint::new(lon, lat))
            .expect("clamped point is inside extent")
    }

    /// The bounding box of a cell. Cells on the east/north edges may extend
    /// past the grid extent (the grid covers the extent with whole cells).
    pub fn cell_bbox(&self, cell: CellId) -> BoundingBox {
        let min_lon = self.extent.min_lon + f64::from(cell.x) * self.cell_deg;
        let min_lat = self.extent.min_lat + f64::from(cell.y) * self.cell_deg;
        BoundingBox::new(
            min_lon,
            min_lat,
            min_lon + self.cell_deg,
            min_lat + self.cell_deg,
        )
    }

    /// The centre of a cell.
    pub fn cell_center(&self, cell: CellId) -> GeoPoint {
        self.cell_bbox(cell).center()
    }

    /// The up-to-eight neighbouring cells (fewer on the grid border).
    pub fn neighbors(&self, cell: CellId) -> Vec<CellId> {
        let mut out = Vec::with_capacity(8);
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let nx = i64::from(cell.x) + dx;
                let ny = i64::from(cell.y) + dy;
                if nx >= 0 && ny >= 0 && (nx as u32) < self.cols && (ny as u32) < self.rows {
                    out.push(CellId {
                        x: nx as u32,
                        y: ny as u32,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_10x10() -> Grid {
        Grid::new(BoundingBox::new(0.0, 0.0, 10.0, 10.0), 1.0).unwrap()
    }

    #[test]
    fn construction_rules() {
        assert!(Grid::new(BoundingBox::new(0.0, 0.0, 10.0, 10.0), 0.0).is_none());
        assert!(Grid::new(BoundingBox::new(0.0, 0.0, 10.0, 10.0), -1.0).is_none());
        assert!(Grid::new(BoundingBox::EMPTY, 1.0).is_none());
        let g = grid_10x10();
        assert_eq!((g.cols(), g.rows()), (10, 10));
    }

    #[test]
    fn non_divisible_extent_rounds_up() {
        let g = Grid::new(BoundingBox::new(0.0, 0.0, 10.5, 3.2), 1.0).unwrap();
        assert_eq!((g.cols(), g.rows()), (11, 4));
    }

    #[test]
    fn cell_of_basics() {
        let g = grid_10x10();
        assert_eq!(
            g.cell_of(&GeoPoint::new(0.5, 0.5)),
            Some(CellId { x: 0, y: 0 })
        );
        assert_eq!(
            g.cell_of(&GeoPoint::new(9.99, 9.99)),
            Some(CellId { x: 9, y: 9 })
        );
        // Boundary points fold into the last cell.
        assert_eq!(
            g.cell_of(&GeoPoint::new(10.0, 10.0)),
            Some(CellId { x: 9, y: 9 })
        );
        assert_eq!(g.cell_of(&GeoPoint::new(10.1, 5.0)), None);
        assert_eq!(g.cell_of(&GeoPoint::new(-0.1, 5.0)), None);
    }

    #[test]
    fn cell_of_clamped_never_fails() {
        let g = grid_10x10();
        assert_eq!(
            g.cell_of_clamped(&GeoPoint::new(-100.0, -100.0)),
            CellId { x: 0, y: 0 }
        );
        assert_eq!(
            g.cell_of_clamped(&GeoPoint::new(100.0, 100.0)),
            CellId { x: 9, y: 9 }
        );
    }

    #[test]
    fn cell_bbox_round_trip() {
        let g = grid_10x10();
        let cell = CellId { x: 3, y: 7 };
        let bbox = g.cell_bbox(cell);
        assert_eq!(bbox, BoundingBox::new(3.0, 7.0, 4.0, 8.0));
        assert_eq!(g.cell_of(&bbox.center()), Some(cell));
        assert_eq!(g.cell_center(cell), GeoPoint::new(3.5, 7.5));
    }

    #[test]
    fn neighbors_interior_and_corner() {
        let g = grid_10x10();
        assert_eq!(g.neighbors(CellId { x: 5, y: 5 }).len(), 8);
        let corner = g.neighbors(CellId { x: 0, y: 0 });
        assert_eq!(corner.len(), 3);
        assert!(corner.contains(&CellId { x: 1, y: 0 }));
        assert!(corner.contains(&CellId { x: 0, y: 1 }));
        assert!(corner.contains(&CellId { x: 1, y: 1 }));
        assert_eq!(g.neighbors(CellId { x: 5, y: 0 }).len(), 5);
    }

    #[test]
    fn pack_unpack_round_trip() {
        for cell in [
            CellId { x: 0, y: 0 },
            CellId { x: 1, y: 2 },
            CellId {
                x: u32::MAX,
                y: 12345,
            },
        ] {
            assert_eq!(CellId::unpack(cell.pack()), cell);
        }
    }
}
