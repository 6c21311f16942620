//! The live fleet by grid cell.
//!
//! The pair detectors ask, for every report, "who is near this vessel
//! right now?". [`FleetIndex`] files each object's latest fix under the
//! grid cell that holds it, so the answer costs the cells around the
//! reporter, not the fleet. The index decides nothing: a detector gets
//! every other object's fix in a block of cells, in `ObjectId` order,
//! and applies its own staleness and distance tests. Beside each fix it
//! keeps whatever the detector worked out from it once (`X`), so that is
//! not worked out again for every neighbour that reads the fix.

use datacron_geo::{CellId, Grid, TimeMs};
use datacron_model::{ObjectId, PositionReport};
use rustc_hash::FxHashMap;

/// Each object's latest fix, filed under the (clamped) cell of its position.
#[derive(Debug)]
pub(crate) struct FleetIndex<X> {
    grid: Grid,
    /// The packed cell each object's fix is filed under.
    home: FxHashMap<ObjectId, u64>,
    /// Latest fixes by packed cell; a cell with no fix has no entry.
    cells: FxHashMap<u64, Vec<(PositionReport, X)>>,
    /// Fixes handed to a detector so far (see [`FleetIndex::others_in`]).
    examined: u64,
}

impl<X: Copy> FleetIndex<X> {
    pub(crate) fn new(grid: Grid) -> Self {
        Self {
            grid,
            home: FxHashMap::default(),
            cells: FxHashMap::default(),
            examined: 0,
        }
    }

    pub(crate) fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Objects with a filed fix.
    pub(crate) fn len(&self) -> usize {
        self.home.len()
    }

    /// Fixes handed out by [`FleetIndex::others_in`] since construction.
    pub(crate) fn examined(&self) -> u64 {
        self.examined
    }

    /// Replaces the object's fix with `r` (and what goes with it) and
    /// returns the cell it is filed under. A report without a finite position has no cell: the object's
    /// previous fix is dropped (it is no longer its latest) and `None`
    /// comes back.
    pub(crate) fn upsert(&mut self, r: &PositionReport, extra: X) -> Option<CellId> {
        let cell = (r.lon.is_finite() && r.lat.is_finite())
            .then(|| self.grid.cell_of_clamped(&r.position()));
        let new = cell.map(CellId::pack);
        let old = match new {
            Some(key) => self.home.insert(r.object, key),
            None => self.home.remove(&r.object),
        };
        if let (Some(key), true) = (new, old == new) {
            // The common case: the vessel is still in its cell.
            if let Some(fix) = self
                .cells
                .get_mut(&key)
                .and_then(|fixes| fixes.iter_mut().find(|(f, _)| f.object == r.object))
            {
                *fix = (*r, extra);
            }
            return cell;
        }
        if let Some(key) = old {
            if let Some(fixes) = self.cells.get_mut(&key) {
                fixes.retain(|(f, _)| f.object != r.object);
                if fixes.is_empty() {
                    self.cells.remove(&key);
                }
            }
        }
        if let Some(key) = new {
            self.cells.entry(key).or_default().push((*r, extra));
        }
        cell
    }

    /// Fills `out` with every *other* object's fix filed in the cells
    /// `lo..=hi` (both corners inclusive), ordered by `ObjectId`.
    pub(crate) fn others_in(
        &mut self,
        lo: CellId,
        hi: CellId,
        me: ObjectId,
        out: &mut Vec<(PositionReport, X)>,
    ) {
        out.clear();
        if lo.x > hi.x || lo.y > hi.y {
            return;
        }
        let mut take = |fixes: &[(PositionReport, X)]| {
            out.extend(fixes.iter().filter(|(f, _)| f.object != me));
        };
        let block = u64::from(hi.x - lo.x + 1) * u64::from(hi.y - lo.y + 1);
        if block <= self.cells.len() as u64 {
            for y in lo.y..=hi.y {
                for x in lo.x..=hi.x {
                    if let Some(fixes) = self.cells.get(&CellId { x, y }.pack()) {
                        take(fixes);
                    }
                }
            }
        } else {
            // Fewer occupied cells than cells in the block (a small fleet,
            // or a range box stretched by a high latitude): walk those.
            for (&key, fixes) in &self.cells {
                let c = CellId::unpack(key);
                if (lo.x..=hi.x).contains(&c.x) && (lo.y..=hi.y).contains(&c.y) {
                    take(fixes);
                }
            }
        }
        self.examined += out.len() as u64;
        out.sort_unstable_by_key(|(f, _)| f.object);
    }

    /// Drops every fix whose time `expired` says is past keeping.
    pub(crate) fn prune(&mut self, mut expired: impl FnMut(TimeMs) -> bool) {
        let home = &mut self.home;
        self.cells.retain(|_, fixes| {
            fixes.retain(|(f, _)| {
                let keep = !expired(f.time);
                if !keep {
                    home.remove(&f.object);
                }
                keep
            });
            !fixes.is_empty()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{BoundingBox, GeoPoint};
    use datacron_model::{NavStatus, SourceId};

    fn fix(obj: u64, t: i64, lon: f64, lat: f64) -> PositionReport {
        PositionReport::maritime(
            ObjectId(obj),
            TimeMs(t),
            GeoPoint::new(lon, lat),
            1.0,
            0.0,
            SourceId::AIS_TERRESTRIAL,
            NavStatus::UnderWay,
        )
    }

    fn index() -> FleetIndex<()> {
        let grid = Grid::new(BoundingBox::new(0.0, 0.0, 10.0, 10.0), 1.0).expect("valid");
        FleetIndex::new(grid)
    }

    fn ids(out: &[(PositionReport, ())]) -> Vec<u64> {
        out.iter().map(|(f, _)| f.object.raw()).collect()
    }

    #[test]
    fn upsert_moves_an_object_between_cells_and_keeps_one_fix() {
        let mut ix = index();
        let mut out = Vec::new();
        assert_eq!(
            ix.upsert(&fix(1, 0, 2.5, 2.5), ()),
            Some(CellId { x: 2, y: 2 })
        );
        ix.upsert(&fix(1, 1, 2.6, 2.5), ());
        ix.upsert(&fix(1, 2, 7.5, 7.5), ());
        assert_eq!(ix.len(), 1);
        ix.others_in(
            CellId { x: 0, y: 0 },
            CellId { x: 9, y: 9 },
            ObjectId(9),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0.time, TimeMs(2));
        ix.others_in(
            CellId { x: 2, y: 2 },
            CellId { x: 2, y: 2 },
            ObjectId(9),
            &mut out,
        );
        assert!(out.is_empty(), "the old cell was emptied");
        assert_eq!(ix.cells.len(), 1, "and its entry dropped");
    }

    #[test]
    fn both_walks_of_a_block_return_the_same_sorted_neighbours() {
        let mut ix = index();
        for (obj, lon, lat) in [(5, 1.5, 1.5), (3, 2.5, 1.5), (4, 2.5, 2.5), (1, 8.5, 8.5)] {
            ix.upsert(&fix(obj, 0, lon, lat), ());
        }
        let mut out = Vec::new();
        // 1 cell <= 4 occupied cells: the cell walk.
        ix.others_in(
            CellId { x: 2, y: 1 },
            CellId { x: 2, y: 1 },
            ObjectId(9),
            &mut out,
        );
        assert_eq!(ids(&out), vec![3]);
        // 9 cells > 4 occupied cells: the occupied-cell walk.
        ix.others_in(
            CellId { x: 1, y: 1 },
            CellId { x: 3, y: 3 },
            ObjectId(4),
            &mut out,
        );
        assert_eq!(ids(&out), vec![3, 5], "sorted by id, the asker left out");
        assert_eq!(ix.examined(), 3);
        // An inverted block is empty.
        ix.others_in(
            CellId { x: 3, y: 3 },
            CellId { x: 1, y: 1 },
            ObjectId(9),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn a_position_outside_the_extent_is_filed_in_the_border_cell() {
        let mut ix = index();
        assert_eq!(
            ix.upsert(&fix(1, 0, -5.0, 20.0), ()),
            Some(CellId { x: 0, y: 9 })
        );
    }

    #[test]
    fn a_report_without_a_position_unfiles_the_object() {
        let mut ix = index();
        ix.upsert(&fix(1, 0, 2.5, 2.5), ());
        assert_eq!(ix.upsert(&fix(1, 1, f64::NAN, 2.5), ()), None);
        assert_eq!((ix.len(), ix.cells.len()), (0, 0));
    }

    #[test]
    fn prune_forgets_the_object_and_the_empty_cell() {
        let mut ix = index();
        ix.upsert(&fix(1, 0, 2.5, 2.5), ());
        ix.upsert(&fix(2, 100, 2.6, 2.5), ());
        ix.upsert(&fix(3, 0, 4.5, 4.5), ());
        ix.prune(|t| t < TimeMs(50));
        assert_eq!((ix.len(), ix.cells.len()), (1, 1));
        assert_eq!(
            ix.upsert(&fix(1, 200, 2.5, 2.5), ()),
            Some(CellId { x: 2, y: 2 })
        );
        assert_eq!(ix.len(), 2);
    }
}
