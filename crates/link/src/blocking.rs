//! Spatial tile blocking: prune the candidate-pair space.
//!
//! Comparing every A-record against every B-record is `O(|A|·|B|)` — the
//! reason naive link discovery does not scale. Blocking assigns records to
//! grid tiles by their last-known position and only pairs records in the
//! same or adjacent tiles. With jitter far smaller than the tile size, true
//! pairs survive while the candidate count collapses.

use crate::matcher::LinkRecord;
use datacron_geo::{BoundingBox, Grid};
use rustc_hash::FxHashMap;

/// What blocking did to the search space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingStats {
    /// Full cross-product size.
    pub cross_product: usize,
    /// Candidate pairs after blocking.
    pub candidates: usize,
    /// `1 - candidates / cross_product` (the reduction ratio).
    pub reduction: f64,
}

/// Produces candidate `(a_index, b_index)` pairs whose positions fall in
/// the same or an adjacent tile of a grid with `tile_deg` cells.
pub fn block_candidates(
    a: &[LinkRecord],
    b: &[LinkRecord],
    tile_deg: f64,
) -> (Vec<(usize, usize)>, BlockingStats) {
    let cross = a.len() * b.len();
    let empty_stats = |candidates: usize| BlockingStats {
        cross_product: cross,
        candidates,
        reduction: if cross == 0 {
            0.0
        } else {
            1.0 - candidates as f64 / cross as f64
        },
    };
    let all_points = a.iter().chain(b.iter()).map(|r| r.pos);
    let Some(extent) = BoundingBox::from_points(all_points) else {
        return (Vec::new(), empty_stats(0));
    };
    let Some(grid) = Grid::new(extent.buffered(tile_deg), tile_deg) else {
        return (Vec::new(), empty_stats(0));
    };

    // Index B records per tile.
    let mut tiles: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    for (j, rec) in b.iter().enumerate() {
        let cell = grid.cell_of_clamped(&rec.pos);
        tiles.entry(cell.pack()).or_default().push(j);
    }

    let mut out = Vec::new();
    for (i, rec) in a.iter().enumerate() {
        let cell = grid.cell_of_clamped(&rec.pos);
        let mut cells = grid.neighbors(cell);
        cells.push(cell);
        for c in cells {
            if let Some(js) = tiles.get(&c.pack()) {
                for &j in js {
                    out.push((i, j));
                }
            }
        }
    }
    let stats = empty_stats(out.len());
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::GeoPoint;
    use datacron_model::ObjectId;

    fn rec(id: u64, lon: f64, lat: f64) -> LinkRecord {
        LinkRecord {
            id: ObjectId(id),
            name: format!("SHIP {id}"),
            kind_code: 70,
            flag: "GR".into(),
            pos: GeoPoint::new(lon, lat),
        }
    }

    #[test]
    fn nearby_records_are_candidates() {
        let a = vec![rec(1, 24.0, 37.0)];
        let b = vec![rec(2, 24.003, 37.002), rec(3, 27.0, 39.0)];
        let (pairs, stats) = block_candidates(&a, &b, 0.05);
        assert_eq!(pairs, vec![(0, 0)]);
        assert_eq!(stats.cross_product, 2);
        assert_eq!(stats.candidates, 1);
        assert!((stats.reduction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn adjacent_tile_pairs_survive() {
        // Two records straddling a tile boundary must still pair.
        let a = vec![rec(1, 24.0499, 37.0)];
        let b = vec![rec(2, 24.0501, 37.0)];
        let (pairs, _) = block_candidates(&a, &b, 0.05);
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn reduction_grows_with_spread() {
        // 20 A and 20 B records spread over a wide area: few candidates.
        let a: Vec<_> = (0..20)
            .map(|i| rec(i, 20.0 + 0.4 * i as f64, 36.0))
            .collect();
        let b: Vec<_> = (0..20)
            .map(|i| rec(100 + i as u64, 20.0 + 0.4 * i as f64 + 0.001, 36.0))
            .collect();
        let (pairs, stats) = block_candidates(&a, &b, 0.05);
        // Each A pairs only with its twin.
        assert_eq!(pairs.len(), 20);
        assert!(stats.reduction > 0.9, "reduction {}", stats.reduction);
    }

    #[test]
    fn empty_inputs() {
        let (pairs, stats) = block_candidates(&[], &[], 0.05);
        assert!(pairs.is_empty());
        assert_eq!(stats.cross_product, 0);
        assert_eq!(stats.reduction, 0.0);
        let a = vec![rec(1, 24.0, 37.0)];
        let (pairs, _) = block_candidates(&a, &[], 0.05);
        assert!(pairs.is_empty());
    }

    #[test]
    fn coarse_tiles_return_everything() {
        let a: Vec<_> = (0..5)
            .map(|i| rec(i, 24.0 + 0.01 * i as f64, 37.0))
            .collect();
        let b: Vec<_> = (0..5)
            .map(|i| rec(10 + i as u64, 24.0 + 0.01 * i as f64, 37.0))
            .collect();
        let (pairs, stats) = block_candidates(&a, &b, 10.0);
        assert_eq!(pairs.len(), 25);
        assert_eq!(stats.reduction, 0.0);
    }
}
