//! A static R-tree bulk-loaded with the Sort-Tile-Recursive (STR) algorithm.
//!
//! Surveillance analytics mostly builds spatial indexes in batch (per window,
//! per partition, per loaded dataset), so a packed static tree is both
//! simpler and faster than a dynamic R*-tree. Supports rectangle range
//! queries and k-nearest-neighbour search with best-first traversal.

use crate::bbox::BoundingBox;
use crate::point::GeoPoint;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Branching factor: maximum number of children per internal node and
/// entries per leaf. 16 keeps the tree shallow while staying cache-friendly.
const NODE_CAPACITY: usize = 16;

/// An indexed item: a bounding box plus a caller payload.
#[derive(Debug, Clone)]
pub struct RTreeEntry<T> {
    /// Spatial key.
    pub bbox: BoundingBox,
    /// Caller payload (id, record, …).
    pub item: T,
}

impl<T> RTreeEntry<T> {
    /// Convenience constructor for point data.
    pub fn point(p: GeoPoint, item: T) -> Self {
        Self {
            bbox: BoundingBox::from_point(p),
            item,
        }
    }
}

#[derive(Debug)]
enum Node {
    Leaf {
        bbox: BoundingBox,
        /// Indexes into `RTree::entries`.
        entries: Vec<u32>,
    },
    Internal {
        bbox: BoundingBox,
        children: Vec<u32>,
    },
}

impl Node {
    fn bbox(&self) -> &BoundingBox {
        match self {
            Node::Leaf { bbox, .. } | Node::Internal { bbox, .. } => bbox,
        }
    }
}

/// A static, STR-packed R-tree.
#[derive(Debug)]
pub struct RTree<T> {
    entries: Vec<RTreeEntry<T>>,
    nodes: Vec<Node>,
    root: Option<u32>,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        Self::bulk_load(Vec::new())
    }
}

impl<T> RTree<T> {
    /// Builds the tree from a batch of entries in O(n log n).
    pub fn bulk_load(entries: Vec<RTreeEntry<T>>) -> Self {
        let mut tree = RTree {
            entries,
            nodes: Vec::new(),
            root: None,
        };
        if tree.entries.is_empty() {
            return tree;
        }

        // STR: sort by x-centre, slice into vertical strips, sort each strip
        // by y-centre, pack runs of NODE_CAPACITY into leaves.
        let mut order: Vec<u32> = (0..tree.entries.len() as u32).collect();
        let centers: Vec<(f64, f64)> = tree
            .entries
            .iter()
            .map(|e| {
                let c = e.bbox.center();
                (c.lon, c.lat)
            })
            .collect();
        order.sort_by(|&a, &b| centers[a as usize].0.total_cmp(&centers[b as usize].0));

        let n = order.len();
        let leaf_count = n.div_ceil(NODE_CAPACITY);
        let strip_count = (leaf_count as f64).sqrt().ceil() as usize;
        let strip_size = n.div_ceil(strip_count);

        let mut leaves: Vec<u32> = Vec::with_capacity(leaf_count);
        for strip in order.chunks_mut(strip_size.max(1)) {
            strip.sort_by(|&a, &b| centers[a as usize].1.total_cmp(&centers[b as usize].1));
            for run in strip.chunks(NODE_CAPACITY) {
                let mut bbox = BoundingBox::EMPTY;
                for &idx in run {
                    bbox.expand_bbox(&tree.entries[idx as usize].bbox);
                }
                tree.nodes.push(Node::Leaf {
                    bbox,
                    entries: run.to_vec(),
                });
                leaves.push(tree.nodes.len() as u32 - 1);
            }
        }

        // Pack levels upward until a single root remains.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(NODE_CAPACITY));
            for run in level.chunks(NODE_CAPACITY) {
                let mut bbox = BoundingBox::EMPTY;
                for &child in run {
                    bbox.expand_bbox(tree.nodes[child as usize].bbox());
                }
                tree.nodes.push(Node::Internal {
                    bbox,
                    children: run.to_vec(),
                });
                next.push(tree.nodes.len() as u32 - 1);
            }
            level = next;
        }
        tree.root = Some(level[0]);
        tree
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Takes the entries back out (unordered), e.g. to bulk-load a
    /// larger tree from them.
    pub fn into_entries(self) -> Vec<RTreeEntry<T>> {
        self.entries
    }

    /// The bounding box of all entries, when non-empty.
    pub fn bbox(&self) -> Option<&BoundingBox> {
        self.root.map(|r| self.nodes[r as usize].bbox())
    }

    /// All entries whose boxes intersect `query`.
    pub fn query<'a>(&'a self, query: &BoundingBox) -> Vec<&'a RTreeEntry<T>> {
        let mut out = Vec::new();
        self.for_each_in(query, |e| out.push(e));
        out
    }

    /// Visits every entry intersecting `query` without allocating results.
    pub fn for_each_in<'a>(
        &'a self,
        query: &BoundingBox,
        mut visit: impl FnMut(&'a RTreeEntry<T>),
    ) {
        let Some(root) = self.root else { return };
        let mut stack = vec![root];
        while let Some(node_idx) = stack.pop() {
            match &self.nodes[node_idx as usize] {
                Node::Leaf { bbox, entries } => {
                    if bbox.intersects(query) {
                        for &e in entries {
                            let entry = &self.entries[e as usize];
                            if entry.bbox.intersects(query) {
                                visit(entry);
                            }
                        }
                    }
                }
                Node::Internal { bbox, children } => {
                    if bbox.intersects(query) {
                        stack.extend_from_slice(children);
                    }
                }
            }
        }
    }

    /// The `k` entries nearest to `p` (by minimum box distance), closest
    /// first. Best-first search with a min-heap over node/entry distances.
    pub fn nearest<'a>(&'a self, p: &GeoPoint, k: usize) -> Vec<(&'a RTreeEntry<T>, f64)> {
        #[derive(PartialEq)]
        enum Cand {
            Node(u32),
            Entry(u32),
        }
        struct HeapItem {
            dist: f64,
            cand: Cand,
        }
        impl PartialEq for HeapItem {
            fn eq(&self, other: &Self) -> bool {
                self.dist == other.dist
            }
        }
        impl Eq for HeapItem {}
        impl PartialOrd for HeapItem {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for HeapItem {
            fn cmp(&self, other: &Self) -> Ordering {
                // Reverse for a min-heap on distance.
                other.dist.total_cmp(&self.dist)
            }
        }

        let mut out = Vec::with_capacity(k.min(self.len()));
        let Some(root) = self.root else { return out };
        if k == 0 {
            return out;
        }
        let mut heap = BinaryHeap::new();
        heap.push(HeapItem {
            dist: self.nodes[root as usize].bbox().min_distance_m(p),
            cand: Cand::Node(root),
        });
        while let Some(HeapItem { dist, cand }) = heap.pop() {
            match cand {
                Cand::Entry(e) => {
                    out.push((&self.entries[e as usize], dist));
                    if out.len() == k {
                        break;
                    }
                }
                Cand::Node(n) => match &self.nodes[n as usize] {
                    Node::Leaf { entries, .. } => {
                        for &e in entries {
                            heap.push(HeapItem {
                                dist: self.entries[e as usize].bbox.min_distance_m(p),
                                cand: Cand::Entry(e),
                            });
                        }
                    }
                    Node::Internal { children, .. } => {
                        for &c in children {
                            heap.push(HeapItem {
                                dist: self.nodes[c as usize].bbox().min_distance_m(p),
                                cand: Cand::Node(c),
                            });
                        }
                    }
                },
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n_side: usize) -> Vec<RTreeEntry<usize>> {
        let mut entries = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                entries.push(RTreeEntry::point(
                    GeoPoint::new(i as f64 * 0.1, j as f64 * 0.1),
                    i * n_side + j,
                ));
            }
        }
        entries
    }

    #[test]
    fn empty_tree() {
        let tree: RTree<u32> = RTree::bulk_load(Vec::new());
        assert!(tree.is_empty());
        assert!(tree.bbox().is_none());
        assert!(tree.query(&BoundingBox::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert!(tree.nearest(&GeoPoint::new(0.0, 0.0), 5).is_empty());
    }

    #[test]
    fn single_entry() {
        let tree = RTree::bulk_load(vec![RTreeEntry::point(GeoPoint::new(1.0, 2.0), "a")]);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.query(&BoundingBox::new(0.0, 0.0, 3.0, 3.0)).len(), 1);
        assert!(tree.query(&BoundingBox::new(5.0, 5.0, 6.0, 6.0)).is_empty());
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let entries = grid_points(20);
        let reference: Vec<(BoundingBox, usize)> =
            entries.iter().map(|e| (e.bbox, e.item)).collect();
        let tree = RTree::bulk_load(entries);
        let queries = [
            BoundingBox::new(0.05, 0.05, 0.55, 0.55),
            BoundingBox::new(0.0, 0.0, 2.0, 2.0),
            BoundingBox::new(1.95, 1.95, 3.0, 3.0),
            BoundingBox::new(-1.0, -1.0, -0.5, -0.5),
            BoundingBox::new(0.1, 0.1, 0.1, 0.1),
        ];
        for q in queries {
            let mut got: Vec<usize> = tree.query(&q).iter().map(|e| e.item).collect();
            let mut want: Vec<usize> = reference
                .iter()
                .filter(|(b, _)| b.intersects(&q))
                .map(|&(_, i)| i)
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query {q:?}");
        }
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let entries = grid_points(15);
        let pts: Vec<(GeoPoint, usize)> =
            entries.iter().map(|e| (e.bbox.center(), e.item)).collect();
        let tree = RTree::bulk_load(entries);
        for probe in [
            GeoPoint::new(0.73, 0.41),
            GeoPoint::new(-0.5, -0.5),
            GeoPoint::new(3.0, 3.0),
        ] {
            let got: Vec<usize> = tree
                .nearest(&probe, 5)
                .iter()
                .map(|(e, _)| e.item)
                .collect();
            let mut want: Vec<(f64, usize)> = pts
                .iter()
                .map(|&(p, i)| (probe.fast_dist2_m2(&p).sqrt(), i))
                .collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0));
            let want: Vec<usize> = want.into_iter().take(5).map(|(_, i)| i).collect();
            assert_eq!(got, want, "probe {probe:?}");
        }
    }

    #[test]
    fn nearest_distances_monotone() {
        let tree = RTree::bulk_load(grid_points(10));
        let result = tree.nearest(&GeoPoint::new(0.42, 0.42), 10);
        assert_eq!(result.len(), 10);
        for pair in result.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn nearest_k_larger_than_len() {
        let tree = RTree::bulk_load(grid_points(2));
        assert_eq!(tree.nearest(&GeoPoint::new(0.0, 0.0), 100).len(), 4);
    }

    #[test]
    fn bbox_covers_everything() {
        let tree = RTree::bulk_load(grid_points(20));
        let bbox = tree.bbox().unwrap();
        assert!(bbox.contains(&GeoPoint::new(0.0, 0.0)));
        assert!(bbox.contains(&GeoPoint::new(1.9, 1.9)));
    }

    #[test]
    fn for_each_visits_all() {
        let tree = RTree::bulk_load(grid_points(8));
        let mut count = 0;
        tree.for_each_in(&BoundingBox::new(-1.0, -1.0, 10.0, 10.0), |_| count += 1);
        assert_eq!(count, 64);
    }
}
