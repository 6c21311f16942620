//! Origin–destination flow matrices.

use rustc_hash::FxHashMap;

/// A flow count matrix between named places (ports, airports, sectors).
#[derive(Debug, Clone, Default)]
pub struct FlowMatrix {
    places: Vec<String>,
    index: FxHashMap<String, usize>,
    /// `(from, to) → count`, sparse.
    flows: FxHashMap<(usize, usize), u64>,
}

impl FlowMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a place name, returning its index.
    pub fn place(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.places.len();
        self.places.push(name.to_string());
        self.index.insert(name.to_string(), i);
        i
    }

    /// Records one movement from `from` to `to`.
    pub fn record(&mut self, from: &str, to: &str) {
        let f = self.place(from);
        let t = self.place(to);
        *self.flows.entry((f, t)).or_insert(0) += 1;
    }

    /// The count for a pair (0 when never seen).
    pub fn count(&self, from: &str, to: &str) -> u64 {
        let (Some(&f), Some(&t)) = (self.index.get(from), self.index.get(to)) else {
            return 0;
        };
        self.flows.get(&(f, t)).copied().unwrap_or(0)
    }

    /// Number of known places.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Total recorded movements.
    pub fn total(&self) -> u64 {
        self.flows.values().sum()
    }

    /// Outbound total for a place.
    pub fn outbound(&self, from: &str) -> u64 {
        let Some(&f) = self.index.get(from) else {
            return 0;
        };
        self.flows
            .iter()
            .filter(|(&(a, _), _)| a == f)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Inbound total for a place.
    pub fn inbound(&self, to: &str) -> u64 {
        let Some(&t) = self.index.get(to) else {
            return 0;
        };
        self.flows
            .iter()
            .filter(|(&(_, b), _)| b == t)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Exports the matrix state for a persistence snapshot: places in
    /// intern order plus `(from, to, count)` entries sorted by indices
    /// (deterministic dumps). The name→index map is derived.
    pub fn export_state(&self) -> (Vec<String>, Vec<(usize, usize, u64)>) {
        let mut flows: Vec<(usize, usize, u64)> =
            self.flows.iter().map(|(&(f, t), &c)| (f, t, c)).collect();
        flows.sort_unstable();
        (self.places.clone(), flows)
    }

    /// Rebuilds a matrix from exported state. Flow indices must refer to
    /// `places` entries; out-of-range entries are dropped (corrupt input
    /// is the storage layer's CRC problem, not a panic here).
    pub fn from_state(places: Vec<String>, flows: Vec<(usize, usize, u64)>) -> Self {
        let n = places.len();
        let index = places
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();
        Self {
            index,
            flows: flows
                .into_iter()
                .filter(|&(f, t, _)| f < n && t < n)
                .map(|(f, t, c)| ((f, t), c))
                .collect(),
            places,
        }
    }

    /// The `k` largest flows as `(from, to, count)`, largest first, ties
    /// broken by place indices for determinism.
    pub fn top_k(&self, k: usize) -> Vec<(&str, &str, u64)> {
        let mut entries: Vec<((usize, usize), u64)> =
            self.flows.iter().map(|(&p, &c)| (p, c)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries
            .into_iter()
            .take(k)
            .map(|((f, t), c)| (self.places[f].as_str(), self.places[t].as_str(), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut m = FlowMatrix::new();
        m.record("Piraeus", "Heraklion");
        m.record("Piraeus", "Heraklion");
        m.record("Heraklion", "Piraeus");
        assert_eq!(m.count("Piraeus", "Heraklion"), 2);
        assert_eq!(m.count("Heraklion", "Piraeus"), 1);
        assert_eq!(m.count("Piraeus", "Rhodes"), 0);
        assert_eq!(m.count("Nowhere", "Piraeus"), 0);
        assert_eq!(m.place_count(), 2);
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn directionality() {
        let mut m = FlowMatrix::new();
        m.record("A", "B");
        assert_eq!(m.count("A", "B"), 1);
        assert_eq!(m.count("B", "A"), 0);
    }

    #[test]
    fn inbound_outbound() {
        let mut m = FlowMatrix::new();
        m.record("A", "B");
        m.record("A", "C");
        m.record("B", "C");
        assert_eq!(m.outbound("A"), 2);
        assert_eq!(m.inbound("C"), 2);
        assert_eq!(m.outbound("C"), 0);
        assert_eq!(m.inbound("missing"), 0);
    }

    #[test]
    fn top_k_ordering() {
        let mut m = FlowMatrix::new();
        for _ in 0..5 {
            m.record("A", "B");
        }
        for _ in 0..2 {
            m.record("B", "C");
        }
        m.record("C", "A");
        let top = m.top_k(2);
        assert_eq!(top[0], ("A", "B", 5));
        assert_eq!(top[1], ("B", "C", 2));
        assert_eq!(m.top_k(100).len(), 3);
    }

    #[test]
    fn state_round_trip() {
        let mut m = FlowMatrix::new();
        m.record("A", "B");
        m.record("A", "B");
        m.record("B", "C");
        let (places, flows) = m.export_state();
        let m2 = FlowMatrix::from_state(places, flows);
        assert_eq!(m2.count("A", "B"), 2);
        assert_eq!(m2.count("B", "C"), 1);
        assert_eq!(m2.place_count(), 3);
        assert_eq!(m2.total(), m.total());
        // Interning after restore reuses existing indices.
        let mut m2 = m2;
        m2.record("A", "B");
        assert_eq!(m2.count("A", "B"), 3);
        assert_eq!(m2.place_count(), 3);
    }

    #[test]
    fn self_loops_allowed() {
        let mut m = FlowMatrix::new();
        m.record("A", "A");
        assert_eq!(m.count("A", "A"), 1);
    }
}
