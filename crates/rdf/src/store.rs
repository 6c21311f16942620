//! The triple store: SPO/POS/OSP sorted indexes over dictionary-encoded
//! ids, and the spatial and temporal literal indexes, all in one two-level
//! shape. A read sees the graph as of its last commit: inserts wait in an
//! unsorted write buffer that no read consults, and the commit merges
//! them, with the literals encoded since the last one, into the levels.

use crate::dict::{Dictionary, TermId};
use crate::index::{instant_key, point_key, InstantKey, PointKey, SpatialIndex, TemporalIndex};
use crate::merge::merge_sorted_run;
use crate::term::Term;
use datacron_geo::FxHashMap;

/// An encoded triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject id.
    pub s: TermId,
    /// Predicate id.
    pub p: TermId,
    /// Object id.
    pub o: TermId,
}

impl Triple {
    /// True when every bound component of the pattern (`None` = wildcard)
    /// equals this triple's.
    pub fn matches(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> bool {
        s.is_none_or(|x| x == self.s)
            && p.is_none_or(|x| x == self.p)
            && o.is_none_or(|x| x == self.o)
    }
}

/// Which component order an index is sorted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IndexOrder {
    Spo,
    Pos,
    Osp,
}

fn key_of(t: &Triple, order: IndexOrder) -> Key {
    match order {
        IndexOrder::Spo => (t.s.raw(), t.p.raw(), t.o.raw()),
        IndexOrder::Pos => (t.p.raw(), t.o.raw(), t.s.raw()),
        IndexOrder::Osp => (t.o.raw(), t.s.raw(), t.p.raw()),
    }
}

/// One index key: a triple's ids in one index's component order.
type Key = (u32, u32, u32);

/// A planned committed-index scan: the chosen index, its component order,
/// and the inclusive `lo..=hi` key bounds of the bound-component prefix.
type PlannedRange<'a> = (&'a Levels<Key>, IndexOrder, Key, Key);

fn triple_of(k: Key, order: IndexOrder) -> Triple {
    let (s, p, o) = match order {
        IndexOrder::Spo => (k.0, k.1, k.2),
        IndexOrder::Pos => (k.2, k.0, k.1),
        IndexOrder::Osp => (k.1, k.2, k.0),
    };
    Triple {
        s: TermId(s),
        p: TermId(p),
        o: TermId(o),
    }
}

/// Per-predicate statistics over the **committed** indexes, maintained
/// incrementally at [`Graph::commit`] time. The query planner uses these to
/// estimate per-probe fan-out (`triples / distinct_subjects` is the average
/// out-degree of the predicate) without touching the indexes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredicateStats {
    /// Distinct committed triples with this predicate.
    pub triples: usize,
    /// Distinct subjects appearing with this predicate.
    pub distinct_subjects: usize,
    /// Distinct objects appearing with this predicate.
    pub distinct_objects: usize,
}

/// The committed triples matching a pattern: one contiguous range of each
/// level of the chosen permutation index, read as **one** sorted sequence
/// (every bound-component combination is a prefix of one of the three
/// index orders, so no post-filtering is needed). Positions are logical:
/// `slice`, `len` and `iter` never show where one level ends and the other
/// begins, so the rows and their order do not depend on when the last fold
/// ran. Obtained from [`Graph::pattern_slice`].
#[derive(Debug, Clone, Copy)]
pub struct PatternSlice<'a> {
    base: &'a [Key],
    delta: &'a [Key],
    order: IndexOrder,
}

impl<'a> PatternSlice<'a> {
    /// A clamped sub-range `lo..hi` of this slice's merged sequence. The
    /// morsel executor uses this to split one seed scan into fixed-size
    /// work units without re-planning.
    pub fn slice(&self, lo: usize, hi: usize) -> PatternSlice<'a> {
        let lo = lo.min(self.len());
        let hi = hi.clamp(lo, self.len());
        let (a, b) = (self.co_rank(lo), self.co_rank(hi));
        PatternSlice {
            base: &self.base[a..b],
            delta: &self.delta[lo - a..hi - b],
            order: self.order,
        }
    }

    /// How many of the first `k` keys of the merged sequence come from
    /// the base: the least `i` such that `base[i]` does not sort before
    /// `delta[k - i - 1]`. One binary search; the levels are disjoint, so
    /// the split is unique.
    fn co_rank(&self, k: usize) -> usize {
        let (mut lo, mut hi) = (k.saturating_sub(self.delta.len()), k.min(self.base.len()));
        while lo < hi {
            let i = lo + (hi - lo) / 2;
            if self.base[i] < self.delta[k - i - 1] {
                lo = i + 1;
            } else {
                hi = i;
            }
        }
        lo
    }

    /// Number of matching committed triples.
    pub fn len(&self) -> usize {
        self.base.len() + self.delta.len()
    }

    /// True when no committed triple matches.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.delta.is_empty()
    }

    /// Iterates the matches as [`Triple`]s, in index order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + 'a {
        let PatternSlice {
            mut base,
            mut delta,
            order,
        } = *self;
        std::iter::from_fn(move || {
            let key = match (base.split_first(), delta.split_first()) {
                (Some((&b, rest)), Some((&d, _))) if b < d => {
                    base = rest;
                    b
                }
                (_, Some((&d, rest))) => {
                    delta = rest;
                    d
                }
                (Some((&b, rest)), None) => {
                    base = rest;
                    b
                }
                (None, None) => return None,
            };
            Some(triple_of(key, order))
        })
    }
}

/// Cursor state for [`Graph::pattern_slice_hinted`]: the position of the
/// previous probe's range start in each level of the index. One hint is
/// valid for one pattern *shape* (bound-component combination) against one
/// graph; callers keep one per join step.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeHint {
    base: usize,
    delta: usize,
}

/// How far (in keys, by doubling) a hinted probe searches forward from
/// its hint before giving up on locality.
const GALLOP_MAX_JUMP: usize = 128;

/// First position `j >= from` where `below(&index[j])` is false, given that
/// every key before `from` satisfies `below`. Exponential search brackets
/// the answer in O(log gap), then a binary search inside the bracket
/// finishes — the building block of the hinted probe. A gap past
/// [`GALLOP_MAX_JUMP`] means the probe order is not local (a join on an
/// unsorted variable): it falls back to the plain whole-index binary
/// search, whose fixed midpoints stay cache-resident from probe to probe,
/// where searches over ever-different sub-ranges would miss on every level.
fn gallop(index: &[Key], from: usize, below: impl Fn(&Key) -> bool) -> usize {
    let mut low = from;
    let mut jump = 1usize;
    while jump <= GALLOP_MAX_JUMP {
        let probe = low + jump;
        match index.get(probe) {
            Some(k) if below(k) => {
                low = probe + 1;
                jump *= 2;
            }
            _ => {
                let high = probe.min(index.len());
                return low + index[low..high].partition_point(|k| below(k));
            }
        }
    }
    index.partition_point(|k| below(k))
}

/// The `lo..=hi` range of one sorted level, searched from the hint `pos`
/// (see [`Graph::pattern_slice_hinted`]), which it moves to the range's
/// start.
fn hinted_range<'a>(index: &'a [Key], lo: Key, hi: Key, pos: &mut usize) -> &'a [Key] {
    // A level wholly above or below the range — the delta, for a probe of
    // a subject older than every recent commit — answers in two compares.
    match (index.first(), index.last()) {
        (Some(&first), Some(&last)) if first <= hi && last >= lo => {}
        _ => return &[],
    }
    let from = (*pos).min(index.len());
    let a = if index[..from].last().is_some_and(|&k| k >= lo) {
        // Hint overshot the range start: plain binary search.
        index.partition_point(|&k| k < lo)
    } else {
        gallop(index, from, |&k| k < lo)
    };
    let b = gallop(index, a, |&k| k <= hi);
    *pos = a;
    &index[a..b]
}

/// A stable counting sort of `keys` by the first component of
/// `rekey(key)`, an id below `terms`; returns the rekeyed keys. One
/// counting pass and one scatter: O(n + terms), no comparisons. Fed SPO
/// keys rekeyed to `(o, s, p)` it yields OSP, because equal objects keep
/// their SPO order.
fn counting_sort(keys: &[Key], terms: usize, rekey: impl Fn(Key) -> Key) -> Vec<Key> {
    // `next[id]` becomes the first slot of `id`'s run.
    let mut next = vec![0usize; terms + 1];
    for &k in keys {
        next[rekey(k).0 as usize + 1] += 1;
    }
    for i in 1..next.len() {
        next[i] += next[i - 1];
    }
    let mut out = vec![(0, 0, 0); keys.len()];
    for &k in keys {
        let key = rekey(k);
        let slot = &mut next[key.0 as usize];
        out[*slot] = key;
        *slot += 1;
    }
    out
}

/// The delta level folds into the base once it holds `1 / FOLD_RATIO` of
/// the base's keys. With `n` triples in the base and `b` per commit, a
/// commit shifts about `n / (2 · FOLD_RATIO)` delta keys per index (the
/// delta's mean size) and, amortised, `FOLD_RATIO · b` base keys for the
/// fold; the sum is least at `FOLD_RATIO = sqrt(n / 2b)`: ≈ 40 for the
/// serving store (≈ 130k triples, ≈ 40 per 64-report batch), ≈ 70 at 1M
/// with 100 per batch. The `commit_tail` bench at 8, 32 and 128 picked
/// the value (DESIGN, "Commit merges").
const FOLD_RATIO: usize = 32;

/// One sorted index in two levels: a large base and a small delta,
/// disjoint. A commit merges into the delta, so its shifts follow the
/// delta, not the store; the fold merges the delta into the base. The five
/// indexes of a [`Graph`] share this shape: SPO/POS/OSP over [`Key`]s, the
/// spatial index over [`PointKey`]s, the temporal one over
/// [`InstantKey`]s.
#[derive(Debug, Default)]
struct Levels<K> {
    base: Vec<K>,
    delta: Vec<K>,
}

impl<K: Ord + Copy> Levels<K> {
    /// Levels holding the sorted, duplicate-free `base` and no delta.
    fn from_base(base: Vec<K>) -> Self {
        Self {
            base,
            delta: Vec::new(),
        }
    }

    /// Number of keys in both levels.
    fn len(&self) -> usize {
        self.base.len() + self.delta.len()
    }

    /// True when either level holds `key`.
    fn contains(&self, key: &K) -> bool {
        self.base.binary_search(key).is_ok() || self.delta.binary_search(key).is_ok()
    }

    /// Adds the sorted `run` (disjoint from both levels): straight into an
    /// empty base, else into the delta, which then folds into the base
    /// once it holds `1 / FOLD_RATIO` of it. [`merge_sorted_run`] does all
    /// three merges. Returns whether the delta folded; an empty run
    /// changes nothing.
    fn add(&mut self, run: &[K]) -> bool {
        if run.is_empty() {
            return false;
        }
        let fold = if self.base.is_empty() {
            merge_sorted_run(&mut self.base, run);
            false
        } else {
            merge_sorted_run(&mut self.delta, run);
            let fold = self.delta.len() * FOLD_RATIO >= self.base.len();
            if fold {
                merge_sorted_run(&mut self.base, &self.delta);
                self.delta.clear();
            }
            fold
        };
        // `run` is disjoint from both levels and duplicate-free, so
        // neither level has equal neighbours.
        debug_assert!(self.base.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(self.delta.windows(2).all(|w| w[0] < w[1]));
        fold
    }

    /// The `lo..=hi` range of each level, found with binary searches
    /// (O(log n), no visiting).
    fn range(&self, lo: K, hi: K) -> (&[K], &[K]) {
        let of = |level: &'_ [K]| -> (usize, usize) {
            (
                level.partition_point(|&k| k < lo),
                level.partition_point(|&k| k <= hi),
            )
        };
        let ((a, b), (c, d)) = (of(&self.base), of(&self.delta));
        (&self.base[a..b], &self.delta[c..d])
    }
}

impl Levels<Key> {
    /// True when either level holds a key starting with `(a, b)`.
    fn prefix2_present(&self, a: u32, b: u32) -> bool {
        [&self.base, &self.delta].into_iter().any(|level| {
            let i = level.partition_point(|&k| k < (a, b, 0));
            matches!(level.get(i), Some(&(x, y, _)) if x == a && y == b)
        })
    }
}

/// A dictionary-encoded RDF graph: three sorted permutation indexes and
/// the spatial and temporal literal indexes, each a two-level [`Levels`].
///
/// **A read sees the graph as of its last [`Graph::commit`].** Inserts go
/// to an unsorted write buffer that no read consults, and a literal new
/// to the dictionary reaches its literal index only at the commit. The
/// commit sorts the buffer, drops its repeats and the triples already
/// held, and merges the rest into each index's small delta level in
/// place, so it shifts the delta's keys, not the store's. Once a delta
/// holds `1 / FOLD_RATIO` of its base, the commit also folds it into the
/// base: an O(n) stall once per `n / FOLD_RATIO` new keys
/// ([`Graph::folds`] counts the permutation indexes').
#[derive(Debug, Default)]
pub struct Graph {
    dict: Dictionary,
    spo: Levels<Key>,
    pos: Levels<Key>,
    osp: Levels<Key>,
    /// Point literals by Z-order key ([`SpatialIndex`]).
    points: Levels<PointKey>,
    /// Time literals by instant ([`TemporalIndex`]).
    instants: Levels<InstantKey>,
    /// Dictionary terms at the last commit: the literal indexes hold the
    /// point and time literals below this id.
    terms: usize,
    /// Folds of SPO's delta into its base since this graph was built; POS
    /// and OSP hold the same triples and fold with it.
    folds: u64,
    /// Triples inserted since the last commit, unsorted, repeats included.
    writes: Vec<Triple>,
    /// Per-predicate statistics over the committed indexes.
    pred_stats: FxHashMap<u32, PredicateStats>,
    /// When true, commits append newly added triples to `new_log`.
    track_new: bool,
    /// Committed-but-not-yet-drained new triples.
    new_log: Vec<Triple>,
}

/// The spatial and temporal index keys of the point and time literals
/// among dictionary ids `from..dict.len()`, each run sorted: what a commit
/// adds for the terms encoded since the last one, and, from 0, what a
/// restore builds.
fn literal_keys(dict: &Dictionary, from: usize) -> (Vec<PointKey>, Vec<InstantKey>) {
    let (mut points, mut instants) = (Vec::new(), Vec::new());
    // Ids below `dict.len()` fit a `u32`: the dictionary hands out no more.
    for id in (from..dict.len()).map(|i| TermId(i as u32)) {
        let term = dict.decode(id);
        if let Some(p) = term.and_then(Term::as_point) {
            points.push(point_key(&p, id));
        }
        if let Some(t) = term.and_then(Term::as_time) {
            instants.push(instant_key(t, id));
        }
    }
    points.sort_unstable();
    instants.sort_unstable();
    (points, instants)
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The term dictionary (read access).
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Encodes a term through this graph's dictionary. A new point or
    /// time literal reaches its literal index at the next commit.
    pub fn encode(&mut self, term: &Term) -> TermId {
        self.dict.encode(term)
    }

    /// Decodes an id.
    pub fn decode(&self, id: TermId) -> Option<&Term> {
        self.dict.decode(id)
    }

    /// Inserts a triple of terms. Duplicate triples are tolerated (dropped
    /// at the commit, see [`Graph::insert_encoded`]).
    pub fn insert(&mut self, s: &Term, p: &Term, o: &Term) {
        let t = Triple {
            s: self.encode(s),
            p: self.encode(p),
            o: self.encode(o),
        };
        self.insert_encoded(t);
    }

    /// Inserts an already-encoded triple (ids must come from this graph's
    /// dictionary). Reads see it after the next [`Graph::commit`], which
    /// drops it if it repeats a held or an earlier inserted triple.
    pub fn insert_encoded(&mut self, t: Triple) {
        self.writes.push(t);
    }

    /// Makes the inserts and the literals encoded since the last commit
    /// visible: adds the new literals' keys to the literal indexes, then
    /// merges the new distinct triples into the sorted indexes and updates
    /// the per-predicate statistics from them.
    pub fn commit(&mut self) {
        let (points, instants) = literal_keys(&self.dict, self.terms);
        self.points.add(&points);
        self.instants.add(&instants);
        self.terms = self.dict.len();
        if self.writes.is_empty() {
            return;
        }
        // `Triple` orders as an SPO key, so one sort lines up the repeats
        // and the run SPO merges.
        let mut new = std::mem::take(&mut self.writes);
        new.sort_unstable();
        new.dedup();
        new.retain(|t| !self.spo.contains(&key_of(t, IndexOrder::Spo)));
        self.merge_new(&new);
        // Keep the buffer's allocation for the next batch.
        new.clear();
        self.writes = new;
    }

    /// The bulk builder behind snapshot restore: the graph over `dict`
    /// holding `triples`, every index built once. No commit runs:
    ///
    /// - SPO is one sort of the triples. A `to_binary` payload is in SPO
    ///   order, so the run-adaptive sort has little to do.
    /// - OSP is a stable counting sort of SPO by object; POS is a stable
    ///   counting sort of OSP by predicate. O(n + terms) each.
    /// - The statistics are counted in one pass over SPO (triples and
    ///   distinct subjects, per `(s, p)` run) and one over POS (distinct
    ///   objects, per `(p, o)` run).
    /// - The spatial and temporal indexes take the dictionary's point
    ///   and time literals ([`literal_keys`] from id 0), one sort each.
    ///
    /// Everything lands in the base levels. Every id must be below
    /// `dict.len()`. The payload is not trusted to be duplicate-free: a
    /// repeated triple is returned as the error.
    pub(crate) fn load(dict: Dictionary, triples: Vec<Triple>) -> Result<Self, Triple> {
        let mut spo: Vec<Key> = triples
            .into_iter()
            .map(|t| key_of(&t, IndexOrder::Spo))
            .collect();
        spo.sort();
        if let Some(w) = spo.windows(2).find(|w| w[0] == w[1]) {
            return Err(triple_of(w[0], IndexOrder::Spo));
        }
        let osp = counting_sort(&spo, dict.len(), |(s, p, o)| (o, s, p));
        let pos = counting_sort(&osp, dict.len(), |(o, s, p)| (p, o, s));
        let mut pred_stats: FxHashMap<u32, PredicateStats> = FxHashMap::default();
        for run in spo.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let stats = pred_stats.entry(run[0].1).or_default();
            stats.triples += run.len();
            stats.distinct_subjects += 1;
        }
        for run in pos.chunk_by(|a, b| a.0 == b.0) {
            let objects = run.chunk_by(|a, b| a.1 == b.1).count();
            pred_stats.entry(run[0].0).or_default().distinct_objects += objects;
        }
        let (points, instants) = literal_keys(&dict, 0);
        Ok(Self {
            terms: dict.len(),
            dict,
            spo: Levels::from_base(spo),
            pos: Levels::from_base(pos),
            osp: Levels::from_base(osp),
            points: Levels::from_base(points),
            instants: Levels::from_base(instants),
            pred_stats,
            ..Self::default()
        })
    }

    /// The commit routine: `new` holds triples absent from the committed
    /// indexes and distinct among themselves. Updates the per-predicate
    /// statistics from them, then per index order sorts the new keys and
    /// merges that run into the index ([`Levels::add`]): `t log t` to
    /// sort, `t log d` to find the slots, at most the delta's `d` keys
    /// shifted — plus the base's `n` when the commit folds.
    fn merge_new(&mut self, new: &[Triple]) {
        // Statistics: `new` holds exactly the new distinct triples, so
        // counting is O(t log t + t log n).
        for t in new {
            self.pred_stats.entry(t.p.raw()).or_default().triples += 1;
        }
        let mut pairs: Vec<Key> = new
            .iter()
            .map(|t| (t.s.raw(), t.p.raw(), u32::MAX))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        for &(s, p, _) in &pairs {
            if !self.spo.prefix2_present(s, p) {
                self.pred_stats.entry(p).or_default().distinct_subjects += 1;
            }
        }
        pairs.clear();
        pairs.extend(new.iter().map(|t| (t.p.raw(), t.o.raw(), u32::MAX)));
        pairs.sort_unstable();
        pairs.dedup();
        for &(p, o, _) in &pairs {
            if !self.pos.prefix2_present(p, o) {
                self.pred_stats.entry(p).or_default().distinct_objects += 1;
            }
        }

        // All three indexes hold the same triples, so they fold together;
        // SPO's fold is the one counted.
        let mut run = pairs;
        for order in [IndexOrder::Spo, IndexOrder::Pos, IndexOrder::Osp] {
            let index = match order {
                IndexOrder::Spo => &mut self.spo,
                IndexOrder::Pos => &mut self.pos,
                IndexOrder::Osp => &mut self.osp,
            };
            run.clear();
            run.extend(new.iter().map(|t| key_of(t, order)));
            run.sort_unstable();
            let fold = index.add(&run);
            if order == IndexOrder::Spo {
                self.folds += u64::from(fold);
            }
        }
        if self.track_new {
            self.new_log.extend_from_slice(new);
        }
    }

    /// Enables (or disables) the commit log: while enabled, every commit
    /// appends the newly added triples to an internal log drained by
    /// [`Graph::take_new_triples`]. The benchmark harness's traced replay
    /// uses it to keep its hash-placed partition copy (`partition.rs`) in
    /// sync without rescanning the graph; the server leaves it off.
    pub fn track_new_triples(&mut self, on: bool) {
        self.track_new = on;
        if !on {
            self.new_log.clear();
        }
    }

    /// Drains the commit log (empty unless [`Graph::track_new_triples`] is
    /// enabled).
    pub fn take_new_triples(&mut self) -> Vec<Triple> {
        std::mem::take(&mut self.new_log)
    }

    /// Number of distinct committed triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// How many commits have folded the permutation indexes' delta levels
    /// into their bases since this graph was built (a snapshot restore
    /// lands in the base without one). Each is an O(n) stall of its
    /// commit. The literal indexes fold by the same rule on their own
    /// sizes and are not counted here.
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// True when the graph holds no committed triple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spatial literal index: the committed point literals.
    pub fn spatial(&self) -> SpatialIndex<'_> {
        SpatialIndex {
            levels: [&self.points.base, &self.points.delta],
            dict: &self.dict,
        }
    }

    /// The temporal literal index: the committed time literals.
    pub fn temporal(&self) -> TemporalIndex<'_> {
        TemporalIndex {
            levels: [&self.instants.base, &self.instants.delta],
        }
    }

    /// Dictionary terms as of the last commit: the terms a snapshot
    /// ([`crate::to_binary`]) writes, ids `0..committed_terms()`.
    pub(crate) fn committed_terms(&self) -> usize {
        self.terms
    }

    /// Chooses the permutation index whose sort order makes the bound
    /// components a *prefix*, plus the inclusive key range of that prefix.
    /// Every bound-component combination is a prefix of one of SPO/POS/OSP
    /// (notably `(s, ·, o)` is the `(o, s)` prefix of OSP), so the range
    /// always contains exactly the matching committed triples.
    fn plan_range(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> PlannedRange<'_> {
        let bound = |x: Option<TermId>| x.map(|id| id.raw());
        let (index, order, prefix) = match (bound(s), bound(p), bound(o)) {
            (Some(s), Some(p), Some(o)) => {
                (&self.spo, IndexOrder::Spo, [Some(s), Some(p), Some(o)])
            }
            (Some(s), Some(p), None) => (&self.spo, IndexOrder::Spo, [Some(s), Some(p), None]),
            (Some(s), None, None) => (&self.spo, IndexOrder::Spo, [Some(s), None, None]),
            // s and o bound, p free: the (o, s) prefix of OSP — a tight
            // range, unlike the (s) prefix of SPO plus a post-filter.
            (Some(s), None, Some(o)) => (&self.osp, IndexOrder::Osp, [Some(o), Some(s), None]),
            (None, Some(p), Some(o)) => (&self.pos, IndexOrder::Pos, [Some(p), Some(o), None]),
            (None, Some(p), None) => (&self.pos, IndexOrder::Pos, [Some(p), None, None]),
            (None, None, Some(o)) => (&self.osp, IndexOrder::Osp, [Some(o), None, None]),
            (None, None, None) => (&self.spo, IndexOrder::Spo, [None, None, None]),
        };
        let lo = (
            prefix[0].unwrap_or(0),
            prefix[1].unwrap_or(0),
            prefix[2].unwrap_or(0),
        );
        let hi = (
            prefix[0].unwrap_or(u32::MAX),
            prefix[1].unwrap_or(u32::MAX),
            prefix[2].unwrap_or(u32::MAX),
        );
        (index, order, lo, hi)
    }

    /// The committed triples matching a pattern, as one range of each
    /// level of the chosen permutation index, found with binary searches
    /// (O(log n), no visiting).
    pub fn pattern_slice(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> PatternSlice<'_> {
        let (index, order, lo, hi) = self.plan_range(s, p, o);
        let (base, delta) = index.range(lo, hi);
        PatternSlice { base, delta, order }
    }

    /// Like [`Graph::pattern_slice`], but seeded with a position hint from
    /// the caller's previous probe of the *same pattern shape* (same
    /// bound-component combination, so the same permutation index). When
    /// successive probe keys ascend — the common case when the probing
    /// variable was seeded from a sorted index prefix — the exponential
    /// (galloping) search from the hint replaces a full O(log n) binary
    /// search with an O(log gap) one over cache-adjacent keys, in each
    /// level from that level's hint. A hint that overshoots (non-monotonic
    /// probe order) falls back to a binary search, so results are always
    /// exact.
    pub fn pattern_slice_hinted(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        hint: &mut ProbeHint,
    ) -> PatternSlice<'_> {
        let (index, order, lo, hi) = self.plan_range(s, p, o);
        PatternSlice {
            base: hinted_range(&index.base, lo, hi, &mut hint.base),
            delta: hinted_range(&index.delta, lo, hi, &mut hint.delta),
            order,
        }
    }

    /// Number of committed index keys a scan of this pattern will visit,
    /// in O(log n) (range widths via binary searches, no visiting): the
    /// morsel planner's cardinality estimate. Because index selection
    /// always makes the bound components a prefix, this equals the exact
    /// match count — regression tests use it to pin index-selection
    /// decisions.
    pub fn probe_width(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        self.pattern_slice(s, p, o).len()
    }

    /// Statistics for a predicate over the committed indexes; `None` when
    /// no committed triple uses it.
    pub fn predicate_stats(&self, p: TermId) -> Option<PredicateStats> {
        self.pred_stats.get(&p.raw()).copied()
    }

    /// Matches a triple pattern (`None` = wildcard), invoking `visit` for
    /// each matching committed triple in index order. Chooses the
    /// permutation index that makes the bound components a prefix.
    pub fn match_pattern(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        visit: &mut dyn FnMut(Triple),
    ) {
        for t in self.pattern_slice(s, p, o).iter() {
            debug_assert!(t.matches(s, p, o), "prefix range must be exact");
            visit(t);
        }
    }

    /// Counts matches for a pattern by visiting them (O(matches) — the
    /// *reference* planner uses this; the morsel planner uses
    /// [`Graph::probe_width`]).
    pub fn count_pattern(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        let mut n = 0;
        self.match_pattern(s, p, o, &mut |_| n += 1);
        n
    }

    /// Collects matches into a `Vec`.
    pub fn collect_pattern(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<Triple> {
        let mut out = Vec::new();
        self.match_pattern(s, p, o, &mut |t| out.push(t));
        out
    }

    /// Iterates all committed triples in SPO order, whatever the split
    /// between the levels.
    pub fn iter_triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.pattern_slice(None, None, None).iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{GeoPoint, TimeMs};

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        g.insert(&Term::iri("v1"), &Term::iri("type"), &Term::iri("Vessel"));
        g.insert(&Term::iri("v2"), &Term::iri("type"), &Term::iri("Vessel"));
        g.insert(&Term::iri("f1"), &Term::iri("type"), &Term::iri("Flight"));
        g.insert(
            &Term::iri("v1"),
            &Term::iri("name"),
            &Term::string("BLUE STAR"),
        );
        g.insert(
            &Term::iri("v1"),
            &Term::iri("pos"),
            &Term::point(GeoPoint::new(23.5, 37.9)),
        );
        g.insert(
            &Term::iri("v1"),
            &Term::iri("at"),
            &Term::time(TimeMs(1000)),
        );
        g.commit();
        g
    }

    fn ids(g: &mut Graph, s: &str, p: &str) -> (TermId, TermId) {
        (g.encode(&Term::iri(s)), g.encode(&Term::iri(p)))
    }

    #[test]
    fn insert_and_count() {
        let g = sample_graph();
        assert_eq!(g.len(), 6);
        assert!(!g.is_empty());
    }

    #[test]
    fn pattern_by_subject() {
        let mut g = sample_graph();
        let (v1, _) = ids(&mut g, "v1", "type");
        let matches = g.collect_pattern(Some(v1), None, None);
        assert_eq!(matches.len(), 4);
        for t in matches {
            assert_eq!(t.s, v1);
        }
    }

    #[test]
    fn pattern_by_predicate_object() {
        let mut g = sample_graph();
        let ty = g.encode(&Term::iri("type"));
        let vessel = g.encode(&Term::iri("Vessel"));
        let matches = g.collect_pattern(None, Some(ty), Some(vessel));
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn pattern_by_object_only() {
        let mut g = sample_graph();
        let vessel = g.encode(&Term::iri("Vessel"));
        let matches = g.collect_pattern(None, None, Some(vessel));
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn full_scan_and_fully_bound() {
        let mut g = sample_graph();
        assert_eq!(g.collect_pattern(None, None, None).len(), 6);
        let (v1, ty) = ids(&mut g, "v1", "type");
        let vessel = g.encode(&Term::iri("Vessel"));
        assert_eq!(g.collect_pattern(Some(v1), Some(ty), Some(vessel)).len(), 1);
        let flight = g.encode(&Term::iri("Flight"));
        assert!(g
            .collect_pattern(Some(v1), Some(ty), Some(flight))
            .is_empty());
    }

    #[test]
    fn commit_dedupes() {
        let mut g = Graph::new();
        for _ in 0..5 {
            g.insert(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
        }
        g.commit();
        assert_eq!(g.len(), 1);
        // Repeats of a held triple, beside one new triple.
        g.insert(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
        g.insert(&Term::iri("a"), &Term::iri("p"), &Term::iri("c"));
        g.insert(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
        g.commit();
        assert_eq!(g.len(), 2);
        let p = g.dict().lookup(&Term::iri("p")).unwrap();
        assert_eq!(g.predicate_stats(p).unwrap().triples, 2);
    }

    #[test]
    fn spatiotemporal_literals_indexed() {
        let g = sample_graph();
        assert_eq!(g.spatial().len(), 1);
        assert_eq!(g.temporal().len(), 1);
    }

    #[test]
    fn repeated_literals_are_indexed_once() {
        use datacron_geo::{BoundingBox, TimeInterval};
        let mut g = Graph::new();
        // 3 distinct points and 4 distinct instants, each re-emitted under
        // 50 subjects (as the mapper does for a node and its events).
        for i in 0..50i64 {
            for k in 0..4i64 {
                let s = Term::iri(format!("n{i}/{k}"));
                let pos = Term::point(GeoPoint::new(23.0 + (k % 3) as f64, 37.0));
                g.insert(&s, &Term::iri("pos"), &pos);
                g.insert(&s, &Term::iri("at"), &Term::time(TimeMs(k * 1000)));
            }
        }
        g.commit();
        assert_eq!(g.len(), 400);
        assert_eq!(g.spatial().len(), 3);
        assert_eq!(g.temporal().len(), 4);
        let point_id = |lon: f64| g.dict().lookup(&Term::point(GeoPoint::new(lon, 37.0)));
        let hits = g
            .spatial()
            .within(&BoundingBox::new(22.5, 36.5, 24.5, 37.5));
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&point_id(23.0).unwrap()) && hits.contains(&point_id(24.0).unwrap()));
        let time_id = |ms: i64| g.dict().lookup(&Term::time(TimeMs(ms)));
        let hits = g
            .temporal()
            .between(&TimeInterval::new(TimeMs(1000), TimeMs(3000)));
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&time_id(1000).unwrap()) && hits.contains(&time_id(2000).unwrap()));
    }

    #[test]
    fn levels_fold_on_their_own_sizes() {
        // A base of 2 · FOLD_RATIO keys folds at the second delta key.
        let n = 2 * FOLD_RATIO;
        let mut levels = Levels::<usize>::default();
        let run: Vec<usize> = (0..n).collect();
        assert!(!levels.add(&run), "a run into an empty base does not fold");
        assert_eq!((levels.base.len(), levels.delta.len()), (n, 0));
        assert!(!levels.add(&[n + 10]));
        assert_eq!((levels.base.len(), levels.delta.len()), (n, 1));
        assert!(levels.add(&[n + 5]));
        assert_eq!((levels.base.len(), levels.delta.len()), (n + 2, 0));
        assert!(levels.contains(&(n + 5)) && levels.contains(&(n + 10)));
    }

    #[test]
    fn commit_indexes_literals_encoded_without_a_triple() {
        let mut g = Graph::new();
        g.encode(&Term::point(GeoPoint::new(1.0, 2.0)));
        g.encode(&Term::time(TimeMs(5)));
        g.encode(&Term::time(TimeMs(5)));
        assert_eq!((g.points.len(), g.instants.len()), (0, 0));
        g.commit();
        assert_eq!((g.points.len(), g.instants.len()), (1, 1));
        assert_eq!((g.len(), g.folds(), g.committed_terms()), (0, 0, 2));
        // A commit adds only the literals encoded since the last one.
        g.encode(&Term::time(TimeMs(6)));
        g.commit();
        assert_eq!((g.points.len(), g.instants.len()), (1, 2));
    }

    #[test]
    fn count_matches_collect() {
        let mut g = sample_graph();
        let ty = g.encode(&Term::iri("type"));
        assert_eq!(
            g.count_pattern(None, Some(ty), None),
            g.collect_pattern(None, Some(ty), None).len()
        );
    }

    #[test]
    fn iter_triples_covers_everything() {
        let mut g = sample_graph();
        g.insert(&Term::iri("x"), &Term::iri("p"), &Term::iri("y"));
        assert_eq!(g.iter_triples().count(), 6);
        g.commit();
        assert_eq!(g.iter_triples().count(), 7);
    }

    #[test]
    fn hinted_slice_matches_unhinted_in_any_probe_order() {
        let mut g = Graph::new();
        for i in 0..500 {
            let s = Term::iri(format!("s{i:03}"));
            g.insert(&s, &Term::iri("p"), &Term::integer(i % 7));
            if i % 3 == 0 {
                g.insert(&s, &Term::iri("q"), &Term::integer(i));
            }
        }
        g.commit();
        let p = g.encode(&Term::iri("p"));
        let subjects: Vec<TermId> = (0..500)
            .map(|i| g.encode(&Term::iri(format!("s{i:03}"))))
            .collect();

        // Ascending, descending, and repeated probe sequences must all
        // agree with the unhinted slice despite sharing one cursor.
        let mut orders: Vec<Vec<TermId>> = vec![
            subjects.clone(),
            subjects.iter().rev().copied().collect(),
            subjects.iter().flat_map(|&s| [s, s]).collect(),
        ];
        // A pseudo-random shuffle without rand: stride through the list.
        orders.push((0..500).map(|i| subjects[(i * 131) % 500]).collect());
        for order in orders {
            let mut hint = ProbeHint::default();
            for s in order {
                let plain: Vec<Triple> = g.pattern_slice(Some(s), Some(p), None).iter().collect();
                let hinted: Vec<Triple> = g
                    .pattern_slice_hinted(Some(s), Some(p), None, &mut hint)
                    .iter()
                    .collect();
                assert_eq!(plain, hinted, "subject {s:?}");
            }
        }
    }

    #[test]
    fn hinted_slice_handles_empty_and_missing_ranges() {
        let mut g = Graph::new();
        g.insert(&Term::iri("a"), &Term::iri("p"), &Term::iri("b"));
        g.commit();
        let absent = g.encode(&Term::iri("zzz"));
        let p = g.encode(&Term::iri("p"));
        let mut hint = ProbeHint::default();
        assert!(g
            .pattern_slice_hinted(Some(absent), Some(p), None, &mut hint)
            .is_empty());
        let a = g.encode(&Term::iri("a"));
        assert_eq!(
            g.pattern_slice_hinted(Some(a), Some(p), None, &mut hint)
                .len(),
            1
        );
        // Empty graph: any probe is empty at any hint.
        let empty = Graph::new();
        let mut hint = ProbeHint {
            base: 10,
            delta: 10,
        };
        assert!(empty
            .pattern_slice_hinted(None, None, None, &mut hint)
            .is_empty());
    }

    #[test]
    fn pattern_slice_subrange_clamps() {
        let mut g = sample_graph();
        let ty = g.encode(&Term::iri("type"));
        let s = g.pattern_slice(None, Some(ty), None);
        assert_eq!(s.len(), 3);
        assert_eq!(s.slice(1, 3).len(), 2);
        assert_eq!(s.slice(0, 99).len(), 3);
        assert_eq!(s.slice(5, 2).len(), 0);
        let all: Vec<Triple> = s.iter().collect();
        let sub: Vec<Triple> = s.slice(1, 3).iter().collect();
        assert_eq!(&all[1..3], &sub[..]);
    }
}
