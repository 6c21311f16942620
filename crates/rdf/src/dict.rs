//! Dictionary encoding: terms ↔ dense `u32` ids.
//!
//! Every term is stored once, in fixed-size chunks that never move: id
//! `i` lives at offset `i % CHUNK` of chunk `i / CHUNK`, so decoding is
//! two index operations. A full chunk is sealed as an `Arc<[Term]>`; the
//! open one is a `Vec` allocated at the chunk size, so a push never
//! reallocates.
//!
//! The term → id direction is an open-addressing table that holds ids
//! only, each beside 32 bits of its term's hash: a probe decodes a term
//! only when those bits match. The table doubles incrementally, the way
//! Redis's dictionary does, so no single `encode` rehashes the store.

use crate::term::Term;
use datacron_geo::FxHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A dense identifier for an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TermId(pub u32);

impl TermId {
    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

/// Terms per chunk (a power of two, so an id splits with a shift and a
/// mask).
const CHUNK_BITS: u32 = 12;
const CHUNK: usize = 1 << CHUNK_BITS;

/// The smallest table: 16 slots.
const MIN_TABLE_BITS: u32 = 4;

/// Old-table slots one `encode` moves while the table grows.
///
/// Growth starts when an insert would put a table of `C` slots above
/// half load, so the old table holds `C / 2` ids and the doubled one,
/// of `2C` slots, reaches its own threshold `C / 2` inserts later. All
/// `C` old slots must be visited in those `C / 2` inserts: two per
/// insert is the least that does it. Four ends the move halfway, which
/// halves the span in which a miss probes both tables, for a few slot
/// reads more per `encode`.
const MOVE_STEP: usize = 4;

/// One table slot: 0 when empty, else the term's 32-bit hash in the high
/// half and `id + 1` in the low half. Empty slots are zero bits, so a
/// new table is a zeroed allocation.
type Slot = u64;

fn slot(hash: u32, id: TermId) -> Slot {
    (u64::from(hash) << 32) | u64::from(id.raw() + 1)
}

fn slot_hash(s: Slot) -> u32 {
    (s >> 32) as u32
}

fn slot_id(s: Slot) -> TermId {
    TermId((s as u32).wrapping_sub(1))
}

/// The 32 hash bits a slot keeps. `FxHasher` leaves its low bits weak, so
/// its output goes through splitmix64's finaliser first and the top half
/// is kept: a table of `2^b` slots is indexed by the top `b` of these
/// bits, and the rest are the fragment a probe compares before decoding.
fn fingerprint(term: &Term) -> u32 {
    let mut h = FxHasher::default();
    term.hash(&mut h);
    let mut z = h.finish();
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) >> 32) as u32
}

/// A linear-probing table of [`Slot`]s, `2^bits` of them (none when
/// `bits` is 0). Ids are never removed, so no probe meets a tombstone.
#[derive(Debug, Default)]
struct Table {
    slots: Box<[Slot]>,
    bits: u32,
}

impl Table {
    fn with_bits(bits: u32) -> Self {
        Self {
            slots: vec![0; 1 << bits].into_boxed_slice(),
            bits,
        }
    }

    /// The id whose slot carries `hash` and whose term `is` accepts.
    fn find(&self, hash: u32, is: impl Fn(TermId) -> bool) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash >> (32 - self.bits)) as usize;
        loop {
            let s = self.slots[i];
            if s == 0 {
                return None;
            }
            if slot_hash(s) == hash && is(slot_id(s)) {
                return Some(slot_id(s));
            }
            i = (i + 1) & mask;
        }
    }

    /// Stores `s` in the first empty slot of its probe sequence. The
    /// caller keeps the load at or below one half, so there is one.
    fn place(&mut self, s: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = (slot_hash(s) >> (32 - self.bits)) as usize;
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = s;
    }
}

/// A two-way term dictionary.
///
/// Encoding a term the first time assigns the next dense id; ids are stable
/// for the dictionary's lifetime. All triple-store indexes operate on
/// `TermId`s, so joins compare integers, not strings. Ids run up to
/// `u32::MAX - 1`.
#[derive(Debug, Default)]
pub struct Dictionary {
    /// Full chunks of `CHUNK` terms, ids `k * CHUNK ..` in chunk `k`.
    sealed: Vec<Arc<[Term]>>,
    /// The chunk being filled, allocated at `CHUNK` terms.
    open: Vec<Term>,
    /// The table inserts go to; at most half full.
    table: Table,
    /// While the table grows: the one it replaced, read-only, whose slots
    /// below `moved` have been copied into `table`. Empty otherwise.
    old: Table,
    moved: usize,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bulk builder behind snapshot restore: `terms[i]` gets id `i`.
    /// The terms move into chunks without a clone, and the table is built
    /// once, sized up front for a load of at most one half. `Err(i)` names
    /// the first id whose term repeats an earlier one (ids would no longer
    /// be a bijection), or that the id range cannot hold.
    pub(crate) fn from_terms(terms: Vec<Term>) -> Result<Self, usize> {
        Self::from_terms_hashed(terms, fingerprint)
    }

    fn from_terms_hashed(terms: Vec<Term>, hash: impl Fn(&Term) -> u32) -> Result<Self, usize> {
        let n = terms.len();
        let last = usize::try_from(u32::MAX).unwrap_or(usize::MAX);
        if n > last {
            return Err(last);
        }
        let mut rest = terms.into_iter();
        let mut dict = Self::new();
        for _ in 0..n / CHUNK {
            dict.sealed.push(rest.by_ref().take(CHUNK).collect());
        }
        dict.open = Vec::with_capacity(CHUNK);
        dict.open.extend(rest);
        let bits = (2 * n)
            .next_power_of_two()
            .trailing_zeros()
            .max(MIN_TABLE_BITS);
        let mut table = Table::with_bits(bits);
        for (id, term) in dict.iter() {
            let h = hash(term);
            if table.find(h, |j| dict.decode(j) == Some(term)).is_some() {
                return Err(id.raw() as usize);
            }
            table.place(slot(h, id));
        }
        dict.table = table;
        Ok(dict)
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK + self.open.len()
    }

    /// True when no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns a term, returning its id (existing id when already interned).
    pub fn encode(&mut self, term: &Term) -> TermId {
        self.encode_hashed(fingerprint(term), term)
    }

    fn encode_hashed(&mut self, hash: u32, term: &Term) -> TermId {
        let id = match self.lookup_hashed(hash, term) {
            Some(id) => id,
            None => self.insert(hash, term.clone()),
        };
        self.move_step();
        id
    }

    /// Appends a term known to be absent and files its id.
    fn insert(&mut self, hash: u32, term: Term) -> TermId {
        let n = self.len();
        let id = u32::try_from(n)
            .ok()
            .filter(|&i| i < u32::MAX)
            // lint:allow(no_panic) u32::MAX - 1 ids is over 100 GiB of
            // terms; memory runs out long before an id overflows.
            .expect("term ids exhausted");
        if 2 * (n + 1) > self.table.slots.len() {
            self.grow();
        }
        self.table.place(slot(hash, TermId(id)));
        if self.open.len() == CHUNK {
            let full = std::mem::replace(&mut self.open, Vec::with_capacity(CHUNK));
            self.sealed.push(full.into());
        } else if self.open.capacity() == 0 {
            self.open.reserve_exact(CHUNK);
        }
        self.open.push(term);
        TermId(id)
    }

    /// Starts moving into a table of twice the slots. The move is over by
    /// now (see [`MOVE_STEP`]); finishing one that is not keeps the table
    /// right whatever the step.
    fn grow(&mut self) {
        while !self.old.slots.is_empty() {
            self.move_step();
        }
        let bits = (self.table.bits + 1).max(MIN_TABLE_BITS);
        self.old = std::mem::replace(&mut self.table, Table::with_bits(bits));
        self.moved = 0;
    }

    /// Copies up to [`MOVE_STEP`] of the old table's slots into the new
    /// one, and frees the old table after its last.
    fn move_step(&mut self) {
        let end = (self.moved + MOVE_STEP).min(self.old.slots.len());
        for &s in &self.old.slots[self.moved..end] {
            if s != 0 {
                self.table.place(s);
            }
        }
        self.moved = end;
        if end == self.old.slots.len() {
            self.old = Table::default();
            self.moved = 0;
        }
    }

    /// The id of an already-interned term.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.lookup_hashed(fingerprint(term), term)
    }

    /// Probes the table, then the one it is replacing: an id not yet
    /// moved is still there.
    fn lookup_hashed(&self, hash: u32, term: &Term) -> Option<TermId> {
        let is = |id| self.decode(id) == Some(term);
        self.table
            .find(hash, is)
            .or_else(|| self.old.find(hash, is))
    }

    /// The term behind an id.
    pub fn decode(&self, id: TermId) -> Option<&Term> {
        let i = id.raw() as usize;
        let (chunk, at) = (i >> CHUNK_BITS, i & (CHUNK - 1));
        match self.sealed.get(chunk) {
            Some(terms) => terms.get(at),
            None if chunk == self.sealed.len() => self.open.get(at),
            None => None,
        }
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.sealed
            .iter()
            .flat_map(|c| c.iter())
            .chain(&self.open)
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{GeoPoint, Rng};
    use std::collections::BTreeMap;

    #[test]
    fn encode_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.encode(&Term::iri("da:v1"));
        let b = d.encode(&Term::iri("da:v1"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut d = Dictionary::new();
        let ids: Vec<TermId> = (0..10).map(|i| d.encode(&Term::integer(i))).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.raw(), i as u32);
        }
        // Re-encoding keeps ids.
        assert_eq!(d.encode(&Term::integer(3)), ids[3]);
    }

    #[test]
    fn decode_round_trip() {
        let mut d = Dictionary::new();
        let terms = vec![
            Term::iri("da:x"),
            Term::string("hello"),
            Term::double(2.5),
            Term::point(GeoPoint::new(23.0, 37.0)),
            Term::time(datacron_geo::TimeMs(12345)),
        ];
        for t in &terms {
            let id = d.encode(t);
            assert_eq!(d.decode(id), Some(t));
            assert_eq!(d.lookup(t), Some(id));
        }
        assert_eq!(d.len(), terms.len());
    }

    #[test]
    fn lookup_missing_is_none() {
        let d = Dictionary::new();
        assert_eq!(d.lookup(&Term::iri("nope")), None);
        assert_eq!(d.decode(TermId(0)), None);
        assert!(d.is_empty());
    }

    #[test]
    fn from_terms_matches_encoding_in_order_and_rejects_repeats() {
        let terms = vec![Term::iri("a"), Term::integer(1), Term::string("a")];
        let mut d = Dictionary::new();
        for t in &terms {
            d.encode(t);
        }
        let bulk = Dictionary::from_terms(terms.clone()).unwrap();
        assert!(bulk.iter().eq(d.iter()));
        for t in &terms {
            assert_eq!(bulk.lookup(t), d.lookup(t));
        }
        let repeat = |at: usize| {
            let mut v = terms.clone();
            v.insert(at, terms[0].clone());
            Dictionary::from_terms(v).map(|_| ()).unwrap_err()
        };
        assert_eq!(repeat(1), 1);
        assert_eq!(repeat(3), 3);
        assert!(Dictionary::from_terms(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn iter_in_id_order() {
        let mut d = Dictionary::new();
        d.encode(&Term::iri("a"));
        d.encode(&Term::iri("b"));
        let collected: Vec<(u32, String)> =
            d.iter().map(|(id, t)| (id.raw(), t.to_string())).collect();
        assert_eq!(collected, vec![(0, "<a>".into()), (1, "<b>".into())]);
    }

    /// Term number `k` of the test universe: every variant, and distinct
    /// for distinct `k`.
    fn term(k: u64) -> Term {
        let i = i64::try_from(k).unwrap();
        match k % 6 {
            0 => Term::iri(format!("da:node/{k}")),
            1 => Term::string(format!("name {k}")),
            2 => Term::integer(i),
            3 => Term::double(i as f64 * 0.25),
            4 => Term::time(datacron_geo::TimeMs(i * 1_000)),
            _ => Term::point(GeoPoint::new(i as f64 * 1e-4, 37.0)),
        }
    }

    /// The hashes the property test runs under: the real one, one that
    /// keeps 4 of its bits (long runs of equal home slots and equal
    /// fragments) and one that maps every term to one value.
    type TermHash = fn(&Term) -> u32;
    const HASHES: [(&str, TermHash); 3] = [
        ("fingerprint", fingerprint),
        ("16 values", |t| fingerprint(t) & 0xF000_0000),
        ("constant", |_| 0x8000_0000),
    ];

    /// `Dictionary` against a `BTreeMap` (term → id, keyed by the term's
    /// `Debug` form, which is distinct over the universe) plus a `Vec`
    /// (id → term), under one hash.
    struct Model {
        dict: Dictionary,
        ids: BTreeMap<String, u32>,
        terms: Vec<Term>,
        hash: TermHash,
    }

    impl Model {
        fn new(hash: TermHash) -> Self {
            Self {
                dict: Dictionary::new(),
                ids: BTreeMap::new(),
                terms: Vec::new(),
                hash,
            }
        }

        /// Old-table slots still to move, for the step bound.
        fn pending(&self) -> usize {
            self.dict.old.slots.len() - self.dict.moved
        }

        fn encode(&mut self, t: &Term) {
            let (before, old_len) = (self.pending(), self.dict.old.slots.len());
            let id = self.dict.encode_hashed((self.hash)(t), t);
            let want = *self.ids.entry(format!("{t:?}")).or_insert_with(|| {
                self.terms.push(t.clone());
                u32::try_from(self.terms.len() - 1).unwrap()
            });
            assert_eq!(id.raw(), want, "encode {t:?}");
            // Slots moved by this encode: the rest of the old table it
            // started with, plus what it moved of one it began.
            let d = &self.dict;
            let moved = if d.old.slots.len() == old_len && old_len > 0 {
                before - self.pending()
            } else {
                before + d.moved
            };
            assert!(moved <= MOVE_STEP, "one encode moved {moved} slots");
            assert!(2 * d.len() <= d.table.slots.len(), "load above one half");
        }

        fn check_lookups(&self, rng: &mut Rng, universe: u64) {
            for _ in 0..64 {
                let t = term(rng.gen_range(0..universe));
                let want = self.ids.get(&format!("{t:?}")).copied().map(TermId);
                assert_eq!(self.dict.lookup_hashed((self.hash)(&t), &t), want);
            }
            for _ in 0..64 {
                let id = rng.gen_range(0..self.terms.len() as u32 + 8);
                assert_eq!(
                    self.dict.decode(TermId(id)),
                    self.terms.get(id as usize),
                    "decode {id}"
                );
            }
        }

        fn check_whole(&self) {
            assert_eq!(self.dict.len(), self.terms.len());
            assert_eq!(self.dict.is_empty(), self.terms.is_empty());
            assert!(self.dict.iter().eq(self
                .terms
                .iter()
                .enumerate()
                .map(|(i, t)| (TermId(i as u32), t))));
            for (i, t) in self.terms.iter().enumerate() {
                let found = self.dict.lookup_hashed((self.hash)(t), t);
                assert_eq!(found, Some(TermId(i as u32)), "lookup {t:?}");
            }
        }

        /// Replaces the dictionary with one restored from the model's
        /// terms, as a snapshot restore does.
        fn restore(&mut self) {
            let terms = self.terms.clone();
            self.dict = Dictionary::from_terms_hashed(terms, self.hash).unwrap();
            self.check_whole();
            assert_eq!(
                self.dict.table.slots.len(),
                (2 * self.terms.len()).next_power_of_two().max(16)
            );
        }
    }

    /// Random encodes over a universe that grows ahead of the dictionary,
    /// so about half the encodes are repeats, checked against the model
    /// through every resize; under the collision hashes too.
    #[test]
    fn encode_lookup_decode_iter_agree_with_the_model_through_resizes() {
        for (name, hash) in HASHES {
            // The constant hash makes every probe a walk over the whole
            // cluster, so it runs smaller.
            let n = if name == "constant" { 300 } else { 9_000 };
            let mut rng = Rng::seed_from_u64(41);
            let mut m = Model::new(hash);
            let mut grows = 0;
            while m.terms.len() < n {
                let universe = 2 * m.terms.len() as u64 + 8;
                let slots = m.dict.table.slots.len();
                m.encode(&term(rng.gen_range(0..universe)));
                grows += usize::from(m.dict.table.slots.len() != slots);
                if rng.gen_bool(0.02) {
                    m.check_lookups(&mut rng, universe);
                }
            }
            assert!(grows >= 5, "{name}: {grows} resizes");
            m.check_whole();
        }
    }

    /// Restores at sizes one below, at and one above every load
    /// threshold up to 2^13 terms, then encodes on past the next one.
    #[test]
    fn from_terms_at_every_threshold_then_grows() {
        for (name, hash) in HASHES {
            let top = if name == "constant" { 7 } else { 13 };
            for bits in MIN_TABLE_BITS..=top {
                for n in [
                    (1 << (bits - 1)) - 1,
                    1 << (bits - 1),
                    (1 << (bits - 1)) + 1,
                ] {
                    let mut m = Model::new(hash);
                    m.terms = (0..n).map(term).collect();
                    m.ids = m
                        .terms
                        .iter()
                        .zip(0..)
                        .map(|(t, i)| (format!("{t:?}"), i))
                        .collect();
                    m.restore();
                    let mut rng = Rng::seed_from_u64(n);
                    let target = 2 * n + 3;
                    while (m.terms.len() as u64) < target {
                        m.encode(&term(rng.gen_range(0..2 * target)));
                    }
                    m.check_whole();
                }
            }
        }
    }

    /// A repeat of the terms at ids 4 095 and 4 096 — the last of the
    /// first chunk and the first of the second — encodes to its id and is
    /// an error for the bulk builder, wherever it sits.
    #[test]
    fn repeats_at_the_chunk_boundary() {
        let terms: Vec<Term> = (0..CHUNK as u64 + 2).map(term).collect();
        let mut d = Dictionary::new();
        for t in &terms {
            d.encode(t);
        }
        assert_eq!(d.sealed.len(), 1);
        for id in [CHUNK - 1, CHUNK] {
            assert_eq!(d.encode(&terms[id]).raw() as usize, id);
            assert_eq!(d.len(), terms.len());
            assert_eq!(d.decode(TermId(id as u32)), Some(&terms[id]));
        }
        let restored = Dictionary::from_terms(terms.clone()).unwrap();
        assert!(restored.iter().eq(d.iter()));
        for (at, from) in [
            (CHUNK - 1, 0),
            (CHUNK, 5),
            (CHUNK, CHUNK - 1),
            (CHUNK + 1, CHUNK),
        ] {
            let mut v = terms[..at].to_vec();
            v.push(terms[from].clone());
            v.extend_from_slice(&terms[at..]);
            assert_eq!(
                Dictionary::from_terms(v).map(|_| ()),
                Err(at),
                "{from} again at {at}"
            );
        }
    }

    /// The open chunk is allocated once, at the chunk size, by `new` and
    /// `from_terms` alike.
    #[test]
    fn the_open_chunk_never_reallocates() {
        let mut d = Dictionary::new();
        d.encode(&term(0));
        let base = d.open.as_ptr();
        for k in 1..CHUNK as u64 {
            d.encode(&term(k));
        }
        assert_eq!(d.open.as_ptr(), base);
        assert_eq!(d.open.capacity(), CHUNK);
        d.encode(&term(CHUNK as u64));
        assert_eq!(d.open.capacity(), CHUNK);
        let restored = Dictionary::from_terms(vec![term(1)]).unwrap();
        assert_eq!(restored.open.capacity(), CHUNK);
    }
}
