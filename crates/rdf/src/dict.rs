//! Dictionary encoding: terms ↔ dense `u32` ids.

use crate::term::Term;
use datacron_geo::FxHashMap;

/// A dense identifier for an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TermId(pub u32);

impl TermId {
    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

/// A two-way term dictionary.
///
/// Encoding a term the first time assigns the next dense id; ids are stable
/// for the dictionary's lifetime. All triple-store indexes operate on
/// `TermId`s, so joins compare integers, not strings.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    terms: Vec<Term>,
    ids: FxHashMap<Term, TermId>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bulk builder behind snapshot restore: `terms[i]` gets id `i`.
    /// One pass into a map sized up front; each term moves in and is
    /// cloned once, for its map key. `Err(i)` names the first id whose
    /// term repeats an earlier one (ids would no longer be a bijection),
    /// or that a `u32` cannot hold.
    pub(crate) fn from_terms(terms: Vec<Term>) -> Result<Self, usize> {
        let mut ids = FxHashMap::with_capacity_and_hasher(terms.len(), Default::default());
        for (i, term) in terms.iter().enumerate() {
            let id = u32::try_from(i).map_err(|_| i)?;
            if ids.insert(term.clone(), TermId(id)).is_some() {
                return Err(i);
            }
        }
        Ok(Self { terms, ids })
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Interns a term, returning its id (existing id when already interned).
    pub fn encode(&mut self, term: &Term) -> TermId {
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(term.clone());
        self.ids.insert(term.clone(), id);
        id
    }

    /// The id of an already-interned term.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// The term behind an id.
    pub fn decode(&self, id: TermId) -> Option<&Term> {
        self.terms.get(id.raw() as usize)
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::GeoPoint;

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
}
