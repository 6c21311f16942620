//! Compact binary serialization of a graph (dictionary included).
//!
//! This is the snapshot format the storage layer persists: terms in
//! dictionary-id order followed by encoded triples, so restoring assigns
//! every term the **same id** it had in the source graph and the triples
//! can be re-inserted verbatim. Like every read of the graph, a snapshot
//! holds it as of its last commit: the committed triples and the terms
//! encoded before that commit, so the restored graph answers exactly as
//! its source did. None of the derived state travels in the
//! payload: [`from_binary`] decodes every term, hands them in id order to
//! the dictionary's bulk builder, then to [`Graph::load`], which builds
//! the three permutation indexes, the per-predicate statistics and the
//! spatial/temporal literal indexes once each. Neither the per-term
//! interning path nor the commit routine runs on a restore.
//!
//! Decoding never trusts a count: a term or triple count that the bytes
//! left could not hold is an error before anything is allocated for it.
//!
//! Unlike [`crate::ntriples`], this format round-trips every `f64` bit
//! pattern exactly (doubles and points travel as raw bits, not decimal
//! text) and is several times smaller; the text dump remains the
//! interchange/debugging format.

use crate::dict::{Dictionary, TermId};
use crate::store::{Graph, Triple};
use crate::term::{Literal, Term};
use datacron_geo::{GeoPoint, TimeMs};
pub use datacron_storage::binser::BinError;
use datacron_storage::binser::{Reader, Writer};

/// Format version, bumped on any wire change.
const VERSION: u32 = 1;

fn write_term(w: &mut Writer, term: &Term) {
    match term {
        Term::Iri(iri) => {
            w.variant(0);
            w.str(iri);
        }
        Term::Literal(Literal::String(s)) => {
            w.variant(1);
            w.str(s);
        }
        Term::Literal(Literal::Integer(i)) => {
            w.variant(2);
            w.i64(*i);
        }
        Term::Literal(Literal::Double(d)) => {
            w.variant(3);
            w.f64(*d);
        }
        Term::Literal(Literal::Boolean(b)) => {
            w.variant(4);
            w.bool(*b);
        }
        Term::Literal(Literal::Time(t)) => {
            w.variant(5);
            w.i64(t.millis());
        }
        Term::Literal(Literal::Point(p)) => {
            w.variant(6);
            w.f64(p.lon);
            w.f64(p.lat);
        }
    }
}

fn read_term(r: &mut Reader<'_>) -> Result<Term, BinError> {
    Ok(match r.variant()? {
        0 => Term::Iri(r.string()?),
        1 => Term::Literal(Literal::String(r.string()?)),
        2 => Term::Literal(Literal::Integer(r.i64()?)),
        3 => Term::Literal(Literal::Double(r.f64()?)),
        4 => Term::Literal(Literal::Boolean(r.bool()?)),
        5 => Term::Literal(Literal::Time(TimeMs(r.i64()?))),
        6 => {
            let lon = r.f64()?;
            let lat = r.f64()?;
            Term::Literal(Literal::Point(GeoPoint::new(lon, lat)))
        }
        v => return Err(BinError::msg(format!("unknown term variant {v}"))),
    })
}

/// The fewest bytes a term takes on the wire: a variant tag and a
/// boolean.
const MIN_TERM_BYTES: usize = 4 + 1;

/// The bytes of one triple on the wire: three `u32` ids.
const TRIPLE_BYTES: usize = 3 * 4;

/// Serializes the graph as of its last commit — those dictionary terms
/// in id order, then the committed triples in SPO order as raw id
/// triplets.
pub fn to_binary(graph: &Graph) -> Vec<u8> {
    let mut w = Writer::with_capacity(16 + graph.dict().len() * 16 + graph.len() * 12);
    write_binary(graph, &mut w);
    w.into_bytes()
}

/// Appends [`to_binary`]'s bytes to `w`, for a caller that embeds the
/// graph in a larger payload without building it apart first.
pub fn write_binary(graph: &Graph, w: &mut Writer) {
    let terms = graph.committed_terms();
    w.u32(VERSION);
    w.seq_len(terms);
    for (_, term) in graph.dict().iter().take(terms) {
        write_term(w, term);
    }
    w.seq_len(graph.len());
    for t in graph.iter_triples() {
        w.u32(t.s.raw());
        w.u32(t.p.raw());
        w.u32(t.o.raw());
    }
}

/// Reads a count of items that take at least `min_bytes` each, refusing
/// one the rest of the input could not hold.
fn count(r: &mut Reader<'_>, min_bytes: usize, what: &str) -> Result<usize, BinError> {
    let n = r.seq_len()?;
    if n.checked_mul(min_bytes).is_none_or(|b| b > r.remaining()) {
        return Err(BinError::msg(format!(
            "{n} {what} cannot fit in the {} bytes left",
            r.remaining()
        )));
    }
    Ok(n)
}

/// Reconstructs a graph from [`to_binary`] output. Term ids match the
/// source graph exactly; any structural damage (bad variant, a repeated
/// term, id out of range, a repeated triple, an impossible count,
/// trailing bytes) is an error, never a panic.
pub fn from_binary(bytes: &[u8]) -> Result<Graph, BinError> {
    let mut r = Reader::new(bytes);
    let version = r.u32()?;
    if version != VERSION {
        return Err(BinError::msg(format!(
            "unsupported graph format version {version}"
        )));
    }
    let n_terms = count(&mut r, MIN_TERM_BYTES, "terms")?;
    let mut terms = Vec::with_capacity(n_terms);
    for _ in 0..n_terms {
        terms.push(read_term(&mut r)?);
    }
    let dict = Dictionary::from_terms(terms)
        .map_err(|id| BinError::msg(format!("duplicate dictionary term at id {id}")))?;
    let n_triples = count(&mut r, TRIPLE_BYTES, "triples")?;
    let n_terms_u64 = u64::try_from(n_terms).unwrap_or(u64::MAX);
    let mut triples = Vec::with_capacity(n_triples);
    for _ in 0..n_triples {
        let (s, p, o) = (r.u32()?, r.u32()?, r.u32()?);
        if [s, p, o].iter().any(|&id| u64::from(id) >= n_terms_u64) {
            return Err(BinError::msg(format!(
                "triple id out of range: ({s}, {p}, {o}) with {n_terms} terms"
            )));
        }
        triples.push(Triple {
            s: TermId(s),
            p: TermId(p),
            o: TermId(o),
        });
    }
    r.finish()?;
    Graph::load(dict, triples).map_err(|t| {
        BinError::msg(format!(
            "duplicate triple ({}, {}, {})",
            t.s.raw(),
            t.p.raw(),
            t.o.raw()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert(
            &Term::iri("da:v1"),
            &Term::iri("rdf:type"),
            &Term::iri("da:Vessel"),
        );
        g.insert(
            &Term::iri("da:v1"),
            &Term::iri("da:pos"),
            &Term::point(GeoPoint::new(23.5, 37.9)),
        );
        g.insert(
            &Term::iri("da:v1"),
            &Term::iri("da:at"),
            &Term::time(TimeMs(1234)),
        );
        g.insert(
            &Term::iri("da:v1"),
            &Term::iri("da:speed"),
            &Term::double(7.25),
        );
        g.insert(
            &Term::iri("da:v1"),
            &Term::iri("da:name"),
            &Term::string("BLUE STAR"),
        );
        g.insert(
            &Term::iri("da:v1"),
            &Term::iri("da:active"),
            &Term::boolean(true),
        );
        g.insert(&Term::iri("da:v1"), &Term::iri("da:n"), &Term::integer(-9));
        g.commit();
        g
    }

    #[test]
    fn round_trip_preserves_ids_and_triples() {
        let g = sample();
        let bytes = to_binary(&g);
        let g2 = from_binary(&bytes).expect("round trip");
        assert_eq!(g2.len(), g.len());
        assert_eq!(g2.dict().len(), g.dict().len());
        for (id, term) in g.dict().iter() {
            assert_eq!(g2.decode(id), Some(term), "id {} must be stable", id.raw());
        }
        let mut a: Vec<Triple> = g.iter_triples().collect();
        let mut b: Vec<Triple> = g2.iter_triples().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn secondary_indexes_rebuilt() {
        let g = sample();
        let g2 = from_binary(&to_binary(&g)).unwrap();
        assert_eq!(g2.spatial().len(), g.spatial().len());
        assert_eq!(g2.temporal().len(), g.temporal().len());
    }

    /// A point literal with a NaN or infinite coordinate is indexed on an
    /// edge cell and restores like any other; no box contains it.
    #[test]
    fn non_finite_point_literals_restore() {
        use datacron_geo::BoundingBox;
        let mut g = Graph::new();
        let points = [(f64::NAN, 1.0), (f64::INFINITY, f64::NAN), (20.0, 37.0)];
        for (i, (lon, lat)) in points.into_iter().enumerate() {
            g.insert(
                &Term::iri(format!("n{i}")),
                &Term::iri("pos"),
                &Term::point(GeoPoint::new(lon, lat)),
            );
        }
        g.commit();
        let g2 = from_binary(&to_binary(&g)).unwrap();
        assert_eq!(g2.spatial().len(), 3);
        let world = BoundingBox::new(-180.0, -90.0, 180.0, 90.0);
        assert_eq!(g2.spatial().within(&world), g.spatial().within(&world));
        assert_eq!(g2.spatial().within(&world).len(), 1);
    }

    #[test]
    fn exotic_doubles_survive_exactly() {
        let mut g = Graph::new();
        for (i, d) in [0.1 + 0.2, -0.0, f64::MIN_POSITIVE, 1e300]
            .iter()
            .enumerate()
        {
            g.insert(
                &Term::iri(format!("s{i}")),
                &Term::iri("da:v"),
                &Term::double(*d),
            );
        }
        g.commit();
        let g2 = from_binary(&to_binary(&g)).unwrap();
        for (id, term) in g.dict().iter() {
            assert_eq!(g2.decode(id), Some(term));
        }
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = to_binary(&sample());
        for cut in 0..bytes.len() {
            let _ = from_binary(&bytes[..cut]); // must return Err or Ok, not panic
        }
    }

    #[test]
    fn corrupt_triple_ids_rejected() {
        let g = sample();
        let mut bytes = to_binary(&g);
        // Smash the last triple's object id to a huge value.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(from_binary(&bytes).is_err());
    }

    /// `bytes` with a copy of triple `which` appended and the triple count
    /// fixed up, so only the repetition is wrong with the payload.
    fn with_repeated_triple(mut bytes: Vec<u8>, n_triples: usize, which: usize) -> Vec<u8> {
        let count_at = bytes.len() - 12 * n_triples - 8;
        let n = u64::try_from(n_triples).unwrap();
        assert_eq!(bytes[count_at..count_at + 8], n.to_le_bytes());
        let at = count_at + 8 + 12 * which;
        let copy = bytes[at..at + 12].to_vec();
        bytes.extend_from_slice(&copy);
        bytes[count_at..count_at + 8].copy_from_slice(&(n + 1).to_le_bytes());
        bytes
    }

    #[test]
    fn repeated_triple_rejected() {
        let mut g = sample();
        let n = g.len();
        for which in [0, n - 1] {
            let err = from_binary(&with_repeated_triple(to_binary(&g), n, which)).unwrap_err();
            assert!(err.to_string().contains("duplicate triple"), "{err}");
        }
        // The same after a second commit.
        g.insert(&Term::iri("da:x"), &Term::iri("da:p"), &Term::iri("da:y"));
        g.insert(&Term::iri("da:a"), &Term::iri("da:p"), &Term::iri("da:y"));
        g.commit();
        let n = g.len();
        assert!(from_binary(&to_binary(&g)).is_ok());
        for which in [0, n - 2, n - 1] {
            assert!(from_binary(&with_repeated_triple(to_binary(&g), n, which)).is_err());
        }
    }

    /// A payload written by hand, so it can hold what no graph would.
    fn payload(terms: &[Term], n_terms: usize, triples: &[[u32; 3]], n_triples: usize) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(VERSION);
        w.seq_len(n_terms);
        for t in terms {
            write_term(&mut w, t);
        }
        w.seq_len(n_triples);
        for id in triples.iter().flatten() {
            w.u32(*id);
        }
        w.into_bytes()
    }

    fn hostile(terms: &[Term], n_terms: usize, triples: &[[u32; 3]], n_triples: usize) -> String {
        from_binary(&payload(terms, n_terms, triples, n_triples))
            .map(|_| ())
            .unwrap_err()
            .to_string()
    }

    #[test]
    fn repeated_terms_rejected_at_the_first_and_last_id() {
        let (a, b, c) = (Term::iri("da:a"), Term::iri("da:b"), Term::integer(3));
        let t = [[0, 1, 2]];
        assert!(from_binary(&payload(&[a.clone(), b.clone(), c.clone()], 3, &t, 1)).is_ok());
        // The term at id 0 again, right after it and as the last id.
        let err = hostile(&[a.clone(), a.clone(), b.clone(), c.clone()], 4, &t, 1);
        assert!(err.contains("duplicate dictionary term at id 1"), "{err}");
        let err = hostile(&[a.clone(), b.clone(), c.clone(), a.clone()], 4, &t, 1);
        assert!(err.contains("duplicate dictionary term at id 3"), "{err}");
        // The last id repeating one in the middle.
        let err = hostile(&[a, b.clone(), c, b], 4, &t, 1);
        assert!(err.contains("duplicate dictionary term at id 3"), "{err}");
    }

    #[test]
    fn counts_the_payload_cannot_hold_are_rejected_before_allocating() {
        let terms = [Term::iri("da:a"), Term::iri("da:b")];
        let t = [[0, 1, 0], [1, 0, 1]];
        assert!(from_binary(&payload(&terms, 2, &t, 2)).is_ok());
        // Fewer bytes left than one byte per claimed item: the reader's
        // own length check.
        for n in [1 << 40, usize::MAX / 2] {
            assert!(from_binary(&payload(&terms, n, &t, 2)).is_err());
        }
        // Plausible for bytes, not for terms: a term takes at least five.
        let rest = payload(&terms, 2, &t, 2).len() - 12;
        let err = hostile(&terms, rest / 2, &t, 2);
        assert!(err.contains("cannot fit"), "{err}");
        // Plausible for bytes, not for triples: each takes twelve.
        let err = hostile(&terms, 2, &t, 20);
        assert!(err.contains("cannot fit"), "{err}");
    }

    #[test]
    fn ids_out_of_range_rejected_in_every_position() {
        let terms = [Term::iri("da:a"), Term::iri("da:b")];
        for bad in [[2, 0, 1], [0, 2, 1], [0, 1, 2], [u32::MAX, 0, 0]] {
            let err = hostile(&terms, 2, &[[0, 1, 0], bad], 2);
            assert!(err.contains("out of range"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Graph::new();
        let g2 = from_binary(&to_binary(&g)).unwrap();
        assert!(g2.is_empty());
        assert_eq!(g2.dict().len(), 0);
    }
}
