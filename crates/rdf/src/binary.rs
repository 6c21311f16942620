//! Compact binary serialization of a graph (dictionary included).
//!
//! This is the snapshot format the storage layer persists: terms in
//! dictionary-id order followed by encoded triples, so restoring assigns
//! every term the **same id** it had in the source graph and the triples
//! can be re-inserted verbatim. Rebuilding through [`Graph::encode`] and
//! the commit routine (one bulk merge of the decoded triples) also
//! reconstructs the secondary spatial/temporal indexes and the
//! per-predicate statistics — none of that state travels in the payload.
//!
//! Unlike [`crate::ntriples`], this format round-trips every `f64` bit
//! pattern exactly (doubles and points travel as raw bits, not decimal
//! text) and is several times smaller; the text dump remains the
//! interchange/debugging format.

use crate::dict::TermId;
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

/// Serializes the whole graph — dictionary terms in id order, then all
/// triples (committed + pending) as raw id triplets.
pub fn to_binary(graph: &Graph) -> Vec<u8> {
    let dict = graph.dict();
    let mut w = Writer::with_capacity(16 + dict.len() * 16 + graph.len() * 12);
    w.u32(VERSION);
    w.seq_len(dict.len());
    for (_, term) in dict.iter() {
        write_term(&mut w, term);
    }
    w.seq_len(graph.len());
    for t in graph.iter_triples() {
        w.u32(t.s.raw());
        w.u32(t.p.raw());
        w.u32(t.o.raw());
    }
    w.into_bytes()
}

/// Reconstructs a graph from [`to_binary`] output. Term ids match the
/// source graph exactly; any structural damage (bad variant, id out of
/// range, a repeated triple, trailing bytes) is an error, never a panic.
pub fn from_binary(bytes: &[u8]) -> Result<Graph, BinError> {
    let mut r = Reader::new(bytes);
    let version = r.u32()?;
    if version != VERSION {
        return Err(BinError::msg(format!(
            "unsupported graph format version {version}"
        )));
    }
    let mut g = Graph::new();
    let n_terms = r.seq_len()?;
    // Compare ids in u32 (their native width) against a running counter
    // instead of casting through usize.
    let mut expect: u32 = 0;
    for _ in 0..n_terms {
        let term = read_term(&mut r)?;
        let id = g.encode(&term);
        if id.raw() != expect {
            return Err(BinError::msg(format!(
                "duplicate dictionary term at id {expect}"
            )));
        }
        expect = expect.wrapping_add(1);
    }
    let n_triples = r.seq_len()?;
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
    g.load(triples).map_err(|t| {
        BinError::msg(format!(
            "duplicate triple ({}, {}, {})",
            t.s.raw(),
            t.p.raw(),
            t.o.raw()
        ))
    })?;
    Ok(g)
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
    fn pending_tail_is_included() {
        let mut g = sample();
        g.insert(&Term::iri("da:x"), &Term::iri("da:p"), &Term::iri("da:y"));
        // No commit — the pending triple must still be captured.
        let g2 = from_binary(&to_binary(&g)).unwrap();
        assert_eq!(g2.len(), g.len());
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
        // The same with a pending tail in the payload: committed and
        // pending triples repeated alike.
        g.insert(&Term::iri("da:x"), &Term::iri("da:p"), &Term::iri("da:y"));
        g.insert(&Term::iri("da:a"), &Term::iri("da:p"), &Term::iri("da:y"));
        let n = g.len();
        assert!(from_binary(&to_binary(&g)).is_ok());
        for which in [0, n - 2, n - 1] {
            assert!(from_binary(&with_repeated_triple(to_binary(&g), n, which)).is_err());
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
