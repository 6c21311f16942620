//! N-Triples-style serialization of a graph.
//!
//! The line format uses the same term syntax as [`crate::term::Term`]'s
//! `Display` (angle-bracketed IRIs or prefixed names, typed literals for
//! points and times), one triple per line, ` .` terminated — close enough
//! to N-Triples for interchange between datAcron components and readable
//! in tests and dumps.
//!
//! A dump holds the graph as of its last commit, as every read does. Any
//! text [`from_ntriples`] accepts dumps back to text it parses to the same
//! triples: an IRI holding `<`, `>` or `"` (which a dump could not
//! bracket or tokenize back) is refused.

use crate::store::Graph;
use crate::term::Term;
use datacron_geo::{GeoPoint, TimeMs};
use std::fmt::Write as _;

/// Serializes the committed triples to the line format, in SPO index
/// order.
pub fn to_ntriples(graph: &Graph) -> String {
    let mut out = String::new();
    for t in graph.iter_triples() {
        // lint:allow(no_panic) every id yielded by iter_triples is in
        // this graph's dictionary by construction.
        let s = graph.decode(t.s).expect("id from graph");
        let p = graph.decode(t.p).expect("id from graph"); // lint:allow(no_panic)
        let o = graph.decode(t.o).expect("id from graph"); // lint:allow(no_panic)
        let _ = writeln!(out, "{s} {p} {o} .");
    }
    out
}

/// A parse failure with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtParseError {
    /// One-based line number.
    pub line: usize,
    /// Message.
    pub message: String,
}

impl std::fmt::Display for NtParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NtParseError {}

/// Parses one serialized term.
fn parse_term(tok: &str, line: usize) -> Result<Term, NtParseError> {
    let err = |m: &str| NtParseError {
        line,
        message: format!("{m}: '{tok}'"),
    };
    if let Some(rest) = tok.strip_prefix('<') {
        let iri = rest.strip_suffix('>').ok_or_else(|| err("unclosed IRI"))?;
        if iri.contains(['<', '>', '"']) {
            return Err(err("'<', '>' or '\"' inside an IRI"));
        }
        return Ok(Term::iri(iri));
    }
    if tok.starts_with('"') {
        // "..."^^type or plain "..." — find the closing *unescaped* quote.
        let bytes = tok.as_bytes();
        let mut close = None;
        let mut i = 1;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    close = Some(i);
                    break;
                }
                _ => i += 1,
            }
        }
        let close = close.ok_or_else(|| err("unterminated literal"))?;
        let body = &tok[1..close];
        let suffix = &tok[close + 1..];
        return match suffix {
            "" => Ok(Term::string(body.replace("\\\"", "\""))),
            "^^xsd:dateTime" => body
                .parse::<i64>()
                .map(|ms| Term::time(TimeMs(ms)))
                .map_err(|_| err("bad dateTime millis")),
            "^^geo:wktLiteral" => {
                let inner = body
                    .strip_prefix("POINT(")
                    .and_then(|s| s.strip_suffix(')'))
                    .ok_or_else(|| err("bad WKT point"))?;
                let mut parts = inner.split_whitespace();
                let lon: f64 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err("bad WKT lon"))?;
                let lat: f64 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err("bad WKT lat"))?;
                Ok(Term::point(GeoPoint::new(lon, lat)))
            }
            _ => Err(err("unknown literal type")),
        };
    }
    match tok {
        "true" => return Ok(Term::boolean(true)),
        "false" => return Ok(Term::boolean(false)),
        _ => {}
    }
    if let Ok(i) = tok.parse::<i64>() {
        return Ok(Term::integer(i));
    }
    if let Ok(d) = tok.parse::<f64>() {
        return Ok(Term::double(d));
    }
    // Prefixed name.
    if tok.contains(':') && !tok.contains('"') {
        return Ok(Term::iri(tok));
    }
    Err(err("unrecognised term"))
}

/// Splits a triple line into three term tokens (respecting quoted strings)
/// and the trailing dot.
fn split_terms(line: &str, line_no: usize) -> Result<Vec<String>, NtParseError> {
    let body = line
        .trim()
        .strip_suffix('.')
        .ok_or(NtParseError {
            line: line_no,
            message: "missing terminating '.'".into(),
        })?
        .trim();
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for ch in body.chars() {
        if in_quotes {
            current.push(ch);
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_quotes = false;
            }
        } else if ch == '"' {
            current.push(ch);
            in_quotes = true;
        } else if ch.is_whitespace() {
            if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
        } else {
            current.push(ch);
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    if tokens.len() != 3 {
        return Err(NtParseError {
            line: line_no,
            message: format!("expected 3 terms, found {}", tokens.len()),
        });
    }
    Ok(tokens)
}

/// Parses a dump produced by [`to_ntriples`] into a fresh graph, skipping
/// blank lines and `#` comments.
pub fn from_ntriples(input: &str) -> Result<Graph, NtParseError> {
    let mut g = Graph::new();
    for (i, line) in input.lines().enumerate() {
        let line_no = i + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let toks = split_terms(trimmed, line_no)?;
        let s = parse_term(&toks[0], line_no)?;
        let p = parse_term(&toks[1], line_no)?;
        let o = parse_term(&toks[2], line_no)?;
        g.insert(&s, &p, &o);
    }
    g.commit();
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
            &Term::iri("da:name"),
            &Term::string("BLUE \"STAR\""),
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
            &Term::iri("da:count"),
            &Term::integer(42),
        );
        g.insert(
            &Term::iri("da:v1"),
            &Term::iri("da:active"),
            &Term::boolean(true),
        );
        g.insert(
            &Term::iri("http://abs/iri"),
            &Term::iri("da:p"),
            &Term::iri("da:o"),
        );
        g.commit();
        g
    }

    #[test]
    fn round_trip_preserves_all_triples() {
        let g = sample();
        let dump = to_ntriples(&g);
        let g2 = from_ntriples(&dump).expect("round trip parses");
        assert_eq!(g2.len(), g.len());
        // Same dump again (semantic equality via canonical serialization
        // of sorted lines).
        let mut lines1: Vec<&str> = dump.lines().collect();
        let dump2 = to_ntriples(&g2);
        let mut lines2: Vec<&str> = dump2.lines().collect();
        lines1.sort_unstable();
        lines2.sort_unstable();
        assert_eq!(lines1, lines2);
    }

    #[test]
    fn serialized_shape() {
        let g = sample();
        let dump = to_ntriples(&g);
        assert!(dump.contains("da:v1 rdf:type da:Vessel ."));
        assert!(dump.contains(r#"da:v1 da:name "BLUE \"STAR\"" ."#));
        assert!(dump.contains("\"POINT(23.5 37.9)\"^^geo:wktLiteral"));
        assert!(dump.contains("\"1234\"^^xsd:dateTime"));
        assert!(dump.contains("<http://abs/iri>"));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let g = from_ntriples("# header\n\nda:a da:p da:b .\n").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = from_ntriples("da:a da:p da:b .\nda:a da:p .\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
        let e = from_ntriples("da:a da:p da:b\n").unwrap_err();
        assert!(e.message.contains("terminating"));
        let e = from_ntriples("da:a da:p \"unclosed .\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    /// An IRI a dump would write unbracketed, or could not tokenize back,
    /// is refused rather than accepted once and lost on the next parse.
    #[test]
    fn iris_a_dump_cannot_carry_are_refused() {
        for line in [
            "<<a:b> da:p da:o .",
            "<\"a:b> da:p da:o .",
            "<a>b> da:p da:o .",
            "da:s da:p da:o\"x .",
            "da:s da:p a://b\"c\" .",
        ] {
            assert!(from_ntriples(line).is_err(), "{line}");
        }
        let g = from_ntriples("<a:b> <x> da:o .").unwrap();
        let again = from_ntriples(&to_ntriples(&g)).unwrap();
        assert_eq!(to_ntriples(&again), to_ntriples(&g));
    }

    #[test]
    fn quoted_strings_with_spaces_tokenize() {
        let g = from_ntriples(r#"da:a da:name "TWO WORDS" ."#).unwrap();
        assert_eq!(g.len(), 1);
        let dump = to_ntriples(&g);
        assert!(dump.contains("\"TWO WORDS\""));
    }

    #[test]
    fn numeric_and_boolean_terms() {
        let g = from_ntriples("da:a da:i 42 .\nda:a da:d 2.5 .\nda:a da:b true .").unwrap();
        assert_eq!(g.len(), 3);
        let dump = to_ntriples(&g);
        assert!(dump.contains(" 42 ."));
        assert!(dump.contains(" 2.5 ."));
        assert!(dump.contains(" true ."));
    }
}
