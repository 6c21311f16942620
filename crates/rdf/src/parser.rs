//! A text syntax for the query subset.
//!
//! Grammar (whitespace-insensitive, `#` comments to end of line):
//!
//! ```text
//! query   := prefix* "SELECT" ("*" | var+) "WHERE" "{" clause* "}" ("LIMIT" int)?
//! prefix  := "PREFIX" name ":" "<" iri ">"
//! clause  := pattern "." | filter "."?
//! pattern := term term term
//! term    := var | "<" iri ">" | pname | literal
//! literal := quoted string | integer | double | "true" | "false"
//!          | "POINT(" lon lat ")" | "TIME(" millis ")"
//! filter  := "FILTER" ( cmp | st_within | st_near | t_between )
//! cmp     := "(" var op literal ")"          op ∈ { = != < <= > >= }
//! st_within := "st_within(" var "," min_lon "," min_lat "," max_lon "," max_lat ")"
//! st_near   := "st_near(" var "," lon "," lat "," radius_m ")"
//! t_between := "t_between(" var "," start_ms "," end_ms ")"
//! ```
//!
//! `st_within` bounds are degrees, inclusive; `st_near` matches points
//! within `radius_m` metres by great-circle distance; `t_between` is the
//! half-open interval `[start_ms, end_ms)`.

use crate::query::{CmpOp, FilterExpr, PatternTerm, SelectQuery, TriplePattern};
use crate::term::Term;
use datacron_geo::{BoundingBox, GeoPoint, TimeInterval, TimeMs};
use std::collections::HashMap;
use std::fmt;

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),   // bare identifiers, keywords, prefixed names
    Var(String),    // ?name
    Iri(String),    // <...>
    Str(String),    // "..."
    Num(f64, bool), // value, is_integer
    Punct(char),    // { } ( ) . , *
    Op(String),     // = != < <= > >=
    Eof,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            message: msg.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            if c == b'#' {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else if c.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        self.skip_ws();
        if self.pos >= self.src.len() {
            return Ok(Tok::Eof);
        }
        let c = self.src[self.pos];
        match c {
            b'{' | b'}' | b'(' | b')' | b'.' | b',' | b'*' => {
                self.pos += 1;
                Ok(Tok::Punct(c as char))
            }
            b'=' => {
                self.pos += 1;
                Ok(Tok::Op("=".into()))
            }
            b'!' => {
                if self.src.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Ok(Tok::Op("!=".into()))
                } else {
                    Err(self.err("expected '=' after '!'"))
                }
            }
            b'<' | b'>' if self.src.get(self.pos + 1) == Some(&b'=') => {
                let op = format!("{}=", c as char);
                self.pos += 2;
                Ok(Tok::Op(op))
            }
            b'>' => {
                self.pos += 1;
                Ok(Tok::Op(">".into()))
            }
            b'<' => {
                // IRI or less-than. An IRI never contains whitespace and
                // must close with '>' before any whitespace.
                let start = self.pos + 1;
                let mut i = start;
                while i < self.src.len()
                    && self.src[i] != b'>'
                    && !self.src[i].is_ascii_whitespace()
                {
                    i += 1;
                }
                if i < self.src.len() && self.src[i] == b'>' && i > start {
                    let iri = String::from_utf8_lossy(&self.src[start..i]).into_owned();
                    self.pos = i + 1;
                    Ok(Tok::Iri(iri))
                } else {
                    self.pos += 1;
                    Ok(Tok::Op("<".into()))
                }
            }
            b'?' => {
                let start = self.pos + 1;
                let mut i = start;
                while i < self.src.len()
                    && (self.src[i].is_ascii_alphanumeric() || self.src[i] == b'_')
                {
                    i += 1;
                }
                if i == start {
                    return Err(self.err("empty variable name"));
                }
                let name = String::from_utf8_lossy(&self.src[start..i]).into_owned();
                self.pos = i;
                Ok(Tok::Var(name))
            }
            b'"' => {
                let mut i = self.pos + 1;
                let mut out = String::new();
                while i < self.src.len() {
                    match self.src[i] {
                        b'\\' if i + 1 < self.src.len() => {
                            out.push(self.src[i + 1] as char);
                            i += 2;
                        }
                        b'"' => {
                            self.pos = i + 1;
                            return Ok(Tok::Str(out));
                        }
                        b => {
                            out.push(b as char);
                            i += 1;
                        }
                    }
                }
                Err(self.err("unterminated string"))
            }
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                let mut i = self.pos + 1;
                let mut is_int = true;
                while i < self.src.len()
                    && (self.src[i].is_ascii_digit()
                        || self.src[i] == b'.'
                        || self.src[i] == b'e'
                        || self.src[i] == b'E'
                        || self.src[i] == b'-'
                        || self.src[i] == b'+')
                {
                    // A '.' followed by non-digit terminates the number (it
                    // is the triple terminator).
                    if self.src[i] == b'.' {
                        if i + 1 < self.src.len() && self.src[i + 1].is_ascii_digit() {
                            is_int = false;
                        } else {
                            break;
                        }
                    }
                    if self.src[i] == b'e' || self.src[i] == b'E' {
                        is_int = false;
                    }
                    i += 1;
                }
                let text = std::str::from_utf8(&self.src[start..i])
                    .map_err(|_| self.err("non-utf8 number".to_string()))?;
                let v: f64 = text
                    .parse()
                    .map_err(|_| self.err(format!("bad number '{text}'")))?;
                self.pos = i;
                Ok(Tok::Num(v, is_int))
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                let mut i = self.pos;
                while i < self.src.len()
                    && (self.src[i].is_ascii_alphanumeric()
                        || self.src[i] == b'_'
                        || self.src[i] == b':'
                        || self.src[i] == b'-'
                        || self.src[i] == b'/')
                {
                    i += 1;
                }
                let word = String::from_utf8_lossy(&self.src[start..i]).into_owned();
                self.pos = i;
                Ok(Tok::Word(word))
            }
            _ => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    fn peek(&mut self) -> Result<Tok, ParseError> {
        let save = self.pos;
        let t = self.next();
        self.pos = save;
        t
    }
}

struct Parser<'a> {
    lex: Lexer<'a>,
    prefixes: HashMap<String, String>,
}

impl<'a> Parser<'a> {
    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.lex.next()? {
            Tok::Punct(p) if p == c => Ok(()),
            other => Err(self.lex.err(format!("expected '{c}', found {other:?}"))),
        }
    }

    fn expect_word(&mut self, w: &str) -> Result<(), ParseError> {
        match self.lex.next()? {
            Tok::Word(word) if word.eq_ignore_ascii_case(w) => Ok(()),
            other => Err(self.lex.err(format!("expected '{w}', found {other:?}"))),
        }
    }

    fn expand(&self, name: &str) -> String {
        if let Some((pfx, local)) = name.split_once(':') {
            if let Some(base) = self.prefixes.get(pfx) {
                return format!("{base}{local}");
            }
        }
        name.to_string()
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        // Accept optional unary minus produced as part of Num already.
        match self.lex.next()? {
            Tok::Num(v, _) => Ok(v),
            other => Err(self.lex.err(format!("expected number, found {other:?}"))),
        }
    }

    fn comma(&mut self) -> Result<(), ParseError> {
        self.expect_punct(',')
    }

    fn var_name(&mut self) -> Result<String, ParseError> {
        match self.lex.next()? {
            Tok::Var(v) => Ok(v),
            other => Err(self.lex.err(format!("expected variable, found {other:?}"))),
        }
    }

    /// Parses one term or variable in a triple pattern.
    fn pattern_term(&mut self) -> Result<PatternTerm, ParseError> {
        match self.lex.next()? {
            Tok::Var(v) => Ok(PatternTerm::Var(v)),
            Tok::Iri(i) => Ok(PatternTerm::Term(Term::iri(i))),
            Tok::Str(s) => Ok(PatternTerm::Term(Term::string(s))),
            Tok::Num(v, true) => Ok(PatternTerm::Term(Term::integer(v as i64))),
            Tok::Num(v, false) => Ok(PatternTerm::Term(Term::double(v))),
            Tok::Word(w) => match w.as_str() {
                "true" => Ok(PatternTerm::Term(Term::boolean(true))),
                "false" => Ok(PatternTerm::Term(Term::boolean(false))),
                "POINT" => {
                    self.expect_punct('(')?;
                    let lon = self.number()?;
                    let lat = self.number()?;
                    self.expect_punct(')')?;
                    Ok(PatternTerm::Term(Term::point(GeoPoint::new(lon, lat))))
                }
                "TIME" => {
                    self.expect_punct('(')?;
                    let ms = self.number()?;
                    self.expect_punct(')')?;
                    Ok(PatternTerm::Term(Term::time(TimeMs(ms as i64))))
                }
                _ => Ok(PatternTerm::Term(Term::iri(self.expand(&w)))),
            },
            other => Err(self.lex.err(format!("expected term, found {other:?}"))),
        }
    }

    fn literal_value(&mut self) -> Result<Term, ParseError> {
        match self.pattern_term()? {
            PatternTerm::Term(t) => Ok(t),
            PatternTerm::Var(_) => Err(self.lex.err("expected literal, found variable")),
        }
    }

    fn filter(&mut self) -> Result<FilterExpr, ParseError> {
        match self.lex.next()? {
            Tok::Punct('(') => {
                let var = self.var_name()?;
                let op = match self.lex.next()? {
                    Tok::Op(o) => match o.as_str() {
                        "=" => CmpOp::Eq,
                        "!=" => CmpOp::Ne,
                        "<" => CmpOp::Lt,
                        "<=" => CmpOp::Le,
                        ">" => CmpOp::Gt,
                        ">=" => CmpOp::Ge,
                        _ => return Err(self.lex.err(format!("bad operator '{o}'"))),
                    },
                    other => {
                        return Err(self.lex.err(format!("expected operator, found {other:?}")))
                    }
                };
                let value = self.literal_value()?;
                self.expect_punct(')')?;
                Ok(FilterExpr::Compare { var, op, value })
            }
            Tok::Word(w) => {
                let builtin = w.to_ascii_lowercase();
                self.expect_punct('(')?;
                let var = self.var_name()?;
                self.comma()?;
                match builtin.as_str() {
                    "st_within" => {
                        let min_lon = self.number()?;
                        self.comma()?;
                        let min_lat = self.number()?;
                        self.comma()?;
                        let max_lon = self.number()?;
                        self.comma()?;
                        let max_lat = self.number()?;
                        self.expect_punct(')')?;
                        Ok(FilterExpr::SpatialWithin {
                            var,
                            bbox: BoundingBox::new(min_lon, min_lat, max_lon, max_lat),
                        })
                    }
                    "st_near" => {
                        let lon = self.number()?;
                        self.comma()?;
                        let lat = self.number()?;
                        self.comma()?;
                        let radius = self.number()?;
                        self.expect_punct(')')?;
                        Ok(FilterExpr::SpatialNear {
                            var,
                            center: GeoPoint::new(lon, lat),
                            radius_m: radius,
                        })
                    }
                    "t_between" => {
                        let start = self.number()?;
                        self.comma()?;
                        let end = self.number()?;
                        self.expect_punct(')')?;
                        Ok(FilterExpr::TimeBetween {
                            var,
                            interval: TimeInterval::new(TimeMs(start as i64), TimeMs(end as i64)),
                        })
                    }
                    _ => Err(self.lex.err(format!("unknown filter builtin '{w}'"))),
                }
            }
            other => Err(self.lex.err(format!("expected filter, found {other:?}"))),
        }
    }

    fn query(&mut self) -> Result<SelectQuery, ParseError> {
        // Prefix declarations.
        loop {
            match self.lex.peek()? {
                Tok::Word(w) if w.eq_ignore_ascii_case("prefix") => {
                    self.lex.next()?;
                    let name = match self.lex.next()? {
                        // The lexer folds "name:" into one word.
                        Tok::Word(n) => n.trim_end_matches(':').to_string(),
                        other => {
                            return Err(self
                                .lex
                                .err(format!("expected prefix name, found {other:?}")))
                        }
                    };
                    let iri = match self.lex.next()? {
                        Tok::Iri(i) => i,
                        other => {
                            return Err(self.lex.err(format!("expected <iri>, found {other:?}")))
                        }
                    };
                    self.prefixes.insert(name, iri);
                }
                _ => break,
            }
        }

        self.expect_word("select")?;
        let mut vars = Vec::new();
        loop {
            match self.lex.peek()? {
                Tok::Var(v) => {
                    self.lex.next()?;
                    vars.push(v);
                }
                Tok::Punct('*') => {
                    self.lex.next()?;
                    break;
                }
                _ => break,
            }
        }
        self.expect_word("where")?;
        self.expect_punct('{')?;

        let mut patterns = Vec::new();
        let mut filters = Vec::new();
        loop {
            match self.lex.peek()? {
                Tok::Punct('}') => {
                    self.lex.next()?;
                    break;
                }
                Tok::Word(w) if w.eq_ignore_ascii_case("filter") => {
                    self.lex.next()?;
                    filters.push(self.filter()?);
                    // Optional '.' after a filter.
                    if let Tok::Punct('.') = self.lex.peek()? {
                        self.lex.next()?;
                    }
                }
                Tok::Eof => return Err(self.lex.err("unterminated '{'")),
                _ => {
                    let s = self.pattern_term()?;
                    let p = self.pattern_term()?;
                    let o = self.pattern_term()?;
                    patterns.push(TriplePattern { s, p, o });
                    // Optional '.' separator.
                    if let Tok::Punct('.') = self.lex.peek()? {
                        self.lex.next()?;
                    }
                }
            }
        }

        let mut limit = None;
        if let Tok::Word(w) = self.lex.peek()? {
            if w.eq_ignore_ascii_case("limit") {
                self.lex.next()?;
                limit = Some(self.number()? as usize);
            }
        }
        match self.lex.next()? {
            Tok::Eof => {}
            other => return Err(self.lex.err(format!("trailing input: {other:?}"))),
        }

        Ok(SelectQuery {
            vars,
            patterns,
            filters,
            limit,
        })
    }
}

/// Parses a query string.
pub fn parse_query(src: &str) -> Result<SelectQuery, ParseError> {
    Parser {
        lex: Lexer::new(src),
        prefixes: HashMap::new(),
    }
    .query()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_select_star() {
        let q = parse_query("SELECT * WHERE { ?s ?p ?o }").unwrap();
        assert!(q.vars.is_empty());
        assert_eq!(q.patterns.len(), 1);
        assert!(q.filters.is_empty());
        assert_eq!(q.limit, None);
    }

    #[test]
    fn projection_and_constants() {
        let q = parse_query(
            r#"SELECT ?v ?n WHERE {
                ?v <http://datacron/type> <http://datacron/Vessel> .
                ?v da:name ?n .
            }"#,
        )
        .unwrap();
        assert_eq!(q.vars, vec!["v", "n"]);
        assert_eq!(q.patterns.len(), 2);
        assert_eq!(
            q.patterns[0].p,
            PatternTerm::Term(Term::iri("http://datacron/type"))
        );
        assert_eq!(q.patterns[1].p, PatternTerm::Term(Term::iri("da:name")));
    }

    #[test]
    fn prefix_expansion() {
        let q = parse_query(
            r#"PREFIX da: <http://datacron/>
               SELECT ?v WHERE { ?v da:type da:Vessel }"#,
        )
        .unwrap();
        assert_eq!(
            q.patterns[0].p,
            PatternTerm::Term(Term::iri("http://datacron/type"))
        );
        assert_eq!(
            q.patterns[0].o,
            PatternTerm::Term(Term::iri("http://datacron/Vessel"))
        );
    }

    #[test]
    fn literals_in_patterns() {
        let q = parse_query(
            r#"SELECT ?v WHERE {
                ?v p:name "BLUE STAR" .
                ?v p:speed 7.5 .
                ?v p:count 42 .
                ?v p:active true .
                ?v p:pos POINT(23.5 37.9) .
                ?v p:at TIME(1000)
            }"#,
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 6);
        assert_eq!(
            q.patterns[0].o,
            PatternTerm::Term(Term::string("BLUE STAR"))
        );
        assert_eq!(q.patterns[1].o, PatternTerm::Term(Term::double(7.5)));
        assert_eq!(q.patterns[2].o, PatternTerm::Term(Term::integer(42)));
        assert_eq!(q.patterns[3].o, PatternTerm::Term(Term::boolean(true)));
        assert_eq!(
            q.patterns[4].o,
            PatternTerm::Term(Term::point(GeoPoint::new(23.5, 37.9)))
        );
        assert_eq!(q.patterns[5].o, PatternTerm::Term(Term::time(TimeMs(1000))));
    }

    #[test]
    fn comparison_filters() {
        let q = parse_query(
            r#"SELECT ?v WHERE {
                ?v p:speed ?s .
                FILTER (?s >= 7.0) .
                FILTER (?s != 9.0)
            }"#,
        )
        .unwrap();
        assert_eq!(q.filters.len(), 2);
        assert_eq!(
            q.filters[0],
            FilterExpr::Compare {
                var: "s".into(),
                op: CmpOp::Ge,
                value: Term::double(7.0)
            }
        );
        assert_eq!(
            q.filters[1],
            FilterExpr::Compare {
                var: "s".into(),
                op: CmpOp::Ne,
                value: Term::double(9.0)
            }
        );
    }

    #[test]
    fn spatiotemporal_builtins() {
        let q = parse_query(
            r#"SELECT ?v WHERE {
                ?v p:pos ?g . ?v p:at ?t .
                FILTER st_within(?g, 22.0, 34.0, 29.0, 41.0)
                FILTER st_near(?g, 23.6, 37.9, 5000)
                FILTER t_between(?t, 0, 3600000)
            } LIMIT 100"#,
        )
        .unwrap();
        assert_eq!(q.filters.len(), 3);
        assert_eq!(q.limit, Some(100));
        match &q.filters[0] {
            FilterExpr::SpatialWithin { var, bbox } => {
                assert_eq!(var, "g");
                assert_eq!(*bbox, BoundingBox::new(22.0, 34.0, 29.0, 41.0));
            }
            other => panic!("wrong filter {other:?}"),
        }
        match &q.filters[1] {
            FilterExpr::SpatialNear { radius_m, .. } => assert_eq!(*radius_m, 5000.0),
            other => panic!("wrong filter {other:?}"),
        }
        match &q.filters[2] {
            FilterExpr::TimeBetween { interval, .. } => {
                assert_eq!(interval.duration_ms(), 3_600_000)
            }
            other => panic!("wrong filter {other:?}"),
        }
    }

    #[test]
    fn comments_ignored() {
        let q = parse_query("# a comment\nSELECT ?x WHERE { # inline\n ?x p:a ?y . }").unwrap();
        assert_eq!(q.patterns.len(), 1);
    }

    #[test]
    fn negative_numbers() {
        let q = parse_query("SELECT ?v WHERE { ?v p:lon -23.5 }").unwrap();
        assert_eq!(q.patterns[0].o, PatternTerm::Term(Term::double(-23.5)));
    }

    #[test]
    fn error_cases() {
        assert!(parse_query("SELECT").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x p ").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x p ?y } trailing").is_err());
        assert!(parse_query("SELECT ?x WHERE { FILTER bogus(?x, 1) }").is_err());
        assert!(parse_query(r#"SELECT ?x WHERE { ?x p "unterminated }"#).is_err());
        let e = parse_query("SELECT ?x WHERE { ?x p ?y } LIMIT").unwrap_err();
        assert!(e.to_string().contains("parse error"));
    }

    #[test]
    fn string_escapes() {
        let q = parse_query(r#"SELECT ?v WHERE { ?v p:name "A \"B\" C" }"#).unwrap();
        assert_eq!(
            q.patterns[0].o,
            PatternTerm::Term(Term::string("A \"B\" C"))
        );
    }
}
