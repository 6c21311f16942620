//! RDF terms: IRIs and literals, including spatiotemporal typed literals.

use datacron_geo::{GeoPoint, TimeMs};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A literal value.
///
/// Floating values hash and compare by bit pattern so literals can live in
/// hash maps (the dictionary); `NaN` therefore equals itself here, which is
/// the desired interning semantics.
#[derive(Debug, Clone)]
pub enum Literal {
    /// A plain string literal.
    String(String),
    /// An integer literal (`xsd:integer`).
    Integer(i64),
    /// A double literal (`xsd:double`).
    Double(f64),
    /// A boolean literal.
    Boolean(bool),
    /// A timestamp literal (`xsd:dateTime`, milliseconds since epoch).
    Time(TimeMs),
    /// A geographic point literal (WKT `POINT(lon lat)` equivalent).
    Point(GeoPoint),
}

impl PartialEq for Literal {
    fn eq(&self, other: &Self) -> bool {
        use Literal::*;
        match (self, other) {
            (String(a), String(b)) => a == b,
            (Integer(a), Integer(b)) => a == b,
            (Double(a), Double(b)) => a.to_bits() == b.to_bits(),
            (Boolean(a), Boolean(b)) => a == b,
            (Time(a), Time(b)) => a == b,
            (Point(a), Point(b)) => {
                a.lon.to_bits() == b.lon.to_bits() && a.lat.to_bits() == b.lat.to_bits()
            }
            _ => false,
        }
    }
}

impl Eq for Literal {}

impl Hash for Literal {
    fn hash<H: Hasher>(&self, state: &mut H) {
        use Literal::*;
        std::mem::discriminant(self).hash(state);
        match self {
            String(s) => s.hash(state),
            Integer(i) => i.hash(state),
            Double(d) => d.to_bits().hash(state),
            Boolean(b) => b.hash(state),
            Time(t) => t.hash(state),
            Point(p) => {
                p.lon.to_bits().hash(state);
                p.lat.to_bits().hash(state);
            }
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::String(s) => write!(f, "\"{}\"", s.replace('"', "\\\"")),
            Literal::Integer(i) => write!(f, "{i}"),
            Literal::Double(d) => write!(f, "{d:?}"),
            Literal::Boolean(b) => write!(f, "{b}"),
            Literal::Time(t) => write!(f, "\"{}\"^^xsd:dateTime", t.millis()),
            Literal::Point(p) => write!(f, "\"POINT({} {})\"^^geo:wktLiteral", p.lon, p.lat),
        }
    }
}

/// An RDF term: an IRI or a literal. (Blank nodes are modelled as IRIs in
/// the `_:` namespace — sufficient for the datAcron mapping.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// An IRI (absolute or prefixed form, stored as written).
    Iri(String),
    /// A literal.
    Literal(Literal),
}

impl Term {
    /// Convenience: an IRI term.
    pub fn iri(s: impl Into<String>) -> Term {
        Term::Iri(s.into())
    }

    /// Convenience: a string literal.
    pub fn string(s: impl Into<String>) -> Term {
        Term::Literal(Literal::String(s.into()))
    }

    /// Convenience: an integer literal.
    pub fn integer(i: i64) -> Term {
        Term::Literal(Literal::Integer(i))
    }

    /// Convenience: a double literal.
    pub fn double(d: f64) -> Term {
        Term::Literal(Literal::Double(d))
    }

    /// Convenience: a boolean literal.
    pub fn boolean(b: bool) -> Term {
        Term::Literal(Literal::Boolean(b))
    }

    /// Convenience: a time literal.
    pub fn time(t: TimeMs) -> Term {
        Term::Literal(Literal::Time(t))
    }

    /// Convenience: a point literal.
    pub fn point(p: GeoPoint) -> Term {
        Term::Literal(Literal::Point(p))
    }

    /// The point inside, when this is a point literal.
    pub fn as_point(&self) -> Option<GeoPoint> {
        match self {
            Term::Literal(Literal::Point(p)) => Some(*p),
            _ => None,
        }
    }

    /// The timestamp inside, when this is a time literal.
    pub fn as_time(&self) -> Option<TimeMs> {
        match self {
            Term::Literal(Literal::Time(t)) => Some(*t),
            _ => None,
        }
    }

    /// True for IRI terms.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => {
                if i.contains(':') && !i.contains("://") {
                    write!(f, "{i}") // prefixed name
                } else {
                    write!(f, "<{i}>")
                }
            }
            Term::Literal(l) => write!(f, "{l}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn literal_equality_by_bits() {
        assert_eq!(Literal::Double(1.5), Literal::Double(1.5));
        assert_ne!(Literal::Double(1.5), Literal::Double(2.5));
        assert_eq!(Literal::Double(f64::NAN), Literal::Double(f64::NAN));
        assert_ne!(Literal::Double(0.0), Literal::Double(-0.0));
        assert_eq!(
            Literal::Point(GeoPoint::new(1.0, 2.0)),
            Literal::Point(GeoPoint::new(1.0, 2.0))
        );
    }

    #[test]
    fn equal_literals_hash_equal() {
        let a = Literal::Point(GeoPoint::new(23.5, 37.9));
        let b = Literal::Point(GeoPoint::new(23.5, 37.9));
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(hash_of(&Literal::Integer(5)), hash_of(&Literal::Integer(5)));
    }

    #[test]
    fn variant_discrimination() {
        // Same bits, different variants must differ.
        assert_ne!(
            Term::Literal(Literal::Integer(1)),
            Term::Literal(Literal::Boolean(true))
        );
        assert_ne!(Term::iri("a"), Term::string("a"));
    }

    #[test]
    fn accessors() {
        let p = Term::point(GeoPoint::new(1.0, 2.0));
        assert_eq!(p.as_point(), Some(GeoPoint::new(1.0, 2.0)));
        assert_eq!(p.as_time(), None);
        let t = Term::time(TimeMs(99));
        assert_eq!(t.as_time(), Some(TimeMs(99)));
        assert!(Term::iri("x").is_iri());
        assert!(!t.is_iri());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("http://a/b").to_string(), "<http://a/b>");
        assert_eq!(Term::iri("da:vessel1").to_string(), "da:vessel1");
        assert_eq!(
            Term::string("hi \"there\"").to_string(),
            "\"hi \\\"there\\\"\""
        );
        assert_eq!(Term::integer(-4).to_string(), "-4");
        assert_eq!(Term::boolean(true).to_string(), "true");
        assert_eq!(
            Term::time(TimeMs(1000)).to_string(),
            "\"1000\"^^xsd:dateTime"
        );
        assert_eq!(
            Term::point(GeoPoint::new(23.5, 37.9)).to_string(),
            "\"POINT(23.5 37.9)\"^^geo:wktLiteral"
        );
    }
}
