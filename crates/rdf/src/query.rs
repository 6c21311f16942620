//! The SPARQL-subset query AST.

use crate::term::Term;
use datacron_geo::{BoundingBox, GeoPoint, TimeInterval};

/// A position in a triple pattern: a variable or a concrete term.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternTerm {
    /// A named variable (`?x` — stored without the `?`).
    Var(String),
    /// A concrete term.
    Term(Term),
}

impl PatternTerm {
    /// Convenience: a variable.
    pub fn var(name: impl Into<String>) -> Self {
        PatternTerm::Var(name.into())
    }

    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            PatternTerm::Var(v) => Some(v),
            PatternTerm::Term(_) => None,
        }
    }
}

impl From<Term> for PatternTerm {
    fn from(t: Term) -> Self {
        PatternTerm::Term(t)
    }
}

/// One triple pattern in a basic graph pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct TriplePattern {
    /// Subject position.
    pub s: PatternTerm,
    /// Predicate position.
    pub p: PatternTerm,
    /// Object position.
    pub o: PatternTerm,
}

impl TriplePattern {
    /// Creates a pattern.
    pub fn new(
        s: impl Into<PatternTerm>,
        p: impl Into<PatternTerm>,
        o: impl Into<PatternTerm>,
    ) -> Self {
        Self {
            s: s.into(),
            p: p.into(),
            o: o.into(),
        }
    }

    /// The variables this pattern binds, in S/P/O order.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        [&self.s, &self.p, &self.o]
            .into_iter()
            .filter_map(|t| t.as_var())
    }
}

/// Comparison operators usable in `FILTER`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A filter expression.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterExpr {
    /// Compare a variable's value against a constant literal/IRI.
    Compare {
        /// Variable name.
        var: String,
        /// Operator.
        op: CmpOp,
        /// Right-hand constant.
        value: Term,
    },
    /// `st_within(?v, min_lon, min_lat, max_lon, max_lat)` — the variable's
    /// point literal lies inside the box.
    SpatialWithin {
        /// Variable bound to a point literal.
        var: String,
        /// The query box.
        bbox: BoundingBox,
    },
    /// `st_near(?v, lon, lat, radius_m)` — the variable's point literal is
    /// within `radius_m` metres of the centre by great-circle distance
    /// ([`GeoPoint::haversine_m`]), at any latitude and across the
    /// antimeridian.
    SpatialNear {
        /// Variable bound to a point literal.
        var: String,
        /// Circle centre.
        center: GeoPoint,
        /// Radius in metres.
        radius_m: f64,
    },
    /// `t_between(?v, start_ms, end_ms)` — the variable's time literal is in
    /// the half-open interval.
    TimeBetween {
        /// Variable bound to a time literal.
        var: String,
        /// The query interval.
        interval: TimeInterval,
    },
}

impl FilterExpr {
    /// The variable the filter constrains.
    pub fn var(&self) -> &str {
        match self {
            FilterExpr::Compare { var, .. }
            | FilterExpr::SpatialWithin { var, .. }
            | FilterExpr::SpatialNear { var, .. }
            | FilterExpr::TimeBetween { var, .. } => var,
        }
    }

    /// True for the spatial/temporal builtins that the engine can push down
    /// into index lookups.
    pub fn is_pushdown(&self) -> bool {
        !matches!(self, FilterExpr::Compare { .. })
    }
}

/// A `SELECT` query: projected variables, a basic graph pattern, filters
/// and an optional result limit.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// Projected variable names (empty = `SELECT *`).
    pub vars: Vec<String>,
    /// The basic graph pattern.
    pub patterns: Vec<TriplePattern>,
    /// Conjunctive filters.
    pub filters: Vec<FilterExpr>,
    /// Optional `LIMIT`.
    pub limit: Option<usize>,
}

impl SelectQuery {
    /// A query over `patterns` projecting all variables.
    pub fn new(patterns: Vec<TriplePattern>) -> Self {
        Self {
            vars: Vec::new(),
            patterns,
            filters: Vec::new(),
            limit: None,
        }
    }

    /// Builder: set projection.
    pub fn select(mut self, vars: &[&str]) -> Self {
        self.vars = vars.iter().map(|v| v.to_string()).collect();
        self
    }

    /// Builder: add a filter.
    pub fn filter(mut self, f: FilterExpr) -> Self {
        self.filters.push(f);
        self
    }

    /// Builder: set a limit.
    pub fn with_limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Every variable mentioned in the BGP, in first-appearance order.
    pub fn all_vars(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in &self.patterns {
            for v in p.vars() {
                if !out.iter().any(|x| x == v) {
                    out.push(v.to_string());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_vars_in_order() {
        let p = TriplePattern::new(
            PatternTerm::var("s"),
            Term::iri("type"),
            PatternTerm::var("o"),
        );
        let vars: Vec<&str> = p.vars().collect();
        assert_eq!(vars, vec!["s", "o"]);
    }

    #[test]
    fn all_vars_dedup_in_order() {
        let q = SelectQuery::new(vec![
            TriplePattern::new(PatternTerm::var("a"), Term::iri("p"), PatternTerm::var("b")),
            TriplePattern::new(PatternTerm::var("b"), Term::iri("q"), PatternTerm::var("c")),
        ]);
        assert_eq!(q.all_vars(), vec!["a", "b", "c"]);
    }

    #[test]
    fn builder_chain() {
        let q = SelectQuery::new(vec![TriplePattern::new(
            PatternTerm::var("x"),
            Term::iri("p"),
            PatternTerm::var("y"),
        )])
        .select(&["x"])
        .filter(FilterExpr::Compare {
            var: "y".into(),
            op: CmpOp::Gt,
            value: Term::integer(5),
        })
        .with_limit(10);
        assert_eq!(q.vars, vec!["x"]);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.filters.len(), 1);
        assert_eq!(q.filters[0].var(), "y");
        assert!(!q.filters[0].is_pushdown());
    }

    #[test]
    fn pushdown_classification() {
        let w = FilterExpr::SpatialWithin {
            var: "g".into(),
            bbox: BoundingBox::new(0.0, 0.0, 1.0, 1.0),
        };
        assert!(w.is_pushdown());
        let t = FilterExpr::TimeBetween {
            var: "t".into(),
            interval: TimeInterval::new(datacron_geo::TimeMs(0), datacron_geo::TimeMs(1)),
        };
        assert!(t.is_pushdown());
        let n = FilterExpr::SpatialNear {
            var: "g".into(),
            center: GeoPoint::new(0.0, 0.0),
            radius_m: 100.0,
        };
        assert!(n.is_pushdown());
    }
}
