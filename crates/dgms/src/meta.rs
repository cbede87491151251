//! User-defined metadata: SRB-style attribute/value/unit triples and
//! queries over them.

use std::fmt;

/// One attribute–value–unit triple attached to a namespace entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaTriple {
    /// Attribute name, e.g. "document-type".
    pub attribute: String,
    /// Value, e.g. "seismogram".
    pub value: String,
    /// Optional unit, e.g. "Hz".
    pub unit: Option<String>,
}

impl MetaTriple {
    /// A unit-less triple.
    pub fn new(attribute: impl Into<String>, value: impl Into<String>) -> Self {
        MetaTriple { attribute: attribute.into(), value: value.into(), unit: None }
    }

    /// A triple with a unit.
    pub fn with_unit(attribute: impl Into<String>, value: impl Into<String>, unit: impl Into<String>) -> Self {
        MetaTriple { attribute: attribute.into(), value: value.into(), unit: Some(unit.into()) }
    }
}

impl fmt::Display for MetaTriple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.unit {
            Some(u) => write!(f, "{}={} [{}]", self.attribute, self.value, u),
            None => write!(f, "{}={}", self.attribute, self.value),
        }
    }
}

/// A query over metadata triples.
///
/// This is the predicate language datagrid triggers (§2.2) and
/// collection-iterating flows (§2.3 "processed according to a datagrid
/// query") evaluate; composite queries nest `And`/`Or`.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaQuery {
    /// Attribute present with exactly this value.
    Eq(String, String),
    /// Attribute present with a different (or any) value ≠ given.
    Ne(String, String),
    /// Attribute present (any value).
    Has(String),
    /// Attribute's value, parsed as f64, compares greater than the bound.
    Gt(String, f64),
    /// Attribute's value, parsed as f64, compares less than the bound.
    Lt(String, f64),
    /// Value contains the given substring.
    Contains(String, String),
    /// Both sub-queries match.
    And(Box<MetaQuery>, Box<MetaQuery>),
    /// Either sub-query matches.
    Or(Box<MetaQuery>, Box<MetaQuery>),
    /// Sub-query does not match.
    Not(Box<MetaQuery>),
    /// Matches everything.
    Any,
}

impl MetaQuery {
    /// Conjunction helper.
    pub fn and(self, other: MetaQuery) -> MetaQuery {
        MetaQuery::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: MetaQuery) -> MetaQuery {
        MetaQuery::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    #[expect(clippy::should_implement_trait, reason = "a named builder step beside `and` and `or`, not an operator")]
    pub fn not(self) -> MetaQuery {
        MetaQuery::Not(Box::new(self))
    }

    /// Evaluate against a set of triples.
    pub fn matches(&self, triples: &[MetaTriple]) -> bool {
        match self {
            MetaQuery::Eq(a, v) => triples.iter().any(|t| &t.attribute == a && &t.value == v),
            MetaQuery::Ne(a, v) => triples.iter().any(|t| &t.attribute == a && &t.value != v),
            MetaQuery::Has(a) => triples.iter().any(|t| &t.attribute == a),
            MetaQuery::Gt(a, bound) => triples
                .iter()
                .any(|t| &t.attribute == a && t.value.parse::<f64>().map(|x| x > *bound).unwrap_or(false)),
            MetaQuery::Lt(a, bound) => triples
                .iter()
                .any(|t| &t.attribute == a && t.value.parse::<f64>().map(|x| x < *bound).unwrap_or(false)),
            MetaQuery::Contains(a, needle) => {
                triples.iter().any(|t| &t.attribute == a && t.value.contains(needle.as_str()))
            }
            MetaQuery::And(l, r) => l.matches(triples) && r.matches(triples),
            MetaQuery::Or(l, r) => l.matches(triples) || r.matches(triples),
            MetaQuery::Not(q) => !q.matches(triples),
            MetaQuery::Any => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triples() -> Vec<MetaTriple> {
        vec![
            MetaTriple::new("document-type", "seismogram"),
            MetaTriple::with_unit("sample-rate", "100", "Hz"),
            MetaTriple::new("project", "scec"),
        ]
    }

    #[test]
    fn eq_and_has() {
        let t = triples();
        assert!(MetaQuery::Eq("project".into(), "scec".into()).matches(&t));
        assert!(!MetaQuery::Eq("project".into(), "cms".into()).matches(&t));
        assert!(MetaQuery::Has("sample-rate".into()).matches(&t));
        assert!(!MetaQuery::Has("nope".into()).matches(&t));
    }

    #[test]
    fn numeric_comparisons_parse_values() {
        let t = triples();
        assert!(MetaQuery::Gt("sample-rate".into(), 50.0).matches(&t));
        assert!(!MetaQuery::Gt("sample-rate".into(), 100.0).matches(&t));
        assert!(MetaQuery::Lt("sample-rate".into(), 200.0).matches(&t));
        // Non-numeric values never satisfy numeric comparisons.
        assert!(!MetaQuery::Gt("project".into(), 0.0).matches(&t));
    }

    #[test]
    fn composition() {
        let t = triples();
        let q = MetaQuery::Eq("project".into(), "scec".into())
            .and(MetaQuery::Gt("sample-rate".into(), 50.0));
        assert!(q.matches(&t));
        let q2 = MetaQuery::Eq("project".into(), "cms".into())
            .or(MetaQuery::Has("document-type".into()));
        assert!(q2.matches(&t));
        assert!(MetaQuery::Has("nope".into()).not().matches(&t));
        assert!(MetaQuery::Any.matches(&[]));
    }

    #[test]
    fn ne_requires_presence() {
        let t = triples();
        assert!(MetaQuery::Ne("project".into(), "cms".into()).matches(&t));
        assert!(!MetaQuery::Ne("missing".into(), "x".into()).matches(&t), "absent attribute is not 'not equal'");
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(MetaTriple::new("a", "b").to_string(), "a=b");
        assert_eq!(MetaTriple::with_unit("r", "100", "Hz").to_string(), "r=100 [Hz]");
    }
}
