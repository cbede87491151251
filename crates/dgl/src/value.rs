//! Runtime values of DGL variables and expressions.

use std::fmt;

/// A DGL value.
///
/// DGL documents carry values as text; this enum is their evaluated form
/// inside the engine. Lists exist for `for-each` iteration over explicit
/// item sets and datagrid query results.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// A 64-bit integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An ordered list.
    List(Vec<Value>),
}

impl Value {
    /// Truthiness: used by `while` conditions and rule guards.
    ///
    /// Strings are truthy when non-empty, numbers when non-zero, lists
    /// when non-empty.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Str(s) => !s.is_empty(),
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Bool(b) => *b,
            Value::List(l) => !l.is_empty(),
        }
    }

    /// Numeric view, when the value is (or parses as) a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(s) => s.trim().parse().ok(),
            Value::List(_) => None,
        }
    }

    /// Integer view (floats truncate if integral).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            Value::Str(s) => s.trim().parse().ok(),
            _ => None,
        }
    }

    /// Parse a DGL text literal into the most specific value type.
    ///
    /// This is how `<variable value="...">` declarations are typed:
    /// integers, then floats, then booleans, falling back to strings.
    pub fn from_text(text: &str) -> Value {
        let t = text.trim();
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            return Value::Float(f);
        }
        match t {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => Value::Str(text.to_owned()),
        }
    }

    /// Structural equality with numeric coercion (`1 == 1.0`, `"3" == 3`).
    pub fn loosely_equals(&self, other: &Value) -> bool {
        if self == other {
            return true;
        }
        match (self.as_f64(), other.as_f64()) {
            #[expect(clippy::float_cmp, reason = "DGL defines `==` on numbers as exact equality after coercion (`1 == 1.0`)")]
            (Some(a), Some(b)) => a == b,
            _ => self.to_string() == other.to_string(),
        }
    }

    /// Type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::List(_) => "list",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_parsing_prefers_specific_types() {
        assert_eq!(Value::from_text("42"), Value::Int(42));
        assert_eq!(Value::from_text("-3"), Value::Int(-3));
        assert_eq!(Value::from_text("2.5"), Value::Float(2.5));
        assert_eq!(Value::from_text("true"), Value::Bool(true));
        assert_eq!(Value::from_text("hello"), Value::Str("hello".into()));
        assert_eq!(Value::from_text(" 7 "), Value::Int(7), "whitespace tolerated");
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(!Value::List(vec![]).truthy());
        assert!(Value::List(vec![Value::Int(0)]).truthy());
        assert!(!Value::Float(0.0).truthy());
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Str("12".into()).as_i64(), Some(12));
        assert_eq!(Value::Float(3.0).as_i64(), Some(3));
        assert_eq!(Value::Float(3.5).as_i64(), None);
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::List(vec![]).as_f64(), None);
    }

    #[test]
    fn loose_equality_coerces_numbers_and_strings() {
        assert!(Value::Int(1).loosely_equals(&Value::Float(1.0)));
        assert!(Value::Str("3".into()).loosely_equals(&Value::Int(3)));
        assert!(Value::Str("abc".into()).loosely_equals(&Value::Str("abc".into())));
        assert!(!Value::Int(1).loosely_equals(&Value::Int(2)));
    }

    #[test]
    fn display_round_trips_scalars() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::List(vec![Value::Int(1), "a".into()]).to_string(), "[1, a]");
    }
}
