//! Dynamically-typed cell values.
//!
//! [`Value`] is the row-level escape hatch of the column store: columns are
//! stored as typed vectors, but cell access, CSV output and table
//! rendering need a uniform cell representation. `Value` is cheap to
//! clone for everything except strings.

use std::fmt;

/// A single dynamically-typed cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is normalized to `Null` at column boundaries.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Shorthand for building a string value from a `&str`.
    pub fn str(s: &str) -> Self {
        Value::Str(s.to_owned())
    }

    /// True if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an integer, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a float; integers are widened, other types yield `None`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extract a string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract a boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    /// Writes the CSV-facing textual form (empty string for null).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        if v.is_nan() {
            Value::Null
        } else {
            Value::Float(v)
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::str("a").as_str(), Some("a"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::str("a").as_int(), None);
        assert_eq!(Value::Bool(true).as_float(), None);
    }

    #[test]
    fn nan_becomes_null() {
        assert!(Value::from(f64::NAN).is_null());
        assert_eq!(Value::from(2.5), Value::Float(2.5));
    }

    #[test]
    fn display_is_csv_friendly() {
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Float(0.5).to_string(), "0.5");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(1i64), Value::Int(1));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(String::from("t")), Value::str("t"));
        assert_eq!(Value::from(false), Value::Bool(false));
    }
}
