//! Typed values and tuples.
//!
//! Values are the atoms stored in tables and compared by selection
//! predicates. The paper's personalization graph has *value nodes* "one for
//! each value that is of any interest to this user" (Section 3); those nodes
//! carry exactly these values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The data types supported by the storage layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float (NaN is rejected at construction time).
    Float,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "VARCHAR"),
        }
    }
}

/// A single attribute value.
///
/// `Value` implements `Eq`, `Ord` and `Hash` (floats are compared by their
/// bit pattern after NaN has been rejected at construction), so values can be
/// used directly as hash-join and group-by keys.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Compares equal to itself for grouping purposes, but
    /// predicates treat NULL as non-matching (see [`Value::sql_eq`]).
    Null,
    /// Integer value.
    Int(i64),
    /// Float value; guaranteed non-NaN.
    Float(f64),
    /// String value.
    Str(String),
}

impl Value {
    /// Constructs a float value, rejecting NaN.
    ///
    /// # Panics
    /// Panics if `v` is NaN; NaN has no place in a total order and would
    /// break grouping and histogram construction.
    pub fn float(v: f64) -> Self {
        assert!(!v.is_nan(), "NaN values are not representable");
        Value::Float(v)
    }

    /// Constructs a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// The type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Short type name used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INT",
            Value::Float(_) => "FLOAT",
            Value::Str(_) => "VARCHAR",
        }
    }

    /// True if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL equality: NULL never equals anything (including NULL).
    pub fn sql_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self == other
    }

    /// A numeric view of the value for histogram bucketing; strings hash to a
    /// stable pseudo-position so equi-depth histograms still work on them.
    pub fn numeric_key(&self) -> f64 {
        match self {
            Value::Null => f64::NEG_INFINITY,
            Value::Int(i) => *i as f64,
            Value::Float(v) => *v,
            Value::Str(s) => {
                // First 8 bytes, big-endian: preserves lexicographic order on
                // short ASCII prefixes, which is all histograms need.
                let mut buf = [0u8; 8];
                for (i, b) in s.as_bytes().iter().take(8).enumerate() {
                    buf[i] = *b;
                }
                u64::from_be_bytes(buf) as f64
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: NULL < Int/Float (numerically interleaved) < Str.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).expect("NaN rejected at construction"),
            (Int(a), Float(b)) => (*a as f64)
                .partial_cmp(b)
                .expect("NaN rejected at construction"),
            (Float(a), Int(b)) => a
                .partial_cmp(&(*b as f64))
                .expect("NaN rejected at construction"),
            (Int(_), Str(_)) | (Float(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_)) | (Str(_), Float(_)) => Ordering::Greater,
            (Str(a), Str(b)) => a.cmp(b),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
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

/// A row of values.
pub type Tuple = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn sql_eq_treats_null_as_unknown() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::Int(1)));
        assert!(Value::Int(1).sql_eq(&Value::Int(1)));
        assert!(!Value::Int(1).sql_eq(&Value::Int(2)));
    }

    #[test]
    fn equal_values_hash_equal() {
        let a = Value::str("musical");
        let b = Value::str("musical");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_rejected() {
        let _ = Value::float(f64::NAN);
    }

    #[test]
    fn ordering_is_total_across_types() {
        let mut vals = [
            Value::str("b"),
            Value::Int(10),
            Value::Null,
            Value::float(3.5),
            Value::str("a"),
            Value::Int(2),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(2));
        assert_eq!(vals[2], Value::float(3.5));
        assert_eq!(vals[3], Value::Int(10));
        assert_eq!(vals[4], Value::str("a"));
        assert_eq!(vals[5], Value::str("b"));
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(3).cmp(&Value::float(3.0)), Ordering::Equal);
        assert_eq!(Value::Int(3).cmp(&Value::float(3.5)), Ordering::Less);
        assert_eq!(Value::float(4.0).cmp(&Value::Int(3)), Ordering::Greater);
    }

    #[test]
    fn numeric_key_preserves_string_prefix_order() {
        let a = Value::str("abc").numeric_key();
        let b = Value::str("abd").numeric_key();
        let c = Value::str("b").numeric_key();
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("W. Allen").to_string(), "'W. Allen'");
        assert_eq!(DataType::Str.to_string(), "VARCHAR");
    }
}
