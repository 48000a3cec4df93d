//! Typed, dictionary-encoded columns.
//!
//! A [`crate::table::Table`] keeps one column per attribute: `i64` or
//! `f64` values, or `u32` codes into a per-column [`Dictionary`] of
//! distinct strings, with NULL marked per row. An executor reads cells
//! unboxed ([`Column::cell`]) and can evaluate a string predicate once per
//! dictionary entry instead of once per row, or look an equality literal up
//! once ([`Dictionary::code`]) and compare codes.

use crate::value::{DataType, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The distinct strings of one column. A code is an index into
/// [`Dictionary::values`]; equal strings share one code.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// Every entry is a [`Value::Str`], so predicates evaluate on it as is.
    values: Vec<Value>,
    codes: HashMap<String, u32>,
}

impl Dictionary {
    /// The entries, by code.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The code of `s`, or `None` if no row holds it.
    pub fn code(&self, s: &str) -> Option<u32> {
        self.codes.get(s).copied()
    }

    /// The code of `s`, adding it on first sight.
    fn encode(&mut self, s: String) -> u32 {
        match self.codes.entry(s) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let code = u32::try_from(self.values.len()).expect("a column holds < 2^32 strings");
                self.values.push(Value::Str(e.key().clone()));
                *e.insert(code)
            }
        }
    }
}

/// The values of one column, by row.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// `INT` values.
    Int(Vec<i64>),
    /// `FLOAT` values (never NaN).
    Float(Vec<f64>),
    /// `VARCHAR` values as codes into `dict`.
    Str {
        /// One code per row.
        codes: Vec<u32>,
        /// The column's distinct strings.
        dict: Dictionary,
    },
}

/// One attribute of a table: typed values plus a NULL mark per row. A NULL
/// row holds a placeholder value that readers must not interpret.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    nulls: Vec<bool>,
}

/// One cell read without boxing, as join and grouping keys use it.
/// Equality and hashing follow [`Value`]'s: NULL equals NULL (SQL
/// comparisons must skip it), `Int` never equals `Float`, floats compare by
/// bit pattern and strings by content, across dictionaries too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cell<'a> {
    /// SQL NULL.
    Null,
    /// An `INT` value.
    Int(i64),
    /// A `FLOAT` value's bit pattern.
    Float(u64),
    /// A dictionary entry (always a [`Value::Str`]).
    Str(&'a Value),
}

impl Cell<'_> {
    /// The owned value.
    pub fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Int(i) => Value::Int(i),
            Cell::Float(bits) => Value::Float(f64::from_bits(bits)),
            Cell::Str(v) => v.clone(),
        }
    }
}

impl Column {
    /// An empty column of type `ty`.
    pub(crate) fn new(ty: DataType) -> Self {
        let data = match ty {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Str => ColumnData::Str {
                codes: Vec::new(),
                dict: Dictionary::default(),
            },
        };
        Column {
            data,
            nulls: Vec::new(),
        }
    }

    /// Appends `value`, whose type the caller has checked against the
    /// column's. NULL is stored as a placeholder marked NULL.
    ///
    /// # Panics
    /// Panics on a non-NULL value of another type.
    pub(crate) fn push(&mut self, value: Value) {
        self.nulls.push(value.is_null());
        match (&mut self.data, value) {
            (ColumnData::Int(v), Value::Int(x)) => v.push(x),
            (ColumnData::Float(v), Value::Float(x)) => v.push(x),
            (ColumnData::Str { codes, dict }, Value::Str(s)) => codes.push(dict.encode(s)),
            (ColumnData::Int(v), Value::Null) => v.push(0),
            (ColumnData::Float(v), Value::Null) => v.push(0.0),
            (ColumnData::Str { codes, .. }, Value::Null) => codes.push(0),
            (_, value) => panic!(
                "{} value pushed to a column of another type",
                value.type_name()
            ),
        }
    }

    /// The typed values, by row.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// One NULL mark per row.
    pub fn nulls(&self) -> &[bool] {
        &self.nulls
    }

    /// The cell at `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub fn cell(&self, row: usize) -> Cell<'_> {
        if self.nulls[row] {
            return Cell::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Cell::Int(v[row]),
            ColumnData::Float(v) => Cell::Float(v[row].to_bits()),
            ColumnData::Str { codes, dict } => Cell::Str(&dict.values[codes[row] as usize]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_share_codes_and_nulls_are_marked() {
        let mut c = Column::new(DataType::Str);
        for v in [
            Value::str("drama"),
            Value::Null,
            Value::str("comedy"),
            Value::str("drama"),
        ] {
            c.push(v);
        }
        let ColumnData::Str { codes, dict } = c.data() else {
            panic!("a VARCHAR column");
        };
        assert_eq!(codes, &[0, 0, 1, 0]);
        assert_eq!(dict.values(), &[Value::str("drama"), Value::str("comedy")]);
        assert_eq!(dict.code("comedy"), Some(1));
        assert_eq!(dict.code("musical"), None);
        assert_eq!(c.nulls(), &[false, true, false, false]);
        assert_eq!(c.cell(1), Cell::Null);
        assert_eq!(c.cell(3).to_value(), Value::str("drama"));
    }

    #[test]
    fn cells_compare_like_values() {
        let mut a = Column::new(DataType::Str);
        let mut b = Column::new(DataType::Str);
        a.push(Value::str("x"));
        b.push(Value::str("y"));
        b.push(Value::str("x"));
        // Different dictionaries, different codes, equal content.
        assert_eq!(a.cell(0), b.cell(1));
        assert_ne!(Cell::Int(1), Cell::Float(1.0f64.to_bits()));
        assert_ne!(
            Cell::Float(0.0f64.to_bits()),
            Cell::Float((-0.0f64).to_bits())
        );
        let mut f = Column::new(DataType::Float);
        f.push(Value::float(2.5));
        f.push(Value::Null);
        assert_eq!(f.cell(0).to_value(), Value::float(2.5));
        assert_eq!(f.cell(1).to_value(), Value::Null);
    }
}
