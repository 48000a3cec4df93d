//! Tables: one relation's tuples, stored column by column.
//!
//! The paper's cost model counts *blocks*: `cost(qi) = b × Σ blocks(Rij)`
//! (Section 7.1). A table therefore has a tuples-per-block capacity, and
//! block `b` is rows `[b·cap, (b+1)·cap)`, so `blocks(R)` is
//! `ceil(rows / cap)`. Reading a block through the executor charges the
//! [`crate::disk::IoMeter`]. The rows themselves live in typed
//! [`Column`]s, one per attribute.

use crate::column::Column;
use crate::error::{StorageError, StorageResult};
use crate::schema::RelationSchema;
use crate::value::{DataType, Tuple};

/// Default number of tuples per block.
///
/// With ~100-byte tuples this corresponds roughly to an 8 KiB page, the
/// classic default of the systems the paper ran on.
pub const DEFAULT_BLOCK_CAPACITY: usize = 64;

/// A table stores the tuples of one relation as typed columns, counted in
/// fixed-capacity blocks.
#[derive(Debug, Clone)]
pub struct Table {
    schema: RelationSchema,
    columns: Vec<Column>,
    block_capacity: usize,
    num_rows: usize,
}

impl Table {
    /// Creates an empty table with the default block capacity.
    pub fn new(schema: RelationSchema) -> Self {
        Self::with_block_capacity(schema, DEFAULT_BLOCK_CAPACITY)
    }

    /// Creates an empty table with an explicit tuples-per-block capacity.
    ///
    /// # Panics
    /// Panics if `block_capacity` is zero.
    pub fn with_block_capacity(schema: RelationSchema, block_capacity: usize) -> Self {
        assert!(block_capacity > 0, "block capacity must be positive");
        let columns = schema
            .attributes
            .iter()
            .map(|a| Column::new(a.ty))
            .collect();
        Table {
            schema,
            columns,
            block_capacity,
            num_rows: 0,
        }
    }

    /// The relation schema of this table.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Number of tuples stored.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of blocks occupied — the `blocks(R)` of the paper's cost model.
    pub fn num_blocks(&self) -> u64 {
        self.num_rows.div_ceil(self.block_capacity) as u64
    }

    /// Tuples-per-block capacity.
    pub fn block_capacity(&self) -> usize {
        self.block_capacity
    }

    /// Inserts a tuple after checking arity and types (NULL passes any type).
    pub fn insert(&mut self, row: Tuple) -> StorageResult<()> {
        if row.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                relation: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        for (i, (value, def)) in row.iter().zip(&self.schema.attributes).enumerate() {
            if let Some(ty) = value.data_type() {
                if ty != def.ty {
                    return Err(StorageError::TypeMismatch {
                        relation: self.schema.name.clone(),
                        attr: i,
                        expected: match def.ty {
                            DataType::Int => "INT",
                            DataType::Float => "FLOAT",
                            DataType::Str => "VARCHAR",
                        },
                        got: value.type_name(),
                    });
                }
            }
        }
        assert!(
            self.num_rows < u32::MAX as usize,
            "a table holds < 2^32 rows"
        );
        for (column, value) in self.columns.iter_mut().zip(row) {
            column.push(value);
        }
        self.num_rows += 1;
        Ok(())
    }

    /// The column of attribute `attr`.
    ///
    /// # Panics
    /// Panics if `attr` is not an attribute of the relation.
    pub fn column(&self, attr: usize) -> &Column {
        &self.columns[attr]
    }

    /// Row `row` as an owned tuple.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> Tuple {
        self.columns
            .iter()
            .map(|c| c.cell(row).to_value())
            .collect()
    }

    /// Every tuple in insertion order, owned, without I/O metering (CSV
    /// dump, tests).
    pub fn rows(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.num_rows).map(|r| self.row(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::value::Value;
    use proptest::prelude::*;

    fn genre_table(block_capacity: usize) -> Table {
        let schema = RelationSchema::new(
            "GENRE",
            vec![("mid", DataType::Int), ("genre", DataType::Str)],
        );
        Table::with_block_capacity(schema, block_capacity)
    }

    #[test]
    fn rows_spill_into_blocks() {
        let mut t = genre_table(3);
        for i in 0..10 {
            t.insert(vec![Value::Int(i), Value::str("musical")])
                .unwrap();
        }
        assert_eq!(t.num_rows(), 10);
        // ceil(10 / 3) = 4 blocks
        assert_eq!(t.num_blocks(), 4);
    }

    #[test]
    fn arity_is_checked() {
        let mut t = genre_table(4);
        let err = t.insert(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            StorageError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn types_are_checked_but_null_passes() {
        let mut t = genre_table(4);
        let err = t
            .insert(vec![Value::str("x"), Value::str("y")])
            .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { attr: 0, .. }));
        // A rejected tuple leaves no partial row behind.
        let err = t.insert(vec![Value::Int(1), Value::Int(2)]).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { attr: 1, .. }));
        assert_eq!(t.num_rows(), 0);
        assert!(t.column(0).nulls().is_empty());
        t.insert(vec![Value::Null, Value::str("drama")]).unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.row(0), vec![Value::Null, Value::str("drama")]);
    }

    #[test]
    fn column_iteration() {
        let mut t = genre_table(2);
        t.insert(vec![Value::Int(1), Value::str("musical")])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::str("drama")]).unwrap();
        let genres: Vec<_> = (0..2).map(|r| t.column(1).cell(r).to_value()).collect();
        assert_eq!(genres, vec![Value::str("musical"), Value::str("drama")]);
    }

    #[test]
    fn empty_table_has_zero_blocks() {
        let t = genre_table(4);
        assert_eq!(t.num_blocks(), 0);
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.rows().count(), 0);
    }

    #[test]
    #[should_panic(expected = "block capacity")]
    fn zero_capacity_rejected() {
        let _ = genre_table(0);
    }

    /// One `(INT, FLOAT, VARCHAR)` tuple, each cell NULL one time in five.
    fn tuple() -> impl Strategy<Value = Tuple> {
        (0i64..5, 0i32..5, 0usize..5).prop_map(|(i, f, s)| {
            let strs = ["", "a", "NULL", "a b"];
            vec![
                if i == 0 {
                    Value::Null
                } else {
                    Value::Int(i - 2)
                },
                if f == 0 {
                    Value::Null
                } else {
                    Value::float(f64::from(f) / 2.0 - 1.0)
                },
                if s == 0 {
                    Value::Null
                } else {
                    Value::str(strs[s - 1])
                },
            ]
        })
    }

    proptest! {
        /// Insert → `rows()` returns every tuple, NULLs of each type
        /// included, across block boundaries, and `blocks(R)` is
        /// `ceil(rows / cap)`.
        #[test]
        fn insert_rows_round_trip(
            cap in 1usize..6,
            want in prop::collection::vec(tuple(), 0..20),
        ) {
            let schema = RelationSchema::new(
                "T",
                vec![("i", DataType::Int), ("f", DataType::Float), ("s", DataType::Str)],
            );
            let mut t = Table::with_block_capacity(schema, cap);
            for row in &want {
                t.insert(row.clone()).unwrap();
            }
            prop_assert_eq!(t.num_rows(), want.len());
            prop_assert_eq!(t.num_blocks(), want.len().div_ceil(cap) as u64);
            let got: Vec<Tuple> = t.rows().collect();
            prop_assert_eq!(got, want);
        }
    }
}
