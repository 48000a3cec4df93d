//! # cqp-storage
//!
//! In-memory, columnar relational storage used as the database substrate
//! for the reproduction of *"Constrained Optimalities in Query
//! Personalization"* (Koutrika & Ioannidis, SIGMOD 2005).
//!
//! The paper ran its experiments on top of Oracle 9i, but its cost model is
//! deliberately coarse: the execution cost of a sub-query is `b × Σ blocks(R)`
//! over the relations it touches, with `b` the time to read one block from
//! disk (Section 7.1). This crate therefore models exactly the artefacts that
//! model needs:
//!
//! * typed [`Value`]s and tuples,
//! * relation [`schema::RelationSchema`]s collected in a [`catalog::Catalog`],
//! * [`table::Table`]s that store one typed [`column::Column`] per attribute
//!   (`i64`, `f64`, or `u32` codes into a per-column string dictionary,
//!   with NULL marked per row) and count their rows in fixed-capacity
//!   blocks, block `b` being rows `[b·cap, (b+1)·cap)`, so that `blocks(R)`
//!   is well defined,
//! * per-column [`stats::ColumnStats`] (distinct counts, min/max, equi-depth
//!   histograms) for cardinality estimation, and
//! * an [`disk::IoMeter`] that charges a configurable number of milliseconds
//!   per block read, so that executing a query yields a *measured* cost
//!   comparable with the estimated one (paper Figure 15).
//!
//! Everything is deterministic and single-threaded; the CQP algorithms in the
//! paper are sequential, and reproducibility of the experiments matters more
//! than parallel throughput here.
//!
//! ```
//! use cqp_storage::{Database, DataType, RelationSchema, Value};
//!
//! let mut db = Database::with_block_capacity(2);
//! let genre = db
//!     .create_relation(RelationSchema::new(
//!         "GENRE",
//!         vec![("mid", DataType::Int), ("genre", DataType::Str)],
//!     ))
//!     .unwrap();
//! db.insert_into("GENRE", vec![Value::Int(1), Value::str("musical")]).unwrap();
//! db.insert_into("GENRE", vec![Value::Int(2), Value::str("drama")]).unwrap();
//! db.insert_into("GENRE", vec![Value::Int(3), Value::str("musical")]).unwrap();
//!
//! // blocks(R): 3 rows at 2 per block = 2 blocks — the unit of the
//! // paper's cost model.
//! assert_eq!(db.table(genre).unwrap().num_blocks(), 2);
//!
//! // ANALYZE: per-column statistics drive cardinality estimation.
//! let stats = db.analyze();
//! let genre_col = &stats.table(genre.index()).unwrap().columns[1];
//! assert_eq!(genre_col.n_distinct, 2);
//! ```

pub mod catalog;
pub mod column;
pub mod csv;
pub mod database;
pub mod disk;
pub mod error;
pub mod fault;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use catalog::Catalog;
pub use column::{Cell, Column, ColumnData};
pub use csv::{dump_table, load_table, load_table_recorded, CsvError};
pub use database::Database;
pub use disk::{IoMeter, BLOCKS_READ_COUNTER, FAULTS_INJECTED_COUNTER, LATENCY_SPIKES_COUNTER};
pub use error::{StorageError, StorageResult};
pub use fault::{FaultMode, FaultPlan, ReadOutcome, WriteOutcome};
pub use schema::{AttrId, AttributeDef, QualifiedAttr, RelationId, RelationSchema};
pub use stats::{ColumnStats, DbStats, TableStats};
pub use table::Table;
pub use value::{DataType, Tuple, Value};
