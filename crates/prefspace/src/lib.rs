//! # cqp-prefspace
//!
//! The **Preference Space** module of the CQP architecture (paper Figure 2
//! and Section 4.4): given a query `Q` and a user profile `U`, it determines
//! the set `P` of atomic and implicit selection preferences extracted from
//! `U` and related to `Q`, together with three rank vectors over `P`:
//!
//! * `D` — preferences ordered by decreasing degree of interest,
//! * `C` — ordered by decreasing `cost(Q ∧ p)`,
//! * `S` — ordered by increasing `size(Q ∧ p)`.
//!
//! Extraction (the Figure 3 algorithm, implemented in [`extract`]) performs
//! a best-first traversal of the personalization graph so preferences are
//! produced in decreasing doi order — which is why `D` is simply the
//! identity permutation over `P`.
//!
//! ```
//! use cqp_prefspace::{extract, ExtractConfig};
//! use cqp_engine::QueryBuilder;
//! use cqp_prefs::{Doi, Profile};
//! use cqp_storage::{Database, DataType, RelationSchema, Value};
//!
//! let mut db = Database::new();
//! db.create_relation(RelationSchema::new(
//!     "MOVIE",
//!     vec![("mid", DataType::Int), ("title", DataType::Str), ("did", DataType::Int)],
//! )).unwrap();
//! db.create_relation(RelationSchema::new(
//!     "DIRECTOR",
//!     vec![("did", DataType::Int), ("name", DataType::Str)],
//! )).unwrap();
//! db.insert_into("MOVIE", vec![Value::Int(1), Value::str("Manhattan"), Value::Int(1)]).unwrap();
//! db.insert_into("DIRECTOR", vec![Value::Int(1), Value::str("W. Allen")]).unwrap();
//!
//! let mut profile = Profile::new("al");
//! profile.add_join(db.catalog(), "MOVIE", "did", "DIRECTOR", "did", Doi::new(1.0)).unwrap();
//! profile.add_selection(db.catalog(), "DIRECTOR", "name", "W. Allen", Doi::new(0.8)).unwrap();
//!
//! let query = QueryBuilder::from(db.catalog(), "MOVIE")
//!     .unwrap()
//!     .select("MOVIE", "title")
//!     .unwrap()
//!     .build();
//! let stats = db.analyze();
//! let extraction = extract(&query, &profile, &stats, &ExtractConfig::default());
//!
//! // One implicit selection preference, doi = 1.0 × 0.8.
//! assert_eq!(extraction.space.k(), 1);
//! assert_eq!(extraction.space.doi(0), Doi::new(0.8));
//! ```

pub mod extract;
pub mod space;

pub use extract::{extract, ExtractConfig, Extraction};
pub use space::{PrefParams, PreferenceSpace};
