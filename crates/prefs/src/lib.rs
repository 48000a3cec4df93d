//! # cqp-prefs
//!
//! The user preference model of the CQP paper (Section 3), adopted from
//! Koutrika & Ioannidis, *Personalization of Queries in Database Systems*
//! (ICDE 2004):
//!
//! * a **personalization graph** extending the database schema graph with
//!   value nodes, selection edges and (directed) join edges, each carrying a
//!   degree of interest ([`graph`]),
//! * **atomic preferences** (single edges) and **implicit preferences**
//!   (acyclic paths) whose doi composes via a non-increasing function `f⊗`
//!   (Formula 1/2; multiplication in the experiments, Formula 9), and
//! * **conjunctions of preferences** whose doi composes via `r`
//!   (Formula 3/4; `1 − Π(1−doi)` in the experiments, Formula 10)
//!   ([`doi`]),
//! * user **profiles** ([`profile`]) and the *syntactic relatedness* test
//!   that selects which profile preferences apply to a query ([`related`]).
//!
//! ```
//! use cqp_prefs::{ConjModel, Doi, PathCompose, Profile};
//! use cqp_storage::{Catalog, DataType, RelationSchema};
//!
//! let mut catalog = Catalog::new();
//! catalog.add_relation(RelationSchema::new(
//!     "MOVIE",
//!     vec![("mid", DataType::Int), ("title", DataType::Str), ("did", DataType::Int)],
//! )).unwrap();
//! catalog.add_relation(RelationSchema::new(
//!     "DIRECTOR",
//!     vec![("did", DataType::Int), ("name", DataType::Str)],
//! )).unwrap();
//!
//! // The paper's Figure 1, by hand:
//! let mut profile = Profile::new("al");
//! profile.add_join(&catalog, "MOVIE", "did", "DIRECTOR", "did", Doi::new(1.0)).unwrap();
//! profile.add_selection(&catalog, "DIRECTOR", "name", "W. Allen", Doi::new(0.8)).unwrap();
//! assert_eq!(profile.num_preferences(), 2);
//!
//! // f⊗ (Formula 9): the implicit path has doi 1.0 × 0.8 = 0.8.
//! let path = PathCompose::Product.compose(&[Doi::new(1.0), Doi::new(0.8)]);
//! assert_eq!(path, Doi::new(0.8));
//!
//! // r (Formula 10): two satisfied preferences combine by noisy-or.
//! let conj = ConjModel::NoisyOr.conj(&[Doi::new(0.8), Doi::new(0.45)]);
//! assert!((conj.value() - 0.89).abs() < 1e-12);
//! ```

pub mod doi;
pub mod graph;
pub mod io;
pub mod preference;
pub mod profile;
pub mod related;

pub use doi::{ConjModel, Doi, PathCompose};
pub use graph::{JoinEdge, PersonalizationGraph, SelectionEdge};
pub use io::{from_text, to_text, ProfileParseError};
pub use preference::{Condition, Preference};
pub use profile::Profile;
pub use related::related_to_query;
