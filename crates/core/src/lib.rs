//! # cqp-core
//!
//! **Constrained Query Personalization (CQP)** — a reproduction of Koutrika
//! & Ioannidis, *"Constrained Optimalities in Query Personalization"*,
//! SIGMOD 2005.
//!
//! Query personalization enhances a query `Q` with a subset `Px` of the
//! preferences `P` extracted from the user's profile. Each candidate
//! `Qx = Q ∧ Px` carries three parameters — degree of interest, execution
//! cost, and result size — and CQP is the family of optimization problems
//! that optimize one of them under range constraints on the others
//! (paper Table 1, here [`problem::ProblemSpec`]).
//!
//! The paper maps CQP onto a state-space search: states are subsets of `P`
//! represented as ordered index sets over a rank vector (`C` by cost, `D`
//! by doi, `S` by size), and [`transitions`] (`Horizontal`, `Vertical`,
//! `Horizontal2`) move between states with *known* monotone effects on the
//! parameters. The [`algorithms`] module implements the paper's five search
//! algorithms plus an exhaustive oracle, a branch-and-bound exact solver,
//! and the generic baselines (simulated annealing, tabu, genetic) the
//! Related Work section contrasts with.
//!
//! ## Quick start
//!
//! ```
//! use cqp_core::prelude::*;
//! use cqp_prefspace::{PrefParams, PreferenceSpace};
//! use cqp_prefs::{ConjModel, Doi};
//!
//! // A synthetic preference space: (doi, cost-in-blocks, size factor).
//! let space = PreferenceSpace::synthetic(
//!     vec![
//!         PrefParams { doi: Doi::new(0.8), cost_blocks: 120, size_factor: 0.5 },
//!         PrefParams { doi: Doi::new(0.7), cost_blocks: 80, size_factor: 0.6 },
//!         PrefParams { doi: Doi::new(0.5), cost_blocks: 60, size_factor: 0.7 },
//!     ],
//!     1000.0, // base query result size
//!     0,      // base query cost
//! );
//!
//! // Problem 2: maximize doi subject to cost <= 185 blocks.
//! let solution = solve_p2(&space, ConjModel::NoisyOr, 185, Algorithm::CBoundaries);
//! assert!(solution.cost_blocks <= 185);
//! assert!(solution.doi.value() > 0.0);
//! ```

pub mod algorithms;
pub mod answer_cache;
pub mod batch;
pub mod breaker;
pub mod budget;
pub mod construct;
pub mod context;
pub mod cost_cache;
pub mod error;
pub mod instrument;
pub mod params;
pub mod problem;
pub mod solver;
pub mod spaces;
pub mod state;
pub mod transitions;

/// Convenient re-exports for typical users.
pub mod prelude {
    pub use crate::algorithms::general::solve as general_solve;
    pub use crate::algorithms::pareto::{pareto_frontier, ParetoPoint};
    pub use crate::algorithms::{solve_p2, solve_p2_recorded, Algorithm, Solution};
    pub use crate::answer_cache::{
        AnswerCache, CacheCounters, FamilyKey, Lookup, VariantKey, PROFILE_SCOPE_SEP,
    };
    pub use crate::batch::{
        BatchDriver, BatchItemResult, BatchRequest, CacheRequest, CacheTier, RetryPolicy,
    };
    pub use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
    pub use crate::budget::{Budget, CancelToken, DegradeReason, DegradedInfo};
    pub use crate::context::{Connection, Device, Intent, PolicyConfig, SearchContext};
    pub use crate::cost_cache::{EvictionPolicy, SharedCostCache};
    pub use crate::error::CqpError;
    pub use crate::instrument::Instrument;
    pub use crate::params::QueryParams;
    pub use crate::problem::{Constraints, Objective, ProblemKind, ProblemSpec};
    pub use crate::solver::{CqpSystem, PersonalizationOutcome, SolverConfig};
    pub use crate::state::State;
}

pub use prelude::*;
