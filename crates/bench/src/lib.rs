//! # cqp-bench
//!
//! The experiment harness for the CQP reproduction: builds the synthetic
//! IMDb-like workloads, runs every experiment of the paper's Section 7, and
//! emits the same rows/series the paper's tables and figures report.
//!
//! * [`harness`] — workload construction (database, profiles, queries) and
//!   preference-space extraction at a given `K`.
//! * [`experiments`] — one function per table/figure (12a–15, Table 1) plus
//!   the ablations DESIGN.md lists; the Figure 12–14 sweeps share one
//!   pool-backed cell loop, and every row type renders its own CSV line.
//! * [`csvout`] — the one CSV writer: a header plus those lines, to
//!   `<name>.csv`.
//! * [`load`] — seeded closed-loop, open-loop and chaos clients that drive
//!   a `cqp-server` over real sockets (the cluster and tracing
//!   experiments, `cqp-shell`'s `\serve` and the socket suites).
//!
//! The `reproduce` binary drives everything:
//!
//! ```text
//! cargo run --release -p cqp-bench --bin reproduce -- all
//! cargo run --release -p cqp-bench --bin reproduce -- fig12a --scale tiny --threads 4
//! ```

pub mod csvout;
pub mod experiments;
pub mod harness;
pub mod load;

pub use harness::{build_workload, Scale, Workload};
