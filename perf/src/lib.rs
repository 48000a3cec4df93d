//! `cqp-perf` — the repository benchmark.
//!
//! Two measurements of the same seeded request streams:
//!
//! * [`run`] boots the serving stack in-process (servers, router,
//!   replication, WAL, answer cache) and drives one workload over real
//!   sockets with a closed loop of [`workload::CLIENTS`] clients, then
//!   audits the answers. It prints the end-to-end metrics.
//! * [`trace`] replays the same streams in-process through each layer's
//!   public functions, timing every call in spans this crate owns, and
//!   prints the per-layer metrics.
//!
//! [`spread`] compares repeated runs against the bounds in
//! `BENCHMARK.json`; [`metrics`] holds the metric tables the binary prints.

pub mod audit;
pub mod client;
pub mod metrics;
pub mod provenance;
pub mod run;
pub mod spread;
pub mod stack;
pub mod stats;
pub mod trace;
pub mod workload;
