//! Observability for the CQP workspace.
//!
//! All `std`-only and thread-safe (one `Obs` can be shared — by reference
//! or `Arc` — across the workers of a parallel search or a batch
//! personalization run):
//!
//! * [`metrics`] — a [`Registry`] of named monotonic counters, gauges, and
//!   log-linear histograms, with point-in-time [`Snapshot`]s. Counters and
//!   gauges are atomics; histograms sit behind a mutex.
//! * [`record`] — the [`Recorder`] trait the lower layers are written
//!   against, and the one span capture behind every recorder that keeps
//!   spans: it opens and closes spans on one stack per thread (so
//!   concurrent workers build disjoint subtrees), keeps every span
//!   occurrence, and attributes counter deltas to each. [`NoopRecorder`]
//!   drops everything; a [`Registry`] records metrics only; [`Obs`]
//!   (registry + capture behind one handle) records everything.
//! * [`trace`] — the aggregate tree: the fold of a capture's records into
//!   one node per span path (count, total time, counter deltas), rendered
//!   as a flame-style text tree for `cqp_shell`.
//! * [`reqtrace`] — *per-request* tracing: [`RequestRecorder`] exports a
//!   capture as one request's exact-timestamped span tree (forwarding
//!   metrics to a base recorder), retained in a lock-sharded [`TraceRing`]
//!   and a worst-N [`SlowLog`], exportable as JSON or Chrome trace events.
//! * [`timeseries`] — [`SloSeries`], windowed 1-second-bucket aggregation
//!   for request rates and SLO burn.
//! * [`prometheus`] — text-exposition (0.0.4) rendering of a registry plus
//!   [`CounterVec`] labeled counter families.
//!
//! [`report`] turns a finished [`Obs`] into a JSONL run-report line
//! (hand-rolled JSON encoder; no serde in this environment).

pub mod metrics;
pub mod prometheus;
pub mod record;
pub mod report;
pub mod reqtrace;
pub mod timeseries;
pub mod trace;

pub use metrics::{Histogram, HistogramSummary, Registry, Snapshot};
pub use prometheus::{CounterVec, PromWriter};
pub use record::{NoopRecorder, Obs, Recorder, SpanGuard};
pub use report::{Json, RunReport};
pub use reqtrace::{RequestRecorder, RequestTrace, SlowLog, SpanRecord, TraceId, TraceRing};
pub use timeseries::{SloSeries, SloSnapshot};
pub use trace::SpanView;
