//! `cqp-server` — a zero-dependency personalization serving layer.
//!
//! The paper evaluates constrained query personalization as an offline
//! pipeline: profile in, personalized query out. This crate puts that
//! pipeline behind a socket, which is where its *constrained* framing
//! earns its keep — a serving deployment has exactly the resources the
//! paper's Table 1 constrains (execution cost, result size, personalization
//! depth), plus two of its own: concurrency and time.
//!
//! Layers, bottom up:
//!
//! * [`http`] — a minimal HTTP/1.1 codec over `std::net` (no TLS, no
//!   chunking), with hard head/body limits and typed parse errors.
//! * [`json`] — a bounded recursive-descent parser producing the same
//!   [`Json`](cqp_obs::Json) tree `cqp-obs` renders, so the server reads
//!   and writes one JSON dialect.
//! * [`canon`] — SQL template canonicalization, so spelling variants of
//!   one query land on one answer-cache family.
//! * [`session`] — the sharded, versioned profile store; profiles arrive
//!   via the `# cqp-profile v1` wire format and live across requests.
//! * [`admission`] — bounded-queue admission control: predictable 429/503
//!   shedding instead of unbounded queueing.
//! * [`server`] — the router and request lifecycle, mapping HTTP requests
//!   onto [`BatchDriver::submit`](cqp_core::prelude::BatchDriver) with
//!   per-request deadlines ([`Budget`](cqp_core::prelude::Budget)).
//! * [`wal`] — the append-only, checksummed write-ahead log that makes
//!   the session store survive crashes (torn tails healed on replay).
//! * [`repl`] — synchronous WAL shipping to a follower replica, with
//!   follower roles and `POST /admin/promote` failover (the WAL record
//!   format doubles as the replication wire format).
//! * [`telemetry`] — per-server trace identity and sampling, trace
//!   retention (ring + slow-query log), SLO time series, and the labeled
//!   request counters behind the Prometheus `/metrics` endpoint.
//!
//! The seeded clients that put this crate under load (closed loop, open
//! loop and chaos) live outside it, in `cqp_bench::load`.
//!
//! Everything is `std`-only, same as the rest of the workspace.

pub mod admission;
pub mod canon;
pub mod http;
pub mod json;
pub(crate) mod reactor;
pub mod repl;
pub mod server;
pub mod session;
pub mod telemetry;
pub mod wal;

pub use admission::{AdmissionController, AdmissionError, Permit};
pub use canon::{canonicalize_sql, template_hash};
pub use repl::{Repl, Role};
pub use server::{start, Backend, ServerConfig, ServerHandle, ServerState};
pub use session::{SessionStore, StoredProfile, UpsertMode, WriteListener};
pub use telemetry::{Telemetry, DEADLINE_REMAINING_HEADER, TRACE_ID_HEADER};
pub use wal::{OpenedWal, PutRecord, RecoveryReport, Wal};
