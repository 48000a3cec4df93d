//! cqp-cluster — the distributed tier: a consistent-hash router over
//! WAL-shipping shard groups.
//!
//! One shard group = a primary `cqp-server` plus a follower joined by
//! the synchronous replication stream (`cqp_server::repl`): the primary
//! acknowledges a profile write only after the follower has applied it,
//! so killing a primary loses no acknowledged write. The router
//! ([`start_router`]) places users on groups with a consistent-hash
//! [`Ring`], sends writes to primaries (no retry — failover instead),
//! and routes reads *divergently*: each canonical SQL template class is
//! pinned to one replica so that replica's answer/cost caches stay warm
//! for it, instead of every replica paying every cold miss.
//!
//! Five layers:
//!
//! * [`ring`] — placement (balance + minimal movement, property-tested).
//! * [`router`] — the HTTP front door: routing, failover, health
//!   probes, epoch fencing.
//! * [`harness`] — an in-process N-group cluster for the cluster and
//!   partition suites, optionally with every link fronted by a nemesis
//!   proxy.
//! * [`nemesis`] — a deterministic, seeded TCP fault injector
//!   (partition / delay / connection-drop) for partition testing.
//! * [`checker`] — the acked-write consistency checker that decides
//!   whether a partition schedule lost or diverged any acknowledged
//!   write.
//!
//! The `routerd` binary wraps [`start_router`] for real multi-process
//! deployments (see `serverd --repl-listen/--follow` for the replicas).

pub mod checker;
pub mod harness;
pub mod nemesis;
pub mod ring;
pub mod router;

pub use checker::{check, AckLog, AckedWrite, ConsistencyReport, ReplicaDump};
pub use harness::{Cluster, ClusterConfig, ClusterGroup, GroupNemesis};
pub use nemesis::{start_nemesis, Fault, NemesisCounters, NemesisHandle, NemesisPlan, PlanStep};
pub use ring::{key_point, Ring, DEFAULT_VNODES};
pub use router::{start_router, Router, RouterConfig, RouterHandle, RoutingPolicy, ShardSpec};
