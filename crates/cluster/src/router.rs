//! The consistent-hash router: one HTTP front door for N shard groups.
//!
//! Each shard group is a primary/follower `cqp-server` pair joined by the
//! synchronous WAL replication stream (`cqp_server::repl`). The router
//! owns three decisions per request:
//!
//! * **Placement** — the user named by the request lands on a group via
//!   the consistent-hash [`Ring`], so every process (router, bench,
//!   tests) agrees on who owns which session.
//! * **Write routing** — profile mutations go to the group's current
//!   primary, always over a *fresh* connection and **never retried**: a
//!   failed forward may or may not have been applied, and retrying would
//!   risk applying an acknowledged write twice. The client gets a 503 and
//!   the router fails the group over (promote a live follower via
//!   `POST /admin/promote`) so the *next* write succeeds.
//! * **Read routing** — `/personalize` is CPU- and cache-bound, and both
//!   replicas of a group hold the same sessions, so reads can go to
//!   either. Under [`RoutingPolicy::Divergent`] the router classifies the
//!   request by its canonical SQL template ([`canonicalize_sql`]) and
//!   pins each template class to one replica: the replica's answer and
//!   cost caches stay warm for *its* templates instead of every replica
//!   paying cold misses for every template. [`RoutingPolicy::Uniform`]
//!   alternates replicas and is kept as the control arm the bench
//!   compares against. Reads retry once on the other replica, which is
//!   safe (reads are idempotent) and is what masks a replica death until
//!   the health probe notices.
//!
//! A background probe thread polls `/healthz/ready` on every replica and
//! proactively fails over groups whose primary died, so a SIGKILLed
//! primary is replaced within one probe interval even on an idle cluster.
//!
//! The proxy itself is deliberately plain: thread-per-connection,
//! blocking sockets, the same HTTP/1.1 codec the server uses
//! ([`cqp_server::http`]), with per-client-connection keep-alive reuse of
//! backend connections for reads.

use crate::ring::Ring;
use cqp_core::answer_cache::{fnv1a, FNV_OFFSET};
use cqp_obs::Json;
use cqp_server::http::{parse_request, parse_response, ClientResponse, HttpError, Request};
use cqp_server::{canonicalize_sql, json};
use rand::splitmix64_mix;
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How a group's replicas share read traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Pin each canonical SQL template class to one replica so its answer
    /// and cost caches stay warm for that class.
    Divergent,
    /// Alternate replicas per read — the control arm: every replica sees
    /// every template and pays every cold miss.
    Uniform,
}

impl RoutingPolicy {
    /// Parses a policy name (`divergent` / `uniform`).
    pub fn parse(s: &str) -> Option<RoutingPolicy> {
        match s {
            "divergent" => Some(RoutingPolicy::Divergent),
            "uniform" => Some(RoutingPolicy::Uniform),
            _ => None,
        }
    }

    /// The wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            RoutingPolicy::Divergent => "divergent",
            RoutingPolicy::Uniform => "uniform",
        }
    }
}

/// One shard group as the operator describes it: a name and its replica
/// addresses. `replicas[0]` is the initial primary.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Group name — a point source on the ring; renaming a group moves
    /// its keys.
    pub name: String,
    /// Replica serving addresses; index 0 starts as primary.
    pub replicas: Vec<SocketAddr>,
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`127.0.0.1:0` = ephemeral).
    pub addr: String,
    /// The shard groups to route across (at least one, each with at
    /// least one replica).
    pub shards: Vec<ShardSpec>,
    /// Read-routing policy.
    pub policy: RoutingPolicy,
    /// Health-probe period; also bounds how long a dead primary can go
    /// unnoticed on an idle cluster.
    pub probe_interval: Duration,
    /// Backend connect timeout (probes, promotes, forwards).
    pub connect_timeout: Duration,
    /// Per-group read-retry budget, in whole retries. Each sibling retry
    /// costs one token; each retry-free successful read refunds a tenth
    /// of one. When the bucket runs dry the router sheds with 503 +
    /// `Retry-After` instead of hammering a sick group into a storm.
    pub retry_budget: u64,
    /// Seed for the jittered retry backoff (deterministic per seed).
    pub retry_seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: Vec::new(),
            policy: RoutingPolicy::Divergent,
            probe_interval: Duration::from_millis(250),
            connect_timeout: Duration::from_secs(1),
            retry_budget: 32,
            retry_seed: 7,
        }
    }
}

/// Replica roles as the probe last saw them (`u8` values for the
/// `Replica::role` atomic).
const ROLE_PRIMARY: u8 = 0;
const ROLE_FOLLOWER: u8 = 1;
const ROLE_FENCED: u8 = 2;
const ROLE_UNKNOWN: u8 = 3;

/// One read-retry costs a full token; a retry-free success refunds a
/// tenth. Milli-token accounting keeps it all in one atomic.
const RETRY_COST_MILLIS: i64 = 1000;
const RETRY_REFILL_MILLIS: i64 = 100;

/// Live view of one replica.
#[derive(Debug)]
struct Replica {
    addr: SocketAddr,
    /// Updated by the probe thread and by forward failures.
    alive: AtomicBool,
    /// Role the probe last parsed from `/healthz/ready` (`ROLE_*`).
    role: std::sync::atomic::AtomicU8,
    /// Epoch the replica last reported.
    epoch: AtomicU64,
}

/// Live view of one shard group.
#[derive(Debug)]
struct Group {
    name: String,
    replicas: Vec<Replica>,
    /// Index of the current primary in `replicas`.
    primary: AtomicUsize,
    /// Uniform-policy read rotation counter.
    reads: AtomicU64,
    /// Highest replication epoch seen anywhere in the group. Stamped on
    /// every proxied write and every probe — the fencing signal.
    epoch: AtomicU64,
    /// Read-retry budget, milli-tokens (see `RETRY_COST_MILLIS`).
    retry_millis: std::sync::atomic::AtomicI64,
    /// Retry sequence number feeding the jittered backoff.
    retry_seq: AtomicU64,
    /// Serializes failover so concurrent write failures promote once.
    failover: Mutex<()>,
}

impl Group {
    /// Takes one retry token from the bucket; `false` when dry.
    fn try_charge_retry(&self) -> bool {
        let prev = self
            .retry_millis
            .fetch_sub(RETRY_COST_MILLIS, Ordering::Relaxed);
        if prev < RETRY_COST_MILLIS {
            self.retry_millis
                .fetch_add(RETRY_COST_MILLIS, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Refunds a tenth of a token after a retry-free successful read,
    /// capped at the configured budget.
    fn refill_retry(&self, cap_millis: i64) {
        let prev = self
            .retry_millis
            .fetch_add(RETRY_REFILL_MILLIS, Ordering::Relaxed);
        if prev + RETRY_REFILL_MILLIS > cap_millis {
            self.retry_millis
                .fetch_sub(RETRY_REFILL_MILLIS, Ordering::Relaxed);
        }
    }
}

/// Monotonic router counters (all `Ordering::Relaxed`; they are
/// diagnostics, not synchronization).
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Requests successfully relayed to a backend.
    pub forwarded: AtomicU64,
    /// Profile mutations routed to a primary.
    pub writes: AtomicU64,
    /// Personalize/profile reads routed to a replica.
    pub reads: AtomicU64,
    /// Promotions performed (probe- or write-failure-triggered).
    pub failovers: AtomicU64,
    /// Reads that needed the second replica.
    pub read_retries: AtomicU64,
    /// Requests answered locally with an error (no primary, bad body…).
    pub rejected: AtomicU64,
    /// Reads shed because the group's retry budget ran dry.
    pub retry_budget_exhausted: AtomicU64,
    /// Replicas observed fenced (stale-epoch ex-primaries) by the probe.
    pub fenced: AtomicU64,
}

/// The routing core shared by the accept loop, the probe thread, and
/// every connection handler.
#[derive(Debug)]
pub struct Router {
    ring: Ring,
    groups: Vec<Group>,
    policy: RoutingPolicy,
    stats: RouterStats,
    connect_timeout: Duration,
    /// Retry-budget cap in milli-tokens (`retry_budget * 1000`).
    retry_cap_millis: i64,
    /// Seed for the jittered retry backoff.
    retry_seed: u64,
    stopping: AtomicBool,
}

/// A running router: bound address plus its threads.
#[derive(Debug)]
pub struct RouterHandle {
    addr: SocketAddr,
    router: Arc<Router>,
    accept: Option<JoinHandle<()>>,
    probe: Option<JoinHandle<()>>,
}

/// Starts a router over `config.shards`. Returns once the listener is
/// bound; replicas may still be booting (the probe marks them live).
pub fn start_router(config: RouterConfig) -> io::Result<RouterHandle> {
    if config.shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "router needs at least one shard group",
        ));
    }
    let mut groups = Vec::with_capacity(config.shards.len());
    for spec in &config.shards {
        if spec.replicas.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard group {:?} has no replicas", spec.name),
            ));
        }
        groups.push(Group {
            name: spec.name.clone(),
            replicas: spec
                .replicas
                .iter()
                .map(|&addr| Replica {
                    addr,
                    // Optimistic: traffic can flow before the first probe
                    // round; a dead replica is demoted on first contact.
                    alive: AtomicBool::new(true),
                    role: std::sync::atomic::AtomicU8::new(ROLE_UNKNOWN),
                    epoch: AtomicU64::new(0),
                })
                .collect(),
            primary: AtomicUsize::new(0),
            reads: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            retry_millis: std::sync::atomic::AtomicI64::new(
                config.retry_budget as i64 * RETRY_COST_MILLIS,
            ),
            retry_seq: AtomicU64::new(0),
            failover: Mutex::new(()),
        });
    }
    let names: Vec<&str> = groups.iter().map(|g| g.name.as_str()).collect();
    let router = Arc::new(Router {
        ring: Ring::with_groups(&names),
        groups,
        policy: config.policy,
        stats: RouterStats::default(),
        connect_timeout: config.connect_timeout,
        retry_cap_millis: config.retry_budget as i64 * RETRY_COST_MILLIS,
        retry_seed: config.retry_seed,
        stopping: AtomicBool::new(false),
    });

    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    let accept = {
        let router = Arc::clone(&router);
        thread::Builder::new()
            .name("router-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if router.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let router = Arc::clone(&router);
                    let _ = thread::Builder::new()
                        .name("router-conn".into())
                        .spawn(move || handle_connection(&router, stream));
                }
            })?
    };
    let probe = {
        let router = Arc::clone(&router);
        let interval = config.probe_interval;
        thread::Builder::new()
            .name("router-probe".into())
            .spawn(move || {
                while !router.stopping.load(Ordering::SeqCst) {
                    router.probe_once();
                    thread::sleep(interval);
                }
            })?
    };

    Ok(RouterHandle {
        addr,
        router,
        accept: Some(accept),
        probe: Some(probe),
    })
}

impl RouterHandle {
    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared routing core (stats, topology).
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Stops the router: accept loop unblocked and joined, probe thread
    /// joined. In-flight connection handlers finish on their own.
    pub fn stop(&mut self) {
        if self.router.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.probe.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Router {
    /// The read-routing policy in force.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Counter snapshot: `(forwarded, writes, reads, failovers,
    /// read_retries, rejected, retry_budget_exhausted, fenced)`.
    #[allow(clippy::type_complexity)]
    pub fn stats(&self) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
        let s = &self.stats;
        (
            s.forwarded.load(Ordering::Relaxed),
            s.writes.load(Ordering::Relaxed),
            s.reads.load(Ordering::Relaxed),
            s.failovers.load(Ordering::Relaxed),
            s.read_retries.load(Ordering::Relaxed),
            s.rejected.load(Ordering::Relaxed),
            s.retry_budget_exhausted.load(Ordering::Relaxed),
            s.fenced.load(Ordering::Relaxed),
        )
    }

    /// The group owning `user` (placement is total once groups exist).
    fn group_for(&self, user: &str) -> &Group {
        let name = self
            .ring
            .place(user)
            .expect("router has at least one group");
        self.groups
            .iter()
            .find(|g| g.name == name)
            .expect("ring names mirror group names")
    }

    /// One probe round: refresh every replica's liveness, role, and
    /// epoch; resolve dual-primary splits by crowning the highest-epoch
    /// claimant at a strictly higher epoch (the loser self-fences on its
    /// next heartbeat); then fail over any group whose primary is down.
    fn probe_once(&self) {
        for group in &self.groups {
            for replica in &group.replicas {
                let group_epoch = group.epoch.load(Ordering::SeqCst);
                match probe_replica(replica.addr, group_epoch, self.connect_timeout) {
                    Some((role, epoch)) => {
                        replica.alive.store(true, Ordering::SeqCst);
                        replica.role.store(role, Ordering::SeqCst);
                        replica.epoch.store(epoch, Ordering::SeqCst);
                        group.epoch.fetch_max(epoch, Ordering::SeqCst);
                    }
                    None => replica.alive.store(false, Ordering::SeqCst),
                }
            }
            self.resolve_primaries(group);
            self.ensure_primary(group);
        }
    }

    /// Reconciles the probe's role view with `group.primary`. One live
    /// claimant: adopt it. Two or more (split-brain — e.g. an isolated
    /// primary healed after a follower was promoted): pick the
    /// highest-epoch claimant (lowest index breaks ties) and re-promote
    /// it at a *strictly higher* epoch, so every other claimant observes
    /// a newer epoch on its next heartbeat and self-demotes to fenced.
    fn resolve_primaries(&self, group: &Group) {
        let claimants: Vec<usize> = group
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.alive.load(Ordering::SeqCst) && r.role.load(Ordering::SeqCst) == ROLE_PRIMARY
            })
            .map(|(i, _)| i)
            .collect();
        match claimants.len() {
            0 => {}
            1 => {
                group.primary.store(claimants[0], Ordering::SeqCst);
            }
            _ => {
                let _guard = group.failover.lock().unwrap();
                let winner = *claimants
                    .iter()
                    .max_by_key(|&&i| {
                        (
                            group.replicas[i].epoch.load(Ordering::SeqCst),
                            std::cmp::Reverse(i),
                        )
                    })
                    .expect("claimants is non-empty");
                let target = group.epoch.load(Ordering::SeqCst) + 1;
                if let Some(epoch) = promote(
                    group.replicas[winner].addr,
                    self.connect_timeout,
                    Some(target),
                ) {
                    group.primary.store(winner, Ordering::SeqCst);
                    group.epoch.fetch_max(epoch, Ordering::SeqCst);
                    group.replicas[winner].epoch.store(epoch, Ordering::SeqCst);
                    self.stats
                        .fenced
                        .fetch_add(claimants.len() as u64 - 1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Returns the index of a live primary for `group`, promoting a live
    /// follower when the current primary is down. Promotion targets a
    /// strictly higher epoch than anything the group has seen, so the
    /// dead primary — should it come back — is fenced, not trusted.
    /// `None` when the whole group is unreachable.
    fn ensure_primary(&self, group: &Group) -> Option<usize> {
        let current = group.primary.load(Ordering::SeqCst);
        if group.replicas[current].alive.load(Ordering::SeqCst) {
            return Some(current);
        }
        // Serialize promotion; re-check under the lock so racing writers
        // perform (and count) one failover, not two.
        let _guard = group.failover.lock().unwrap();
        let current = group.primary.load(Ordering::SeqCst);
        if group.replicas[current].alive.load(Ordering::SeqCst) {
            return Some(current);
        }
        for (i, replica) in group.replicas.iter().enumerate() {
            if i == current || !replica.alive.load(Ordering::SeqCst) {
                continue;
            }
            // A fenced replica is permanently stale (there is no
            // re-sync); promoting it would resurrect pre-partition data.
            if replica.role.load(Ordering::SeqCst) == ROLE_FENCED {
                continue;
            }
            let target = group.epoch.load(Ordering::SeqCst) + 1;
            if let Some(epoch) = promote(replica.addr, self.connect_timeout, Some(target)) {
                group.primary.store(i, Ordering::SeqCst);
                replica.role.store(ROLE_PRIMARY, Ordering::SeqCst);
                replica.epoch.store(epoch, Ordering::SeqCst);
                group.epoch.fetch_max(epoch, Ordering::SeqCst);
                self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                return Some(i);
            }
            replica.alive.store(false, Ordering::SeqCst);
        }
        None
    }

    /// Routes one request, producing the response to relay.
    fn route(&self, req: &Request, backends: &mut BackendPool) -> ClientResponse {
        let segments = req.segments();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz", "live"]) => local_json(
                200,
                Json::obj(vec![
                    ("status", Json::from("live")),
                    ("component", Json::from("router")),
                ]),
            ),
            ("GET", ["router", "stats"]) => local_json(200, self.stats_json()),
            (_, ["profiles", user, ..]) => {
                let user = user.to_string();
                if req.method == "GET" {
                    self.route_profile_read(req, &user, backends)
                } else {
                    self.route_write(req, &user)
                }
            }
            ("POST", ["personalize"]) => self.route_personalize(req, backends),
            _ => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                local_error(
                    404,
                    "not_routable",
                    "the router forwards /profiles/{user} and /personalize; \
                     per-replica endpoints (/metrics, /debug) are reached directly",
                )
            }
        }
    }

    /// Profile mutation: current primary only, fresh connection, never
    /// retried — a failed forward may have been applied, and the
    /// replication ack ledger (not the router) defines durability.
    fn route_write(&self, req: &Request, user: &str) -> ClientResponse {
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        let group = self.group_for(user);
        let Some(primary) = self.ensure_primary(group) else {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return local_error(
                503,
                "no_primary",
                format!("no live replica in group {:?}", group.name),
            );
        };
        let replica = &group.replicas[primary];
        // Stamp the group's fencing epoch on the proxied write: a
        // deposed primary that never heard about the failover sees a
        // newer epoch in the header and self-demotes instead of
        // accepting a doomed write. Client-supplied values are stripped
        // so nobody outside the router can spoof the fencing signal.
        let mut req = req.clone();
        req.headers.retain(|(name, _)| name != "x-cqp-epoch");
        req.headers.push((
            "x-cqp-epoch".into(),
            group.epoch.load(Ordering::SeqCst).to_string(),
        ));
        match forward_fresh(replica.addr, &req, self.connect_timeout) {
            Ok(resp) => {
                self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                resp
            }
            Err(_) => {
                // Demote and fail over eagerly; the client retries the
                // *request* (it got a 503), the router never does.
                replica.alive.store(false, Ordering::SeqCst);
                self.ensure_primary(group);
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                local_error(
                    503,
                    "write_forward_failed",
                    "primary unreachable; failover triggered, retry the write",
                )
            }
        }
    }

    /// Profile read: primary preferred (read-your-writes), follower as
    /// fallback when the primary is down.
    fn route_profile_read(
        &self,
        req: &Request,
        user: &str,
        backends: &mut BackendPool,
    ) -> ClientResponse {
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        let group = self.group_for(user);
        let preferred = group.primary.load(Ordering::SeqCst);
        self.forward_read(req, group, preferred, backends)
    }

    /// Personalize: group by the `user` in the body, replica by policy.
    fn route_personalize(&self, req: &Request, backends: &mut BackendPool) -> ClientResponse {
        let Some((user, sql)) = personalize_fields(&req.body) else {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return local_error(
                400,
                "bad_route_body",
                "`user` and `sql` (strings) are required to route /personalize",
            );
        };
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        let group = self.group_for(&user);
        let preferred = match self.policy {
            // The template class, not the literal SQL: two queries that
            // differ only in constants share a canonical form, land on
            // the same replica, and hit its warm caches.
            RoutingPolicy::Divergent => {
                let class = fnv1a(FNV_OFFSET, canonicalize_sql(&sql).as_bytes());
                (class as usize) % group.replicas.len()
            }
            RoutingPolicy::Uniform => {
                (group.reads.fetch_add(1, Ordering::Relaxed) as usize) % group.replicas.len()
            }
        };
        self.forward_read(req, group, preferred, backends)
    }

    /// Tries `preferred` first (when alive), then each other live
    /// replica once. Reads are idempotent, so replica-level retry is
    /// safe — but each retry draws on the group's token bucket, with a
    /// short seeded-jittered backoff first, so a sick group sheds load
    /// (503 + `Retry-After`) instead of amplifying it into a storm.
    /// Fenced replicas never serve reads: they stopped receiving the
    /// replication stream at the moment they were deposed and are
    /// permanently stale.
    fn forward_read(
        &self,
        req: &Request,
        group: &Group,
        preferred: usize,
        backends: &mut BackendPool,
    ) -> ClientResponse {
        let n = group.replicas.len();
        let mut attempted = false;
        for offset in 0..n {
            let i = (preferred + offset) % n;
            let replica = &group.replicas[i];
            if !replica.alive.load(Ordering::SeqCst)
                || replica.role.load(Ordering::SeqCst) == ROLE_FENCED
            {
                continue;
            }
            if attempted {
                if !group.try_charge_retry() {
                    self.stats
                        .retry_budget_exhausted
                        .fetch_add(1, Ordering::Relaxed);
                    self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    let mut resp = local_error(
                        503,
                        "retry_budget_exhausted",
                        format!(
                            "group {:?} exhausted its read-retry budget; back off",
                            group.name
                        ),
                    );
                    resp.headers.push(("retry-after".into(), "1".into()));
                    return resp;
                }
                self.stats.read_retries.fetch_add(1, Ordering::Relaxed);
                thread::sleep(Duration::from_millis(self.retry_backoff_ms(group)));
            }
            attempted = true;
            match forward_reused(backends, replica.addr, req, self.connect_timeout) {
                Ok(resp) => {
                    self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                    if offset == 0 {
                        // First-try success: the group looks healthy, so
                        // slowly pay the budget back.
                        group.refill_retry(self.retry_cap_millis);
                    }
                    return resp;
                }
                Err(_) => replica.alive.store(false, Ordering::SeqCst),
            }
        }
        self.stats.rejected.fetch_add(1, Ordering::Relaxed);
        local_error(
            503,
            "no_replica",
            format!("no live replica in group {:?}", group.name),
        )
    }

    /// Deterministic jittered backoff before a sibling retry: 1–8 ms,
    /// derived from the router seed, the group name, and a per-group
    /// retry sequence number, so concurrent retries de-correlate without
    /// any wall-clock randomness.
    fn retry_backoff_ms(&self, group: &Group) -> u64 {
        let seq = group.retry_seq.fetch_add(1, Ordering::Relaxed);
        let class = fnv1a(FNV_OFFSET, group.name.as_bytes());
        let mixed =
            splitmix64_mix(self.retry_seed ^ class ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        1 + mixed % 8
    }

    /// The `/router/stats` document.
    pub fn stats_json(&self) -> Json {
        let (forwarded, writes, reads, failovers, read_retries, rejected, budget_exhausted, fenced) =
            self.stats();
        let groups: Vec<Json> = self
            .groups
            .iter()
            .map(|g| {
                let replicas: Vec<Json> = g
                    .replicas
                    .iter()
                    .map(|r| {
                        let role = match r.role.load(Ordering::SeqCst) {
                            ROLE_PRIMARY => "primary",
                            ROLE_FOLLOWER => "follower",
                            ROLE_FENCED => "fenced",
                            _ => "unknown",
                        };
                        Json::obj(vec![
                            ("addr", Json::from(r.addr.to_string())),
                            ("alive", Json::Bool(r.alive.load(Ordering::SeqCst))),
                            ("role", Json::from(role)),
                            ("epoch", Json::from(r.epoch.load(Ordering::SeqCst))),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    ("name", Json::from(g.name.as_str())),
                    (
                        "primary",
                        Json::from(g.primary.load(Ordering::SeqCst) as u64),
                    ),
                    ("epoch", Json::from(g.epoch.load(Ordering::SeqCst))),
                    (
                        "retry_budget_millis",
                        Json::Num(g.retry_millis.load(Ordering::Relaxed) as f64),
                    ),
                    ("replicas", Json::Arr(replicas)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("policy", Json::from(self.policy.as_str())),
            ("forwarded", Json::from(forwarded)),
            ("writes", Json::from(writes)),
            ("reads", Json::from(reads)),
            ("failovers", Json::from(failovers)),
            ("read_retries", Json::from(read_retries)),
            ("rejected", Json::from(rejected)),
            ("retry_budget_exhausted", Json::from(budget_exhausted)),
            ("fenced", Json::from(fenced)),
            ("groups", Json::Arr(groups)),
        ])
    }
}

/// Per-client-connection pool of keep-alive backend connections, used
/// for reads only (writes always get a fresh connection).
type BackendPool = HashMap<SocketAddr, TcpStream>;

/// One client connection: parse → route → relay, keep-alive aware.
fn handle_connection(router: &Router, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // A wedged client should not pin a router thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut backends: BackendPool = BackendPool::new();
    loop {
        let req = match parse_request(&mut reader) {
            Ok(req) => req,
            Err(HttpError::ConnectionClosed) => return,
            Err(_) => {
                let resp = local_error(400, "bad_request", "malformed HTTP request");
                let _ = write_client_response(&mut writer, &resp, false);
                return;
            }
        };
        let keep_alive = req.keep_alive;
        let resp = router.route(&req, &mut backends);
        if write_client_response(&mut writer, &resp, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Extracts the routing fields from a personalize body without
/// validating the rest (the backend owns full validation).
fn personalize_fields(body: &[u8]) -> Option<(String, String)> {
    let text = std::str::from_utf8(body).ok()?;
    let parsed = json::parse(text).ok()?;
    let user = parsed.get("user")?.as_str()?.to_string();
    let sql = parsed.get("sql")?.as_str()?.to_string();
    Some((user, sql))
}

/// `GET /healthz/ready` doubles as the fencing heartbeat: the probe
/// carries the group's epoch in `x-cqp-epoch` (a lower-epoch primary
/// self-demotes on receipt) and parses the replica's role and epoch out
/// of the readiness body. Liveness is still just "status 200" — a
/// pre-epoch backend with no role/epoch fields probes as an unknown-role
/// epoch-0 replica and everything behaves as before.
fn probe_replica(addr: SocketAddr, group_epoch: u64, timeout: Duration) -> Option<(u8, u64)> {
    let headers = [("x-cqp-epoch", group_epoch.to_string())];
    let resp = send_local_request(addr, "GET", "/healthz/ready", &headers, timeout).ok()?;
    if resp.status != 200 {
        return None;
    }
    let body = std::str::from_utf8(&resp.body)
        .ok()
        .and_then(|text| json::parse(text).ok());
    let role = body
        .as_ref()
        .and_then(|b| b.get("role"))
        .and_then(Json::as_str)
        .map(|r| match r {
            "primary" => ROLE_PRIMARY,
            "follower" => ROLE_FOLLOWER,
            "fenced" => ROLE_FENCED,
            _ => ROLE_UNKNOWN,
        })
        .unwrap_or(ROLE_UNKNOWN);
    let epoch = body
        .as_ref()
        .and_then(|b| b.get("epoch"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    Some((role, epoch))
}

/// `POST /admin/promote` — with `target`, asks the backend to take that
/// exact epoch (the backend refuses, idempotently, if it is already at
/// or past it). Success means the backend now reports itself primary;
/// returns its resulting epoch (0 for pre-epoch backends).
fn promote(addr: SocketAddr, timeout: Duration, target: Option<u64>) -> Option<u64> {
    let path = match target {
        Some(epoch) => format!("/admin/promote?epoch={epoch}"),
        None => "/admin/promote".to_string(),
    };
    let resp = send_local_request(addr, "POST", &path, &[], timeout).ok()?;
    if resp.status != 200 {
        return None;
    }
    let body = std::str::from_utf8(&resp.body)
        .ok()
        .and_then(|text| json::parse(text).ok())?;
    match body.get("role").and_then(Json::as_str) {
        Some("primary") => Some(body.get("epoch").and_then(Json::as_u64).unwrap_or(0)),
        _ => None,
    }
}

/// A one-shot router-originated request (probe, promote).
fn send_local_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, String)],
    timeout: Duration,
) -> io::Result<ClientResponse> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: cqp-router\r\ncontent-length: 0\r\n");
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("connection: close\r\n\r\n");
    writer.write_all(head.as_bytes())?;
    writer.flush()?;
    parse_response(&mut BufReader::new(stream)).map_err(http_to_io)
}

/// Forwards `req` over a fresh, immediately-closed connection (writes).
fn forward_fresh(addr: SocketAddr, req: &Request, timeout: Duration) -> io::Result<ClientResponse> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    write_backend_request(&mut writer, req, false)?;
    parse_response(&mut BufReader::new(stream)).map_err(http_to_io)
}

/// Forwards `req` over the pooled keep-alive connection to `addr`,
/// transparently replacing a stale one (reads only — a retried write
/// could double-apply).
fn forward_reused(
    backends: &mut BackendPool,
    addr: SocketAddr,
    req: &Request,
    connect_timeout: Duration,
) -> io::Result<ClientResponse> {
    let reused = backends.contains_key(&addr);
    if let Some(stream) = backends.get_mut(&addr) {
        match forward_on(stream, req) {
            Ok(resp) => return Ok(resp),
            Err(_) => {
                // Stale keep-alive (idle-timeout race); rebuild below.
                backends.remove(&addr);
            }
        }
    }
    let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    backends.insert(addr, stream);
    let stream = backends.get_mut(&addr).expect("just inserted");
    match forward_on(stream, req) {
        Ok(resp) => Ok(resp),
        Err(e) => {
            backends.remove(&addr);
            // One rebuild attempt per call: if a fresh connection also
            // failed, the replica is genuinely unreachable.
            let _ = reused;
            Err(e)
        }
    }
}

/// One request/response exchange on an established backend connection.
fn forward_on(stream: &mut TcpStream, req: &Request) -> io::Result<ClientResponse> {
    write_backend_request(stream, req, true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    parse_response(&mut reader).map_err(http_to_io)
}

/// Serializes `req` toward a backend, preserving application headers
/// (trace IDs, deadlines) and owning the hop-by-hop ones.
fn write_backend_request<W: Write>(
    writer: &mut W,
    req: &Request,
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "{} {} HTTP/1.1\r\nhost: cqp-router\r\ncontent-length: {}\r\nconnection: {}\r\n",
        req.method,
        req.path,
        req.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &req.headers {
        if matches!(name.as_str(), "host" | "content-length" | "connection") {
            continue;
        }
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(&req.body);
    writer.write_all(&out)?;
    writer.flush()
}

/// Relays a backend (or locally built) response to the client. The
/// router owns the hop-by-hop headers; everything else passes through.
fn write_client_response<W: Write>(
    writer: &mut W,
    resp: &ClientResponse,
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, reason(resp.status));
    for (name, value) in &resp.headers {
        if matches!(name.as_str(), "content-length" | "connection") {
            continue;
        }
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!(
        "content-length: {}\r\nconnection: {}\r\n\r\n",
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    ));
    let mut out = head.into_bytes();
    out.extend_from_slice(&resp.body);
    writer.write_all(&out)?;
    writer.flush()
}

/// Standard reason phrases for the statuses the router relays.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// A locally generated JSON response.
fn local_json(status: u16, body: Json) -> ClientResponse {
    ClientResponse {
        status,
        headers: vec![("content-type".into(), "application/json".into())],
        body: body.render().into_bytes(),
    }
}

/// A locally generated error in the backend's `ApiError` wire shape,
/// `{"error": {"code", "message"}}`.
fn local_error(status: u16, code: &'static str, message: impl Into<String>) -> ClientResponse {
    local_json(
        status,
        Json::obj(vec![(
            "error",
            Json::obj(vec![
                ("code", Json::from(code)),
                ("message", Json::from(message.into())),
            ]),
        )]),
    )
}

fn http_to_io(e: HttpError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}
