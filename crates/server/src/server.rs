//! The HTTP front-end: routing, request validation, and lifecycle.
//!
//! One accept loop, one thread per connection (bounded in practice by the
//! admission gate: connections are cheap, *solver slots* are the scarce
//! resource). Every handler failure maps to a typed JSON error — the
//! personalization pipeline's own taxonomy ([`CqpError`]) decides between
//! 4xx and 5xx, and malformed requests can never surface as a 500.
//!
//! ## Lifecycle
//!
//! The server moves through three phases: **live** (accepting and
//! serving), **draining** (socket closed to new connections, in-flight
//! requests finishing, new work answered `503 + Connection: close`), and
//! **stopped**. [`ServerHandle::shutdown`] drives the transition: flip to
//! draining, join the accept loop, give handlers a drain deadline to
//! finish, then sever and join the stragglers — every handler thread is
//! *joined*, never detached-and-abandoned, so nothing outlives the handle.
//!
//! ## Hostile-client defenses
//!
//! Each connection gets a read deadline (a slowloris head answers `408`),
//! a write timeout (a client that stops reading cannot wedge a handler),
//! and a request-count cap. A connection that never produces a parseable
//! request is reaped, not answered.

use crate::admission::{AdmissionController, AdmissionError};
use crate::http::{parse_request, HttpError, Request, Response};
use crate::json;
use crate::session::{SessionStore, UpsertMode};
use crate::telemetry::{Telemetry, DEADLINE_REMAINING_HEADER, TRACE_ID_HEADER};
use crate::wal::RecoveryReport;
use cqp_core::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use cqp_core::budget::Budget;
use cqp_core::prelude::*;
use cqp_engine::{execute_personalized, execute_ranked, parse_query, Matching};
use cqp_obs::prometheus::{render_registry, PromWriter, TEXT_CONTENT_TYPE};
use cqp_obs::record::span_guard;
use cqp_obs::reqtrace::{traces_to_chrome, traces_to_json, RequestRecorder, TraceId};
use cqp_obs::{Json, Recorder, Registry};
use cqp_prefs::Doi;
use cqp_storage::{Database, IoMeter};
use std::io::{BufRead, BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads wake up to re-check lifecycle and deadlines.
const POLL_MS: u64 = 25;

/// Which serving backend owns sockets and request reads.
///
/// Both backends route through the same handler, admission gate, solver
/// driver, caches, and telemetry — the `backend_differential` suite holds
/// them to bit-identical answers. The env var `CQP_SERVER_BACKEND`
/// (`threaded` | `epoll`) overrides the default, which is how CI runs
/// every socket-level suite against both without duplicating tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// One blocking handler thread per connection (the portable
    /// baseline).
    #[default]
    Threaded,
    /// A readiness-driven epoll reactor pool (Linux; C10k-capable).
    Epoll,
}

impl Backend {
    /// Stable lowercase tag for configs, reports, and `/metrics`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Backend::Threaded => "threaded",
            Backend::Epoll => "epoll",
        }
    }

    /// Parses the wire/CLI spelling.
    pub fn parse(s: &str) -> Option<Backend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "threaded" => Some(Backend::Threaded),
            "epoll" => Some(Backend::Epoll),
            _ => None,
        }
    }

    /// The backend `CQP_SERVER_BACKEND` selects, or `Threaded`.
    pub fn from_env() -> Backend {
        std::env::var("CQP_SERVER_BACKEND")
            .ok()
            .and_then(|v| Backend::parse(&v))
            .unwrap_or_default()
    }
}

/// Tunables for [`start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Which serving backend owns sockets ([`Backend::from_env`] by
    /// default, so suites and benches can flip it without code changes).
    pub backend: Backend,
    /// Reactor (event-loop) threads for the epoll backend; reactor 0
    /// additionally owns the listener.
    pub reactor_threads: usize,
    /// Resident solver-worker threads for the epoll backend. `0` sizes
    /// the pool to `max_inflight + queue_cap + 2`, so the admission gate
    /// — not the worker pool — stays the shedding bottleneck, exactly as
    /// in the thread-per-connection backend.
    pub worker_threads: usize,
    /// Most connections the epoll backend holds open at once; accepts
    /// beyond the cap are closed immediately.
    pub max_connections: usize,
    /// Concurrent personalization executions admitted.
    pub max_inflight: usize,
    /// Requests allowed to wait for an execution slot; beyond this → 429.
    pub queue_cap: usize,
    /// `Retry-After` hint on 429 responses, milliseconds.
    pub retry_after_ms: u64,
    /// Longest a queued request waits for a slot before a 503.
    pub queue_wait_ms: u64,
    /// Session-store shards.
    pub store_shards: usize,
    /// Users to pre-seed from `cqp-datagen` (0 = none).
    pub seed_users: usize,
    /// Base seed for profile seeding.
    pub seed: u64,
    /// Cost-cache eviction policy for the submit path.
    pub cache_policy: EvictionPolicy,
    /// Cost-cache total capacity (entries).
    pub cache_capacity: usize,
    /// Whether the cross-request answer cache (exact, warm and repair
    /// tiers) is enabled on the dispatch path.
    pub answer_cache: bool,
    /// Answer-cache capacity, in families (template × profile × config).
    pub answer_cache_capacity: usize,
    /// Deadline applied when a request specifies none (ms; `None` = no
    /// default deadline).
    pub default_deadline_ms: Option<u64>,
    /// How long [`ServerHandle::stop`] lets in-flight requests finish
    /// before severing their connections, milliseconds.
    pub drain_deadline_ms: u64,
    /// Longest a connection may take to deliver one complete request
    /// (also the keep-alive idle timeout). Slowloris heads answer `408`.
    pub read_timeout_ms: u64,
    /// Socket write timeout — a client that stops reading cannot hold a
    /// handler thread forever.
    pub write_timeout_ms: u64,
    /// Requests served per connection before it is closed (keep-alive
    /// recycling cap).
    pub max_requests_per_conn: usize,
    /// When set, the session store journals to a WAL in this directory
    /// and recovers from it on startup (seeding only applies to an empty
    /// recovered store).
    pub wal_dir: Option<PathBuf>,
    /// Circuit-breaker tuning for the dispatch path.
    pub breaker: BreakerConfig,
    /// Capture one request's span tree every N personalize requests
    /// (0 = tracing off, 1 = every request). A client that sends an
    /// explicit `x-cqp-trace-id` header is always captured while tracing
    /// is enabled.
    pub trace_sample_every: u64,
    /// Lock shards in the trace retention ring.
    pub trace_ring_shards: usize,
    /// Recent traces retained across all ring shards.
    pub trace_ring_capacity: usize,
    /// Worst-N requests kept in the slow-query log.
    pub slow_log_capacity: usize,
    /// Latency objective for SLO burn accounting, milliseconds.
    pub slo_objective_ms: u64,
    /// Sliding window for the request-rate and burn-ratio gauges, seconds.
    pub slo_window_secs: u64,
    /// When set, bind a replication listener here and ship the WAL to
    /// whichever follower connects (requires `wal_dir`). Port 0 picks an
    /// ephemeral port; the bound address is on [`ServerHandle::repl_addr`].
    pub repl_listen: Option<String>,
    /// When set, boot as a *follower* of the primary whose replication
    /// listener is at this address: apply its WAL stream, reject direct
    /// profile writes until promoted via `POST /admin/promote`. Requires
    /// `wal_dir` (the follower journals the stream for its own failover).
    /// Mutually exclusive with `repl_listen`.
    pub follow: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            backend: Backend::from_env(),
            reactor_threads: 2,
            worker_threads: 0,
            max_connections: 16_384,
            max_inflight: std::thread::available_parallelism().map_or(2, usize::from),
            queue_cap: 32,
            retry_after_ms: 250,
            queue_wait_ms: 1_000,
            store_shards: 8,
            seed_users: 0,
            seed: 42,
            // LRU: a serving cache lives across requests, so recency —
            // not insertion age — predicts reuse.
            cache_policy: EvictionPolicy::Lru,
            cache_capacity: cqp_core::batch::SUBMIT_CACHE_CAPACITY,
            answer_cache: true,
            answer_cache_capacity: cqp_core::answer_cache::DEFAULT_FAMILY_CAPACITY,
            default_deadline_ms: None,
            drain_deadline_ms: 5_000,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            max_requests_per_conn: 1_024,
            wal_dir: None,
            breaker: BreakerConfig::default(),
            trace_sample_every: 16,
            trace_ring_shards: 8,
            trace_ring_capacity: 256,
            slow_log_capacity: 16,
            slo_objective_ms: 250,
            slo_window_secs: 60,
            repl_listen: None,
            follow: None,
        }
    }
}

/// Lifecycle phases, stored as an atomic in [`ServerState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accepting and serving.
    Live = 0,
    /// No new work; in-flight requests finishing under the drain deadline.
    Draining = 1,
    /// All threads joined.
    Stopped = 2,
}

impl Phase {
    fn from_u8(v: u8) -> Phase {
        match v {
            0 => Phase::Live,
            1 => Phase::Draining,
            _ => Phase::Stopped,
        }
    }

    /// Stable lowercase tag for `/metrics` and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::Live => "live",
            Phase::Draining => "draining",
            Phase::Stopped => "stopped",
        }
    }
}

/// Shared server state, visible to handlers and (via the handle) tests.
#[derive(Debug)]
pub struct ServerState {
    /// The shared database.
    pub db: Arc<Database>,
    /// The solver driver (persistent LRU submit cache).
    pub driver: BatchDriver,
    /// Per-user profiles (WAL-backed when `config.wal_dir` is set).
    /// Shared with the replication apply thread on followers.
    pub store: Arc<SessionStore>,
    /// The admission gate.
    pub gate: AdmissionController,
    /// The dispatch circuit breaker (shared with the driver).
    pub breaker: Arc<CircuitBreaker>,
    /// Metrics sink: what `/metrics` exports under `cqp_`. Sampled
    /// requests forward their metrics here and keep their spans in their
    /// own trace; nothing else records spans.
    pub registry: Registry,
    /// Trace identity/sampling, retention, SLO series, labeled counters.
    pub telemetry: Telemetry,
    /// What startup recovery replayed, when the store is durable.
    pub recovery: Option<RecoveryReport>,
    /// Replication role + counters, when this process is part of a
    /// primary/follower pair (`config.repl_listen` / `config.follow`).
    pub repl: Option<Arc<crate::repl::Repl>>,
    pub(crate) config: ServerConfig,
    started: Instant,
    pub(crate) phase: AtomicU8,
    pub(crate) active_conns: AtomicUsize,
    pub(crate) drain_rejected: AtomicU64,
}

impl ServerState {
    /// The current lifecycle phase.
    pub fn phase(&self) -> Phase {
        Phase::from_u8(self.phase.load(Ordering::SeqCst))
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.active_conns.load(Ordering::SeqCst)
    }

    /// Requests answered `503 + Connection: close` during drain.
    pub fn drain_rejected(&self) -> u64 {
        self.drain_rejected.load(Ordering::Relaxed)
    }
}

/// RAII active-connection counter.
struct ConnGuard<'a>(&'a ServerState);

impl<'a> ConnGuard<'a> {
    fn new(state: &'a ServerState) -> Self {
        state.active_conns.fetch_add(1, Ordering::SeqCst);
        ConnGuard(state)
    }
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A [`Read`] wrapper that converts the socket's short poll timeout into
/// either an indefinite poll (no deadline: `WouldBlock` surfaces to the
/// caller) or a hard per-request deadline (`TimedOut` once it passes).
/// Living *below* the `BufReader` means a deadline can span many reads of
/// one request without losing buffered progress.
struct TimedStream {
    inner: TcpStream,
    deadline: Arc<Mutex<Option<Instant>>>,
}

/// The socket-level poll timeout surfaces as `WouldBlock` or `TimedOut`
/// depending on platform; treat them alike.
fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl Read for TimedStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e) if is_poll_timeout(&e) => {
                    let deadline = *self.deadline.lock().unwrap_or_else(|p| p.into_inner());
                    match deadline {
                        // No deadline set: the caller is idle-polling and
                        // wants the WouldBlock tick back.
                        None => return Err(e),
                        Some(d) if Instant::now() >= d => {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::TimedOut,
                                "read deadline exceeded",
                            ))
                        }
                        // Deadline pending: keep polling (the 25 ms socket
                        // timeout paces this loop).
                        Some(_) => {}
                    }
                }
                r => return r,
            }
        }
    }
}

/// What one graceful shutdown did.
#[derive(Debug, Clone, Copy, Default)]
pub struct DrainStats {
    /// Wall-clock the drain took, milliseconds.
    pub drain_ms: u64,
    /// Connections still busy at the deadline, severed forcibly.
    pub forced: usize,
    /// True when every handler finished inside the deadline.
    pub graceful: bool,
}

/// A running server; drains (and joins every thread) on
/// [`ServerHandle::stop`] or drop.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    backend: BackendImpl,
}

/// Backend-specific ownership inside [`ServerHandle`].
#[derive(Debug)]
enum BackendImpl {
    Threaded {
        accept_thread: Option<std::thread::JoinHandle<()>>,
        conns: ConnRegistry,
    },
    Epoll(crate::reactor::EpollHandle),
}

/// Live connections with their handler threads, pruned as they finish.
type ConnRegistry = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// Joins and removes every finished handler; returns how many remain.
fn prune_finished(conns: &ConnRegistry) -> usize {
    let mut reg = conns.lock().unwrap_or_else(|p| p.into_inner());
    let mut i = 0;
    while i < reg.len() {
        if reg[i].1.is_finished() {
            let (_, handle) = reg.swap_remove(i);
            let _ = handle.join();
        } else {
            i += 1;
        }
    }
    reg.len()
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state — the tests' window into counters and the gate.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// The bound replication-listener address, when `repl_listen` was set
    /// (resolves port 0) — where a follower's `follow` should point.
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.state.repl.as_ref().and_then(|r| r.repl_addr())
    }

    /// Graceful shutdown with the configured drain deadline. Idempotent.
    pub fn stop(&mut self) {
        let deadline = Duration::from_millis(self.state.config.drain_deadline_ms);
        self.shutdown(deadline);
    }

    /// Stops accepting, lets in-flight requests finish for up to
    /// `drain_deadline`, then severs and joins any stragglers. On return
    /// no handler thread is running. Idempotent — later calls are no-ops.
    pub fn shutdown(&mut self, drain_deadline: Duration) -> DrainStats {
        let t0 = Instant::now();
        // Retire replication threads first (idempotent): the accept loop
        // unblocks and exits, a follower's apply loop sees its stream
        // severed.
        if let Some(repl) = &self.state.repl {
            repl.stop();
        }
        if self
            .state
            .phase
            .compare_exchange(
                Phase::Live as u8,
                Phase::Draining as u8,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
        {
            // Already draining or stopped; just make sure the backend's
            // threads are gone.
            match &mut self.backend {
                BackendImpl::Threaded { accept_thread, .. } => {
                    if let Some(t) = accept_thread.take() {
                        let _ = TcpStream::connect(self.addr);
                        let _ = t.join();
                    }
                }
                BackendImpl::Epoll(h) => h.join_all(),
            }
            return DrainStats {
                drain_ms: 0,
                forced: 0,
                graceful: true,
            };
        }
        self.state.registry.set_gauge("server.phase", 1.0);
        let forced = match &mut self.backend {
            BackendImpl::Threaded {
                accept_thread,
                conns,
            } => {
                // Unblock `accept` by connecting once; the loop re-checks
                // the phase and exits.
                let _ = TcpStream::connect(self.addr);
                if let Some(t) = accept_thread.take() {
                    let _ = t.join();
                }
                // Drain: handlers finish their in-flight request, answer
                // new work with 503 + close, and exit; idle connections
                // close within one poll tick.
                let deadline = t0 + drain_deadline;
                loop {
                    if prune_finished(conns) == 0 {
                        break;
                    }
                    if Instant::now() >= deadline {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                // Sever whatever outlived the deadline, then join uncon-
                // ditionally: a severed socket errors the handler's next
                // read/write.
                prune_finished(conns);
                let stragglers: Vec<(TcpStream, JoinHandle<()>)> = {
                    let mut reg = conns.lock().unwrap_or_else(|p| p.into_inner());
                    reg.drain(..).collect()
                };
                let mut forced = 0;
                for (sock, _) in &stragglers {
                    if sock.shutdown(Shutdown::Both).is_ok() {
                        forced += 1;
                    }
                }
                for (_, handle) in stragglers {
                    let _ = handle.join();
                }
                forced
            }
            BackendImpl::Epoll(h) => h.drain(&self.state, t0 + drain_deadline),
        };
        self.state
            .phase
            .store(Phase::Stopped as u8, Ordering::SeqCst);
        self.state.registry.set_gauge("server.phase", 2.0);
        let stats = DrainStats {
            drain_ms: t0.elapsed().as_millis() as u64,
            forced,
            graceful: forced == 0,
        };
        self.state
            .registry
            .add("server.drain_forced", stats.forced as u64);
        stats
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts a server over `db` per `config`; returns once the socket is
/// bound and accepting. With `config.wal_dir` set the session store is
/// recovered from (and from then on journaled to) that directory;
/// seeding only applies when recovery produced an empty store.
pub fn start(db: Arc<Database>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let breaker = Arc::new(CircuitBreaker::new(config.breaker));
    let answer_cache = config
        .answer_cache
        .then(|| Arc::new(AnswerCache::with_capacity(config.answer_cache_capacity)));
    let mut driver = BatchDriver::new(Arc::clone(&db), 1)
        .with_submit_cache(config.cache_policy, config.cache_capacity)
        .with_breaker(Arc::clone(&breaker));
    if let Some(cache) = &answer_cache {
        driver = driver.with_answer_cache(Arc::clone(cache));
    }
    let (store, recovery) = match &config.wal_dir {
        Some(dir) => {
            let (store, report) = SessionStore::recover(config.store_shards, dir, db.catalog())?;
            (store, Some(report))
        }
        None => (SessionStore::new(config.store_shards), None),
    };
    let store = Arc::new(store);
    if let Some(cache) = &answer_cache {
        // Session writes eagerly drop every cached scope of the written
        // profile; WAL replay above deliberately did not route through
        // this hook (the cache was empty during recovery anyway).
        let cache = Arc::clone(cache);
        store.set_write_listener(Arc::new(move |user, version| {
            cache.invalidate_profile(user, version);
        }));
    }
    if config.seed_users > 0 && store.is_empty() {
        store.seed_from_datagen(db.catalog(), config.seed_users, config.seed);
    }
    let repl = match (&config.repl_listen, &config.follow) {
        (Some(_), Some(_)) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "repl_listen and follow are mutually exclusive \
                 (a promoted follower does not re-ship; chained replication is unsupported)",
            ))
        }
        (Some(listen), None) => {
            let wal = store.wal().ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "repl_listen requires wal_dir (replication ships the WAL)",
                )
            })?;
            Some(crate::repl::start_primary(listen, Arc::clone(wal))?)
        }
        (None, Some(primary)) => {
            if store.wal().is_none() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "follow requires wal_dir (the follower journals the stream)",
                ));
            }
            Some(crate::repl::start_follower(
                primary.clone(),
                Arc::clone(&store),
                db.catalog().clone(),
            )?)
        }
        (None, None) => None,
    };
    let registry = Registry::new();
    if let Some(r) = &recovery {
        registry.add("server.wal_records_recovered", r.records_replayed());
        registry.add("server.wal_torn_tail_bytes", r.torn_tail_bytes);
    }
    let telemetry = Telemetry::new(
        config.trace_sample_every,
        config.trace_ring_shards,
        config.trace_ring_capacity,
        config.slow_log_capacity,
        config.slo_window_secs,
        config.slo_objective_ms,
    );
    let state = Arc::new(ServerState {
        gate: AdmissionController::new(
            config.max_inflight,
            config.queue_cap,
            config.retry_after_ms,
        ),
        driver,
        store,
        breaker,
        registry,
        telemetry,
        recovery,
        repl,
        db,
        config,
        started: Instant::now(),
        phase: AtomicU8::new(Phase::Live as u8),
        active_conns: AtomicUsize::new(0),
        drain_rejected: AtomicU64::new(0),
    });
    if state.config.backend == Backend::Epoll {
        let handle = crate::reactor::EpollHandle::start(listener, Arc::clone(&state))?;
        return Ok(ServerHandle {
            addr,
            state,
            backend: BackendImpl::Epoll(handle),
        });
    }

    let conns: ConnRegistry = Arc::new(Mutex::new(Vec::new()));

    let accept_state = Arc::clone(&state);
    let accept_conns = Arc::clone(&conns);
    let accept_thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_state.phase() != Phase::Live {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let _ = stream.set_nodelay(true);
            let clone = match stream.try_clone() {
                Ok(c) => c,
                Err(_) => continue,
            };
            let state = Arc::clone(&accept_state);
            let handle = std::thread::spawn(move || serve_connection(stream, &state));
            // Register the handler so shutdown can join it; pruning here
            // keeps the registry proportional to *live* connections.
            let mut reg = accept_conns.lock().unwrap_or_else(|p| p.into_inner());
            let mut i = 0;
            while i < reg.len() {
                if reg[i].1.is_finished() {
                    let (_, h) = reg.swap_remove(i);
                    let _ = h.join();
                } else {
                    i += 1;
                }
            }
            reg.push((clone, handle));
        }
    });

    Ok(ServerHandle {
        addr,
        state,
        backend: BackendImpl::Threaded {
            accept_thread: Some(accept_thread),
            conns,
        },
    })
}

/// Closes the connection for real when the handler exits.
struct SocketCloser(TcpStream);

impl Drop for SocketCloser {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// Outcome of waiting for the next request's first byte.
enum IdleWait {
    /// Bytes are buffered; parse them.
    RequestArriving,
    /// Close the connection (EOF, drain, idle timeout, stop, or error).
    Close,
}

/// Keep-alive request loop over one connection, hardened against
/// hostile clients: per-request read deadline, write timeout, request
/// cap, and drain awareness.
fn serve_connection(stream: TcpStream, state: &ServerState) {
    let _guard = ConnGuard::new(state);
    // The short socket timeout is the poll tick every blocking read
    // wakes on; TimedStream turns it into per-request deadlines.
    if stream
        .set_read_timeout(Some(Duration::from_millis(POLL_MS)))
        .is_err()
    {
        return;
    }
    let _ = stream.set_write_timeout(Some(Duration::from_millis(
        state.config.write_timeout_ms.max(1),
    )));
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    // The drain registry holds a cloned fd for this connection, so the
    // handler's own streams dropping would not send FIN — `shutdown`
    // reaches the socket itself, past every clone. Without it, a
    // finished connection looks open to the peer until the next prune.
    let _closer = match write_half.try_clone() {
        Ok(s) => SocketCloser(s),
        Err(_) => return,
    };
    let deadline = Arc::new(Mutex::new(None));
    let mut reader = BufReader::new(TimedStream {
        inner: stream,
        deadline: Arc::clone(&deadline),
    });
    let set_deadline = |d: Option<Instant>| {
        *deadline.lock().unwrap_or_else(|p| p.into_inner()) = d;
    };
    let mut served = 0usize;
    loop {
        match wait_for_request(&mut reader, state) {
            IdleWait::Close => return,
            IdleWait::RequestArriving => {}
        }
        // A request is arriving: it must complete within the read
        // deadline, however slowly its bytes drip.
        // The request clock starts at its first buffered byte; HTTP parse
        // is the first span of a captured trace.
        let req_t0 = Instant::now();
        set_deadline(Some(
            req_t0 + Duration::from_millis(state.config.read_timeout_ms.max(1)),
        ));
        let parsed = parse_request(&mut reader);
        let parse_us = req_t0.elapsed().as_micros() as u64;
        set_deadline(None);
        served += 1;
        let (response, keep_alive) = match parsed {
            Ok(req) => handle_request(state, &req, served, req_t0, parse_us),
            Err(HttpError::ConnectionClosed) => return,
            Err(HttpError::Io(std::io::ErrorKind::TimedOut)) => {
                // The read deadline expired mid-request: a slowloris (or
                // a genuinely glacial client) — answer 408 and close.
                state.registry.add("server.read_timeouts", 1);
                (read_timeout_response(), false)
            }
            Err(HttpError::Io(_)) => return,
            Err(e) => {
                state.registry.add("server.http_errors", 1);
                (http_error_response(&e), false)
            }
        };
        if let Err(e) = response.write_to(&mut write_half, keep_alive) {
            if is_poll_timeout(&e) {
                state.registry.add("server.write_timeouts", 1);
            }
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

/// Waits (in poll ticks) until the next request's first byte is buffered,
/// the peer closes, the server drains/stops, or the idle timeout passes.
fn wait_for_request(reader: &mut BufReader<TimedStream>, state: &ServerState) -> IdleWait {
    let idle_start = Instant::now();
    let idle_limit = Duration::from_millis(state.config.read_timeout_ms.max(1));
    loop {
        match state.phase() {
            Phase::Live => {}
            // Between requests nothing is in flight: close immediately.
            Phase::Draining | Phase::Stopped => {
                // Unless bytes are already buffered — then a request is
                // arriving and deserves its 503.
                if reader.buffer().is_empty() {
                    return IdleWait::Close;
                }
                return IdleWait::RequestArriving;
            }
        }
        match reader.fill_buf() {
            Ok([]) => return IdleWait::Close, // EOF
            Ok(_) => return IdleWait::RequestArriving,
            Err(e) if is_poll_timeout(&e) => {
                if idle_start.elapsed() >= idle_limit {
                    state.registry.add("server.idle_reaped", 1);
                    return IdleWait::Close;
                }
            }
            Err(_) => return IdleWait::Close,
        }
    }
}

/// Dispatches one parsed request through the lifecycle policy both
/// backends share: drain rejection (with the health/metrics/debug
/// exemption), the keep-alive decision (client wish ∧ per-connection
/// request cap ∧ still live), and routing. `served` counts this request
/// (i.e. it is already incremented). Returns `(response, keep_alive)`.
pub(crate) fn handle_request(
    state: &ServerState,
    req: &Request,
    served: usize,
    req_t0: Instant,
    parse_us: u64,
) -> (Response, bool) {
    if state.phase() != Phase::Live
        && !matches!(
            req.segments().first(),
            Some(&"healthz") | Some(&"metrics") | Some(&"debug")
        )
    {
        // Draining: answer new work with 503 + close. Health, metrics,
        // and debug stay reachable so pollers (and an operator pulling
        // traces) see the transition.
        state.drain_rejected.fetch_add(1, Ordering::Relaxed);
        state.registry.add("server.drain_rejected", 1);
        (draining_response(), false)
    } else {
        let keep = req.keep_alive
            && served < state.config.max_requests_per_conn
            && state.phase() == Phase::Live;
        (route(state, req, req_t0, parse_us), keep)
    }
}

/// The `408` a slowloris (or genuinely glacial) request is answered with
/// when its read deadline expires.
pub(crate) fn read_timeout_response() -> Response {
    ApiError::new(
        408,
        "request_timeout",
        "request did not complete within the read deadline",
    )
    .response()
}

/// The `503 Connection: close` everything but health/metrics gets while
/// draining.
fn draining_response() -> Response {
    ApiError::new(503, "draining", "server is draining; connection closing").response()
}

/// A typed API failure: status + stable code + message, plus the
/// `Retry-After` hint 429s carry.
struct ApiError {
    status: u16,
    code: &'static str,
    message: String,
    retry_after_ms: Option<u64>,
}

impl ApiError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    fn with_retry_after_ms(mut self, ms: u64) -> ApiError {
        self.retry_after_ms = Some(ms);
        self
    }

    fn response(&self) -> Response {
        let resp = Response::json(
            self.status,
            &Json::obj(vec![(
                "error",
                Json::obj(vec![
                    ("code", Json::from(self.code)),
                    ("message", Json::from(self.message.as_str())),
                ]),
            )]),
        );
        match self.retry_after_ms {
            // Retry-After is whole seconds on the wire; round up so the
            // hint never tells a client to come back too early.
            Some(ms) => resp.with_header("retry-after", ms.div_ceil(1000).max(1).to_string()),
            None => resp,
        }
    }
}

/// Maps an HTTP parse failure onto a 4xx.
pub(crate) fn http_error_response(e: &HttpError) -> Response {
    let (status, code) = match e {
        HttpError::BodyTooLarge(_) => (413, "body_too_large"),
        HttpError::HeadTooLarge => (431, "head_too_large"),
        _ => (400, "bad_request"),
    };
    ApiError::new(status, code, e.to_string()).response()
}

/// Stable endpoint label for the `cqp_requests_total` counter family.
fn endpoint_label(segments: &[&str]) -> &'static str {
    match segments {
        ["healthz", ..] => "healthz",
        ["metrics"] => "metrics",
        ["debug", ..] => "debug",
        ["profiles", ..] => "profiles",
        ["personalize"] => "personalize",
        _ => "other",
    }
}

/// Maps a response status onto the `outcome` label vocabulary. Degraded
/// 200s are re-labeled by the personalize path, which knows.
fn outcome_for_status(status: u16) -> &'static str {
    match status {
        200..=299 => "ok",
        429 | 503 => "shed",
        _ => "error",
    }
}

/// Dispatches one parsed request. `t0` is when the request's bytes began
/// arriving; `parse_us` is how long HTTP parsing took (the first span of
/// a captured trace).
fn route(state: &ServerState, req: &Request, t0: Instant, parse_us: u64) -> Response {
    state.registry.add("server.requests", 1);
    let segments = req.segments();
    let endpoint = endpoint_label(segments.as_slice());
    let result = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Ok(healthz(state)),
        ("GET", ["healthz", "live"]) => Ok(liveness()),
        ("GET", ["healthz", "ready"]) => Ok(readiness(state, req)),
        ("GET", ["metrics"]) => Ok(metrics(state)),
        ("GET", ["debug", "traces"]) => debug_traces(state, req),
        ("GET", ["debug", "slow"]) => Ok(debug_slow(state)),
        ("POST", ["profiles", user]) => upsert_profile(state, req, user),
        ("GET", ["profiles", user]) => get_profile(state, user),
        ("POST", ["admin", "promote"]) => Ok(promote(state, req)),
        ("POST", ["personalize"]) => {
            return personalize_route(state, req, t0, parse_us);
        }
        (_, ["healthz" | "metrics"])
        | (_, ["healthz", "live" | "ready"])
        | (_, ["debug", "traces" | "slow"])
        | (_, ["admin", "promote"])
        | (_, ["profiles", _])
        | (_, ["personalize"]) => Err(ApiError::new(
            405,
            "method_not_allowed",
            "wrong method for this path",
        )),
        _ => Err(ApiError::new(
            404,
            "not_found",
            format!("no route for {}", req.path),
        )),
    };
    let response = match result {
        Ok(resp) => resp,
        Err(e) => {
            state.registry.add("server.request_errors", 1);
            e.response()
        }
    };
    state
        .telemetry
        .requests
        .inc(&[endpoint, outcome_for_status(response.status)]);
    response
}

/// What the traced personalize path learned about its request — the
/// labels and trace metadata the wrapper stamps after the handler
/// returns, whichever exit path it took.
struct PersonalizeCtx {
    outcome: &'static str,
    problem: String,
    algorithm: &'static str,
    user: String,
    deadline_ms: Option<u64>,
}

impl Default for PersonalizeCtx {
    fn default() -> Self {
        PersonalizeCtx {
            // Until the handler proves otherwise, the request is an error.
            outcome: "error",
            problem: "unknown".to_string(),
            algorithm: "unknown",
            user: String::new(),
            deadline_ms: None,
        }
    }
}

/// The traced wrapper around [`personalize`]: draws trace identity,
/// decides capture, runs the handler with the right recorder, accounts
/// the request in the SLO series and labeled counters, stamps the
/// response headers, and retains the finished trace.
fn personalize_route(state: &ServerState, req: &Request, t0: Instant, parse_us: u64) -> Response {
    let tel = &state.telemetry;
    let seq = tel.next_seq();
    let explicit = req.header(TRACE_ID_HEADER).and_then(TraceId::parse);
    let trace_id = tel.assign_id(seq, explicit);
    let capture = tel.should_capture(seq, explicit.is_some());
    let recorder = capture.then(|| RequestRecorder::new(&state.registry, t0));
    if let Some(rec) = &recorder {
        rec.record_span("parse", 0, parse_us);
    }
    let mut ctx = PersonalizeCtx::default();
    let result = {
        let rec: &dyn Recorder = match &recorder {
            Some(r) => r,
            None => &state.registry,
        };
        personalize(state, req, rec, &mut ctx)
    };
    let mut response = match result {
        Ok(resp) => resp,
        Err(e) => {
            state.registry.add("server.request_errors", 1);
            e.response()
        }
    };
    let latency_us = t0.elapsed().as_micros() as u64;
    tel.slo.observe(latency_us);
    tel.requests.inc(&["personalize", ctx.outcome]);
    tel.personalize
        .inc(&[ctx.problem.as_str(), ctx.algorithm, ctx.outcome]);
    // Every personalize response echoes the trace ID, captured or not, so
    // clients can always correlate their logs with the server's.
    response = response.with_header(TRACE_ID_HEADER, trace_id.to_string());
    if let Some(deadline_ms) = ctx.deadline_ms {
        let remaining = deadline_ms.saturating_sub(latency_us / 1_000);
        response = response.with_header(DEADLINE_REMAINING_HEADER, remaining.to_string());
    }
    if let Some(rec) = recorder {
        let meta = vec![
            ("user", ctx.user),
            ("problem", ctx.problem),
            ("algorithm", ctx.algorithm.to_string()),
            ("outcome", ctx.outcome.to_string()),
            ("status", response.status.to_string()),
            ("latency_us", latency_us.to_string()),
        ];
        let trace = rec.finish(
            trace_id,
            seq,
            "POST /personalize".to_string(),
            tel.offset_us(t0),
            meta,
        );
        tel.retain(Arc::new(trace));
    }
    response
}

/// `GET /debug/traces` — recent traces as JSON, one trace by `?id=`, or
/// the whole ring as a Chrome trace-event document with `?format=chrome`.
fn debug_traces(state: &ServerState, req: &Request) -> Result<Response, ApiError> {
    let tel = &state.telemetry;
    if let Some(raw) = req.query_param("id") {
        let id = TraceId::parse(raw)
            .ok_or_else(|| ApiError::new(400, "bad_trace_id", "`id` must be 1-16 hex digits"))?;
        let trace = tel.ring.find(id).ok_or_else(|| {
            ApiError::new(404, "unknown_trace", format!("no retained trace {id}"))
        })?;
        return Ok(Response::json(
            200,
            &cqp_obs::reqtrace::trace_to_json(&trace),
        ));
    }
    let n = req
        .query_param("n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(32)
        .min(1024);
    let traces = tel.ring.recent(n);
    if req.query_param("format") == Some("chrome") {
        return Ok(Response::json(200, &traces_to_chrome(&traces)));
    }
    let (pushed, evicted) = tel.ring.counters();
    Ok(Response::json(
        200,
        &Json::obj(vec![
            ("count", Json::from(traces.len() as u64)),
            ("capacity", Json::from(tel.ring.capacity() as u64)),
            ("captured", Json::from(pushed)),
            ("evicted", Json::from(evicted)),
            ("sample_every", Json::from(tel.sample_every())),
            ("traces", traces_to_json(&traces)),
        ]),
    ))
}

/// `GET /debug/slow` — the worst-N slow-query log, slowest first, with
/// full span trees.
fn debug_slow(state: &ServerState) -> Response {
    let tel = &state.telemetry;
    let worst = tel.slow.worst();
    Response::json(
        200,
        &Json::obj(vec![
            ("count", Json::from(worst.len() as u64)),
            ("threshold_us", Json::from(tel.slow.threshold_us())),
            ("traces", traces_to_json(&worst)),
        ]),
    )
}

/// Overview endpoint: always 200, reports the lifecycle phase (`ready`
/// while live, `draining` during shutdown) alongside basic gauges.
fn healthz(state: &ServerState) -> Response {
    let status = match state.phase() {
        Phase::Live => "ready",
        Phase::Draining | Phase::Stopped => "draining",
    };
    Response::json(
        200,
        &Json::obj(vec![
            ("status", Json::from(status)),
            (
                "uptime_secs",
                Json::from(state.started.elapsed().as_secs_f64()),
            ),
            ("profiles", Json::from(state.store.len() as u64)),
            ("inflight", Json::from(state.gate.inflight() as u64)),
            (
                "active_connections",
                Json::from(state.active_connections() as u64),
            ),
            ("breaker", Json::from(state.breaker.state().as_str())),
        ]),
    )
}

/// Liveness: 200 as long as the process can answer at all.
fn liveness() -> Response {
    Response::json(200, &Json::obj(vec![("status", Json::from("live"))]))
}

/// Readiness: 200 `ready` when live and the breaker admits traffic;
/// 503 while draining or while the breaker is open, so pollers and load
/// balancers take the instance out of rotation before it stops.
fn readiness(state: &ServerState, req: &Request) -> Response {
    let draining = state.phase() != Phase::Live;
    let breaker = state.breaker.state();
    let status = if draining { "draining" } else { "ready" };
    let code = if draining || breaker == BreakerState::Open {
        503
    } else {
        200
    };
    // The probe doubles as the epoch heartbeat: a router that has seen a
    // newer epoch announces it here, which is what fences a partitioned
    // ex-primary on its first post-heal heartbeat.
    let mut epoch = 0u64;
    if let Some(repl) = &state.repl {
        if let Some(h) = req
            .header("x-cqp-epoch")
            .and_then(|v| v.trim().parse::<u64>().ok())
        {
            repl.observe_epoch(h);
        }
        epoch = repl.epoch();
    }
    // Followers are *ready* (they serve reads); the role field tells the
    // router which replica may take writes.
    let role = state
        .repl
        .as_ref()
        .map_or("standalone", |r| r.role().as_str());
    Response::json(
        code,
        &Json::obj(vec![
            ("status", Json::from(status)),
            ("breaker", Json::from(breaker.as_str())),
            ("role", Json::from(role)),
            ("epoch", Json::from(epoch)),
        ]),
    )
}

/// `GET /metrics` — Prometheus text exposition (format 0.0.4).
///
/// Three layers share the document: hand-named serving-tier families
/// (`cqp_admission_*`, `cqp_wal_*`, `cqp_slo_*`, …), the labeled request
/// counters from [`Telemetry`], and the whole metrics [`Registry`]
/// mangled under `cqp_` (`server.latency_us` → `cqp_server_latency_us`,
/// a full histogram family). The name sets are disjoint by construction:
/// registry paths all start with a subsystem segment (`server.`,
/// `batch.`, `solver.`…), while hand-named families never reuse those
/// prefixes after `cqp_`.
fn metrics(state: &ServerState) -> Response {
    let mut w = PromWriter::new();
    let (admitted, rejected, timed_out) = state.gate.counters();
    w.counter(
        "cqp_admission_admitted_total",
        "Requests granted an execution slot.",
        admitted,
    );
    w.counter(
        "cqp_admission_rejected_total",
        "Requests shed because slots and queue were full (429).",
        rejected,
    );
    w.counter(
        "cqp_admission_queue_timeouts_total",
        "Queued requests whose deadline passed before a slot freed (503).",
        timed_out,
    );
    w.gauge(
        "cqp_admission_queue_depth",
        "Requests currently waiting for an execution slot.",
        state.gate.queue_depth() as f64,
    );
    w.gauge(
        "cqp_admission_inflight",
        "Requests currently executing the personalization pipeline.",
        state.gate.inflight() as f64,
    );
    w.gauge(
        "cqp_connections_active",
        "Connections currently being served.",
        state.active_connections() as f64,
    );
    w.counter(
        "cqp_drain_rejected_total",
        "Requests answered 503 + close while draining.",
        state.drain_rejected(),
    );
    w.gauge(
        "cqp_phase",
        "Lifecycle phase: 0 live, 1 draining, 2 stopped.",
        state.phase() as u8 as f64,
    );
    w.gauge(
        "cqp_profiles",
        "User profiles resident in the session store.",
        state.store.len() as f64,
    );
    let (upserts, lookups, misses) = state.store.counters();
    w.counter("cqp_profile_upserts_total", "Profile writes.", upserts);
    w.counter("cqp_profile_lookups_total", "Profile reads.", lookups);
    w.counter(
        "cqp_profile_misses_total",
        "Profile reads for unknown users.",
        misses,
    );
    let (cache_hits, cache_misses, cache_evictions) = state.driver.submit_cache_counters();
    w.family(
        "cqp_cache_events_total",
        "Submit cost-cache events by kind.",
        "counter",
    );
    w.sample(
        "cqp_cache_events_total",
        &[("kind", "hit")],
        cache_hits as f64,
    );
    w.sample(
        "cqp_cache_events_total",
        &[("kind", "miss")],
        cache_misses as f64,
    );
    w.sample(
        "cqp_cache_events_total",
        &[("kind", "eviction")],
        cache_evictions as f64,
    );
    w.family(
        "cqp_cache_policy",
        "Active submit-cache eviction policy (info-style, value is 1).",
        "gauge",
    );
    w.sample(
        "cqp_cache_policy",
        &[("policy", state.driver_cache_policy())],
        1.0,
    );
    if let Some(cache) = state.driver.answer_cache() {
        let c = cache.counters();
        w.family(
            "cqp_answer_cache_hits_total",
            "Answer-cache hits by reuse tier.",
            "counter",
        );
        w.sample(
            "cqp_answer_cache_hits_total",
            &[("tier", "exact")],
            c.hits_exact as f64,
        );
        w.sample(
            "cqp_answer_cache_hits_total",
            &[("tier", "warm")],
            c.hits_warm as f64,
        );
        w.sample(
            "cqp_answer_cache_hits_total",
            &[("tier", "repair")],
            c.hits_repair as f64,
        );
        w.counter(
            "cqp_answer_cache_misses_total",
            "Answer-cache lookups that found nothing reusable.",
            c.misses,
        );
        w.counter(
            "cqp_answer_cache_invalidations_total",
            "Cached answers dropped by session-write invalidation.",
            c.invalidations,
        );
        w.gauge(
            "cqp_answer_cache_entries",
            "Answers currently cached across all families.",
            cache.entries() as f64,
        );
    }
    w.counter(
        "cqp_submit_panics_total",
        "Solver panics caught by the dispatch supervisor.",
        state.driver.submit_panics(),
    );
    w.counter(
        "cqp_submit_retries_total",
        "Dispatch retries after a caught panic.",
        state.driver.submit_retries(),
    );
    let (br_opened, br_half, br_closed, br_shed) = state.breaker.counters();
    w.gauge(
        "cqp_breaker_state",
        "Circuit breaker: 0 closed, 1 half-open, 2 open.",
        state.breaker.state().gauge(),
    );
    w.family(
        "cqp_breaker_transitions_total",
        "Circuit-breaker transitions by target state.",
        "counter",
    );
    w.sample(
        "cqp_breaker_transitions_total",
        &[("to", "open")],
        br_opened as f64,
    );
    w.sample(
        "cqp_breaker_transitions_total",
        &[("to", "half_open")],
        br_half as f64,
    );
    w.sample(
        "cqp_breaker_transitions_total",
        &[("to", "closed")],
        br_closed as f64,
    );
    w.counter(
        "cqp_breaker_shed_total",
        "Requests shed while the breaker was open.",
        br_shed,
    );
    if let Some(wal) = state.store.wal() {
        let (appends, append_errors, bytes_appended, compactions) = wal.counters();
        w.counter("cqp_wal_appends_total", "WAL records appended.", appends);
        w.counter(
            "cqp_wal_append_errors_total",
            "WAL append failures.",
            append_errors,
        );
        w.counter(
            "cqp_wal_bytes_appended_total",
            "Bytes appended to the WAL.",
            bytes_appended,
        );
        w.counter(
            "cqp_wal_compactions_total",
            "WAL snapshot compactions.",
            compactions,
        );
        w.gauge(
            "cqp_wal_bytes_since_compaction",
            "Live WAL log size: bytes appended since the last compaction.",
            wal.bytes_since_compaction() as f64,
        );
        if let Some(r) = &state.recovery {
            w.gauge(
                "cqp_wal_records_recovered",
                "Records replayed by startup recovery.",
                r.records_replayed() as f64,
            );
            w.gauge(
                "cqp_wal_torn_tail_bytes",
                "Bytes discarded from a torn WAL tail at recovery.",
                r.torn_tail_bytes as f64,
            );
        }
    }
    if let Some(repl) = &state.repl {
        let (shipped, received, failovers) = repl.counters();
        let (fenced_writes, fenced_frames) = repl.fenced_counters();
        w.gauge(
            "cqp_repl_role",
            "Replication role: 0 primary, 1 follower, 2 fenced.",
            repl.role() as u8 as f64,
        );
        w.gauge(
            "cqp_repl_epoch",
            "Replication epoch this replica speaks (monotone; bumped by promotion).",
            repl.epoch() as f64,
        );
        w.counter(
            "cqp_repl_fenced_writes_total",
            "Profile writes refused with stale_epoch (fenced replica or epoch mismatch).",
            fenced_writes,
        );
        w.counter(
            "cqp_repl_fenced_frames_total",
            "Replication frames refused because the stream's epoch fell behind.",
            fenced_frames,
        );
        w.gauge(
            "cqp_repl_lag_records",
            "Frames written to the follower socket but not yet acked.",
            repl.lag_records() as f64,
        );
        w.counter(
            "cqp_repl_shipped_total",
            "WAL frames shipped to and acked by a follower.",
            shipped,
        );
        w.counter(
            "cqp_repl_received_total",
            "WAL frames applied from the primary's stream.",
            received,
        );
        w.counter(
            "cqp_repl_failovers_total",
            "Follower-to-primary promotions.",
            failovers,
        );
    }
    // SLO: windowed rate and burn over per-second buckets.
    let tel = &state.telemetry;
    let slo = tel.slo.snapshot();
    w.gauge(
        "cqp_slo_objective_us",
        "Configured latency objective, microseconds.",
        slo.objective_us as f64,
    );
    w.gauge(
        "cqp_slo_window_seconds",
        "Sliding window the rate/burn gauges cover.",
        slo.window_secs as f64,
    );
    w.gauge(
        "cqp_request_rate_per_sec",
        "Personalize request rate over the SLO window.",
        slo.rate_per_sec,
    );
    w.gauge(
        "cqp_slo_burn_ratio",
        "Fraction of windowed requests over the latency objective.",
        slo.burn_ratio,
    );
    w.gauge(
        "cqp_slo_window_requests",
        "Personalize requests inside the SLO window.",
        slo.requests as f64,
    );
    w.gauge(
        "cqp_slo_window_over_objective",
        "Windowed requests that exceeded the latency objective.",
        slo.over_objective as f64,
    );
    // Tracing retention.
    let (pushed, evicted) = tel.ring.counters();
    w.gauge(
        "cqp_traces_retained",
        "Traces currently held in the retention ring.",
        tel.ring.len() as f64,
    );
    w.counter("cqp_traces_captured_total", "Traces captured.", pushed);
    w.counter(
        "cqp_traces_evicted_total",
        "Traces evicted from the retention ring.",
        evicted,
    );
    w.gauge(
        "cqp_slow_log_threshold_us",
        "Latency a request must exceed to enter the full slow-query log.",
        tel.slow.threshold_us() as f64,
    );
    tel.requests.render(&mut w);
    tel.personalize.render(&mut w);
    // Everything the solver/engine recorded into the registry, under `cqp_`.
    render_registry(&state.registry, "cqp_", &mut w);
    Response::text_with_type(200, w.finish(), TEXT_CONTENT_TYPE)
}

impl ServerState {
    fn driver_cache_policy(&self) -> &'static str {
        self.config.cache_policy.name()
    }
}

/// `POST /admin/promote` — promotes this replica to primary at a higher
/// epoch (failover/fencing). An optional `?epoch=N` query names the
/// target epoch: promotion succeeds only if `N` is strictly above the
/// replica's own, so a router racing two promotions at the same target
/// crowns exactly one winner. Without a target, a follower (or fenced
/// replica) advances to `own + 1`; a primary is a no-op. Always 200 with
/// the resulting role and epoch, so the router can fire it blind.
fn promote(state: &ServerState, req: &Request) -> Response {
    let target = req
        .query_param("epoch")
        .and_then(|v| v.trim().parse::<u64>().ok());
    let (promoted, role, epoch, failovers) = match &state.repl {
        Some(repl) => {
            let outcome = repl.promote_to(target);
            (
                outcome.promoted,
                repl.role().as_str(),
                outcome.epoch,
                repl.counters().2,
            )
        }
        None => (false, "primary", 0, 0),
    };
    Response::json(
        200,
        &Json::obj(vec![
            ("promoted", Json::Bool(promoted)),
            ("role", Json::from(role)),
            ("epoch", Json::from(epoch)),
            ("failovers", Json::from(failovers)),
        ]),
    )
}

fn upsert_profile(state: &ServerState, req: &Request, user: &str) -> Result<Response, ApiError> {
    if let Some(repl) = &state.repl {
        let header_epoch = req
            .header("x-cqp-epoch")
            .and_then(|v| v.trim().parse::<u64>().ok());
        match repl.gate_write(header_epoch) {
            crate::repl::WriteGate::Allow => {}
            crate::repl::WriteGate::NotPrimary => {
                // Followers apply the primary's stream only: accepting a
                // direct write here would fork the version chain the
                // primary is still extending. 503 (not 4xx) — the router
                // retries the write against the primary, or promotes us
                // first.
                return Err(ApiError::new(
                    503,
                    "not_primary",
                    "this replica is a follower; write to the primary or promote it",
                ));
            }
            crate::repl::WriteGate::StaleEpoch { own } => {
                // Either we are fenced (a newer primary exists) or the
                // write was routed under a superseded epoch. Refusing is
                // what keeps split-brain one-sided: the old primary never
                // extends its version chain past the fence.
                return Err(ApiError::new(
                    503,
                    "stale_epoch",
                    format!(
                        "write refused at epoch {own}: a newer primary epoch exists \
                         (this replica is {})",
                        repl.role().as_str()
                    ),
                ));
            }
        }
    }
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::new(400, "bad_encoding", "profile body must be utf-8"))?;
    let mode = if req.query_param("merge") == Some("true") {
        UpsertMode::Merge
    } else {
        UpsertMode::Replace
    };
    let (version, preferences) = state
        .store
        .upsert_text(user, text, state.db.catalog(), mode)
        .map_err(|e| ApiError::new(400, "bad_profile", e.to_string()))?;
    state.registry.add("server.profile_upserts", 1);
    let epoch = state.repl.as_ref().map_or(0, |r| r.epoch());
    Ok(Response::json(
        200,
        &Json::obj(vec![
            ("user", Json::from(user)),
            ("version", Json::from(version)),
            ("preferences", Json::from(preferences as u64)),
            ("epoch", Json::from(epoch)),
        ]),
    ))
}

fn get_profile(state: &ServerState, user: &str) -> Result<Response, ApiError> {
    match state.store.render_text(user, state.db.catalog()) {
        Some(text) => Ok(Response::text(200, text)),
        None => Err(ApiError::new(
            404,
            "unknown_user",
            format!("no profile for {user:?}"),
        )),
    }
}

/// Parsed personalize-request parameters.
struct PersonalizeParams {
    user: String,
    query: cqp_engine::ConjunctiveQuery,
    /// Answer-cache template identity: canonicalized SQL chained with the
    /// parsed query ([`crate::canon::template_hash`]).
    template_hash: u64,
    problem: ProblemSpec,
    algorithm: Algorithm,
    top_k: Option<usize>,
    deadline_ms: Option<u64>,
    want_rows: bool,
    rank_min_match: Option<usize>,
}

/// Validates the request body; every failure is a 4xx.
fn parse_personalize(state: &ServerState, req: &Request) -> Result<PersonalizeParams, ApiError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::new(400, "bad_encoding", "body must be utf-8"))?;
    let body = json::parse(text).map_err(|e| ApiError::new(400, "bad_json", e.to_string()))?;
    let user = body
        .get("user")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::new(400, "missing_field", "`user` (string) is required"))?
        .to_string();
    let sql = body
        .get("sql")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::new(400, "missing_field", "`sql` (string) is required"))?;
    let query = parse_query(sql, state.db.catalog())
        .map_err(|e| ApiError::new(400, "bad_query", e.to_string()))?;
    let template_hash = crate::canon::template_hash(sql, &query);
    let problem =
        parse_problem(body.get("problem").ok_or_else(|| {
            ApiError::new(400, "missing_field", "`problem` (object) is required")
        })?)?;
    let algorithm = match body.get("algorithm") {
        None => SolverConfig::default().algorithm,
        Some(a) => a
            .as_str()
            .and_then(Algorithm::by_name)
            .ok_or_else(|| ApiError::new(400, "bad_algorithm", "unknown algorithm"))?,
    };
    let top_k = match body.get("top_k") {
        None => None,
        Some(k) => Some(k.as_u64().ok_or_else(|| {
            ApiError::new(400, "bad_top_k", "`top_k` must be a non-negative integer")
        })? as usize),
    };
    // The header wins over the body field (operators can cap a deployment
    // at the proxy without touching clients).
    let deadline_ms = match (req.header("x-cqp-deadline-ms"), body.get("deadline_ms")) {
        (Some(h), _) => Some(h.parse::<u64>().map_err(|_| {
            ApiError::new(400, "bad_deadline", "x-cqp-deadline-ms must be an integer")
        })?),
        (None, Some(d)) => Some(d.as_u64().ok_or_else(|| {
            ApiError::new(
                400,
                "bad_deadline",
                "`deadline_ms` must be a non-negative integer",
            )
        })?),
        (None, None) => state.config.default_deadline_ms,
    };
    let want_rows = body.get("rows").and_then(Json::as_bool).unwrap_or(false);
    let rank_min_match = match body.get("rank") {
        None => None,
        Some(r) => Some(
            r.get("min_match")
                .map(|m| {
                    m.as_u64().ok_or_else(|| {
                        ApiError::new(
                            400,
                            "bad_rank",
                            "`rank.min_match` must be a non-negative integer",
                        )
                    })
                })
                .transpose()?
                .unwrap_or(1) as usize,
        ),
    };
    Ok(PersonalizeParams {
        user,
        query,
        template_hash,
        problem,
        algorithm,
        top_k,
        deadline_ms,
        want_rows,
        rank_min_match,
    })
}

/// Builds the Table 1 problem spec from `{"kind": "p2", ...}`.
fn parse_problem(spec: &Json) -> Result<ProblemSpec, ApiError> {
    let bad = |msg: &str| ApiError::new(400, "bad_problem", msg);
    let kind = spec
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("`problem.kind` (p1..p6) is required"))?;
    let num = |key: &str| -> Result<Option<f64>, ApiError> {
        match spec.get(key) {
            None => Ok(None),
            Some(v) => v.as_f64().map(Some).ok_or_else(|| {
                ApiError::new(
                    400,
                    "bad_problem",
                    format!("`problem.{key}` must be a number"),
                )
            }),
        }
    };
    let require = |key: &str| -> Result<f64, ApiError> {
        num(key)?.ok_or_else(|| {
            ApiError::new(
                400,
                "bad_problem",
                format!("`problem.{key}` is required for this kind"),
            )
        })
    };
    let doi = |v: f64| -> Result<Doi, ApiError> {
        if (0.0..=1.0).contains(&v) {
            Ok(Doi::new(v))
        } else {
            Err(bad("`problem.dmin` must be within [0, 1]"))
        }
    };
    let blocks = |v: f64| -> Result<u64, ApiError> {
        if v >= 0.0 && v.fract() == 0.0 {
            Ok(v as u64)
        } else {
            Err(bad("`problem.cmax` must be a non-negative integer"))
        }
    };
    match kind.to_ascii_lowercase().as_str() {
        "p1" => Ok(ProblemSpec::p1(require("smin")?, require("smax")?)),
        "p2" => Ok(ProblemSpec::p2(blocks(require("cmax")?)?)),
        "p3" => Ok(ProblemSpec::p3(
            blocks(require("cmax")?)?,
            require("smin")?,
            require("smax")?,
        )),
        "p4" => Ok(ProblemSpec::p4(doi(require("dmin")?)?)),
        "p5" => Ok(ProblemSpec::p5(
            doi(require("dmin")?)?,
            require("smin")?,
            require("smax")?,
        )),
        "p6" => Ok(ProblemSpec::p6(require("smin")?, require("smax")?)),
        other => Err(bad(&format!(
            "unknown problem kind {other:?} (want p1..p6)"
        ))),
    }
}

/// Maps a pipeline error onto a status: request-shaped failures are 4xx,
/// transient storage trouble is 503, and only genuine internal faults
/// (caught panics) surface as 500.
fn cqp_error_response(e: &CqpError) -> ApiError {
    let status = match e {
        CqpError::InvalidRequest(_) => 400,
        CqpError::SpaceTooLarge { .. } | CqpError::Construct(_) => 422,
        CqpError::Engine(_) | CqpError::Storage(_) => {
            if e.is_transient() {
                503
            } else {
                422
            }
        }
        CqpError::Internal(_) => 500,
        CqpError::CircuitOpen { retry_after_ms } => {
            return ApiError::new(503, e.kind(), e.to_string()).with_retry_after_ms(*retry_after_ms)
        }
    };
    ApiError::new(status, e.kind(), e.to_string())
}

/// The personalize handler proper. `rec` is either the per-request
/// [`RequestRecorder`] (sampled: the span vocabulary here — `session`,
/// `admission`, `dispatch` (inside the driver), `materialize` — lands in
/// the request's trace) or the server's [`Registry`] directly (unsampled:
/// metrics only, no spans). Metrics reach the registry either way.
/// `ctx` carries labels out to [`personalize_route`] on every exit path.
fn personalize(
    state: &ServerState,
    req: &Request,
    rec: &dyn Recorder,
    ctx: &mut PersonalizeCtx,
) -> Result<Response, ApiError> {
    let t0 = Instant::now();
    let params = parse_personalize(state, req)?;
    ctx.user.clone_from(&params.user);
    ctx.problem = params
        .problem
        .kind()
        .map_or("custom".to_string(), |k| format!("{k:?}").to_lowercase());
    ctx.algorithm = params.algorithm.wire_name();
    ctx.deadline_ms = params.deadline_ms;
    let stored = {
        let _span = span_guard(rec, "session");
        state.store.select(&params.user, params.top_k)
    }
    .ok_or_else(|| {
        ApiError::new(
            404,
            "unknown_user",
            format!("no profile for {:?}", params.user),
        )
    })?;

    // Admission: hold a permit for the whole solve + execute. The span
    // measures time spent *waiting* for a slot.
    let permit = {
        let _span = span_guard(rec, "admission");
        state
            .gate
            .admit(Duration::from_millis(state.config.queue_wait_ms))
    };
    let _permit = permit.map_err(|e| {
        ctx.outcome = "shed";
        match e {
            AdmissionError::Overloaded { retry_after_ms } => {
                state.registry.add("server.rejected", 1);
                ApiError::new(
                    429,
                    "overloaded",
                    format!("retry after {retry_after_ms} ms"),
                )
                .with_retry_after_ms(retry_after_ms)
            }
            AdmissionError::QueueTimeout => {
                state.registry.add("server.queue_timeouts", 1);
                ApiError::new(503, "queue_timeout", "no execution slot freed in time")
            }
        }
    })?;

    let mut config = SolverConfig {
        algorithm: params.algorithm,
        ..Default::default()
    };
    if let Some(ms) = params.deadline_ms {
        config.budget = Budget::with_deadline_ms(ms);
    }
    let batch_req = BatchRequest {
        query: params.query,
        profile: stored.profile,
        problem: params.problem,
        config,
    };
    // The profile key scopes the family to the personalization depth —
    // `top_k` truncates the profile, so two depths are two profiles —
    // while a session write for the user invalidates every scope at once
    // (see `AnswerCache::invalidate_profile`).
    let cache_req = CacheRequest {
        template_hash: params.template_hash,
        profile_key: match params.top_k {
            None => params.user.clone(),
            Some(k) => format!("{}{}k{k}", params.user, PROFILE_SCOPE_SEP),
        },
        profile_version: stored.version,
    };
    let (item, cache_tier) = state
        .driver
        .submit_cached_recorded(batch_req, &cache_req, rec)
        .map_err(|e| {
            state.registry.add("server.solver_errors", 1);
            let api = cqp_error_response(&e);
            if api.status == 429 || api.status == 503 {
                state.registry.add("server.unavailable", 1);
                ctx.outcome = "shed";
            }
            api
        })?;

    // Result materialization (zero simulated I/O latency: the serving
    // layer measures real wall-clock, not the paper's block model).
    let meter = IoMeter::new(0.0);
    let materialize_span = span_guard(rec, "materialize");
    let rows_json = if params.want_rows {
        let out = execute_personalized(&state.db, &item.query, &meter)
            .map_err(|e| cqp_error_response(&CqpError::from(e)))?;
        Some(Json::Arr(out.rows.iter().map(|r| row_to_json(r)).collect()))
    } else {
        None
    };
    let ranked_json = match params.rank_min_match {
        None => None,
        Some(min_match) => {
            let ranked = execute_ranked(
                &state.db,
                &item.query,
                &item.pref_dois,
                Matching::AtLeast(min_match.max(1)),
                &meter,
            )
            .map_err(|e| cqp_error_response(&CqpError::from(e)))?;
            Some(Json::Arr(
                ranked
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("doi", Json::from(r.doi)),
                            ("row", row_to_json(&r.row)),
                        ])
                    })
                    .collect(),
            ))
        }
    };
    drop(materialize_span);

    let degraded = match &item.solution.degraded {
        None => Json::Null,
        Some(d) => Json::obj(vec![
            ("reason", Json::from(d.reason.name())),
            ("states_visited", Json::from(d.states_visited)),
            ("elapsed_us", Json::from(d.elapsed.as_micros() as u64)),
        ]),
    };
    if item.solution.degraded.is_some() {
        state.registry.add("server.degraded", 1);
        ctx.outcome = "degraded";
    } else {
        ctx.outcome = "ok";
    }
    state.registry.add("server.personalized", 1);
    let latency_us = t0.elapsed().as_micros() as u64;
    state.registry.observe("server.latency_us", latency_us);

    let mut members = vec![
        ("user".to_string(), Json::from(params.user.as_str())),
        ("profile_version".to_string(), Json::from(stored.version)),
        ("problem".to_string(), Json::from(ctx.problem.as_str())),
        ("algorithm".to_string(), Json::from(params.algorithm.name())),
        ("space_k".to_string(), Json::from(item.space_k as u64)),
        (
            "solution".to_string(),
            Json::obj(vec![
                (
                    "prefs",
                    Json::Arr(
                        item.solution
                            .prefs
                            .iter()
                            .map(|&p| Json::from(p as u64))
                            .collect(),
                    ),
                ),
                ("doi", Json::from(item.solution.doi.value())),
                ("cost_blocks", Json::from(item.solution.cost_blocks)),
                ("size_rows", Json::from(item.solution.size_rows)),
                ("found", Json::Bool(item.solution.found)),
                ("degraded", degraded),
            ]),
        ),
        (
            "pref_dois".to_string(),
            Json::Arr(item.pref_dois.iter().map(|&d| Json::from(d)).collect()),
        ),
        ("sql".to_string(), Json::from(item.sql.as_str())),
        ("cache".to_string(), Json::from(cache_tier.name())),
        ("latency_us".to_string(), Json::from(latency_us)),
    ];
    if let Some(rows) = rows_json {
        members.push(("rows".to_string(), rows));
    }
    if let Some(ranked) = ranked_json {
        members.push(("ranked".to_string(), ranked));
    }
    Ok(Response::json(200, &Json::Obj(members)))
}

/// Renders a tuple as an array of display strings (stable, type-agnostic —
/// the bit-identity tests compare these exact strings).
fn row_to_json(row: &[cqp_storage::Value]) -> Json {
    Json::Arr(row.iter().map(|v| Json::from(v.to_string())).collect())
}
