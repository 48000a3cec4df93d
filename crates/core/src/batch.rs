//! Batch personalization: N concurrent requests over one shared database.
//!
//! The paper evaluates personalization per request; a deployed system
//! (Section 7's discussion of integration into a DBMS) faces *streams* of
//! requests from many users over the same database. [`BatchDriver`] serves
//! such a batch on a work-stealing pool ([`cqp_par::ThreadPool`]):
//!
//! * the [`Database`] and its [`DbStats`] are shared (`Arc`), analyzed
//!   once — not per request;
//! * each request runs [`CqpSystem`]'s one pipeline (preference space →
//!   search → construction) on whichever worker claims it, under a
//!   per-worker span so `\trace` output keeps one subtree per worker, then
//!   optionally executes the query with retry-on-transient-failure;
//! * the driver passes that pipeline one [`SharedCostCache`] (sharded,
//!   `Mutex`-per-shard) through which C-BOUNDARIES evaluates P2 costs, so
//!   concurrent requests over the same preference space reuse each other's
//!   work — the batch-level generalization of the paper's Section 5.2.1
//!   cost memo;
//! * per-request latencies land in a [`Histogram`], reported as
//!   p50/p95/p99 plus throughput in [`BatchStats`].
//!
//! Results are deterministic: the pool returns results in request order,
//! every algorithm is deterministic, and shared-cache hits return exactly
//! the cost a private evaluation would compute — so `threads = N` is
//! bit-identical to `threads = 1` (verified in `tests/parallel.rs`).

use crate::algorithms::Solution;
use crate::answer_cache::{AnswerCache, FamilyKey, Lookup, VariantKey};
use crate::cost_cache::{EvictionPolicy, SharedCostCache};
use crate::error::CqpError;
use crate::params::QueryParams;
use crate::problem::ProblemSpec;
use crate::solver::{CqpSystem, PersonalizationOutcome, SolverConfig, SolverError};
use cqp_engine::{execute_personalized, ConjunctiveQuery};
use cqp_obs::metrics::Histogram;
use cqp_obs::record::span_guard;
use cqp_obs::{NoopRecorder, Recorder};
use cqp_par::ThreadPool;
use cqp_prefs::Profile;
use cqp_prefspace::PreferenceSpace;
use cqp_storage::{Database, DbStats, FaultPlan, IoMeter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry behavior for transient (injected I/O) execution failures.
///
/// The default retries nothing; `backoff` doubles per attempt
/// (`backoff << attempt`), so `backoff = 0` retries immediately —
/// deterministic and fast, the right setting for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional execution attempts after the first failure.
    pub max_retries: u32,
    /// Sleep before retry `i` is `backoff * 2^i`.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// Retry up to `max_retries` times with no backoff.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            backoff: Duration::ZERO,
        }
    }
}

/// One personalization request in a batch.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// The user's base query.
    pub query: ConjunctiveQuery,
    /// The user's profile.
    pub profile: Profile,
    /// Which CQP problem to solve.
    pub problem: ProblemSpec,
    /// Per-request solver configuration (algorithm, conjunction model, …).
    pub config: SolverConfig,
}

/// The per-request output of a batch run.
#[derive(Debug, Clone)]
pub struct BatchItemResult {
    /// The search outcome.
    pub solution: Solution,
    /// The constructed personalized query `Q ∧ PU`.
    pub query: cqp_engine::PersonalizedQuery,
    /// The personalized query rendered as SQL.
    pub sql: String,
    /// `K` of the extracted preference space.
    pub space_k: usize,
    /// Dois of the selected preferences, in [`Solution::prefs`] order
    /// ([`PersonalizationOutcome::pref_dois`]).
    pub pref_dois: Vec<f64>,
    /// Wall-clock latency of this request, microseconds.
    pub latency_us: u64,
    /// Result rows when the driver executed the query
    /// ([`BatchDriver::with_execution`]); `None` when the batch stops at
    /// construction.
    pub exec_rows: Option<usize>,
    /// Execution attempts that failed transiently before this request
    /// succeeded (0 when execution is off or succeeded first try).
    pub exec_retries: u32,
}

impl BatchItemResult {
    /// The flat item for one pipeline outcome.
    fn from_outcome(
        outcome: PersonalizationOutcome,
        latency_us: u64,
        exec_rows: Option<usize>,
        exec_retries: u32,
    ) -> Self {
        BatchItemResult {
            solution: outcome.solution,
            query: outcome.query,
            sql: outcome.sql,
            space_k: outcome.space_k,
            pref_dois: outcome.pref_dois,
            latency_us,
            exec_rows,
            exec_retries,
        }
    }
}

/// Aggregate figures for one batch run.
#[derive(Debug, Clone)]
pub struct BatchStats {
    /// Requests served.
    pub requests: usize,
    /// Pool width used.
    pub threads: usize,
    /// Wall-clock for the whole batch, seconds.
    pub wall_secs: f64,
    /// Requests per second of wall-clock.
    pub requests_per_sec: f64,
    /// Latency quantiles, microseconds (bucketed; ≤ 25 % relative error).
    pub p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Shared cost-cache hits across the batch.
    pub cache_hits: u64,
    /// Shared cost-cache misses (actual evaluations).
    pub cache_misses: u64,
    /// Tasks migrated between workers by stealing.
    pub steals: u64,
    /// Execution retries across the batch (transient failures that were
    /// retried under the [`RetryPolicy`]).
    pub retries: u64,
    /// Requests whose search hit its budget and returned a degraded
    /// incumbent.
    pub degraded: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Worker panics converted to [`CqpError::Internal`] results.
    pub panics_caught: u64,
}

/// Serves batches of personalization requests over one shared database.
#[derive(Debug)]
pub struct BatchDriver {
    db: Arc<Database>,
    stats: Arc<DbStats>,
    threads: usize,
    cache_shards: usize,
    /// `Some(ms_per_block)` executes each personalized query after
    /// construction, metering its I/O.
    execution_ms_per_block: Option<f64>,
    /// Fault injection applied to execution reads (shared across the batch
    /// so its schedule is global, like a flaky disk would be).
    fault_plan: Option<Arc<FaultPlan>>,
    retry: RetryPolicy,
    /// Breaker guarding the `submit` path; `None` admits everything.
    /// Shared with the serving layer so `/metrics` and readiness can see
    /// the same state the driver sheds on.
    breaker: Option<Arc<crate::breaker::CircuitBreaker>>,
    /// The cache [`BatchDriver::submit`] routes cost evaluations through.
    /// Unlike `run`'s per-batch cache this one is *persistent*: a serving
    /// front-end submits requests one at a time over a long lifetime, and
    /// hot preference spaces should stay warm across them. LRU-bounded so
    /// the footprint cannot grow without bound.
    submit_cache: SharedCostCache,
    /// Panics caught (and converted to [`CqpError::Internal`]) on the
    /// `submit` path, across the driver's lifetime.
    submit_panics: AtomicU64,
    /// Transient-failure retries performed on the `submit` path.
    submit_retries: AtomicU64,
    /// Cross-request answer cache for `submit_cached`; `None` solves every
    /// request cold.
    answer_cache: Option<Arc<AnswerCache>>,
}

/// Cache identity of one `submit_cached` request: which template/profile
/// family it belongs to and at which profile version it must be answered.
/// The caller (the serving tier) owns canonicalization and versioning;
/// the driver trusts `profile_version` to change whenever `profile` does.
#[derive(Debug, Clone)]
pub struct CacheRequest {
    /// Hash of the canonicalized query template.
    pub template_hash: u64,
    /// Identity of the profile (the user id at the serving tier).
    pub profile_key: String,
    /// Version the profile was read at; answers cached under any other
    /// version are never served as exact/warm hits.
    pub profile_version: u64,
}

/// Which reuse tier served a `submit_cached` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Identical key: the stored answer was returned with zero search.
    Exact,
    /// Cached preference space reused; branch-and-bound seeded with a
    /// feasible cached bound where one existed.
    Warm,
    /// Profile version moved past the cached family: the space was
    /// re-extracted and searched cold, as on a miss.
    Repair,
    /// Nothing cached; full pipeline (and the result was recorded).
    Miss,
    /// The answer cache is disabled (or execution is on); full pipeline.
    Off,
}

impl CacheTier {
    /// Wire/metrics label.
    pub fn name(self) -> &'static str {
        match self {
            CacheTier::Exact => "exact",
            CacheTier::Warm => "warm",
            CacheTier::Repair => "repair",
            CacheTier::Miss => "miss",
            CacheTier::Off => "off",
        }
    }
}

/// Default total capacity of the persistent `submit` cost cache.
pub const SUBMIT_CACHE_CAPACITY: usize = 64 * 1024;

impl BatchDriver {
    /// A driver over `db` with `threads` workers; analyzes the database
    /// once, up front.
    pub fn new(db: Arc<Database>, threads: usize) -> Self {
        let stats = Arc::new(db.analyze());
        BatchDriver::with_stats(db, stats, threads)
    }

    /// [`BatchDriver::new`] with precomputed statistics.
    pub fn with_stats(db: Arc<Database>, stats: Arc<DbStats>, threads: usize) -> Self {
        let shards = crate::cost_cache::DEFAULT_SHARDS;
        BatchDriver {
            db,
            stats,
            threads: threads.max(1),
            cache_shards: shards,
            execution_ms_per_block: None,
            fault_plan: None,
            retry: RetryPolicy::default(),
            breaker: None,
            submit_cache: SharedCostCache::with_capacity_policy(
                shards,
                SUBMIT_CACHE_CAPACITY,
                EvictionPolicy::Lru,
            ),
            submit_panics: AtomicU64::new(0),
            submit_retries: AtomicU64::new(0),
            answer_cache: None,
        }
    }

    /// Installs a cross-request answer cache on the `submit_cached` path.
    pub fn with_answer_cache(mut self, cache: Arc<AnswerCache>) -> Self {
        self.answer_cache = Some(cache);
        self
    }

    /// The installed answer cache, when one exists.
    pub fn answer_cache(&self) -> Option<&Arc<AnswerCache>> {
        self.answer_cache.as_ref()
    }

    /// Replaces the persistent `submit`-path cost cache with one of
    /// `capacity` total entries under `policy`.
    pub fn with_submit_cache(mut self, policy: EvictionPolicy, capacity: usize) -> Self {
        self.submit_cache =
            SharedCostCache::with_capacity_policy(self.cache_shards, capacity, policy);
        self
    }

    /// Execute each personalized query after construction, metering I/O at
    /// `ms_per_block` simulated milliseconds per block.
    pub fn with_execution(mut self, ms_per_block: f64) -> Self {
        self.execution_ms_per_block = Some(ms_per_block);
        self
    }

    /// Inject faults into execution reads according to `plan`. The plan is
    /// shared batch-wide: its read counter advances across all requests and
    /// workers, so the fault schedule is a property of the batch, not of
    /// any one request.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Retry transient execution failures under `policy`.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Guard the `submit` path with `breaker`: requests arriving while it
    /// is open are shed as [`CqpError::CircuitOpen`] before any search
    /// work, and every admitted request's outcome (transient failure vs.
    /// anything else) feeds the breaker's failure window. Composes with
    /// the retry policy — a request only counts as a failure after its
    /// retries are exhausted.
    pub fn with_breaker(mut self, breaker: Arc<crate::breaker::CircuitBreaker>) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// The breaker guarding `submit`, when one is installed.
    pub fn breaker(&self) -> Option<&Arc<crate::breaker::CircuitBreaker>> {
        self.breaker.as_ref()
    }

    /// The worker count this driver fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Serves every request, returning per-request results **in request
    /// order** plus aggregate throughput/latency figures.
    pub fn run(
        &self,
        requests: Vec<BatchRequest>,
    ) -> (Vec<Result<BatchItemResult, SolverError>>, BatchStats) {
        self.run_recorded(requests, &NoopRecorder)
    }

    /// [`BatchDriver::run`] with observability: each request's pipeline
    /// spans nest under its worker's span (`worker00`, `worker01`, …), and
    /// the batch totals are published as `batch.*` metrics — including the
    /// latency histogram `batch.latency_us` the run report renders
    /// quantiles from.
    pub fn run_recorded(
        &self,
        requests: Vec<BatchRequest>,
        recorder: &dyn Recorder,
    ) -> (Vec<Result<BatchItemResult, SolverError>>, BatchStats) {
        let n = requests.len();
        let pool = ThreadPool::new(self.threads);
        let cache = SharedCostCache::new(self.cache_shards);
        let retries = AtomicU64::new(0);
        let panics = AtomicU64::new(0);

        let t0 = Instant::now();
        let results = pool.run(requests, |ctx, _i, req| {
            let t = Instant::now();
            let _worker = span_guard(recorder, ctx.span_name);
            // A panicking request must not take the batch down: convert it
            // to an Internal error and keep serving. The pipeline holds no
            // locks or shared mutable state across the catch boundary (the
            // cost cache recovers poisoned shards itself), so resuming is
            // sound.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.serve_one(&cache, &retries, &req, recorder, None)
                    .map(|(item, _)| item)
            }))
            .unwrap_or_else(|payload| {
                panics.fetch_add(1, Ordering::Relaxed);
                recorder.add("batch.panics_caught", 1);
                Err(CqpError::Internal(panic_message(payload.as_ref())))
            });
            let latency_us = t.elapsed().as_micros() as u64;
            recorder.observe("batch.latency_us", latency_us);
            r.map(|mut item| {
                item.latency_us = latency_us;
                item
            })
        });
        let wall_secs = t0.elapsed().as_secs_f64();

        let mut latencies = Histogram::default();
        let mut degraded = 0u64;
        let mut errors = 0u64;
        for r in &results {
            match r {
                Ok(item) => {
                    latencies.observe(item.latency_us);
                    if item.solution.degraded.is_some() {
                        degraded += 1;
                    }
                }
                Err(_) => errors += 1,
            }
        }
        let stats = BatchStats {
            requests: n,
            threads: pool.threads(),
            wall_secs,
            requests_per_sec: if wall_secs > 0.0 {
                n as f64 / wall_secs
            } else {
                0.0
            },
            p50_us: latencies.quantile(0.50),
            p95_us: latencies.quantile(0.95),
            p99_us: latencies.quantile(0.99),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            steals: pool.steals(),
            retries: retries.load(Ordering::Relaxed),
            degraded,
            errors,
            panics_caught: panics.load(Ordering::Relaxed),
        };
        recorder.add("batch.requests", n as u64);
        recorder.add("batch.cache_hits", stats.cache_hits);
        recorder.add("batch.cache_misses", stats.cache_misses);
        recorder.add("batch.steals", stats.steals);
        recorder.add("batch.degraded", stats.degraded);
        recorder.add("batch.errors", stats.errors);
        recorder.set_gauge("batch.requests_per_sec", stats.requests_per_sec);
        (results, stats)
    }
}

impl BatchDriver {
    /// Serves a single request on the calling thread — the serving
    /// front-end's path. Reuses the whole-batch resilience machinery:
    /// the request's [`Budget`](crate::budget::Budget) (deadline /
    /// state cap) bounds the search, panics are caught and converted to
    /// [`CqpError::Internal`], and transient execution failures retry
    /// under the driver's [`RetryPolicy`]. Cost evaluations flow through
    /// the driver's *persistent* submit cache (LRU by default), so a
    /// stream of requests over hot preference spaces keeps reusing work.
    pub fn submit(&self, req: BatchRequest) -> Result<BatchItemResult, SolverError> {
        self.submit_recorded(req, &NoopRecorder)
    }

    /// [`BatchDriver::submit`] with observability: pipeline spans nest
    /// under the caller's current span and the request lands in the
    /// `batch.latency_us` histogram like batch-served requests do.
    pub fn submit_recorded(
        &self,
        req: BatchRequest,
        recorder: &dyn Recorder,
    ) -> Result<BatchItemResult, SolverError> {
        // The dispatch span covers breaker gating plus pipeline execution,
        // so a per-request trace can separate "time inside the driver" from
        // the serving tier's own queueing and session work.
        let _dispatch = span_guard(recorder, "dispatch");
        self.guard(Instant::now(), recorder, || {
            self.serve_one(
                &self.submit_cache,
                &self.submit_retries,
                &req,
                recorder,
                None,
            )
            .map(|(item, _)| item)
        })
    }

    /// [`BatchDriver::submit_recorded`] through the cross-request answer
    /// cache, returning which reuse tier served the request.
    ///
    /// * **exact** — the stored answer is returned before the breaker gate
    ///   (it touches neither the search machinery nor the database, which
    ///   is what the breaker protects) with zero pipeline work;
    /// * **warm** — the cached preference space skips extraction, and a
    ///   cached solution still feasible under the new constraints bounds
    ///   the branch-and-bound search (strictly — the answer cannot change);
    /// * **repair** — the profile version moved past the cached family: the
    ///   request runs the cold pipeline, like a miss, and its result
    ///   replaces the family;
    /// * **miss** — full cold pipeline; the result seeds the cache.
    ///
    /// Falls back to the plain path (tier `off`) when no cache is installed
    /// or when execution is enabled — cached answers stop at construction,
    /// so a driver that must execute queries cannot serve them.
    pub fn submit_cached_recorded(
        &self,
        req: BatchRequest,
        cache_req: &CacheRequest,
        recorder: &dyn Recorder,
    ) -> Result<(BatchItemResult, CacheTier), SolverError> {
        let cache = match &self.answer_cache {
            Some(cache) if self.execution_ms_per_block.is_none() => cache,
            _ => {
                return self
                    .submit_recorded(req, recorder)
                    .map(|item| (item, CacheTier::Off));
            }
        };
        let _dispatch = span_guard(recorder, "dispatch");
        let key = FamilyKey::new(cache_req.template_hash, &cache_req.profile_key, &req.config);
        let variant = VariantKey::of(&req.problem);
        let t = Instant::now();
        let lookup = cache.lookup(&key, cache_req.profile_version, &variant, &req.problem);
        recorder.event(format_args!("answer cache: {}", lookup.tier()));
        let (tier, warm) = match lookup {
            Lookup::Exact(hit) => {
                let latency_us = t.elapsed().as_micros() as u64;
                recorder.observe("batch.latency_us", latency_us);
                let item = BatchItemResult::from_outcome(hit, latency_us, None, 0);
                return Ok((item, CacheTier::Exact));
            }
            Lookup::Warm { space, seed } => (CacheTier::Warm, Some((space, seed))),
            Lookup::Repair { .. } => (CacheTier::Repair, None),
            Lookup::Miss => (CacheTier::Miss, None),
        };
        self.guard(t, recorder, || {
            let (item, space) = self.serve_one(
                &self.submit_cache,
                &self.submit_retries,
                &req,
                recorder,
                warm,
            )?;
            // Seed the cache (degraded solutions are rejected inside).
            cache.insert(
                &key,
                cache_req.profile_version,
                variant,
                &space,
                PersonalizationOutcome {
                    solution: item.solution.clone(),
                    query: item.query.clone(),
                    sql: item.sql.clone(),
                    space_k: item.space_k,
                    pref_dois: item.pref_dois.clone(),
                },
            );
            Ok(item)
        })
        .map(|item| (item, tier))
    }

    /// The `submit` paths' guard around one pipeline run: sheds the request
    /// while the breaker is open, converts a panic to
    /// [`CqpError::Internal`], records `batch.latency_us` (measured from
    /// `started`) and `batch.errors`, feeds the breaker, and reports a
    /// degraded answer.
    fn guard(
        &self,
        started: Instant,
        recorder: &dyn Recorder,
        serve: impl FnOnce() -> Result<BatchItemResult, SolverError>,
    ) -> Result<BatchItemResult, SolverError> {
        if let Some(breaker) = &self.breaker {
            if let Err(retry_after_ms) = breaker.try_acquire() {
                recorder.add("batch.breaker_shed", 1);
                recorder.event(format_args!(
                    "breaker open: shed before dispatch (retry after {retry_after_ms} ms)"
                ));
                return Err(CqpError::CircuitOpen { retry_after_ms });
            }
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(serve)).unwrap_or_else(
            |payload| {
                self.submit_panics.fetch_add(1, Ordering::Relaxed);
                recorder.add("batch.panics_caught", 1);
                Err(CqpError::Internal(panic_message(payload.as_ref())))
            },
        );
        let latency_us = started.elapsed().as_micros() as u64;
        recorder.observe("batch.latency_us", latency_us);
        if r.is_err() {
            recorder.add("batch.errors", 1);
        }
        if let Some(breaker) = &self.breaker {
            // Only transient faults indict downstream health; client
            // faults and successes both count as "healthy".
            let failed_transiently = matches!(&r, Err(e) if e.is_transient());
            breaker.record(!failed_transiently, recorder);
        }
        r.map(|mut item| {
            item.latency_us = latency_us;
            if let Some(d) = &item.solution.degraded {
                recorder.add("batch.degraded", 1);
                recorder.event(format_args!(
                    "degraded: {} after {} states in {:?}",
                    d.reason.name(),
                    d.states_visited,
                    d.elapsed
                ));
            }
            item
        })
    }

    /// Panics caught on the `submit` path over the driver's lifetime.
    pub fn submit_panics(&self) -> u64 {
        self.submit_panics.load(Ordering::Relaxed)
    }

    /// Transient-failure retries performed on the `submit` path.
    pub fn submit_retries(&self) -> u64 {
        self.submit_retries.load(Ordering::Relaxed)
    }

    /// Hit/miss/eviction totals of the persistent `submit` cache.
    pub fn submit_cache_counters(&self) -> (u64, u64, u64) {
        (
            self.submit_cache.hits(),
            self.submit_cache.misses(),
            self.submit_cache.evictions(),
        )
    }
}

/// Renders a panic payload into the human-readable part of
/// [`CqpError::Internal`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".to_owned()
    }
}

impl BatchDriver {
    /// One request: [`CqpSystem`]'s pipeline (C-BOUNDARIES' P2 costs
    /// through `cache`, under the request's budget), then optional metered
    /// execution with retry-on-transient-failure. `warm` supplies a cached
    /// space (skipping extraction) and optionally a warm-start bound, which
    /// is strict: it can only shrink the branch-and-bound search, never
    /// change its answer. Returns the item and the space it was solved on;
    /// the item's `latency_us` is 0, and the caller stamps it (latency
    /// includes the catch_unwind wrapper).
    fn serve_one(
        &self,
        cache: &SharedCostCache,
        batch_retries: &AtomicU64,
        req: &BatchRequest,
        recorder: &dyn Recorder,
        warm: Option<(PreferenceSpace, Option<QueryParams>)>,
    ) -> Result<(BatchItemResult, PreferenceSpace), SolverError> {
        let _span = span_guard(recorder, "personalize");
        let system = CqpSystem::from_parts(&self.db, Arc::clone(&self.stats));
        let (outcome, space) = system.pipeline(
            &req.query,
            &req.profile,
            &req.problem,
            &req.config,
            warm,
            Some(cache),
            recorder,
        )?;

        let mut exec_rows = None;
        let mut exec_retries = 0u32;
        if let Some(ms_per_block) = self.execution_ms_per_block {
            let _s = span_guard(recorder, "execute");
            loop {
                let mut meter = IoMeter::new(ms_per_block);
                if let Some(plan) = &self.fault_plan {
                    meter = meter.with_fault_plan(Arc::clone(plan));
                }
                match execute_personalized(&self.db, &outcome.query, &meter) {
                    Ok(out) => {
                        exec_rows = Some(out.len());
                        break;
                    }
                    Err(e) => {
                        let e = CqpError::from(e);
                        if e.is_transient() {
                            recorder.add(cqp_storage::FAULTS_INJECTED_COUNTER, 1);
                        }
                        if e.is_transient() && exec_retries < self.retry.max_retries {
                            recorder.add("batch.retries", 1);
                            batch_retries.fetch_add(1, Ordering::Relaxed);
                            let backoff = self.retry.backoff * 2u32.saturating_pow(exec_retries);
                            if !backoff.is_zero() {
                                std::thread::sleep(backoff);
                            }
                            exec_retries += 1;
                            continue;
                        }
                        return Err(e);
                    }
                }
            }
        }
        let item = BatchItemResult::from_outcome(outcome, 0, exec_rows, exec_retries);
        Ok((item, space))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use cqp_engine::QueryBuilder;
    use cqp_storage::{DataType, RelationSchema, Value};

    fn movie_db() -> Database {
        let mut db = Database::with_block_capacity(4);
        db.create_relation(RelationSchema::new(
            "MOVIE",
            vec![
                ("mid", DataType::Int),
                ("title", DataType::Str),
                ("year", DataType::Int),
                ("duration", DataType::Int),
                ("did", DataType::Int),
            ],
        ))
        .unwrap();
        db.create_relation(RelationSchema::new(
            "DIRECTOR",
            vec![("did", DataType::Int), ("name", DataType::Str)],
        ))
        .unwrap();
        db.create_relation(RelationSchema::new(
            "GENRE",
            vec![("mid", DataType::Int), ("genre", DataType::Str)],
        ))
        .unwrap();
        for i in 0..40i64 {
            db.insert_into(
                "MOVIE",
                vec![
                    Value::Int(i),
                    Value::str(format!("m{i}")),
                    Value::Int(1980 + i % 20),
                    Value::Int(90),
                    Value::Int(i % 4),
                ],
            )
            .unwrap();
            db.insert_into(
                "GENRE",
                vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "musical" } else { "drama" }),
                ],
            )
            .unwrap();
        }
        for d in 0..4i64 {
            let name = if d == 0 {
                "W. Allen".to_owned()
            } else {
                format!("dir{d}")
            };
            db.insert_into("DIRECTOR", vec![Value::Int(d), Value::str(name)])
                .unwrap();
        }
        db
    }

    fn paper_requests(db: &Database, n: usize) -> Vec<BatchRequest> {
        let base = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let profile = Profile::paper_figure1(db.catalog()).unwrap();
        (0..n)
            .map(|i| BatchRequest {
                query: base.clone(),
                profile: profile.clone(),
                problem: ProblemSpec::p2(if i % 2 == 0 { 100 } else { 15 }),
                config: SolverConfig {
                    algorithm: Algorithm::PAPER[i % Algorithm::PAPER.len()],
                    ..Default::default()
                },
            })
            .collect()
    }

    #[test]
    fn batch_serves_requests_in_order_and_reports_stats() {
        let db = Arc::new(movie_db());
        let driver = BatchDriver::new(Arc::clone(&db), 2);
        let (results, stats) = driver.run(paper_requests(&db, 10));
        assert_eq!(results.len(), 10);
        assert_eq!(stats.requests, 10);
        assert!(stats.requests_per_sec > 0.0);
        assert!(stats.p50_us <= stats.p95_us && stats.p95_us <= stats.p99_us);
        for (i, r) in results.iter().enumerate() {
            let r = r.as_ref().unwrap();
            assert!(r.space_k >= 1, "request {i}");
            assert!(r.solution.cost_blocks <= if i % 2 == 0 { 100 } else { 15 });
        }
        // C-BOUNDARIES requests repeat the same space: the shared cache
        // must serve hits across requests.
        assert!(stats.cache_hits + stats.cache_misses > 0);
    }

    #[test]
    fn parallel_batch_is_bit_identical_to_sequential() {
        let db = Arc::new(movie_db());
        let reqs = paper_requests(&db, 15);
        let seq = BatchDriver::new(Arc::clone(&db), 1).run(reqs.clone()).0;
        let par = BatchDriver::new(Arc::clone(&db), 4).run(reqs).0;
        for (s, p) in seq.iter().zip(&par) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.solution.prefs, p.solution.prefs);
            assert_eq!(s.solution.doi, p.solution.doi);
            assert_eq!(s.solution.cost_blocks, p.solution.cost_blocks);
            assert_eq!(s.solution.size_rows, p.solution.size_rows);
            assert_eq!(s.sql, p.sql);
        }
    }

    #[test]
    fn submit_matches_batch_run_bit_for_bit() {
        let db = Arc::new(movie_db());
        let reqs = paper_requests(&db, 6);
        let driver = BatchDriver::new(Arc::clone(&db), 2);
        let batch = BatchDriver::new(Arc::clone(&db), 1).run(reqs.clone()).0;
        for (req, expected) in reqs.into_iter().zip(batch) {
            let expected = expected.unwrap();
            let got = driver.submit(req).unwrap();
            assert_eq!(got.solution.prefs, expected.solution.prefs);
            assert_eq!(got.solution.doi, expected.solution.doi);
            assert_eq!(got.solution.cost_blocks, expected.solution.cost_blocks);
            assert_eq!(got.sql, expected.sql);
            assert_eq!(got.pref_dois, expected.pref_dois);
            assert_eq!(got.pref_dois.len(), got.solution.prefs.len());
        }
        // The persistent submit cache saw traffic; the repeated spaces of
        // the paper workload must produce hits across submits.
        let (hits, misses, _) = driver.submit_cache_counters();
        assert!(hits + misses > 0);
        assert_eq!(driver.submit_panics(), 0);
    }

    #[test]
    fn submit_respects_deadline_budget() {
        use crate::budget::Budget;
        let db = Arc::new(movie_db());
        let driver = BatchDriver::new(Arc::clone(&db), 1);
        let mut reqs = paper_requests(&db, 1);
        let mut req = reqs.remove(0);
        req.config.budget = Budget::with_deadline_ms(0);
        let item = driver.submit(req).unwrap();
        let degraded = item.solution.degraded.expect("0 ms deadline must degrade");
        assert_eq!(degraded.reason.name(), "deadline_exceeded");
        // The incumbent is still feasible for the request's constraint.
        assert!(item.solution.cost_blocks <= 100);
    }

    #[test]
    fn breaker_trips_on_transient_failures_and_sheds_submits() {
        use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
        use cqp_storage::{FaultMode, FaultPlan};
        let db = Arc::new(movie_db());
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
            window: 4,
            failure_threshold: 0.5,
            min_samples: 2,
            cooldown_ms: 60_000,
            half_open_probes: 1,
        }));
        // Every execution read fails and retries are off: each submit is a
        // transient failure that feeds the breaker.
        let driver = BatchDriver::new(Arc::clone(&db), 1)
            .with_execution(0.0)
            .with_fault_plan(Arc::new(FaultPlan::new(7, FaultMode::FirstK { k: 1_000 })))
            .with_breaker(Arc::clone(&breaker));
        let mut shed = 0;
        for req in paper_requests(&db, 6) {
            match driver.submit(req) {
                Err(CqpError::CircuitOpen { retry_after_ms }) => {
                    assert!(retry_after_ms > 0);
                    shed += 1;
                }
                Err(e) => assert!(e.is_transient(), "unexpected error: {e}"),
                Ok(_) => panic!("every execution read is faulted"),
            }
        }
        // Two transient failures trip the breaker; the remaining submits
        // are shed without touching the database.
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(shed, 4);
        assert_eq!(breaker.counters().0, 1);

        // First-K faults with no cooldown: two failures trip the breaker,
        // each of the next two submits is a half-open probe that fails and
        // re-opens it, and the fifth probe finds the faults spent and
        // closes it.
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
            window: 8,
            failure_threshold: 0.5,
            min_samples: 2,
            cooldown_ms: 0,
            half_open_probes: 1,
        }));
        let driver = BatchDriver::new(Arc::clone(&db), 1)
            .with_execution(0.0)
            .with_fault_plan(Arc::new(FaultPlan::new(7, FaultMode::FirstK { k: 4 })))
            .with_breaker(Arc::clone(&breaker));
        let outcomes: Vec<bool> = paper_requests(&db, 5)
            .into_iter()
            .map(|req| match driver.submit(req) {
                Ok(_) => true,
                Err(e) => {
                    assert!(e.is_transient(), "unexpected error: {e}");
                    false
                }
            })
            .collect();
        assert_eq!(outcomes, [false, false, false, false, true]);
        // (opened, half-opened, closed, shed)
        assert_eq!(breaker.counters(), (3, 3, 1, 0));
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn submit_cached_walks_exact_warm_repair_tiers_bit_identically() {
        use crate::answer_cache::AnswerCache;
        use cqp_prefs::Doi;
        let db = Arc::new(movie_db());
        let cold_driver = BatchDriver::new(Arc::clone(&db), 1);
        let driver =
            BatchDriver::new(Arc::clone(&db), 1).with_answer_cache(Arc::new(AnswerCache::new()));
        let base = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let profile = Profile::paper_figure1(db.catalog()).unwrap();
        let req = |cmax: u64| BatchRequest {
            query: base.clone(),
            profile: profile.clone(),
            problem: ProblemSpec::p2(cmax),
            config: SolverConfig {
                algorithm: Algorithm::BranchBound,
                ..Default::default()
            },
        };
        let cache_req = |version: u64| CacheRequest {
            template_hash: 7,
            profile_key: "u1".into(),
            profile_version: version,
        };
        let assert_same = |a: &BatchItemResult, b: &BatchItemResult| {
            assert_eq!(a.solution.prefs, b.solution.prefs);
            assert_eq!(a.solution.doi, b.solution.doi);
            assert_eq!(a.solution.cost_blocks, b.solution.cost_blocks);
            assert_eq!(a.solution.size_rows, b.solution.size_rows);
            assert_eq!(a.sql, b.sql);
            assert_eq!(a.pref_dois, b.pref_dois);
        };

        // Cold → miss; identical key → exact, bit-identical to a cold solve.
        let (miss, t1) = driver
            .submit_cached_recorded(req(100), &cache_req(1), &NoopRecorder)
            .unwrap();
        assert_eq!(t1, CacheTier::Miss);
        let (exact, t2) = driver
            .submit_cached_recorded(req(100), &cache_req(1), &NoopRecorder)
            .unwrap();
        assert_eq!(t2, CacheTier::Exact);
        assert_same(&exact, &miss);
        let cold = cold_driver.submit(req(100)).unwrap();
        assert_same(&exact, &cold);

        // Moved budget, same version → warm; identical to a cold solve.
        let (warm, t3) = driver
            .submit_cached_recorded(req(15), &cache_req(1), &NoopRecorder)
            .unwrap();
        assert_eq!(t3, CacheTier::Warm);
        assert_same(&warm, &cold_driver.submit(req(15)).unwrap());

        // Version bump → repair; still identical to a cold solve.
        let (repair, t4) = driver
            .submit_cached_recorded(req(100), &cache_req(2), &NoopRecorder)
            .unwrap();
        assert_eq!(t4, CacheTier::Repair);
        assert_same(&repair, &cold);

        // And the repaired family now serves exact hits at the new version.
        let (_, t5) = driver
            .submit_cached_recorded(req(100), &cache_req(2), &NoopRecorder)
            .unwrap();
        assert_eq!(t5, CacheTier::Exact);

        // Version 3 changes the profile: the musical selection is lost and
        // a drama selection gained. Repair answers on the new profile,
        // identical to a cold solve of it.
        let mut changed = Profile::new("figure-1-changed");
        for j in profile.graph().joins() {
            changed.graph_mut().add_join(j.clone());
        }
        for sel in profile.graph().selections() {
            if sel.value != Value::str("musical") {
                changed.graph_mut().add_selection(sel.clone());
            }
        }
        changed
            .add_selection(db.catalog(), "GENRE", "genre", "drama", Doi::new(0.6))
            .unwrap();
        let changed_req = || BatchRequest {
            profile: changed.clone(),
            ..req(100)
        };
        let (repair3, t6) = driver
            .submit_cached_recorded(changed_req(), &cache_req(3), &NoopRecorder)
            .unwrap();
        assert_eq!(t6, CacheTier::Repair);
        let changed_cold = cold_driver.submit(changed_req()).unwrap();
        assert_same(&repair3, &changed_cold);
        assert_ne!(changed_cold.sql, cold.sql, "the profile change must matter");

        let c = driver.answer_cache().unwrap().counters();
        assert_eq!(c.hits_exact, 2);
        assert_eq!(c.hits_warm, 1);
        assert_eq!(c.hits_repair, 2);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn submit_cached_without_cache_reports_off_tier() {
        let db = Arc::new(movie_db());
        let driver = BatchDriver::new(Arc::clone(&db), 1);
        let mut reqs = paper_requests(&db, 1);
        let (item, tier) = driver
            .submit_cached_recorded(
                reqs.remove(0),
                &CacheRequest {
                    template_hash: 1,
                    profile_key: "u".into(),
                    profile_version: 1,
                },
                &NoopRecorder,
            )
            .unwrap();
        assert_eq!(tier, CacheTier::Off);
        assert!(item.space_k >= 1);
    }

    #[test]
    fn submit_cached_never_caches_degraded_answers() {
        use crate::answer_cache::AnswerCache;
        use crate::budget::Budget;
        let db = Arc::new(movie_db());
        let driver =
            BatchDriver::new(Arc::clone(&db), 1).with_answer_cache(Arc::new(AnswerCache::new()));
        let mut reqs = paper_requests(&db, 1);
        let mut req = reqs.remove(0);
        req.config.algorithm = Algorithm::BranchBound;
        req.config.budget = Budget::with_deadline_ms(0);
        let cache_req = CacheRequest {
            template_hash: 3,
            profile_key: "u".into(),
            profile_version: 1,
        };
        let (item, tier) = driver
            .submit_cached_recorded(req.clone(), &cache_req, &NoopRecorder)
            .unwrap();
        assert_eq!(tier, CacheTier::Miss);
        assert!(item.solution.degraded.is_some());
        assert_eq!(driver.answer_cache().unwrap().entries(), 0);
        // The degraded answer must not be served to the next request.
        req.config.budget = Budget::default();
        let (full, tier) = driver
            .submit_cached_recorded(req, &cache_req, &NoopRecorder)
            .unwrap();
        assert_eq!(tier, CacheTier::Miss);
        assert!(full.solution.degraded.is_none());
    }

    #[test]
    fn recorded_batch_publishes_metrics_and_worker_spans() {
        let db = Arc::new(movie_db());
        let obs = cqp_obs::Obs::new();
        let driver = BatchDriver::new(Arc::clone(&db), 2);
        let (results, _stats) = driver.run_recorded(paper_requests(&db, 6), &obs);
        assert!(results.iter().all(|r| r.is_ok()));
        let reg = obs.registry();
        assert_eq!(reg.counter("batch.requests"), 6);
        let h = reg.histogram("batch.latency_us").unwrap();
        assert_eq!(h.count(), 6);
        // Worker spans are roots; request pipelines nest under them.
        let spans = obs.spans();
        assert!(spans
            .iter()
            .any(|s| s.path.starts_with("worker0") && s.path.contains("personalize")));
    }
}
