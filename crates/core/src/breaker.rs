//! Circuit breaker for the dispatch path.
//!
//! A [`CircuitBreaker`] sits in front of the batch driver's `submit` path
//! (and the server's dispatch) and sheds load when the downstream keeps
//! failing transiently, instead of letting every request pay the full
//! retry-and-fail cost. It is the classic three-state machine:
//!
//! * **Closed** — traffic flows; outcomes land in a sliding window of the
//!   last [`BreakerConfig::window`] requests. When the window holds at
//!   least [`BreakerConfig::min_samples`] outcomes and the failure rate
//!   reaches [`BreakerConfig::failure_threshold`], the breaker trips.
//! * **Open** — all requests are shed immediately with a suggested
//!   `Retry-After`. After [`BreakerConfig::cooldown_ms`] the next arrival
//!   transitions the breaker to half-open.
//! * **Half-open** — up to [`BreakerConfig::half_open_probes`] probe
//!   requests are admitted; the first probe outcome decides: success
//!   closes the breaker (window cleared), failure re-opens it and restarts
//!   the cooldown.
//!
//! Only failures the caller *reports* count — the convention in this
//! codebase is that callers report `success=false` only for transient
//! faults ([`CqpError::is_transient`]); client faults (bad requests,
//! oversized spaces) say nothing about downstream health and must be
//! recorded as successes or not at all.
//!
//! All transitions are counted in lock-free counters
//! ([`CircuitBreaker::counters`]) and the trips and closes are mirrored to
//! a [`Recorder`] as `breaker.opened` / `breaker.closed` counters. The
//! state itself is read from [`CircuitBreaker::state`]; `/metrics` exports
//! it as the one `cqp_breaker_state` gauge.
//!
//! [`CqpError::is_transient`]: crate::error::CqpError::is_transient

use cqp_obs::Recorder;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Tuning knobs for a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Sliding window length (outcomes) consulted while closed.
    pub window: usize,
    /// Failure rate in `[0, 1]` at which the breaker trips.
    pub failure_threshold: f64,
    /// Minimum outcomes in the window before the rate is meaningful.
    pub min_samples: usize,
    /// How long the breaker stays open before probing, milliseconds.
    pub cooldown_ms: u64,
    /// Concurrent probe requests admitted while half-open.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 32,
            failure_threshold: 0.5,
            min_samples: 8,
            cooldown_ms: 1_000,
            half_open_probes: 1,
        }
    }
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows normally.
    Closed,
    /// All traffic is shed.
    Open,
    /// Probe traffic only.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase tag for reports and `/metrics`.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Gauge encoding: closed = 0, half-open = 1, open = 2.
    pub fn gauge(&self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    /// Recent outcomes while closed; `true` = failure.
    window: VecDeque<bool>,
    /// Failures currently in `window` (kept in sync incrementally).
    failures: usize,
    /// When the breaker last entered [`BreakerState::Open`].
    opened_at: Option<Instant>,
    /// Probes admitted and not yet reported while half-open.
    probes_inflight: u32,
}

/// A thread-safe closed/open/half-open circuit breaker.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<Inner>,
    opened: AtomicU64,
    half_opened: AtomicU64,
    closed: AtomicU64,
    shed: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker under `config`. `window`, `min_samples`, and
    /// `half_open_probes` are clamped to at least 1.
    pub fn new(mut config: BreakerConfig) -> Self {
        config.window = config.window.max(1);
        config.min_samples = config.min_samples.max(1).min(config.window);
        config.half_open_probes = config.half_open_probes.max(1);
        CircuitBreaker {
            config,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                window: VecDeque::new(),
                failures: 0,
                opened_at: None,
                probes_inflight: 0,
            }),
            opened: AtomicU64::new(0),
            half_opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// The configuration this breaker runs under.
    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    /// Asks to pass one request through. `Ok(())` admits it (the caller
    /// must later call [`CircuitBreaker::record`] with the outcome);
    /// `Err(retry_after_ms)` sheds it with a back-off hint.
    pub fn try_acquire(&self) -> Result<(), u64> {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => Ok(()),
            BreakerState::Open => {
                let elapsed_ms = inner
                    .opened_at
                    .map(|t| t.elapsed().as_millis() as u64)
                    .unwrap_or(u64::MAX);
                if elapsed_ms >= self.config.cooldown_ms {
                    inner.state = BreakerState::HalfOpen;
                    inner.probes_inflight = 1;
                    self.half_opened.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                } else {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    Err((self.config.cooldown_ms - elapsed_ms).max(1))
                }
            }
            BreakerState::HalfOpen => {
                if inner.probes_inflight < self.config.half_open_probes {
                    inner.probes_inflight += 1;
                    Ok(())
                } else {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    Err(self.config.cooldown_ms.max(1))
                }
            }
        }
    }

    /// Reports the outcome of an admitted request. Callers should pass
    /// `success=false` only for transient faults — a client fault says
    /// nothing about downstream health. Transitions are mirrored to
    /// `recorder` as `breaker.*` counters.
    pub fn record(&self, success: bool, recorder: &dyn Recorder) {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => {
                inner.window.push_back(!success);
                if !success {
                    inner.failures += 1;
                }
                while inner.window.len() > self.config.window {
                    if let Some(evicted_failure) = inner.window.pop_front() {
                        if evicted_failure {
                            inner.failures -= 1;
                        }
                    }
                }
                let samples = inner.window.len();
                let rate = inner.failures as f64 / samples as f64;
                if samples >= self.config.min_samples && rate >= self.config.failure_threshold {
                    self.trip(&mut inner, recorder);
                }
            }
            BreakerState::HalfOpen => {
                inner.probes_inflight = inner.probes_inflight.saturating_sub(1);
                if success {
                    inner.state = BreakerState::Closed;
                    inner.window.clear();
                    inner.failures = 0;
                    inner.opened_at = None;
                    inner.probes_inflight = 0;
                    self.closed.fetch_add(1, Ordering::Relaxed);
                    recorder.add("breaker.closed", 1);
                } else {
                    self.trip(&mut inner, recorder);
                }
            }
            // A request admitted while closed can finish after the breaker
            // tripped; its outcome is stale and says nothing new.
            BreakerState::Open => {}
        }
    }

    /// The current state (resolving an elapsed cooldown requires an
    /// arrival, so an open breaker reports open until the next
    /// [`CircuitBreaker::try_acquire`]).
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Lifetime transition and shed counts:
    /// `(opened, half_opened, closed, shed)`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.opened.load(Ordering::Relaxed),
            self.half_opened.load(Ordering::Relaxed),
            self.closed.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
        )
    }

    fn trip(&self, inner: &mut Inner, recorder: &dyn Recorder) {
        inner.state = BreakerState::Open;
        inner.window.clear();
        inner.failures = 0;
        inner.opened_at = Some(Instant::now());
        inner.probes_inflight = 0;
        self.opened.fetch_add(1, Ordering::Relaxed);
        recorder.add("breaker.opened", 1);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock leaves only counters behind;
        // recovering the inner value keeps the breaker serviceable.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqp_obs::{NoopRecorder, Obs};

    fn quick(cooldown_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            window: 8,
            failure_threshold: 0.5,
            min_samples: 4,
            cooldown_ms,
            half_open_probes: 1,
        })
    }

    #[test]
    fn stays_closed_under_success() {
        let b = quick(1_000);
        for _ in 0..64 {
            assert!(b.try_acquire().is_ok());
            b.record(true, &NoopRecorder);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.counters(), (0, 0, 0, 0));
    }

    #[test]
    fn trips_at_failure_threshold_and_sheds() {
        let b = quick(60_000);
        for _ in 0..4 {
            assert!(b.try_acquire().is_ok());
            b.record(false, &NoopRecorder);
        }
        assert_eq!(b.state(), BreakerState::Open);
        let err = b.try_acquire();
        assert!(err.is_err());
        assert!(err.unwrap_err() > 0);
        let (opened, _, _, shed) = b.counters();
        assert_eq!(opened, 1);
        assert_eq!(shed, 1);
    }

    #[test]
    fn below_min_samples_never_trips() {
        let b = quick(1_000);
        for _ in 0..3 {
            assert!(b.try_acquire().is_ok());
            b.record(false, &NoopRecorder);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_success_closes() {
        let b = quick(0); // cooldown elapses immediately
        for _ in 0..4 {
            b.try_acquire().ok();
            b.record(false, &NoopRecorder);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown of 0 ms: next arrival becomes the probe.
        assert!(b.try_acquire().is_ok());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(true, &NoopRecorder);
        assert_eq!(b.state(), BreakerState::Closed);
        let (opened, half, closed, _) = b.counters();
        assert_eq!((opened, half, closed), (1, 1, 1));
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let b = quick(0);
        for _ in 0..4 {
            b.try_acquire().ok();
            b.record(false, &NoopRecorder);
        }
        assert!(b.try_acquire().is_ok());
        b.record(false, &NoopRecorder);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.counters().0, 2); // opened twice
    }

    #[test]
    fn half_open_admits_only_probe_budget() {
        let b = quick(0);
        for _ in 0..4 {
            b.try_acquire().ok();
            b.record(false, &NoopRecorder);
        }
        assert!(b.try_acquire().is_ok()); // the probe
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.try_acquire().is_err()); // beyond probe budget
    }

    #[test]
    fn window_slides_old_failures_out() {
        let b = quick(1_000);
        // One early failure, then 16 successes: the window (8) slides the
        // failure out entirely.
        b.try_acquire().ok();
        b.record(false, &NoopRecorder);
        for _ in 0..16 {
            b.try_acquire().ok();
            b.record(true, &NoopRecorder);
        }
        // Three fresh failures: the window holds 5 successes + 3 failures
        // (rate 0.375 < 0.5), so the breaker stays closed. If eviction
        // failed to forget the early failure the rate would read 0.5 and
        // trip.
        for _ in 0..3 {
            b.try_acquire().ok();
            b.record(false, &NoopRecorder);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn transitions_reach_recorder() {
        let obs = Obs::new();
        let b = quick(0);
        for _ in 0..4 {
            b.try_acquire().ok();
            b.record(false, &obs);
        }
        b.try_acquire().ok(); // half-open
        b.record(true, &obs); // closes
        let reg = obs.registry();
        assert_eq!(reg.counter("breaker.opened"), 1);
        assert_eq!(reg.counter("breaker.closed"), 1);
    }

    #[test]
    fn state_tags_and_gauges() {
        assert_eq!(BreakerState::Closed.as_str(), "closed");
        assert_eq!(BreakerState::Open.as_str(), "open");
        assert_eq!(BreakerState::HalfOpen.as_str(), "half_open");
        assert_eq!(BreakerState::Closed.gauge(), 0.0);
        assert_eq!(BreakerState::HalfOpen.gauge(), 1.0);
        assert_eq!(BreakerState::Open.gauge(), 2.0);
    }
}
