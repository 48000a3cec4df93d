//! Admission control: a bounded waiting room in front of the solver.
//!
//! The serving layer must degrade *predictably* under overload: rather
//! than queueing unboundedly (latency grows without limit, every request
//! eventually times out), requests past the bound are rejected immediately
//! with a `Retry-After` hint. Two limits apply:
//!
//! * `max_inflight` — requests allowed to run the personalization
//!   pipeline concurrently;
//! * `queue_cap` — requests allowed to *wait* for an execution slot.
//!
//! A request beyond both is shed with [`AdmissionError::Overloaded`].
//! Waiters are woken FIFO-fairly by a condvar; a waiter whose own deadline
//! expires before a slot frees gives up with
//! [`AdmissionError::QueueTimeout`] (503 — the server was too slow, not
//! the client too greedy).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// Both the execution slots and the waiting queue are full → 429.
    Overloaded {
        /// Suggested client back-off, milliseconds.
        retry_after_ms: u64,
    },
    /// A queue slot was granted but no execution slot freed before the
    /// request's deadline → 503.
    QueueTimeout,
}

#[derive(Debug, Default)]
struct GateState {
    inflight: usize,
    waiting: usize,
}

/// The admission gate. Cheap to share behind an `Arc`.
#[derive(Debug)]
pub struct AdmissionController {
    state: Mutex<GateState>,
    freed: Condvar,
    max_inflight: usize,
    queue_cap: usize,
    retry_after_ms: u64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    timed_out: AtomicU64,
}

impl AdmissionController {
    /// A gate with `max_inflight` execution slots and `queue_cap` waiting
    /// slots (each clamped to ≥ 1 / ≥ 0).
    pub fn new(max_inflight: usize, queue_cap: usize, retry_after_ms: u64) -> Self {
        AdmissionController {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            max_inflight: max_inflight.max(1),
            queue_cap,
            retry_after_ms,
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
        }
    }

    /// Acquires an execution slot, waiting up to `max_wait` in the bounded
    /// queue if all slots are busy. The returned [`Permit`] frees the slot
    /// on drop.
    pub fn admit(&self, max_wait: Duration) -> Result<Permit<'_>, AdmissionError> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.inflight < self.max_inflight {
            state.inflight += 1;
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(Permit { gate: self });
        }
        if state.waiting >= self.queue_cap {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::Overloaded {
                retry_after_ms: self.retry_after_ms,
            });
        }
        state.waiting += 1;
        let deadline = Instant::now() + max_wait;
        loop {
            if state.inflight < self.max_inflight {
                state.waiting -= 1;
                state.inflight += 1;
                self.admitted.fetch_add(1, Ordering::Relaxed);
                return Ok(Permit { gate: self });
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                state.waiting -= 1;
                self.timed_out.fetch_add(1, Ordering::Relaxed);
                return Err(AdmissionError::QueueTimeout);
            }
            let (guard, _timeout) = self
                .freed
                .wait_timeout(state, left)
                .unwrap_or_else(|p| p.into_inner());
            state = guard;
        }
    }

    /// `(admitted, rejected, queue-timeouts)` counter snapshot.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.admitted.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.timed_out.load(Ordering::Relaxed),
        )
    }

    /// Currently executing requests.
    pub fn inflight(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .inflight
    }

    /// Requests currently parked in the waiting queue — the admission
    /// queue depth gauge `/metrics` exports.
    pub fn queue_depth(&self) -> usize {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).waiting
    }
}

/// An execution slot; freed (and one waiter woken) on drop.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a AdmissionController,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().unwrap_or_else(|p| p.into_inner());
        state.inflight = state.inflight.saturating_sub(1);
        drop(state);
        self.gate.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn admits_up_to_max_inflight_then_queues_then_sheds() {
        let gate = AdmissionController::new(2, 1, 250);
        let a = gate.admit(Duration::ZERO).unwrap();
        let b = gate.admit(Duration::ZERO).unwrap();
        assert_eq!(gate.inflight(), 2);
        // Slots full, zero patience → the queue slot times out.
        assert_eq!(
            gate.admit(Duration::ZERO).err(),
            Some(AdmissionError::QueueTimeout)
        );
        drop(a);
        let c = gate.admit(Duration::ZERO).unwrap();
        drop(b);
        drop(c);
        assert_eq!(gate.inflight(), 0);
        let (admitted, rejected, timed_out) = gate.counters();
        assert_eq!((admitted, rejected, timed_out), (3, 0, 1));
    }

    #[test]
    fn overflow_past_queue_cap_is_rejected_with_retry_after() {
        let gate = Arc::new(AdmissionController::new(1, 1, 250));
        let held = gate.admit(Duration::ZERO).unwrap();
        // Fill the single waiting slot from another thread (it will wait).
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.admit(Duration::from_secs(5)).map(|_| ()))
        };
        // Wait until the waiter occupies the queue slot.
        for _ in 0..200 {
            if gate.state.lock().unwrap().waiting == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            gate.admit(Duration::from_secs(5)).err(),
            Some(AdmissionError::Overloaded {
                retry_after_ms: 250
            })
        );
        drop(held); // waiter gets the slot and returns
        waiter.join().unwrap().unwrap();
        let (_, rejected, _) = gate.counters();
        assert_eq!(rejected, 1);
    }

    #[test]
    fn queued_request_proceeds_when_slot_frees() {
        let gate = Arc::new(AdmissionController::new(1, 4, 250));
        let held = gate.admit(Duration::ZERO).unwrap();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || gate.admit(Duration::from_secs(10)).map(|_| ()))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        for h in handles {
            h.join().unwrap().unwrap();
        }
        let (admitted, rejected, timed_out) = gate.counters();
        assert_eq!((admitted, rejected, timed_out), (4, 0, 0));
        assert_eq!(gate.inflight(), 0);
    }
}
