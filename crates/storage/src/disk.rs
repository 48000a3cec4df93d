//! Simulated disk: block-read metering.
//!
//! Section 7.1 of the paper assumes execution cost is I/O only, with `b` the
//! time to read a single block from disk into memory, and `b = 1 ms` in the
//! experiments. The executor charges this meter once per block it reads;
//! "real" execution time for Figure 15 is `blocks_read × ms_per_block` plus
//! the (small) CPU time actually spent.
//!
//! A meter can optionally carry a [`Recorder`]: every charge is then also
//! forwarded to the `storage.blocks_read` counter, which lets the span
//! tree attribute physical reads to solver phases and engine operators.

use crate::error::{StorageError, StorageResult};
use crate::fault::{FaultPlan, ReadOutcome};
use cqp_obs::Recorder;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default per-block read cost in milliseconds (`b` in the paper).
pub const DEFAULT_MS_PER_BLOCK: f64 = 1.0;

/// Registry counter fed by metered block reads.
pub const BLOCKS_READ_COUNTER: &str = "storage.blocks_read";

/// Registry counter fed by injected I/O errors.
pub const FAULTS_INJECTED_COUNTER: &str = "storage.faults_injected";

/// Registry counter fed by injected latency spikes.
pub const LATENCY_SPIKES_COUNTER: &str = "storage.latency_spikes";

/// Counts block reads and converts them to simulated milliseconds.
///
/// Interior mutability lets read-only executor pipelines share one meter
/// without threading `&mut` through every iterator adapter; the counter is
/// atomic so meters (and their recorders) can be shared across threads.
pub struct IoMeter {
    blocks_read: AtomicU64,
    /// Simulated extra latency accumulated from injected spikes, in
    /// microseconds (integer so it can live in an atomic).
    extra_us: AtomicU64,
    ms_per_block: f64,
    recorder: Option<Arc<dyn Recorder>>,
    faults: Option<Arc<FaultPlan>>,
}

impl fmt::Debug for IoMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IoMeter")
            .field("blocks_read", &self.blocks_read.load(Ordering::Relaxed))
            .field("ms_per_block", &self.ms_per_block)
            .field("recorded", &self.recorder.is_some())
            .field("faulted", &self.faults.is_some())
            .finish()
    }
}

impl Default for IoMeter {
    fn default() -> Self {
        IoMeter::new(DEFAULT_MS_PER_BLOCK)
    }
}

impl IoMeter {
    /// Creates a meter with the given per-block cost in milliseconds.
    pub fn new(ms_per_block: f64) -> Self {
        assert!(ms_per_block.is_finite() && ms_per_block >= 0.0);
        IoMeter {
            blocks_read: AtomicU64::new(0),
            extra_us: AtomicU64::new(0),
            ms_per_block,
            recorder: None,
            faults: None,
        }
    }

    /// Creates a meter that also forwards every charge to `recorder`'s
    /// [`BLOCKS_READ_COUNTER`].
    pub fn with_recorder(ms_per_block: f64, recorder: Arc<dyn Recorder>) -> Self {
        let mut meter = IoMeter::new(ms_per_block);
        meter.recorder = Some(recorder);
        meter
    }

    /// Attaches a fault plan: [`try_charge`](IoMeter::try_charge) consults it
    /// for every block, injecting errors and latency spikes on its schedule.
    /// The infallible [`charge`](IoMeter::charge) ignores the plan.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Charges `n` block reads.
    pub fn charge(&self, n: u64) {
        self.blocks_read.fetch_add(n, Ordering::Relaxed);
        if let Some(recorder) = &self.recorder {
            recorder.add(BLOCKS_READ_COUNTER, n);
        }
    }

    /// Charges `n` block reads, consulting the fault plan (if any) once per
    /// block. Blocks read before an injected failure stay charged, matching
    /// a real scan that dies partway through.
    pub fn try_charge(&self, n: u64) -> StorageResult<()> {
        let Some(plan) = &self.faults else {
            self.charge(n);
            return Ok(());
        };
        for _ in 0..n {
            match plan.on_read() {
                ReadOutcome::Ok => {}
                ReadOutcome::Spike { extra_ms } => {
                    let us = (extra_ms * 1000.0).round().max(0.0) as u64;
                    self.extra_us.fetch_add(us, Ordering::Relaxed);
                    if let Some(recorder) = &self.recorder {
                        recorder.add(LATENCY_SPIKES_COUNTER, 1);
                    }
                }
                ReadOutcome::Fail { read_index } => {
                    if let Some(recorder) = &self.recorder {
                        recorder.add(FAULTS_INJECTED_COUNTER, 1);
                    }
                    return Err(StorageError::InjectedIo { read_index });
                }
            }
            self.charge(1);
        }
        Ok(())
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Total block reads charged so far.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read.load(Ordering::Relaxed)
    }

    /// Simulated elapsed I/O time in milliseconds, including injected
    /// latency spikes.
    pub fn elapsed_ms(&self) -> f64 {
        self.blocks_read.load(Ordering::Relaxed) as f64 * self.ms_per_block
            + self.extra_us.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// The configured per-block cost.
    pub fn ms_per_block(&self) -> f64 {
        self.ms_per_block
    }

    /// Resets the counter to zero (the recorder's counter, being monotonic,
    /// is not rewound).
    pub fn reset(&self) {
        self.blocks_read.store(0, Ordering::Relaxed);
        self.extra_us.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqp_obs::Obs;

    #[test]
    fn charges_accumulate() {
        let m = IoMeter::new(1.0);
        m.charge(3);
        m.charge(2);
        assert_eq!(m.blocks_read(), 5);
        assert!((m.elapsed_ms() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn custom_block_cost() {
        let m = IoMeter::new(0.5);
        m.charge(4);
        assert!((m.elapsed_ms() - 2.0).abs() < 1e-12);
        assert!((m.ms_per_block() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_clears() {
        let m = IoMeter::default();
        m.charge(10);
        m.reset();
        assert_eq!(m.blocks_read(), 0);
        assert_eq!(m.elapsed_ms(), 0.0);
    }

    #[test]
    fn recorder_sees_every_charge() {
        let obs = Arc::new(Obs::new());
        let m = IoMeter::with_recorder(1.0, obs.clone());
        m.charge(7);
        m.reset();
        m.charge(2);
        assert_eq!(m.blocks_read(), 2);
        // Monotonic counter keeps the pre-reset charges too.
        assert_eq!(obs.registry().counter(BLOCKS_READ_COUNTER), 9);
    }

    #[test]
    #[should_panic]
    fn negative_cost_rejected() {
        let _ = IoMeter::new(-1.0);
    }

    #[test]
    fn try_charge_without_plan_is_charge() {
        let m = IoMeter::new(1.0);
        m.try_charge(5).unwrap();
        assert_eq!(m.blocks_read(), 5);
    }

    #[test]
    fn try_charge_injects_on_schedule_and_keeps_partial_reads() {
        use crate::fault::{FaultMode, FaultPlan};
        let plan = Arc::new(FaultPlan::new(1, FaultMode::EveryNth { n: 3 }));
        let m = IoMeter::new(1.0).with_fault_plan(plan.clone());
        // Reads 0 and 1 succeed, read 2 fails: two blocks stay charged.
        let err = m.try_charge(5).unwrap_err();
        assert_eq!(err, StorageError::InjectedIo { read_index: 2 });
        assert_eq!(m.blocks_read(), 2);
        assert_eq!(plan.faults_injected(), 1);
    }

    #[test]
    fn spikes_accumulate_into_elapsed_ms() {
        use crate::fault::{FaultMode, FaultPlan};
        let plan = Arc::new(FaultPlan::new(
            1,
            FaultMode::LatencySpike {
                every: 2,
                spike_ms: 5.0,
            },
        ));
        let m = IoMeter::new(1.0).with_fault_plan(plan);
        m.try_charge(4).unwrap();
        // 4 blocks * 1ms + 2 spikes * 5ms.
        assert!((m.elapsed_ms() - 14.0).abs() < 1e-9);
        m.reset();
        assert_eq!(m.elapsed_ms(), 0.0);
    }

    #[test]
    fn fault_counters_reach_recorder() {
        use crate::fault::{FaultMode, FaultPlan};
        let obs = Arc::new(Obs::new());
        let plan = Arc::new(FaultPlan::new(1, FaultMode::FirstK { k: 1 }));
        let m = IoMeter::with_recorder(1.0, obs.clone()).with_fault_plan(plan);
        assert!(m.try_charge(1).is_err());
        m.try_charge(3).unwrap();
        assert_eq!(obs.registry().counter(FAULTS_INJECTED_COUNTER), 1);
        assert_eq!(obs.registry().counter(BLOCKS_READ_COUNTER), 3);
    }
}
