//! Instrumentation of the search algorithms.
//!
//! The paper's experiments compare algorithms on execution time (Figure 12),
//! **memory requirements** (Figure 13, "the maximum memory used by a CQP
//! algorithm during its execution"), and quality (Figure 14). Time is
//! measured by the harness; memory and work counters are collected here,
//! machine-independently.
//!
//! Hot loops mutate a plain [`Instrument`] (no dynamic dispatch); at phase
//! boundaries the accumulated counters are flushed to a
//! [`cqp_obs::Recorder`] via [`Instrument::flush_to`], so tracing costs
//! nothing when disabled.

use cqp_obs::Recorder;

/// Counters collected during one algorithm run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Instrument {
    /// States popped from a work queue and examined.
    pub states_examined: u64,
    /// Parameter evaluations performed (cost/doi/size computations).
    pub param_evals: u64,
    /// Horizontal transitions taken.
    pub horizontal_moves: u64,
    /// Vertical transitions generated.
    pub vertical_moves: u64,
    /// Boundaries (or solution candidates) recorded by the first phase.
    pub boundaries_found: u64,
    /// Cost-cache hits (memoized state-cost lookups that were served).
    pub cache_hits: u64,
    /// Cost-cache misses (state costs actually evaluated).
    pub cache_misses: u64,
    /// Cost-cache evictions (entries dropped by a bounded cache).
    pub cache_evictions: u64,
    /// Peak tracked memory in bytes (queues + boundary lists + visited set),
    /// the quantity Figure 13 reports in KBytes.
    pub peak_bytes: usize,
}

impl Instrument {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Instrument::default()
    }

    /// Records a current-memory observation, keeping the peak.
    pub fn observe_bytes(&mut self, current: usize) {
        if current > self.peak_bytes {
            self.peak_bytes = current;
        }
    }

    /// Peak memory in KBytes (the unit of paper Figure 13).
    pub fn peak_kbytes(&self) -> f64 {
        self.peak_bytes as f64 / 1024.0
    }

    /// Folds a [`crate::cost_cache::CostCache`]'s statistics into these
    /// counters — called once per phase, after the cache is retired.
    pub fn absorb_cache(&mut self, cache: &crate::cost_cache::CostCache) {
        self.cache_hits += cache.hits();
        self.cache_misses += cache.misses();
        self.cache_evictions += cache.evictions();
    }

    /// Accumulates another run's counters into this one (summing work,
    /// taking the max of peaks) — used when a solver runs phases separately.
    pub fn merge(&mut self, other: &Instrument) {
        self.states_examined += other.states_examined;
        self.param_evals += other.param_evals;
        self.horizontal_moves += other.horizontal_moves;
        self.vertical_moves += other.vertical_moves;
        self.boundaries_found += other.boundaries_found;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
    }

    /// Publishes the counters to a [`Recorder`] under the `solver.*`
    /// namespace. Work counters are monotonic adds; the memory peak goes to
    /// a histogram so its `max` is the overall peak across flushes.
    pub fn flush_to(&self, recorder: &dyn Recorder) {
        recorder.add("solver.states_examined", self.states_examined);
        recorder.add("solver.param_evals", self.param_evals);
        recorder.add("solver.horizontal_moves", self.horizontal_moves);
        recorder.add("solver.vertical_moves", self.vertical_moves);
        recorder.add("solver.boundaries_found", self.boundaries_found);
        recorder.add("solver.cache_hits", self.cache_hits);
        recorder.add("solver.cache_misses", self.cache_misses);
        recorder.add("solver.cache_evictions", self.cache_evictions);
        recorder.observe("solver.peak_bytes", self.peak_bytes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracking() {
        let mut i = Instrument::new();
        i.observe_bytes(100);
        i.observe_bytes(50);
        i.observe_bytes(2048);
        i.observe_bytes(1024);
        assert_eq!(i.peak_bytes, 2048);
        assert!((i.peak_kbytes() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_work_and_maxes_peak() {
        let mut a = Instrument {
            states_examined: 5,
            peak_bytes: 10,
            ..Default::default()
        };
        let b = Instrument {
            states_examined: 3,
            param_evals: 7,
            peak_bytes: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.states_examined, 8);
        assert_eq!(a.param_evals, 7);
        assert_eq!(a.peak_bytes, 10);
    }

    #[test]
    fn flush_publishes_solver_counters() {
        let obs = cqp_obs::Obs::new();
        let i = Instrument {
            states_examined: 4,
            cache_hits: 2,
            peak_bytes: 512,
            ..Default::default()
        };
        i.flush_to(&obs);
        let j = Instrument {
            peak_bytes: 256,
            ..Default::default()
        };
        j.flush_to(&obs);
        let reg = obs.registry();
        assert_eq!(reg.counter("solver.states_examined"), 4);
        assert_eq!(reg.counter("solver.cache_hits"), 2);
        let snap = obs.snapshot();
        let peak = &snap.histograms["solver.peak_bytes"];
        assert_eq!(peak.max, 512, "histogram max is the peak across flushes");
        assert_eq!(peak.count, 2);
    }
}
