//! The [`Recorder`] trait lower layers are written against, its no-op and
//! metrics-only implementations, the span capture, and [`Obs`] — the live
//! registry + capture bundle.

use crate::metrics::{Registry, Snapshot};
use crate::trace::{fold, render, SpanView};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};
use std::time::Instant;

/// Observability sink. Every method takes `&self` and defaults to a no-op,
/// so instrumented code pays one virtual call when recording is off.
///
/// Recorders are `Send + Sync` so one sink (behind an `Arc` or a plain
/// reference) can serve every worker of a parallel search or batch run.
///
/// Span discipline: `span_enter`/`span_exit` must nest *per thread*; use
/// [`SpanGuard`] (via [`span_guard`]) to make exits drop-safe.
pub trait Recorder: Send + Sync {
    /// Opens a nested span.
    fn span_enter(&self, _name: &'static str) {}

    /// Closes the innermost span.
    fn span_exit(&self) {}

    /// Adds to a monotonic counter.
    fn add(&self, _name: &'static str, _delta: u64) {}

    /// Sets a gauge (last write wins).
    fn set_gauge(&self, _name: &'static str, _value: f64) {}

    /// Records a histogram observation.
    fn observe(&self, _name: &'static str, _value: u64) {}

    /// Records a point event. Pass `format_args!(..)`: only a recorder
    /// that keeps events (a request trace) formats the message.
    fn event(&self, _message: fmt::Arguments<'_>) {}
}

/// Discards everything; all methods are the trait defaults.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Metrics only: counters, gauges and histograms land in the registry;
/// spans and events are dropped.
impl Recorder for Registry {
    fn add(&self, name: &'static str, delta: u64) {
        Registry::add(self, name, delta);
    }

    fn set_gauge(&self, name: &'static str, value: f64) {
        Registry::set_gauge(self, name, value);
    }

    fn observe(&self, name: &'static str, value: u64) {
        Registry::observe(self, name, value);
    }
}

/// One span occurrence in a [`Capture`]. Times are nanoseconds since the
/// capture's start.
#[derive(Debug)]
pub(crate) struct Record {
    pub(crate) name: &'static str,
    /// Index of the enclosing record, if nested.
    pub(crate) parent: Option<usize>,
    pub(crate) start_ns: u64,
    /// `None` while the span is open.
    pub(crate) end_ns: Option<u64>,
    /// Counters that advanced through the capture while the span was open
    /// (children and other threads' adds included).
    pub(crate) counters: Vec<(&'static str, u64)>,
}

#[derive(Debug)]
struct Open {
    record: usize,
    counts_at: BTreeMap<&'static str, u64>,
}

/// What a capture holds once it is taken apart.
#[derive(Debug, Default)]
pub(crate) struct CaptureState {
    /// Span occurrences in entry order (parents before children).
    pub(crate) records: Vec<Record>,
    /// Point events `(ns since start, message)`.
    pub(crate) events: Vec<(u64, String)>,
    // One open-span stack per thread, dropped when it drains so
    // short-lived pool workers do not accumulate.
    stacks: Vec<(ThreadId, Vec<Open>)>,
    counts: BTreeMap<&'static str, u64>,
}

/// The one span recorder: opens and closes spans on a per-thread stack,
/// keeps every occurrence as a [`Record`], and attributes to each span the
/// counters that advanced through the capture while it was open. [`Obs`]
/// folds the records into the aggregate tree; a request recorder exports
/// them as one request's trace.
#[derive(Debug)]
pub(crate) struct Capture {
    t0: Instant,
    state: Mutex<CaptureState>,
}

impl Capture {
    /// An empty capture whose times count from `t0`.
    pub(crate) fn new(t0: Instant) -> Self {
        Capture {
            t0,
            state: Mutex::new(CaptureState::default()),
        }
    }

    /// Nanoseconds since `t0`.
    pub(crate) fn elapsed_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    // Recovering from a panic that poisoned the lock is safe: each step of
    // every update below leaves the records and stacks consistent (at
    // worst a span stays open, which the fold and export tolerate).
    fn lock(&self) -> MutexGuard<'_, CaptureState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens `name` under the calling thread's innermost open span.
    pub(crate) fn enter(&self, name: &'static str) {
        let start_ns = self.elapsed_ns();
        let tid = thread::current().id();
        let mut s = self.lock();
        let record = s.push(tid, name, start_ns, None);
        let counts_at = s.counts.clone();
        match s.stacks.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, stack)) => stack.push(Open { record, counts_at }),
            None => s.stacks.push((tid, vec![Open { record, counts_at }])),
        }
    }

    /// Closes the calling thread's innermost open span; no-op if none.
    pub(crate) fn exit(&self) {
        let end_ns = self.elapsed_ns();
        let tid = thread::current().id();
        let mut s = self.lock();
        let Some(at) = s.stacks.iter().position(|(t, _)| *t == tid) else {
            return;
        };
        let stack = &mut s.stacks[at].1;
        let Some(open) = stack.pop() else {
            return;
        };
        if stack.is_empty() {
            s.stacks.swap_remove(at);
        }
        let counters = s
            .counts
            .iter()
            .filter_map(|(&name, &now)| {
                let before = open.counts_at.get(name).copied().unwrap_or(0);
                (now > before).then_some((name, now - before))
            })
            .collect();
        let r = &mut s.records[open.record];
        r.end_ns = Some(end_ns);
        r.counters = counters;
    }

    /// Adds an already-measured span under the calling thread's innermost
    /// open span.
    pub(crate) fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let tid = thread::current().id();
        self.lock().push(tid, name, start_ns, Some(end_ns));
    }

    /// Counts `delta` toward every open span's counter deltas.
    pub(crate) fn count(&self, name: &'static str, delta: u64) {
        *self.lock().counts.entry(name).or_insert(0) += delta;
    }

    /// Keeps a point event.
    pub(crate) fn event(&self, message: fmt::Arguments<'_>) {
        let at = self.elapsed_ns();
        let message = message.to_string();
        self.lock().events.push((at, message));
    }

    /// The aggregate tree: every record so far, folded.
    pub(crate) fn spans(&self) -> Vec<SpanView> {
        fold(&self.lock().records)
    }

    /// The records and events, for export.
    pub(crate) fn into_state(self) -> CaptureState {
        self.state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Default for Capture {
    fn default() -> Self {
        Capture::new(Instant::now())
    }
}

impl CaptureState {
    fn push(
        &mut self,
        tid: ThreadId,
        name: &'static str,
        start_ns: u64,
        end_ns: Option<u64>,
    ) -> usize {
        let parent = self
            .stacks
            .iter()
            .find(|(t, _)| *t == tid)
            .and_then(|(_, stack)| stack.last())
            .map(|open| open.record);
        self.records.push(Record {
            name,
            parent,
            start_ns,
            end_ns,
            counters: Vec::new(),
        });
        self.records.len() - 1
    }
}

/// Live observability state for one run: a metrics [`Registry`] plus a
/// span capture, shared by `&self` across solver, engine, and storage —
/// and across worker threads for a parallel run (the capture keeps one
/// open-span stack per thread). It keeps one record per span entry and
/// no events, so it suits a run of bounded length, not a server.
#[derive(Debug, Default)]
pub struct Obs {
    registry: Registry,
    capture: Capture,
}

impl Obs {
    /// A fresh registry and capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Point-in-time snapshot of the registry.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// The aggregate span tree in pre-order: spans with the same path
    /// merged, counts and time added, counter deltas summed.
    pub fn spans(&self) -> Vec<SpanView> {
        self.capture.spans()
    }

    /// Flame-style text rendering of the span tree.
    pub fn render_tree(&self) -> String {
        render(&self.spans())
    }

    /// Opens a span and returns a guard that closes it on drop.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        span_guard(self, name)
    }
}

impl Recorder for Obs {
    fn span_enter(&self, name: &'static str) {
        self.capture.enter(name);
    }

    fn span_exit(&self) {
        self.capture.exit();
    }

    fn add(&self, name: &'static str, delta: u64) {
        self.registry.add(name, delta);
        self.capture.count(name, delta);
    }

    fn set_gauge(&self, name: &'static str, value: f64) {
        self.registry.set_gauge(name, value);
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.registry.observe(name, value);
    }
}

/// Closes its span when dropped, so early returns and `?` cannot leave a
/// span open.
pub struct SpanGuard<'a> {
    recorder: &'a dyn Recorder,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.recorder.span_exit();
    }
}

/// Opens `name` on `recorder` and returns the closing guard.
pub fn span_guard<'a>(recorder: &'a dyn Recorder, name: &'static str) -> SpanGuard<'a> {
    recorder.span_enter(name);
    SpanGuard { recorder }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_inert() {
        let r = NoopRecorder;
        r.span_enter("x");
        r.add("c", 1);
        r.event(format_args!("e{}", 1));
        r.span_exit();
    }

    #[test]
    fn registry_records_metrics_and_drops_spans() {
        let r = Registry::new();
        {
            let _g = span_guard(&r, "work");
            Recorder::add(&r, "c", 2);
            Recorder::observe(&r, "h", 9);
            Recorder::set_gauge(&r, "g", 0.5);
            r.event(format_args!("dropped"));
        }
        assert_eq!(r.counter("c"), 2);
        assert_eq!(r.histogram("h").unwrap().count(), 1);
        assert_eq!(r.gauge("g"), Some(0.5));
    }

    #[test]
    fn obs_attributes_counters_to_spans() {
        let obs = Obs::new();
        {
            let _solve = obs.span("solve");
            obs.add("solver.states", 5);
            {
                let _phase = obs.span("phase1");
                obs.add("solver.states", 7);
            }
        }
        assert_eq!(obs.registry().counter("solver.states"), 12);
        let spans = obs.spans();
        let solve = spans.iter().find(|s| s.path == "solve").unwrap();
        let phase = spans.iter().find(|s| s.path == "solve.phase1").unwrap();
        assert_eq!(solve.counter_deltas, vec![("solver.states", 12)]);
        assert_eq!(phase.counter_deltas, vec![("solver.states", 7)]);
    }

    #[test]
    fn guard_closes_span_on_early_drop() {
        let obs = Obs::new();
        let g = obs.span("outer");
        drop(g);
        let _next = obs.span("next");
        let spans = obs.spans();
        assert_eq!(spans[0].path, "outer");
        assert_eq!(spans[0].count, 1);
        // `outer` closed, so `next` opened at the root.
        assert_eq!(spans[1].path, "next");
    }

    #[test]
    fn concurrent_workers_build_disjoint_subtrees() {
        const WORKER_SPANS: [&str; 4] = ["w0", "w1", "w2", "w3"];
        let obs = Obs::new();
        std::thread::scope(|s| {
            for name in WORKER_SPANS {
                let obs = &obs;
                s.spawn(move || {
                    let _w = obs.span(name);
                    for _ in 0..50 {
                        let _inner = obs.span("work");
                        obs.add("r.ticks", 1);
                    }
                });
            }
        });
        assert_eq!(obs.registry().counter("r.ticks"), 200);
        let spans = obs.spans();
        // Each worker has its own root with a nested `work` node — no
        // cross-thread interleaving corrupted the nesting.
        assert_eq!(spans.len(), 2 * WORKER_SPANS.len());
        for name in WORKER_SPANS {
            let path = format!("{name}.work");
            let node = spans.iter().find(|v| v.path == path).unwrap_or_else(|| {
                panic!("missing {path}");
            });
            assert_eq!(node.count, 50);
            assert_eq!(node.depth, 1);
        }
        assert!(obs.capture.lock().stacks.is_empty());
    }

    #[test]
    fn dyn_dispatch_works_for_both_impls() {
        fn run(r: &dyn Recorder) {
            let _g = span_guard(r, "dyn");
            r.add("k", 1);
        }
        run(&NoopRecorder);
        let obs = Obs::new();
        run(&obs);
        assert_eq!(obs.registry().counter("k"), 1);
    }
}
