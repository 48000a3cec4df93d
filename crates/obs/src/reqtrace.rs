//! Request-scoped tracing: per-request span trees with exact timestamps,
//! a lock-sharded retention ring, a worst-N slow-query log, and JSON /
//! Chrome trace-event export.
//!
//! [`RequestRecorder`] implements [`Recorder`] so the solver/engine
//! instrumentation flows into it unchanged. It records into the same span
//! capture as [`crate::Obs`], but instead of folding same-path spans into
//! the aggregate tree it keeps every span occurrence with its own start
//! offset and duration: a [`RequestTrace`] answers "why was *this* request
//! slow", exportable as a tree or a `chrome://tracing` / Perfetto
//! timeline. Metrics are forwarded to a base recorder (the server's
//! registry), so sampling a request never steals its counters from
//! `/metrics`; spans and events stay in the trace.

use crate::record::{Capture, Record, Recorder};
use crate::report::Json;
use crate::trace::{fold, SpanView};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A 64-bit trace identifier, rendered as 16 lowercase hex digits — the
/// wire format of the `x-cqp-trace-id` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Parses a hex trace ID (1–16 digits, surrounding whitespace ignored).
    pub fn parse(s: &str) -> Option<TraceId> {
        let t = s.trim();
        if t.is_empty() || t.len() > 16 {
            return None;
        }
        u64::from_str_radix(t, 16).ok().map(TraceId)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One completed span occurrence inside a [`RequestTrace`].
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (matches the aggregate tree's vocabulary).
    pub name: &'static str,
    /// Index of the parent span in the trace's `spans` vec, if nested.
    pub parent: Option<usize>,
    /// Start offset from the request's first byte, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Counters that advanced through this recorder while the span was
    /// open (including descendants) — the per-span solver stats.
    pub counters: Vec<(&'static str, u64)>,
}

/// A finished request trace: identity, metadata, and the span tree.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Trace identity (client-supplied or server-assigned).
    pub id: TraceId,
    /// Server-assigned monotonic sequence number (eviction / sort order).
    pub seq: u64,
    /// Request label, e.g. `POST /personalize`.
    pub label: String,
    /// Request start, microseconds since the owning telemetry epoch —
    /// places traces on a common timeline for the Chrome export.
    pub start_us: u64,
    /// End-to-end duration, microseconds.
    pub total_us: u64,
    /// Key/value metadata: user, problem, algorithm, outcome, status…
    pub meta: Vec<(&'static str, String)>,
    /// Completed spans in creation order (parents before children).
    pub spans: Vec<SpanRecord>,
    /// Point events `(offset_us, message)`.
    pub events: Vec<(u64, String)>,
}

impl RequestTrace {
    /// First metadata value under `key`, if present.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether any span carries `name`.
    pub fn has_span(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }
}

/// Per-request [`Recorder`] that captures an exact span tree while
/// forwarding metrics to a base recorder.
///
/// Spans, counter deltas and events go to the same capture [`crate::Obs`]
/// folds; here they are exported as one [`RequestTrace`] instead.
pub struct RequestRecorder<'a> {
    base: &'a dyn Recorder,
    capture: Capture,
}

impl<'a> RequestRecorder<'a> {
    /// A recorder whose span offsets are measured from `t0` (the moment
    /// the request's first byte arrived) and whose metrics forward to
    /// `base`.
    pub fn new(base: &'a dyn Recorder, t0: Instant) -> Self {
        RequestRecorder {
            base,
            capture: Capture::new(t0),
        }
    }

    /// Records an already-measured span (e.g. HTTP parse, which finishes
    /// before the recorder can exist). Nested under the currently open
    /// span, if any.
    pub fn record_span(&self, name: &'static str, start_us: u64, dur_us: u64) {
        self.capture
            .record(name, start_us * 1_000, (start_us + dur_us) * 1_000);
    }

    /// Closes any spans left open (drop-safety for panicking handlers) and
    /// produces the finished trace.
    pub fn finish(
        self,
        id: TraceId,
        seq: u64,
        label: String,
        start_us: u64,
        meta: Vec<(&'static str, String)>,
    ) -> RequestTrace {
        let total_ns = self.capture.elapsed_ns();
        let state = self.capture.into_state();
        let spans = state
            .records
            .into_iter()
            .map(|r| {
                let start_us = r.start_ns / 1_000;
                SpanRecord {
                    name: r.name,
                    parent: r.parent,
                    start_us,
                    dur_us: (r.end_ns.unwrap_or(total_ns) / 1_000).saturating_sub(start_us),
                    counters: r.counters,
                }
            })
            .collect();
        RequestTrace {
            id,
            seq,
            label,
            start_us,
            total_us: total_ns / 1_000,
            meta,
            spans,
            events: state
                .events
                .into_iter()
                .map(|(at_ns, message)| (at_ns / 1_000, message))
                .collect(),
        }
    }
}

impl Recorder for RequestRecorder<'_> {
    fn span_enter(&self, name: &'static str) {
        self.capture.enter(name);
    }

    fn span_exit(&self) {
        self.capture.exit();
    }

    fn add(&self, name: &'static str, delta: u64) {
        self.capture.count(name, delta);
        self.base.add(name, delta);
    }

    fn set_gauge(&self, name: &'static str, value: f64) {
        self.base.set_gauge(name, value);
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.base.observe(name, value);
    }

    fn event(&self, message: fmt::Arguments<'_>) {
        self.capture.event(message);
    }
}

/// Bounded, lock-sharded retention ring for finished traces.
///
/// Traces shard by `trace_id % shards`, each shard an independent
/// mutex-guarded deque of at most `ceil(capacity / shards)` entries with
/// strict oldest-first eviction — so eviction is deterministic per shard
/// regardless of cross-shard interleaving, and a hot tracing path never
/// serializes on one lock.
#[derive(Debug)]
pub struct TraceRing {
    shards: Vec<Mutex<VecDeque<Arc<RequestTrace>>>>,
    per_shard: usize,
    pushed: AtomicU64,
    evicted: AtomicU64,
}

impl TraceRing {
    /// A ring of `shards` (≥ 1) shards holding `capacity` (≥ shards)
    /// traces in total.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.max(shards).div_ceil(shards);
        TraceRing {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            per_shard,
            pushed: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Retains `trace`, evicting its shard's oldest entry when full.
    pub fn push(&self, trace: Arc<RequestTrace>) {
        let shard = (trace.id.0 % self.shards.len() as u64) as usize;
        let mut deque = self.shards[shard].lock().unwrap_or_else(|p| p.into_inner());
        if deque.len() >= self.per_shard {
            deque.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        deque.push_back(trace);
        self.pushed.fetch_add(1, Ordering::Relaxed);
    }

    /// The most recent `n` retained traces, oldest first (by server
    /// sequence number).
    pub fn recent(&self, n: usize) -> Vec<Arc<RequestTrace>> {
        let mut all: Vec<Arc<RequestTrace>> = Vec::new();
        for shard in &self.shards {
            let deque = shard.lock().unwrap_or_else(|p| p.into_inner());
            all.extend(deque.iter().cloned());
        }
        all.sort_by_key(|t| t.seq);
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }

    /// The retained trace with `id`, newest first if several share it.
    pub fn find(&self, id: TraceId) -> Option<Arc<RequestTrace>> {
        let shard = (id.0 % self.shards.len() as u64) as usize;
        let deque = self.shards[shard].lock().unwrap_or_else(|p| p.into_inner());
        deque.iter().rev().find(|t| t.id == id).cloned()
    }

    /// Currently retained traces.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum retained traces (shards × per-shard bound).
    pub fn capacity(&self) -> usize {
        self.per_shard * self.shards.len()
    }

    /// `(pushed, evicted)` lifetime counters.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.pushed.load(Ordering::Relaxed),
            self.evicted.load(Ordering::Relaxed),
        )
    }
}

/// Worst-N slow-query log ordered by end-to-end duration.
#[derive(Debug)]
pub struct SlowLog {
    capacity: usize,
    worst: Mutex<Vec<Arc<RequestTrace>>>,
}

impl SlowLog {
    /// A log retaining the `capacity` (≥ 1) slowest requests.
    pub fn new(capacity: usize) -> Self {
        SlowLog {
            capacity: capacity.max(1),
            worst: Mutex::new(Vec::new()),
        }
    }

    /// Offers a trace; returns whether it was retained.
    pub fn offer(&self, trace: Arc<RequestTrace>) -> bool {
        let mut worst = self.worst.lock().unwrap_or_else(|p| p.into_inner());
        if worst.len() >= self.capacity
            && worst.last().is_some_and(|t| t.total_us >= trace.total_us)
        {
            return false;
        }
        // Insert keeping descending duration; ties break toward newer.
        let at = worst
            .iter()
            .position(|t| t.total_us < trace.total_us)
            .unwrap_or(worst.len());
        worst.insert(at, trace);
        worst.truncate(self.capacity);
        true
    }

    /// Retained traces, slowest first.
    pub fn worst(&self) -> Vec<Arc<RequestTrace>> {
        self.worst.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Duration a new trace must exceed to enter a full log (0 when the
    /// log still has room).
    pub fn threshold_us(&self) -> u64 {
        let worst = self.worst.lock().unwrap_or_else(|p| p.into_inner());
        if worst.len() < self.capacity {
            0
        } else {
            worst.last().map_or(0, |t| t.total_us)
        }
    }
}

/// JSON form of one trace: identity, metadata, span tree (flat spans with
/// parent indices plus rendered `path` strings), and events.
pub fn trace_to_json(trace: &RequestTrace) -> Json {
    let paths = span_paths(trace);
    let spans = trace
        .spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let counters = Json::Obj(
                s.counters
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::Num(v as f64)))
                    .collect(),
            );
            Json::obj(vec![
                ("name", Json::Str(s.name.to_string())),
                ("path", Json::Str(paths[i].clone())),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_us", Json::Num(s.start_us as f64)),
                ("dur_us", Json::Num(s.dur_us as f64)),
                ("counters", counters),
            ])
        })
        .collect();
    let meta = Json::Obj(
        trace
            .meta
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
            .collect(),
    );
    let events = trace
        .events
        .iter()
        .map(|(at, msg)| {
            Json::obj(vec![
                ("at_us", Json::Num(*at as f64)),
                ("message", Json::Str(msg.clone())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("trace_id", Json::Str(trace.id.to_string())),
        ("seq", Json::Num(trace.seq as f64)),
        ("label", Json::Str(trace.label.clone())),
        ("start_us", Json::Num(trace.start_us as f64)),
        ("total_us", Json::Num(trace.total_us as f64)),
        ("meta", meta),
        ("spans", Json::Arr(spans)),
        ("events", Json::Arr(events)),
    ])
}

/// Dotted root-to-leaf path for every span, aligned with the aggregate
/// tree's path vocabulary (`personalize.search`, …).
pub fn span_paths(trace: &RequestTrace) -> Vec<String> {
    let mut paths: Vec<String> = Vec::with_capacity(trace.spans.len());
    for s in &trace.spans {
        let path = match s.parent {
            Some(p) => format!("{}.{}", paths[p], s.name),
            None => s.name.to_string(),
        };
        paths.push(path);
    }
    paths
}

/// The aggregate tree over several traces: their spans folded the way
/// [`crate::Obs::spans`] folds a run's, at the traces' µs resolution.
pub fn fold_traces(traces: &[Arc<RequestTrace>]) -> Vec<SpanView> {
    let mut records = Vec::new();
    for trace in traces {
        let base = records.len();
        records.extend(trace.spans.iter().map(|s| Record {
            name: s.name,
            parent: s.parent.map(|p| base + p),
            start_ns: s.start_us * 1_000,
            end_ns: Some((s.start_us + s.dur_us) * 1_000),
            counters: s.counters.clone(),
        }));
    }
    fold(&records)
}

/// An array of traces in JSON form.
pub fn traces_to_json(traces: &[Arc<RequestTrace>]) -> Json {
    Json::Arr(traces.iter().map(|t| trace_to_json(t)).collect())
}

/// Chrome trace-event (`chrome://tracing` / Perfetto) rendering: one
/// complete (`ph: "X"`) event per request plus one per span, all on the
/// shared telemetry timeline; each trace gets its own `tid` lane.
pub fn traces_to_chrome(traces: &[Arc<RequestTrace>]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    for trace in traces {
        let tid = (trace.seq % 1_000_000) + 1;
        events.push(Json::obj(vec![
            ("name", Json::Str(trace.label.clone())),
            ("cat", Json::Str("request".into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Num(trace.start_us as f64)),
            ("dur", Json::Num(trace.total_us.max(1) as f64)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(tid as f64)),
            (
                "args",
                Json::obj(vec![
                    ("trace_id", Json::Str(trace.id.to_string())),
                    (
                        "meta",
                        Json::Obj(
                            trace
                                .meta
                                .iter()
                                .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ]));
        for s in &trace.spans {
            let args = Json::Obj(
                s.counters
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::Num(v as f64)))
                    .collect(),
            );
            events.push(Json::obj(vec![
                ("name", Json::Str(s.name.to_string())),
                ("cat", Json::Str("span".into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num((trace.start_us + s.start_us) as f64)),
                ("dur", Json::Num(s.dur_us.max(1) as f64)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid as f64)),
                ("args", args),
            ]));
        }
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{span_guard, NoopRecorder, Obs};

    fn sample_trace(id: u64, seq: u64, total_us: u64) -> Arc<RequestTrace> {
        Arc::new(RequestTrace {
            id: TraceId(id),
            seq,
            label: "POST /personalize".into(),
            start_us: seq * 10,
            total_us,
            meta: vec![("outcome", "ok".into())],
            spans: vec![SpanRecord {
                name: "dispatch",
                parent: None,
                start_us: 1,
                dur_us: total_us.saturating_sub(1),
                counters: vec![("solver.states_examined", 3)],
            }],
            events: Vec::new(),
        })
    }

    #[test]
    fn trace_id_round_trips_and_rejects_garbage() {
        let id = TraceId(0x00ab_cdef_1234_5678);
        assert_eq!(id.to_string(), "00abcdef12345678");
        assert_eq!(TraceId::parse("00abcdef12345678"), Some(id));
        assert_eq!(TraceId::parse(" 2a "), Some(TraceId(42)));
        assert_eq!(TraceId::parse(""), None);
        assert_eq!(TraceId::parse("not-hex"), None);
        assert_eq!(TraceId::parse("00abcdef123456789"), None); // 17 digits
    }

    #[test]
    fn recorder_builds_a_span_tree_with_counter_deltas() {
        let base = NoopRecorder;
        let rec = RequestRecorder::new(&base, Instant::now());
        rec.record_span("parse", 0, 15);
        {
            let _d = span_guard(&rec, "dispatch");
            rec.add("solver.states_examined", 5);
            {
                let _s = span_guard(&rec, "search");
                rec.add("solver.states_examined", 7);
            }
        }
        let trace = rec.finish(TraceId(9), 1, "POST /personalize".into(), 0, vec![]);
        let paths = span_paths(&trace);
        assert_eq!(paths, vec!["parse", "dispatch", "dispatch.search"]);
        let dispatch = &trace.spans[1];
        assert_eq!(dispatch.counters, vec![("solver.states_examined", 12)]);
        let search = &trace.spans[2];
        assert_eq!(search.counters, vec![("solver.states_examined", 7)]);
        assert!(trace.total_us >= trace.spans[1].dur_us);
    }

    #[test]
    fn recorder_forwards_metrics_to_base() {
        let obs = Obs::new();
        let rec = RequestRecorder::new(&obs, Instant::now());
        {
            let _g = span_guard(&rec, "work");
            rec.add("c.forwarded", 2);
            rec.observe("h.forwarded", 10);
            rec.set_gauge("g.forwarded", 1.5);
            rec.event(format_args!("kept in the trace"));
        }
        assert_eq!(obs.registry().counter("c.forwarded"), 2);
        assert_eq!(obs.registry().histogram("h.forwarded").unwrap().count(), 1);
        assert_eq!(obs.registry().gauge("g.forwarded"), Some(1.5));
        // Spans and events stay in the request's own trace.
        assert!(obs.spans().is_empty());
        let trace = rec.finish(TraceId(3), 1, "x".into(), 0, vec![]);
        assert!(trace.has_span("work"));
        assert_eq!(trace.spans[0].counters, vec![("c.forwarded", 2)]);
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].1, "kept in the trace");
    }

    #[test]
    fn fold_traces_merges_paths_across_traces() {
        let traces = vec![sample_trace(1, 1, 101), sample_trace(2, 2, 51)];
        let spans = fold_traces(&traces);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].path, "dispatch");
        assert_eq!(spans[0].count, 2);
        assert_eq!(spans[0].total.as_micros(), 150);
        assert_eq!(spans[0].counter_deltas, vec![("solver.states_examined", 6)]);
    }

    #[test]
    fn finish_closes_dangling_spans() {
        let base = NoopRecorder;
        let rec = RequestRecorder::new(&base, Instant::now());
        rec.span_enter("left-open");
        let trace = rec.finish(TraceId(1), 1, "x".into(), 0, vec![]);
        assert_eq!(trace.spans.len(), 1);
        assert!(trace.spans[0].dur_us <= trace.total_us);
    }

    #[test]
    fn ring_evicts_oldest_per_shard_deterministically() {
        let ring = TraceRing::new(2, 4); // 2 per shard
                                         // Shard 0 gets ids 0,2,4,6; shard 1 gets 1,3.
        for (seq, id) in [(1u64, 0u64), (2, 2), (3, 4), (4, 6), (5, 1), (6, 3)] {
            ring.push(sample_trace(id, seq, 100));
        }
        // Shard 0 overflowed twice: ids 0 and 2 (the two oldest) evicted.
        assert!(ring.find(TraceId(0)).is_none());
        assert!(ring.find(TraceId(2)).is_none());
        for id in [4u64, 6, 1, 3] {
            assert!(ring.find(TraceId(id)).is_some(), "id {id} missing");
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.counters(), (6, 2));
        let recent = ring.recent(3);
        let seqs: Vec<u64> = recent.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6]);
    }

    #[test]
    fn slow_log_retains_worst_n() {
        let log = SlowLog::new(3);
        for (seq, us) in [(1u64, 50u64), (2, 500), (3, 5), (4, 300), (5, 700)] {
            log.offer(sample_trace(seq, seq, us));
        }
        let worst: Vec<u64> = log.worst().iter().map(|t| t.total_us).collect();
        assert_eq!(worst, vec![700, 500, 300]);
        assert_eq!(log.threshold_us(), 300);
        // Too fast to enter.
        assert!(!log.offer(sample_trace(9, 9, 10)));
    }

    #[test]
    fn chrome_export_produces_trace_events() {
        let traces = vec![sample_trace(7, 1, 250)];
        let chrome = traces_to_chrome(&traces);
        let events = chrome.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2); // request + one span
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").unwrap().as_f64().is_some());
            assert!(e.get("dur").unwrap().as_f64().unwrap() >= 1.0);
        }
        let json = trace_to_json(&traces[0]);
        assert_eq!(
            json.get("trace_id").unwrap().as_str(),
            Some("0000000000000007")
        );
        assert!(json.render().contains("solver.states_examined"));
    }
}
