//! The end-to-end run of one workload over real sockets.
//!
//! Set-up (database, boot, profile load, warm-up) is timed as `setup_s`,
//! the median of [`SETUPS`] independent set-ups. The timed phase is a
//! closed loop: [`CLIENTS`] threads, each with one keep-alive connection,
//! send their next op of the workload's stream when the previous answer
//! arrives, until the deadline; it runs in [`SEGMENTS`] segments. Finally,
//! untimed, a sample of the answers is audited against cold recomputation.

use crate::audit::{audit, Answer, AuditReport, Sample, Sampler};
use crate::client::Client;
use crate::metrics::Outcome;
use crate::stack::{SetupTimes, Stack};
use crate::stats::{median, Latency, MIN_P99_SAMPLES};
use crate::workload::{write_request, Op, Read, Stream, Universe, Workload, CLIENTS};
use cqp_server::json;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Segments the timed phase is split into. Every segment starts fresh
/// client threads and connections, and so fresh server connection threads:
/// the scheduler places the threads on the cores anew, and no single
/// placement sets a run's numbers. Rates are the median over segments.
const SEGMENTS: u32 = 10;

/// Audit samples kept per client.
const SAMPLES_PER_CLIENT: usize = 1024;

/// Cache tiers as `/personalize` names them.
pub const TIERS: [&str; 5] = ["exact", "warm", "repair", "miss", "off"];

/// Everything one run observed.
#[derive(Debug, Default)]
pub struct RunReport {
    pub outcome: Outcome,
    pub read_n: usize,
    pub op_n: usize,
    pub stale: u64,
    pub tiers: [u64; 5],
    pub audit: AuditReport,
    pub setups: Vec<SetupTimes>,
}

/// Latencies in completion order, grouped in 100-ms slices of the run's
/// clock, in units of 10 ns. Four bytes per op keeps the benchmark's own
/// memory small next to the server's in `peak_rss_mb`.
#[derive(Debug)]
struct Latencies {
    t0: Instant,
    slices: Vec<Vec<u32>>,
}

/// A failed op: +∞.
const FAILED: u32 = u32::MAX;

impl Latencies {
    fn new(t0: Instant) -> Latencies {
        Latencies {
            t0,
            slices: Vec::new(),
        }
    }

    fn push(&mut self, us: f64) {
        let slice = (self.t0.elapsed().as_millis() / 100) as usize;
        if self.slices.len() <= slice {
            self.slices.resize(slice + 1, Vec::new());
        }
        let tens_of_ns = if us.is_finite() {
            ((us * 100.0).round() as u64).min(u64::from(FAILED) - 1) as u32
        } else {
            FAILED
        };
        self.slices[slice].push(tens_of_ns);
    }

    /// Every client's latencies in µs, slice by slice.
    fn merged(all: &[&Latencies]) -> Vec<f64> {
        let slices = all.iter().map(|l| l.slices.len()).max().unwrap_or(0);
        (0..slices)
            .flat_map(|i| all.iter().filter_map(move |l| l.slices.get(i)).flatten())
            .map(|&v| {
                if v == FAILED {
                    f64::INFINITY
                } else {
                    f64::from(v) / 100.0
                }
            })
            .collect()
    }
}

/// One client's state across the run.
#[derive(Debug)]
struct ClientState {
    stream: Stream,
    versions: Versions,
    /// Personalize reads, and every op (reads and writes).
    reads: Latencies,
    ops: Latencies,
    reads_ok: u64,
    attempted: u64,
    failed: u64,
    stale: u64,
    write_bytes: u64,
    tiers: [u64; 5],
    sampler: Sampler,
}

impl ClientState {
    fn new(w: Workload, seed: u64, client: usize, t0: Instant) -> ClientState {
        ClientState {
            stream: Stream::new(w, seed, client),
            versions: Versions::new(),
            reads: Latencies::new(t0),
            ops: Latencies::new(t0),
            reads_ok: 0,
            attempted: 0,
            failed: 0,
            stale: 0,
            write_bytes: 0,
            tiers: [0; 5],
            sampler: Sampler::new(SAMPLES_PER_CLIENT),
        }
    }

    /// Records one op's latency, +∞ when it failed.
    fn record(&mut self, us: f64, ok: bool, read: bool) {
        self.attempted += 1;
        let us = if ok {
            us
        } else {
            self.failed += 1;
            f64::INFINITY
        };
        if read {
            self.reads.push(us);
            self.reads_ok += u64::from(ok);
        }
        self.ops.push(us);
    }

    /// Checks one personalize response: status 200, the profile version
    /// the client knows is current (older is a stale answer), and for
    /// sampled ops the audited fields.
    fn check_read(
        &mut self,
        resp: Result<cqp_server::http::ClientResponse, cqp_server::http::HttpError>,
        read: &Read,
        index: u64,
    ) -> Result<(), ReadError> {
        let resp = resp.map_err(|_| ReadError::Failed)?;
        if resp.status != 200 {
            return Err(ReadError::Failed);
        }
        let (version, variant) = self.versions.get(&read.user).copied().unwrap_or((1, None));
        match int_field(&resp.body, "profile_version") {
            Some(v) if v == version => {}
            Some(v) if v < version => return Err(ReadError::Stale),
            _ => return Err(ReadError::Failed),
        }
        if let Some(i) = tier(&resp.body) {
            self.tiers[i] += 1;
        }
        if self.sampler.wants(index) {
            let answer = std::str::from_utf8(&resp.body)
                .ok()
                .and_then(|b| json::parse(b).ok())
                .and_then(|b| Answer::from_response(&b))
                .ok_or(ReadError::Failed)?;
            self.sampler.push(
                index,
                Sample {
                    read: *read,
                    variant,
                    answer,
                },
            );
        }
        Ok(())
    }

    fn read(&mut self, client: &mut Client, read: &Read, index: u64) {
        let request = read.request();
        let t = Instant::now();
        let resp = client.send(&request);
        let us = t.elapsed().as_secs_f64() * 1e6;
        let checked = self.check_read(resp, read, index);
        if matches!(checked, Err(ReadError::Stale)) {
            self.stale += 1;
        }
        self.record(us, checked.is_ok(), true);
    }

    /// Replaces `user`'s profile with `variant`; the ack must carry the
    /// next version, since this client is the user's only writer.
    fn write(&mut self, client: &mut Client, universe: &Universe, user: u16, variant: u8) {
        let text = universe.text(user, Some(variant));
        let request = write_request(user, text);
        let t = Instant::now();
        let resp = client.send(&request);
        let us = t.elapsed().as_secs_f64() * 1e6;
        let (version, _) = self.versions.get(&user).copied().unwrap_or((1, None));
        let acked = resp
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| int_field(&r.body, "version"));
        let ok = acked == Some(version + 1);
        if ok {
            self.versions.insert(user, (version + 1, Some(variant)));
            self.write_bytes += text.len() as u64;
        }
        self.record(us, ok, false);
    }
}

/// Per-user `(version, variant)` the client knows is current. Every user
/// starts at version 1, the base profile loaded at set-up.
type Versions = HashMap<u16, (u64, Option<u8>)>;

enum ReadError {
    Failed,
    Stale,
}

/// The unsigned integer after `"key":` in a JSON body. The clients read
/// the fields they check on every op this way instead of parsing the whole
/// answer, so that client work stays small next to the server's.
fn int_field(body: &[u8], key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = body
        .windows(needle.len())
        .position(|w| w == needle.as_bytes())?
        + needle.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// The cache tier an answer names; the `cache` member is near the end.
fn tier(body: &[u8]) -> Option<usize> {
    const NEEDLE: &[u8] = b"\"cache\":\"";
    let at = body.windows(NEEDLE.len()).rposition(|w| w == NEEDLE)? + NEEDLE.len();
    let len = body[at..].iter().position(|&b| b == b'"')?;
    TIERS
        .iter()
        .position(|t| t.as_bytes() == &body[at..at + len])
}

/// Runs `body` for every client at once, each on a fresh thread with a
/// fresh connection, and waits for all of them.
fn run_clients(
    target: SocketAddr,
    states: &mut [ClientState],
    body: impl Fn(&mut Client, &mut ClientState) + Sync,
) {
    std::thread::scope(|s| {
        for state in states.iter_mut() {
            let body = &body;
            s.spawn(move || body(&mut Client::new(target), state));
        }
    });
}

/// Process CPU (user + system, every thread) in seconds, from
/// `/proc/self/stat` in clock ticks of 1/100 s.
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One segment of the timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    wall_s: f64,
    cpu_s: f64,
    reads_ok: u64,
    ops: u64,
}

/// What a run measured, before it becomes metrics.
#[derive(Debug, Clone, PartialEq)]
struct Measured {
    /// Read and op latencies in µs, in completion order, +∞ per failure.
    reads: Vec<f64>,
    ops: Vec<f64>,
    segments: Vec<Segment>,
    peak_rss_mib: f64,
    /// WAL bytes on every replica, and profile bytes sent, since boot.
    wal_bytes: u64,
    sent_bytes: u64,
    setup_s: f64,
    attempted: u64,
    failed: u64,
}

/// Median and p99 of samples in completion order; p99 is refused below
/// [`MIN_P99_SAMPLES`].
fn quantiles(name: &str, samples: &[f64]) -> Result<(Latency, f64), String> {
    let l = Latency::windowed(samples).ok_or_else(|| format!("no {name} samples"))?;
    let p99 = l.p99.ok_or_else(|| {
        format!(
            "{name} p99 needs at least {MIN_P99_SAMPLES} samples, got {}",
            l.n
        )
    })?;
    Ok((l, p99))
}

/// The end-to-end metrics of a run. Rates and CPU per op are medians over
/// the segments, latency quantiles medians over windows (see
/// [`Latency::windowed`]), so one burst of interference does not set them.
fn outcome(m: &Measured) -> Result<Outcome, String> {
    let (read, read_p99) = quantiles("read", &m.reads)?;
    let (op, op_p99) = quantiles("op", &m.ops)?;
    let per_segment =
        |f: &dyn Fn(&Segment) -> f64| median(&m.segments.iter().map(f).collect::<Vec<_>>());
    Ok(Outcome {
        correct: m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics: vec![
            ("setup_s", m.setup_s),
            ("read_rps", per_segment(&|s| s.reads_ok as f64 / s.wall_s)),
            ("read_p50_ms", read.p50 / 1e3),
            ("read_p99_ms", read_p99 / 1e3),
            ("op_p50_ms", op.p50 / 1e3),
            ("op_p99_ms", op_p99 / 1e3),
            (
                "cpu_ms_per_op",
                per_segment(&|s| s.cpu_s * 1e3 / s.ops.max(1) as f64),
            ),
            ("peak_rss_mb", m.peak_rss_mib),
            ("write_amp", m.wal_bytes as f64 / m.sent_bytes.max(1) as f64),
            (
                "ok_rate",
                (m.attempted - m.failed) as f64 / m.attempted.max(1) as f64,
            ),
        ],
    })
}

/// Successful reads and attempted ops so far, over every client.
fn counts(states: &[ClientState]) -> (u64, u64) {
    states
        .iter()
        .fold((0, 0), |(r, o), s| (r + s.reads_ok, o + s.attempted))
}

/// Runs workload `w` for `seconds` and reports its end-to-end metrics.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<RunReport, String> {
    let (stack, universe, first_setup) = Stack::boot(w, w.name())?;
    let t0 = Instant::now();
    let mut states: Vec<ClientState> = (0..CLIENTS)
        .map(|c| ClientState::new(w, seed, c, t0))
        .collect();
    let universe_ref = &universe;
    let mut segments = Vec::new();
    for _ in 0..SEGMENTS {
        let (reads_before, ops_before) = counts(&states);
        let cpu_before = cpu_seconds()?;
        let begin = Instant::now();
        let end = begin + Duration::from_secs_f64(seconds / f64::from(SEGMENTS));
        run_clients(stack.target, &mut states, |client, state| {
            while Instant::now() < end {
                let index = state.stream.index();
                match state.stream.next_op() {
                    Op::Read(read) => state.read(client, &read, index),
                    Op::Write { user, variant } => state.write(client, universe_ref, user, variant),
                }
            }
        });
        let wall_s = begin.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds()? - cpu_before;
        let (reads_after, ops_after) = counts(&states);
        segments.push(Segment {
            wall_s,
            cpu_s,
            reads_ok: reads_after - reads_before,
            ops: ops_after - ops_before,
        });
    }
    let peak_rss_mib = peak_rss_mib()?;
    let wal_bytes = stack.wal_bytes();
    let loaded_bytes = stack.loaded_bytes;
    stack.shutdown();

    let reads: Vec<&Latencies> = states.iter().map(|s| &s.reads).collect();
    let ops: Vec<&Latencies> = states.iter().map(|s| &s.ops).collect();
    let mut m = Measured {
        reads: Latencies::merged(&reads),
        ops: Latencies::merged(&ops),
        segments,
        peak_rss_mib,
        wal_bytes,
        sent_bytes: loaded_bytes,
        setup_s: 0.0,
        attempted: 0,
        failed: 0,
    };
    let mut report = RunReport::default();
    let mut samples = Vec::new();
    for state in states {
        m.attempted += state.attempted;
        m.failed += state.failed;
        m.sent_bytes += state.write_bytes;
        report.stale += state.stale;
        for (t, n) in report.tiers.iter_mut().zip(state.tiers) {
            *t += n;
        }
        samples.extend(state.sampler.into_samples());
    }
    report.audit = audit(&universe, &samples, CLIENTS);
    m.failed += report.audit.mismatches;
    report.read_n = m.reads.len();
    report.op_n = m.ops.len();
    drop(universe);

    report.setups.push(first_setup);
    for i in 1..SETUPS {
        let (stack, _, times) = Stack::boot(w, &format!("{}-setup{i}", w.name()))?;
        stack.shutdown();
        report.setups.push(times);
    }
    m.setup_s = median(&report.setups.iter().map(|t| t.total_s).collect::<Vec<_>>());
    report.outcome = outcome(&m)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    #[test]
    fn fields_are_read_without_parsing_the_answer() {
        let body = br#"{"user":"u001","profile_version":12,"sql":"SELECT \"cache\":\"x\"","cache":"repair","latency_us":5}"#;
        assert_eq!(int_field(body, "profile_version"), Some(12));
        assert_eq!(int_field(body, "latency_us"), Some(5));
        assert_eq!(int_field(body, "version"), None);
        assert_eq!(tier(body), Some(2));
        assert_eq!(tier(b"{}"), None);
    }

    #[test]
    fn latencies_keep_completion_order_and_failures() {
        let t0 = Instant::now();
        let (mut a, mut b) = (Latencies::new(t0), Latencies::new(t0));
        a.push(1.5);
        b.push(2.25);
        a.push(f64::INFINITY);
        assert_eq!(Latencies::merged(&[&a, &b]), vec![1.5, f64::INFINITY, 2.25]);
    }

    fn measured(ops: usize, failed_every: usize) -> Measured {
        let lat: Vec<f64> = (0..ops)
            .map(|i| {
                if failed_every > 0 && i % failed_every == 0 {
                    f64::INFINITY
                } else {
                    100.0 + (i % 10) as f64
                }
            })
            .collect();
        let failed = lat.iter().filter(|x| x.is_infinite()).count() as u64;
        Measured {
            reads: lat.clone(),
            ops: lat,
            segments: vec![Segment {
                wall_s: 1.0,
                cpu_s: 0.5,
                reads_ok: ops as u64 - failed,
                ops: ops as u64,
            }],
            peak_rss_mib: 20.0,
            wal_bytes: 1079,
            sent_bytes: 1000,
            setup_s: 0.3,
            attempted: ops as u64,
            failed,
        }
    }

    #[test]
    fn a_clean_run_prints_every_metric() {
        let o = outcome(&measured(2000, 0)).unwrap();
        assert!(o.correct);
        assert_eq!(o.exit_code(), 0);
        assert_eq!(o.value("ok_rate"), Some(1.0));
        assert_eq!(o.value("write_amp"), Some(1.079));
        assert!(o.result_json(&END_TO_END).is_ok());
    }

    #[test]
    fn a_run_with_failures_still_prints_its_result_line_and_exits_1() {
        // One op in 50 fails: 2% of samples are +∞, so p99 is +∞.
        let o = outcome(&measured(2000, 50)).unwrap();
        assert!(!o.correct);
        assert_eq!(o.value("op_p99_ms"), Some(f64::INFINITY));
        assert_eq!(o.value("ok_rate"), Some(0.98));
        let line = o.result_json(&END_TO_END).unwrap().render();
        let parsed = json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("correct").and_then(cqp_obs::Json::as_bool),
            Some(false)
        );
        assert_eq!(
            parsed.get("failed").and_then(cqp_obs::Json::as_u64),
            Some(40)
        );
        let p99 = parsed
            .get("metrics")
            .and_then(|m| m.get("op_p99_ms"))
            .unwrap();
        assert_eq!(p99.get("value"), Some(&cqp_obs::Json::Null));
        assert_eq!(o.exit_code(), 1);
        // Too short a run to have a p99 is an error, not a result.
        assert!(outcome(&measured(999, 0)).is_err());
    }
}
