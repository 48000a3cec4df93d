//! Seeded load drivers over real sockets: closed loop, open loop and chaos.
//!
//! The drivers are pure clients. They need only an address, so they work
//! against an in-process server and an external `serverd` alike, and they
//! share one request renderer and one seeded stream derivation:
//!
//! * **Closed loop** ([`run_load`]). Each client thread keeps exactly one
//!   request in flight over one keep-alive connection, so offered load
//!   adapts to observed latency. This measures what a well-behaved client
//!   sees, not the queue blow-up of an open firehose.
//! * **Open loop** ([`run_conn_scale`]), the C10k harness:
//!   1. an idle herd of keep-alive connections is dialed and held silent.
//!      Each costs the server a registration, not a thread, and the server
//!      must reap every one on its idle deadline. A connection the server
//!      never closes is a *leak*, the number this mode exists to measure;
//!   2. slowloris drippers send a request head one byte at a time,
//!      forever, and the read deadline must answer `408` (or sever) each;
//!   3. lanes send requests on a fixed wall-clock schedule, *not* when the
//!      previous response returns. Latency is measured against the
//!      scheduled send instant, so server-side queueing is charged to the
//!      server (no coordinated omission).
//! * **Chaos** ([`run_chaos`]). A client misbehaves in a few canonical
//!   ways, each a distinct server-side code path: a truncated head is an
//!   EOF mid-parse, a mid-body disconnect is an EOF mid-read, a slowloris
//!   is a drip that never finishes, and garbage bytes are a parse failure.
//!   Every attack cuts one valid personalize request, and each connection
//!   ends answered (a well-formed error response), reaped (closed without
//!   an answer because no answerable request arrived) or leaked.
//!
//! Determinism: every seeded choice (the request mix, the trace IDs, the
//! chaos cut points and garbage bytes) is drawn from a splitmix64 stream
//! that is a pure function of `(seed, salt, lane, index)`. Each use has its
//! own salt, so enabling one never perturbs another, and a failing case
//! replays exactly. Latencies and reap timing are wall-clock and vary.

use cqp_obs::{Histogram, Json};
use cqp_server::http::{parse_response, ClientResponse, HttpError};
use cqp_server::{json, TRACE_ID_HEADER};
use rand::splitmix64;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Stream salt of the request mix.
const MIX: u64 = 0x5851_f42d_4c95_7f2d;
/// Stream salt of the explicit trace IDs.
const TRACE: u64 = 0xa076_1d64_78bd_642f;
/// Stream salt of the chaos cut points and garbage bytes.
const CHAOS: u64 = 0x8f0c_93a1_6f12_c52b;

/// The splitmix64 state for draw `index` of `lane` (a client, an
/// open-loop lane or a chaos mode) on the `salt` stream.
fn stream(seed: u64, salt: u64, lane: usize, index: usize) -> u64 {
    seed.wrapping_mul(salt)
        .wrapping_add((lane as u64) << 32)
        .wrapping_add(index as u64)
}

fn pick<'a, T>(items: &'a [T], state: &mut u64) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[(splitmix64(state) % items.len() as u64) as usize])
    }
}

/// p50, p95 and p99 of `latencies` in microseconds.
fn quantiles(latencies: impl IntoIterator<Item = u64>) -> [u64; 3] {
    let mut histogram = Histogram::default();
    for l in latencies {
        histogram.observe(l);
    }
    [0.50, 0.95, 0.99].map(|q| histogram.quantile(q))
}

/// The head of a personalize request with a `body_len`-byte body and an
/// optional explicit trace ID: the one head every driver sends.
fn personalize_head(body_len: usize, trace_id: Option<&str>) -> String {
    let mut head =
        format!("POST /personalize HTTP/1.1\r\nhost: cqp\r\ncontent-length: {body_len}\r\n");
    if let Some(id) = trace_id {
        head.push_str(&format!("{TRACE_ID_HEADER}: {id}\r\n"));
    }
    head.push_str("\r\n");
    head
}

/// Shape of the generated load.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Mix seed.
    pub seed: u64,
    /// User ids to draw from (must exist on the server).
    pub users: Vec<String>,
    /// Base SQL texts to draw from.
    pub queries: Vec<String>,
    /// Algorithm tokens to draw from (as accepted by the API).
    pub algorithms: Vec<String>,
    /// Problem objects to draw from, each rendered as a JSON fragment
    /// (e.g. `{"kind":"p2","cmax":500}`).
    pub problems: Vec<String>,
    /// Per-mille of requests sent with a 0-ms deadline — these must come
    /// back 200 but *degraded* (the resilience path under load).
    pub zero_deadline_permille: u32,
    /// Personalization depths to draw from; a negative entry means the
    /// full profile.
    pub top_k_choices: Vec<i64>,
    /// Send an explicit `x-cqp-trace-id` header on every Nth request per
    /// client (0 = never). The ID is a pure function of `(seed, client,
    /// index)`, and the client verifies the server echoes it back.
    pub trace_every: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 4,
            requests_per_client: 25,
            seed: 42,
            users: Vec::new(),
            queries: Vec::new(),
            algorithms: vec!["c_maxbounds".to_string(), "d_maxdoi".to_string()],
            problems: vec!["{\"kind\":\"p2\",\"cmax\":2000}".to_string()],
            zero_deadline_permille: 100,
            top_k_choices: vec![-1, 2, 4],
            trace_every: 0,
        }
    }
}

/// What the generated load observed.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests attempted.
    pub requests: u64,
    /// 200s.
    pub ok: u64,
    /// 200s whose solution was budget-degraded.
    pub degraded: u64,
    /// 429s (admission shed).
    pub rejected: u64,
    /// 503s (queue timeout / transient backend).
    pub unavailable: u64,
    /// Other 4xx.
    pub client_errors: u64,
    /// 5xx other than 503.
    pub server_errors: u64,
    /// Requests lost to socket-level failures.
    pub io_errors: u64,
    /// End-to-end latency quantiles over 200 responses, microseconds.
    pub p50_us: u64,
    /// 95th percentile, microseconds.
    pub p95_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Wall-clock of the whole run, seconds.
    pub wall_secs: f64,
    /// Completed requests per wall-clock second.
    pub requests_per_sec: f64,
    /// Requests sent with an explicit trace-ID header.
    pub traced: u64,
    /// Traced responses whose `x-cqp-trace-id` echo did not match.
    pub trace_mismatches: u64,
    /// 200s served from the answer cache's exact tier.
    pub cache_exact: u64,
    /// 200s served via the warm tier (space reuse + pruning seed).
    pub cache_warm: u64,
    /// 200s served via the repair tier (cached family at an older profile
    /// version; solved cold).
    pub cache_repair: u64,
    /// 200s that missed the answer cache.
    pub cache_miss: u64,
    /// 200s served with the answer cache absent or bypassed.
    pub cache_off: u64,
}

impl LoadReport {
    /// The report as a JSON object.
    pub fn to_json(&self) -> Json {
        let rate = |n: u64| {
            if self.requests == 0 {
                0.0
            } else {
                n as f64 / self.requests as f64
            }
        };
        Json::obj(vec![
            ("requests", Json::from(self.requests)),
            ("ok", Json::from(self.ok)),
            ("degraded", Json::from(self.degraded)),
            ("rejected", Json::from(self.rejected)),
            ("unavailable", Json::from(self.unavailable)),
            ("client_errors", Json::from(self.client_errors)),
            ("server_errors", Json::from(self.server_errors)),
            ("io_errors", Json::from(self.io_errors)),
            ("degraded_rate", Json::from(rate(self.degraded))),
            ("reject_rate", Json::from(rate(self.rejected))),
            ("p50_us", Json::from(self.p50_us)),
            ("p95_us", Json::from(self.p95_us)),
            ("p99_us", Json::from(self.p99_us)),
            ("wall_secs", Json::from(self.wall_secs)),
            ("requests_per_sec", Json::from(self.requests_per_sec)),
            ("traced", Json::from(self.traced)),
            ("trace_mismatches", Json::from(self.trace_mismatches)),
            ("cache_exact", Json::from(self.cache_exact)),
            ("cache_warm", Json::from(self.cache_warm)),
            ("cache_repair", Json::from(self.cache_repair)),
            ("cache_miss", Json::from(self.cache_miss)),
            ("cache_off", Json::from(self.cache_off)),
            ("cache_hit_rate", Json::from(self.cache_hit_rate())),
        ])
    }

    /// Fraction of 200s that avoided a cold solve via the exact or warm
    /// tier.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            (self.cache_exact + self.cache_warm) as f64 / self.ok as f64
        }
    }
}

/// One HTTP client over one keep-alive connection, reconnecting when the
/// server closes it.
struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            addr,
            stream,
            reader,
        })
    }

    fn personalize(
        &mut self,
        body: &str,
        trace_id: Option<&str>,
    ) -> Result<ClientResponse, HttpError> {
        let head = personalize_head(body.len(), trace_id);
        match self.send(&head, body) {
            // One reconnect per request: a keep-alive close between
            // requests is normal, a second failure is a real error.
            Err(HttpError::ConnectionClosed | HttpError::Io(_)) => {
                *self = Client::connect(self.addr)?;
                self.send(&head, body)
            }
            other => other,
        }
    }

    fn send(&mut self, head: &str, body: &str) -> Result<ClientResponse, HttpError> {
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()?;
        parse_response(&mut self.reader)
    }
}

/// Renders the personalize body for `(client, index)` of the mix. The
/// closed-loop clients, the open-loop lanes and the chaos template all
/// draw from it.
fn render_request(config: &LoadConfig, client: usize, index: usize) -> Option<String> {
    let mut state = stream(config.seed, MIX, client, index);
    // Warm the stream so nearby (client, index) pairs decorrelate.
    splitmix64(&mut state);
    let user = pick(&config.users, &mut state)?;
    let sql = pick(&config.queries, &mut state)?;
    let problem = pick(&config.problems, &mut state)?;
    let algorithm = pick(&config.algorithms, &mut state);
    let top_k = pick(&config.top_k_choices, &mut state).copied();
    let zero_deadline = splitmix64(&mut state) % 1000 < u64::from(config.zero_deadline_permille);
    let mut body = format!(
        "{{\"user\":{},\"sql\":{},\"problem\":{problem}",
        Json::from(user.as_str()).render(),
        Json::from(sql.as_str()).render(),
    );
    if let Some(a) = algorithm {
        body.push_str(&format!(
            ",\"algorithm\":{}",
            Json::from(a.as_str()).render()
        ));
    }
    if let Some(k) = top_k {
        if k >= 0 {
            body.push_str(&format!(",\"top_k\":{k}"));
        }
    }
    if zero_deadline {
        body.push_str(",\"deadline_ms\":0");
    }
    body.push('}');
    Some(body)
}

/// The deterministic trace ID for `(seed, client, index)`.
fn trace_id_for(config: &LoadConfig, client: usize, index: usize) -> String {
    let mut state = stream(config.seed, TRACE, client, index);
    format!("{:016x}", splitmix64(&mut state))
}

/// Runs the configured load against a server and aggregates what the
/// clients saw. Returns an `io::Error` only when a client cannot connect
/// at all; per-request socket failures are counted in the report.
pub fn run_load(addr: SocketAddr, config: &LoadConfig) -> io::Result<LoadReport> {
    if config.users.is_empty() || config.queries.is_empty() || config.problems.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "load config needs at least one user, query, and problem",
        ));
    }
    let t0 = Instant::now();
    let per_client: Vec<(Vec<u64>, LoadReport)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..config.clients.max(1))
            .map(|c| s.spawn(move || client_loop(addr, config, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(Ok(r)) => r,
                // A client that died whole-sale: count its planned
                // requests as io errors.
                _ => (
                    Vec::new(),
                    LoadReport {
                        requests: config.requests_per_client as u64,
                        io_errors: config.requests_per_client as u64,
                        ..LoadReport::default()
                    },
                ),
            })
            .collect()
    });
    let wall_secs = t0.elapsed().as_secs_f64();

    let mut report = LoadReport::default();
    let mut latencies = Vec::new();
    for (lats, partial) in per_client {
        report.requests += partial.requests;
        report.ok += partial.ok;
        report.degraded += partial.degraded;
        report.rejected += partial.rejected;
        report.unavailable += partial.unavailable;
        report.client_errors += partial.client_errors;
        report.server_errors += partial.server_errors;
        report.io_errors += partial.io_errors;
        report.traced += partial.traced;
        report.trace_mismatches += partial.trace_mismatches;
        report.cache_exact += partial.cache_exact;
        report.cache_warm += partial.cache_warm;
        report.cache_repair += partial.cache_repair;
        report.cache_miss += partial.cache_miss;
        report.cache_off += partial.cache_off;
        latencies.extend(lats);
    }
    [report.p50_us, report.p95_us, report.p99_us] = quantiles(latencies);
    report.wall_secs = wall_secs;
    let completed = report.requests - report.io_errors;
    report.requests_per_sec = if wall_secs > 0.0 {
        completed as f64 / wall_secs
    } else {
        0.0
    };
    Ok(report)
}

fn client_loop(
    addr: SocketAddr,
    config: &LoadConfig,
    client_id: usize,
) -> io::Result<(Vec<u64>, LoadReport)> {
    let mut client = Client::connect(addr)?;
    let mut report = LoadReport::default();
    let mut latencies = Vec::with_capacity(config.requests_per_client);
    for i in 0..config.requests_per_client {
        let Some(body) = render_request(config, client_id, i) else {
            break;
        };
        report.requests += 1;
        let trace_id = (config.trace_every > 0 && (i as u64) % config.trace_every == 0)
            .then(|| trace_id_for(config, client_id, i));
        let t = Instant::now();
        match client.personalize(&body, trace_id.as_deref()) {
            Err(_) => report.io_errors += 1,
            Ok(resp) => {
                let us = t.elapsed().as_micros() as u64;
                if let Some(id) = &trace_id {
                    report.traced += 1;
                    if resp.header(TRACE_ID_HEADER) != Some(id.as_str()) {
                        report.trace_mismatches += 1;
                    }
                }
                match resp.status {
                    200 => {
                        report.ok += 1;
                        latencies.push(us);
                        let parsed = json::parse(&resp.body_text()).ok();
                        let field = |k: &str| parsed.as_ref().and_then(|j| j.get(k));
                        if field("solution")
                            .and_then(|s| s.get("degraded"))
                            .is_some_and(|d| !matches!(d, Json::Null))
                        {
                            report.degraded += 1;
                        }
                        match field("cache").and_then(Json::as_str) {
                            Some("exact") => report.cache_exact += 1,
                            Some("warm") => report.cache_warm += 1,
                            Some("repair") => report.cache_repair += 1,
                            Some("miss") => report.cache_miss += 1,
                            _ => report.cache_off += 1,
                        }
                    }
                    429 => report.rejected += 1,
                    503 => report.unavailable += 1,
                    400..=499 => report.client_errors += 1,
                    _ => report.server_errors += 1,
                }
            }
        }
    }
    Ok((latencies, report))
}

/// Shape of one connection-scale run.
#[derive(Debug, Clone)]
pub struct ConnScaleConfig {
    /// Silent keep-alive connections to dial and hold.
    pub idle_conns: usize,
    /// Slow-dripping writers the read deadline must reap.
    pub slowloris_conns: usize,
    /// Milliseconds between dripped bytes.
    pub drip_interval_ms: u64,
    /// Open-loop writer/reader lane pairs.
    pub lanes: usize,
    /// Scheduled requests per second, per lane.
    pub lane_rps: u64,
    /// Scheduled requests per lane.
    pub lane_requests: usize,
    /// Request mix for the lanes (lane `i` draws client `i`'s stream;
    /// `mix.seed` rules).
    pub mix: LoadConfig,
    /// How long to wait for the server to reap the idle herd and the
    /// drippers before declaring the remainder leaked. Must exceed the
    /// server's `read_timeout_ms` or everything reads as a leak.
    pub reap_patience_ms: u64,
    /// Connections dialed back-to-back before a 1 ms breather, so the
    /// herd doesn't overrun the listen backlog.
    pub connect_burst: usize,
}

/// What the connection-scale run observed.
#[derive(Debug, Clone, Default)]
pub struct ConnScaleReport {
    /// Idle connections requested by the config.
    pub idle_target: u64,
    /// Idle connections actually established.
    pub idle_opened: u64,
    /// Idle dials refused by the OS or the server.
    pub idle_connect_errors: u64,
    /// Idle connections the server closed within patience.
    pub idle_reaped: u64,
    /// Idle connections still open after patience — must be zero.
    pub idle_leaked: u64,
    /// Dripping writers established.
    pub slowloris_opened: u64,
    /// Dripper dials that failed outright.
    pub slowloris_connect_errors: u64,
    /// Drippers answered `408` or severed within patience.
    pub slowloris_reaped: u64,
    /// Drippers still dripping after patience — must be zero.
    pub slowloris_leaked: u64,
    /// Requests the lanes actually wrote.
    pub lane_requests: u64,
    /// Lane 200s.
    pub lane_ok: u64,
    /// Lane 429s/503s (shed under pressure is an answer, not a failure).
    pub lane_shed: u64,
    /// Other lane statuses.
    pub lane_errors: u64,
    /// Lane requests written but never answered.
    pub lane_io_errors: u64,
    /// Open-loop latency quantiles (vs the *scheduled* send instant),
    /// microseconds, over lane 200s.
    pub open_loop_p50_us: u64,
    /// 95th percentile, microseconds.
    pub open_loop_p95_us: u64,
    /// 99th percentile, microseconds.
    pub open_loop_p99_us: u64,
    /// Wall-clock of the whole run, seconds.
    pub wall_secs: f64,
}

impl ConnScaleReport {
    /// Connections the server never closed — the pass/fail number.
    pub fn leaked(&self) -> u64 {
        self.idle_leaked + self.slowloris_leaked
    }
}

/// Per-lane tallies, merged into the report.
#[derive(Debug, Default)]
struct LaneStats {
    written: u64,
    ok: u64,
    shed: u64,
    errors: u64,
    io_errors: u64,
    latencies: Vec<u64>,
}

/// Runs the full scenario: dial the idle herd, then drippers and lanes
/// concurrently, then wait for the server to reap everything it should.
/// Errors only on config nonsense; connection failures are counted.
pub fn run_conn_scale(addr: SocketAddr, config: &ConnScaleConfig) -> io::Result<ConnScaleReport> {
    if config.lanes > 0
        && (config.mix.users.is_empty()
            || config.mix.queries.is_empty()
            || config.mix.problems.is_empty())
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "conn-scale lanes need at least one user, query, and problem in the mix",
        ));
    }
    // The herd costs this process one fd per connection; ask for the
    // headroom up front (best effort — the hard limit rules).
    let _ = cqp_sys::raise_nofile_limit(
        (config.idle_conns + config.slowloris_conns + config.lanes) as u64 + 256,
    );
    let t0 = Instant::now();
    let mut report = ConnScaleReport {
        idle_target: config.idle_conns as u64,
        ..ConnScaleReport::default()
    };

    // Phase 1: the idle herd, dialed in bursts.
    let mut idle: Vec<TcpStream> = Vec::with_capacity(config.idle_conns);
    for i in 0..config.idle_conns {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                idle.push(s);
            }
            Err(_) => report.idle_connect_errors += 1,
        }
        if config.connect_burst > 0 && (i + 1) % config.connect_burst == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    report.idle_opened = idle.len() as u64;

    // Phases 2 + 3 concurrently: drippers hold read deadlines hostage
    // while the lanes push scheduled traffic through the same reactor.
    let patience = Duration::from_millis(config.reap_patience_ms.max(1));
    let drip = Duration::from_millis(config.drip_interval_ms.max(1));
    let (slow_outcomes, lane_stats) = std::thread::scope(|s| {
        let slow: Vec<_> = (0..config.slowloris_conns)
            .map(|_| s.spawn(move || slowloris(addr, usize::MAX, drip, patience)))
            .collect();
        let lanes: Vec<_> = (0..config.lanes)
            .map(|lane| s.spawn(move || run_lane(addr, config, lane, patience)))
            .collect();
        let slow_outcomes: Vec<io::Result<ChaosOutcome>> = slow
            .into_iter()
            .map(|h| h.join().unwrap_or(Ok(ChaosOutcome::Leaked)))
            .collect();
        let lane_stats: Vec<LaneStats> = lanes
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect();
        (slow_outcomes, lane_stats)
    });
    for outcome in slow_outcomes {
        match outcome {
            Err(_) => report.slowloris_connect_errors += 1,
            Ok(ChaosOutcome::Leaked) => {
                report.slowloris_opened += 1;
                report.slowloris_leaked += 1;
            }
            Ok(_) => {
                report.slowloris_opened += 1;
                report.slowloris_reaped += 1;
            }
        }
    }
    let mut latencies = Vec::new();
    for lane in lane_stats {
        report.lane_requests += lane.written;
        report.lane_ok += lane.ok;
        report.lane_shed += lane.shed;
        report.lane_errors += lane.errors;
        report.lane_io_errors += lane.io_errors;
        latencies.extend(lane.latencies);
    }
    [
        report.open_loop_p50_us,
        report.open_loop_p95_us,
        report.open_loop_p99_us,
    ] = quantiles(latencies);

    // Phase 4: the server must close every idle connection on its own.
    // Non-blocking reads: a closed socket reads Ok(0) instantly, a live
    // one is WouldBlock, and any parting bytes (a backend that answers
    // before closing) get consumed so the EOF behind them is reachable.
    for s in &idle {
        let _ = s.set_nonblocking(true);
    }
    let reap_deadline = Instant::now() + patience;
    let mut buf = [0u8; 512];
    loop {
        idle.retain(|s| {
            let mut r: &TcpStream = s;
            loop {
                match r.read(&mut buf) {
                    Ok(0) => {
                        report.idle_reaped += 1;
                        return false;
                    }
                    Ok(_) => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                    Err(_) => {
                        // A reset is the server closing with bytes in
                        // flight — reaped, just unceremoniously.
                        report.idle_reaped += 1;
                        return false;
                    }
                }
            }
        });
        if idle.is_empty() || Instant::now() >= reap_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    report.idle_leaked = idle.len() as u64;
    report.wall_secs = t0.elapsed().as_secs_f64();
    Ok(report)
}

/// One open-loop lane: a writer pushes requests at their scheduled
/// instants over one keep-alive connection while a reader (this thread)
/// scores responses against the schedule.
fn run_lane(
    addr: SocketAddr,
    config: &ConnScaleConfig,
    lane: usize,
    patience: Duration,
) -> LaneStats {
    let mut stats = LaneStats::default();
    let n = config.lane_requests;
    let Ok(stream) = TcpStream::connect(addr) else {
        return stats;
    };
    let _ = stream.set_nodelay(true);
    let Ok(reader_stream) = stream.try_clone() else {
        return stats;
    };
    let _ = reader_stream.set_read_timeout(Some(patience));
    let rps = config.lane_rps.max(1);
    let schedule: Vec<Duration> = (0..n)
        .map(|i| Duration::from_micros(i as u64 * 1_000_000 / rps))
        .collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut w = &stream;
            let mut written = 0usize;
            for (i, offset) in schedule.iter().enumerate() {
                let sched = start + *offset;
                let now = Instant::now();
                if sched > now {
                    std::thread::sleep(sched - now);
                }
                let Some(body) = render_request(&config.mix, lane, i) else {
                    break;
                };
                let head = personalize_head(body.len(), None);
                if w.write_all(head.as_bytes())
                    .and_then(|()| w.write_all(body.as_bytes()))
                    .is_err()
                {
                    break;
                }
                written += 1;
            }
            // Half-close: the server finishes the pipelined tail, then
            // closes, handing the reader a clean EOF.
            let _ = stream.shutdown(Shutdown::Write);
            written
        });
        let mut reader = BufReader::new(&reader_stream);
        let mut answered = 0u64;
        for offset in &schedule {
            match parse_response(&mut reader) {
                Ok(resp) => {
                    answered += 1;
                    let us = (start + *offset).elapsed().as_micros() as u64;
                    match resp.status {
                        200 => {
                            stats.ok += 1;
                            stats.latencies.push(us);
                        }
                        429 | 503 => stats.shed += 1,
                        _ => stats.errors += 1,
                    }
                }
                Err(_) => break,
            }
        }
        let written = writer.join().unwrap_or(0) as u64;
        stats.written = written;
        stats.io_errors = written.saturating_sub(answered);
    });
    stats
}

/// One way a client can misbehave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Sends a prefix of a valid request head, then closes.
    TruncatedHead,
    /// Sends a full head with a `Content-Length`, a prefix of the body,
    /// then closes.
    MidBodyDisconnect,
    /// Drips head bytes slower than the server's read deadline.
    Slowloris,
    /// Sends seeded random bytes that are not HTTP at all.
    GarbageBytes,
}

impl ChaosMode {
    /// All modes, in the order the harness runs them.
    pub const ALL: [ChaosMode; 4] = [
        ChaosMode::TruncatedHead,
        ChaosMode::MidBodyDisconnect,
        ChaosMode::Slowloris,
        ChaosMode::GarbageBytes,
    ];

    /// Stable lowercase tag for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ChaosMode::TruncatedHead => "truncated_head",
            ChaosMode::MidBodyDisconnect => "mid_body_disconnect",
            ChaosMode::Slowloris => "slowloris",
            ChaosMode::GarbageBytes => "garbage_bytes",
        }
    }
}

/// How one attacked connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// The server answered with a well-formed HTTP response of this
    /// status before closing.
    Answered {
        /// The response status code.
        status: u16,
    },
    /// The server closed the connection without a response — the correct
    /// end for a connection that never produced an answerable request.
    Reaped,
    /// The connection was still open when the client's patience ran out.
    /// Always a failure: the server is leaking the connection.
    Leaked,
}

/// Harness parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Server address, e.g. `127.0.0.1:9142`.
    pub addr: String,
    /// Seed for payload generation.
    pub seed: u64,
    /// Attacks per mode.
    pub iterations: usize,
    /// How long the client waits, from the end of its send, for the server
    /// to answer or reap before declaring the connection leaked. A
    /// slowloris counts it from the first dripped byte. Must comfortably
    /// exceed the server's per-connection read deadline.
    pub patience_ms: u64,
    /// Milliseconds between dripped slowloris bytes.
    pub drip_interval_ms: u64,
    /// Total bytes a slowloris connection drips before going silent.
    pub drip_bytes: usize,
}

/// Per-mode outcomes of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// `(mode, outcomes)` in execution order.
    pub outcomes: Vec<(ChaosMode, Vec<ChaosOutcome>)>,
}

impl ChaosReport {
    /// All outcomes for `mode`.
    pub fn for_mode(&self, mode: ChaosMode) -> &[ChaosOutcome] {
        self.outcomes
            .iter()
            .find(|(m, _)| *m == mode)
            .map(|(_, o)| o.as_slice())
            .unwrap_or(&[])
    }

    /// Connections the server never answered nor reaped.
    pub fn leaked(&self) -> usize {
        self.outcomes
            .iter()
            .flat_map(|(_, o)| o)
            .filter(|o| matches!(o, ChaosOutcome::Leaked))
            .count()
    }

    /// Connections answered with a status in `[400, 500)`.
    pub fn answered_4xx(&self) -> usize {
        self.outcomes
            .iter()
            .flat_map(|(_, o)| o)
            .filter(
                |o| matches!(o, ChaosOutcome::Answered { status } if (400..500).contains(status)),
            )
            .count()
    }

    /// Connections the server reaped without answering.
    pub fn reaped(&self) -> usize {
        self.outcomes
            .iter()
            .flat_map(|(_, o)| o)
            .filter(|o| matches!(o, ChaosOutcome::Reaped))
            .count()
    }
}

/// The valid personalize request (head, body) every attack cuts: the
/// shared renderer's first draw for `user0001`, the first user a server
/// seeds, without a deadline.
fn template_request() -> (String, String) {
    let mix = LoadConfig {
        users: vec!["user0001".to_string()],
        queries: vec!["SELECT title FROM MOVIE".to_string()],
        zero_deadline_permille: 0,
        ..LoadConfig::default()
    };
    let body = render_request(&mix, 0, 0).unwrap_or_default();
    (personalize_head(body.len(), None), body)
}

/// Slowloris bytes: the template head without its closing blank line,
/// then header-name filler. No prefix of them is ever a complete head.
fn drip_source(head: &str) -> impl Iterator<Item = u8> + '_ {
    head.as_bytes()[..head.len() - 2]
        .iter()
        .copied()
        .chain(std::iter::repeat(b'x'))
}

/// Runs every mode `iterations` times against `cfg.addr`.
pub fn run_chaos(cfg: &ChaosConfig) -> io::Result<ChaosReport> {
    let mut outcomes = Vec::new();
    for (mi, mode) in ChaosMode::ALL.iter().enumerate() {
        let mut per_mode = Vec::new();
        for i in 0..cfg.iterations {
            per_mode.push(attack(cfg, *mode, stream(cfg.seed, CHAOS, mi, i))?);
        }
        outcomes.push((*mode, per_mode));
    }
    Ok(ChaosReport { outcomes })
}

/// Runs one attack, drawing its cut point or garbage from `state`, and
/// classifies how the connection ended.
fn attack(cfg: &ChaosConfig, mode: ChaosMode, mut state: u64) -> io::Result<ChaosOutcome> {
    let drip = Duration::from_millis(cfg.drip_interval_ms.max(1));
    let patience = Duration::from_millis(cfg.patience_ms.max(1));
    let (head, body) = template_request();
    let r = splitmix64(&mut state) as usize;
    let payload = match mode {
        // Cut strictly inside the head: at least 1 byte sent, and the
        // terminating blank line never arrives.
        ChaosMode::TruncatedHead => head.as_bytes()[..1 + r % (head.len() - 4)].to_vec(),
        ChaosMode::MidBodyDisconnect => {
            let mut payload = head.into_bytes();
            payload.extend_from_slice(&body.as_bytes()[..r % body.len()]);
            payload
        }
        // Drip head bytes, never finishing, then go silent with the
        // connection open: only the server's read deadline can end it.
        ChaosMode::Slowloris => return slowloris(&cfg.addr, cfg.drip_bytes, drip, patience),
        ChaosMode::GarbageBytes => {
            let mut garbage: Vec<u8> = (0..16 + r % 64)
                .map(|_| splitmix64(&mut state) as u8)
                // Avoid an accidental newline terminating a "request
                // line" cleanly: raw garbage should fail the parser.
                .map(|b| if b == b'\n' || b == b'\r' { b'X' } else { b })
                .collect();
            // Terminate the line: the parser sees garbage.
            garbage.extend_from_slice(b"\r\n");
            garbage
        }
    };
    let stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    (&stream).write_all(&payload)?;
    if mode != ChaosMode::GarbageBytes {
        stream.shutdown(Shutdown::Write)?;
    }
    await_end(&stream, std::iter::empty(), drip, patience)
}

/// One slowloris connection to `addr`: drips `bytes` bytes of
/// [`drip_source`], one per `interval`, then waits silently.
fn slowloris<A: std::net::ToSocketAddrs>(
    addr: A,
    bytes: usize,
    interval: Duration,
    patience: Duration,
) -> io::Result<ChaosOutcome> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let (head, _) = template_request();
    await_end(&stream, drip_source(&head).take(bytes), interval, patience)
}

/// Writes `drip` one byte per `interval`, reading between bytes, until
/// the server answers, closes, or `patience` elapses: a complete response
/// is `Answered`, an EOF or a reset without one is `Reaped`, and a
/// connection still open at the deadline is `Leaked`.
fn await_end(
    mut stream: &TcpStream,
    mut drip: impl Iterator<Item = u8>,
    interval: Duration,
    patience: Duration,
) -> io::Result<ChaosOutcome> {
    // The read timeout doubles as the drip pacing.
    stream.set_read_timeout(Some(interval))?;
    let deadline = Instant::now() + patience;
    let mut dripping = true;
    let mut received = Vec::new();
    let mut buf = [0u8; 512];
    while Instant::now() < deadline {
        if dripping {
            if let Some(b) = drip.next() {
                // A failed write means the server already gave up on us:
                // stop dripping and read what it sent before closing.
                dripping = stream.write_all(&[b]).is_ok();
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(ChaosOutcome::Reaped),
            Ok(n) => {
                received.extend_from_slice(&buf[..n]);
                if let Ok(resp) = parse_response(&mut received.as_slice()) {
                    return Ok(ChaosOutcome::Answered {
                        status: resp.status,
                    });
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return Ok(ChaosOutcome::Reaped),
        }
    }
    Ok(ChaosOutcome::Leaked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn request_mix_is_deterministic_in_the_seed() {
        let config = LoadConfig {
            users: vec!["a".into(), "b".into(), "c".into()],
            queries: vec![
                "SELECT title FROM MOVIE".into(),
                "SELECT name FROM DIRECTOR".into(),
            ],
            ..LoadConfig::default()
        };
        for client in 0..3 {
            for i in 0..10 {
                assert_eq!(
                    render_request(&config, client, i),
                    render_request(&config, client, i)
                );
            }
        }
        // Different seeds really change the mix somewhere in the stream.
        let reseeded = LoadConfig {
            seed: 43,
            ..config.clone()
        };
        let differs =
            (0..50).any(|i| render_request(&config, 0, i) != render_request(&reseeded, 0, i));
        assert!(differs);
    }

    #[test]
    fn rendered_body_is_valid_json_with_required_fields() {
        let config = LoadConfig {
            users: vec!["al\"ice".into()], // a user id that needs escaping
            queries: vec!["SELECT title FROM MOVIE".into()],
            zero_deadline_permille: 1000,
            ..LoadConfig::default()
        };
        let body = render_request(&config, 0, 0).unwrap();
        let parsed = json::parse(&body).unwrap();
        assert_eq!(parsed.get("user").and_then(Json::as_str), Some("al\"ice"));
        assert!(parsed.get("sql").is_some());
        assert!(parsed.get("problem").and_then(|p| p.get("kind")).is_some());
        assert_eq!(parsed.get("deadline_ms").and_then(Json::as_u64), Some(0));
    }

    /// The request mix and the trace IDs are pinned bit for bit, so the
    /// closed loops and their traced requests do not move. The hashes cover
    /// 4 clients × 150 requests of a default-shaped mix.
    #[test]
    fn mix_and_trace_streams_are_pinned() {
        fn fnv1a(h: &mut u64, s: &str) {
            for b in s.bytes().chain([0xff]) {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        let plain = LoadConfig {
            seed: 1234,
            users: (1..=4).map(|i| format!("user{i:04}")).collect(),
            queries: vec![
                "SELECT title FROM MOVIE".into(),
                "SELECT name FROM DIRECTOR".into(),
            ],
            ..LoadConfig::default()
        };
        let (mut bodies, mut traces) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
        for client in 0..4 {
            for i in 0..150 {
                fnv1a(&mut bodies, &render_request(&plain, client, i).unwrap());
                fnv1a(&mut traces, &trace_id_for(&plain, client, i));
            }
        }
        assert_eq!(
            (bodies, traces),
            (0x8271_64d5_3c82_0f89, 0xf671_07ac_9ce3_097d)
        );
    }

    #[test]
    fn empty_mix_is_rejected() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(run_load(addr, &LoadConfig::default()).is_err());
    }

    #[test]
    fn payloads_are_deterministic_per_seed() {
        assert_eq!(stream(1, CHAOS, 2, 3), stream(1, CHAOS, 2, 3));
        assert_ne!(stream(1, CHAOS, 2, 3), stream(2, CHAOS, 2, 3));
        assert_ne!(stream(1, CHAOS, 0, 0), stream(1, CHAOS, 1, 0));
        // Chaos payloads draw from their own stream, not the mix's.
        assert_ne!(stream(1, CHAOS, 0, 0), stream(1, MIX, 0, 0));
    }

    /// Every chaos attack cuts a request that the chaos suite's server
    /// answers with a 200 when it arrives whole.
    #[test]
    fn uncut_chaos_template_is_answered_200() {
        let db = Arc::new(cqp_datagen::generate_movie_db(
            &cqp_datagen::MovieDbConfig::tiny(7),
        ));
        let config = cqp_server::ServerConfig {
            read_timeout_ms: 400,
            seed_users: 2,
            seed: 11,
            ..cqp_server::ServerConfig::default()
        };
        let mut handle = cqp_server::start(db, config).expect("server start");
        let (head, body) = template_request();
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .write_all(format!("{head}{body}").as_bytes())
            .expect("write");
        let resp = parse_response(&mut BufReader::new(&stream)).expect("response");
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        handle.stop();
    }

    #[test]
    fn mode_tags_are_stable() {
        let tags: Vec<_> = ChaosMode::ALL.iter().map(|m| m.as_str()).collect();
        assert_eq!(
            tags,
            [
                "truncated_head",
                "mid_body_disconnect",
                "slowloris",
                "garbage_bytes"
            ]
        );
    }

    #[test]
    fn report_counters_classify_outcomes() {
        let report = ChaosReport {
            outcomes: vec![
                (
                    ChaosMode::GarbageBytes,
                    vec![ChaosOutcome::Answered { status: 400 }, ChaosOutcome::Reaped],
                ),
                (ChaosMode::Slowloris, vec![ChaosOutcome::Leaked]),
            ],
        };
        assert_eq!(report.answered_4xx(), 1);
        assert_eq!(report.reaped(), 1);
        assert_eq!(report.leaked(), 1);
        assert_eq!(report.for_mode(ChaosMode::Slowloris).len(), 1);
        assert_eq!(report.for_mode(ChaosMode::TruncatedHead).len(), 0);
    }
}
