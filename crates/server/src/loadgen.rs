//! A deterministic closed-loop load generator driving real sockets.
//!
//! Closed loop: each client thread keeps exactly one request in flight
//! over one keep-alive connection, so offered load adapts to observed
//! latency (the classic benchmarking discipline that avoids coordinated
//! omission *on the offered side* — we measure what a well-behaved client
//! sees, not queue blow-up of an open firehose).
//!
//! Determinism: the request *mix* is a pure function of `(seed, client,
//! request index)` through a splitmix64 generator — same config, same
//! sequence of users/queries/algorithms/deadlines, every run. Latencies
//! are wall-clock and vary; the mix does not.

use crate::http::{parse_response, ClientResponse, HttpError};
use crate::json;
use crate::server::ServerHandle;
use cqp_obs::{Histogram, Json};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

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
    /// Zipf skew of the user draw: `0.0` keeps the historical uniform
    /// pick bit-for-bit; `θ > 0` weights rank `i` (0-based position in
    /// `users`) by `1/(i+1)^θ`, concentrating load on the head — the
    /// regime where a cross-request answer cache earns its keep.
    pub zipf_theta: f64,
    /// Per-mille of requests that first merge a mutation into the drawn
    /// user's profile (`POST /profiles/{user}?merge=true`) before
    /// personalizing — the write-then-read race the staleness counter
    /// audits. Decided on its own generator stream per `(seed, client,
    /// index)`, so enabling mutations never perturbs the request mix.
    pub mutate_permille: u32,
    /// `# cqp-profile v1` wire texts the mutations draw from; mutations
    /// are disabled while this is empty.
    pub mutation_texts: Vec<String>,
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
            zipf_theta: 0.0,
            mutate_permille: 0,
            mutation_texts: Vec::new(),
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
    /// Profile mutations merged before personalize requests.
    pub mutations: u64,
    /// 200s served at a profile version older than one this client had
    /// already observed for the user — must stay zero (read-your-writes).
    pub stale_answers: u64,
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
    /// The report as a JSON object (for `BENCH_serve.json`).
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
            ("mutations", Json::from(self.mutations)),
            ("stale_answers", Json::from(self.stale_answers)),
            ("cache_exact", Json::from(self.cache_exact)),
            ("cache_warm", Json::from(self.cache_warm)),
            ("cache_repair", Json::from(self.cache_repair)),
            ("cache_miss", Json::from(self.cache_miss)),
            ("cache_off", Json::from(self.cache_off)),
            ("cache_hit_rate", Json::from(self.cache_hit_rate())),
        ])
    }

    /// Fraction of 200s that avoided a cold solve via the exact or warm
    /// tier — the headline reuse number `BENCH_cache.json` gates on.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            (self.cache_exact + self.cache_warm) as f64 / self.ok as f64
        }
    }
}

/// splitmix64 — the mix stream is a pure function of the seed.
use rand::splitmix64;

fn pick<'a, T>(items: &'a [T], state: &mut u64) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[(splitmix64(state) % items.len() as u64) as usize])
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
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            addr,
            stream,
            reader,
        })
    }

    fn post(
        &mut self,
        path: &str,
        headers: &[(&str, String)],
        body: &str,
    ) -> Result<ClientResponse, HttpError> {
        let mut attempt = 0;
        loop {
            let r = self.post_once(path, headers, body);
            match r {
                // One reconnect per request: a keep-alive close between
                // requests is normal, a second failure is a real error.
                Err(HttpError::ConnectionClosed) | Err(HttpError::Io(_)) if attempt == 0 => {
                    attempt = 1;
                    match Client::connect(self.addr) {
                        Ok(fresh) => *self = fresh,
                        Err(e) => return Err(HttpError::from(e)),
                    }
                }
                other => return other,
            }
        }
    }

    fn post_once(
        &mut self,
        path: &str,
        headers: &[(&str, String)],
        body: &str,
    ) -> Result<ClientResponse, HttpError> {
        let mut head = format!(
            "POST {path} HTTP/1.1\r\nhost: cqp\r\ncontent-length: {}\r\n",
            body.len()
        );
        for (k, v) in headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()?;
        parse_response(&mut self.reader)
    }
}

/// Draws a user index: uniform at `zipf_theta == 0` (bit-identical to the
/// historical mix) or Zipf-weighted (`1/(rank+1)^θ` over list position)
/// otherwise. Exactly one generator draw either way, so enabling skew
/// perturbs nothing downstream of the user pick.
fn pick_user<'a>(config: &'a LoadConfig, state: &mut u64) -> Option<&'a String> {
    if config.users.is_empty() {
        return None;
    }
    let r = splitmix64(state);
    if config.zipf_theta <= 0.0 {
        return Some(&config.users[(r % config.users.len() as u64) as usize]);
    }
    // Inverse-CDF over the (small) user list; the 53-bit mantissa draw
    // keeps the unit sample unbiased.
    let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
    let weight = |i: usize| 1.0 / ((i + 1) as f64).powf(config.zipf_theta);
    let total: f64 = (0..config.users.len()).map(weight).sum();
    let mut target = unit * total;
    for (i, user) in config.users.iter().enumerate() {
        target -= weight(i);
        if target <= 0.0 {
            return Some(user);
        }
    }
    config.users.last()
}

/// Renders the personalize body for `(client, index)` of the mix,
/// returning `(body, zero_deadline, user)`. Shared with the
/// connection-scale generator so both draw one mix.
pub(crate) fn render_request(
    config: &LoadConfig,
    client: usize,
    index: usize,
) -> Option<(String, bool, String)> {
    let mut state = config
        .seed
        .wrapping_mul(0x5851_f42d_4c95_7f2d)
        .wrapping_add((client as u64) << 32)
        .wrapping_add(index as u64);
    // Warm the stream so nearby (client, index) pairs decorrelate.
    splitmix64(&mut state);
    let user = pick_user(config, &mut state)?;
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
    Some((body, zero_deadline, user.clone()))
}

/// Whether request `(client, index)` merges a profile mutation first, and
/// with which wire text. A distinct splitmix64 stream from both the body
/// mix and the trace IDs, so turning mutations on (or changing the rate)
/// never changes which users/queries/deadlines the mix draws.
fn mutation_for(config: &LoadConfig, client: usize, index: usize) -> Option<&String> {
    if config.mutate_permille == 0 || config.mutation_texts.is_empty() {
        return None;
    }
    let mut state = config
        .seed
        .wrapping_mul(0x8f0c_93a1_6f12_c52b)
        .wrapping_add((client as u64) << 32)
        .wrapping_add(index as u64);
    splitmix64(&mut state);
    if splitmix64(&mut state) % 1000 >= u64::from(config.mutate_permille) {
        return None;
    }
    pick(&config.mutation_texts, &mut state)
}

/// The deterministic trace ID for `(seed, client, index)` — a distinct
/// stream from the body mix so adding tracing never perturbs the mix.
fn trace_id_for(config: &LoadConfig, client: usize, index: usize) -> String {
    let mut state = config
        .seed
        .wrapping_mul(0xa076_1d64_78bd_642f)
        .wrapping_add((client as u64) << 32)
        .wrapping_add(index as u64);
    format!("{:016x}", splitmix64(&mut state))
}

/// Runs the configured load against a server and aggregates what the
/// clients saw. Returns an `io::Error` only when a client cannot connect
/// at all; per-request socket failures are counted in the report.
pub fn run_load(addr: SocketAddr, config: &LoadConfig) -> std::io::Result<LoadReport> {
    run_load_targets(&[addr], config)
}

/// Multi-target [`run_load`]: client `i` drives `targets[i % len]`, so a
/// cluster's router processes (or replicas under test) split the closed
/// loop deterministically. The per-client request streams are identical
/// to single-target runs — only the socket each client dials differs.
pub fn run_load_targets(
    targets: &[SocketAddr],
    config: &LoadConfig,
) -> std::io::Result<LoadReport> {
    if config.users.is_empty() || config.queries.is_empty() || config.problems.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "load config needs at least one user, query, and problem",
        ));
    }
    if targets.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "load needs at least one target address",
        ));
    }
    let t0 = Instant::now();
    let per_client: Vec<(Vec<u64>, LoadReport)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..config.clients.max(1))
            .map(|c| {
                let addr = targets[c % targets.len()];
                s.spawn(move || client_loop(addr, config, c))
            })
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
    let mut latencies = Histogram::default();
    let mut completed = 0u64;
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
        report.mutations += partial.mutations;
        report.stale_answers += partial.stale_answers;
        report.cache_exact += partial.cache_exact;
        report.cache_warm += partial.cache_warm;
        report.cache_repair += partial.cache_repair;
        report.cache_miss += partial.cache_miss;
        report.cache_off += partial.cache_off;
        completed += partial.requests - partial.io_errors;
        for l in lats {
            latencies.observe(l);
        }
    }
    report.p50_us = latencies.quantile(0.50);
    report.p95_us = latencies.quantile(0.95);
    report.p99_us = latencies.quantile(0.99);
    report.wall_secs = wall_secs;
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
) -> std::io::Result<(Vec<u64>, LoadReport)> {
    let mut client = Client::connect(addr)?;
    let mut report = LoadReport::default();
    let mut latencies = Vec::with_capacity(config.requests_per_client);
    // Highest profile version this client has observed per user — from
    // its own mutation acks and from personalize responses. HTTP here is
    // synchronous per client, so any later 200 below the high-water mark
    // is a genuinely stale cached answer.
    let mut seen_versions: std::collections::HashMap<String, u64> =
        std::collections::HashMap::new();
    for i in 0..config.requests_per_client {
        let (body, _, user) = match render_request(config, client_id, i) {
            Some(r) => r,
            None => break,
        };
        if let Some(text) = mutation_for(config, client_id, i) {
            let path = format!("/profiles/{user}?merge=true");
            match client.post(&path, &[], text) {
                Ok(resp) if resp.status == 200 => {
                    report.mutations += 1;
                    if let Some(v) = json::parse(&resp.body_text())
                        .ok()
                        .and_then(|j| j.get("version").and_then(Json::as_u64))
                    {
                        let seen = seen_versions.entry(user.clone()).or_insert(0);
                        *seen = (*seen).max(v);
                    }
                }
                Ok(_) => report.client_errors += 1,
                Err(_) => report.io_errors += 1,
            }
        }
        report.requests += 1;
        let trace_id = (config.trace_every > 0 && (i as u64) % config.trace_every == 0)
            .then(|| trace_id_for(config, client_id, i));
        let headers: Vec<(&str, String)> = match &trace_id {
            Some(id) => vec![(crate::telemetry::TRACE_ID_HEADER, id.clone())],
            None => Vec::new(),
        };
        let t = Instant::now();
        match client.post("/personalize", &headers, &body) {
            Err(_) => report.io_errors += 1,
            Ok(resp) => {
                let us = t.elapsed().as_micros() as u64;
                if let Some(id) = &trace_id {
                    report.traced += 1;
                    if resp.header(crate::telemetry::TRACE_ID_HEADER) != Some(id.as_str()) {
                        report.trace_mismatches += 1;
                    }
                }
                match resp.status {
                    200 => {
                        report.ok += 1;
                        latencies.push(us);
                        let parsed = json::parse(&resp.body_text()).ok();
                        let field = |k: &str| parsed.as_ref().and_then(|j| j.get(k).cloned());
                        if field("solution")
                            .and_then(|s| s.get("degraded").cloned())
                            .is_some_and(|d| !matches!(d, Json::Null))
                        {
                            report.degraded += 1;
                        }
                        match field("cache").as_ref().and_then(Json::as_str) {
                            Some("exact") => report.cache_exact += 1,
                            Some("warm") => report.cache_warm += 1,
                            Some("repair") => report.cache_repair += 1,
                            Some("miss") => report.cache_miss += 1,
                            _ => report.cache_off += 1,
                        }
                        if let Some(v) = field("profile_version").and_then(|v| v.as_u64()) {
                            let seen = seen_versions.entry(user.clone()).or_insert(0);
                            if v < *seen {
                                report.stale_answers += 1;
                            }
                            *seen = (*seen).max(v);
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

/// What a deliberate overload burst observed.
#[derive(Debug, Clone, Default)]
pub struct ProbeReport {
    /// Requests fired while every execution slot was held.
    pub attempts: u64,
    /// 429s received.
    pub rejected: u64,
    /// 503s received.
    pub unavailable: u64,
    /// First `Retry-After` header seen on a 429 (milliseconds as sent).
    pub retry_after: Option<String>,
}

impl ProbeReport {
    /// The probe as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("attempts", Json::from(self.attempts)),
            ("rejected", Json::from(self.rejected)),
            ("unavailable", Json::from(self.unavailable)),
            (
                "retry_after",
                self.retry_after.as_deref().map_or(Json::Null, Json::from),
            ),
        ])
    }
}

/// Deterministic overload: holds *every* execution slot through the
/// server handle, fires `attempts` personalize requests (`body` must be a
/// valid request), and reports how the admission controller shed them.
/// With a zero-length queue every attempt is a 429 — the deterministic
/// admission-reject measurement `BENCH_serve.json` carries.
pub fn overload_probe(
    handle: &ServerHandle,
    attempts: usize,
    body: &str,
) -> std::io::Result<ProbeReport> {
    let gate = &handle.state().gate;
    let mut permits = Vec::with_capacity(gate.max_inflight());
    while permits.len() < gate.max_inflight() {
        match gate.admit(Duration::ZERO) {
            Ok(p) => permits.push(p),
            Err(_) => break,
        }
    }
    let mut client = Client::connect(handle.addr())?;
    let mut report = ProbeReport::default();
    for _ in 0..attempts {
        report.attempts += 1;
        match client.post("/personalize", &[], body) {
            Ok(resp) if resp.status == 429 => {
                report.rejected += 1;
                if report.retry_after.is_none() {
                    report.retry_after = resp.header("retry-after").map(str::to_string);
                }
            }
            Ok(resp) if resp.status == 503 => report.unavailable += 1,
            _ => {}
        }
    }
    drop(permits);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (body, zero_deadline, user) = render_request(&config, 0, 0).unwrap();
        assert!(zero_deadline);
        assert_eq!(user, "al\"ice");
        let parsed = json::parse(&body).unwrap();
        assert_eq!(parsed.get("user").and_then(Json::as_str), Some("al\"ice"));
        assert!(parsed.get("sql").is_some());
        assert!(parsed.get("problem").and_then(|p| p.get("kind")).is_some());
        assert_eq!(parsed.get("deadline_ms").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn zipf_skew_concentrates_on_head_users_without_perturbing_rest() {
        let uniform = LoadConfig {
            users: (0..10).map(|i| format!("u{i}")).collect(),
            queries: vec!["SELECT title FROM MOVIE".into()],
            ..LoadConfig::default()
        };
        let skewed = LoadConfig {
            zipf_theta: 1.2,
            ..uniform.clone()
        };
        let mut head_uniform = 0;
        let mut head_skewed = 0;
        for i in 0..400 {
            let (bu, zu, _) = render_request(&uniform, 0, i).unwrap();
            let (bs, zs, us) = render_request(&skewed, 0, i).unwrap();
            // Only the user draw changes: the same single generator draw
            // feeds both paths, so everything after the user segment of
            // the body is identical.
            assert_eq!(zu, zs);
            assert_eq!(
                bu.split("\"sql\"").nth(1),
                bs.split("\"sql\"").nth(1),
                "skew must not perturb the non-user mix at index {i}"
            );
            if bu.contains("\"u0\"") {
                head_uniform += 1;
            }
            if us == "u0" {
                head_skewed += 1;
            }
        }
        // θ = 1.2 over 10 users puts ~40% of draws on the head vs 10%.
        assert!(head_skewed > head_uniform * 2);
        // θ = 0 is bit-identical to the historical mix.
        let zero = LoadConfig {
            zipf_theta: 0.0,
            ..uniform.clone()
        };
        for i in 0..50 {
            assert_eq!(render_request(&uniform, 1, i), render_request(&zero, 1, i));
        }
    }

    #[test]
    fn mutations_are_deterministic_and_do_not_perturb_the_mix() {
        let base = LoadConfig {
            users: vec!["a".into(), "b".into()],
            queries: vec!["SELECT title FROM MOVIE".into()],
            ..LoadConfig::default()
        };
        let mutating = LoadConfig {
            mutate_permille: 300,
            mutation_texts: vec!["# cqp-profile v1\nprofile m\n".into()],
            ..base.clone()
        };
        // The request mix is untouched by the mutation knobs…
        for i in 0..50 {
            assert_eq!(render_request(&base, 0, i), render_request(&mutating, 0, i));
        }
        // …the mutation schedule is deterministic, fires at roughly the
        // configured rate, and is off when texts are missing.
        let fired: Vec<bool> = (0..1000)
            .map(|i| mutation_for(&mutating, 0, i).is_some())
            .collect();
        let again: Vec<bool> = (0..1000)
            .map(|i| mutation_for(&mutating, 0, i).is_some())
            .collect();
        assert_eq!(fired, again);
        let count = fired.iter().filter(|&&f| f).count();
        assert!((150..450).contains(&count), "rate off: {count}");
        assert!(mutation_for(&base, 0, 0).is_none());
    }

    #[test]
    fn empty_mix_is_rejected() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(run_load(addr, &LoadConfig::default()).is_err());
    }
}
