//! Differential tests of the two serving backends over real sockets.
//!
//! `ServerConfig::backend` selects between the threaded accept/spawn core
//! and the epoll reactor pool. The contract is that the backend is a
//! *transport* choice, never a *semantics* choice: the same request
//! sequence against the same database must produce bit-identical answers,
//! the same answer-cache tier tags, and identical Prometheus counters on
//! both. This suite drives both backends side by side:
//!
//! 1. all six Table-1 problems, solved twice each (cold + exact-tier hit);
//! 2. the error surface (bad request line, bad header, unknown route, bad
//!    content-length, oversized body declaration);
//! 3. a seeded single-client closed loop whose deterministic report
//!    fields must agree exactly.

use cqp_bench::load::{run_load, LoadConfig, LoadReport};
use cqp_obs::Json;
use cqp_server::http::{exchange, parse_response, Request, Timeouts};
use cqp_server::{json, start, Backend, ServerConfig, ServerHandle};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// How long each request a test sends waits to connect and to be answered.
const WAIT: Timeouts = Timeouts {
    connect: Duration::from_secs(60),
    read: Duration::from_secs(60),
};

const PROFILE_WIRE: &str = "# cqp-profile v1\n\
    profile al\n\
    join 0.9 MOVIE.mid GENRE.mid\n\
    join 1.0 MOVIE.did DIRECTOR.did\n\
    select 0.8 GENRE.genre eq \"comedy\"\n\
    select 0.6 MOVIE.year ge 1990\n";

const SQL: &str = "SELECT title FROM MOVIE";

fn boot(backend: Backend, config: ServerConfig) -> ServerHandle {
    let db = Arc::new(cqp_datagen::generate_movie_db(
        &cqp_datagen::MovieDbConfig::tiny(7),
    ));
    start(db, ServerConfig { backend, ..config }).expect("server start")
}

/// Sends raw bytes and returns the raw response status + body (or EOF).
fn raw_exchange(addr: SocketAddr, bytes: &[u8]) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    parse_response(&mut BufReader::new(stream))
        .ok()
        .map(|r| (r.status, r.body_text()))
}

fn personalize(addr: SocketAddr, problem: &str) -> Json {
    let body = format!(
        "{{\"user\":\"al\",\"sql\":{},\"problem\":{problem},\"algorithm\":\"branch_bound\"}}",
        Json::Str(SQL.to_string()).render()
    );
    let resp = exchange(addr, &Request::post("/personalize", &body), WAIT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    json::parse(&resp.body_text()).expect("personalize body is JSON")
}

/// The answer-carrying fields — everything except per-request latency.
fn answer_fields(body: &Json) -> String {
    let field = |k: &str| body.get(k).cloned().unwrap_or(Json::Null);
    Json::obj(vec![
        ("sql", field("sql")),
        ("solution", field("solution")),
        ("pref_dois", field("pref_dois")),
        ("profile_version", field("profile_version")),
        ("cache", field("cache")),
    ])
    .render()
}

fn prom_value(text: &str, prefix: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| {
            l.strip_prefix(prefix)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

/// The six Table-1 problems in the server's wire encoding.
fn six_problems() -> [String; 6] {
    [
        "{\"kind\":\"p1\",\"smin\":0,\"smax\":1000000}".to_string(),
        "{\"kind\":\"p2\",\"cmax\":500}".to_string(),
        "{\"kind\":\"p3\",\"cmax\":500,\"smin\":0,\"smax\":1000000}".to_string(),
        "{\"kind\":\"p4\",\"dmin\":0.3}".to_string(),
        "{\"kind\":\"p5\",\"dmin\":0.3,\"smin\":0,\"smax\":1000000}".to_string(),
        "{\"kind\":\"p6\",\"smin\":0,\"smax\":1000000}".to_string(),
    ]
}

/// Counters whose values must agree exactly after identical request
/// sequences. Timing-shaped series (latency histograms, SLO burn) are
/// deliberately absent.
const COMPARED_COUNTERS: &[&str] = &[
    "cqp_requests_total{endpoint=\"personalize\",outcome=\"ok\"}",
    "cqp_requests_total{endpoint=\"profiles\",outcome=\"ok\"}",
    "cqp_admission_admitted_total",
    "cqp_admission_rejected_total",
    "cqp_submit_panics_total",
    "cqp_profile_upserts_total",
    "cqp_answer_cache_hits_total{tier=\"exact\"}",
    "cqp_answer_cache_misses_total",
    "cqp_slo_window_requests",
];

fn compare_counters(threaded: &ServerHandle, epoll: &ServerHandle, context: &str) {
    let scrape = |h: &ServerHandle| {
        let resp = exchange(h.addr(), &Request::get("/metrics"), WAIT).unwrap();
        assert_eq!(resp.status, 200);
        resp.body_text()
    };
    let t = scrape(threaded);
    let e = scrape(epoll);
    for name in COMPARED_COUNTERS {
        assert_eq!(
            prom_value(&t, name),
            prom_value(&e, name),
            "{context}: counter {name} diverged across backends"
        );
    }
}

/// All six Table-1 problems: cold solve + exact-tier revisit on each
/// backend, every response pair bit-identical including the cache tag,
/// and the full counter surface equal afterwards.
#[test]
fn six_problems_are_bit_identical_across_backends() {
    let mut threaded = boot(Backend::Threaded, ServerConfig::default());
    let mut epoll = boot(Backend::Epoll, ServerConfig::default());
    for h in [&threaded, &epoll] {
        let resp = exchange(h.addr(), &Request::post("/profiles/al", PROFILE_WIRE), WAIT).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
    }
    for problem in &six_problems() {
        let cold_t = personalize(threaded.addr(), problem);
        let cold_e = personalize(epoll.addr(), problem);
        assert_eq!(
            answer_fields(&cold_t),
            answer_fields(&cold_e),
            "cold answers diverged on {problem}"
        );
        let hit_t = personalize(threaded.addr(), problem);
        let hit_e = personalize(epoll.addr(), problem);
        assert_eq!(
            answer_fields(&hit_t),
            answer_fields(&hit_e),
            "cache-hit answers diverged on {problem}"
        );
        assert_eq!(
            hit_t.get("cache").and_then(Json::as_str),
            Some("exact"),
            "revisit must hit the exact tier on {problem}"
        );
    }
    compare_counters(&threaded, &epoll, "six problems");
    for h in [&threaded, &epoll] {
        assert_eq!(h.state().driver.submit_panics(), 0);
        // The server tears a connection down *after* the client has read
        // the response, so the gauge trails the last exchange briefly.
        let t0 = std::time::Instant::now();
        while h.state().active_connections() != 0 && t0.elapsed().as_secs() < 5 {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(h.state().active_connections(), 0);
    }
    threaded.stop();
    epoll.stop();
}

/// The error surface: malformed and unroutable requests earn the same
/// status and the same body text on both backends.
#[test]
fn error_responses_are_identical_across_backends() {
    let mut threaded = boot(Backend::Threaded, ServerConfig::default());
    let mut epoll = boot(Backend::Epoll, ServerConfig::default());
    let cases: &[&[u8]] = &[
        b"BOGUS\r\n\r\n",
        b"GET nopath HTTP/1.1\r\n\r\n",
        b"GET / HTTP/9.9\r\n\r\n",
        b"GET /no/such/route HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
        b"POST /personalize HTTP/1.1\r\ncontent-length: nan\r\n\r\n",
        b"POST /personalize HTTP/1.1\r\ncontent-length: 2097153\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nbroken header line\r\n\r\n",
        b"POST /profiles/al HTTP/1.1\r\nconnection: close\r\ncontent-length: 7\r\n\r\nnot the",
        b"\x00\x01\x02\x03\r\n\r\n",
    ];
    for bytes in cases {
        let t = raw_exchange(threaded.addr(), bytes);
        let e = raw_exchange(epoll.addr(), bytes);
        assert_eq!(
            t,
            e,
            "error response diverged for {:?}",
            String::from_utf8_lossy(bytes)
        );
    }
    threaded.stop();
    epoll.stop();
}

/// A seeded single-client closed loop: every deterministic field of the
/// load report — status tallies, trace echoes, cache tiers — agrees exactly.
/// (Latency quantiles and wall-clock are timing and excluded; `degraded`
/// is deadline-dependent and excluded.)
#[test]
fn seeded_closed_loop_reports_agree_across_backends() {
    let config = || ServerConfig {
        seed_users: 4,
        seed: 11,
        ..ServerConfig::default()
    };
    let mut threaded = boot(Backend::Threaded, config());
    let mut epoll = boot(Backend::Epoll, config());
    let load = LoadConfig {
        clients: 1,
        requests_per_client: 60,
        seed: 1234,
        users: (1..=4).map(|i| format!("user{i:04}")).collect(),
        queries: vec![SQL.to_string()],
        problems: vec![
            "{\"kind\":\"p2\",\"cmax\":500}".to_string(),
            "{\"kind\":\"p6\",\"smin\":0,\"smax\":1000000}".to_string(),
        ],
        zero_deadline_permille: 0,
        trace_every: 3,
        ..LoadConfig::default()
    };
    let report_t = run_load(threaded.addr(), &load).expect("threaded load");
    let report_e = run_load(epoll.addr(), &load).expect("epoll load");
    let deterministic = |r: &LoadReport| {
        (
            r.requests,
            r.ok,
            r.rejected,
            r.unavailable,
            r.client_errors,
            r.server_errors,
            r.io_errors,
            r.traced,
            r.trace_mismatches,
            (
                r.cache_exact,
                r.cache_warm,
                r.cache_repair,
                r.cache_miss,
                r.cache_off,
            ),
        )
    };
    assert_eq!(
        deterministic(&report_t),
        deterministic(&report_e),
        "deterministic load report fields diverged across backends"
    );
    assert_eq!(report_t.io_errors, 0);
    assert!(report_t.ok > 0);
    assert_eq!(report_t.trace_mismatches, 0);
    compare_counters(&threaded, &epoll, "closed loop");
    threaded.stop();
    epoll.stop();
}
