//! Connection-level chaos and graceful-drain tests over real sockets.
//!
//! Two claims. First, misbehaving clients — truncated heads, mid-body
//! disconnects, slowloris drips, raw garbage — never leak a connection
//! and never crash the server: each one ends in a well-formed 4xx or a
//! clean reap within the read deadline, and afterwards the server still
//! answers bit-identically to the in-process pipeline. Second, shutdown
//! drains: in-flight requests finish, requests arriving mid-drain get
//! `503 + Connection: close`, idle connections close, and every handler
//! thread is joined before `shutdown` returns.

use cqp_bench::load::{
    run_chaos, run_conn_scale, ChaosConfig, ChaosMode, ChaosOutcome, ConnScaleConfig, LoadConfig,
};
use cqp_core::prelude::*;
use cqp_datagen::{generate_movie_db, MovieDbConfig};
use cqp_obs::Json;
use cqp_server::http::{exchange, parse_response, HttpError, Request, Timeouts};
use cqp_server::server::Phase;
use cqp_server::{json, start, Backend, ServerConfig, ServerHandle};
use cqp_storage::Database;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// How long each request a test sends waits to connect and to be answered.
const WAIT: Timeouts = Timeouts {
    connect: Duration::from_secs(60),
    read: Duration::from_secs(60),
};

/// Every socket-level scenario in this file runs against both serving
/// backends: misbehaving clients and drains are exactly where the epoll
/// reactor must not diverge from the threaded baseline.
const BACKENDS: [Backend; 2] = [Backend::Threaded, Backend::Epoll];

const PROFILE_WIRE: &str = "# cqp-profile v1\n\
    profile al\n\
    join 0.9 MOVIE.mid GENRE.mid\n\
    select 0.8 GENRE.genre eq \"comedy\"\n\
    select 0.6 MOVIE.year ge 1990\n";

const SQL: &str = "SELECT title FROM MOVIE";

fn boot(config: ServerConfig) -> (Arc<Database>, ServerHandle) {
    let db = Arc::new(generate_movie_db(&MovieDbConfig::tiny(7)));
    let handle = start(Arc::clone(&db), config).expect("server start");
    (db, handle)
}

fn personalize_body() -> String {
    format!(
        "{{\"user\":\"al\",\"sql\":\"{SQL}\",\"problem\":{{\"kind\":\"p2\",\"cmax\":500}},\
         \"algorithm\":\"c_maxbounds\"}}"
    )
}

#[test]
fn chaos_modes_answer_or_reap_and_server_stays_bit_exact() {
    for backend in BACKENDS {
        chaos_modes_answer_or_reap(backend);
    }
}

fn chaos_modes_answer_or_reap(backend: Backend) {
    let (db, mut handle) = boot(ServerConfig {
        backend,
        // A short read deadline so slowloris is reaped quickly; chaos
        // patience below comfortably exceeds it.
        read_timeout_ms: 400,
        seed_users: 2,
        seed: 11,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let upsert = exchange(addr, &Request::post("/profiles/al", PROFILE_WIRE), WAIT).unwrap();
    assert_eq!(upsert.status, 200);

    let report = run_chaos(&ChaosConfig {
        addr: addr.to_string(),
        seed: 0xC4A05,
        iterations: 3,
        patience_ms: 4_000,
        drip_interval_ms: 60,
        drip_bytes: 24,
    })
    .expect("chaos run");

    // The hard invariant: nothing leaks, nothing earns a 5xx.
    assert_eq!(report.leaked(), 0, "{:?}", report.outcomes);
    for (mode, outcomes) in &report.outcomes {
        assert_eq!(outcomes.len(), 3);
        for o in outcomes {
            match o {
                ChaosOutcome::Answered { status } => assert!(
                    (400..500).contains(status),
                    "{}: answered {status}",
                    mode.as_str()
                ),
                ChaosOutcome::Reaped => {}
                ChaosOutcome::Leaked => unreachable!(),
            }
        }
    }
    // Mode-specific shapes. Garbage is a parse failure the server can
    // still answer; a slowloris never completes its head, so only the
    // read deadline ends it — a 408, written while the socket still
    // listens. Truncated sends end in EOF mid-parse: a clean reap.
    for o in report.for_mode(ChaosMode::GarbageBytes) {
        assert!(
            matches!(o, ChaosOutcome::Answered { status } if *status == 400 || *status == 431),
            "garbage: {o:?}"
        );
    }
    for o in report.for_mode(ChaosMode::Slowloris) {
        assert!(
            matches!(
                o,
                ChaosOutcome::Answered { status: 408 } | ChaosOutcome::Reaped
            ),
            "slowloris: {o:?}"
        );
    }
    for o in report.for_mode(ChaosMode::TruncatedHead) {
        assert!(matches!(o, ChaosOutcome::Reaped), "truncated head: {o:?}");
    }

    // Post-chaos smoke: the answer over the abused server is
    // bit-identical to the in-process pipeline.
    let resp = exchange(
        addr,
        &Request::post("/personalize", personalize_body()),
        WAIT,
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let served = json::parse(&resp.body_text()).unwrap();
    let profile = cqp_prefs::from_text(PROFILE_WIRE, db.catalog()).unwrap();
    let driver = BatchDriver::new(Arc::clone(&db), 1);
    let item = driver
        .submit(BatchRequest {
            query: cqp_engine::parse_query(SQL, db.catalog()).unwrap(),
            profile,
            problem: ProblemSpec::p2(500),
            config: SolverConfig {
                algorithm: Algorithm::CMaxBounds,
                ..Default::default()
            },
        })
        .unwrap();
    assert_eq!(
        served.get("sql").and_then(Json::as_str),
        Some(item.sql.as_str())
    );
    let served_prefs: Vec<u64> = served
        .get("solution")
        .and_then(|s| s.get("prefs"))
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(Json::as_u64)
        .collect();
    let local_prefs: Vec<u64> = item.solution.prefs.iter().map(|&p| p as u64).collect();
    assert_eq!(served_prefs, local_prefs);
    assert_eq!(
        served
            .get("solution")
            .and_then(|s| s.get("doi"))
            .and_then(Json::as_f64),
        Some(item.solution.doi.value())
    );

    // Nothing panicked and every chaos connection was accounted for.
    assert_eq!(handle.state().driver.submit_panics(), 0);
    let stats = handle.shutdown(Duration::from_millis(5_000));
    assert!(stats.graceful, "{stats:?}");
    assert_eq!(stats.forced, 0);
    assert_eq!(handle.state().active_connections(), 0);
}

#[test]
fn drain_finishes_inflight_rejects_arrivals_and_joins_every_thread() {
    for backend in BACKENDS {
        drain_finishes_inflight(backend);
    }
}

fn drain_finishes_inflight(backend: Backend) {
    let (_db, handle) = boot(ServerConfig {
        backend,
        read_timeout_ms: 5_000,
        drain_deadline_ms: 5_000,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let state = Arc::clone(handle.state());

    // conn1: a request mid-arrival — the head promises a body that has
    // not been sent yet, so the handler is blocked reading it.
    let mut conn1 = TcpStream::connect(addr).expect("conn1");
    let body = PROFILE_WIRE;
    conn1
        .write_all(
            format!(
                "POST /profiles/al HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();

    // conn2: idle keep-alive — no bytes at all.
    let mut conn2 = TcpStream::connect(addr).expect("conn2");
    conn2
        .set_read_timeout(Some(Duration::from_millis(3_000)))
        .unwrap();

    // Let both handlers spawn, then drain in the background.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(state.phase(), Phase::Live);
    let drainer = std::thread::spawn(move || {
        let mut handle = handle;
        let stats = handle.shutdown(Duration::from_millis(5_000));
        (handle, stats)
    });
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(state.phase(), Phase::Draining);

    // New connections are no longer accepted while draining.
    assert!(
        TcpStream::connect_timeout(&addr.clone(), Duration::from_millis(300)).is_err(),
        "listener must be closed during drain"
    );

    // conn1's body now arrives: the request completes its arrival during
    // the drain and is answered 503 draining + Connection: close.
    conn1.write_all(body.as_bytes()).unwrap();
    let resp = parse_response(&mut BufReader::new(&mut conn1)).expect("conn1 response");
    assert_eq!(resp.status, 503, "{}", resp.body_text());
    assert_eq!(resp.header("connection"), Some("close"));
    let parsed = json::parse(&resp.body_text()).unwrap();
    assert_eq!(
        parsed
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("draining")
    );

    // conn2 was idle: the drain closes it without a response.
    let mut buf = [0u8; 16];
    assert_eq!(conn2.read(&mut buf).expect("conn2 EOF"), 0);

    // The drain itself: graceful, nothing force-severed, every handler
    // joined, and the server is stopped.
    let (handle, stats) = drainer.join().expect("drainer");
    assert!(stats.graceful, "{stats:?}");
    assert_eq!(stats.forced, 0, "{stats:?}");
    assert!(stats.drain_ms < 5_000);
    assert_eq!(state.phase(), Phase::Stopped);
    assert_eq!(state.active_connections(), 0);
    assert!(state.drain_rejected() >= 1);
    drop(handle);
}

#[test]
fn healthz_stays_reachable_and_reports_draining_mid_drain() {
    for backend in BACKENDS {
        healthz_reachable_mid_drain(backend);
    }
}

fn healthz_reachable_mid_drain(backend: Backend) {
    let (_db, handle) = boot(ServerConfig {
        backend,
        read_timeout_ms: 5_000,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let state = Arc::clone(handle.state());

    // Readiness before drain: 200 ready, breaker closed.
    let resp = exchange(addr, &Request::get("/healthz/ready"), WAIT).unwrap();
    assert_eq!(resp.status, 200);
    let body = json::parse(&resp.body_text()).unwrap();
    assert_eq!(body.get("status").and_then(Json::as_str), Some("ready"));
    assert_eq!(body.get("breaker").and_then(Json::as_str), Some("closed"));
    let resp = exchange(addr, &Request::get("/healthz/live"), WAIT).unwrap();
    assert_eq!(resp.status, 200);

    // A readiness probe whose head is still arriving when the drain
    // begins: health endpoints answer during drain, and this one reports
    // the transition.
    let mut probe = TcpStream::connect(addr).expect("probe");
    probe
        .write_all(b"GET /healthz/ready HTTP/1.1\r\nhost: t\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let drainer = std::thread::spawn(move || {
        let mut handle = handle;
        let stats = handle.shutdown(Duration::from_millis(5_000));
        (handle, stats)
    });
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(state.phase(), Phase::Draining);

    probe.write_all(b"\r\n").unwrap();
    let resp = parse_response(&mut BufReader::new(&mut probe)).expect("probe response");
    assert_eq!(resp.status, 503, "{}", resp.body_text());
    let body = json::parse(&resp.body_text()).unwrap();
    assert_eq!(body.get("status").and_then(Json::as_str), Some("draining"));

    let (_handle, stats) = drainer.join().expect("drainer");
    assert!(stats.graceful, "{stats:?}");
    assert_eq!(stats.forced, 0);
}

#[test]
fn keep_alive_connections_close_at_the_request_cap() {
    for backend in BACKENDS {
        keep_alive_request_cap(backend);
    }
}

fn keep_alive_request_cap(backend: Backend) {
    let (_db, mut handle) = boot(ServerConfig {
        backend,
        max_requests_per_conn: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Three pipelined keep-alive requests on one connection: the cap
    // answers two, marks the second `Connection: close`, and closes.
    let mut conn = TcpStream::connect(addr).expect("connect");
    for _ in 0..3 {
        conn.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
    }
    conn.set_read_timeout(Some(Duration::from_millis(3_000)))
        .unwrap();
    let mut reader = BufReader::new(conn);
    let first = parse_response(&mut reader).expect("first");
    assert_eq!(first.status, 200);
    assert_ne!(first.header("connection"), Some("close"));
    let second = parse_response(&mut reader).expect("second");
    assert_eq!(second.status, 200);
    assert_eq!(second.header("connection"), Some("close"));
    match parse_response(&mut reader) {
        Err(HttpError::ConnectionClosed) => {}
        other => panic!("third request must hit a closed connection, got {other:?}"),
    }
    handle.stop();
}

/// The reactor at connection scale: an idle keep-alive herd is held open
/// while slowloris writers drip and open-loop lanes push real traffic —
/// then the idle deadline must reap every idle connection, the read
/// deadline must end every dripper, and a drain must quiesce the rest
/// with nothing force-severed and nothing leaked.
///
/// The herd defaults to 2 000 connections and `CQP_C10K_TARGET` scales it
/// (the CI chaos job holds 4 000). Both socket ends share this process's
/// fd table, so the target is capped at (soft nofile limit − 512) / 2.
/// The epoll core holds the herd without a thread per connection.
#[test]
fn epoll_reaps_idle_herd_and_slowloris_then_drains_with_zero_leaks() {
    let requested: usize = std::env::var("CQP_C10K_TARGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    // Two fds per in-process connection, plus server internals + margin.
    let (soft, _hard) = cqp_sys::nofile_limit().expect("rlimit");
    let _ = cqp_sys::raise_nofile_limit(soft.max(requested as u64 * 2 + 512));
    let (soft, _hard) = cqp_sys::nofile_limit().expect("rlimit");
    let target = requested.min(((soft.saturating_sub(512)) / 2) as usize);

    let (_db, mut handle) = boot(ServerConfig {
        backend: Backend::Epoll,
        read_timeout_ms: 1_200,
        drain_deadline_ms: 5_000,
        max_connections: target + 256,
        seed_users: 2,
        seed: 11,
        ..ServerConfig::default()
    });
    let state = Arc::clone(handle.state());
    let report = run_conn_scale(
        handle.addr(),
        &ConnScaleConfig {
            idle_conns: target,
            slowloris_conns: 32,
            drip_interval_ms: 40,
            lanes: 2,
            lane_rps: 60,
            lane_requests: 100,
            mix: LoadConfig {
                users: vec!["user0001".into(), "user0002".into()],
                queries: vec![SQL.to_string()],
                ..LoadConfig::default()
            },
            reap_patience_ms: 15_000,
            connect_burst: 64,
        },
    )
    .expect("conn scale run");

    // The herd arrived (the OS may refuse a few dials at the margin) and
    // every accepted connection was eventually closed by the server.
    assert!(
        report.idle_opened as usize >= target * 9 / 10,
        "herd failed to establish: {report:?}"
    );
    assert_eq!(report.idle_leaked, 0, "{report:?}");
    assert_eq!(report.slowloris_leaked, 0, "{report:?}");
    assert_eq!(report.slowloris_reaped, report.slowloris_opened);
    assert_eq!(report.leaked(), 0);
    // Lanes got real answers through the pressure.
    assert!(report.lane_ok > 0, "{report:?}");
    assert_eq!(report.lane_errors, 0, "{report:?}");

    // Everything the client saw reaped is also gone server-side, the
    // reap counters moved, and the drain has nothing left to sever.
    assert_eq!(state.driver.submit_panics(), 0);
    let stats = handle.shutdown(Duration::from_millis(5_000));
    assert!(stats.graceful, "{stats:?}");
    assert_eq!(stats.forced, 0, "{stats:?}");
    assert_eq!(state.active_connections(), 0);
    assert_eq!(state.phase(), Phase::Stopped);
}
