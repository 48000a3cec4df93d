//! End-to-end request tracing over real sockets.
//!
//! Two claims under test. First, **propagation**: a client-supplied
//! `x-cqp-trace-id` header survives the whole serving path — it is echoed
//! on the response, the captured trace under that ID carries the complete
//! span tree from HTTP parse through the solver phases, and a slow enough
//! request lands in the slow-query log under the same ID. Second,
//! **retention determinism**: the lock-sharded trace ring evicts strictly
//! oldest-first per shard no matter how concurrent pushers interleave.

use cqp_datagen::{generate_movie_db, MovieDbConfig};
use cqp_obs::reqtrace::{RequestTrace, SpanRecord, TraceId, TraceRing};
use cqp_obs::Json;
use cqp_server::http::{parse_response, ClientResponse};
use cqp_server::{json, start, ServerConfig, ServerHandle, TRACE_ID_HEADER};
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

const PROFILE_WIRE: &str = "# cqp-profile v1\n\
    profile al\n\
    join 0.9 MOVIE.mid GENRE.mid\n\
    join 1.0 MOVIE.did DIRECTOR.did\n\
    select 0.8 GENRE.genre eq \"comedy\"\n\
    select 0.6 MOVIE.year ge 1990\n";

fn boot(config: ServerConfig) -> ServerHandle {
    let db = Arc::new(generate_movie_db(&MovieDbConfig::tiny(7)));
    start(db, config).expect("server start")
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> ClientResponse {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n");
    if let Some(b) = body {
        head.push_str(&format!("content-length: {}\r\n", b.len()));
    }
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(head.as_bytes()).expect("write head");
    if let Some(b) = body {
        stream.write_all(b.as_bytes()).expect("write body");
    }
    stream.flush().expect("flush");
    parse_response(&mut BufReader::new(stream)).expect("response")
}

fn personalize_body(extra: &str) -> String {
    format!(
        "{{\"user\":\"al\",\"sql\":\"SELECT title FROM MOVIE\",\
         \"problem\":{{\"kind\":\"p2\",\"cmax\":500}},\
         \"algorithm\":\"c_maxbounds\"{extra}}}"
    )
}

/// The dotted span paths of a trace JSON object, root-to-leaf.
fn span_paths(trace: &Json) -> Vec<String> {
    trace
        .get("spans")
        .and_then(Json::as_array)
        .expect("spans array")
        .iter()
        .map(|s| s.get("path").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn explicit_trace_id_propagates_from_header_to_span_tree_and_slow_log() {
    let mut handle = boot(ServerConfig {
        // Off-period sampling: only the explicit header makes this
        // request captured, which is exactly what we are testing.
        trace_sample_every: 1_000_000,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    assert_eq!(
        request(addr, "POST", "/profiles/al", &[], Some(PROFILE_WIRE)).status,
        200
    );

    // A deadline-tripped (degraded) request with a client-chosen trace ID.
    let id = "deadbeef00c0ffee";
    let resp = request(
        addr,
        "POST",
        "/personalize",
        &[(TRACE_ID_HEADER, id), ("x-cqp-deadline-ms", "0")],
        Some(&personalize_body("")),
    );
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    // The response echoes the ID and reports remaining deadline budget.
    assert_eq!(resp.header(TRACE_ID_HEADER), Some(id));
    let remaining: u64 = resp
        .header("x-cqp-deadline-remaining-ms")
        .expect("deadline-remaining header")
        .parse()
        .expect("integer ms");
    assert_eq!(remaining, 0, "a 0-ms deadline has no budget left");
    let served = json::parse(&resp.body_text()).unwrap();
    assert!(
        served
            .get("solution")
            .and_then(|s| s.get("degraded"))
            .is_some_and(|d| !matches!(d, Json::Null)),
        "0-ms deadline must degrade"
    );

    // The captured trace is retrievable by that exact ID...
    let resp = request(addr, "GET", &format!("/debug/traces?id={id}"), &[], None);
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let trace = json::parse(&resp.body_text()).unwrap();
    assert_eq!(trace.get("trace_id").and_then(Json::as_str), Some(id));
    assert_eq!(
        trace
            .get("meta")
            .and_then(|m| m.get("outcome"))
            .and_then(Json::as_str),
        Some("degraded")
    );
    // ...with the full span tree: HTTP parse through the solver phases.
    let paths = span_paths(&trace);
    for expected in [
        "parse",
        "session",
        "admission",
        "dispatch",
        "dispatch.personalize",
        "dispatch.personalize.prefspace",
        "dispatch.personalize.search",
        "materialize",
    ] {
        assert!(
            paths.iter().any(|p| p == expected),
            "span {expected:?} missing from {paths:?}"
        );
    }

    // The only request served so far is by definition among the worst-N:
    // the slow log holds the same trace under the same ID.
    let resp = request(addr, "GET", "/debug/slow", &[], None);
    assert_eq!(resp.status, 200);
    let slow = json::parse(&resp.body_text()).unwrap();
    let ids: Vec<&str> = slow
        .get("traces")
        .and_then(Json::as_array)
        .expect("slow traces")
        .iter()
        .filter_map(|t| t.get("trace_id").and_then(Json::as_str))
        .collect();
    assert!(ids.contains(&id), "slow log missing {id}: {ids:?}");

    // An untraced follow-up (no header, off-period) still echoes *some*
    // server-assigned ID but is not captured.
    let resp = request(
        addr,
        "POST",
        "/personalize",
        &[],
        Some(&personalize_body("")),
    );
    assert_eq!(resp.status, 200);
    let assigned = resp
        .header(TRACE_ID_HEADER)
        .expect("assigned ID")
        .to_string();
    assert_ne!(assigned, id);
    let resp = request(
        addr,
        "GET",
        &format!("/debug/traces?id={assigned}"),
        &[],
        None,
    );
    assert_eq!(resp.status, 404, "off-period request must not be captured");
    handle.stop();
}

#[test]
fn chrome_export_covers_captured_traces() {
    let mut handle = boot(ServerConfig {
        trace_sample_every: 1,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    assert_eq!(
        request(addr, "POST", "/profiles/al", &[], Some(PROFILE_WIRE)).status,
        200
    );
    for _ in 0..3 {
        assert_eq!(
            request(
                addr,
                "POST",
                "/personalize",
                &[],
                Some(&personalize_body(""))
            )
            .status,
            200
        );
    }
    let resp = request(addr, "GET", "/debug/traces?format=chrome", &[], None);
    assert_eq!(resp.status, 200);
    let doc = json::parse(&resp.body_text()).expect("chrome doc parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents");
    // 3 requests, each at least: request slice + parse + session +
    // admission + dispatch + solver phases.
    assert!(events.len() >= 3 * 5, "only {} events", events.len());
    for e in events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(e.get("pid").and_then(Json::as_f64).is_some());
        assert!(e.get("tid").and_then(Json::as_f64).is_some());
    }
    handle.stop();
}

/// `/metrics` samples as `name{labels}` → value.
fn metric_samples(addr: SocketAddr) -> BTreeMap<String, f64> {
    let text = request(addr, "GET", "/metrics", &[], None).body_text();
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(name, value)| (name.to_string(), value.parse().expect("sample value")))
        .collect()
}

/// Sampling decides only whether a request keeps its spans. A server that
/// traces every request and one that traces none count the same solver
/// work, batch latencies and search peaks on `/metrics`, over a miss, an
/// exact hit and a warm hit on each of two algorithms.
#[test]
fn sampling_does_not_change_what_metrics_count() {
    let db = Arc::new(generate_movie_db(&MovieDbConfig::tiny(7)));
    let mut servers: Vec<ServerHandle> = [0, 1]
        .into_iter()
        .map(|every| {
            let config = ServerConfig {
                trace_sample_every: every,
                ..ServerConfig::default()
            };
            start(Arc::clone(&db), config).expect("server start")
        })
        .collect();
    for h in &servers {
        let resp = request(h.addr(), "POST", "/profiles/al", &[], Some(PROFILE_WIRE));
        assert_eq!(resp.status, 200, "{}", resp.body_text());
    }
    let mut sent = 0.0;
    for algorithm in ["c_maxbounds", "branch_bound"] {
        for (cmax, tier) in [(500, "miss"), (500, "exact"), (300, "warm")] {
            let body = format!(
                "{{\"user\":\"al\",\"sql\":\"SELECT title FROM MOVIE\",\
                 \"problem\":{{\"kind\":\"p2\",\"cmax\":{cmax}}},\
                 \"algorithm\":\"{algorithm}\"}}"
            );
            for h in &servers {
                let resp = request(h.addr(), "POST", "/personalize", &[], Some(&body));
                assert_eq!(resp.status, 200, "{}", resp.body_text());
                let served = json::parse(&resp.body_text()).unwrap();
                assert_eq!(
                    served.get("cache").and_then(Json::as_str),
                    Some(tier),
                    "{algorithm} cmax={cmax}"
                );
            }
            sent += 1.0;
        }
    }
    let [off, full] = [0, 1].map(|i| metric_samples(servers[i].addr()));
    let counted = |m: &BTreeMap<String, f64>| -> BTreeMap<String, f64> {
        m.iter()
            .filter(|(name, _)| {
                (name.starts_with("cqp_solver_") && name.ends_with("_total"))
                    || *name == "cqp_batch_latency_us_count"
                    || *name == "cqp_solver_peak_bytes_count"
            })
            .map(|(name, &v)| (name.clone(), v))
            .collect()
    };
    let off_counted = counted(&off);
    assert_eq!(off_counted, counted(&full));
    let value = |name: &str| off_counted.get(name).copied().unwrap_or(0.0);
    assert!(value("cqp_solver_states_examined_total") > 0.0);
    assert!(value("cqp_solver_peak_bytes_count") > 0.0);
    assert_eq!(value("cqp_batch_latency_us_count"), sent);
    assert_eq!(off.get("cqp_traces_captured_total"), Some(&0.0));
    assert_eq!(full.get("cqp_traces_captured_total"), Some(&sent));
    // A scrape rejects an exposition that declares one family twice.
    for h in &servers {
        let text = request(h.addr(), "GET", "/metrics", &[], None).body_text();
        let mut declared: BTreeMap<&str, usize> = BTreeMap::new();
        for line in text.lines() {
            if let Some(name) = line
                .strip_prefix("# TYPE ")
                .and_then(|rest| rest.split_whitespace().next())
            {
                *declared.entry(name).or_default() += 1;
            }
        }
        let repeated: Vec<_> = declared.iter().filter(|(_, &n)| n > 1).collect();
        assert!(repeated.is_empty(), "families declared twice: {repeated:?}");
    }
    for h in &mut servers {
        h.stop();
    }
}

fn mk_trace(id: u64, seq: u64) -> Arc<RequestTrace> {
    Arc::new(RequestTrace {
        id: TraceId(id),
        seq,
        label: "POST /personalize".into(),
        start_us: seq,
        total_us: 100,
        meta: Vec::new(),
        spans: vec![SpanRecord {
            name: "dispatch",
            parent: None,
            start_us: 0,
            dur_us: 100,
            counters: Vec::new(),
        }],
        events: Vec::new(),
    })
}

#[test]
fn ring_eviction_is_deterministic_under_concurrent_load() {
    // 4 shards × 8 slots. Each pusher thread owns one shard (ids ≡ shard
    // mod 4), so per-shard arrival order is each thread's program order —
    // eviction must keep exactly the newest 8 per shard no matter how the
    // threads interleave globally.
    const SHARDS: u64 = 4;
    const PER_SHARD: u64 = 8;
    const PUSHES: u64 = 100;
    let ring = Arc::new(TraceRing::new(
        SHARDS as usize,
        (SHARDS * PER_SHARD) as usize,
    ));
    std::thread::scope(|s| {
        for shard in 0..SHARDS {
            let ring = Arc::clone(&ring);
            s.spawn(move || {
                for i in 0..PUSHES {
                    // Distinct id per push, always landing in `shard`.
                    let id = shard + SHARDS * i;
                    ring.push(mk_trace(id, shard * PUSHES + i));
                }
            });
        }
    });
    assert_eq!(ring.len(), (SHARDS * PER_SHARD) as usize);
    let (pushed, evicted) = ring.counters();
    assert_eq!(pushed, SHARDS * PUSHES);
    assert_eq!(evicted, SHARDS * (PUSHES - PER_SHARD));
    for shard in 0..SHARDS {
        // Survivors are exactly the last PER_SHARD pushes of that shard's
        // thread; everything older was evicted in order.
        for i in 0..PUSHES {
            let id = shard + SHARDS * i;
            let found = ring.find(TraceId(id)).is_some();
            let expected = i >= PUSHES - PER_SHARD;
            assert_eq!(
                found, expected,
                "shard {shard} push {i} (id {id}): found={found}"
            );
        }
    }
}
