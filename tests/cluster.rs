//! End-to-end tests of the distributed tier (`cqp-cluster`).
//!
//! The load-bearing claims, in order of importance:
//!
//! 1. **Zero lost acknowledged writes** — a profile write acknowledged
//!    through the router is present on the follower (the replication ack
//!    is synchronous), so killing the primary and failing over loses
//!    nothing the client was told succeeded. Killed mid-burst, the
//!    promoted follower answers every acked user exactly as a single node
//!    that replayed the acked writes does.
//! 2. **Failover is automatic and transparent** — the router's health
//!    probe promotes a live follower; reads and writes keep flowing
//!    through the same front door.
//! 3. **Divergent beats uniform** — pinning each canonical SQL template
//!    class to one replica yields strictly more answer-cache hits than
//!    alternating replicas over the same workload.

use cqp_cluster::{Cluster, ClusterConfig, RoutingPolicy};
use cqp_datagen::{generate_movie_db, MovieDbConfig};
use cqp_obs::Json;
use cqp_server::http::{exchange, ClientResponse, Request, Timeouts};
use cqp_server::{json, start, ServerConfig};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long each request a test sends waits to connect and to be answered.
const WAIT: Timeouts = Timeouts {
    connect: Duration::from_secs(60),
    read: Duration::from_secs(60),
};

static DIR_SERIAL: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cqp-cluster-{tag}-{}-{}",
        std::process::id(),
        DIR_SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn profile_wire(user: &str) -> String {
    format!(
        "# cqp-profile v1\n\
         profile {user}\n\
         join 0.9 MOVIE.mid GENRE.mid\n\
         select 0.8 GENRE.genre eq \"comedy\"\n\
         select 0.6 MOVIE.year ge 1990\n"
    )
}

fn personalize_body(user: &str, sql: &str) -> String {
    format!(
        "{{\"user\":{},\"sql\":{},\"problem\":{{\"kind\":\"p2\",\"cmax\":500}},\
         \"algorithm\":\"c_maxbounds\"}}",
        Json::Str(user.to_string()).render(),
        Json::Str(sql.to_string()).render()
    )
}

/// The `cache` tier a personalize response reports.
fn cache_tier(resp: &ClientResponse) -> String {
    json::parse(&resp.body_text())
        .expect("personalize body is JSON")
        .get("cache")
        .and_then(Json::as_str)
        .expect("cache tier present")
        .to_string()
}

fn users(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("user{i:03}")).collect()
}

/// Polls `f` until it returns true or `timeout` elapses.
fn wait_for(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < timeout {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

#[test]
fn writes_through_the_router_replicate_to_every_follower() {
    let mut cluster = Cluster::start(ClusterConfig::new(2, tmpdir("repl"))).expect("cluster");
    let addr = cluster.router.addr();
    let all = users(8);
    for user in &all {
        let resp = exchange(
            addr,
            &Request::post(&format!("/profiles/{user}"), profile_wire(user)),
            WAIT,
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        let body = json::parse(&resp.body_text()).unwrap();
        assert_eq!(body.get("version").and_then(Json::as_u64), Some(1));
    }

    // Synchronous replication: by the time the router acked the write,
    // the follower had applied it. Every group's follower dump matches
    // its primary's, and the groups partition the users.
    let catalog = cluster.db().catalog().clone();
    let mut seen = 0usize;
    for group in &cluster.groups {
        let primary = group.primary.state().store.dump(&catalog);
        let follower = group.follower.state().store.dump(&catalog);
        assert_eq!(primary, follower, "group {} diverged", group.name);
        seen += primary.len();
        for (version, _) in primary.values() {
            assert_eq!(*version, 1);
        }
    }
    assert_eq!(seen, all.len(), "groups must partition the users");

    // Reads through the router see every profile regardless of group.
    for user in &all {
        let resp = exchange(addr, &Request::get(&format!("/profiles/{user}")), WAIT).unwrap();
        assert_eq!(resp.status, 200, "{user}: {}", resp.body_text());
        assert!(resp.body_text().contains(&format!("profile {user}")));
    }
    cluster.stop();
}

#[test]
fn failover_keeps_every_acknowledged_write_and_accepts_new_ones() {
    let mut cluster = Cluster::start(ClusterConfig::new(1, tmpdir("failover"))).expect("cluster");
    let addr = cluster.router.addr();
    let all = users(6);
    // Two acknowledged versions per user.
    for round in 1..=2u64 {
        for user in &all {
            let resp = exchange(
                addr,
                &Request::post(&format!("/profiles/{user}"), profile_wire(user)),
                WAIT,
            )
            .unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body_text());
            let body = json::parse(&resp.body_text()).unwrap();
            assert_eq!(body.get("version").and_then(Json::as_u64), Some(round));
        }
    }
    let reference: Vec<String> = all
        .iter()
        .map(|user| {
            exchange(addr, &Request::get(&format!("/profiles/{user}")), WAIT)
                .unwrap()
                .body_text()
        })
        .collect();

    // Kill the primary. The router's probe notices and promotes the
    // follower (counted in /router/stats).
    cluster.groups[0].primary.stop();
    let promoted = wait_for(Duration::from_secs(10), || {
        let stats = exchange(addr, &Request::get("/router/stats"), WAIT).unwrap();
        json::parse(&stats.body_text())
            .ok()
            .and_then(|j| j.get("failovers").and_then(Json::as_u64))
            .is_some_and(|n| n >= 1)
    });
    assert!(promoted, "router never failed the group over");

    // Every acknowledged write survives, bit-identical.
    for (user, expected) in all.iter().zip(&reference) {
        let resp = exchange(addr, &Request::get(&format!("/profiles/{user}")), WAIT).unwrap();
        assert_eq!(resp.status, 200, "{user} lost after failover");
        assert_eq!(
            &resp.body_text(),
            expected,
            "{user} diverged after failover"
        );
    }

    // The promoted follower accepts new writes (version continues) and
    // serves personalize.
    let resp = exchange(
        addr,
        &Request::post(&format!("/profiles/{}", all[0]), profile_wire(&all[0])),
        WAIT,
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let body = json::parse(&resp.body_text()).unwrap();
    assert_eq!(body.get("version").and_then(Json::as_u64), Some(3));
    let resp = exchange(
        addr,
        &Request::post(
            "/personalize",
            personalize_body(&all[0], "SELECT title FROM MOVIE"),
        ),
        WAIT,
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    cluster.stop();
}

/// A personalize answer without its per-run fields (`latency_us` and the
/// `cache` tier) at every object level, so it compares across servers.
fn without_run_fields(json: Json) -> Json {
    match json {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "latency_us" && k != "cache")
                .map(|(k, v)| (k, without_run_fields(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(without_run_fields).collect()),
        other => other,
    }
}

/// Op `i` of round `round`'s seeded write burst: `(user, profile text)`.
/// Six users over up to 45 acked writes, so most users are written more
/// than once.
fn burst_op(seed: u64, round: u64, i: u64) -> (String, String) {
    const USERS: [&str; 6] = ["al", "bo", "cy", "di", "ed", "fay"];
    const GENRES: [&str; 4] = ["comedy", "drama", "horror", "scifi"];
    let r = rand::splitmix64_mix(seed ^ rand::splitmix64_mix(round.wrapping_mul(0x9E37) ^ i));
    let user = USERS[(r % USERS.len() as u64) as usize];
    let genre = GENRES[((r >> 8) % GENRES.len() as u64) as usize];
    let year = 1970 + ((r >> 16) % 50);
    let text = format!(
        "# cqp-profile v1\n\
         profile {user}\n\
         join 0.9 MOVIE.mid GENRE.mid\n\
         select 0.8 GENRE.genre eq \"{genre}\"\n\
         select 0.6 MOVIE.year ge {year}\n"
    );
    (user.to_string(), text)
}

/// Kills the primary mid-burst and promotes its follower, then holds the
/// follower to a single node that replayed exactly the acknowledged
/// writes: every acked user's profile and both personalize answers (minus
/// `latency_us` and `cache`) must match. Three seeded rounds, each killing
/// at its own ack count; writes go straight to the primary.
#[test]
fn primary_killed_mid_burst_keeps_every_acked_profile_and_answer() {
    let seed = 7u64;
    let db = Arc::new(generate_movie_db(&MovieDbConfig::tiny(seed)));
    let root = tmpdir("midburst");
    let boot = |config: ServerConfig| {
        start(
            Arc::clone(&db),
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                seed_users: 0,
                ..config
            },
        )
        .expect("server start")
    };
    for round in 0..3u64 {
        let mut primary = boot(ServerConfig {
            wal_dir: Some(root.join(format!("r{round}-primary"))),
            repl_listen: Some("127.0.0.1:0".into()),
            ..Default::default()
        });
        let repl_addr = primary.repl_addr().expect("replication listener");
        let mut follower = boot(ServerConfig {
            wal_dir: Some(root.join(format!("r{round}-follower"))),
            follow: Some(repl_addr.to_string()),
            ..Default::default()
        });

        let kill_at = 15 + rand::splitmix64_mix(seed.wrapping_add(round.wrapping_mul(0xC13))) % 30;
        let mut acked: Vec<(String, String)> = Vec::new();
        for i in 0..60 {
            let (user, text) = burst_op(seed, round, i);
            let resp = exchange(
                primary.addr(),
                &Request::post(&format!("/profiles/{user}"), &text),
                WAIT,
            )
            .unwrap();
            assert_eq!(resp.status, 200, "round {round}: {}", resp.body_text());
            acked.push((user, text));
            if acked.len() == 1 {
                // The follower holds the first ack once it has attached:
                // from then on every ack waits for its apply.
                let first = &acked[0].0;
                let attached = wait_for(Duration::from_secs(10), || {
                    exchange(
                        follower.addr(),
                        &Request::get(&format!("/profiles/{first}")),
                        WAIT,
                    )
                    .unwrap()
                    .status
                        == 200
                });
                assert!(attached, "round {round}: the follower never attached");
            }
            if acked.len() as u64 == kill_at {
                primary.stop();
                break;
            }
        }
        assert_eq!(acked.len() as u64, kill_at, "round {round}");
        let promoted =
            exchange(follower.addr(), &Request::post("/admin/promote", ""), WAIT).unwrap();
        assert_eq!(
            promoted.status,
            200,
            "round {round}: {}",
            promoted.body_text()
        );

        let mut reference = boot(ServerConfig::default());
        for (user, text) in &acked {
            let resp = exchange(
                reference.addr(),
                &Request::post(&format!("/profiles/{user}"), text),
                WAIT,
            )
            .unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body_text());
        }
        let users: BTreeSet<&str> = acked.iter().map(|(u, _)| u.as_str()).collect();
        for user in users {
            let path = format!("/profiles/{user}");
            let on_follower = exchange(follower.addr(), &Request::get(&path), WAIT).unwrap();
            let on_reference = exchange(reference.addr(), &Request::get(&path), WAIT).unwrap();
            assert_eq!(on_follower.status, 200, "round {round}: {user} lost");
            assert_eq!(
                on_follower.body_text(),
                on_reference.body_text(),
                "round {round}: {user}'s profile diverged after the kill at ack {kill_at}"
            );
            for sql in [
                "SELECT title FROM MOVIE",
                "SELECT title FROM MOVIE WHERE MOVIE.year >= 1990",
            ] {
                let body = personalize_body(user, sql);
                let answer = |addr: SocketAddr| {
                    let resp = exchange(addr, &Request::post("/personalize", &body), WAIT).unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body_text());
                    let parsed = json::parse(&resp.body_text()).expect("personalize JSON");
                    without_run_fields(parsed).render()
                };
                assert_eq!(
                    answer(follower.addr()),
                    answer(reference.addr()),
                    "round {round}: {user}'s answer to {sql:?} diverged after the kill"
                );
            }
        }
        reference.stop();
        follower.stop();
    }
}

/// Runs `rounds` passes of the same (user × template) personalize mix
/// through a fresh cluster and returns the total answer-cache hit count
/// (`exact` + `warm` tiers).
fn cache_hits(policy: RoutingPolicy, tag: &str, rounds: usize) -> u64 {
    let mut config = ClusterConfig::new(1, tmpdir(tag));
    config.policy = policy;
    let mut cluster = Cluster::start(config).expect("cluster");
    let addr = cluster.router.addr();
    let all = users(5);
    for user in &all {
        let resp = exchange(
            addr,
            &Request::post(&format!("/profiles/{user}"), profile_wire(user)),
            WAIT,
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
    }
    // Three templates (distinct constants = distinct canonical classes)
    // over five users: 15 (user, template) pairs per round — odd on
    // purpose, so uniform alternation cannot accidentally re-align pairs
    // with the replica that warmed them.
    let templates = [
        "SELECT title FROM MOVIE",
        "SELECT title FROM MOVIE WHERE MOVIE.year >= 1990",
        "SELECT title FROM MOVIE WHERE MOVIE.year >= 1995",
    ];
    let mut hits = 0u64;
    for _ in 0..rounds {
        for user in &all {
            for sql in &templates {
                let resp = exchange(
                    addr,
                    &Request::post("/personalize", personalize_body(user, sql)),
                    WAIT,
                )
                .unwrap();
                assert_eq!(resp.status, 200, "{}", resp.body_text());
                if matches!(cache_tier(&resp).as_str(), "exact" | "warm") {
                    hits += 1;
                }
            }
        }
    }
    cluster.stop();
    hits
}

#[test]
fn divergent_routing_beats_uniform_on_a_repeated_template_mix() {
    let divergent = cache_hits(RoutingPolicy::Divergent, "divergent", 3);
    let uniform = cache_hits(RoutingPolicy::Uniform, "uniform", 3);
    // Divergent pins each template class to one replica: every repeat
    // after the first is a hit (2 of 3 rounds). Uniform alternates, so
    // each replica pays its own cold pass.
    assert!(
        divergent > uniform,
        "divergent ({divergent} hits) should beat uniform ({uniform} hits)"
    );
    assert!(
        divergent >= 30,
        "divergent should hit on every repeat round"
    );
}

#[test]
fn router_endpoints_and_replica_roles() {
    let mut cluster = Cluster::start(ClusterConfig::new(1, tmpdir("roles"))).expect("cluster");
    let addr = cluster.router.addr();

    let live = exchange(addr, &Request::get("/healthz/live"), WAIT).unwrap();
    assert_eq!(live.status, 200);
    let body = json::parse(&live.body_text()).unwrap();
    assert_eq!(body.get("component").and_then(Json::as_str), Some("router"));

    let stats = exchange(addr, &Request::get("/router/stats"), WAIT).unwrap();
    assert_eq!(stats.status, 200);
    let body = json::parse(&stats.body_text()).unwrap();
    assert_eq!(body.get("policy").and_then(Json::as_str), Some("divergent"));
    assert!(matches!(body.get("groups"), Some(Json::Arr(groups)) if groups.len() == 1));

    // A router-made 404 and a backend 404 the router relays parse the
    // same way: `{"error": {"code", "message"}}`.
    let error_code = |resp: &ClientResponse| -> Option<String> {
        let body = json::parse(&resp.body_text()).ok()?;
        let error = body.get("error")?;
        error.get("message")?.as_str()?;
        error.get("code")?.as_str().map(str::to_string)
    };
    let missing = exchange(addr, &Request::get("/metrics"), WAIT).unwrap();
    assert_eq!(missing.status, 404, "per-replica endpoints are not routed");
    assert_eq!(error_code(&missing).as_deref(), Some("not_routable"));
    let relayed = exchange(addr, &Request::get("/profiles/nobody"), WAIT).unwrap();
    assert_eq!(relayed.status, 404, "{}", relayed.body_text());
    assert_eq!(error_code(&relayed).as_deref(), Some("unknown_user"));

    // Replica roles: the primary reports `primary`, the follower
    // `follower`, and a direct write to the follower is refused.
    let group = &cluster.groups[0];
    let ready = exchange(group.primary.addr(), &Request::get("/healthz/ready"), WAIT).unwrap();
    let body = json::parse(&ready.body_text()).unwrap();
    assert_eq!(body.get("role").and_then(Json::as_str), Some("primary"));
    let ready = exchange(group.follower.addr(), &Request::get("/healthz/ready"), WAIT).unwrap();
    let body = json::parse(&ready.body_text()).unwrap();
    assert_eq!(body.get("role").and_then(Json::as_str), Some("follower"));
    let refused = exchange(
        group.follower.addr(),
        &Request::post("/profiles/al", profile_wire("al")),
        WAIT,
    )
    .unwrap();
    assert_eq!(refused.status, 503);
    let body = json::parse(&refused.body_text()).unwrap();
    assert_eq!(
        body.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("not_primary")
    );
    cluster.stop();
}
