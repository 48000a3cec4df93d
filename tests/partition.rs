//! Partition tests: epoch fencing, the deterministic nemesis, and the
//! acked-write consistency checker, end to end.
//!
//! The claims under test, in order of importance:
//!
//! 1. **A deposed primary can never accept another write.** Once any
//!    request or heartbeat carrying a higher epoch reaches it, it
//!    self-demotes to fenced and answers every write with 503
//!    `stale_epoch` — by construction, not by timeout.
//! 2. **Split brain does not merge.** Partition the primary, promote
//!    the follower, write through both faces of the brain, heal: the
//!    checker finds zero lost acked writes and zero divergent
//!    `(user, version)` slots, because the old primary's face was
//!    fenced before it could acknowledge anything conflicting.
//! 3. **Racing promotions crown exactly one winner.** Two followers
//!    promoted concurrently both claim primaryship; the router resolves
//!    the tie by re-promoting one at a strictly higher epoch, and the
//!    loser fences itself on the next heartbeat.
//! 4. **Pre-epoch WALs still recover.** A seed-format log (no `E1`
//!    frames, no `epoch` fields) opens as epoch 0 and serves.
//! 5. **Read retries are budgeted.** A flapping replica burns the
//!    group's retry tokens; when the bucket is dry the router sheds
//!    with 503 + `Retry-After` instead of amplifying the failure.

use cqp_cluster::nemesis::{start_nemesis, Fault, NemesisPlan};
use cqp_cluster::{
    check, start_router, AckLog, Cluster, ClusterConfig, ReplicaDump, RouterConfig, ShardSpec,
};
use cqp_core::answer_cache::{fnv1a, FNV_OFFSET};
use cqp_datagen::{generate_movie_db, MovieDbConfig};
use cqp_obs::Json;
use cqp_server::http::{exchange, ClientResponse, Request, Timeouts};
use cqp_server::{json, start, ServerConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long each request a test sends waits to connect and to be answered.
const WAIT: Timeouts = Timeouts {
    connect: Duration::from_secs(2),
    read: Duration::from_secs(10),
};

static DIR_SERIAL: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cqp-partition-{tag}-{}-{}",
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

/// The nested `error.code` of a serverd `ApiError` response.
fn error_code(resp: &ClientResponse) -> Option<String> {
    json::parse(&resp.body_text())
        .ok()?
        .get("error")?
        .get("code")?
        .as_str()
        .map(str::to_string)
}

/// Writes `user`'s profile through `addr` and records the ack (version
/// and epoch from the response) into `log`. Returns the response.
fn acked_write(addr: SocketAddr, user: &str, log: &AckLog) -> ClientResponse {
    try_acked_write(addr, user, log).expect("acked_write request")
}

/// Like [`acked_write`], but a transport failure (connect refused,
/// severed mid-response) is an `Err`, not a panic — what a nemesis run
/// needs, where only 200s count and everything else is noise.
fn try_acked_write(addr: SocketAddr, user: &str, log: &AckLog) -> std::io::Result<ClientResponse> {
    let text = profile_wire(user);
    let resp = exchange(
        addr,
        &Request::post(&format!("/profiles/{user}"), &text),
        WAIT,
    )?;
    if resp.status == 200 {
        let body = json::parse(&resp.body_text()).expect("write ack is JSON");
        let version = body
            .get("version")
            .and_then(Json::as_u64)
            .expect("ack carries version");
        let epoch = body.get("epoch").and_then(Json::as_u64).unwrap_or(0);
        log.record(user, version, epoch, &text);
    }
    Ok(resp)
}

/// A replica's `/healthz/ready` role and epoch, read directly.
fn role_and_epoch(addr: SocketAddr) -> (String, u64) {
    let resp = exchange(addr, &Request::get("/healthz/ready"), WAIT).unwrap();
    let body = json::parse(&resp.body_text()).expect("readiness is JSON");
    (
        body.get("role")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string(),
        body.get("epoch").and_then(Json::as_u64).unwrap_or(0),
    )
}

#[test]
fn higher_epoch_write_header_fences_a_primary_permanently() {
    let mut cluster = Cluster::start(ClusterConfig::new(1, tmpdir("fence"))).expect("cluster");
    let primary_addr = cluster.groups[0].primary.addr();

    // A normal write lands (directly on the primary; no header = epoch 0).
    let resp = exchange(
        primary_addr,
        &Request::post("/profiles/al", profile_wire("al")),
        WAIT,
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(role_and_epoch(primary_addr), ("primary".into(), 0));

    // A write stamped with a higher epoch means a newer primary exists
    // somewhere: the replica must refuse it AND stop being a primary.
    let refused = exchange(
        primary_addr,
        &Request::post("/profiles/al", profile_wire("al")).with_header("x-cqp-epoch", "5"),
        WAIT,
    )
    .expect("request");
    assert_eq!(refused.status, 503, "{}", refused.body_text());
    assert_eq!(error_code(&refused).as_deref(), Some("stale_epoch"));

    // The demotion is permanent and durable: fenced role, adopted
    // epoch, and every further write — with or without a header — is
    // refused with `stale_epoch`.
    assert_eq!(role_and_epoch(primary_addr), ("fenced".into(), 5));
    let refused = exchange(
        primary_addr,
        &Request::post("/profiles/al", profile_wire("al")),
        WAIT,
    )
    .unwrap();
    assert_eq!(refused.status, 503);
    assert_eq!(error_code(&refused).as_deref(), Some("stale_epoch"));

    // Reads still work (staleness is the router's problem to route
    // around; the data it does have is intact).
    let read = exchange(primary_addr, &Request::get("/profiles/al"), WAIT).unwrap();
    assert_eq!(read.status, 200);
    cluster.stop();
}

#[test]
fn split_brain_schedule_fences_old_primary_and_loses_no_acked_write() {
    let mut cluster =
        Cluster::start(ClusterConfig::with_nemesis(1, tmpdir("split"))).expect("cluster");
    let router_addr = cluster.router.addr();
    let acks = AckLog::new();
    let all = users(4);

    // Phase 1: healthy writes through the router, all acked at epoch 0.
    for user in &all {
        let resp = acked_write(router_addr, user, &acks);
        assert_eq!(resp.status, 200, "{}", resp.body_text());
    }

    // Phase 2: partition the primary — both its HTTP face (router side)
    // and the replication stream (follower side) go dark at once.
    {
        let nemesis = cluster.groups[0].nemesis.as_ref().expect("nemesis cluster");
        nemesis.primary_http.set_fault(Fault::Partition);
        nemesis.repl.set_fault(Fault::Partition);
    }

    // The router notices and promotes the follower at a higher epoch.
    let promoted = wait_for(Duration::from_secs(10), || {
        let stats = exchange(router_addr, &Request::get("/router/stats"), WAIT).unwrap();
        json::parse(&stats.body_text())
            .ok()
            .and_then(|j| j.get("failovers").and_then(Json::as_u64))
            .is_some_and(|n| n >= 1)
    });
    assert!(promoted, "router never failed over the partitioned primary");

    // Phase 3: write through the router (the healthy side of the
    // brain). These are acked by the new primary at the new epoch.
    for user in &all {
        let ok = wait_for(Duration::from_secs(10), || {
            acked_write(router_addr, user, &acks).status == 200
        });
        assert!(
            ok,
            "{user}: router side of the partition must accept writes"
        );
    }

    // Phase 4: the old primary, still partitioned from the router but
    // reachable by "clients on its side" (we talk to its real address,
    // behind the proxy). The first write carrying the new epoch fences
    // it; everything after dies with `stale_epoch` — the brain's stale
    // face never acknowledges a conflicting write.
    let old_primary = cluster.groups[0].primary.addr();
    let stats = exchange(router_addr, &Request::get("/router/stats"), WAIT).unwrap();
    let new_epoch = json::parse(&stats.body_text())
        .ok()
        .and_then(|j| j.get("groups")?.as_array()?.first()?.get("epoch")?.as_u64())
        .expect("router stats expose the group epoch");
    assert!(new_epoch >= 1, "failover must bump the epoch");
    let epoch_header = new_epoch.to_string();
    let mut fenced_rejections = 0u64;
    for user in &all {
        let resp = exchange(
            old_primary,
            &Request::post(&format!("/profiles/{user}"), profile_wire(user))
                .with_header("x-cqp-epoch", &epoch_header),
            WAIT,
        )
        .expect("old primary reachable directly");
        assert_eq!(
            resp.status,
            503,
            "old primary accepted a write: {}",
            resp.body_text()
        );
        assert_eq!(error_code(&resp).as_deref(), Some("stale_epoch"));
        fenced_rejections += 1;
    }
    assert_eq!(role_and_epoch(old_primary).0, "fenced");
    assert!(fenced_rejections > 0);

    // Phase 5: heal. The fenced ex-primary rejoins the network but
    // never primaryship; the router keeps routing around it.
    {
        let nemesis = cluster.groups[0].nemesis.as_ref().expect("nemesis cluster");
        nemesis.primary_http.heal();
        nemesis.repl.heal();
    }
    let resp = acked_write(router_addr, &all[0], &acks);
    assert_eq!(resp.status, 200, "post-heal write: {}", resp.body_text());

    // The verdict: dump both replicas and run the checker. The fenced
    // old primary is exempt from the lost-write check (it is *behind*,
    // by design) but must not *contradict* anything that was acked.
    let catalog = cluster.db().catalog().clone();
    let dumps = vec![
        ReplicaDump {
            name: "g0/old-primary".into(),
            fenced: true,
            sessions: cluster.groups[0].primary.state().store.dump(&catalog),
        },
        ReplicaDump {
            name: "g0/new-primary".into(),
            fenced: false,
            sessions: cluster.groups[0].follower.state().store.dump(&catalog),
        },
    ];
    let report = check(&acks.snapshot(), &dumps);
    assert_eq!(report.lost_acked_writes, 0, "{:?}", report.details);
    assert_eq!(report.split_brain_divergence, 0, "{:?}", report.details);
    assert_eq!(report.order_violations, 0, "{:?}", report.details);
    assert!(report.consistent());
    cluster.stop();
}

#[test]
fn racing_promotions_crown_exactly_one_primary_and_fence_the_loser() {
    let root = tmpdir("race");
    let db = Arc::new(generate_movie_db(&MovieDbConfig::tiny(7)));
    // One primary, two followers — assembled by hand because the
    // harness builds pairs.
    let mut primary = start(
        Arc::clone(&db),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            wal_dir: Some(root.join("primary")),
            repl_listen: Some("127.0.0.1:0".into()),
            seed_users: 0,
            ..Default::default()
        },
    )
    .expect("primary");
    let repl_addr = primary.repl_addr().expect("repl listener").to_string();
    let start_follower = |dir: &str| {
        start(
            Arc::clone(&db),
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                wal_dir: Some(root.join(dir)),
                follow: Some(repl_addr.clone()),
                seed_users: 0,
                ..Default::default()
            },
        )
        .expect("follower")
    };
    let mut follower_a = start_follower("follower-a");
    let mut follower_b = start_follower("follower-b");

    // Replicate one write so both followers have state.
    let resp = exchange(
        primary.addr(),
        &Request::post("/profiles/al", profile_wire("al")),
        WAIT,
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());

    let mut router = start_router(RouterConfig {
        shards: vec![ShardSpec {
            name: "g0".into(),
            replicas: vec![primary.addr(), follower_a.addr(), follower_b.addr()],
        }],
        probe_interval: Duration::from_millis(50),
        ..Default::default()
    })
    .expect("router");

    // Kill the primary, then race two promotions directly (an operator
    // script and the router's failover, say). Both succeed locally:
    // each follower bumps its own epoch to 1 and claims primaryship.
    primary.stop();
    let (addr_a, addr_b) = (follower_a.addr(), follower_b.addr());
    let ta = std::thread::spawn(move || {
        exchange(addr_a, &Request::new("POST", "/admin/promote"), WAIT)
            .unwrap()
            .status
    });
    let tb = std::thread::spawn(move || {
        exchange(addr_b, &Request::new("POST", "/admin/promote"), WAIT)
            .unwrap()
            .status
    });
    assert_eq!(ta.join().unwrap(), 200);
    assert_eq!(tb.join().unwrap(), 200);

    // The router's probe sees two claimants, crowns one at a strictly
    // higher epoch, and the loser fences itself on the next heartbeat.
    let resolved = wait_for(Duration::from_secs(10), || {
        let (role_a, _) = role_and_epoch(addr_a);
        let (role_b, _) = role_and_epoch(addr_b);
        matches!(
            (role_a.as_str(), role_b.as_str()),
            ("primary", "fenced") | ("fenced", "primary")
        )
    });
    let (role_a, epoch_a) = role_and_epoch(addr_a);
    let (role_b, epoch_b) = role_and_epoch(addr_b);
    assert!(
        resolved,
        "dual primary never resolved: a=({role_a}, {epoch_a}) b=({role_b}, {epoch_b})"
    );
    let (winner_epoch, loser_epoch) = if role_a == "primary" {
        (epoch_a, epoch_b)
    } else {
        (epoch_b, epoch_a)
    };
    assert!(
        winner_epoch >= 2,
        "the winner must be re-crowned above the tied epoch, got {winner_epoch}"
    );
    assert_eq!(
        loser_epoch, winner_epoch,
        "the loser heard the winner's epoch via the heartbeat"
    );

    // Writes through the router land on the winner; the fenced loser
    // refuses direct writes.
    let resp = exchange(
        router.addr(),
        &Request::post("/profiles/al", profile_wire("al")),
        WAIT,
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let loser = if role_a == "fenced" { addr_a } else { addr_b };
    let refused = exchange(
        loser,
        &Request::post("/profiles/al", profile_wire("al")),
        WAIT,
    )
    .unwrap();
    assert_eq!(refused.status, 503);
    assert_eq!(error_code(&refused).as_deref(), Some("stale_epoch"));

    router.stop();
    follower_a.stop();
    follower_b.stop();
}

#[test]
fn pre_epoch_seed_format_wal_recovers_and_serves() {
    use cqp_server::wal::LOG_FILE;
    let root = tmpdir("preepoch");
    std::fs::create_dir_all(&root).expect("mkdir");

    // A seed-format log: W1 frames only, no `epoch` field, no E1
    // markers — byte-for-byte what the pre-epoch code wrote.
    let text = profile_wire("al");
    let payload = format!(
        "{{\"op\":\"put\",\"user\":\"al\",\"version\":1,\"profile\":{}}}",
        Json::Str(text.clone()).render()
    );
    let mut frame = format!(
        "W1 {} {:016x} ",
        payload.len(),
        fnv1a(FNV_OFFSET, payload.as_bytes())
    )
    .into_bytes();
    frame.extend_from_slice(payload.as_bytes());
    frame.push(b'\n');
    std::fs::write(root.join(LOG_FILE), &frame).expect("write seed log");

    let db = Arc::new(generate_movie_db(&MovieDbConfig::tiny(7)));
    let mut server = start(
        Arc::clone(&db),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            wal_dir: Some(root.clone()),
            seed_users: 0,
            ..Default::default()
        },
    )
    .expect("server over seed-format WAL");

    // The profile recovered, the server reports epoch 0, and new writes
    // continue the version chain.
    let read = exchange(server.addr(), &Request::get("/profiles/al"), WAIT).unwrap();
    assert_eq!(read.status, 200, "{}", read.body_text());
    assert!(read.body_text().contains("profile al"));
    let ready = exchange(server.addr(), &Request::get("/healthz/ready"), WAIT).unwrap();
    let body = json::parse(&ready.body_text()).unwrap();
    assert_eq!(body.get("epoch").and_then(Json::as_u64), Some(0));
    let resp = exchange(server.addr(), &Request::post("/profiles/al", &text), WAIT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let body = json::parse(&resp.body_text()).unwrap();
    assert_eq!(body.get("version").and_then(Json::as_u64), Some(2));
    server.stop();
}

#[test]
fn read_retry_budget_sheds_with_retry_after_when_exhausted() {
    let root = tmpdir("budget");
    let db = Arc::new(generate_movie_db(&MovieDbConfig::tiny(7)));
    let start_plain = |dir: &str| {
        start(
            Arc::clone(&db),
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                wal_dir: Some(root.join(dir)),
                seed_users: 0,
                ..Default::default()
            },
        )
        .expect("server")
    };
    let mut a = start_plain("a");
    let mut b = start_plain("b");
    // Replica 0 flaps: every second connection through its proxy dies —
    // probes mostly keep it "alive" while forwards keep failing, which
    // is exactly the pathology the retry budget exists for.
    let mut flaky = start_nemesis(a.addr()).expect("nemesis");
    flaky.set_fault(Fault::DropEveryNth { n: 2 });
    let mut router = start_router(RouterConfig {
        shards: vec![ShardSpec {
            name: "g0".into(),
            replicas: vec![flaky.addr(), b.addr()],
        }],
        probe_interval: Duration::from_millis(10),
        retry_budget: 2,
        ..Default::default()
    })
    .expect("router");

    // Profile reads prefer the group primary, and the router sensibly
    // fails over *away* from the flapping replica — so pin reads onto
    // it deliberately, the way the divergent policy does: pick a SQL
    // template whose canonical class lands on replica 0.
    let sql = (0..64)
        .map(|year| format!("SELECT title FROM MOVIE WHERE MOVIE.year >= {year}"))
        .find(|sql| {
            fnv1a(FNV_OFFSET, cqp_server::canonicalize_sql(sql).as_bytes()) as usize % 2 == 0
        })
        .expect("some template class lands on replica 0");
    let body = format!(
        "{{\"user\":\"alice\",\"sql\":{},\"problem\":{{\"kind\":\"p2\",\"cmax\":500}},\
         \"algorithm\":\"c_maxbounds\"}}",
        Json::Str(sql.clone()).render()
    );

    // Hammer reads until the budget runs dry. Successes refill slowly
    // (a tenth of a token) while each sibling retry costs a full one,
    // so with budget 2 the shed must appear well within the loop.
    let mut shed: Option<ClientResponse> = None;
    for _ in 0..400 {
        let resp = exchange(router.addr(), &Request::post("/personalize", &body), WAIT).unwrap();
        if resp.status == 503 && error_code(&resp).as_deref() == Some("retry_budget_exhausted") {
            shed = Some(resp);
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let final_stats = exchange(router.addr(), &Request::get("/router/stats"), WAIT)
        .unwrap()
        .body_text();
    let shed = shed.unwrap_or_else(|| {
        panic!("the retry budget never exhausted under a flapping replica: {final_stats}")
    });
    assert!(
        shed.headers
            .iter()
            .any(|(name, value)| name == "retry-after" && value == "1"),
        "shed responses must carry retry-after: {:?}",
        shed.headers
    );
    let stats = exchange(router.addr(), &Request::get("/router/stats"), WAIT).unwrap();
    let body = json::parse(&stats.body_text()).unwrap();
    assert!(
        body.get("retry_budget_exhausted")
            .and_then(Json::as_u64)
            .is_some_and(|n| n >= 1),
        "{}",
        stats.body_text()
    );

    router.stop();
    flaky.stop();
    a.stop();
    b.stop();
}

/// Runs `plan` on the primary's HTTP link while `users_n` users write
/// `rounds` rounds through the router, heals, and runs the checker over
/// every ack. `input` names the schedule in each assertion message.
fn nemesis_churn(input: &str, plan: NemesisPlan, users_n: usize, rounds: usize) {
    let mut cluster =
        Cluster::start(ClusterConfig::with_nemesis(1, tmpdir("churn"))).expect("cluster");
    let router_addr = cluster.router.addr();
    let acks = AckLog::new();
    let all = users(users_n);
    for user in &all {
        let resp = acked_write(router_addr, user, &acks);
        assert_eq!(resp.status, 200, "{input}: {}", resp.body_text());
    }

    // A deterministic fault schedule on the primary's HTTP link: same
    // seed, same plan, every run. Writes race the faults; only the
    // acked ones count.
    {
        let nemesis = cluster.groups[0].nemesis.as_mut().expect("nemesis cluster");
        nemesis.primary_http.run_plan(plan);
    }
    for _round in 0..rounds {
        for user in &all {
            // Best effort: a 503 or transport error during a fault is
            // fine — the point is that whatever got a 200 must survive.
            let _ = try_acked_write(router_addr, user, &acks);
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    {
        let nemesis = cluster.groups[0].nemesis.as_mut().expect("nemesis cluster");
        nemesis.primary_http.join_plan();
        nemesis.primary_http.heal();
        nemesis.repl.heal();
    }
    // One final sentinel write to prove the cluster healed.
    let healed = wait_for(Duration::from_secs(10), || {
        acked_write(router_addr, &all[0], &acks).status == 200
    });
    assert!(
        healed,
        "{input}: cluster never healed after the nemesis plan"
    );

    let catalog = cluster.db().catalog().clone();
    // Which replica is authoritative depends on whether the plan's
    // partitions triggered a failover; ask each server for its role.
    let dumps: Vec<ReplicaDump> = [
        ("g0/primary", &cluster.groups[0].primary),
        ("g0/follower", &cluster.groups[0].follower),
    ]
    .into_iter()
    .map(|(name, server)| ReplicaDump {
        name: name.into(),
        fenced: role_and_epoch(server.addr()).0 == "fenced",
        sessions: server.state().store.dump(&catalog),
    })
    .collect();
    let report = check(&acks.snapshot(), &dumps);
    assert_eq!(report.lost_acked_writes, 0, "{input}: {:?}", report.details);
    assert_eq!(
        report.split_brain_divergence, 0,
        "{input}: {:?}",
        report.details
    );
    assert!(report.consistent(), "{input}: {:?}", report.details);
    cluster.stop();
}

#[test]
fn seeded_nemesis_churn_keeps_every_acked_write() {
    nemesis_churn(
        "6 steps, 3 users x 5 rounds",
        NemesisPlan::seeded(0xC0FFEE, 6, 40),
        3,
        5,
    );
    nemesis_churn(
        "8 steps, 4 users x 8 rounds",
        NemesisPlan::seeded(0xC0FFEE, 8, 40),
        4,
        8,
    );
}
