//! Differential tests of the cross-request answer cache, over real sockets.
//!
//! The load-bearing claim: the cache changes *latency*, never *answers*.
//! Every response served from any cache tier — exact, warm-started, or
//! repair — must be bit-identical to what a cache-off server (or an
//! in-process cold solve) produces from the same database, profile version,
//! and problem. And a profile write must never leave a stale answer
//! reachable, including across a WAL crash-recovery cycle.

use cqp_core::algorithms::branch_bound;
use cqp_core::budget::CancelToken;
use cqp_core::ProblemSpec;
use cqp_obs::Json;
use cqp_prefs::{ConjModel, Doi};
use cqp_prefspace::{PrefParams, PreferenceSpace};
use cqp_server::http::{exchange, Request, Timeouts};
use cqp_server::{json, start, ServerConfig, ServerHandle, TRACE_ID_HEADER};
use proptest::prelude::*;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// A merge-upsert that moves the profile: a new high-doi selection and a
/// stronger doi on an existing one, so the personalized answer can change.
const PROFILE_DELTA_WIRE: &str = "# cqp-profile v1\n\
    profile al\n\
    select 0.95 GENRE.genre eq \"drama\"\n\
    select 0.9 MOVIE.year ge 1990\n";

const SQL: &str = "SELECT title FROM MOVIE";

static DIR_SERIAL: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cqp-anscache-{tag}-{}-{}",
        std::process::id(),
        DIR_SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn boot(config: ServerConfig) -> ServerHandle {
    let db = Arc::new(cqp_datagen::generate_movie_db(
        &cqp_datagen::MovieDbConfig::tiny(7),
    ));
    start(db, config).expect("server start")
}

fn personalize_body(sql: &str, problem: &str) -> String {
    format!(
        "{{\"user\":\"al\",\"sql\":{},\"problem\":{problem},\
         \"algorithm\":\"branch_bound\"}}",
        Json::Str(sql.to_string()).render()
    )
}

fn personalize(addr: SocketAddr, sql: &str, problem: &str) -> Json {
    let resp = exchange(
        addr,
        &Request::post("/personalize", personalize_body(sql, problem)),
        WAIT,
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    json::parse(&resp.body_text()).expect("personalize body is JSON")
}

fn cache_tier(body: &Json) -> String {
    body.get("cache")
        .and_then(Json::as_str)
        .expect("cache tier present")
        .to_string()
}

/// The answer-carrying fields of a personalize response — everything except
/// the per-request latency and the cache-tier tag. Two responses with equal
/// renderings carry bit-identical answers (the JSON writer emits f64s via
/// shortest-round-trip, so doi values survive exactly).
fn answer_fields(body: &Json) -> String {
    let field = |k: &str| body.get(k).cloned().unwrap_or(Json::Null);
    Json::obj(vec![
        ("sql", field("sql")),
        ("solution", field("solution")),
        ("pref_dois", field("pref_dois")),
        ("profile_version", field("profile_version")),
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

/// The solver's search-work counters on `/metrics`: states examined and
/// parameter evaluations. Both must be exported.
fn search_counters(addr: SocketAddr) -> (f64, f64) {
    let text = exchange(addr, &Request::get("/metrics"), WAIT)
        .unwrap()
        .body_text();
    let counter = |name: &str| {
        prom_value(&text, name).unwrap_or_else(|| panic!("{name} missing from /metrics"))
    };
    (
        counter("cqp_solver_states_examined_total"),
        counter("cqp_solver_param_evals_total"),
    )
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

/// Exact tier across every Table-1 problem: the second identical request is
/// served from the cache without any search (the solver's work counters on
/// `/metrics` do not move), and its answer is bit-identical both to the
/// first (cold) response and to a cache-off server solving the same
/// instance.
#[test]
fn exact_hits_are_bit_identical_across_all_six_problems() {
    let mut cached = boot(ServerConfig::default());
    let mut cold = boot(ServerConfig {
        answer_cache: false,
        ..ServerConfig::default()
    });
    for h in [&cached, &cold] {
        let resp = exchange(h.addr(), &Request::post("/profiles/al", PROFILE_WIRE), WAIT).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
    }
    for problem in &six_problems() {
        // The six problems share one family (same template/profile/config),
        // so after the first variant is cached the others open as warm
        // space-reuse hits — never exact, which is what matters here.
        let first = personalize(cached.addr(), SQL, problem);
        assert_ne!(cache_tier(&first), "exact", "{problem}");
        let searched = search_counters(cached.addr());
        let second = personalize(cached.addr(), SQL, problem);
        assert_eq!(cache_tier(&second), "exact", "{problem}");
        assert_eq!(
            search_counters(cached.addr()),
            searched,
            "an exact hit searched on {problem}"
        );
        let off = personalize(cold.addr(), SQL, problem);
        assert_eq!(cache_tier(&off), "off", "{problem}");
        assert_eq!(
            answer_fields(&second),
            answer_fields(&first),
            "exact hit diverged from its own cold solve on {problem}"
        );
        assert_eq!(
            answer_fields(&second),
            answer_fields(&off),
            "exact hit diverged from the cache-off server on {problem}"
        );
    }
    assert_eq!(cached.state().driver.submit_panics(), 0);
    cached.stop();
    cold.stop();
}

/// The canonicalizer in front of the key: spelling variants of one SQL
/// template — whitespace runs, tabs and newlines, keyword case — land on
/// the same cache family and hit the exact tier. (Literal normalization,
/// e.g. `007` vs `7`, is covered textually by the `canon` unit tests; over
/// the wire the parsed query backstops the key, so only variants that
/// parse identically can share a family.)
#[test]
fn spelling_variants_of_one_template_share_a_family() {
    let mut handle = boot(ServerConfig::default());
    let addr = handle.addr();
    let upsert = exchange(addr, &Request::post("/profiles/al", PROFILE_WIRE), WAIT).unwrap();
    assert_eq!(upsert.status, 200);
    let problem = "{\"kind\":\"p2\",\"cmax\":500}";
    let base = personalize(
        addr,
        "SELECT title FROM MOVIE WHERE MOVIE.year >= 1990",
        problem,
    );
    assert_eq!(cache_tier(&base), "miss");
    let variants = [
        "SELECT   title  FROM  MOVIE   WHERE MOVIE.year >= 1990",
        "select title from MOVIE where MOVIE.year >= 1990",
        "SELECT\ttitle\nFROM MOVIE\n  WHERE MOVIE.year >= 1990  ",
    ];
    for sql in variants {
        let hit = personalize(addr, sql, problem);
        assert_eq!(cache_tier(&hit), "exact", "{sql}");
        assert_eq!(
            answer_fields(&hit),
            answer_fields(&base),
            "variant spelling changed the answer: {sql}"
        );
    }
    handle.stop();
}

/// Warm tier over the socket: the same template at a *moved* cost budget is
/// served as a warm hit and is bit-identical to a cache-off solve of the
/// new budget — the cached objective only prunes, it never leaks into the
/// answer.
#[test]
fn warm_hits_match_cold_solves_at_moved_budgets() {
    let mut cached = boot(ServerConfig::default());
    let mut cold = boot(ServerConfig {
        answer_cache: false,
        ..ServerConfig::default()
    });
    for h in [&cached, &cold] {
        let resp = exchange(h.addr(), &Request::post("/profiles/al", PROFILE_WIRE), WAIT).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
    }
    let first = personalize(cached.addr(), SQL, "{\"kind\":\"p2\",\"cmax\":500}");
    assert_eq!(cache_tier(&first), "miss");
    for cmax in [50u64, 120, 250, 400] {
        let problem = format!("{{\"kind\":\"p2\",\"cmax\":{cmax}}}");
        let warm = personalize(cached.addr(), SQL, &problem);
        assert_eq!(cache_tier(&warm), "warm", "cmax={cmax}");
        let off = personalize(cold.addr(), SQL, &problem);
        assert_eq!(
            answer_fields(&warm),
            answer_fields(&off),
            "warm-started answer diverged at cmax={cmax}"
        );
    }
    cached.stop();
    cold.stop();
}

/// The staleness race, over real sockets: personalize, write the profile,
/// personalize again. The post-write answer must carry the new profile
/// version, must not be served from the exact tier, and must equal what a
/// cache-off server says about the *same* profile history. Then the server
/// is restarted over its WAL and the recovered answer is checked again —
/// recovery replay must not resurrect anything stale.
#[test]
fn profile_writes_invalidate_and_wal_recovery_serves_fresh_answers() {
    let wal = tmpdir("staleness");
    let mut cached = boot(ServerConfig {
        wal_dir: Some(wal.clone()),
        ..ServerConfig::default()
    });
    let mut cold = boot(ServerConfig {
        answer_cache: false,
        ..ServerConfig::default()
    });
    let problem = "{\"kind\":\"p2\",\"cmax\":500}";

    // Version 1 everywhere, and a hot exact tier on the cached server.
    for h in [&cached, &cold] {
        let resp = exchange(h.addr(), &Request::post("/profiles/al", PROFILE_WIRE), WAIT).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
    }
    let v1 = personalize(cached.addr(), SQL, problem);
    assert_eq!(
        cache_tier(&personalize(cached.addr(), SQL, problem)),
        "exact"
    );
    assert_eq!(
        v1.get("profile_version").and_then(Json::as_u64),
        Some(1),
        "{}",
        answer_fields(&v1)
    );

    // The write: a merge upsert that moves the profile to version 2.
    for h in [&cached, &cold] {
        let resp = exchange(
            h.addr(),
            &Request::post("/profiles/al?merge=true", PROFILE_DELTA_WIRE),
            WAIT,
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        let body = json::parse(&resp.body_text()).unwrap();
        assert_eq!(body.get("version").and_then(Json::as_u64), Some(2));
    }

    // Read-your-writes: the very next personalize sees version 2, does not
    // come from the exact tier, and matches the cache-off server.
    let v2 = personalize(cached.addr(), SQL, problem);
    assert_eq!(v2.get("profile_version").and_then(Json::as_u64), Some(2));
    let tier = cache_tier(&v2);
    assert!(
        tier == "repair" || tier == "miss",
        "post-write answer served from tier {tier:?}"
    );
    let v2_cold = personalize(cold.addr(), SQL, problem);
    assert_eq!(
        answer_fields(&v2),
        answer_fields(&v2_cold),
        "post-write answer diverged from the cache-off server"
    );

    // The cache metrics saw all of it: exact hits, an invalidation, and a
    // live entries gauge.
    let metrics = exchange(cached.addr(), &Request::get("/metrics"), WAIT).unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.body_text();
    assert!(
        prom_value(&text, "cqp_answer_cache_hits_total{tier=\"exact\"}") >= Some(1.0),
        "exact-hit counter missing"
    );
    assert!(
        prom_value(&text, "cqp_answer_cache_invalidations_total") >= Some(1.0),
        "invalidation counter missing"
    );
    assert!(prom_value(&text, "cqp_answer_cache_misses_total").is_some());
    assert!(prom_value(&text, "cqp_answer_cache_entries").is_some());

    // Crash-recovery cycle: restart over the same WAL. Replay restores the
    // version-2 profile but must not pre-warm the cache with anything the
    // listener would have invalidated — the first answer out of the
    // recovered server is a miss at version 2, bit-identical to the
    // pre-restart answer, and only *then* does the exact tier re-engage.
    cached.stop();
    let mut recovered = boot(ServerConfig {
        wal_dir: Some(wal),
        ..ServerConfig::default()
    });
    assert!(
        recovered
            .state()
            .recovery
            .as_ref()
            .is_some_and(|r| r.records_replayed() > 0),
        "restart did not replay the WAL"
    );
    let after = personalize(recovered.addr(), SQL, problem);
    assert_eq!(cache_tier(&after), "miss");
    assert_eq!(after.get("profile_version").and_then(Json::as_u64), Some(2));
    assert_eq!(
        answer_fields(&after),
        answer_fields(&v2),
        "recovered server served a different answer"
    );
    assert_eq!(
        cache_tier(&personalize(recovered.addr(), SQL, problem)),
        "exact"
    );
    recovered.stop();
    cold.stop();
}

/// Cache-tier span events are visible in the captured request trace.
#[test]
fn cache_tier_is_recorded_in_request_traces() {
    let mut handle = boot(ServerConfig::default());
    let addr = handle.addr();
    let upsert = exchange(addr, &Request::post("/profiles/al", PROFILE_WIRE), WAIT).unwrap();
    assert_eq!(upsert.status, 200);
    let problem = "{\"kind\":\"p2\",\"cmax\":500}";
    for (id, want) in [("ca11ab1e00000001", "miss"), ("ca11ab1e00000002", "exact")] {
        let resp = exchange(
            addr,
            &Request::post("/personalize", personalize_body(SQL, problem))
                .with_header(TRACE_ID_HEADER, id),
            WAIT,
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        let trace = exchange(addr, &Request::get(&format!("/debug/traces?id={id}")), WAIT).unwrap();
        assert_eq!(trace.status, 200, "{}", trace.body_text());
        assert!(
            trace.body_text().contains(&format!("answer cache: {want}")),
            "trace {id} lacks the `answer cache: {want}` event:\n{}",
            trace.body_text()
        );
    }
    handle.stop();
}

/// Strategy: a synthetic space of 1..=12 preferences (same shape as the
/// solver differential suite).
fn arb_space() -> impl Strategy<Value = PreferenceSpace> {
    prop::collection::vec((1u64..=19, 1u64..=80, 1u32..=20), 1..=12).prop_map(|raw| {
        let params: Vec<PrefParams> = raw
            .into_iter()
            .map(|(d, c, f)| PrefParams {
                doi: Doi::new(d as f64 * 0.05),
                cost_blocks: c,
                size_factor: f as f64 * 0.05,
            })
            .collect();
        PreferenceSpace::synthetic(params, 1000.0, 0)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The warm-start soundness property the cache's warm tier rests on,
    /// isolated from the serving stack: on random ≤12-pref instances, a
    /// branch-and-bound run seeded with the params of a *feasible* answer
    /// from a neighbouring budget is bit-identical — prefs, doi, cost,
    /// found — to the unseeded run. The seed prunes; it never decides.
    #[test]
    fn seeded_branch_bound_is_bit_identical_to_cold(
        space in arb_space(),
        cmax_from in 1u64..500,
        cmax_to in 1u64..500,
    ) {
        let from = ProblemSpec::p2(cmax_from);
        let to = ProblemSpec::p2(cmax_to);
        let donor = branch_bound::solve(&space, ConjModel::NoisyOr, &from);
        // Only a feasible donor ever becomes a seed (`best_seed` enforces
        // the same precondition in the cache).
        if donor.found && to.feasible(&donor.params()) {
            let cold = branch_bound::solve(&space, ConjModel::NoisyOr, &to);
            let warm = branch_bound::solve_bounded_warm(
                &space,
                ConjModel::NoisyOr,
                &to,
                &CancelToken::unlimited(),
                Some(donor.params()),
            );
            prop_assert_eq!(&warm.prefs, &cold.prefs);
            prop_assert_eq!(warm.doi, cold.doi);
            prop_assert_eq!(warm.cost_blocks, cold.cost_blocks);
            prop_assert_eq!(warm.found, cold.found);
            prop_assert!(warm.degraded.is_none());
        }
    }
}
