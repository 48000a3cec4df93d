//! The traced replay: the same request streams, in-process, one layer
//! call at a time.
//!
//! One thread replays the workload's ops (clients interleaved) against
//! objects built the way `cqp_server::start` builds them: a WAL-backed
//! `SessionStore`, a `BatchDriver` with an `AnswerCache`. Every public call
//! is timed in a [`Span`] this module owns. The driver reports its own
//! pipeline stages (`prefspace`, `search`, `construct`) through the
//! `Recorder` trait; a [`StageRecorder`] turns them into child spans of
//! the `core.submit_*` span, so their time is attributed once, where the
//! serving path spends it.
//!
//! Numbers that need a socket come from paired measurements, in spans of
//! kind [`Kind::Paired`] that stay out of the in-process shares:
//!
//! * `server.rtt`: each read is also sent to a standalone server that has
//!   seen the same ops; `server.transport_us` is the RTT minus the
//!   in-process call chain.
//! * `repl.upsert`: each write also runs `upsert_text` on a primary's store
//!   with its follower attached; `repl.ack_us` is that minus the same call
//!   on a standalone WAL-backed store (`repl.baseline`) whose answer cache
//!   is empty like the primary's.
//! * `router.write` / `primary.write`: each write is sent through the
//!   router and directly to the primary; the difference is `router.hop_us`.
//!
//! Every metric is computed from the stream's spans and counters. A fixed
//! probe of [`probe_ops`] follows the stream and is counted apart; a
//! metric comes from it only where the workload never reaches the layer
//! (no writes in `hot_read`, no `d_maxdoi` in `write_mix`), because the
//! result line must carry every per-layer metric on every workload.
//! `layers.json` names those metrics under `probe_derived`, and its shares
//! cover the stream only.

use crate::audit::{audit, value_rows_digest, Answer, Sample, Sampler};
use crate::client::Client;
use crate::metrics::Outcome;
use crate::stack::{
    expect_ok, load_profiles, start_group, start_server, wait_replicated, warm_up, work_dir, Group,
};
use crate::stats::{median, order_statistic};
use crate::workload::{
    user_name, warmup, write_request, Op, Problem, Read, Stream, Universe, Workload, CLIENTS,
};
use cqp_core::prelude::{
    AnswerCache, BatchDriver, BatchRequest, CacheRequest, CacheTier, CircuitBreaker, SolverConfig,
    PROFILE_SCOPE_SEP,
};
use cqp_core::Algorithm;
use cqp_engine::{execute_personalized, parse_query};
use cqp_obs::{Json, Recorder};
use cqp_server::http::RequestParser;
use cqp_server::{json, template_hash, ServerConfig, ServerHandle, SessionStore, UpsertMode, Wal};
use cqp_storage::IoMeter;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Whether a span is part of the in-process serving chain or a paired
/// measurement (a second path for the same op, or a socket round trip).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Chain,
    Paired,
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The op (request) this call served.
    pub op: u32,
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub kind: Kind,
    /// Recorded during the probe, not the workload's stream.
    pub probe: bool,
}

/// Spans of one replay, kept in memory until it ends.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    op: u32,
    probe: bool,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            op: 0,
            probe: false,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        kind: Kind,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            op: self.op,
            name,
            parent,
            start_ns,
            end_ns,
            kind,
            probe: self.probe,
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` in a top-level span; returns its result and duration.
    fn time<R>(&mut self, name: &'static str, kind: Kind, f: impl FnOnce() -> R) -> (R, u64) {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.push(name, kind, None, start, end);
        (r, end - start)
    }
}

/// Each span's self time: its duration minus the union of its children's
/// intervals (clipped to the span).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .into_iter()
                .map(|(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in iv {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// The driver stages kept as spans; any other span the program opens is
/// folded into its nearest kept ancestor.
const STAGES: [&str; 3] = ["prefspace", "search", "construct"];

/// A `Recorder` that captures the driver's stage boundaries during one
/// `submit_cached_recorded` call, on the tracer's clock.
struct StageRecorder {
    t0: Instant,
    stages: Mutex<Stages>,
}

#[derive(Default)]
struct Stages {
    open: Vec<Option<usize>>,
    /// `(name, start, end, parent stage)`.
    spans: Vec<(&'static str, u64, u64, Option<usize>)>,
}

impl StageRecorder {
    fn new(t0: Instant) -> StageRecorder {
        StageRecorder {
            t0,
            stages: Mutex::new(Stages::default()),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn into_spans(self) -> Vec<(&'static str, u64, u64, Option<usize>)> {
        self.stages
            .into_inner()
            .expect("stage recorder poisoned")
            .spans
    }
}

impl Recorder for StageRecorder {
    fn span_enter(&self, name: &'static str) {
        let now = self.now();
        let mut s = self.stages.lock().expect("stage recorder poisoned");
        if STAGES.contains(&name) {
            let parent = s.open.iter().rev().find_map(|o| *o);
            s.spans.push((name, now, now, parent));
            let i = s.spans.len() - 1;
            s.open.push(Some(i));
        } else {
            s.open.push(None);
        }
    }

    fn span_exit(&self) {
        let now = self.now();
        let mut s = self.stages.lock().expect("stage recorder poisoned");
        if let Some(Some(i)) = s.open.pop() {
            s.spans[i].2 = now;
        }
    }
}

fn submit_span(tier: CacheTier) -> &'static str {
    match tier {
        CacheTier::Exact => "core.submit_exact",
        CacheTier::Warm => "core.submit_warm",
        CacheTier::Repair => "core.submit_repair",
        CacheTier::Miss => "core.submit_miss",
        CacheTier::Off => "core.submit_off",
    }
}

/// P2 search spans, in [`crate::workload::ALGORITHMS`] order.
const P2_SEARCH: [&str; 5] = [
    "search.p2.c_boundaries",
    "search.p2.d_maxdoi",
    "search.p2.branch_bound",
    "search.p2.c_maxbounds",
    "search.p2.d_heurdoi",
];

fn search_span(read: &Read) -> &'static str {
    match read.problem {
        Problem::P2(_) => P2_SEARCH[read.algorithm as usize],
        _ => "search.general",
    }
}

fn stage_span(stage: &str, tier: CacheTier, read: &Read) -> &'static str {
    match stage {
        "prefspace" if tier == CacheTier::Repair => "prefspace.delta",
        "prefspace" => "prefspace.extract",
        "search" => search_span(read),
        _ => "construct",
    }
}

/// The objects the replay drives.
struct Rig {
    universe: Universe,
    store: Arc<SessionStore>,
    driver: BatchDriver,
    cache: Arc<AnswerCache>,
    scratch_wal: Wal,
    baseline: SessionStore,
    server: ServerHandle,
    group: Group,
    server_client: Client,
    router_client: Client,
    primary_client: Client,
    dir: PathBuf,
    setup: [f64; 4],
}

impl Rig {
    fn boot(w: Workload) -> Result<Rig, String> {
        let t = Instant::now();
        let universe = Universe::generate(w.mix().users);
        let db_gen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        drop(std::hint::black_box(universe.db.analyze()));
        let analyze_s = t.elapsed().as_secs_f64();

        let dir = work_dir(&format!("trace-{}", w.name())).map_err(|e| e.to_string())?;
        let db = &universe.db;
        let config = ServerConfig::default();
        let (store, _) =
            SessionStore::recover(config.store_shards, &dir.join("inproc"), db.catalog())
                .map_err(|e| e.to_string())?;
        let store = Arc::new(store);
        let cache = Arc::new(AnswerCache::with_capacity(config.answer_cache_capacity));
        let driver = BatchDriver::new(Arc::clone(db), 1)
            .with_submit_cache(config.cache_policy, config.cache_capacity)
            .with_breaker(Arc::new(CircuitBreaker::new(config.breaker)))
            .with_answer_cache(Arc::clone(&cache));
        let listener_cache = Arc::clone(&cache);
        store.set_write_listener(Arc::new(move |user, version| {
            listener_cache.invalidate_profile(user, version);
        }));
        let scratch_wal = Wal::open(&dir.join("scratch"))
            .map_err(|e| e.to_string())?
            .wal;
        // The baseline of `repl.ack_us`: a standalone WAL-backed store whose
        // answer cache stays empty, like the primary's.
        let (baseline, _) =
            SessionStore::recover(config.store_shards, &dir.join("baseline"), db.catalog())
                .map_err(|e| e.to_string())?;
        let empty = Arc::new(AnswerCache::with_capacity(config.answer_cache_capacity));
        baseline.set_write_listener(Arc::new(move |user, version| {
            empty.invalidate_profile(user, version);
        }));
        let server = start_server(db, dir.join("server"))?;
        let group = start_group(db, &dir)?;

        let t = Instant::now();
        load_profiles(server.addr(), &universe)?;
        let load_s = t.elapsed().as_secs_f64();
        load_profiles(group.router.addr(), &universe)?;
        wait_replicated(&group.primary, &group.follower, universe.users.len())?;
        for user in 0..universe.users.len() as u16 {
            for s in [&*store, &baseline] {
                s.upsert_text(
                    &user_name(user),
                    universe.text(user, None),
                    db.catalog(),
                    UpsertMode::Replace,
                )
                .map_err(|e| e.to_string())?;
            }
        }

        let t = Instant::now();
        warm_up(server.addr(), w)?;
        let warmup_s = t.elapsed().as_secs_f64();

        Ok(Rig {
            server_client: Client::new(server.addr()),
            router_client: Client::new(group.router.addr()),
            primary_client: Client::new(group.primary.addr()),
            universe,
            store,
            driver,
            cache,
            scratch_wal,
            baseline,
            server,
            group,
            dir,
            setup: [db_gen_s, analyze_s, load_s, warmup_s],
        })
    }

    fn shutdown(self) {
        let Rig {
            mut server,
            group,
            server_client,
            router_client,
            primary_client,
            dir,
            ..
        } = self;
        // Close the connections first, so no server drain waits on them.
        drop((server_client, router_client, primary_client));
        server.shutdown(Duration::from_secs(2));
        group.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Per-op measurements beyond the spans.
#[derive(Default)]
struct Tally {
    ops: u64,
    failed: u64,
    transport_us: Vec<f64>,
    repl_ack_us: Vec<f64>,
    router_hop_us: Vec<f64>,
    /// Non-exact submits: preference space size and search work.
    solved: u64,
    k_sum: f64,
    states_sum: f64,
    evals_sum: f64,
    peak_kib_sum: f64,
    executed: u64,
    rows_sum: f64,
    blocks_sum: f64,
    writes: u64,
}

/// Serves one read through the in-process chain, then (when `paired`) over
/// the socket; the two answers must agree.
fn trace_read(
    rig: &mut Rig,
    tr: &mut Tracer,
    tally: &mut Tally,
    read: &Read,
    paired: bool,
) -> Result<Answer, String> {
    let catalog = rig.universe.db.catalog();
    let raw = read.request();
    let chain_start = tr.spans.len();
    let (req, _) = tr.time("http.parse", Kind::Chain, || {
        let mut parser = RequestParser::new();
        parser.feed(&raw);
        parser.try_next()
    });
    let req = req
        .map_err(|e| e.to_string())?
        .ok_or("incomplete request")?;
    let body = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
    let (body, _) = tr.time("json.parse", Kind::Chain, || json::parse(body));
    let body = body.map_err(|e| e.to_string())?;
    let sql = body.get("sql").and_then(Json::as_str).ok_or("no sql")?;
    let (query, _) = tr.time("engine.parse_query", Kind::Chain, || {
        parse_query(sql, catalog)
    });
    let query = query.map_err(|e| e.to_string())?;
    let (hash, _) = tr.time("canon.template_hash", Kind::Chain, || {
        template_hash(sql, &query)
    });
    let user = user_name(read.user);
    let top_k = read.top_k.map(usize::from);
    let (stored, _) = tr.time("session.select", Kind::Chain, || {
        rig.store.select(&user, top_k)
    });
    let stored = stored.ok_or("unknown user")?;

    let batch = BatchRequest {
        query,
        profile: stored.profile,
        problem: read.problem.spec(),
        config: SolverConfig {
            algorithm: Algorithm::by_name(read.algorithm_name()).expect("benchmark algorithm"),
            ..SolverConfig::default()
        },
    };
    let cache_req = CacheRequest {
        template_hash: hash,
        profile_key: match top_k {
            None => user.clone(),
            Some(k) => format!("{user}{PROFILE_SCOPE_SEP}k{k}"),
        },
        profile_version: stored.version,
    };
    let stages = StageRecorder::new(tr.t0);
    let start = tr.now();
    let submitted = rig
        .driver
        .submit_cached_recorded(batch, &cache_req, &stages);
    let end = tr.now();
    let (item, tier) = submitted.map_err(|e| e.to_string())?;
    let submit = tr.push(submit_span(tier), Kind::Chain, None, start, end);
    let mut ids = Vec::new();
    for (stage, s, e, parent) in stages.into_spans() {
        let parent = parent.map_or(submit, |p| ids[p]);
        ids.push(tr.push(
            stage_span(stage, tier, read),
            Kind::Chain,
            Some(parent),
            s,
            e,
        ));
    }
    if tier != CacheTier::Exact {
        let inst = &item.solution.instrument;
        tally.solved += 1;
        tally.k_sum += item.space_k as f64;
        tally.states_sum += inst.states_examined as f64;
        tally.evals_sum += inst.param_evals as f64;
        tally.peak_kib_sum += inst.peak_bytes as f64 / 1024.0;
    }
    let rows = if read.rows {
        let meter = IoMeter::new(0.0);
        let (out, _) = tr.time("engine.execute", Kind::Chain, || {
            execute_personalized(&rig.universe.db, &item.query, &meter)
        });
        let out = out.map_err(|e| e.to_string())?;
        tally.executed += 1;
        tally.rows_sum += out.rows.len() as f64;
        tally.blocks_sum += meter.blocks_read() as f64;
        Some(value_rows_digest(&out.rows))
    } else {
        None
    };
    let chain_ns: u64 = tr.spans[chain_start..]
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let answer = Answer {
        prefs: item.solution.prefs.iter().map(|&p| p as u64).collect(),
        doi_bits: item.solution.doi.value().to_bits(),
        cost_blocks: item.solution.cost_blocks,
        size_bits: item.solution.size_rows.to_bits(),
        sql: item.sql,
        rows,
    };
    if !paired {
        return Ok(answer);
    }

    let (resp, rtt_ns) = tr.time("server.rtt", Kind::Paired, || rig.server_client.send(&raw));
    let resp = resp.map_err(|e| e.to_string())?;
    let served = json::parse(&resp.body_text())
        .ok()
        .filter(|_| resp.status == 200)
        .and_then(|b| Answer::from_response(&b))
        .ok_or_else(|| format!("server answered HTTP {}", resp.status))?;
    if served != answer {
        return Err(format!("server and in-process answers differ for {read:?}"));
    }
    tally
        .transport_us
        .push((rtt_ns as f64 - chain_ns as f64) / 1e3);
    Ok(answer)
}

/// Serves one profile replacement through the in-process chain and the
/// paired write paths.
fn trace_write(
    rig: &mut Rig,
    tr: &mut Tracer,
    tally: &mut Tally,
    user: u16,
    variant: u8,
) -> Result<(), String> {
    let catalog = rig.universe.db.catalog();
    let name = user_name(user);
    let text = rig.universe.text(user, Some(variant)).to_string();
    let raw = write_request(user, &text);
    let (req, _) = tr.time("http.parse", Kind::Chain, || {
        let mut parser = RequestParser::new();
        parser.feed(&raw);
        parser.try_next()
    });
    req.map_err(|e| e.to_string())?
        .ok_or("incomplete request")?;
    let (upserted, _) = tr.time("session.upsert", Kind::Chain, || {
        rig.store
            .upsert_text(&name, &text, catalog, UpsertMode::Replace)
    });
    let (version, _) = upserted.map_err(|e| e.to_string())?;
    let (appended, _) = tr.time("wal.append", Kind::Paired, || {
        rig.scratch_wal.append_put(&name, version, &text)
    });
    appended.map_err(|e| e.to_string())?;
    let (standalone, standalone_ns) = tr.time("repl.baseline", Kind::Paired, || {
        rig.baseline
            .upsert_text(&name, &text, catalog, UpsertMode::Replace)
    });
    standalone.map_err(|e| e.to_string())?;
    let primary_store = Arc::clone(&rig.group.primary.state().store);
    let (replicated, repl_ns) = tr.time("repl.upsert", Kind::Paired, || {
        primary_store.upsert_text(&name, &text, catalog, UpsertMode::Replace)
    });
    replicated.map_err(|e| e.to_string())?;
    let (routed, routed_ns) = tr.time("router.write", Kind::Paired, || {
        expect_ok(&mut rig.router_client, &raw)
    });
    routed?;
    let (direct, direct_ns) = tr.time("primary.write", Kind::Paired, || {
        expect_ok(&mut rig.primary_client, &raw)
    });
    direct?;
    // Keep the round-trip server's profiles in step with the store.
    expect_ok(&mut rig.server_client, &raw)?;
    tally.writes += 1;
    tally
        .repl_ack_us
        .push((repl_ns as f64 - standalone_ns as f64) / 1e3);
    tally
        .router_hop_us
        .push((routed_ns as f64 - direct_ns as f64) / 1e3);
    Ok(())
}

/// The probe appended to every trace: for four users, one P2 solve per
/// algorithm and one general-problem solve at K = 8 (a depth no workload
/// uses, so each is a miss), then an exact hit, a warm hit, a write, a
/// repair-tier read and a row-executing read.
fn probe_ops() -> Vec<Op> {
    let read = |user: u16, algorithm: u8, problem: Problem, rows: bool| {
        Op::Read(Read {
            user,
            template: 0,
            algorithm,
            problem,
            top_k: Some(8),
            rows,
        })
    };
    let mut ops = Vec::new();
    for user in 0..4 {
        ops.extend((0..5).map(|a| read(user, a, Problem::P2(200), false)));
        ops.push(read(user, 3, Problem::P1, false));
        ops.push(read(user, 3, Problem::P2(200), false));
        ops.push(read(user, 3, Problem::P2(100), false));
        ops.push(Op::Write { user, variant: 0 });
        ops.push(read(user, 3, Problem::P2(200), false));
        ops.push(read(user, 3, Problem::P2(200), true));
    }
    ops
}

/// Ops replayed per workload at most (the `--seconds` deadline may end
/// the replay earlier).
fn trace_ops(w: Workload) -> u64 {
    match w {
        Workload::HotRead => 40_000,
        Workload::ColdSolve => 8_000,
        Workload::ExecuteRows => 2_000,
        Workload::WriteMix => 6_000,
    }
}

/// `(self ns, duration ns, kind)` of every call of one span name.
type Calls = Vec<(u64, u64, Kind)>;

/// Stream-span statistics for `layers.json`.
fn layers_json(
    w: Workload,
    spans: &[Span],
    selfs: &[u64],
    ops: u64,
    probe_derived: &[&str],
) -> Json {
    let in_process: u64 = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.kind == Kind::Chain && !s.probe)
        .map(|(_, t)| *t)
        .sum();
    let mut by_name: BTreeMap<(&str, bool), Calls> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        by_name
            .entry((s.name, s.probe))
            .or_default()
            .push((*t, s.end_ns - s.start_ns, s.kind));
    }
    let entry = |calls: &[(u64, u64, Kind)]| {
        let mut selfs: Vec<f64> = calls.iter().map(|c| c.0 as f64 / 1e3).collect();
        selfs.sort_by(f64::total_cmp);
        let self_ns: u64 = calls.iter().map(|c| c.0).sum();
        let incl_ns: u64 = calls.iter().map(|c| c.1).sum();
        let chain = calls[0].2 == Kind::Chain;
        let share = |ns: u64| {
            if chain && in_process > 0 {
                Json::Num(ns as f64 / in_process as f64)
            } else {
                Json::Null
            }
        };
        Json::obj(vec![
            ("kind", Json::from(if chain { "chain" } else { "paired" })),
            ("calls", Json::from(calls.len() as u64)),
            ("self_p50_us", Json::Num(order_statistic(&selfs, 0.5))),
            ("self_p99_us", Json::Num(order_statistic(&selfs, 0.99))),
            ("self_total_s", Json::Num(self_ns as f64 / 1e9)),
            ("share", share(self_ns)),
            ("incl_share", share(incl_ns)),
        ])
    };
    let section = |probe: bool| {
        Json::Obj(
            by_name
                .iter()
                .filter(|((_, p), _)| *p == probe)
                .map(|((name, _), calls)| (name.to_string(), entry(calls)))
                .collect(),
        )
    };
    Json::obj(vec![
        ("workload", Json::from(w.name())),
        ("ops", Json::from(ops)),
        ("in_process_s", Json::Num(in_process as f64 / 1e9)),
        ("spans", section(false)),
        ("probe", section(true)),
        (
            "probe_derived",
            Json::Arr(probe_derived.iter().map(|&n| Json::from(n)).collect()),
        ),
    ])
}

fn write_files(out: &Path, w: Workload, spans: &[Span], layers: &Json) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let file = std::fs::File::create(out.join(format!("{}.spans.jsonl", w.name())))
        .map_err(|e| e.to_string())?;
    let mut f = std::io::BufWriter::new(file);
    for (i, s) in spans.iter().enumerate() {
        let line = Json::obj(vec![
            ("id", Json::from(i as u64)),
            ("op", Json::from(u64::from(s.op))),
            ("name", Json::from(s.name)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
            ),
            ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
            ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
            (
                "kind",
                Json::from(if s.kind == Kind::Chain {
                    "chain"
                } else {
                    "paired"
                }),
            ),
            ("probe", Json::Bool(s.probe)),
        ]);
        writeln!(f, "{}", line.render()).map_err(|e| e.to_string())?;
    }
    f.flush().map_err(|e| e.to_string())?;
    std::fs::write(
        out.join(format!("{}.layers.json", w.name())),
        layers.render() + "\n",
    )
    .map_err(|e| e.to_string())
}

/// Median self time, in µs, of the spans `pick` selects among the
/// stream's spans (`probe` false) or the probe's.
fn median_self(
    spans: &[Span],
    selfs: &[u64],
    probe: bool,
    pick: &dyn Fn(&str) -> bool,
) -> Option<f64> {
    let v: Vec<f64> = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.probe == probe && pick(s.name))
        .map(|(_, t)| *t as f64 / 1e3)
        .collect();
    (!v.is_empty()).then(|| median(&v))
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

fn median_of(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| median(v))
}

/// Counter readings the per-layer ratios are differences of.
struct Counters {
    cache: cqp_core::prelude::CacheCounters,
    /// Cost-cache `(hits, misses)`.
    cost: (u64, u64),
    wal_bytes: u64,
    /// Router `(routed, retries)`.
    router: (u64, u64),
}

impl Counters {
    fn read(rig: &Rig) -> Counters {
        let cost = rig.driver.submit_cache_counters();
        let router = rig.group.router.router().stats();
        Counters {
            cache: rig.cache.counters(),
            cost: (cost.0, cost.1),
            wal_bytes: rig.store.wal().map_or(0, |w| w.counters().2),
            router: (router.0, router.4),
        }
    }
}

/// A per-layer metric, `None` where one side of the replay has no sample.
type Sampled = (&'static str, Option<f64>);

/// A per-layer metric's name and value.
type Metric = (&'static str, f64);

/// The per-layer metrics of one side of the replay (the stream or the
/// probe), each `None` where that side has no sample of it.
fn layer_metrics(
    spans: &[Span],
    selfs: &[u64],
    probe: bool,
    tally: &Tally,
    before: &Counters,
    after: &Counters,
) -> Vec<Sampled> {
    let named = |name: &'static str| move |n: &str| n == name;
    let self_of = |name: &'static str| median_self(spans, selfs, probe, &named(name));
    let lookups = |c: &cqp_core::prelude::CacheCounters| {
        (c.hits_exact + c.hits_warm + c.hits_repair + c.misses) as f64
    };
    let (a, b) = (&after.cache, &before.cache);
    let cache_lookups = lookups(a) - lookups(b);
    let cost_hits = (after.cost.0 - before.cost.0) as f64;
    let cost_misses = (after.cost.1 - before.cost.1) as f64;
    let solved = tally.solved as f64;
    let executed = tally.executed as f64;
    let mut metrics = vec![
        ("server.rtt_us", self_of("server.rtt")),
        ("server.transport_us", median_of(&tally.transport_us)),
        ("http.parse_us", self_of("http.parse")),
        ("json.parse_us", self_of("json.parse")),
        ("canon.template_hash_us", self_of("canon.template_hash")),
        ("engine.parse_query_us", self_of("engine.parse_query")),
        ("session.select_us", self_of("session.select")),
        ("session.upsert_us", self_of("session.upsert")),
        ("wal.append_us", self_of("wal.append")),
        (
            "wal.bytes_per_write",
            ratio(
                (after.wal_bytes - before.wal_bytes) as f64,
                tally.writes as f64,
            ),
        ),
        ("repl.ack_us", median_of(&tally.repl_ack_us)),
        ("router.hop_us", median_of(&tally.router_hop_us)),
        (
            "router.retries",
            ratio(
                (after.router.1 - before.router.1) as f64,
                (after.router.0 - before.router.0) as f64,
            ),
        ),
        ("core.submit_exact_us", self_of("core.submit_exact")),
        ("core.submit_warm_us", self_of("core.submit_warm")),
        ("core.submit_repair_us", self_of("core.submit_repair")),
        ("core.submit_miss_us", self_of("core.submit_miss")),
        (
            "answer_cache.hit_rate",
            ratio(
                ((a.hits_exact + a.hits_warm) - (b.hits_exact + b.hits_warm)) as f64,
                cache_lookups,
            ),
        ),
        (
            "answer_cache.repair_share",
            ratio((a.hits_repair - b.hits_repair) as f64, cache_lookups),
        ),
        (
            "answer_cache.miss_share",
            ratio((a.misses - b.misses) as f64, cache_lookups),
        ),
        ("prefspace.extract_us", self_of("prefspace.extract")),
        ("prefspace.delta_us", self_of("prefspace.delta")),
        ("prefspace.k_mean", ratio(tally.k_sum, solved)),
        (
            "search.us",
            median_self(spans, selfs, probe, &|n: &str| n.starts_with("search.")),
        ),
    ];
    for (metric, span) in [
        ("search.p2.c_boundaries_us", P2_SEARCH[0]),
        ("search.p2.d_maxdoi_us", P2_SEARCH[1]),
        ("search.p2.branch_bound_us", P2_SEARCH[2]),
        ("search.p2.c_maxbounds_us", P2_SEARCH[3]),
        ("search.p2.d_heurdoi_us", P2_SEARCH[4]),
        ("search.general_us", "search.general"),
    ] {
        metrics.push((metric, self_of(span)));
    }
    metrics.extend([
        ("search.states_per_req", ratio(tally.states_sum, solved)),
        ("search.param_evals_per_req", ratio(tally.evals_sum, solved)),
        ("search.peak_kb", ratio(tally.peak_kib_sum, solved)),
        (
            "cost_cache.hit_rate",
            ratio(cost_hits, cost_hits + cost_misses),
        ),
        ("construct.us", self_of("construct")),
        ("engine.execute_us", self_of("engine.execute")),
        ("engine.rows_per_req", ratio(tally.rows_sum, executed)),
        ("storage.blocks_per_req", ratio(tally.blocks_sum, executed)),
    ]);
    metrics
}

/// Each metric's stream value, or the probe's where the stream has none;
/// also returns the names of the metrics taken from the probe.
fn prefer_stream(
    stream: Vec<Sampled>,
    probe: Vec<Sampled>,
) -> Result<(Vec<Metric>, Vec<&'static str>), String> {
    let mut metrics = Vec::new();
    let mut probe_derived = Vec::new();
    for ((name, from_stream), (_, from_probe)) in stream.into_iter().zip(probe) {
        let value = match (from_stream, from_probe) {
            (Some(v), _) => v,
            (None, Some(v)) => {
                probe_derived.push(name);
                v
            }
            (None, None) => return Err(format!("{name} has no samples")),
        };
        metrics.push((name, value));
    }
    Ok((metrics, probe_derived))
}

/// Replays workload `w` for at most `seconds` (and its op cap), then the
/// probe; reports the per-layer metrics and, with `out`, writes
/// `<workload>.spans.jsonl` and `<workload>.layers.json` there.
///
/// Every metric comes from the stream's spans and counters. Only a metric
/// the stream has no sample of (a layer the workload never reaches) comes
/// from the probe; `layers.json` lists those under `probe_derived`.
pub fn trace(w: Workload, seed: u64, seconds: f64, out: Option<&Path>) -> Result<Outcome, String> {
    let mut rig = Rig::boot(w)?;
    // Bring the in-process objects to the warmed server's state.
    let mut scratch = Tracer::new();
    let mut scratch_tally = Tally::default();
    for c in 0..CLIENTS {
        for r in warmup(w, c) {
            trace_read(&mut rig, &mut scratch, &mut scratch_tally, &r, false)?;
        }
    }
    drop(scratch);

    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let mut probe_tally = Tally::default();
    let mut sampler = Sampler::new(2048);
    let mut variants: BTreeMap<u16, u8> = BTreeMap::new();
    let start = Counters::read(&rig);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut streams: Vec<Stream> = (0..CLIENTS).map(|c| Stream::new(w, seed, c)).collect();
    let mut replayed = 0u64;
    while replayed < trace_ops(w) && Instant::now() < deadline {
        let op = streams[replayed as usize % CLIENTS].next_op();
        replayed += 1;
        run_op(
            &mut rig,
            &mut tr,
            &mut tally,
            &mut sampler,
            &mut variants,
            op,
        );
    }
    let stream_end = Counters::read(&rig);
    tr.probe = true;
    for op in probe_ops() {
        run_op(
            &mut rig,
            &mut tr,
            &mut probe_tally,
            &mut sampler,
            &mut variants,
            op,
        );
    }
    let probe_end = Counters::read(&rig);

    let samples = sampler.into_samples();
    let report = audit(&rig.universe, &samples, CLIENTS);
    let setup = rig.setup;
    rig.shutdown();

    let selfs = self_times(&tr.spans);
    let stream = layer_metrics(&tr.spans, &selfs, false, &tally, &start, &stream_end);
    let probe = layer_metrics(
        &tr.spans,
        &selfs,
        true,
        &probe_tally,
        &stream_end,
        &probe_end,
    );
    let (mut metrics, probe_derived) = prefer_stream(stream, probe)?;
    metrics.extend([
        ("setup.db_gen_s", setup[0]),
        ("setup.analyze_s", setup[1]),
        ("setup.load_s", setup[2]),
        ("setup.warmup_s", setup[3]),
    ]);

    let layers = layers_json(w, &tr.spans, &selfs, replayed, &probe_derived);
    if let Some(out) = out {
        write_files(out, w, &tr.spans, &layers)?;
    }
    let failed = tally.failed + probe_tally.failed + report.mismatches;
    eprintln!(
        "trace {}: {} stream ops + {} probe ops, {} failed, audit {} samples / {} references / {} mismatches; probe-derived: {}",
        w.name(),
        replayed,
        probe_ops().len(),
        tally.failed + probe_tally.failed,
        report.checked,
        report.references,
        report.mismatches,
        probe_derived.join(", ")
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted: tally.ops + probe_tally.ops,
        failed,
        metrics,
    })
}

fn run_op(
    rig: &mut Rig,
    tr: &mut Tracer,
    tally: &mut Tally,
    sampler: &mut Sampler,
    variants: &mut BTreeMap<u16, u8>,
    op: Op,
) {
    tr.op += 1;
    tally.ops += 1;
    let result = match op {
        Op::Read(read) => trace_read(rig, tr, tally, &read, true).map(|answer| {
            let index = u64::from(tr.op);
            if sampler.wants(index) {
                sampler.push(
                    index,
                    Sample {
                        read,
                        variant: variants.get(&read.user).copied(),
                        answer,
                    },
                );
            }
        }),
        Op::Write { user, variant } => trace_write(rig, tr, tally, user, variant).map(|()| {
            variants.insert(user, variant);
        }),
    };
    if let Err(e) = result {
        eprintln!("trace: op {} failed: {e}", tr.op);
        tally.failed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 1,
            name: "x",
            parent,
            start_ns,
            end_ns,
            kind: Kind::Chain,
            probe: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(None, 0, 100),
            // Two overlapping children cover [10, 50): 40, not 30 + 25.
            span(Some(0), 10, 40),
            span(Some(0), 25, 50),
            // A disjoint child covers [60, 70).
            span(Some(0), 60, 70),
            // A grandchild counts against its parent only.
            span(Some(3), 62, 65),
            // A child running past the parent's end is clipped.
            span(Some(0), 95, 130),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 40 - 10 - 5, 30, 25, 7, 3, 35]
        );
    }

    #[test]
    fn stage_recorder_keeps_stages_and_folds_the_rest() {
        let t0 = Instant::now();
        let rec = StageRecorder::new(t0);
        rec.span_enter("dispatch");
        rec.span_enter("personalize");
        rec.span_enter("prefspace");
        rec.span_exit();
        rec.span_enter("search");
        rec.span_enter("BranchBound");
        rec.span_exit();
        rec.span_exit();
        rec.span_enter("construct");
        rec.span_exit();
        rec.span_exit();
        rec.span_exit();
        let spans = rec.into_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.0).collect();
        assert_eq!(names, ["prefspace", "search", "construct"]);
        assert!(spans.iter().all(|s| s.3.is_none() && s.1 <= s.2));
    }

    #[test]
    fn the_probe_fills_in_only_metrics_the_stream_never_reached() {
        let stream = vec![("a_us", Some(5.0)), ("b_us", None)];
        let probe = vec![("a_us", Some(1.0)), ("b_us", Some(2.0))];
        let (metrics, derived) = prefer_stream(stream, probe).unwrap();
        assert_eq!(metrics, vec![("a_us", 5.0), ("b_us", 2.0)]);
        assert_eq!(derived, vec!["b_us"]);
        assert!(prefer_stream(vec![("c_us", None)], vec![("c_us", None)]).is_err());
    }

    #[test]
    fn probe_reaches_every_tier_and_search_path() {
        let ops = probe_ops();
        let reads: Vec<&Read> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Read(r) => Some(r),
                _ => None,
            })
            .collect();
        let paths: std::collections::BTreeSet<&str> =
            reads.iter().map(|r| search_span(r)).collect();
        assert_eq!(paths.len(), 6);
        assert!(reads.iter().any(|r| r.rows));
        assert!(ops.iter().any(|o| matches!(o, Op::Write { .. })));
    }
}
