//! `reproduce` — regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce <experiment>... [--scale tiny|default|paper] [--out DIR]
//!           [--full-k] [--threads N]
//!
//! Each named experiment runs once, in the order listed below; an unknown
//! name exits with status 2 before any runs. Every file is written under
//! --out (default `results`).
//!
//! experiments:
//!   all       every experiment below (the default)
//!   fig12     fig12a, fig12b and fig12c
//!   fig12a    optimization time vs K
//!   fig12b    preference-selection time vs K
//!   fig12c    optimization time vs cmax (% Supreme Cost)   [incl. fig12d zoom;
//!             `fig12d` is another name for it]
//!   fig13a    memory vs K
//!   fig13b    memory vs cmax
//!   fig14a    quality vs K
//!   fig14b    quality vs cmax
//!   fig15     cost-model validation (estimated vs real)
//!   table1    the six CQP problems
//!   table2    the Table 2/3 worked example (D/C/S vectors, state groups)
//!   fig6      the Figure 6 boundary trace (cmax = 185)
//!   fig8      the Figure 8 maximal-boundary trace (cmax = 185)
//!   ablate    generic baselines, doi-model, annealing-budget ablations
//!   resilience seeded fault-injection batch + deadline sweep (degradation rates)
//!   obs       tracing overhead off/sampled/100% + captured degraded trace +
//!             Chrome trace dump (BENCH_obs.json, trace_chrome.json)
//!
//! The serving tier's crash, drain, failover and partition guarantees are
//! checked by the socket suites (tests/recovery.rs, tests/chaos.rs,
//! tests/cluster.rs, tests/partition.rs), not here.
//!
//! --threads N fans the cells of the Figure 12-14 sweeps and the generic
//! ablation, and the batch driver, across N work-stealing workers
//! (default 1 = sequential).
//! ```
//!
//! Each experiment returns its [`Output`]s; [`write`] is the only code that
//! puts tables, run reports and `BENCH_*.json` documents on disk.

use cqp_bench::csvout;
use cqp_bench::experiments::{self, Cell, CsvRow, FIG12_ALGORITHMS, FIG14_ALGORITHMS};
use cqp_bench::load::{run_load, LoadConfig, LoadReport};
use cqp_bench::{build_workload, harness::Scale, Workload};
use cqp_core::algorithms::{c_boundaries, c_maxbounds, Algorithm};
use cqp_core::batch::{BatchDriver, BatchRequest, RetryPolicy};
use cqp_core::budget::Budget;
use cqp_core::spaces::SpaceView;
use cqp_core::{Instrument, ProblemSpec, SolverConfig};
use cqp_obs::reqtrace::fold_traces;
use cqp_obs::{Json, Obs, RunReport};
use cqp_prefs::{ConjModel, Doi};
use cqp_prefspace::{ExtractConfig, PrefParams, PreferenceSpace};
use cqp_server::http::{self, Request, Timeouts};
use cqp_storage::{FaultMode, FaultPlan};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// One experiment: it reads the workload and the command line's knobs and
/// returns what [`write`] puts under `--out`.
type Run = fn(&Ctx) -> Vec<Output>;

/// Every experiment, in run order: its name, the other command-line names
/// that select it (`all` selects every one) and its run.
const EXPERIMENTS: [(&str, &[&str], Run); 15] = [
    ("fig12a", &["fig12"], fig12a),
    ("fig12b", &["fig12"], fig12b),
    ("fig12c", &["fig12", "fig12d"], fig12c),
    ("fig13a", &[], fig13a),
    ("fig13b", &[], fig13b),
    ("fig14a", &[], fig14a),
    ("fig14b", &[], fig14b),
    ("fig15", &[], fig15),
    ("table1", &[], table1),
    ("table2", &[], table2_example),
    ("fig6", &[], fig6_trace),
    ("fig8", &[], fig8_trace),
    ("ablate", &[], ablations),
    ("resilience", &[], resilience),
    ("obs", &[], obs_experiment),
];

/// Whether the command-line name `arg` selects the experiment `name`.
fn selects(arg: &str, name: &str, aliases: &[&str]) -> bool {
    arg == "all" || arg == name || aliases.contains(&arg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut names: Vec<String> = Vec::new();
    let mut scale = Scale::default_scale();
    let mut out = PathBuf::from("results");
    let mut full_k = false;
    let mut threads = 1usize;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = Scale::by_name(args.get(i).map(String::as_str).unwrap_or(""))
                    .unwrap_or_else(|| die("unknown scale (tiny|default|paper)"));
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(args.get(i).unwrap_or_else(|| die("--out needs a path")));
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&t| t >= 1)
                    .unwrap_or_else(|| die("--threads needs a positive integer"));
            }
            "--full-k" => full_k = true,
            other if !other.starts_with('-') => names.push(other.to_owned()),
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if names.is_empty() {
        names.push("all".to_owned());
    }
    if let Some(unknown) = names.iter().find(|n| {
        !EXPERIMENTS
            .iter()
            .any(|(name, aliases, _)| selects(n, name, aliases))
    }) {
        die(&format!("unknown experiment `{unknown}`"));
    }

    // The paper sweeps K in [10, 40]; the exact doi-space algorithms are
    // exponential in practice (that is Figure 12's point), so the default
    // caps their K at 20 unless --full-k is passed.
    let ks: Vec<usize> = if full_k {
        vec![10, 20, 30, 40]
    } else {
        vec![10, 13, 16, 20]
    };

    println!("== CQP reproduction — scale `{}` ==", scale.name);
    let cmax_desc = match scale.cmax_supreme_frac {
        Some(f) => format!("{:.0}% of Supreme Cost per space", f * 100.0),
        None => format!("{} blocks", scale.cmax_blocks),
    };
    println!(
        "   ({} profiles × {} queries per point; cmax = {cmax_desc}; K sweep {:?})",
        scale.profiles, scale.queries, ks
    );
    let w = build_workload(&scale);
    println!(
        "   database: {} rows / {} blocks across {} relations\n",
        w.db.total_rows(),
        w.db.total_blocks(),
        w.db.catalog().len()
    );
    let ctx = Ctx {
        w,
        ks,
        percents: (1..=10).map(|i| i * 10).collect(),
        full_k,
        threads,
        out,
    };
    for (name, aliases, run) in &EXPERIMENTS {
        if names.iter().any(|n| selects(n, name, aliases)) {
            write(&ctx.out, run(&ctx));
        }
    }
    println!(
        "\nCSV and .report.jsonl run-reports written under {}",
        ctx.out.display()
    );
}

fn die(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    std::process::exit(2)
}

/// What an experiment reads: the workload and the command line's knobs.
struct Ctx {
    w: Workload,
    /// The K sweep of Figures 12–15.
    ks: Vec<usize>,
    /// The cmax sweep, in % of Supreme Cost.
    percents: Vec<u32>,
    full_k: bool,
    threads: usize,
    out: PathBuf,
}

impl Ctx {
    /// Algorithms tractable at `k`; the exact doi-space ones are capped
    /// unless --full-k (their blow-up IS the paper's headline result, but
    /// at K=40 it can take minutes — Figure 12(a) reports ~900 s in 2005).
    fn algorithms(&self, k: usize) -> Vec<Algorithm> {
        if self.full_k || k <= 16 {
            FIG12_ALGORITHMS.to_vec()
        } else {
            vec![
                Algorithm::CBoundaries,
                Algorithm::CMaxBounds,
                Algorithm::DHeurDoi,
            ]
        }
    }

    /// The K sweep of Figures 12(a) and 13(a).
    fn k_cells(&self) -> Vec<Cell> {
        Cell::k_sweep(&self.ks, |k| self.algorithms(k))
    }

    /// The cmax sweep of Figures 12(c) and 13(b), at K = 20.
    fn percent_cells(&self) -> Vec<Cell> {
        Cell::percent_sweep(20, &self.percents, &self.algorithms(20))
    }
}

/// One thing an experiment hands [`write`].
enum Output {
    /// `<name>.csv` (header, then one line per row) and
    /// `<name>.report.jsonl`; the title and the CSV lines also go to
    /// stdout.
    Table {
        name: String,
        title: String,
        csv: String,
        reports: Vec<RunReport>,
    },
    /// `<name>.report.jsonl` alone.
    Reports(&'static str, Vec<RunReport>),
    /// `BENCH_<name>.json`: `experiment` first, then these members.
    Bench(&'static str, Vec<(&'static str, Json)>),
    /// Any other file under `--out`, written as is.
    File(&'static str, String),
}

/// A table of `rows` with their run reports.
fn table<R: CsvRow>(
    name: impl Into<String>,
    title: impl Into<String>,
    (rows, reports): (Vec<R>, Vec<RunReport>),
) -> Output {
    Output::Table {
        name: name.into(),
        title: title.into(),
        csv: csvout::render(&rows),
        reports,
    }
}

/// Writes one experiment's outputs under `out`, and only there, so a run
/// from a checkout leaves the committed files alone.
fn write(out: &Path, outputs: Vec<Output>) {
    std::fs::create_dir_all(out).expect("results dir");
    for output in outputs {
        match output {
            Output::Table {
                name,
                title,
                csv,
                reports,
            } => {
                println!("--- {title} ---\n{csv}");
                csvout::write(out, &name, &csv).expect("CSV write");
                write_reports(out, &name, &reports);
            }
            Output::Reports(name, reports) => write_reports(out, name, &reports),
            Output::Bench(name, members) => write_bench(out, name, members),
            Output::File(name, contents) => {
                std::fs::write(out.join(name), contents).expect("file write")
            }
        }
    }
}

/// Writes `BENCH_<name>.json`, whose first member names the experiment.
fn write_bench(out: &Path, name: &str, members: Vec<(&str, Json)>) {
    let doc = Json::obj(
        std::iter::once(("experiment", Json::from(name)))
            .chain(members)
            .collect(),
    );
    let path = out.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, doc.render()).expect("bench write");
    println!("{} written", path.display());
}

/// Writes `<name>.report.jsonl` (truncated first, so reruns don't
/// accumulate).
fn write_reports(out: &Path, name: &str, reports: &[RunReport]) {
    let path = out.join(format!("{name}.report.jsonl"));
    let _ = std::fs::remove_file(&path);
    for r in reports {
        r.append_to(&path).expect("report write");
    }
}

fn fig12a(c: &Ctx) -> Vec<Output> {
    let swept = experiments::fig12a(&c.w, &c.k_cells(), c.threads);
    vec![table(
        "fig12a",
        "Figure 12(a): CQP optimization time vs K",
        swept,
    )]
}

fn fig12b(c: &Ctx) -> Vec<Output> {
    let swept = experiments::fig12b(&c.w, &c.ks);
    vec![table(
        "fig12b",
        "Figure 12(b): Preference-Space time vs K",
        swept,
    )]
}

/// Figure 12(c) and its zoom on the two fast algorithms, Figure 12(d).
fn fig12c(c: &Ctx) -> Vec<Output> {
    let (rows, reports) = experiments::fig12c(&c.w, &c.percent_cells(), c.threads);
    let zoomed = |algorithm: &str| matches!(algorithm, "C_MaxBounds" | "D_HeurDoi");
    let zoom = (
        rows.iter()
            .filter(|r| zoomed(r.algorithm))
            .cloned()
            .collect(),
        reports
            .iter()
            .filter(|r| zoomed(&r.label))
            .cloned()
            .collect(),
    );
    vec![
        table(
            "fig12c",
            "Figure 12(c): optimization time vs cmax (% Supreme Cost), K=20",
            (rows, reports),
        ),
        table(
            "fig12d",
            "Figure 12(d): zoom on C_MaxBounds / D_HeurDoi",
            zoom,
        ),
    ]
}

fn fig13a(c: &Ctx) -> Vec<Output> {
    let swept = experiments::fig13a(&c.w, &c.k_cells(), c.threads);
    vec![table(
        "fig13a",
        "Figure 13(a): memory requirements vs K",
        swept,
    )]
}

fn fig13b(c: &Ctx) -> Vec<Output> {
    let swept = experiments::fig13b(&c.w, &c.percent_cells(), c.threads);
    let title = "Figure 13(b): memory requirements vs cmax (% Supreme Cost)";
    vec![table("fig13b", title, swept)]
}

fn fig14a(c: &Ctx) -> Vec<Output> {
    let cells = Cell::k_sweep(&c.ks, |_| FIG14_ALGORITHMS.to_vec());
    let swept = experiments::fig14a(&c.w, &cells, ConjModel::NoisyOr, c.threads);
    vec![table("fig14a", "Figure 14(a): quality gap vs K", swept)]
}

fn fig14b(c: &Ctx) -> Vec<Output> {
    let cells = Cell::percent_sweep(20, &c.percents, &FIG14_ALGORITHMS);
    let swept = experiments::fig14b(&c.w, &cells, ConjModel::NoisyOr, c.threads);
    let title = "Figure 14(b): quality gap vs cmax (% Supreme Cost)";
    vec![table("fig14b", title, swept)]
}

fn fig15(c: &Ctx) -> Vec<Output> {
    let swept = experiments::fig15(&c.w, &c.ks);
    vec![table("fig15", "Figure 15: cost-model validation", swept)]
}

fn table1(c: &Ctx) -> Vec<Output> {
    let swept = experiments::table1(&c.w, 20);
    let title = "Table 1: the six CQP problems (K=20, first pair)";
    vec![table("table1", title, swept)]
}

/// The worked example of Tables 2 and 3.
fn table2_example(_: &Ctx) -> Vec<Output> {
    println!("--- Tables 2/3: worked example ---");
    let space = PreferenceSpace::synthetic(
        vec![
            PrefParams {
                doi: Doi::new(0.5),
                cost_blocks: 10,
                size_factor: 0.3,
            },
            PrefParams {
                doi: Doi::new(0.8),
                cost_blocks: 5,
                size_factor: 0.2,
            },
            PrefParams {
                doi: Doi::new(0.7),
                cost_blocks: 12,
                size_factor: 1.0,
            },
        ],
        10.0,
        0,
    );
    println!(
        "P (by decreasing doi): doi={:?}",
        (0..3).map(|i| space.doi(i).value()).collect::<Vec<_>>()
    );
    println!("C (by decreasing cost): {:?}", space.c);
    println!("S (by increasing size): {:?}", space.s);
    println!("(paper Table 2: D = {{2,3,1}}, C = {{3,1,2}}, S = {{2,1,3}} over p-numbers)");
    // Table 3: groups of states for K = 4.
    println!("Table 3 state groups for K=4:");
    for size in 1..=4u32 {
        let mut states = Vec::new();
        for mask in 1u32..16 {
            if mask.count_ones() == size {
                let s: cqp_core::State = (0..4u16).filter(|i| mask & (1 << i) != 0).collect();
                states.push(s.to_string());
            }
        }
        println!("  group {size}: {}", states.join(" "));
    }
    println!();
    Vec::new()
}

fn fig6_fixture() -> PreferenceSpace {
    let costs = [120u64, 80, 60, 40, 30];
    let dois = [0.9, 0.8, 0.7, 0.6, 0.5];
    PreferenceSpace::synthetic(
        (0..5)
            .map(|i| PrefParams {
                doi: Doi::new(dois[i]),
                cost_blocks: costs[i],
                size_factor: 0.5,
            })
            .collect(),
        1000.0,
        0,
    )
}

fn fig6_trace(_: &Ctx) -> Vec<Output> {
    println!("--- Figure 6: FINDBOUNDARY on the paper's example (cmax=185) ---");
    let space = fig6_fixture();
    let view = SpaceView::cost(&space, ConjModel::NoisyOr);
    let mut inst = Instrument::new();
    let bs = c_boundaries::find_boundary(&view, 185, &mut inst);
    println!(
        "boundaries: {}   (paper: c1, c1c3, c2c3c4, c2c4c5 — c2c4c5 is the\n\
         'wrongly identified' one our stronger prune removes)",
        bs.iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("states examined: {}\n", inst.states_examined);
    Vec::new()
}

fn fig8_trace(_: &Ctx) -> Vec<Output> {
    println!("--- Figure 8: C-MAXBOUNDS on the paper's example (cmax=185) ---");
    let space = fig6_fixture();
    let view = SpaceView::cost(&space, ConjModel::NoisyOr);
    let mut inst = Instrument::new();
    let mb = c_maxbounds::find_all_max_bounds(&view, 185, &mut inst);
    println!(
        "maximal boundaries: {}   (paper: c1c3, c2c3c4)",
        mb.iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("states examined: {}\n", inst.states_examined);
    Vec::new()
}

fn ablations(c: &Ctx) -> Vec<Output> {
    let (rows, reports) = experiments::ablation_generic(&c.w, 20, c.threads);
    let (times, gaps): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    let title = "Ablation: specialized vs generic search (K=20)";
    let mut outputs = vec![
        table(
            "ablation_generic_time",
            format!("{title}: time"),
            (times, reports.clone()),
        ),
        table(
            "ablation_generic_quality",
            format!("{title}: quality gap"),
            (gaps, reports),
        ),
    ];
    for (model, rows, reports) in experiments::ablation_doi_model(&c.w, &c.ks, c.threads) {
        let title = format!("Ablation: conjunction model r = {model}");
        outputs.push(table(
            format!("ablation_doimodel_{model}"),
            title,
            (rows, reports),
        ));
    }
    let budgets = experiments::ablation_annealing_budget(&c.w, 20, &[250, 1000, 4000, 16000]);
    let title = "Ablation: annealing budget (x = steps, states = gap x1e-7)";
    outputs.push(table("ablation_annealing_budget", title, budgets));
    let capacities = experiments::ablation_block_size(&[16, 32, 64, 128, 256], 10);
    let title = "Ablation: block capacity (cost-model robustness)";
    outputs.push(table("ablation_block_size", title, capacities));
    outputs
}

/// Serving-resilience experiment: (1) a 64-request batch under a seeded
/// [`FaultPlan`] with retry-on-transient-failure — must finish with zero
/// panics and zero errors, retry counters land in
/// `resilience.report.jsonl`; (2) a deadline sweep over the five paper
/// algorithms measuring degradation rates, the serving-time face of the
/// paper's exact-vs-heuristic tradeoff (Figures 12–13).
fn resilience(c: &Ctx) -> Vec<Output> {
    let (w, threads) = (&c.w, c.threads);
    let batch_k = 20;
    let mut pool = Vec::new();
    for (profile, query) in w.pairs() {
        let (space, _) = w.space(profile, query, batch_k, true);
        if space.k() == 0 {
            continue;
        }
        let cmax = w.scale.cmax_for(&space);
        for algo in Algorithm::PAPER {
            pool.push(BatchRequest {
                query: query.clone(),
                profile: profile.clone(),
                problem: ProblemSpec::p2(cmax),
                config: SolverConfig {
                    algorithm: algo,
                    extract: ExtractConfig {
                        max_k: batch_k,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            });
        }
    }
    if pool.is_empty() {
        println!("--- resilience: workload produced no requests, skipping ---\n");
        return Vec::new();
    }
    let requests: Vec<BatchRequest> = (0..64).map(|i| pool[i % pool.len()].clone()).collect();
    let db = Arc::new(w.db.clone());
    let stats = Arc::new(w.stats.clone());
    let mut reports = Vec::new();

    // (1) Fault-injected batch. The seed and mode are the documented
    // reference plan (README "Resilience"): error every 25th metered read,
    // capped at 8 injections so the retry total is deterministic under any
    // thread interleaving; retries(10) covers the worst case of one
    // request absorbing the whole cap.
    let seed: u64 = 0x00C0_FFEE_5EED;
    let plan = Arc::new(FaultPlan::new(seed, FaultMode::EveryNth { n: 25 }).with_max_faults(8));
    let driver = BatchDriver::with_stats(Arc::clone(&db), Arc::clone(&stats), threads)
        .with_execution(0.01)
        .with_fault_plan(Arc::clone(&plan))
        .with_retry_policy(RetryPolicy::retries(10));
    let obs = Obs::new();
    let (results, batch_stats) = driver.run_recorded(requests.clone(), &obs);
    assert_eq!(batch_stats.panics_caught, 0, "fault batch panicked");
    assert_eq!(batch_stats.errors, 0, "retries must absorb injected faults");
    assert!(results.iter().all(|r| r.is_ok()));
    println!(
        "--- resilience: 64-request batch, seed {seed:#x}, every-25th faults (cap 8) ---\n\
         {:>2} thread(s): {:>8.1} req/s  reads {}  faults {}  retries {}  errors {}  panics {}",
        batch_stats.threads,
        batch_stats.requests_per_sec,
        plan.reads_seen(),
        plan.faults_injected(),
        batch_stats.retries,
        batch_stats.errors,
        batch_stats.panics_caught,
    );
    reports.push(
        RunReport::from_obs("resilience", "fault_batch", &obs)
            .with_field("threads", batch_stats.threads as u64)
            .with_field("seed", seed)
            .with_field("faults_injected", plan.faults_injected())
            .with_field("retries", batch_stats.retries)
            .with_field("errors", batch_stats.errors)
            .with_field("panics_caught", batch_stats.panics_caught),
    );

    // (2) Deadline sweep: per paper algorithm, what fraction of requests
    // comes back degraded as the budget shrinks to nothing?
    for algo in Algorithm::PAPER {
        for deadline_ms in [Some(0u64), Some(5), None] {
            let budget = match deadline_ms {
                Some(ms) => Budget::with_deadline_ms(ms),
                None => Budget::unlimited(),
            };
            let sweep: Vec<BatchRequest> = requests
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    r.config.algorithm = algo;
                    r.config.budget = budget;
                    r
                })
                .collect();
            let driver = BatchDriver::with_stats(Arc::clone(&db), Arc::clone(&stats), threads);
            let obs = Obs::new();
            let (_, s) = driver.run_recorded(sweep, &obs);
            assert_eq!(
                s.panics_caught,
                0,
                "{} deadline sweep panicked",
                algo.name()
            );
            let label = match deadline_ms {
                Some(ms) => format!("deadline_{ms}ms_{}", algo.name()),
                None => format!("deadline_unlimited_{}", algo.name()),
            };
            println!("{label}: {} of {} degraded", s.degraded, s.requests);
            reports.push(
                RunReport::from_obs("resilience", &label, &obs)
                    .with_field("degraded", s.degraded)
                    .with_field("requests", s.requests as u64),
            );
        }
    }
    println!();
    vec![Output::Reports("resilience", reports)]
}

/// Observability experiment: what does tracing cost, and what does a
/// captured trace actually show?
///
/// Boots three servers over the workload — tracing off, default
/// deterministic sampling (1/16), and 100% capture — and measures
/// closed-loop throughput for each (best of five runs after a warmup, so
/// the overhead numbers measure tracing, not allocator warmup or CI
/// scheduling noise). Then, on the 100% server, sends one explicit-
/// trace-ID request with a 0-ms deadline and pulls its span tree back out
/// of `/debug/traces?id=` — the captured degraded trace embedded in
/// `BENCH_obs.json` — plus the whole ring as a Chrome trace-event file
/// (`trace_chrome.json`, loadable in `chrome://tracing` / Perfetto).
fn obs_experiment(c: &Ctx) -> Vec<Output> {
    let w = &c.w;
    let clients = c.threads.max(2);
    let cmax = w.scale.cmax_blocks;
    let queries: Vec<String> = w
        .queries
        .iter()
        .map(|q| cqp_engine::sql::conjunctive_sql(w.db.catalog(), q))
        .collect();
    let boot = |sample_every: u64| {
        let config = cqp_server::ServerConfig {
            max_inflight: clients,
            queue_cap: 0,
            seed_users: 0,
            trace_sample_every: sample_every,
            ..cqp_server::ServerConfig::default()
        };
        let handle = cqp_server::start(Arc::new(w.db.clone()), config).expect("server start");
        let users: Vec<String> = w
            .profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let user = format!("user{:04}", i + 1);
                handle.state().store.put(&user, p.clone());
                user
            })
            .collect();
        (handle, users)
    };
    let load_config = |users: Vec<String>, trace_every: u64, requests: usize| LoadConfig {
        clients,
        requests_per_client: requests,
        seed: 42,
        users,
        queries: queries.clone(),
        algorithms: vec![
            "c_boundaries".to_string(),
            "c_maxbounds".to_string(),
            "d_heurdoi".to_string(),
        ],
        problems: vec![
            format!("{{\"kind\":\"p2\",\"cmax\":{cmax}}}"),
            "{\"kind\":\"p6\",\"smin\":0,\"smax\":1000000}".to_string(),
        ],
        zero_deadline_permille: 150,
        top_k_choices: vec![-1, 2, 4],
        trace_every,
    };

    // Best-of-N with the modes *interleaved*: closed-loop throughput in a
    // shared container jitters by far more than tracing costs, and the
    // jitter is time-correlated — a slow minute would punish whichever
    // mode happened to run then. Booting all three servers up front and
    // round-robining the measured runs exposes every mode to the same
    // noise, and the per-mode max is the statistic that isolates the
    // instrumentation overhead.
    const MEASURED_RUNS: usize = 5;
    println!(
        "--- obs: tracing overhead, {} client(s) x 40 requests x {MEASURED_RUNS} interleaved runs per mode ---",
        clients
    );
    // (mode label, sample_every, explicit-header period for the load driver).
    let modes: [(&str, u64, u64); 3] = [("off", 0, 0), ("sampled", 16, 0), ("full", 1, 8)];
    let servers: Vec<(cqp_server::ServerHandle, Vec<String>)> = modes
        .iter()
        .map(|(_, sample_every, _)| boot(*sample_every))
        .collect();
    // Warmup each: populate the submit cache and the allocator.
    for (handle, users) in &servers {
        run_load(handle.addr(), &load_config(users.clone(), 0, 5)).expect("warmup");
    }
    let mut best: [Option<LoadReport>; 3] = [None, None, None];
    for _round in 0..MEASURED_RUNS {
        for (mi, (mode, _, trace_every)) in modes.iter().enumerate() {
            let (handle, users) = &servers[mi];
            let report = run_load(handle.addr(), &load_config(users.clone(), *trace_every, 40))
                .expect("load run");
            assert_eq!(report.io_errors, 0, "{mode}: load hit socket errors");
            assert_eq!(report.server_errors, 0, "{mode}: load hit 5xx responses");
            assert_eq!(
                report.trace_mismatches, 0,
                "{mode}: server echoed a wrong trace ID"
            );
            if best[mi]
                .as_ref()
                .is_none_or(|b| report.requests_per_sec > b.requests_per_sec)
            {
                best[mi] = Some(report);
            }
        }
    }
    let mut mode_docs: Vec<(&str, Json)> = Vec::new();
    let mut mode_rps = [0.0f64; 3];
    let mut reports = Vec::new();
    for (mi, (mode, sample_every, _)) in modes.iter().enumerate() {
        let best = best[mi].as_ref().expect("at least one run");
        let state = servers[mi].0.state();
        let (captured, evicted) = state.telemetry.ring.counters();
        println!(
            "{mode:>8}: {:>8.1} req/s  p50 {:>6} us  p99 {:>6} us  captured {captured} traces",
            best.requests_per_sec, best.p50_us, best.p99_us
        );
        match *sample_every {
            0 => assert_eq!(captured, 0, "tracing off must capture nothing"),
            1 => assert!(
                captured >= best.requests,
                "100% sampling missed requests: {captured} < {}",
                best.requests
            ),
            _ => assert!(captured > 0, "default sampling captured nothing"),
        }
        mode_rps[mi] = best.requests_per_sec;
        mode_docs.push((
            mode,
            Json::obj(vec![
                ("sample_every", Json::from(*sample_every)),
                ("load", best.to_json()),
                ("traces_captured", Json::from(captured)),
                ("traces_evicted", Json::from(evicted)),
            ]),
        ));
        // The server keeps metrics only; the spans are its retained
        // traces, folded.
        let traces = state.telemetry.ring.recent(usize::MAX);
        let report = RunReport {
            experiment: "obs".to_string(),
            label: mode.to_string(),
            fields: Vec::new(),
            snapshot: state.registry.snapshot(),
            spans: fold_traces(&traces),
        };
        reports.push(
            report
                .with_field("requests", best.requests)
                .with_field("traces_captured", captured),
        );
    }
    let mut servers = servers;
    let (mut off_handle, _) = servers.remove(0);
    let (mut sampled_handle, _) = servers.remove(0);
    let (mut handle, _) = servers.remove(0); // full sampling, kept for probes
    off_handle.stop();
    sampled_handle.stop();
    let addr = handle.addr();

    // One deadline-tripped request with a client-chosen trace ID, then its
    // span tree back out of the debug endpoint.
    let timeouts = Timeouts {
        connect: Duration::from_secs(2),
        read: Duration::from_secs(20),
    };
    let send = |req: &Request| http::exchange(addr, req, timeouts);
    let http_get = |path: &str| -> String {
        let resp = send(&Request::get(path)).expect("GET response");
        assert_eq!(resp.status, 200, "GET {path}: {}", resp.body_text());
        resp.body_text()
    };
    let trace_id = "deadbeef";
    // An algorithm the load mix never draws: the probe's family is not in
    // the answer cache, so it runs the search and the 0-ms deadline trips
    // it. An exact hit answers without searching and is never degraded.
    let body = format!(
        "{{\"user\":\"user0001\",\"sql\":{},\"problem\":{{\"kind\":\"p2\",\"cmax\":{cmax}}},\
         \"algorithm\":\"branch_bound\",\"deadline_ms\":0}}",
        Json::Str(queries[0].clone()).render(),
    );
    let padded = format!("{:0>16}", trace_id);
    let probe = send(&Request::post("/personalize", &body).with_header("x-cqp-trace-id", trace_id))
        .expect("probe response");
    assert_eq!(probe.status, 200, "probe: {}", probe.body_text());
    assert_eq!(
        probe.header("x-cqp-trace-id"),
        Some(padded.as_str()),
        "probe response must echo the trace ID"
    );
    let trace_doc = cqp_server::json::parse(&http_get(&format!("/debug/traces?id={trace_id}")))
        .expect("trace JSON");
    let span_paths: Vec<Json> = trace_doc
        .get("spans")
        .and_then(Json::as_array)
        .expect("spans")
        .iter()
        .filter_map(|s| s.get("path").cloned())
        .collect();
    let path_strs: Vec<&str> = span_paths.iter().filter_map(Json::as_str).collect();
    for required in [
        "parse",
        "session",
        "admission",
        "dispatch.personalize.search",
    ] {
        assert!(
            path_strs.contains(&required),
            "degraded trace missing span {required:?}: {path_strs:?}"
        );
    }
    assert_eq!(
        trace_doc
            .get("meta")
            .and_then(|m| m.get("outcome"))
            .and_then(Json::as_str),
        Some("degraded"),
        "0-ms deadline probe must be captured as degraded"
    );
    let degraded_trace = Json::obj(vec![
        ("trace_id", Json::Str(padded)),
        (
            "outcome",
            trace_doc
                .get("meta")
                .and_then(|m| m.get("outcome"))
                .cloned()
                .unwrap_or(Json::Null),
        ),
        (
            "total_us",
            trace_doc.get("total_us").cloned().unwrap_or(Json::Null),
        ),
        ("span_paths", Json::Arr(span_paths)),
    ]);

    // The whole ring as a Chrome trace-event artifact.
    let chrome = http_get("/debug/traces?format=chrome");
    let slo = handle.state().telemetry.slo.snapshot();
    handle.stop();

    // Overhead relative to tracing-off, clamped at 0 (a negative sampled
    // overhead is measurement noise, not a speedup).
    let overhead = |rps: f64| {
        if mode_rps[0] > 0.0 {
            ((mode_rps[0] - rps) / mode_rps[0]).max(0.0)
        } else {
            0.0
        }
    };
    let sampled_overhead = overhead(mode_rps[1]);
    let full_overhead = overhead(mode_rps[2]);
    println!(
        "overhead vs off: sampled {:.1}%  full {:.1}%",
        sampled_overhead * 100.0,
        full_overhead * 100.0
    );
    let doc = vec![
        ("scale", Json::Str(w.scale.name.to_string())),
        ("clients", Json::from(clients as u64)),
        ("seed", Json::from(42u64)),
        ("modes", Json::obj(mode_docs)),
        (
            "overhead",
            Json::obj(vec![
                ("sampled_vs_off", Json::from(sampled_overhead)),
                ("full_vs_off", Json::from(full_overhead)),
                ("objective", Json::from(0.05)),
                (
                    "sampled_within_objective",
                    Json::Bool(sampled_overhead <= 0.05),
                ),
            ]),
        ),
        (
            "slo",
            Json::obj(vec![
                ("objective_us", Json::from(slo.objective_us)),
                ("window_secs", Json::from(slo.window_secs)),
                ("requests", Json::from(slo.requests)),
                ("over_objective", Json::from(slo.over_objective)),
                ("burn_ratio", Json::from(slo.burn_ratio)),
                ("rate_per_sec", Json::from(slo.rate_per_sec)),
            ]),
        ),
        ("degraded_trace", degraded_trace),
    ];
    println!();
    vec![
        Output::File("trace_chrome.json", chrome),
        Output::Bench("obs", doc),
        Output::Reports("obs", reports),
    ]
}
