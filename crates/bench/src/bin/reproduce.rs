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
//!   recovery  WAL crash differential + drain quantiles + breaker trips
//!             (BENCH_recovery.json)
//!   cluster   distributed tier: SIGKILL-failover write-loss audit against
//!             child serverd pairs + divergent-vs-uniform replica routing
//!             + ring balance (BENCH_cluster.json)
//!   partition seeded split-brain and nemesis-churn schedules against a
//!             nemesis-fronted cluster: epoch fencing on the stale face,
//!             zero lost acked writes by the consistency checker
//!             (BENCH_partition.json)
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
use cqp_bench::load::{run_load, run_load_targets, LoadConfig, LoadReport};
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
use cqp_server::http::ClientResponse;
use cqp_storage::{FaultMode, FaultPlan};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One experiment: it reads the workload and the command line's knobs and
/// returns what [`write`] puts under `--out`.
type Run = fn(&Ctx) -> Vec<Output>;

/// Every experiment, in run order: its name, the other command-line names
/// that select it (`all` selects every one) and its run.
const EXPERIMENTS: [(&str, &[&str], Run); 18] = [
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
    ("recovery", &[], recovery),
    ("cluster", &[], cluster_experiment),
    ("partition", &[], partition_experiment),
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
        zipf_theta: 0.0,
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
    let http_get = |path: &str| -> String {
        let resp = http(addr, "GET", path, &[], None).expect("GET response");
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
    let probe = http(
        addr,
        "POST",
        "/personalize",
        &[("x-cqp-trace-id", trace_id)],
        Some(&body),
    )
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

/// Recovery experiment: the crash-safety face of the serving layer.
///
/// Four measurements: (1) a crash differential — a WAL-backed session
/// store is killed mid-write-burst at seeded byte offsets and every
/// replayed store must equal the reference store holding exactly the
/// records that were fully on disk; (2) cold replay throughput over the
/// full log; (3) graceful-drain latency quantiles over repeated
/// boot/drain cycles, each with an idle connection and a request that
/// finishes its arrival mid-drain (answered `503 + Connection: close`);
/// (4) deterministic circuit-breaker trip/half-open/close counts under
/// first-K injected faults. Emits `BENCH_recovery.json` plus a
/// `recovery.report.jsonl` run report in `out`.
fn recovery(c: &Ctx) -> Vec<Output> {
    use cqp_core::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
    use cqp_server::http::parse_response;
    use cqp_server::server::Phase;
    use cqp_server::SessionStore;
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;

    let w = &c.w;
    let catalog = w.db.catalog();
    let seed: u64 = 0x5E55_10F5;
    let n_ops = 240usize;
    let n_users = w.profiles.len().max(1);
    let op = |i: usize| {
        (
            format!("user{:04}", i % n_users + 1),
            &w.profiles[(i * 7 + 3) % n_users],
        )
    };
    let reference_dump = |k: usize| {
        let store = SessionStore::new(8);
        for i in 0..k {
            let (user, profile) = op(i);
            store.put(&user, profile.clone());
        }
        store.dump(catalog)
    };

    // (1) Write burst through the durable store, then crash replicas of
    // its log at seeded offsets and diff each replay.
    let wal_root = c.out.join("recovery-wal");
    let _ = std::fs::remove_dir_all(&wal_root);
    let burst_dir = wal_root.join("burst");
    let (store, fresh) = SessionStore::recover(8, &burst_dir, catalog).expect("fresh store");
    assert_eq!(fresh.records_replayed(), 0);
    for i in 0..n_ops {
        let (user, profile) = op(i);
        store.put(&user, profile.clone());
    }
    let uncrashed = store.dump(catalog);
    drop(store);
    let log = std::fs::read(burst_dir.join("log.wal")).expect("read log");
    // Every frame is newline-terminated and payloads escape raw
    // newlines, so each `\n` ends one record.
    let mut bounds = vec![0usize];
    bounds.extend(
        log.iter()
            .enumerate()
            .filter(|(_, c)| **c == b'\n')
            .map(|(i, _)| i + 1),
    );
    assert_eq!(bounds.len(), n_ops + 1, "one WAL record per put");

    let crash_points = 8usize;
    let mut replays_exact = 0usize;
    for p in 0..crash_points {
        let mut r = seed ^ (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        r ^= r >> 30;
        r = r.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        r ^= r >> 27;
        let cut = (r as usize) % (log.len() + 1);
        let complete = bounds.iter().filter(|b| **b <= cut).count() - 1;
        let dir = wal_root.join(format!("crash{p}"));
        std::fs::create_dir_all(&dir).expect("crash dir");
        std::fs::write(dir.join("log.wal"), &log[..cut]).expect("crash image");
        let (replayed, report) = SessionStore::recover(8, &dir, catalog).expect("replay");
        assert_eq!(report.records_replayed(), complete as u64, "cut {cut}");
        assert_eq!(
            replayed.dump(catalog),
            reference_dump(complete),
            "crash point {p} (cut {cut}, {complete} records) must replay exactly"
        );
        replays_exact += 1;
    }

    // (2) Cold replay throughput over the intact log.
    let (full, replay) = SessionStore::recover(8, &burst_dir, catalog).expect("full replay");
    assert_eq!(full.dump(catalog), uncrashed, "uncrashed differential");
    assert_eq!(replay.records_replayed(), n_ops as u64);
    assert_eq!(replay.torn_tail_bytes, 0);
    let replay_secs = replay.replay_secs.max(1e-9);
    let records_per_sec = replay.records_replayed() as f64 / replay_secs;
    let bytes_per_sec = replay.bytes_replayed as f64 / replay_secs;
    drop(full);
    println!(
        "--- recovery: {} records, {} crash points replayed exactly; \
         cold replay {:.0} rec/s ({:.1} MB/s) ---",
        n_ops,
        replays_exact,
        records_per_sec,
        bytes_per_sec / 1e6,
    );

    // (3) Drain latency: boot, open an idle connection plus a request
    // whose body arrives only after the drain begins, then shut down.
    let db = Arc::new(w.db.clone());
    let drain_iters = 20usize;
    let mut drain_hist = cqp_obs::Histogram::default();
    let mut graceful = 0usize;
    let mut forced_total = 0usize;
    let mut rejected_503 = 0usize;
    for _ in 0..drain_iters {
        let handle = cqp_server::start(
            Arc::clone(&db),
            cqp_server::ServerConfig {
                seed_users: 0,
                read_timeout_ms: 5_000,
                drain_deadline_ms: 5_000,
                ..cqp_server::ServerConfig::default()
            },
        )
        .expect("server start");
        let addr = handle.addr();
        let state = Arc::clone(handle.state());
        let mut conn_mid = TcpStream::connect(addr).expect("conn_mid");
        conn_mid
            .write_all(b"POST /profiles/u1 HTTP/1.1\r\nhost: t\r\ncontent-length: 4\r\n\r\n")
            .expect("head");
        let mut conn_idle = TcpStream::connect(addr).expect("conn_idle");
        conn_idle
            .set_read_timeout(Some(Duration::from_millis(3_000)))
            .expect("idle timeout");
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        let drainer = std::thread::spawn(move || {
            let mut handle = handle;
            handle.shutdown(Duration::from_millis(5_000))
        });
        while state.phase() == Phase::Live {
            std::thread::sleep(Duration::from_millis(1));
        }
        conn_mid.write_all(b"body").expect("body");
        let resp = parse_response(&mut BufReader::new(&mut conn_mid)).expect("mid response");
        if resp.status == 503 {
            rejected_503 += 1;
        }
        let stats = drainer.join().expect("drainer");
        drain_hist.observe(t0.elapsed().as_micros() as u64);
        if stats.graceful {
            graceful += 1;
        }
        forced_total += stats.forced;
        let mut buf = [0u8; 8];
        assert_eq!(
            conn_idle.read(&mut buf).expect("idle EOF"),
            0,
            "idle connection must be closed by the drain"
        );
        assert_eq!(state.active_connections(), 0);
    }
    assert_eq!(graceful, drain_iters, "every drain must finish in time");
    assert_eq!(forced_total, 0, "no connection may be force-severed");
    assert_eq!(
        rejected_503, drain_iters,
        "mid-drain arrivals get their 503"
    );
    println!(
        "drain ({} cycles): p50 {} us  p95 {} us  max {} us  graceful {}/{}  503s {}",
        drain_iters,
        drain_hist.quantile(0.5),
        drain_hist.quantile(0.95),
        drain_hist.max(),
        graceful,
        drain_iters,
        rejected_503,
    );

    // (4) Breaker trips under first-K faults, with retries off so every
    // injected fault is one transient failure: two failures trip the
    // breaker, sheds follow, and each cooldown's half-open probe either
    // re-trips (faults remain) or closes (faults exhausted).
    let obs = Obs::new();
    let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
        window: 8,
        failure_threshold: 0.5,
        min_samples: 2,
        cooldown_ms: 50,
        half_open_probes: 1,
    }));
    let driver = BatchDriver::new(Arc::clone(&db), 1)
        .with_execution(0.0)
        .with_fault_plan(Arc::new(FaultPlan::new(seed, FaultMode::FirstK { k: 4 })))
        .with_breaker(Arc::clone(&breaker));
    let (profile, query) = w.pairs().next().expect("workload pair");
    let req = || BatchRequest {
        query: query.clone(),
        profile: profile.clone(),
        problem: ProblemSpec::p2(w.scale.cmax_blocks),
        config: SolverConfig::default(),
    };
    let mut shed = 0usize;
    let mut transient = 0usize;
    let mut ok = 0usize;
    for i in 0..8 {
        if i >= 5 {
            // Let the cooldown lapse so the next submit is the probe.
            std::thread::sleep(Duration::from_millis(70));
        }
        match driver.submit_recorded(req(), &obs) {
            Ok(_) => ok += 1,
            Err(e) if matches!(e.kind(), "circuit_open") => shed += 1,
            Err(e) => {
                assert!(e.is_transient(), "unexpected breaker-path error: {e}");
                transient += 1;
            }
        }
    }
    let (opened, half_opened, closed, shed_count) = breaker.counters();
    assert_eq!(
        (transient, shed, ok),
        (4, 3, 1),
        "first-K fault schedule is deterministic"
    );
    assert_eq!((opened, half_opened, closed), (3, 3, 1));
    assert_eq!(shed_count, shed as u64);
    assert_eq!(breaker.state(), BreakerState::Closed);
    println!(
        "breaker: opened {opened}  half-open {half_opened}  closed {closed}  shed {shed_count}  final {}",
        breaker.state().as_str()
    );

    let doc = vec![
        ("scale", Json::Str(w.scale.name.to_string())),
        ("seed", Json::from(seed)),
        (
            "crash_differential",
            Json::obj(vec![
                ("records_written", Json::from(n_ops as u64)),
                ("log_bytes", Json::from(log.len() as u64)),
                ("crash_points", Json::from(crash_points as u64)),
                ("replays_exact", Json::from(replays_exact as u64)),
            ]),
        ),
        (
            "replay",
            Json::obj(vec![
                ("records_recovered", Json::from(replay.records_replayed())),
                ("bytes_replayed", Json::from(replay.bytes_replayed)),
                ("torn_tail_bytes", Json::from(replay.torn_tail_bytes)),
                ("replay_secs", Json::from(replay_secs)),
                ("records_per_sec", Json::from(records_per_sec)),
                ("bytes_per_sec", Json::from(bytes_per_sec)),
            ]),
        ),
        (
            "drain",
            Json::obj(vec![
                ("iterations", Json::from(drain_iters as u64)),
                ("graceful", Json::from(graceful as u64)),
                ("forced", Json::from(forced_total as u64)),
                ("rejected_503", Json::from(rejected_503 as u64)),
                (
                    "latency_us",
                    Json::obj(vec![
                        ("p50", Json::from(drain_hist.quantile(0.5))),
                        ("p95", Json::from(drain_hist.quantile(0.95))),
                        ("max", Json::from(drain_hist.max())),
                    ]),
                ),
            ]),
        ),
        (
            "breaker",
            Json::obj(vec![
                ("submits", Json::from(8u64)),
                ("transient_failures", Json::from(transient as u64)),
                ("shed", Json::from(shed_count)),
                ("opened", Json::from(opened)),
                ("half_opened", Json::from(half_opened)),
                ("closed", Json::from(closed)),
                ("final_state", Json::Str(breaker.state().as_str().into())),
            ]),
        ),
    ];
    let report = RunReport::from_obs("recovery", "summary", &obs)
        .with_field("records_written", n_ops as u64)
        .with_field("replays_exact", replays_exact as u64)
        .with_field("drain_graceful", graceful as u64)
        .with_field("breaker_opened", opened);
    let _ = std::fs::remove_dir_all(&wal_root);
    println!();
    vec![
        Output::Bench("recovery", doc),
        Output::Reports("recovery", vec![report]),
    ]
}

/// The experiments' one-shot HTTP client: one request over a fresh
/// connection (`connection: close`), with extra request headers (the
/// partition legs stamp `x-cqp-epoch`, the obs probe `x-cqp-trace-id`) and
/// an optional body, sent with its `content-length`.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> std::io::Result<ClientResponse> {
    use std::io::{BufReader, Write};
    let stream = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    stream.set_nodelay(true)?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if let Some(b) = body {
        head.push_str(&format!("content-length: {}\r\n", b.len()));
    }
    head.push_str("\r\n");
    let mut payload = head.into_bytes();
    payload.extend_from_slice(body.unwrap_or_default().as_bytes());
    (&stream).write_all(&payload)?;
    cqp_server::http::parse_response(&mut BufReader::new(stream))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Removes `fields` from every object level of `json` — used to compare
/// personalize answers minus the per-run fields (`latency_us`, `cache`).
fn cluster_strip(json: Json, fields: &[&str]) -> Json {
    match json {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| !fields.contains(&k.as_str()))
                .map(|(k, v)| (k, cluster_strip(v, fields)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(
            items
                .into_iter()
                .map(|v| cluster_strip(v, fields))
                .collect(),
        ),
        other => other,
    }
}

/// One op of the seeded failover burst: `(user, profile wire text)`.
fn cluster_burst_op(seed: u64, round: u64, i: u64) -> (String, String) {
    const USERS: [&str; 6] = ["al", "bo", "cy", "di", "ed", "fay"];
    const GENRES: [&str; 4] = ["comedy", "drama", "horror", "scifi"];
    let r = rand::splitmix64_mix(seed ^ rand::splitmix64_mix(round.wrapping_mul(0x9E37) ^ i));
    let user = USERS[(r % USERS.len() as u64) as usize];
    let genre = GENRES[((r >> 8) % GENRES.len() as u64) as usize];
    let year = 1970 + ((r >> 16) % 50);
    (user.to_string(), profile_wire(user, genre, year))
}

/// A profile's wire text: it likes `genre` films and films from `year` on.
fn profile_wire(user: &str, genre: &str, year: u64) -> String {
    format!(
        "# cqp-profile v1\n\
         profile {user}\n\
         join 0.9 MOVIE.mid GENRE.mid\n\
         select 0.8 GENRE.genre eq \"{genre}\"\n\
         select 0.6 MOVIE.year ge {year}\n"
    )
}

fn cluster_personalize_body(user: &str, sql: &str) -> String {
    format!(
        "{{\"user\":{},\"sql\":{},\"problem\":{{\"kind\":\"p2\",\"cmax\":500}},\
         \"algorithm\":\"c_maxbounds\"}}",
        Json::Str(user.to_string()).render(),
        Json::Str(sql.to_string()).render()
    )
}

/// Outcome of one kill-the-primary audit round.
struct ClusterRound {
    kill_at: u64,
    acked: u64,
    lost: u64,
    mismatches: u64,
}

/// The write-loss audit against an already-running primary/follower pair:
/// runs a seeded profile burst against the primary, invokes `kill` after
/// `kill_at` acknowledged writes (SIGKILL for child processes), promotes
/// the follower, and checks that every acknowledged write — and the
/// personalize answer it implies — is present on the promoted follower,
/// bit-identical to a fresh single-node reference that replayed the same
/// acknowledged sequence.
fn cluster_audit_round(
    db: &Arc<cqp_storage::Database>,
    primary_addr: SocketAddr,
    follower_addr: SocketAddr,
    kill: &mut dyn FnMut(),
    seed: u64,
    round: u64,
) -> ClusterRound {
    let total = 60u64;
    let kill_at = 15 + rand::splitmix64_mix(seed.wrapping_add(round.wrapping_mul(0xC13))) % 30;
    let mut acked: Vec<(String, String)> = Vec::new();
    for i in 0..total {
        let (user, text) = cluster_burst_op(seed, round, i);
        match http(
            primary_addr,
            "POST",
            &format!("/profiles/{user}"),
            &[],
            Some(&text),
        ) {
            Ok(resp) if resp.status == 200 => acked.push((user, text)),
            // The primary is gone (or refused): nothing past this point
            // was acknowledged, so nothing past this point is owed.
            _ => break,
        }
        if acked.len() as u64 == kill_at {
            kill();
        }
    }
    let promoted =
        http(follower_addr, "POST", "/admin/promote", &[], Some("")).expect("promote follower");
    assert_eq!(promoted.status, 200, "{}", promoted.body_text());

    // A fresh single-node reference replays the same acknowledged writes;
    // the promoted follower must agree with it bit-for-bit.
    let mut reference = cqp_server::start(
        Arc::clone(db),
        cqp_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            seed_users: 0,
            ..Default::default()
        },
    )
    .expect("reference server");
    for (user, text) in &acked {
        let resp = http(
            reference.addr(),
            "POST",
            &format!("/profiles/{user}"),
            &[],
            Some(text),
        )
        .expect("reference upsert");
        assert_eq!(resp.status, 200, "{}", resp.body_text());
    }
    let users: std::collections::BTreeSet<&str> = acked.iter().map(|(u, _)| u.as_str()).collect();
    let mut lost = 0u64;
    let mut mismatches = 0u64;
    for user in &users {
        let on_follower = http(
            follower_addr,
            "GET",
            &format!("/profiles/{user}"),
            &[],
            None,
        );
        let on_reference = http(
            reference.addr(),
            "GET",
            &format!("/profiles/{user}"),
            &[],
            None,
        )
        .expect("reference read");
        match on_follower {
            Ok(resp) if resp.status == 200 && resp.body == on_reference.body => {}
            _ => lost += 1,
        }
        for sql in [
            "SELECT title FROM MOVIE",
            "SELECT title FROM MOVIE WHERE MOVIE.year >= 1990",
        ] {
            let body = cluster_personalize_body(user, sql);
            let f = http(follower_addr, "POST", "/personalize", &[], Some(&body))
                .expect("follower personalize");
            let r = http(reference.addr(), "POST", "/personalize", &[], Some(&body))
                .expect("reference personalize");
            assert_eq!(f.status, 200, "{}", f.body_text());
            assert_eq!(r.status, 200, "{}", r.body_text());
            let strip = |resp: &ClientResponse| {
                cluster_strip(
                    cqp_server::json::parse(&resp.body_text()).expect("personalize JSON"),
                    &["latency_us", "cache"],
                )
                .render()
            };
            if strip(&f) != strip(&r) {
                mismatches += 1;
            }
        }
    }
    reference.stop();
    ClusterRound {
        kill_at,
        acked: acked.len() as u64,
        lost,
        mismatches,
    }
}

/// Spawns a child `serverd`, reading its banner lines. Returns the child,
/// its serving address, and (for primaries) its replication address.
fn cluster_spawn_serverd(
    bin: &Path,
    wal_dir: &Path,
    role_args: &[&str],
) -> (std::process::Child, SocketAddr, Option<SocketAddr>) {
    use std::io::BufRead;
    let mut child = std::process::Command::new(bin)
        .args(["--addr", "127.0.0.1:0", "--seed", "7", "--seed-users", "0"])
        .arg("--wal-dir")
        .arg(wal_dir)
        .args(role_args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serverd");
    let stdout = child.stdout.take().expect("serverd stdout");
    let mut repl_addr = None;
    let mut addr = None;
    for line in std::io::BufReader::new(stdout).lines() {
        let line = line.expect("serverd banner");
        if let Some(rest) = line.strip_prefix("replication on ") {
            repl_addr = rest.split_whitespace().next().and_then(|a| a.parse().ok());
        } else if let Some(rest) = line.strip_prefix("listening on ") {
            addr = rest.split_whitespace().next().and_then(|a| a.parse().ok());
            break;
        }
    }
    (child, addr.expect("serverd readiness banner"), repl_addr)
}

/// One arm of the divergent-vs-uniform comparison: boots a 2-group
/// in-process cluster under `policy`, seeds profiles through the router
/// (so ring placement is real), and drives a Zipf-skewed template mix.
fn cluster_routing_leg(policy: cqp_cluster::RoutingPolicy, root: &Path) -> LoadReport {
    use cqp_cluster::{Cluster, ClusterConfig};
    let mut config = ClusterConfig::new(2, root.join(policy.as_str()));
    config.policy = policy;
    let mut cluster = Cluster::start(config).expect("cluster start");
    let addr = cluster.router.addr();
    let users: Vec<String> = (0..12).map(|i| format!("user{i:03}")).collect();
    for user in &users {
        let text = profile_wire(user, "comedy", 1990);
        let resp = http(addr, "POST", &format!("/profiles/{user}"), &[], Some(&text))
            .expect("seed profile");
        assert_eq!(resp.status, 200, "{}", resp.body_text());
    }
    let load = LoadConfig {
        clients: 4,
        requests_per_client: 150,
        seed: 42,
        users,
        queries: (0..6)
            .map(|i| {
                format!(
                    "SELECT title FROM MOVIE WHERE MOVIE.year >= {}",
                    1970 + i * 5
                )
            })
            .collect(),
        algorithms: vec!["c_maxbounds".to_string()],
        problems: vec!["{\"kind\":\"p2\",\"cmax\":500}".to_string()],
        zero_deadline_permille: 0,
        top_k_choices: vec![-1],
        zipf_theta: 0.8,
        ..LoadConfig::default()
    };
    let report = run_load_targets(&[addr], &load).expect("cluster load");
    cluster.stop();
    report
}

/// `reproduce cluster` — the distributed-tier audit. Three legs:
///
/// 1. **SIGKILL failover, zero lost acknowledged writes** — seeded
///    rounds against child `serverd` primary/follower pairs (in-process
///    pairs when the binary is absent): SIGKILL the primary at a seeded
///    point mid-burst, promote the follower, and verify every
///    acknowledged write — profile bytes and the personalize answer they
///    imply — against a fresh single-node reference.
/// 2. **Divergent vs uniform read routing** — the same Zipf template mix
///    through a 2-group cluster under both policies; divergent (template
///    class → pinned replica) must beat uniform on answer-cache hits.
/// 3. **Ring balance** — placement spread of 10k users over 4 groups.
///
/// Emits `BENCH_cluster.json` in `out`.
fn cluster_experiment(c: &Ctx) -> Vec<Output> {
    use cqp_cluster::{Ring, RoutingPolicy};
    use cqp_datagen::{generate_movie_db, MovieDbConfig};

    println!("--- cluster: failover audit + divergent routing + ring balance ---");
    let seed = 7u64;
    let rounds = 3u64;
    let root = c.out.join("cluster-wal");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("cluster wal root");
    let db = Arc::new(generate_movie_db(&MovieDbConfig::tiny(seed)));

    let serverd = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("serverd")))
        .filter(|p| p.is_file());
    let mode = if serverd.is_some() {
        "child-process"
    } else {
        "in-process"
    };
    let mut round_docs = Vec::new();
    let mut total_acked = 0u64;
    let mut total_lost = 0u64;
    let mut total_mismatches = 0u64;
    for round in 0..rounds {
        let outcome = match &serverd {
            Some(bin) => {
                let (mut primary, primary_addr, repl_addr) = cluster_spawn_serverd(
                    bin,
                    &root.join(format!("r{round}-primary")),
                    &["--repl-listen", "127.0.0.1:0"],
                );
                let repl_addr = repl_addr.expect("primary replication banner");
                let (mut follower, follower_addr, _) = cluster_spawn_serverd(
                    bin,
                    &root.join(format!("r{round}-follower")),
                    &["--follow", &repl_addr.to_string()],
                );
                let outcome = cluster_audit_round(
                    &db,
                    primary_addr,
                    follower_addr,
                    &mut || {
                        // SIGKILL: no drain, no flush courtesy — the
                        // acked-write contract must hold anyway.
                        let _ = primary.kill();
                        let _ = primary.wait();
                    },
                    seed,
                    round,
                );
                // Idempotent: the round's kill closure already SIGKILLed
                // the primary on the expected path.
                let _ = primary.kill();
                let _ = primary.wait();
                let _ = follower.kill();
                let _ = follower.wait();
                outcome
            }
            None => {
                let mut primary = cqp_server::start(
                    Arc::clone(&db),
                    cqp_server::ServerConfig {
                        addr: "127.0.0.1:0".into(),
                        wal_dir: Some(root.join(format!("r{round}-primary"))),
                        repl_listen: Some("127.0.0.1:0".into()),
                        seed_users: 0,
                        ..Default::default()
                    },
                )
                .expect("primary start");
                let repl_addr = primary.repl_addr().expect("primary repl addr");
                let mut follower = cqp_server::start(
                    Arc::clone(&db),
                    cqp_server::ServerConfig {
                        addr: "127.0.0.1:0".into(),
                        wal_dir: Some(root.join(format!("r{round}-follower"))),
                        follow: Some(repl_addr.to_string()),
                        seed_users: 0,
                        ..Default::default()
                    },
                )
                .expect("follower start");
                let primary_addr = primary.addr();
                let follower_addr = follower.addr();
                let outcome = cluster_audit_round(
                    &db,
                    primary_addr,
                    follower_addr,
                    &mut || primary.stop(),
                    seed,
                    round,
                );
                follower.stop();
                outcome
            }
        };
        println!(
            "round {round}: killed primary after {} acks ({} acked total) — \
             lost {}  personalize mismatches {}",
            outcome.kill_at, outcome.acked, outcome.lost, outcome.mismatches
        );
        total_acked += outcome.acked;
        total_lost += outcome.lost;
        total_mismatches += outcome.mismatches;
        round_docs.push(Json::obj(vec![
            ("round", Json::from(round)),
            ("kill_after_acks", Json::from(outcome.kill_at)),
            ("acked_writes", Json::from(outcome.acked)),
            ("lost_acked_writes", Json::from(outcome.lost)),
            ("personalize_mismatches", Json::from(outcome.mismatches)),
        ]));
    }
    assert_eq!(total_lost, 0, "acknowledged writes lost across failover");
    assert_eq!(
        total_mismatches, 0,
        "post-failover personalize diverged from the single-node reference"
    );

    let divergent = cluster_routing_leg(RoutingPolicy::Divergent, &root);
    let uniform = cluster_routing_leg(RoutingPolicy::Uniform, &root);
    println!(
        "routing: divergent hit rate {:.3} at {:.0} req/s vs uniform {:.3} at {:.0} req/s",
        divergent.cache_hit_rate(),
        divergent.requests_per_sec,
        uniform.cache_hit_rate(),
        uniform.requests_per_sec
    );
    assert_eq!(divergent.io_errors, 0, "{divergent:?}");
    assert_eq!(uniform.io_errors, 0, "{uniform:?}");
    assert!(
        divergent.cache_hit_rate() > uniform.cache_hit_rate(),
        "divergent routing must beat uniform on cache hits: {:.3} vs {:.3}",
        divergent.cache_hit_rate(),
        uniform.cache_hit_rate()
    );

    let ring = Ring::with_groups(&["g0", "g1", "g2", "g3"]);
    let keys: Vec<String> = (0..10_000).map(|i| format!("user{i:05}")).collect();
    let load = ring.load(&keys);
    let max = load.iter().map(|(_, c)| *c).max().unwrap_or(0);
    let min = load.iter().map(|(_, c)| *c).min().unwrap_or(0);
    println!(
        "ring: 10k users over 4 groups — min {min}, max {max}, ratio {:.2}",
        max as f64 / min.max(1) as f64
    );

    let doc = vec![
        ("seed", Json::from(seed)),
        ("mode", Json::Str(mode.into())),
        (
            "failover",
            Json::obj(vec![
                ("rounds", Json::from(rounds)),
                ("acked_writes", Json::from(total_acked)),
                ("lost_acked_writes", Json::from(total_lost)),
                ("personalize_mismatches", Json::from(total_mismatches)),
                ("rounds_detail", Json::Arr(round_docs)),
            ]),
        ),
        (
            "routing",
            Json::obj(vec![
                ("divergent", divergent.to_json()),
                ("uniform", uniform.to_json()),
                ("divergent_hit_rate", Json::from(divergent.cache_hit_rate())),
                ("uniform_hit_rate", Json::from(uniform.cache_hit_rate())),
                (
                    "hit_rate_advantage",
                    Json::from(divergent.cache_hit_rate() - uniform.cache_hit_rate()),
                ),
                ("divergent_rps", Json::from(divergent.requests_per_sec)),
                ("uniform_rps", Json::from(uniform.requests_per_sec)),
            ]),
        ),
        (
            "ring",
            Json::obj(vec![
                ("groups", Json::from(4u64)),
                ("keys", Json::from(10_000u64)),
                ("min_load", Json::from(min as u64)),
                ("max_load", Json::from(max as u64)),
                ("load_ratio", Json::from(max as f64 / min.max(1) as f64)),
            ]),
        ),
    ];
    let _ = std::fs::remove_dir_all(&root);
    println!();
    vec![Output::Bench("cluster", doc)]
}

/// Writes `user`'s profile through `addr`; a 200 records the ack (version
/// and epoch from the response body) into `log`. Transport errors and
/// refusals return normally — in a partition schedule only acks count.
fn partition_acked_write(
    addr: SocketAddr,
    user: &str,
    log: &cqp_cluster::AckLog,
) -> std::io::Result<ClientResponse> {
    let text = profile_wire(user, "comedy", 1990);
    let resp = http(addr, "POST", &format!("/profiles/{user}"), &[], Some(&text))?;
    if resp.status == 200 {
        let body = cqp_server::json::parse(&resp.body_text())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let version = body.get("version").and_then(Json::as_u64).unwrap_or(0);
        let epoch = body.get("epoch").and_then(Json::as_u64).unwrap_or(0);
        log.record(user, version, epoch, &text);
    }
    Ok(resp)
}

/// Polls `f` until it returns true or `timeout` elapses.
fn partition_wait(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < timeout {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

/// A replica's `/healthz/ready` role, read directly ("?" on any failure).
fn partition_role(addr: SocketAddr) -> String {
    http(addr, "GET", "/healthz/ready", &[], None)
        .ok()
        .and_then(|resp| cqp_server::json::parse(&resp.body_text()).ok())
        .and_then(|j| j.get("role").and_then(|r| r.as_str().map(str::to_string)))
        .unwrap_or_else(|| "?".to_string())
}

/// Outcome of one partition leg: the checker verdict plus leg counters.
struct PartitionLeg {
    acked: u64,
    fenced_write_rejections: u64,
    report: cqp_cluster::ConsistencyReport,
    detail: Json,
}

/// The split-brain schedule: partition the primary (HTTP and repl at
/// once), let the router promote the follower at a higher epoch, write
/// through both faces of the brain, heal, and run the checker. Every
/// write the stale face refuses with `stale_epoch` counts as a fenced
/// rejection — the number the shape gate requires to be positive.
fn partition_split_brain_leg(root: &Path, seed: u64) -> PartitionLeg {
    use cqp_cluster::nemesis::Fault;
    use cqp_cluster::{check, AckLog, Cluster, ClusterConfig, ReplicaDump};

    let mut cluster =
        Cluster::start(ClusterConfig::with_nemesis(1, root.join("split"))).expect("cluster start");
    let router_addr = cluster.router.addr();
    let acks = AckLog::new();
    let users: Vec<String> = (0..6).map(|i| format!("user{i:03}")).collect();
    for user in &users {
        let resp = partition_acked_write(router_addr, user, &acks).expect("healthy write");
        assert_eq!(resp.status, 200, "{}", resp.body_text());
    }

    {
        let nemesis = cluster.groups[0].nemesis.as_ref().expect("nemesis cluster");
        nemesis.primary_http.set_fault(Fault::Partition);
        nemesis.repl.set_fault(Fault::Partition);
    }
    let promoted = partition_wait(Duration::from_secs(20), || {
        http(router_addr, "GET", "/router/stats", &[], None)
            .ok()
            .and_then(|s| cqp_server::json::parse(&s.body_text()).ok())
            .and_then(|j| j.get("failovers").and_then(Json::as_u64))
            .is_some_and(|n| n >= 1)
    });
    assert!(promoted, "router never failed over the partitioned primary");
    for user in &users {
        let ok = partition_wait(Duration::from_secs(10), || {
            partition_acked_write(router_addr, user, &acks)
                .map(|r| r.status == 200)
                .unwrap_or(false)
        });
        assert!(ok, "{user}: healthy side of the brain must accept writes");
    }

    // The stale face: clients on the old primary's side of the partition
    // reach it directly. The first write carrying the new epoch fences
    // it; every refusal is what the experiment exists to count.
    let old_primary = cluster.groups[0].primary.addr();
    let stats = http(router_addr, "GET", "/router/stats", &[], None).expect("router stats");
    let new_epoch = cqp_server::json::parse(&stats.body_text())
        .ok()
        .and_then(|j| j.get("groups")?.as_array()?.first()?.get("epoch")?.as_u64())
        .expect("router stats expose the group epoch");
    assert!(new_epoch >= 1, "failover must bump the epoch");
    let epoch_header = new_epoch.to_string();
    let mut fenced_write_rejections = 0u64;
    let mut stale_acks = 0u64;
    for user in &users {
        let text = format!("# cqp-profile v1\nprofile {user}\nselect 0.5 MOVIE.year ge 2000\n");
        let resp = http(
            old_primary,
            "POST",
            &format!("/profiles/{user}"),
            &[("x-cqp-epoch", &epoch_header)],
            Some(&text),
        )
        .expect("old primary reachable directly");
        if resp.status == 503 {
            fenced_write_rejections += 1;
        } else if resp.status == 200 {
            stale_acks += 1;
        }
    }
    assert_eq!(stale_acks, 0, "the stale face acknowledged a write");
    let fenced_role = partition_role(old_primary);
    assert_eq!(fenced_role, "fenced", "old primary must end up fenced");

    {
        let nemesis = cluster.groups[0].nemesis.as_ref().expect("nemesis cluster");
        nemesis.primary_http.heal();
        nemesis.repl.heal();
    }
    let healed = partition_wait(Duration::from_secs(10), || {
        partition_acked_write(router_addr, &users[0], &acks)
            .map(|r| r.status == 200)
            .unwrap_or(false)
    });
    assert!(
        healed,
        "cluster never healed after the split-brain schedule"
    );

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
    let snapshot = acks.snapshot();
    let report = check(&snapshot, &dumps);
    println!(
        "split brain: {} acked writes, {} fenced rejections, epoch {new_epoch} — \
         lost {}  divergent {}  order violations {}",
        snapshot.len(),
        fenced_write_rejections,
        report.lost_acked_writes,
        report.split_brain_divergence,
        report.order_violations
    );
    cluster.stop();
    let detail = Json::obj(vec![
        ("schedule", Json::Str("split_brain".into())),
        ("seed", Json::from(seed)),
        ("failover_epoch", Json::from(new_epoch)),
        ("checker", report.to_json()),
    ]);
    PartitionLeg {
        acked: snapshot.len() as u64,
        fenced_write_rejections,
        report,
        detail,
    }
}

/// The churn schedule: a seeded [`NemesisPlan`] timeline (partitions,
/// delays, connection drops) flaps the primary's HTTP link while writes
/// race it best-effort; after the plan drains and the links heal, the
/// checker audits every ack that made it through.
///
/// [`NemesisPlan`]: cqp_cluster::NemesisPlan
fn partition_churn_leg(root: &Path, seed: u64) -> PartitionLeg {
    use cqp_cluster::{check, AckLog, Cluster, ClusterConfig, NemesisPlan, ReplicaDump};

    let mut cluster =
        Cluster::start(ClusterConfig::with_nemesis(1, root.join("churn"))).expect("cluster start");
    let router_addr = cluster.router.addr();
    let acks = AckLog::new();
    let users: Vec<String> = (0..4).map(|i| format!("user{i:03}")).collect();
    for user in &users {
        let resp = partition_acked_write(router_addr, user, &acks).expect("healthy write");
        assert_eq!(resp.status, 200, "{}", resp.body_text());
    }

    let plan = NemesisPlan::seeded(seed, 8, 40);
    {
        let nemesis = cluster.groups[0].nemesis.as_mut().expect("nemesis cluster");
        nemesis.primary_http.run_plan(plan);
    }
    let mut attempted = 0u64;
    for _round in 0..8 {
        for user in &users {
            attempted += 1;
            let _ = partition_acked_write(router_addr, user, &acks);
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    {
        let nemesis = cluster.groups[0].nemesis.as_mut().expect("nemesis cluster");
        nemesis.primary_http.join_plan();
        nemesis.primary_http.heal();
        nemesis.repl.heal();
    }
    let healed = partition_wait(Duration::from_secs(10), || {
        partition_acked_write(router_addr, &users[0], &acks)
            .map(|r| r.status == 200)
            .unwrap_or(false)
    });
    assert!(healed, "cluster never healed after the churn plan");

    let catalog = cluster.db().catalog().clone();
    let dumps: Vec<ReplicaDump> = [
        ("g0/primary", &cluster.groups[0].primary),
        ("g0/follower", &cluster.groups[0].follower),
    ]
    .into_iter()
    .map(|(name, server)| ReplicaDump {
        name: name.into(),
        fenced: partition_role(server.addr()) == "fenced",
        sessions: server.state().store.dump(&catalog),
    })
    .collect();
    let snapshot = acks.snapshot();
    let report = check(&snapshot, &dumps);
    println!(
        "churn: {} acked writes ({attempted} raced the seeded plan) — \
         lost {}  divergent {}  order violations {}",
        snapshot.len(),
        report.lost_acked_writes,
        report.split_brain_divergence,
        report.order_violations
    );
    cluster.stop();
    let detail = Json::obj(vec![
        ("schedule", Json::Str("seeded_churn".into())),
        ("seed", Json::from(seed)),
        ("attempted_writes", Json::from(attempted)),
        ("checker", report.to_json()),
    ]);
    PartitionLeg {
        acked: snapshot.len() as u64,
        fenced_write_rejections: 0,
        report,
        detail,
    }
}

/// `reproduce partition` — the partition-tolerance audit. Two seeded
/// schedules against a nemesis-fronted in-process cluster:
///
/// 1. **Split brain** — partition the primary, promote the follower at a
///    higher epoch, write through both faces, heal. The stale face must
///    refuse every write with `stale_epoch` (counted as
///    `fenced_write_rejections`) and the checker must find zero lost
///    acked writes and zero divergent `(user, version)` slots.
/// 2. **Seeded churn** — a deterministic nemesis timeline flaps the
///    primary's HTTP link under a best-effort write load; every ack that
///    made it through must survive.
///
/// Emits `BENCH_partition.json` in `out`; its
/// top-level `lost_acked_writes`, `split_brain_divergence`, and
/// `fenced_write_rejections` fields are CI's shape gate.
fn partition_experiment(c: &Ctx) -> Vec<Output> {
    println!("--- partition: split-brain fencing + seeded churn audit ---");
    let seed = 0xC0FFEE_u64;
    let root = c.out.join("partition-wal");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("partition wal root");

    let split = partition_split_brain_leg(&root, seed);
    let churn = partition_churn_leg(&root, seed);

    let lost = split.report.lost_acked_writes + churn.report.lost_acked_writes;
    let divergence = split.report.split_brain_divergence + churn.report.split_brain_divergence;
    let order = split.report.order_violations + churn.report.order_violations;
    let fenced = split.fenced_write_rejections + churn.fenced_write_rejections;
    assert_eq!(lost, 0, "acked writes lost across partition schedules");
    assert_eq!(divergence, 0, "split brain merged divergent state");
    assert_eq!(order, 0, "acked order not linearizable");
    assert!(
        fenced > 0,
        "no write ever hit the fence — schedule is vacuous"
    );

    let doc = vec![
        ("seed", Json::from(seed)),
        ("acked_writes", Json::from(split.acked + churn.acked)),
        ("lost_acked_writes", Json::from(lost as u64)),
        ("split_brain_divergence", Json::from(divergence as u64)),
        ("order_violations", Json::from(order as u64)),
        ("fenced_write_rejections", Json::from(fenced)),
        ("schedules", Json::Arr(vec![split.detail, churn.detail])),
    ];
    let _ = std::fs::remove_dir_all(&root);
    println!();
    vec![Output::Bench("partition", doc)]
}
