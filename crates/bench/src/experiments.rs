//! One function per table/figure of the paper's evaluation (Section 7),
//! plus the ablations called out in DESIGN.md.
//!
//! Every function returns plain row structs together with their
//! [`RunReport`] lines, so the `reproduce` binary can write each table as
//! CSV (through [`CsvRow`]) next to its run reports. All averages
//! follow the paper's methodology: each data point is the mean over the
//! workload's profile × query pairs.
//!
//! Figures 12(a)/(c), 13(a)/(b), 14(a)/(b) and the generic-baseline
//! ablation apply one design: for each sweep point (`K`, or `cmax` as a
//! percentage of Supreme Cost) and each algorithm, average one measurement
//! over the pairs. Each of those data points is a [`Cell`], and one
//! pool-backed `sweep` runs them all.

use crate::harness::{span_secs, supreme_cost_blocks, timed_span, Workload};
use cqp_core::algorithms::{generic, solve_p2, solve_p2_recorded, Algorithm, Solution};
use cqp_core::construct::construct;
use cqp_core::{general_solve, ProblemSpec};
use cqp_engine::CostModel;
use cqp_obs::{Obs, Recorder, RunReport};
use cqp_par::ThreadPool;
use cqp_prefs::{ConjModel, Doi};
use cqp_prefspace::PreferenceSpace;
use cqp_storage::IoMeter;
use std::sync::Arc;

/// The algorithms of Figure 12, in the paper's legend order.
pub const FIG12_ALGORITHMS: [Algorithm; 5] = [
    Algorithm::DMaxDoi,
    Algorithm::DSingleMaxDoi,
    Algorithm::CBoundaries,
    Algorithm::CMaxBounds,
    Algorithm::DHeurDoi,
];

/// The heuristic algorithms evaluated for quality in Figure 14.
pub const FIG14_ALGORITHMS: [Algorithm; 3] = [
    Algorithm::DHeurDoi,
    Algorithm::CMaxBounds,
    Algorithm::DSingleMaxDoi,
];

/// One row of an experiment's CSV table.
pub trait CsvRow {
    /// The table's header line.
    const HEADER: &'static str;
    /// This row as one CSV line.
    fn csv(&self) -> String;
}

/// A time measurement for one algorithm at one sweep position.
#[derive(Debug, Clone)]
pub struct AlgoTimeRow {
    /// Sweep position (`K`, or % of Supreme Cost).
    pub x: f64,
    /// Algorithm name (paper legend spelling).
    pub algorithm: &'static str,
    /// Mean wall-clock seconds per run.
    pub seconds: f64,
    /// Mean states examined (machine-independent work measure).
    pub states: f64,
}

impl CsvRow for AlgoTimeRow {
    const HEADER: &'static str = "x,algorithm,seconds,states";
    fn csv(&self) -> String {
        format!(
            "{},{},{:.9},{:.1}",
            self.x, self.algorithm, self.seconds, self.states
        )
    }
}

/// A memory measurement (Figure 13).
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Sweep position (`K`, or % of Supreme Cost).
    pub x: f64,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Mean peak tracked memory in KBytes.
    pub kbytes: f64,
}

impl CsvRow for MemoryRow {
    const HEADER: &'static str = "x,algorithm,kbytes";
    fn csv(&self) -> String {
        format!("{},{},{:.4}", self.x, self.algorithm, self.kbytes)
    }
}

/// A quality measurement (Figure 14): `doi_optimal − doi_found`.
#[derive(Debug, Clone)]
pub struct QualityRow {
    /// Sweep position (`K`, or % of Supreme Cost).
    pub x: f64,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Mean quality gap (the paper plots this ×10⁷).
    pub quality_gap: f64,
}

impl CsvRow for QualityRow {
    const HEADER: &'static str = "x,algorithm,quality_gap";
    fn csv(&self) -> String {
        format!("{},{},{:.12}", self.x, self.algorithm, self.quality_gap)
    }
}

/// A preference-selection timing (Figure 12(b)).
#[derive(Debug, Clone)]
pub struct PrefSelRow {
    /// Number of preferences `K`.
    pub k: usize,
    /// `D_PrefSelTime` (doi order only) or `C_PrefSelTime` (all vectors).
    pub variant: &'static str,
    /// Mean wall-clock seconds.
    pub seconds: f64,
}

impl CsvRow for PrefSelRow {
    const HEADER: &'static str = "k,variant,seconds";
    fn csv(&self) -> String {
        format!("{},{},{:.9}", self.k, self.variant, self.seconds)
    }
}

/// A cost-model validation point (Figure 15).
#[derive(Debug, Clone)]
pub struct CostModelRow {
    /// Number of preferences integrated.
    pub k: usize,
    /// Estimated execution time, ms (Formula 11 with `b = 1 ms`).
    pub estimated_ms: f64,
    /// Measured execution time, ms (simulated I/O + actual CPU).
    pub real_ms: f64,
}

impl CsvRow for CostModelRow {
    const HEADER: &'static str = "k,estimated_ms,real_ms";
    fn csv(&self) -> String {
        format!("{},{:.3},{:.3}", self.k, self.estimated_ms, self.real_ms)
    }
}

/// One solved problem of Table 1.
#[derive(Debug, Clone)]
pub struct ProblemRow {
    /// Problem number (1–6).
    pub problem: usize,
    /// Human-readable spec.
    pub spec: String,
    /// Whether a feasible personalization was found.
    pub found: bool,
    /// Solution doi.
    pub doi: f64,
    /// Solution cost in ms.
    pub cost_ms: f64,
    /// Solution estimated size in rows.
    pub size_rows: f64,
    /// Number of preferences selected.
    pub prefs: usize,
    /// Whether the state-space answer matches exact branch-and-bound.
    pub matches_exact: bool,
}

impl CsvRow for ProblemRow {
    const HEADER: &'static str = "problem,spec,found,doi,cost_ms,size_rows,prefs,matches_exact";
    fn csv(&self) -> String {
        format!(
            "{},\"{}\",{},{:.6},{:.1},{:.2},{},{}",
            self.problem,
            self.spec,
            self.found,
            self.doi,
            self.cost_ms,
            self.size_rows,
            self.prefs,
            self.matches_exact
        )
    }
}

/// A cost-model robustness point: one block capacity.
#[derive(Debug, Clone)]
pub struct BlockSizeRow {
    /// Tuples per block.
    pub block_capacity: usize,
    /// Estimated execution time of the all-K personalized query (ms).
    pub estimated_ms: f64,
    /// Simulated I/O actually charged by the executor (ms).
    pub measured_io_ms: f64,
    /// Quality gap of C-MAXBOUNDS vs the exact optimum at 50% Supreme.
    pub heuristic_gap: f64,
}

impl CsvRow for BlockSizeRow {
    const HEADER: &'static str = "block_capacity,estimated_ms,measured_io_ms,heuristic_gap";
    fn csv(&self) -> String {
        format!(
            "{},{:.3},{:.3},{:.9}",
            self.block_capacity, self.estimated_ms, self.measured_io_ms, self.heuristic_gap
        )
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How far `found` falls short of the `optimal` doi (never negative).
fn gap(optimal: &Solution, found: &Solution) -> f64 {
    (optimal.doi.value() - found.doi.value()).max(0.0)
}

/// Pre-extracts the spaces of every pair at a given `K` (shared across
/// algorithms so extraction cost doesn't pollute search timings).
pub fn spaces_at_k(w: &Workload, k: usize) -> Vec<PreferenceSpace> {
    w.pairs().map(|(p, q)| w.space(p, q, k, true).0).collect()
}

/// One recorded solver run under a shared cell `Obs`. The root span is the
/// algorithm name, so the delta of its folded total is this run's wall
/// seconds — timing and metrics come from the same instrument.
fn solve_timed(
    obs: &Obs,
    space: &PreferenceSpace,
    conj: ConjModel,
    cmax: u64,
    algo: Algorithm,
) -> (Solution, f64) {
    let before = span_secs(obs, algo.name());
    let sol = solve_p2_recorded(space, conj, cmax, algo, obs);
    (sol, span_secs(obs, algo.name()) - before)
}

/// One `(sweep point, algorithm)` data point of Figures 12–14.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Preferences extracted per pair.
    pub k: usize,
    /// The budget: `None` binds the scale's rule
    /// ([`crate::Scale::cmax_for`]), `Some(p)` binds `p`% of each space's
    /// Supreme Cost.
    pub percent: Option<u32>,
    /// The algorithm solved at this point.
    pub algorithm: Algorithm,
}

impl Cell {
    /// The K sweep: for each `k` in order, one cell per algorithm that
    /// `algorithms(k)` lists, at the scale's budget.
    pub fn k_sweep(ks: &[usize], algorithms: impl Fn(usize) -> Vec<Algorithm>) -> Vec<Cell> {
        ks.iter()
            .flat_map(|&k| {
                algorithms(k).into_iter().map(move |algorithm| Cell {
                    k,
                    percent: None,
                    algorithm,
                })
            })
            .collect()
    }

    /// The cmax sweep at fixed `k`: for each percent of Supreme Cost in
    /// order, one cell per algorithm.
    pub fn percent_sweep(k: usize, percents: &[u32], algorithms: &[Algorithm]) -> Vec<Cell> {
        percents
            .iter()
            .flat_map(|&pct| {
                algorithms.iter().map(move |&algorithm| Cell {
                    k,
                    percent: Some(pct),
                    algorithm,
                })
            })
            .collect()
    }

    /// The row's x value: the percent on a cmax sweep, else `K`.
    fn x(&self) -> f64 {
        self.percent.map_or(self.k as f64, f64::from)
    }

    /// This cell's budget on one space.
    fn cmax(&self, w: &Workload, space: &PreferenceSpace) -> u64 {
        match self.percent {
            Some(pct) => supreme_cost_blocks(space) * pct as u64 / 100,
            None => w.scale.cmax_for(space),
        }
    }
}

/// Runs every cell on a `threads`-wide work-stealing pool (one thread runs
/// inline). Each distinct `K`'s spaces are extracted once and shared by
/// that `K`'s cells. Each cell gets a fresh [`Obs`]: `measure` runs on
/// every space at the cell's budget, and `finish` turns the per-component
/// means into the cell's row and completes its report, which arrives
/// labelled with the algorithm and carrying `percent_supreme` (on a cmax
/// sweep) and `k`. Rows and reports come back in cell order.
fn sweep<const N: usize, R: Send>(
    w: &Workload,
    experiment: &str,
    cells: &[Cell],
    threads: usize,
    measure: impl Fn(&Obs, &PreferenceSpace, u64, Algorithm) -> [f64; N] + Sync,
    finish: impl Fn(&Cell, [f64; N], RunReport) -> (R, RunReport) + Sync,
) -> (Vec<R>, Vec<RunReport>) {
    let pool = ThreadPool::new(threads);
    let mut ks: Vec<usize> = Vec::new();
    for cell in cells {
        if !ks.contains(&cell.k) {
            ks.push(cell.k);
        }
    }
    let spaces_by_k: Vec<Vec<PreferenceSpace>> = pool.map(ks.clone(), |_, k| spaces_at_k(w, k));
    pool.map(cells.to_vec(), |_, cell| {
        let ki = ks
            .iter()
            .position(|&k| k == cell.k)
            .expect("every K is extracted");
        let spaces = &spaces_by_k[ki];
        let obs = Obs::new();
        let samples: Vec<[f64; N]> = spaces
            .iter()
            .map(|space| measure(&obs, space, cell.cmax(w, space), cell.algorithm))
            .collect();
        let means =
            std::array::from_fn(|i| mean(&samples.iter().map(|s| s[i]).collect::<Vec<_>>()));
        let mut report = RunReport::from_obs(experiment, cell.algorithm.name(), &obs);
        if let Some(pct) = cell.percent {
            report = report.with_field("percent_supreme", pct as u64);
        }
        finish(&cell, means, report.with_field("k", cell.k as u64))
    })
    .into_iter()
    .unzip()
}

/// Mean solve seconds and states per cell (Figures 12(a) and 12(c)).
fn time_sweep(
    w: &Workload,
    experiment: &str,
    cells: &[Cell],
    threads: usize,
) -> (Vec<AlgoTimeRow>, Vec<RunReport>) {
    sweep(
        w,
        experiment,
        cells,
        threads,
        |obs, space, cmax, algorithm| {
            let (sol, secs) = solve_timed(obs, space, ConjModel::NoisyOr, cmax, algorithm);
            [secs, sol.instrument.states_examined as f64]
        },
        |cell, [seconds, states], report| {
            let row = AlgoTimeRow {
                x: cell.x(),
                algorithm: cell.algorithm.name(),
                seconds,
                states,
            };
            let report = report
                .with_field("runs", w.num_pairs() as u64)
                .with_field("mean_seconds", seconds);
            (row, report)
        },
    )
}

/// Figure 12(a): CQP optimization time as a function of `K`.
pub fn fig12a(w: &Workload, cells: &[Cell], threads: usize) -> (Vec<AlgoTimeRow>, Vec<RunReport>) {
    time_sweep(w, "fig12a", cells, threads)
}

/// Figures 12(c)/(d): optimization time as a function of `cmax`, expressed
/// as a percentage of each space's Supreme Cost, at fixed `K`.
pub fn fig12c(w: &Workload, cells: &[Cell], threads: usize) -> (Vec<AlgoTimeRow>, Vec<RunReport>) {
    time_sweep(w, "fig12c", cells, threads)
}

/// Mean peak tracked memory per cell (Figure 13); each report's
/// `solver.peak_bytes` histogram holds min/mean/max peaks over the cell's
/// runs.
fn memory_sweep(
    w: &Workload,
    experiment: &str,
    cells: &[Cell],
    threads: usize,
) -> (Vec<MemoryRow>, Vec<RunReport>) {
    sweep(
        w,
        experiment,
        cells,
        threads,
        |obs, space, cmax, algorithm| {
            let sol = solve_p2_recorded(space, ConjModel::NoisyOr, cmax, algorithm, obs);
            [sol.instrument.peak_kbytes()]
        },
        |cell, [kbytes], report| {
            let row = MemoryRow {
                x: cell.x(),
                algorithm: cell.algorithm.name(),
                kbytes,
            };
            let report = report
                .with_field("runs", w.num_pairs() as u64)
                .with_field("mean_kbytes", kbytes);
            (row, report)
        },
    )
}

/// Figure 13(a): peak memory as a function of `K`.
pub fn fig13a(w: &Workload, cells: &[Cell], threads: usize) -> (Vec<MemoryRow>, Vec<RunReport>) {
    memory_sweep(w, "fig13a", cells, threads)
}

/// Figure 13(b): peak memory as a function of `cmax` (% of Supreme Cost).
pub fn fig13b(w: &Workload, cells: &[Cell], threads: usize) -> (Vec<MemoryRow>, Vec<RunReport>) {
    memory_sweep(w, "fig13b", cells, threads)
}

/// Mean quality gap per cell against C-BOUNDARIES (Figure 14). Only the
/// heuristic under evaluation is recorded; the reference runs unrecorded
/// so its counters don't pollute the cell.
fn quality_sweep(
    w: &Workload,
    experiment: &str,
    cells: &[Cell],
    conj: ConjModel,
    threads: usize,
) -> (Vec<QualityRow>, Vec<RunReport>) {
    sweep(
        w,
        experiment,
        cells,
        threads,
        |obs, space, cmax, algorithm| {
            let optimal = solve_p2(space, conj, cmax, Algorithm::CBoundaries);
            let found = solve_p2_recorded(space, conj, cmax, algorithm, obs);
            [gap(&optimal, &found)]
        },
        |cell, [quality_gap], report| {
            let row = QualityRow {
                x: cell.x(),
                algorithm: cell.algorithm.name(),
                quality_gap,
            };
            let report = report
                .with_field("conj", format!("{conj:?}"))
                .with_field("runs", w.num_pairs() as u64)
                .with_field("mean_gap", quality_gap);
            (row, report)
        },
    )
}

/// Figure 14(a): quality gap vs `K`.
pub fn fig14a(
    w: &Workload,
    cells: &[Cell],
    conj: ConjModel,
    threads: usize,
) -> (Vec<QualityRow>, Vec<RunReport>) {
    quality_sweep(w, "fig14a", cells, conj, threads)
}

/// Figure 14(b): quality gap vs `cmax` (% of Supreme Cost) at fixed `K`.
pub fn fig14b(
    w: &Workload,
    cells: &[Cell],
    conj: ConjModel,
    threads: usize,
) -> (Vec<QualityRow>, Vec<RunReport>) {
    quality_sweep(w, "fig14b", cells, conj, threads)
}

/// Ablation: the paper's specialized algorithms vs the generic baselines
/// (simulated annealing, tabu, genetic) on time and quality at fixed `K`,
/// one report per algorithm.
pub fn ablation_generic(
    w: &Workload,
    k: usize,
    threads: usize,
) -> (Vec<(AlgoTimeRow, QualityRow)>, Vec<RunReport>) {
    let cells = Cell::k_sweep(&[k], |_| {
        vec![
            Algorithm::CBoundaries,
            Algorithm::CMaxBounds,
            Algorithm::DHeurDoi,
            Algorithm::BranchBound,
            Algorithm::Annealing,
            Algorithm::Tabu,
            Algorithm::Genetic,
        ]
    });
    sweep(
        w,
        "ablation_generic",
        &cells,
        threads,
        |obs, space, cmax, algorithm| {
            let optimal = solve_p2(space, ConjModel::NoisyOr, cmax, Algorithm::CBoundaries);
            let (sol, secs) = solve_timed(obs, space, ConjModel::NoisyOr, cmax, algorithm);
            [
                secs,
                sol.instrument.states_examined as f64,
                gap(&optimal, &sol),
            ]
        },
        |cell, [seconds, states, quality_gap], report| {
            let (x, algorithm) = (cell.x(), cell.algorithm.name());
            let rows = (
                AlgoTimeRow {
                    x,
                    algorithm,
                    seconds,
                    states,
                },
                QualityRow {
                    x,
                    algorithm,
                    quality_gap,
                },
            );
            let report = report
                .with_field("runs", w.num_pairs() as u64)
                .with_field("mean_seconds", seconds)
                .with_field("mean_gap", quality_gap);
            (rows, report)
        },
    )
}

/// Ablation: quality gaps under alternative conjunction models `r`
/// (Section 7.2.3's remark that a different model "would still exhibit the
/// same growing trends but might have resulted in larger differences").
/// Each model reruns Figure 14(a), so its report lines keep `fig14a` as
/// their experiment tag, qualified by the `conj` field. Only `Max` and
/// `Quadrature` run: the noisy-or row is Figure 14(a) itself
/// (`fig14a.csv`), which this would only recompute.
pub fn ablation_doi_model(
    w: &Workload,
    ks: &[usize],
    threads: usize,
) -> Vec<(String, Vec<QualityRow>, Vec<RunReport>)> {
    let cells = Cell::k_sweep(ks, |_| FIG14_ALGORITHMS.to_vec());
    [ConjModel::Max, ConjModel::Quadrature]
        .into_iter()
        .map(|conj| {
            let (rows, reports) = fig14a(w, &cells, conj, threads);
            (format!("{conj:?}"), rows, reports)
        })
        .collect()
}

/// Figure 12(b): Preference-Space module time as a function of `K`, for
/// doi-only output (`D_PrefSelTime`) vs full `D`/`C`/`S` output
/// (`C_PrefSelTime`), one report per (K, variant).
pub fn fig12b(w: &Workload, ks: &[usize]) -> (Vec<PrefSelRow>, Vec<RunReport>) {
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for &k in ks {
        for (variant, with_cost) in [("D_PrefSelTime", false), ("C_PrefSelTime", true)] {
            let obs = Obs::new();
            let mut secs = Vec::new();
            for (p, q) in w.pairs() {
                let (_, t) = w.space_recorded(p, q, k, with_cost, &obs);
                secs.push(t);
            }
            rows.push(PrefSelRow {
                k,
                variant,
                seconds: mean(&secs),
            });
            reports.push(
                RunReport::from_obs("fig12b", variant, &obs)
                    .with_field("k", k as u64)
                    .with_field("runs", w.num_pairs() as u64)
                    .with_field("mean_seconds", mean(&secs)),
            );
        }
    }
    (rows, reports)
}

/// Figure 15: estimated vs measured execution time of the personalized
/// query integrating all `K` extracted preferences, one report per `K`.
///
/// "Estimated" is the paper's Formula 11 (`b × Σ blocks`); "measured"
/// executes the constructed union/having query on the engine, charging the
/// same `b` per block actually read and adding the real CPU time — the
/// residual gap is exactly the group-by/union work the model neglects.
/// The executor and the I/O meter feed the cell `Obs`, so each report
/// carries the engine scan counters and the physical
/// `storage.blocks_read` totals.
pub fn fig15(w: &Workload, ks: &[usize]) -> (Vec<CostModelRow>, Vec<RunReport>) {
    let model = CostModel::new(&w.stats);
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for &k in ks {
        let obs = Arc::new(Obs::new());
        let mut est = Vec::new();
        let mut real = Vec::new();
        for (p, q) in w.pairs() {
            let (space, _) = w.space_recorded(p, q, k, true, &obs);
            let all: Vec<usize> = (0..space.k()).collect();
            let pq = construct(q, &space, &all).expect("extracted spaces carry paths");
            est.push(model.personalized_ms(&pq));
            let meter =
                IoMeter::with_recorder(model.ms_per_block(), Arc::clone(&obs) as Arc<dyn Recorder>);
            let before = span_secs(&obs, "engine.execute_personalized");
            cqp_engine::execute_personalized_recorded(&w.db, &pq, &meter, &*obs)
                .expect("workload queries execute");
            let cpu_secs = span_secs(&obs, "engine.execute_personalized") - before;
            real.push(meter.elapsed_ms() + cpu_secs * 1000.0);
        }
        rows.push(CostModelRow {
            k,
            estimated_ms: mean(&est),
            real_ms: mean(&real),
        });
        reports.push(
            RunReport::from_obs("fig15", "all-K personalized query", &obs)
                .with_field("k", k as u64)
                .with_field("runs", w.num_pairs() as u64)
                .with_field("mean_estimated_ms", mean(&est))
                .with_field("mean_real_ms", mean(&real)),
        );
    }
    (rows, reports)
}

/// Table 1: solve all six CQP problems on the workload's first pair and
/// check each against exact branch-and-bound. One report covers the whole
/// table: each problem solves inside its own `p<N>` span and flushes its
/// transition counters to the shared registry.
pub fn table1(w: &Workload, k: usize) -> (Vec<ProblemRow>, Vec<RunReport>) {
    const PROBLEM_SPANS: [&str; 6] = ["p1", "p2", "p3", "p4", "p5", "p6"];
    let obs = Obs::new();
    let (p, q) = w.pairs().next().expect("non-empty workload");
    let (space, _) = w.space_recorded(p, q, k, true, &obs);
    let base_rows = space.base_rows;
    let cmax = w.scale.cmax_for(&space);
    let smin = 1.0;
    let smax = (base_rows * 0.25).max(2.0);
    let dmin = Doi::new(0.5);

    let specs: Vec<(usize, String, ProblemSpec)> = vec![
        (
            1,
            format!("MAX doi s.t. {smin:.0} <= size <= {smax:.0}"),
            ProblemSpec::p1(smin, smax),
        ),
        (
            2,
            format!("MAX doi s.t. cost <= {cmax}"),
            ProblemSpec::p2(cmax),
        ),
        (
            3,
            format!("MAX doi s.t. cost <= {cmax}, {smin:.0} <= size <= {smax:.0}"),
            ProblemSpec::p3(cmax, smin, smax),
        ),
        (
            4,
            format!("MIN cost s.t. doi >= {dmin}"),
            ProblemSpec::p4(dmin),
        ),
        (
            5,
            format!("MIN cost s.t. doi >= {dmin}, {smin:.0} <= size <= {smax:.0}"),
            ProblemSpec::p5(dmin, smin, smax),
        ),
        (
            6,
            format!("MIN cost s.t. {smin:.0} <= size <= {smax:.0}"),
            ProblemSpec::p6(smin, smax),
        ),
    ];

    let rows: Vec<ProblemRow> = specs
        .into_iter()
        .map(|(n, spec, problem)| {
            let (sol, _) = timed_span(&obs, PROBLEM_SPANS[n - 1], || {
                general_solve(&space, ConjModel::NoisyOr, &problem)
            });
            sol.instrument.flush_to(&obs);
            let exact =
                cqp_core::algorithms::branch_bound::solve(&space, ConjModel::NoisyOr, &problem);
            let matches_exact = sol.found == exact.found
                && match problem.objective {
                    cqp_core::Objective::MaxDoi => sol.doi == exact.doi,
                    cqp_core::Objective::MinCost => sol.cost_blocks == exact.cost_blocks,
                };
            ProblemRow {
                problem: n,
                spec,
                found: sol.found,
                doi: sol.doi.value(),
                cost_ms: sol.cost_blocks as f64,
                size_rows: sol.size_rows,
                prefs: sol.prefs.len(),
                matches_exact,
            }
        })
        .collect();
    let report = RunReport::from_obs("table1", "general_solve", &obs).with_field("k", k as u64);
    (rows, vec![report])
}

/// Ablation: generic-baseline tuning — how the annealing step budget
/// trades time for quality (supports the Related Work claim that generic
/// methods need far more work for comparable quality), one report per
/// budget.
pub fn ablation_annealing_budget(
    w: &Workload,
    k: usize,
    budgets: &[usize],
) -> (Vec<AlgoTimeRow>, Vec<RunReport>) {
    let spaces = spaces_at_k(w, k);
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for &steps in budgets {
        let obs = Obs::new();
        let mut secs = Vec::new();
        let mut gaps = Vec::new();
        for space in &spaces {
            let cmax = w.scale.cmax_for(space);
            let optimal = solve_p2(space, ConjModel::NoisyOr, cmax, Algorithm::CBoundaries);
            let cfg = generic::annealing::AnnealingConfig {
                steps,
                ..Default::default()
            };
            let (sol, t) = timed_span(&obs, "SimAnnealing", || {
                generic::annealing::solve_p2_with(space, ConjModel::NoisyOr, cmax, 0xC0FFEE, cfg)
            });
            sol.instrument.flush_to(&obs);
            secs.push(t);
            gaps.push(gap(&optimal, &sol));
        }
        rows.push(AlgoTimeRow {
            x: steps as f64,
            algorithm: "SimAnnealing",
            seconds: mean(&secs),
            states: mean(&gaps) * 1e7, // reuse: gap ×10⁷ in the states column
        });
        reports.push(
            RunReport::from_obs("ablation_annealing_budget", "SimAnnealing", &obs)
                .with_field("steps", steps as u64)
                .with_field("runs", spaces.len() as u64)
                .with_field("mean_seconds", mean(&secs))
                .with_field("mean_gap", mean(&gaps)),
        );
    }
    (rows, reports)
}

/// Ablation: the paper's cost model counts *blocks*, so its absolute
/// numbers scale with the page size — but the block-level identity
/// (estimate = blocks read) and the algorithms' relative behaviour must
/// hold at any capacity. Sweeps the tuples-per-block knob, asserting the
/// identity at each, with one report per capacity: the executor feeds the
/// cell `Obs`, so `storage.blocks_read` shrinks as the block grows while
/// the row counters stay put.
pub fn ablation_block_size(capacities: &[usize], k: usize) -> (Vec<BlockSizeRow>, Vec<RunReport>) {
    capacities
        .iter()
        .map(|&cap| {
            let obs = Arc::new(Obs::new());
            let scale = crate::harness::Scale {
                db: cqp_datagen::MovieDbConfig {
                    block_capacity: cap,
                    ..cqp_datagen::MovieDbConfig::tiny(42)
                },
                profiles: 1,
                queries: 1,
                cmax_blocks: 0,
                cmax_supreme_frac: Some(0.5),
                name: "block-size-ablation",
            };
            let w = crate::harness::build_workload(&scale);
            let (p, q) = w.pairs().next().expect("non-empty workload");
            let (space, _) = w.space_recorded(p, q, k, true, &obs);
            let model = CostModel::new(&w.stats);
            let all: Vec<usize> = (0..space.k()).collect();
            let pq = construct(q, &space, &all).expect("extracted spaces carry paths");
            let meter =
                IoMeter::with_recorder(model.ms_per_block(), Arc::clone(&obs) as Arc<dyn Recorder>);
            cqp_engine::execute_personalized_recorded(&w.db, &pq, &meter, &*obs)
                .expect("workload queries execute");
            let cmax = w.scale.cmax_for(&space);
            let exact = solve_p2_recorded(
                &space,
                ConjModel::NoisyOr,
                cmax,
                Algorithm::CBoundaries,
                &*obs,
            );
            let heur = solve_p2_recorded(
                &space,
                ConjModel::NoisyOr,
                cmax,
                Algorithm::CMaxBounds,
                &*obs,
            );
            let row = BlockSizeRow {
                block_capacity: cap,
                estimated_ms: model.personalized_ms(&pq),
                measured_io_ms: meter.elapsed_ms(),
                heuristic_gap: gap(&exact, &heur),
            };
            assert!(
                (row.estimated_ms - row.measured_io_ms).abs() < 1e-9,
                "block-level identity must hold at every capacity"
            );
            let report = RunReport::from_obs("ablation_block_size", "block-capacity sweep", &obs)
                .with_field("block_capacity", cap as u64)
                .with_field("k", k as u64);
            (row, report)
        })
        .unzip()
}
