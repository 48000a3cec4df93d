//! One function per table/figure of the paper's evaluation (Section 7),
//! plus the ablations called out in DESIGN.md.
//!
//! Every function returns plain row structs so the `reproduce` binary can
//! print paper-style series and the CSV writer can persist them. All
//! averages follow the paper's methodology: each data point is the mean
//! over the workload's profile × query pairs.

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

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
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

/// Figure 12(a): CQP optimization time as a function of `K`.
pub fn fig12a(w: &Workload, ks: &[usize], algorithms: &[Algorithm]) -> Vec<AlgoTimeRow> {
    fig12a_reported(w, ks, algorithms, &mut Vec::new())
}

/// [`fig12a`] collecting one [`RunReport`] per (K, algorithm) cell.
pub fn fig12a_reported(
    w: &Workload,
    ks: &[usize],
    algorithms: &[Algorithm],
    reports: &mut Vec<RunReport>,
) -> Vec<AlgoTimeRow> {
    let mut rows = Vec::new();
    for &k in ks {
        let spaces = spaces_at_k(w, k);
        for &algo in algorithms {
            let obs = Obs::new();
            let mut secs = Vec::new();
            let mut states = Vec::new();
            for space in &spaces {
                let (sol, t) = solve_timed(
                    &obs,
                    space,
                    ConjModel::NoisyOr,
                    w.scale.cmax_for(space),
                    algo,
                );
                secs.push(t);
                states.push(sol.instrument.states_examined as f64);
            }
            rows.push(AlgoTimeRow {
                x: k as f64,
                algorithm: algo.name(),
                seconds: mean(&secs),
                states: mean(&states),
            });
            reports.push(
                RunReport::from_obs("fig12a", algo.name(), &obs)
                    .with_field("k", k as u64)
                    .with_field("runs", spaces.len() as u64)
                    .with_field("mean_seconds", mean(&secs)),
            );
        }
    }
    rows
}

/// Figure 12(b): Preference-Space module time as a function of `K`, for
/// doi-only output (`D_PrefSelTime`) vs full `D`/`C`/`S` output
/// (`C_PrefSelTime`).
pub fn fig12b(w: &Workload, ks: &[usize]) -> Vec<PrefSelRow> {
    fig12b_reported(w, ks, &mut Vec::new())
}

/// [`fig12b`] collecting one [`RunReport`] per (K, variant) cell.
pub fn fig12b_reported(
    w: &Workload,
    ks: &[usize],
    reports: &mut Vec<RunReport>,
) -> Vec<PrefSelRow> {
    let mut rows = Vec::new();
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
    rows
}

/// [`fig12a_reported`] with the `(K, algorithm)` grid cells fanned across a
/// work-stealing pool. `cells` fixes the row order (cells come back in
/// input order regardless of which worker ran them); each cell gets its own
/// [`Obs`], so cell timings and reports are attributed exactly as in the
/// sequential run. With `threads == 1` the pool inlines and this *is* the
/// sequential run.
pub fn fig12a_parallel(
    w: &Workload,
    cells: &[(usize, Algorithm)],
    threads: usize,
    reports: &mut Vec<RunReport>,
) -> Vec<AlgoTimeRow> {
    let pool = ThreadPool::new(threads);
    // Extract each distinct K's spaces once (shared across that K's cells),
    // itself fanned over the pool.
    let mut distinct_ks: Vec<usize> = Vec::new();
    for &(k, _) in cells {
        if !distinct_ks.contains(&k) {
            distinct_ks.push(k);
        }
    }
    let spaces_by_k: Vec<Vec<PreferenceSpace>> =
        pool.map(distinct_ks.clone(), |_, k| spaces_at_k(w, k));

    let out = pool.map(cells.to_vec(), |_, (k, algo)| {
        let ki = distinct_ks.iter().position(|&d| d == k).unwrap();
        let spaces = &spaces_by_k[ki];
        let obs = Obs::new();
        let mut secs = Vec::new();
        let mut states = Vec::new();
        for space in spaces {
            let (sol, t) = solve_timed(
                &obs,
                space,
                ConjModel::NoisyOr,
                w.scale.cmax_for(space),
                algo,
            );
            secs.push(t);
            states.push(sol.instrument.states_examined as f64);
        }
        let row = AlgoTimeRow {
            x: k as f64,
            algorithm: algo.name(),
            seconds: mean(&secs),
            states: mean(&states),
        };
        let report = RunReport::from_obs("fig12a", algo.name(), &obs)
            .with_field("k", k as u64)
            .with_field("runs", spaces.len() as u64)
            .with_field("mean_seconds", mean(&secs));
        (row, report)
    });
    let mut rows = Vec::new();
    for (row, report) in out {
        rows.push(row);
        reports.push(report);
    }
    rows
}

/// Figures 12(c)/(d): optimization time as a function of `cmax`, expressed
/// as a percentage of each space's Supreme Cost, at fixed `K`.
pub fn fig12c(
    w: &Workload,
    k: usize,
    percents: &[u32],
    algorithms: &[Algorithm],
) -> Vec<AlgoTimeRow> {
    fig12c_reported(w, k, percents, algorithms, &mut Vec::new())
}

/// [`fig12c`] collecting one [`RunReport`] per (percent, algorithm) cell.
pub fn fig12c_reported(
    w: &Workload,
    k: usize,
    percents: &[u32],
    algorithms: &[Algorithm],
    reports: &mut Vec<RunReport>,
) -> Vec<AlgoTimeRow> {
    let spaces = spaces_at_k(w, k);
    let mut rows = Vec::new();
    for &pct in percents {
        for &algo in algorithms {
            let obs = Obs::new();
            let mut secs = Vec::new();
            let mut states = Vec::new();
            for space in &spaces {
                let cmax = supreme_cost_blocks(space) * pct as u64 / 100;
                let (sol, t) = solve_timed(&obs, space, ConjModel::NoisyOr, cmax, algo);
                secs.push(t);
                states.push(sol.instrument.states_examined as f64);
            }
            rows.push(AlgoTimeRow {
                x: pct as f64,
                algorithm: algo.name(),
                seconds: mean(&secs),
                states: mean(&states),
            });
            reports.push(
                RunReport::from_obs("fig12c", algo.name(), &obs)
                    .with_field("percent_supreme", pct as u64)
                    .with_field("k", k as u64)
                    .with_field("runs", spaces.len() as u64)
                    .with_field("mean_seconds", mean(&secs)),
            );
        }
    }
    rows
}

/// [`fig12c_reported`] with the `(percent, algorithm)` grid cells fanned
/// across a work-stealing pool; row/report order matches the sequential
/// run, and `threads == 1` inlines to it.
pub fn fig12c_parallel(
    w: &Workload,
    k: usize,
    percents: &[u32],
    algorithms: &[Algorithm],
    threads: usize,
    reports: &mut Vec<RunReport>,
) -> Vec<AlgoTimeRow> {
    let pool = ThreadPool::new(threads);
    let spaces = spaces_at_k(w, k);
    let cells: Vec<(u32, Algorithm)> = percents
        .iter()
        .flat_map(|&pct| algorithms.iter().map(move |&a| (pct, a)))
        .collect();
    let out = pool.map(cells, |_, (pct, algo)| {
        let obs = Obs::new();
        let mut secs = Vec::new();
        let mut states = Vec::new();
        for space in &spaces {
            let cmax = supreme_cost_blocks(space) * pct as u64 / 100;
            let (sol, t) = solve_timed(&obs, space, ConjModel::NoisyOr, cmax, algo);
            secs.push(t);
            states.push(sol.instrument.states_examined as f64);
        }
        let row = AlgoTimeRow {
            x: pct as f64,
            algorithm: algo.name(),
            seconds: mean(&secs),
            states: mean(&states),
        };
        let report = RunReport::from_obs("fig12c", algo.name(), &obs)
            .with_field("percent_supreme", pct as u64)
            .with_field("k", k as u64)
            .with_field("runs", spaces.len() as u64)
            .with_field("mean_seconds", mean(&secs));
        (row, report)
    });
    let mut rows = Vec::new();
    for (row, report) in out {
        rows.push(row);
        reports.push(report);
    }
    rows
}

/// Figure 13(a): peak memory as a function of `K`.
pub fn fig13a(w: &Workload, ks: &[usize], algorithms: &[Algorithm]) -> Vec<MemoryRow> {
    fig13a_reported(w, ks, algorithms, &mut Vec::new())
}

/// [`fig13a`] collecting one [`RunReport`] per (K, algorithm) cell; the
/// report's `solver.peak_bytes` histogram holds min/mean/max peaks over the
/// cell's runs.
pub fn fig13a_reported(
    w: &Workload,
    ks: &[usize],
    algorithms: &[Algorithm],
    reports: &mut Vec<RunReport>,
) -> Vec<MemoryRow> {
    let mut rows = Vec::new();
    for &k in ks {
        let spaces = spaces_at_k(w, k);
        for &algo in algorithms {
            let obs = Obs::new();
            let kbytes: Vec<f64> = spaces
                .iter()
                .map(|space| {
                    solve_p2_recorded(
                        space,
                        ConjModel::NoisyOr,
                        w.scale.cmax_for(space),
                        algo,
                        &obs,
                    )
                    .instrument
                    .peak_kbytes()
                })
                .collect();
            rows.push(MemoryRow {
                x: k as f64,
                algorithm: algo.name(),
                kbytes: mean(&kbytes),
            });
            reports.push(
                RunReport::from_obs("fig13a", algo.name(), &obs)
                    .with_field("k", k as u64)
                    .with_field("runs", spaces.len() as u64)
                    .with_field("mean_kbytes", mean(&kbytes)),
            );
        }
    }
    rows
}

/// Figure 13(b): peak memory as a function of `cmax` (% of Supreme Cost).
pub fn fig13b(
    w: &Workload,
    k: usize,
    percents: &[u32],
    algorithms: &[Algorithm],
) -> Vec<MemoryRow> {
    fig13b_reported(w, k, percents, algorithms, &mut Vec::new())
}

/// [`fig13b`] collecting one [`RunReport`] per (percent, algorithm) cell.
pub fn fig13b_reported(
    w: &Workload,
    k: usize,
    percents: &[u32],
    algorithms: &[Algorithm],
    reports: &mut Vec<RunReport>,
) -> Vec<MemoryRow> {
    let spaces = spaces_at_k(w, k);
    let mut rows = Vec::new();
    for &pct in percents {
        for &algo in algorithms {
            let obs = Obs::new();
            let kbytes: Vec<f64> = spaces
                .iter()
                .map(|space| {
                    let cmax = supreme_cost_blocks(space) * pct as u64 / 100;
                    solve_p2_recorded(space, ConjModel::NoisyOr, cmax, algo, &obs)
                        .instrument
                        .peak_kbytes()
                })
                .collect();
            rows.push(MemoryRow {
                x: pct as f64,
                algorithm: algo.name(),
                kbytes: mean(&kbytes),
            });
            reports.push(
                RunReport::from_obs("fig13b", algo.name(), &obs)
                    .with_field("percent_supreme", pct as u64)
                    .with_field("k", k as u64)
                    .with_field("runs", spaces.len() as u64)
                    .with_field("mean_kbytes", mean(&kbytes)),
            );
        }
    }
    rows
}

/// The heuristic algorithms evaluated for quality in Figure 14.
pub const FIG14_ALGORITHMS: [Algorithm; 3] = [
    Algorithm::DHeurDoi,
    Algorithm::CMaxBounds,
    Algorithm::DSingleMaxDoi,
];

/// Figure 14(a): quality gap vs `K`.
pub fn fig14a(w: &Workload, ks: &[usize], conj: ConjModel) -> Vec<QualityRow> {
    fig14a_reported(w, ks, conj, &mut Vec::new())
}

/// [`fig14a`] collecting one [`RunReport`] per (K, algorithm) cell. Only
/// the heuristic under evaluation is recorded; the C-BOUNDARIES reference
/// runs unrecorded so its counters don't pollute the cell.
pub fn fig14a_reported(
    w: &Workload,
    ks: &[usize],
    conj: ConjModel,
    reports: &mut Vec<RunReport>,
) -> Vec<QualityRow> {
    let mut rows = Vec::new();
    for &k in ks {
        let spaces = spaces_at_k(w, k);
        for algo in FIG14_ALGORITHMS {
            let obs = Obs::new();
            let gaps: Vec<f64> = spaces
                .iter()
                .map(|space| {
                    let optimal =
                        solve_p2(space, conj, w.scale.cmax_for(space), Algorithm::CBoundaries);
                    let found = solve_p2_recorded(space, conj, w.scale.cmax_for(space), algo, &obs);
                    (optimal.doi.value() - found.doi.value()).max(0.0)
                })
                .collect();
            rows.push(QualityRow {
                x: k as f64,
                algorithm: algo.name(),
                quality_gap: mean(&gaps),
            });
            reports.push(
                RunReport::from_obs("fig14a", algo.name(), &obs)
                    .with_field("k", k as u64)
                    .with_field("conj", format!("{conj:?}"))
                    .with_field("runs", spaces.len() as u64)
                    .with_field("mean_gap", mean(&gaps)),
            );
        }
    }
    rows
}

/// Figure 14(b): quality gap vs `cmax` (% of Supreme Cost) at fixed `K`.
pub fn fig14b(w: &Workload, k: usize, percents: &[u32], conj: ConjModel) -> Vec<QualityRow> {
    fig14b_reported(w, k, percents, conj, &mut Vec::new())
}

/// [`fig14b`] collecting one [`RunReport`] per (percent, algorithm) cell.
pub fn fig14b_reported(
    w: &Workload,
    k: usize,
    percents: &[u32],
    conj: ConjModel,
    reports: &mut Vec<RunReport>,
) -> Vec<QualityRow> {
    let spaces = spaces_at_k(w, k);
    let mut rows = Vec::new();
    for &pct in percents {
        for algo in FIG14_ALGORITHMS {
            let obs = Obs::new();
            let gaps: Vec<f64> = spaces
                .iter()
                .map(|space| {
                    let cmax = supreme_cost_blocks(space) * pct as u64 / 100;
                    let optimal = solve_p2(space, conj, cmax, Algorithm::CBoundaries);
                    let found = solve_p2_recorded(space, conj, cmax, algo, &obs);
                    (optimal.doi.value() - found.doi.value()).max(0.0)
                })
                .collect();
            rows.push(QualityRow {
                x: pct as f64,
                algorithm: algo.name(),
                quality_gap: mean(&gaps),
            });
            reports.push(
                RunReport::from_obs("fig14b", algo.name(), &obs)
                    .with_field("percent_supreme", pct as u64)
                    .with_field("k", k as u64)
                    .with_field("conj", format!("{conj:?}"))
                    .with_field("runs", spaces.len() as u64)
                    .with_field("mean_gap", mean(&gaps)),
            );
        }
    }
    rows
}

/// Figure 15: estimated vs measured execution time of the personalized
/// query integrating all `K` extracted preferences.
///
/// "Estimated" is the paper's Formula 11 (`b × Σ blocks`); "measured"
/// executes the constructed union/having query on the engine, charging the
/// same `b` per block actually read and adding the real CPU time — the
/// residual gap is exactly the group-by/union work the model neglects.
pub fn fig15(w: &Workload, ks: &[usize]) -> Vec<CostModelRow> {
    fig15_reported(w, ks, &mut Vec::new())
}

/// [`fig15`] collecting one [`RunReport`] per `K`; the executor and the
/// I/O meter feed the cell `Obs`, so each report carries the engine scan
/// counters and the physical `storage.blocks_read` totals.
pub fn fig15_reported(
    w: &Workload,
    ks: &[usize],
    reports: &mut Vec<RunReport>,
) -> Vec<CostModelRow> {
    let model = CostModel::new(&w.stats);
    let mut rows = Vec::new();
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
    rows
}

/// Table 1: solve all six CQP problems on the workload's first pair and
/// check each against exact branch-and-bound.
pub fn table1(w: &Workload, k: usize) -> Vec<ProblemRow> {
    table1_reported(w, k, &mut Vec::new())
}

/// [`table1`] collecting one [`RunReport`] for the whole table: each
/// problem solves inside its own `p<N>` span and flushes its transition
/// counters to the shared registry.
pub fn table1_reported(w: &Workload, k: usize, reports: &mut Vec<RunReport>) -> Vec<ProblemRow> {
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
    reports.push(RunReport::from_obs("table1", "general_solve", &obs).with_field("k", k as u64));
    rows
}

/// Ablation: the paper's specialized algorithms vs the generic baselines
/// (simulated annealing, tabu, genetic) on time and quality at fixed `K`.
pub fn ablation_generic(w: &Workload, k: usize) -> Vec<(AlgoTimeRow, QualityRow)> {
    ablation_generic_reported(w, k, &mut Vec::new())
}

/// [`ablation_generic`] collecting one [`RunReport`] per algorithm.
pub fn ablation_generic_reported(
    w: &Workload,
    k: usize,
    reports: &mut Vec<RunReport>,
) -> Vec<(AlgoTimeRow, QualityRow)> {
    let spaces = spaces_at_k(w, k);
    let algos: Vec<Algorithm> = vec![
        Algorithm::CBoundaries,
        Algorithm::CMaxBounds,
        Algorithm::DHeurDoi,
        Algorithm::BranchBound,
        Algorithm::Annealing,
        Algorithm::Tabu,
        Algorithm::Genetic,
    ];
    let mut rows = Vec::new();
    for algo in algos {
        let obs = Obs::new();
        let mut secs = Vec::new();
        let mut gaps = Vec::new();
        let mut states = Vec::new();
        for space in &spaces {
            let optimal = solve_p2(
                space,
                ConjModel::NoisyOr,
                w.scale.cmax_for(space),
                Algorithm::CBoundaries,
            );
            let (sol, t) = solve_timed(
                &obs,
                space,
                ConjModel::NoisyOr,
                w.scale.cmax_for(space),
                algo,
            );
            secs.push(t);
            states.push(sol.instrument.states_examined as f64);
            gaps.push((optimal.doi.value() - sol.doi.value()).max(0.0));
        }
        reports.push(
            RunReport::from_obs("ablation_generic", algo.name(), &obs)
                .with_field("k", k as u64)
                .with_field("runs", spaces.len() as u64)
                .with_field("mean_seconds", mean(&secs))
                .with_field("mean_gap", mean(&gaps)),
        );
        rows.push((
            AlgoTimeRow {
                x: k as f64,
                algorithm: algo.name(),
                seconds: mean(&secs),
                states: mean(&states),
            },
            QualityRow {
                x: k as f64,
                algorithm: algo.name(),
                quality_gap: mean(&gaps),
            },
        ));
    }
    rows
}

/// Ablation: quality gaps under alternative conjunction models `r`
/// (Section 7.2.3's remark that a different model "would still exhibit the
/// same growing trends but might have resulted in larger differences").
pub fn ablation_doi_model(w: &Workload, ks: &[usize]) -> Vec<(String, Vec<QualityRow>)> {
    ablation_doi_model_reported(w, ks)
        .into_iter()
        .map(|(model, rows, _)| (model, rows))
        .collect()
}

/// [`ablation_doi_model`] returning the per-model [`RunReport`] lines too
/// (the lines keep `fig14a` as their experiment tag, qualified by the
/// `conj` field).
pub fn ablation_doi_model_reported(
    w: &Workload,
    ks: &[usize],
) -> Vec<(String, Vec<QualityRow>, Vec<RunReport>)> {
    [ConjModel::NoisyOr, ConjModel::Max, ConjModel::Quadrature]
        .into_iter()
        .map(|conj| {
            let mut reports = Vec::new();
            let rows = fig14a_reported(w, ks, conj, &mut reports);
            (format!("{conj:?}"), rows, reports)
        })
        .collect()
}

/// Ablation: generic-baseline tuning — how the annealing step budget
/// trades time for quality (supports the Related Work claim that generic
/// methods need far more work for comparable quality).
pub fn ablation_annealing_budget(w: &Workload, k: usize, budgets: &[usize]) -> Vec<AlgoTimeRow> {
    ablation_annealing_budget_reported(w, k, budgets, &mut Vec::new())
}

/// [`ablation_annealing_budget`] collecting one [`RunReport`] per budget.
pub fn ablation_annealing_budget_reported(
    w: &Workload,
    k: usize,
    budgets: &[usize],
    reports: &mut Vec<RunReport>,
) -> Vec<AlgoTimeRow> {
    let spaces = spaces_at_k(w, k);
    let mut rows = Vec::new();
    for &steps in budgets {
        let obs = Obs::new();
        let mut secs = Vec::new();
        let mut gaps = Vec::new();
        for space in &spaces {
            let optimal = solve_p2(
                space,
                ConjModel::NoisyOr,
                w.scale.cmax_for(space),
                Algorithm::CBoundaries,
            );
            let cfg = generic::annealing::AnnealingConfig {
                steps,
                ..Default::default()
            };
            let (sol, t) = timed_span(&obs, "SimAnnealing", || {
                generic::annealing::solve_p2_with(
                    space,
                    ConjModel::NoisyOr,
                    w.scale.cmax_for(space),
                    0xC0FFEE,
                    cfg,
                )
            });
            sol.instrument.flush_to(&obs);
            secs.push(t);
            gaps.push((optimal.doi.value() - sol.doi.value()).max(0.0));
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
    rows
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

/// Ablation: the paper's cost model counts *blocks*, so its absolute
/// numbers scale with the page size — but the block-level identity
/// (estimate = blocks read) and the algorithms' relative behaviour must
/// hold at any capacity. Sweeps the tuples-per-block knob.
pub fn ablation_block_size(capacities: &[usize], k: usize) -> Vec<BlockSizeRow> {
    ablation_block_size_reported(capacities, k, &mut Vec::new())
}

/// [`ablation_block_size`] collecting one [`RunReport`] per capacity; the
/// executor feeds the cell `Obs` so `storage.blocks_read` shrinks as the
/// block grows, while the row counters stay put.
pub fn ablation_block_size_reported(
    capacities: &[usize],
    k: usize,
    reports: &mut Vec<RunReport>,
) -> Vec<BlockSizeRow> {
    use cqp_core::construct::construct;
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
                heuristic_gap: (exact.doi.value() - heur.doi.value()).max(0.0),
            };
            reports.push(
                RunReport::from_obs("ablation_block_size", "block-capacity sweep", &obs)
                    .with_field("block_capacity", cap as u64)
                    .with_field("k", k as u64),
            );
            row
        })
        .collect()
}
