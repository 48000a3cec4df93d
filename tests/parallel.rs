//! Determinism of the parallel paths: a multi-threaded run must be
//! bit-identical to the sequential one — same selected preferences, same
//! doi, same cost, same result size — for every paper algorithm.

use cqp_bench::experiments::{self, Cell, CsvRow, FIG14_ALGORITHMS};
use cqp_bench::{build_workload, Scale};
use cqp_core::batch::{BatchDriver, BatchRequest};
use cqp_core::prelude::*;
use cqp_core::solver::Parallelism;
use cqp_engine::QueryBuilder;
use cqp_obs::{Json, RunReport};
use cqp_prefs::{ConjModel, Profile};
use cqp_storage::{DataType, Database, RelationSchema, Value};
use std::sync::Arc;

/// The paper's running-example movie database, large enough that the
/// extracted space has several preferences with distinct costs.
fn movie_db() -> Database {
    let mut db = Database::with_block_capacity(4);
    db.create_relation(RelationSchema::new(
        "MOVIE",
        vec![
            ("mid", DataType::Int),
            ("title", DataType::Str),
            ("year", DataType::Int),
            ("duration", DataType::Int),
            ("did", DataType::Int),
        ],
    ))
    .unwrap();
    db.create_relation(RelationSchema::new(
        "DIRECTOR",
        vec![("did", DataType::Int), ("name", DataType::Str)],
    ))
    .unwrap();
    db.create_relation(RelationSchema::new(
        "GENRE",
        vec![("mid", DataType::Int), ("genre", DataType::Str)],
    ))
    .unwrap();
    for i in 0..60i64 {
        db.insert_into(
            "MOVIE",
            vec![
                Value::Int(i),
                Value::str(format!("m{i}")),
                Value::Int(1980 + i % 25),
                Value::Int(90 + (i % 5) * 10),
                Value::Int(i % 4),
            ],
        )
        .unwrap();
        db.insert_into(
            "GENRE",
            vec![
                Value::Int(i),
                Value::str(if i % 2 == 0 { "musical" } else { "drama" }),
            ],
        )
        .unwrap();
    }
    for d in 0..4i64 {
        let name = if d == 0 {
            "W. Allen".to_owned()
        } else {
            format!("dir{d}")
        };
        db.insert_into("DIRECTOR", vec![Value::Int(d), Value::str(name)])
            .unwrap();
    }
    db
}

/// One request per paper algorithm × cmax width, over the paper's
/// Figure 1 profile.
fn paper_requests(db: &Database) -> Vec<BatchRequest> {
    let base = QueryBuilder::from(db.catalog(), "MOVIE")
        .unwrap()
        .select("MOVIE", "title")
        .unwrap()
        .build();
    let profile = Profile::paper_figure1(db.catalog()).unwrap();
    let mut requests = Vec::new();
    for &cmax in &[15u64, 60, 100, 400] {
        for algo in Algorithm::PAPER {
            requests.push(BatchRequest {
                query: base.clone(),
                profile: profile.clone(),
                problem: ProblemSpec::p2(cmax),
                config: SolverConfig {
                    algorithm: algo,
                    ..Default::default()
                },
            });
        }
    }
    requests
}

fn solve_batch(db: &Arc<Database>, threads: usize) -> Vec<(Vec<usize>, f64, u64, String)> {
    let driver = BatchDriver::new(Arc::clone(db), threads);
    let (results, stats) = driver.run(paper_requests(db));
    assert_eq!(stats.threads, threads);
    results
        .into_iter()
        .map(|r| {
            let item = r.expect("request must succeed");
            (
                item.solution.prefs.clone(),
                item.solution.doi.value(),
                item.solution.cost_blocks,
                item.sql,
            )
        })
        .collect()
}

#[test]
fn batch_threads4_bit_identical_to_threads1_for_all_paper_algorithms() {
    let db = Arc::new(movie_db());
    let sequential = solve_batch(&db, 1);
    let parallel = solve_batch(&db, 4);
    assert_eq!(sequential.len(), parallel.len());
    for (i, (seq, par)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(seq, par, "request {i} diverged between 1 and 4 threads");
    }
}

#[test]
fn partitioned_exact_solvers_match_sequential_through_solver_config() {
    let db = Arc::new(movie_db());
    let base = QueryBuilder::from(db.catalog(), "MOVIE")
        .unwrap()
        .select("MOVIE", "title")
        .unwrap()
        .build();
    let profile = Profile::paper_figure1(db.catalog()).unwrap();
    let driver = BatchDriver::new(Arc::clone(&db), 1);
    for algorithm in [Algorithm::Exhaustive, Algorithm::BranchBound] {
        let config = |threads| SolverConfig {
            algorithm,
            parallelism: Parallelism::new(threads),
            ..Default::default()
        };
        let mut solutions = Vec::new();
        for threads in [1usize, 4] {
            let system = CqpSystem::new(&db);
            let outcome = system
                .personalize(&base, &profile, &ProblemSpec::p2(100), &config(threads))
                .expect("solve");
            solutions.push((
                outcome.solution.prefs.clone(),
                outcome.solution.doi.value(),
                outcome.solution.cost_blocks,
            ));
        }
        // The driver runs the same pipeline, so it partitions at 4 threads
        // too.
        let item = driver
            .submit(BatchRequest {
                query: base.clone(),
                profile: profile.clone(),
                problem: ProblemSpec::p2(100),
                config: config(4),
            })
            .expect("submit");
        solutions.push((
            item.solution.prefs.clone(),
            item.solution.doi.value(),
            item.solution.cost_blocks,
        ));
        assert_eq!(
            solutions[0], solutions[1],
            "{algorithm:?} diverged between 1 and 4 threads"
        );
        assert_eq!(
            solutions[0], solutions[2],
            "{algorithm:?} diverged between the facade and the driver at 4 threads"
        );
    }
}

/// `json` without the timing fields (`secs`, `mean_seconds`).
fn untimed(json: Json) -> Json {
    match json {
        Json::Obj(members) => Json::Obj(
            members
                .into_iter()
                .filter(|(key, _)| key != "secs" && key != "mean_seconds")
                .map(|(key, value)| (key, untimed(value)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(untimed).collect()),
        other => other,
    }
}

/// A sweep's CSV lines without the `seconds` column, and its report
/// lines without timing.
fn untimed_table<R: CsvRow>((rows, reports): (Vec<R>, Vec<RunReport>)) -> [Vec<String>; 2] {
    let seconds = R::HEADER.split(',').position(|column| column == "seconds");
    let lines = rows
        .iter()
        .map(|row| {
            let csv = row.csv();
            let fields: Vec<&str> = csv.split(',').collect();
            (0..fields.len())
                .filter(|&i| Some(i) != seconds)
                .map(|i| fields[i])
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    let reports = reports
        .iter()
        .map(|r| untimed(r.to_json()).render())
        .collect();
    [lines, reports]
}

/// Every Figure 12–14 sweep and the generic ablation return the same rows
/// and report lines, in cell order, at 1 and at 4 pool threads once the
/// timing fields are removed.
#[test]
fn parallel_fig12_grid_preserves_cell_order() {
    let w = build_workload(&Scale::tiny());
    let algorithms = [
        Algorithm::CBoundaries,
        Algorithm::CMaxBounds,
        Algorithm::DHeurDoi,
    ];
    let k_cells = Cell::k_sweep(&[4, 6], |_| algorithms.to_vec());
    let percent_cells = Cell::percent_sweep(6, &[30, 60], &algorithms);
    let quality_k = Cell::k_sweep(&[4, 6], |_| FIG14_ALGORITHMS.to_vec());
    let quality_percent = Cell::percent_sweep(6, &[30, 60], &FIG14_ALGORITHMS);
    let noisy_or = ConjModel::NoisyOr;
    type Sweep<'a> = Box<dyn Fn(usize) -> [Vec<String>; 2] + 'a>;
    let sweeps: Vec<(&str, usize, Sweep)> = vec![
        (
            "fig12a",
            k_cells.len(),
            Box::new(|t| untimed_table(experiments::fig12a(&w, &k_cells, t))),
        ),
        (
            "fig12c",
            percent_cells.len(),
            Box::new(|t| untimed_table(experiments::fig12c(&w, &percent_cells, t))),
        ),
        (
            "fig13a",
            k_cells.len(),
            Box::new(|t| untimed_table(experiments::fig13a(&w, &k_cells, t))),
        ),
        (
            "fig13b",
            percent_cells.len(),
            Box::new(|t| untimed_table(experiments::fig13b(&w, &percent_cells, t))),
        ),
        (
            "fig14a",
            quality_k.len(),
            Box::new(|t| untimed_table(experiments::fig14a(&w, &quality_k, noisy_or, t))),
        ),
        (
            "fig14b",
            quality_percent.len(),
            Box::new(|t| untimed_table(experiments::fig14b(&w, &quality_percent, noisy_or, t))),
        ),
        (
            "ablation_generic",
            7,
            Box::new(|t| {
                let (rows, reports) = experiments::ablation_generic(&w, 6, t);
                let (times, gaps): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
                let [mut lines, reports] = untimed_table((times, reports));
                lines.extend(untimed_table((gaps, Vec::new()))[0].clone());
                [lines, reports]
            }),
        ),
    ];
    for (name, cells, sweep) in &sweeps {
        let [seq_rows, seq_reports] = sweep(1);
        let [par_rows, par_reports] = sweep(4);
        assert_eq!(seq_reports.len(), *cells, "{name}: one report per cell");
        assert_eq!(seq_rows, par_rows, "{name}: rows differ across pool widths");
        assert_eq!(
            seq_reports, par_reports,
            "{name}: report lines differ across pool widths"
        );
    }
    let (rows, reports) = experiments::fig12a(&w, &k_cells, 4);
    for ((row, report), cell) in rows.iter().zip(&reports).zip(&k_cells) {
        assert_eq!(row.x, cell.k as f64);
        assert_eq!(row.algorithm, cell.algorithm.name());
        assert_eq!(report.label, cell.algorithm.name());
    }
}
