//! Determinism of the parallel paths: a multi-threaded run must be
//! bit-identical to the sequential one — same selected preferences, same
//! doi, same cost, same result size — for every paper algorithm.

use cqp_bench::experiments;
use cqp_bench::{build_workload, Scale};
use cqp_core::batch::{BatchDriver, BatchRequest};
use cqp_core::prelude::*;
use cqp_core::solver::Parallelism;
use cqp_engine::QueryBuilder;
use cqp_prefs::Profile;
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

#[test]
fn parallel_fig12_grid_preserves_cell_order() {
    let w = build_workload(&Scale::tiny());
    let cells: Vec<(usize, Algorithm)> = [4usize, 6]
        .iter()
        .flat_map(|&k| {
            [
                Algorithm::CBoundaries,
                Algorithm::CMaxBounds,
                Algorithm::DHeurDoi,
            ]
            .into_iter()
            .map(move |a| (k, a))
        })
        .collect();
    let mut seq_reports = Vec::new();
    let mut par_reports = Vec::new();
    let seq = experiments::fig12a_parallel(&w, &cells, 1, &mut seq_reports);
    let par = experiments::fig12a_parallel(&w, &cells, 4, &mut par_reports);
    assert_eq!(seq.len(), cells.len());
    assert_eq!(par.len(), cells.len());
    for ((row_s, row_p), (k, algo)) in seq.iter().zip(&par).zip(&cells) {
        assert_eq!(row_s.x, *k as f64);
        assert_eq!(row_p.x, *k as f64);
        assert_eq!(row_s.algorithm, algo.name());
        assert_eq!(row_p.algorithm, algo.name());
        // Work counters are deterministic for these sequential-per-cell
        // algorithms, so they must agree across pool widths.
        assert_eq!(row_s.states, row_p.states);
    }
    assert_eq!(seq_reports.len(), cells.len());
    assert_eq!(par_reports.len(), cells.len());
}
