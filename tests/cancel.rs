//! Deadlines, state budgets, and cooperative cancellation across every
//! search algorithm: a tripped budget must never hang or panic — it
//! returns the best-so-far incumbent tagged [`Solution::degraded`], and a
//! degraded solution that claims feasibility really is feasible.

use cqp_core::algorithms::solve_p2_budgeted;
use cqp_core::budget::{Budget, CancelToken, DegradeReason};
use cqp_core::construct::{construct, ConstructError};
use cqp_core::prelude::*;
use cqp_engine::QueryBuilder;
use cqp_obs::{NoopRecorder, Obs};
use cqp_prefs::{ConjModel, Doi, Profile};
use cqp_prefspace::{PrefParams, PreferenceSpace};
use cqp_storage::{DataType, Database, RelationSchema, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
    for i in 0..40i64 {
        db.insert_into(
            "MOVIE",
            vec![
                Value::Int(i),
                Value::str(format!("m{i}")),
                Value::Int(1980 + i % 20),
                Value::Int(90),
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

/// A synthetic space big enough that every algorithm has real work to do.
fn wide_space(k: usize) -> PreferenceSpace {
    let params = (0..k)
        .map(|i| PrefParams {
            doi: Doi::new(0.10 + 0.8 * ((i * 7 % k) as f64 / k as f64)),
            cost_blocks: 5 + (i as u64 * 13) % 90,
            size_factor: 0.3 + 0.6 * ((i * 3 % k) as f64 / k as f64),
        })
        .collect();
    PreferenceSpace::synthetic(params, 10_000.0, 0)
}

const ALL_P2_SEARCHERS: [Algorithm; 7] = [
    Algorithm::DMaxDoi,
    Algorithm::DSingleMaxDoi,
    Algorithm::CBoundaries,
    Algorithm::CMaxBounds,
    Algorithm::DHeurDoi,
    Algorithm::Exhaustive,
    Algorithm::BranchBound,
];

/// Acceptance gate: `CqpSystem::personalize` with a 0-ms deadline returns a
/// `Degraded`-tagged solution — never a hang, never a panic — for all five
/// paper algorithms (plus the exact baselines), and counts it once in
/// `solver.degraded`.
#[test]
fn zero_deadline_degrades_every_algorithm_through_the_facade() {
    let db = movie_db();
    let system = CqpSystem::new(&db);
    let base = QueryBuilder::from(db.catalog(), "MOVIE")
        .unwrap()
        .select("MOVIE", "title")
        .unwrap()
        .build();
    let profile = Profile::paper_figure1(db.catalog()).unwrap();
    for algo in ALL_P2_SEARCHERS {
        let config = SolverConfig {
            algorithm: algo,
            budget: Budget::with_deadline_ms(0),
            ..Default::default()
        };
        let obs = Obs::new();
        let outcome = system
            .personalize_recorded(&base, &profile, &ProblemSpec::p2(100), &config, &obs)
            .unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
        let d = outcome
            .solution
            .degraded
            .unwrap_or_else(|| panic!("{} did not degrade", algo.name()));
        assert_eq!(d.reason, DegradeReason::DeadlineExceeded, "{}", algo.name());
        assert!(d.states_visited >= 1, "{}", algo.name());
        assert_eq!(
            obs.registry().counter("solver.degraded"),
            1,
            "{}",
            algo.name()
        );
    }
}

#[test]
fn zero_deadline_degrades_the_general_search_on_every_problem_variant() {
    let db = movie_db();
    let system = CqpSystem::new(&db);
    let base = QueryBuilder::from(db.catalog(), "MOVIE")
        .unwrap()
        .select("MOVIE", "title")
        .unwrap()
        .build();
    let profile = Profile::paper_figure1(db.catalog()).unwrap();
    let problems = [
        ProblemSpec::p1(1.0, 1e9),
        ProblemSpec::p3(100, 1.0, 1e9),
        ProblemSpec::p4(Doi::new(0.1)),
        ProblemSpec::p5(Doi::new(0.1), 1.0, 1e9),
        ProblemSpec::p6(1.0, 1e9),
    ];
    for problem in &problems {
        let config = SolverConfig {
            budget: Budget::with_deadline_ms(0),
            ..Default::default()
        };
        let obs = Obs::new();
        let outcome = system
            .personalize_recorded(&base, &profile, problem, &config, &obs)
            .unwrap();
        assert!(
            outcome.solution.degraded.is_some(),
            "{problem:?} did not degrade"
        );
        assert_eq!(obs.registry().counter("solver.degraded"), 1, "{problem:?}");
    }
}

#[test]
fn unlimited_budget_is_never_tagged_degraded() {
    let space = wide_space(12);
    for algo in ALL_P2_SEARCHERS {
        let sol = solve_p2_budgeted(
            &space,
            ConjModel::NoisyOr,
            120,
            algo,
            &NoopRecorder,
            None,
            &CancelToken::unlimited(),
        );
        assert!(sol.degraded.is_none(), "{}", algo.name());
    }
}

/// A tripped state budget reports `StateLimit` with an honest state count.
#[test]
fn state_budget_trips_with_state_limit_reason() {
    let space = wide_space(18);
    for algo in ALL_P2_SEARCHERS {
        let token = CancelToken::for_budget(&Budget::with_max_states(3));
        let sol = solve_p2_budgeted(
            &space,
            ConjModel::NoisyOr,
            150,
            algo,
            &NoopRecorder,
            None,
            &token,
        );
        if let Some(d) = sol.degraded {
            assert_eq!(d.reason, DegradeReason::StateLimit, "{}", algo.name());
            assert!(d.states_visited > 3, "{}", algo.name());
        } else {
            // Only legitimate when the algorithm finished inside the budget.
            assert!(token.states_visited() <= 3, "{}", algo.name());
        }
    }
}

/// Degraded incumbents are still *feasible*: whatever the trip point, a
/// solution with `found == true` satisfies the hard cost constraint and
/// never beats the true optimum.
#[test]
fn degraded_solutions_stay_feasible_and_below_the_oracle() {
    let space = wide_space(14);
    let cmax = 160;
    let oracle = cqp_core::algorithms::exhaustive::solve_p2(&space, ConjModel::NoisyOr, cmax);
    for algo in ALL_P2_SEARCHERS {
        for max_states in [1u64, 2, 5, 10, 50, 500] {
            let token = CancelToken::for_budget(&Budget::with_max_states(max_states));
            let sol = solve_p2_budgeted(
                &space,
                ConjModel::NoisyOr,
                cmax,
                algo,
                &NoopRecorder,
                None,
                &token,
            );
            if sol.found {
                assert!(
                    sol.cost_blocks <= cmax,
                    "{} max_states={max_states}: infeasible degraded incumbent",
                    algo.name()
                );
                assert!(
                    sol.doi <= oracle.doi,
                    "{} max_states={max_states}: beat the oracle",
                    algo.name()
                );
            }
        }
    }
}

/// External cancellation (the flag a server's connection-drop handler would
/// set) trips with `Cancelled`.
#[test]
fn external_flag_cancels_with_cancelled_reason() {
    let space = wide_space(16);
    let flag = Arc::new(AtomicBool::new(true)); // dropped before the search starts
    let token = CancelToken::unlimited().with_flag(Arc::clone(&flag));
    let sol = solve_p2_budgeted(
        &space,
        ConjModel::NoisyOr,
        150,
        Algorithm::DMaxDoi,
        &NoopRecorder,
        None,
        &token,
    );
    let d = sol.degraded.expect("flagged token must degrade");
    assert_eq!(d.reason, DegradeReason::Cancelled);
    assert!(flag.load(Ordering::Relaxed));
}

/// Regression: an empty preference space flows through the whole facade
/// without panicking — the outcome is the unpersonalized query.
#[test]
fn empty_preference_space_is_served_not_panicked() {
    let space = PreferenceSpace::synthetic(vec![], 100.0, 0);
    for algo in ALL_P2_SEARCHERS {
        let sol = solve_p2(&space, ConjModel::NoisyOr, 50, algo);
        assert!(!sol.found, "{}", algo.name());
        assert_eq!(sol.doi, Doi::ZERO);
    }
    // And under a zero deadline: still no panic, still empty.
    let token = CancelToken::for_budget(&Budget::with_deadline_ms(0));
    let sol = solve_p2_budgeted(
        &space,
        ConjModel::NoisyOr,
        50,
        Algorithm::CBoundaries,
        &NoopRecorder,
        None,
        &token,
    );
    assert!(!sol.found);
}

/// Regression: a malformed request (out-of-range preference index at
/// construction) is a typed `CqpError::Construct`, not a panic.
#[test]
fn malformed_pref_index_is_a_typed_construct_error() {
    let db = movie_db();
    let system = CqpSystem::new(&db);
    let base = QueryBuilder::from(db.catalog(), "MOVIE")
        .unwrap()
        .select("MOVIE", "title")
        .unwrap()
        .build();
    let profile = Profile::paper_figure1(db.catalog()).unwrap();
    let space = system.preference_space(&base, &profile, &SolverConfig::default());
    let err = construct(&base, &space, &[space.k() + 7]).unwrap_err();
    assert!(matches!(err, ConstructError::PrefIndexOutOfRange(_)));
    let cqp: CqpError = err.into();
    assert_eq!(cqp.kind(), "construct");
    assert!(!cqp.is_transient());
    assert!(cqp.to_string().contains("construction failed"));
}

/// The `SpaceTooLarge` rejection is typed and non-transient (a retry would
/// fail identically), so batch drivers fail the request instead of looping.
#[test]
fn oversized_exhaustive_space_error_is_typed_and_permanent() {
    let space = wide_space(26);
    assert!(space.k() > cqp_core::algorithms::exhaustive::MAX_EXHAUSTIVE_K);
    let err = CqpError::SpaceTooLarge {
        k: space.k(),
        max: cqp_core::algorithms::exhaustive::MAX_EXHAUSTIVE_K,
    };
    assert_eq!(err.kind(), "space_too_large");
    assert!(!err.is_transient());
    assert!(err.to_string().contains("26"));
}

/// The deadline also reaches the *partitioned* exact searches: a shared
/// token stops every worker.
#[test]
fn zero_deadline_degrades_partitioned_searches() {
    let db = movie_db();
    let system = CqpSystem::new(&db);
    let base = QueryBuilder::from(db.catalog(), "MOVIE")
        .unwrap()
        .select("MOVIE", "title")
        .unwrap()
        .build();
    let profile = Profile::paper_figure1(db.catalog()).unwrap();
    for algo in [Algorithm::Exhaustive, Algorithm::BranchBound] {
        let config = SolverConfig {
            algorithm: algo,
            parallelism: cqp_core::solver::Parallelism::new(4),
            budget: Budget::with_deadline_ms(0),
            ..Default::default()
        };
        let obs = Obs::new();
        let outcome = system
            .personalize_recorded(&base, &profile, &ProblemSpec::p2(100), &config, &obs)
            .unwrap();
        assert!(
            outcome.solution.degraded.is_some(),
            "{} (4 threads) did not degrade",
            algo.name()
        );
        assert_eq!(
            obs.registry().counter("solver.degraded"),
            1,
            "{} (4 threads)",
            algo.name()
        );
    }
}
