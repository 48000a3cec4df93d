//! Integration tests for the observability pipeline: the full
//! personalize-and-execute flow under an [`Obs`] must produce nested spans
//! across the solver, engine, and storage layers, matching registry
//! counters, and exportable run-report lines.

use cqp_core::{Algorithm, CqpSystem, ProblemSpec, SolverConfig};
use cqp_datagen::{
    generate_movie_db, generate_movie_profile, generate_movie_queries, MovieDbConfig,
    ProfileGenConfig, QueryGenConfig,
};
use cqp_obs::{Obs, Recorder, RunReport};
use std::sync::Arc;

fn traced_run(algorithm: Algorithm) -> (Arc<Obs>, u64) {
    let db_cfg = MovieDbConfig::tiny(11);
    let db = generate_movie_db(&db_cfg);
    let p_cfg = ProfileGenConfig {
        n_directors: db_cfg.directors,
        n_actors: db_cfg.actors,
        ..ProfileGenConfig::tiny(23)
    };
    let profile = generate_movie_profile(db.catalog(), &p_cfg);
    let query = generate_movie_queries(db.catalog(), &QueryGenConfig::default())
        .into_iter()
        .next()
        .expect("generator yields queries");

    let obs = Arc::new(Obs::new());
    let system = CqpSystem::new_recorded(&db, &*obs);
    let config = SolverConfig {
        algorithm,
        ..SolverConfig::default()
    };
    let outcome = system
        .personalize_recorded(&query, &profile, &ProblemSpec::p2(100), &config, &*obs)
        .expect("personalization succeeds");
    let (_, blocks, _) = system
        .execute_recorded(&outcome.query, 1.0, Arc::clone(&obs) as Arc<dyn Recorder>)
        .expect("execution succeeds");
    (obs, blocks)
}

#[test]
fn c_boundaries_emits_phase_spans_and_block_reads() {
    let (obs, blocks) = traced_run(Algorithm::CBoundaries);
    let spans = obs.spans();
    let paths: Vec<&str> = spans.iter().map(|s| s.path.as_str()).collect();

    // Solver-phase, engine-exec, and storage-analyze levels all present.
    let find_boundaries = paths
        .iter()
        .position(|p| *p == "personalize.search.C_Boundaries.find_boundaries")
        .expect("phase-1 span");
    let find_max_doi = paths
        .iter()
        .position(|p| *p == "personalize.search.C_Boundaries.find_max_doi")
        .expect("phase-2 span");
    assert!(
        find_boundaries < find_max_doi,
        "FINDBOUNDARY must precede C_FINDMAXDOI: {paths:?}"
    );
    assert!(paths.contains(&"storage.analyze"));
    assert!(paths.contains(&"personalize.construct"));
    assert!(paths.contains(&"engine.execute_personalized"));

    // Physical reads reached the registry and agree with the executor.
    let blocks_read = obs.registry().counter("storage.blocks_read");
    assert!(blocks_read > 0, "block reads must be counted");
    assert!(
        blocks_read >= blocks,
        "registry ({blocks_read}) covers analyze + execute ({blocks})"
    );
    assert!(obs.registry().counter("engine.scans") > 0);
    assert!(obs.registry().counter("solver.states_examined") > 0);
}

#[test]
fn span_tree_renders_nested_levels() {
    let (obs, _) = traced_run(Algorithm::CBoundaries);
    let tree = obs.render_tree();
    for needle in [
        "personalize",
        "search",
        "C_Boundaries",
        "find_boundaries",
        "find_max_doi",
        "engine.execute_personalized",
    ] {
        assert!(tree.contains(needle), "missing `{needle}` in:\n{tree}");
    }
    // Depths are visible as indentation: the phase spans sit under search.
    let spans = obs.spans();
    let depth_of = |path: &str| {
        spans
            .iter()
            .find(|s| s.path == path)
            .map(|s| s.depth)
            .unwrap()
    };
    assert!(
        depth_of("personalize.search.C_Boundaries.find_boundaries")
            > depth_of("personalize.search")
    );
}

#[test]
fn run_report_serializes_the_whole_run() {
    let (obs, _) = traced_run(Algorithm::CBoundaries);
    let line = RunReport::from_obs("observability_it", "C_Boundaries", &obs)
        .with_field("cmax_blocks", 100u64)
        .to_json()
        .render();
    assert!(line.starts_with(r#"{"experiment":"observability_it","label":"C_Boundaries""#));
    assert!(line.contains(r#""storage.blocks_read":"#));
    assert!(line.contains(r#""solver.states_examined":"#));
    assert!(line.contains("personalize.search.C_Boundaries.find_boundaries"));
}

#[test]
fn recording_is_observation_only() {
    // The same pipeline, plain vs recorded, lands on the same answer.
    let db_cfg = MovieDbConfig::tiny(11);
    let db = generate_movie_db(&db_cfg);
    let p_cfg = ProfileGenConfig {
        n_directors: db_cfg.directors,
        n_actors: db_cfg.actors,
        ..ProfileGenConfig::tiny(23)
    };
    let profile = generate_movie_profile(db.catalog(), &p_cfg);
    let query = generate_movie_queries(db.catalog(), &QueryGenConfig::default())
        .into_iter()
        .next()
        .unwrap();
    let problem = ProblemSpec::p2(100);
    let config = SolverConfig {
        algorithm: Algorithm::CBoundaries,
        ..SolverConfig::default()
    };

    let plain = CqpSystem::new(&db)
        .personalize(&query, &profile, &problem, &config)
        .unwrap();
    let obs = Obs::new();
    let recorded = CqpSystem::new_recorded(&db, &obs)
        .personalize_recorded(&query, &profile, &problem, &config, &obs)
        .unwrap();
    assert_eq!(plain.solution.prefs, recorded.solution.prefs);
    assert_eq!(plain.solution.doi, recorded.solution.doi);
    assert_eq!(plain.sql, recorded.sql);
}
