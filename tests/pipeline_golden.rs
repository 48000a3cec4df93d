//! Pipeline equivalence: golden digests of whole personalize requests.
//!
//! `CqpSystem::personalize_recorded` (the library facade) and
//! `BatchDriver`'s request path (the server's and `BatchDriver::run`'s)
//! run one preference space → search → construct pipeline. Every line of
//! `data/pipeline_golden.txt` is one request through either entry point:
//! its answer (`prefs`, the bits of `doi` and `size_rows`, `cost_blocks`,
//! `found`), the space's `K`, the bits of each selected preference's doi,
//! the SQL, the folded span paths with their counts and the `solver.*`
//! counter totals. The file was captured before the two entry points
//! shared their pipeline code, so a request that searches differently,
//! opens a span elsewhere or counts one state more fails here. The capture
//! left out one counter the facade alone recorded and nothing read (the
//! extracted K, summed per request), which was deleted with the merge.
//!
//! Covered, on the benchmark's data (`MovieDbConfig::default()` at 256
//! tuples per block, the benchmark's profile generator, K ∈ {8, 12}):
//! * the facade on P1–P6 with the five paper algorithms, branch-and-bound
//!   and Exhaustive;
//! * one driver with an answer cache, per (space, algorithm) family: a
//!   miss, an exact hit, warm hits at a moved P2 budget and on P3, P6 and
//!   P1 (where cached answers seed branch-and-bound and cut its states), a
//!   repair at the next profile version and a plain `submit_recorded`
//!   (tier off) on a rotating problem; then the driver's shared cost-cache
//!   totals.

use cqp_core::prelude::*;
use cqp_datagen::{generate_movie_db, generate_movie_profile, MovieDbConfig, ProfileGenConfig};
use cqp_engine::{parse_query, ConjunctiveQuery};
use cqp_obs::Obs;
use cqp_prefs::{Doi, Profile};
use cqp_prefspace::ExtractConfig;
use std::sync::Arc;

/// Benchmark query templates (a subset of `search_golden`'s).
const TEMPLATES: [&str; 4] = [
    "SELECT title FROM MOVIE",
    "SELECT mid, title FROM MOVIE WHERE MOVIE.year >= 1990",
    "SELECT title, duration FROM MOVIE",
    "SELECT title, year FROM MOVIE WHERE MOVIE.year >= 1995",
];

/// `(user, template, K)` picks.
const PICKS: [(usize, usize, usize); 4] = [(0, 0, 8), (1, 1, 12), (2, 2, 8), (3, 3, 12)];

const ALGORITHMS: [Algorithm; 7] = [
    Algorithm::DMaxDoi,
    Algorithm::DSingleMaxDoi,
    Algorithm::CBoundaries,
    Algorithm::CMaxBounds,
    Algorithm::DHeurDoi,
    Algorithm::BranchBound,
    Algorithm::Exhaustive,
];

/// P1–P6 with the benchmark's constraints.
fn problems() -> [(&'static str, ProblemSpec); 6] {
    let dmin = Doi::new(0.5);
    [
        ("p1", ProblemSpec::p1(1.0, 500.0)),
        ("p2", ProblemSpec::p2(200)),
        ("p3", ProblemSpec::p3(200, 1.0, 500.0)),
        ("p4", ProblemSpec::p4(dmin)),
        ("p5", ProblemSpec::p5(dmin, 1.0, 500.0)),
        ("p6", ProblemSpec::p6(1.0, 500.0)),
    ]
}

fn profile(db: &cqp_storage::Database, user: usize) -> Profile {
    let defaults = MovieDbConfig::default();
    generate_movie_profile(
        db.catalog(),
        &ProfileGenConfig {
            doi_mean: 0.35 + 0.5 * ((user % 8) as f64 / 8.0),
            doi_deviation: 0.15 + 0.05 * (user % 4) as f64,
            n_directors: defaults.directors,
            n_actors: defaults.actors,
            seed: 1000 + user as u64,
            ..ProfileGenConfig::default()
        },
    )
}

fn config(algorithm: Algorithm, max_k: usize) -> SolverConfig {
    SolverConfig {
        algorithm,
        extract: ExtractConfig {
            max_k,
            ..ExtractConfig::default()
        },
        ..SolverConfig::default()
    }
}

fn answer(sol: &Solution, space_k: usize, pref_dois: &[f64], sql: &str) -> String {
    let dois: Vec<String> = pref_dois
        .iter()
        .map(|d| format!("{:016x}", d.to_bits()))
        .collect();
    format!(
        "prefs={:?} doi={:016x} size={:016x} cost={} found={} k={space_k} dois=[{}] sql={sql}",
        sol.prefs,
        sol.doi.value().to_bits(),
        sol.size_rows.to_bits(),
        sol.cost_blocks,
        sol.found,
        dois.join(" "),
    )
}

/// Folded span paths with their counts, then the `solver.*` counters.
fn observed(obs: &Obs) -> String {
    let spans: Vec<String> = obs
        .spans()
        .iter()
        .map(|s| format!("{}:{}", s.path, s.count))
        .collect();
    let counters: Vec<String> = obs
        .snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("solver."))
        .map(|(name, v)| format!("{}={v}", &name["solver.".len()..]))
        .collect();
    format!(
        "spans=[{}] counters=[{}]",
        spans.join(" "),
        counters.join(" ")
    )
}

fn golden_lines() -> Vec<String> {
    let db = Arc::new(generate_movie_db(&MovieDbConfig {
        block_capacity: 256,
        ..MovieDbConfig::default()
    }));
    let system = CqpSystem::new(&db);
    let driver =
        BatchDriver::new(Arc::clone(&db), 1).with_answer_cache(Arc::new(AnswerCache::new()));
    let inputs: Vec<(String, u64, ConjunctiveQuery, Profile, usize)> = PICKS
        .iter()
        .map(|&(user, t, k)| {
            (
                format!("u{user}/t{t}/k{k}"),
                t as u64,
                parse_query(TEMPLATES[t], db.catalog()).unwrap(),
                profile(&db, user),
                k,
            )
        })
        .collect();

    let mut lines = Vec::new();
    for (name, _, query, profile, k) in &inputs {
        for algo in ALGORITHMS {
            for (p, spec) in problems() {
                let obs = Obs::new();
                let out = system
                    .personalize_recorded(query, profile, &spec, &config(algo, *k), &obs)
                    .unwrap();
                lines.push(format!(
                    "facade {name} {} {p} {} {}",
                    algo.wire_name(),
                    answer(&out.solution, out.space_k, &out.pref_dois, &out.sql),
                    observed(&obs),
                ));
            }
        }
    }

    let mut family = 0usize;
    for (name, template_hash, query, profile, k) in &inputs {
        for algo in ALGORITHMS {
            let request = |problem: ProblemSpec| BatchRequest {
                query: query.clone(),
                profile: profile.clone(),
                problem,
                config: config(algo, *k),
            };
            let cache_req = |version: u64| CacheRequest {
                template_hash: *template_hash,
                profile_key: name.clone(),
                profile_version: version,
            };
            let (off_name, off_spec) = problems()[family % 6];
            family += 1;
            let steps = [
                ("miss", ProblemSpec::p2(200), 1),
                ("exact", ProblemSpec::p2(200), 1),
                ("warm-c400", ProblemSpec::p2(400), 1),
                ("warm-p3", ProblemSpec::p3(200, 1.0, 500.0), 1),
                ("warm-p6", ProblemSpec::p6(1.0, 500.0), 1),
                ("warm-p1", ProblemSpec::p1(1.0, 500.0), 1),
                ("repair", ProblemSpec::p2(200), 2),
            ];
            for (step, spec, version) in steps {
                let obs = Obs::new();
                let (item, tier) = driver
                    .submit_cached_recorded(request(spec), &cache_req(version), &obs)
                    .unwrap();
                lines.push(format!(
                    "driver {name} {} {step} tier={} {} {}",
                    algo.wire_name(),
                    tier.name(),
                    answer(&item.solution, item.space_k, &item.pref_dois, &item.sql),
                    observed(&obs),
                ));
            }
            let obs = Obs::new();
            let item = driver.submit_recorded(request(off_spec), &obs).unwrap();
            lines.push(format!(
                "driver {name} {} submit-{off_name} tier=off {} {}",
                algo.wire_name(),
                answer(&item.solution, item.space_k, &item.pref_dois, &item.sql),
                observed(&obs),
            ));
        }
    }
    let (hits, misses, evictions) = driver.submit_cache_counters();
    lines.push(format!(
        "submit-cache hits={hits} misses={misses} evictions={evictions}"
    ));
    lines
}

#[test]
fn pipeline_runs_match_golden_digests() {
    let lines = golden_lines();
    let golden: Vec<&str> = include_str!("data/pipeline_golden.txt").lines().collect();
    assert_eq!(lines.len(), golden.len());
    for (got, want) in lines.iter().zip(&golden) {
        assert_eq!(got, want);
    }
}
