//! Search equivalence: golden digests of solver runs.
//!
//! Every line of `data/search_golden.txt` is one solve: its answer
//! (`prefs`, the bits of `doi` and `size_rows`, `cost_blocks`, `found`,
//! `degraded`) and its work counters — every [`Instrument`] field except
//! `peak_bytes`, for the merged total and for each phase. `peak_bytes`
//! measures the state representation rather than the search, so it is left
//! out. The digests were captured from the sorted-`Vec<u16>` state
//! representation the bitset `State` replaced; a search that visits one
//! state more, evaluates in a different order or folds a doi in a different
//! order fails here.
//!
//! One exception was re-captured on purpose: the `inst=` counters of the
//! `branch_bound p2` and `branch_bound p3` lines, when branch-and-bound
//! gained the knapsack bound for noisy-or with a cost bound. That bound cuts
//! subtrees the all-remaining bound kept, so 35 of those lines visit fewer
//! states; every answer field of every line is unchanged.
//!
//! Covered:
//! * preference spaces from the benchmark's data (`MovieDbConfig::default()`
//!   at 256 tuples per block, the benchmark's profile generator, K ∈
//!   {8, 12, 16}): the five paper algorithms at cmax ∈ {100, 200, 400},
//!   branch-and-bound and the Section 6 `general` search on P1–P6, and the
//!   generic baselines;
//! * the same P2 solves of C-BOUNDARIES through one bounded shared cost
//!   cache (final hit, miss and eviction counts);
//! * seeded synthetic spaces with K above 64, 128 and 192 (indices in every
//!   word of the 256-bit state), for the algorithms that finish there in
//!   milliseconds, and small synthetic spaces under the three conjunction
//!   models.

use cqp_core::algorithms::{branch_bound, general, generic};
use cqp_core::prelude::*;
use cqp_datagen::{generate_movie_db, generate_movie_profile, MovieDbConfig, ProfileGenConfig};
use cqp_engine::parse_query;
use cqp_obs::NoopRecorder;
use cqp_prefs::{ConjModel, Doi};
use cqp_prefspace::{extract, ExtractConfig, PrefParams, PreferenceSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The benchmark's query templates.
const TEMPLATES: [&str; 10] = [
    "SELECT title FROM MOVIE",
    "SELECT title, year FROM MOVIE",
    "SELECT mid, title FROM MOVIE WHERE MOVIE.year >= 1990",
    "SELECT title, duration FROM MOVIE WHERE MOVIE.year >= 1980",
    "SELECT mid, title FROM MOVIE",
    "SELECT title, duration FROM MOVIE",
    "SELECT title FROM MOVIE WHERE MOVIE.year >= 1975",
    "SELECT title, year FROM MOVIE WHERE MOVIE.year >= 1995",
    "SELECT mid, title FROM MOVIE WHERE MOVIE.year >= 2000",
    "SELECT title, duration FROM MOVIE WHERE MOVIE.year >= 1970",
];

/// The benchmark's P2 cost bounds.
const CMAX: [u64; 3] = [100, 200, 400];

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

fn counters(i: &Instrument) -> String {
    format!(
        "{}/{}/{}/{}/{}/{}/{}/{}",
        i.states_examined,
        i.param_evals,
        i.horizontal_moves,
        i.vertical_moves,
        i.boundaries_found,
        i.cache_hits,
        i.cache_misses,
        i.cache_evictions,
    )
}

fn digest(label: &str, sol: &Solution) -> String {
    let phases: Vec<String> = sol
        .phases
        .iter()
        .map(|(name, i)| format!("{name}:{}", counters(i)))
        .collect();
    format!(
        "{label} prefs={:?} doi={:016x} cost={} size={:016x} found={} degraded={} inst={} phases=[{}]",
        sol.prefs,
        sol.doi.value().to_bits(),
        sol.cost_blocks,
        sol.size_rows.to_bits(),
        sol.found,
        sol.degraded.is_some(),
        counters(&sol.instrument),
        phases.join(" "),
    )
}

/// Preference spaces at the benchmark's scale: 10 users × 3 templates, K
/// rotating through 8, 12 and 16.
fn benchmark_spaces() -> Vec<(String, PreferenceSpace)> {
    let defaults = MovieDbConfig::default();
    let db = generate_movie_db(&MovieDbConfig {
        block_capacity: 256,
        ..MovieDbConfig::default()
    });
    let stats = db.analyze();
    let mut out = Vec::new();
    for user in 0..10usize {
        let profile = generate_movie_profile(
            db.catalog(),
            &ProfileGenConfig {
                doi_mean: 0.35 + 0.5 * ((user % 8) as f64 / 8.0),
                doi_deviation: 0.15 + 0.05 * (user % 4) as f64,
                n_directors: defaults.directors,
                n_actors: defaults.actors,
                seed: 1000 + user as u64,
                ..ProfileGenConfig::default()
            },
        );
        for j in 0..3usize {
            let t = (user * 3 + j) % TEMPLATES.len();
            let max_k = [8, 12, 16][(user + j) % 3];
            let base = parse_query(TEMPLATES[t], db.catalog()).unwrap();
            let space = extract(
                &base,
                &profile,
                &stats,
                &ExtractConfig {
                    max_k,
                    ..ExtractConfig::default()
                },
            )
            .space;
            out.push((format!("u{user}/t{t}/k{}", space.k()), space));
        }
    }
    out
}

/// A seeded synthetic space of `k` preferences costing 1 to `max_cost`
/// blocks.
fn synthetic(k: usize, max_cost: u64, seed: u64) -> PreferenceSpace {
    let mut rng = StdRng::seed_from_u64(seed);
    PreferenceSpace::synthetic(
        (0..k)
            .map(|_| PrefParams {
                doi: Doi::new(rng.gen_range(1..=19u32) as f64 * 0.05),
                cost_blocks: rng.gen_range(1..=max_cost),
                size_factor: rng.gen_range(1..=20u32) as f64 * 0.05,
            })
            .collect(),
        1000.0,
        0,
    )
}

fn golden_lines() -> Vec<String> {
    let conj = ConjModel::NoisyOr;
    let mut lines = Vec::new();
    let shared = SharedCostCache::with_capacity_policy(16, 1024, EvictionPolicy::Lru);
    for (name, space) in benchmark_spaces() {
        for cmax in CMAX {
            for algo in Algorithm::PAPER {
                // The exact and single-phase doi-space searches visit
                // thousands of states at K = 16 below cmax 400; two of
                // those spaces keep the test's run time in check.
                let doi_space = matches!(algo, Algorithm::DMaxDoi | Algorithm::DSingleMaxDoi);
                if doi_space
                    && space.k() > 12
                    && cmax < 400
                    && !name.starts_with("u0/")
                    && !name.starts_with("u5/")
                {
                    continue;
                }
                let sol = solve_p2(&space, conj, cmax, algo);
                lines.push(digest(
                    &format!("{name} {} c{cmax}", algo.wire_name()),
                    &sol,
                ));
            }
            let sol = cqp_core::algorithms::solve_p2_cached(
                &space,
                conj,
                cmax,
                Algorithm::CBoundaries,
                &NoopRecorder,
                Some(&shared),
            );
            lines.push(digest(&format!("{name} c_boundaries/shared c{cmax}"), &sol));
        }
        for (p, spec) in problems() {
            let bb = branch_bound::solve(&space, conj, &spec);
            lines.push(digest(&format!("{name} branch_bound {p}"), &bb));
            let gen = general::solve(&space, conj, &spec);
            lines.push(digest(&format!("{name} general {p}"), &gen));
        }
        if space.k() <= 12 {
            let sols = [
                (
                    "annealing",
                    generic::annealing::solve_p2(&space, conj, 200, 7),
                ),
                ("tabu", generic::tabu::solve_p2(&space, conj, 200, 7)),
                ("genetic", generic::genetic::solve_p2(&space, conj, 200, 7)),
            ];
            for (algo, sol) in sols {
                lines.push(digest(&format!("{name} {algo} c200"), &sol));
            }
        }
    }
    lines.push(format!(
        "shared-cache hits={} misses={} evictions={} len={}",
        shared.hits(),
        shared.misses(),
        shared.evictions(),
        shared.len(),
    ));

    // Wide synthetic spaces: indices reach into the second, third and
    // fourth 64-bit word of a state. Costs scale with K so that about 20
    // preferences fit under cmax 20 whatever K is.
    for (k, seed) in [(80usize, 1u64), (150, 2), (220, 3)] {
        let space = synthetic(k, k as u64, seed);
        for algo in [
            Algorithm::CBoundaries,
            Algorithm::CMaxBounds,
            Algorithm::DHeurDoi,
        ] {
            let sol = solve_p2(&space, conj, 20, algo);
            lines.push(digest(&format!("syn{k} {} c20", algo.wire_name()), &sol));
        }
        let sol = general::solve(&space, conj, &ProblemSpec::p3(20, 1.0, 500.0));
        lines.push(digest(&format!("syn{k} general p3"), &sol));
    }

    // Every conjunction model, on small synthetic spaces.
    for seed in 10..16u64 {
        let space = synthetic(10, 60, seed);
        for (m, model) in [
            ("noisy_or", ConjModel::NoisyOr),
            ("max", ConjModel::Max),
            ("quadrature", ConjModel::Quadrature),
        ] {
            for algo in Algorithm::PAPER {
                let sol = solve_p2(&space, model, 120, algo);
                lines.push(digest(
                    &format!("syn10/{seed} {m} {} c120", algo.wire_name()),
                    &sol,
                ));
            }
            let sol = general::solve(&space, model, &ProblemSpec::p4(Doi::new(0.9)));
            lines.push(digest(&format!("syn10/{seed} {m} general p4"), &sol));
        }
    }
    lines
}

#[test]
fn solver_runs_match_golden_digests() {
    let lines = golden_lines();
    let golden: Vec<&str> = include_str!("data/search_golden.txt").lines().collect();
    assert!(lines.len() >= 500, "only {} solves", lines.len());
    assert_eq!(lines.len(), golden.len());
    for (got, want) in lines.iter().zip(&golden) {
        assert_eq!(got, want);
    }
}
