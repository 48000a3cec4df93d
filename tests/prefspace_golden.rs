//! Extraction equivalence: golden digests of extracted preference spaces.
//!
//! Every line of `data/prefspace_golden.txt` is one Figure 3 extraction:
//! its label, `K`, `candidates_examined`, and a 64-bit FNV-1a digest over
//! each preference's predicate list and doi, the bits of every parameter,
//! the `D`/`C`/`S` vectors, the bits of `base_rows` and `base_cost_blocks`.
//! A traversal that pops one candidate more, emits preferences in another
//! order, or estimates one cost or size differently fails here.
//!
//! Covered, over the benchmark's database (`MovieDbConfig::default()` at
//! 256 tuples per block) and profile generator:
//! * `write_mix`'s reads: 64 users × {base profile, 4 variants} × the first
//!   4 templates at the serving configuration;
//! * `cold_solve`'s shape: 16 users × {top-12, top-16} × 10 templates;
//! * 4 users' base profiles × 10 templates under each non-default
//!   [`ExtractConfig`] setting: `max_k` 12 and 40, doi-only vectors,
//!   `min_doi` 0.3 and 0.5, a 300- and a 40-block cost bound, and
//!   `max_path_len` 2. At this scale `min_doi` 0.3 and the 300-block bound
//!   prune nothing (every extracted doi is above 0.3 and every cost below
//!   80 blocks); the 0.5 and 40-block settings exercise the two prunings.

use cqp_core::answer_cache::{fnv1a, FNV_OFFSET};
use cqp_datagen::{generate_movie_db, generate_movie_profile, MovieDbConfig, ProfileGenConfig};
use cqp_engine::{parse_query, ConjunctiveQuery};
use cqp_prefs::{Doi, Profile};
use cqp_prefspace::{extract, ExtractConfig};
use cqp_storage::DbStats;

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

/// Profile variants per user, as in the benchmark's `write_mix`.
const VARIANTS: usize = 4;

/// The benchmark's profile for `user`.
fn profile(db_config: &MovieDbConfig, catalog: &cqp_storage::Catalog, user: usize) -> Profile {
    generate_movie_profile(
        catalog,
        &ProfileGenConfig {
            doi_mean: 0.35 + 0.5 * ((user % 8) as f64 / 8.0),
            doi_deviation: 0.15 + 0.05 * (user % 4) as f64,
            n_directors: db_config.directors,
            n_actors: db_config.actors,
            seed: 1000 + user as u64,
            ..ProfileGenConfig::default()
        },
    )
}

/// `base` with one selection's doi moved by 0.3: the profile write the
/// benchmark's `write_mix` replays.
fn variant(base: &Profile, user: usize, v: usize) -> Profile {
    let selections = base.graph().selections();
    let target = (user + 7 * v) % selections.len();
    let mut p = Profile::new(base.name.clone());
    for j in base.graph().joins() {
        p.graph_mut().add_join(j.clone());
    }
    for (i, s) in selections.iter().enumerate() {
        let mut s = s.clone();
        if i == target {
            let d = s.doi.value();
            s.doi = Doi::clamped(if d < 0.5 { d + 0.3 } else { d - 0.3 });
        }
        p.graph_mut().add_selection(s);
    }
    p
}

fn digest_usizes(h: u64, v: &[usize]) -> u64 {
    let h = fnv1a(h, &(v.len() as u64).to_le_bytes());
    v.iter()
        .fold(h, |h, &i| fnv1a(h, &(i as u64).to_le_bytes()))
}

/// One golden line for one extraction.
fn line(
    label: &str,
    query: &ConjunctiveQuery,
    profile: &Profile,
    stats: &DbStats,
    config: &ExtractConfig,
) -> String {
    let ex = extract(query, profile, stats, config);
    let space = &ex.space;
    let mut h = FNV_OFFSET;
    for pref in &space.prefs {
        h = fnv1a(h, format!("{:?}", pref.predicates()).as_bytes());
        h = fnv1a(h, &pref.doi.value().to_bits().to_le_bytes());
    }
    for p in &space.params {
        h = fnv1a(h, &p.doi.value().to_bits().to_le_bytes());
        h = fnv1a(h, &p.cost_blocks.to_le_bytes());
        h = fnv1a(h, &p.size_factor.to_bits().to_le_bytes());
    }
    h = digest_usizes(h, &space.d);
    h = digest_usizes(h, &space.c);
    h = digest_usizes(h, &space.s);
    h = fnv1a(h, &space.base_rows.to_bits().to_le_bytes());
    h = fnv1a(h, &space.base_cost_blocks.to_le_bytes());
    format!(
        "{label} k={} examined={} digest={h:016x}",
        space.k(),
        ex.candidates_examined
    )
}

fn golden_lines() -> Vec<String> {
    let db_config = MovieDbConfig {
        block_capacity: 256,
        ..MovieDbConfig::default()
    };
    let db = generate_movie_db(&db_config);
    let stats = db.analyze();
    let catalog = db.catalog();
    let queries: Vec<ConjunctiveQuery> = TEMPLATES
        .iter()
        .map(|t| parse_query(t, catalog).unwrap())
        .collect();
    let serving = ExtractConfig::default();
    let mut lines = Vec::new();

    // write_mix: every user's base profile and its variants.
    for user in 0..64 {
        let base = profile(&db_config, catalog, user);
        let mut profiles = vec![("base".to_owned(), base.clone())];
        profiles.extend((0..VARIANTS).map(|v| (format!("v{v}"), variant(&base, user, v))));
        for (name, p) in &profiles {
            for (t, q) in queries.iter().enumerate().take(4) {
                lines.push(line(
                    &format!("wm/u{user}/{name}/t{t}"),
                    q,
                    p,
                    &stats,
                    &serving,
                ));
            }
        }
    }

    // cold_solve: personalization depths 12 and 16.
    for user in 0..16 {
        let base = profile(&db_config, catalog, user);
        for k in [12, 16] {
            let p = base.with_top_k_selections(k);
            for (t, q) in queries.iter().enumerate() {
                lines.push(line(
                    &format!("cs/u{user}/k{k}/t{t}"),
                    q,
                    &p,
                    &stats,
                    &serving,
                ));
            }
        }
    }

    // Every non-default extraction setting.
    let configs = [
        (
            "k12",
            ExtractConfig {
                max_k: 12,
                ..ExtractConfig::default()
            },
        ),
        (
            "k40",
            ExtractConfig {
                max_k: 40,
                ..ExtractConfig::default()
            },
        ),
        (
            "doi_only",
            ExtractConfig {
                with_cost_vectors: false,
                ..ExtractConfig::default()
            },
        ),
        (
            "min_doi",
            ExtractConfig {
                min_doi: 0.3,
                ..ExtractConfig::default()
            },
        ),
        (
            "cmax300",
            ExtractConfig {
                cost_max_blocks: Some(300),
                ..ExtractConfig::default()
            },
        ),
        (
            "path2",
            ExtractConfig {
                max_path_len: 2,
                ..ExtractConfig::default()
            },
        ),
        (
            "min_doi50",
            ExtractConfig {
                min_doi: 0.5,
                ..ExtractConfig::default()
            },
        ),
        (
            "cmax40",
            ExtractConfig {
                cost_max_blocks: Some(40),
                ..ExtractConfig::default()
            },
        ),
    ];
    for user in 0..4 {
        let p = profile(&db_config, catalog, user);
        for (name, config) in &configs {
            for (t, q) in queries.iter().enumerate() {
                lines.push(line(&format!("{name}/u{user}/t{t}"), q, &p, &stats, config));
            }
        }
    }
    lines
}

#[test]
fn extracted_spaces_match_golden_digests() {
    let lines = golden_lines();
    let golden: Vec<&str> = include_str!("data/prefspace_golden.txt").lines().collect();
    assert_eq!(lines.len(), 1920);
    assert_eq!(lines.len(), golden.len());
    for (got, want) in lines.iter().zip(&golden) {
        assert_eq!(got, want);
    }
}
