//! Workload construction for the experiments.
//!
//! Paper defaults (Section 7.2): `K = 20`, `cmax = 400 ms` (with
//! `b = 1 ms/block`, i.e. 400 blocks), each point averaged over
//! 20 profiles × 10 queries. The full 200-run setting is available as
//! [`Scale::paper`]; [`Scale::default_scale`] uses a smaller cross product
//! so the complete suite runs in minutes, and [`Scale::tiny`] keeps CI
//! fast.

use cqp_datagen::{
    generate_movie_db, generate_movie_profile, generate_movie_queries, MovieDbConfig,
    ProfileGenConfig, QueryGenConfig,
};
use cqp_engine::ConjunctiveQuery;
use cqp_obs::Obs;
use cqp_prefs::Profile;
use cqp_prefspace::{extract, ExtractConfig, PreferenceSpace};
use cqp_storage::{Database, DbStats};

/// Experiment scale knobs.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Database generator configuration.
    pub db: MovieDbConfig,
    /// Number of profiles per point.
    pub profiles: usize,
    /// Number of queries per point.
    pub queries: usize,
    /// The default cost bound in blocks (the paper's `cmax = 400 ms` at
    /// `b = 1 ms/block`), used when `cmax_supreme_frac` is `None`.
    pub cmax_blocks: u64,
    /// When set, the K-sweep experiments bind the budget at this fraction
    /// of each space's Supreme Cost instead of the constant.
    ///
    /// The paper used a constant 400 ms, which on *its* data sat near the
    /// Figure 12(c) hump (~50 % of Supreme Cost) at the default `K = 20`.
    /// Our synthetic substrate has a different cost scale, so holding the
    /// constant would leave low-K points trivially feasible; holding the
    /// *ratio* keeps every point in the paper's regime.
    pub cmax_supreme_frac: Option<f64>,
    /// Human-readable name.
    pub name: &'static str,
}

impl Scale {
    /// The effective budget for one preference space: the Supreme-Cost
    /// fraction when configured, else the fixed constant.
    pub fn cmax_for(&self, space: &PreferenceSpace) -> u64 {
        match self.cmax_supreme_frac {
            Some(frac) => (supreme_cost_blocks(space) as f64 * frac).round() as u64,
            None => self.cmax_blocks,
        }
    }
}

impl Scale {
    /// Block capacity placing relation block-counts in the paper's regime:
    /// with `cmax = 400` and `b = 1 ms/block`, a feasible personalization
    /// holds on the order of ten preferences, which is where the paper's
    /// Figure 14 quality gaps (~10⁻⁷) live — Formula 10 saturates quickly
    /// as preferences accumulate (Section 7.2.3).
    const PAPER_REGIME_BLOCK_CAPACITY: usize = 256;

    /// The paper's full setting: 20 profiles × 10 queries.
    pub fn paper() -> Self {
        Scale {
            db: MovieDbConfig {
                block_capacity: Self::PAPER_REGIME_BLOCK_CAPACITY,
                ..Default::default()
            },
            profiles: 20,
            queries: 10,
            cmax_blocks: 400,
            cmax_supreme_frac: Some(0.5),
            name: "paper",
        }
    }

    /// A balanced default: the same database, 3 profiles × 3 queries.
    pub fn default_scale() -> Self {
        Scale {
            db: MovieDbConfig {
                block_capacity: Self::PAPER_REGIME_BLOCK_CAPACITY,
                ..Default::default()
            },
            profiles: 3,
            queries: 3,
            cmax_blocks: 400,
            cmax_supreme_frac: Some(0.5),
            name: "default",
        }
    }

    /// A minimal setting for tests and smoke runs.
    pub fn tiny() -> Self {
        Scale {
            db: MovieDbConfig::tiny(42),
            profiles: 2,
            queries: 2,
            cmax_blocks: 120,
            cmax_supreme_frac: None,
            name: "tiny",
        }
    }

    /// Parses a scale name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "paper" => Some(Scale::paper()),
            "default" => Some(Scale::default_scale()),
            "tiny" => Some(Scale::tiny()),
            _ => None,
        }
    }
}

/// A fully built workload: database, statistics, profiles, queries.
pub struct Workload {
    /// The synthetic movie database.
    pub db: Database,
    /// Its statistics (`ANALYZE` output).
    pub stats: DbStats,
    /// The profiles (varied dois per seed).
    pub profiles: Vec<Profile>,
    /// The query workload.
    pub queries: Vec<ConjunctiveQuery>,
    /// The scale it was built at.
    pub scale: Scale,
}

impl Workload {
    /// Every (profile, query) run pair.
    pub fn pairs(&self) -> impl Iterator<Item = (&Profile, &ConjunctiveQuery)> {
        self.profiles
            .iter()
            .flat_map(move |p| self.queries.iter().map(move |q| (p, q)))
    }

    /// Number of run pairs.
    pub fn num_pairs(&self) -> usize {
        self.profiles.len() * self.queries.len()
    }

    /// Extracts a preference space of (up to) `k` preferences for one pair,
    /// returning it with the extraction wall time in seconds.
    pub fn space(
        &self,
        profile: &Profile,
        query: &ConjunctiveQuery,
        k: usize,
        with_cost_vectors: bool,
    ) -> (PreferenceSpace, f64) {
        self.space_recorded(profile, query, k, with_cost_vectors, &Obs::new())
    }

    /// [`Workload::space`] under a shared [`Obs`]: extraction runs inside a
    /// `prefspace.extract` span so repeated calls aggregate in its tree.
    pub fn space_recorded(
        &self,
        profile: &Profile,
        query: &ConjunctiveQuery,
        k: usize,
        with_cost_vectors: bool,
        obs: &Obs,
    ) -> (PreferenceSpace, f64) {
        let cfg = ExtractConfig {
            max_k: k,
            with_cost_vectors,
            ..Default::default()
        };
        let (ex, secs) = timed_span(obs, "prefspace.extract", || {
            extract(query, profile, &self.stats, &cfg)
        });
        (ex.space, secs)
    }
}

/// Builds the workload for a scale.
pub fn build_workload(scale: &Scale) -> Workload {
    let db = generate_movie_db(&scale.db);
    let stats = db.analyze();
    let base_profile_cfg = ProfileGenConfig {
        n_directors: scale.db.directors,
        n_actors: scale.db.actors,
        ..Default::default()
    };
    let profiles: Vec<Profile> = (0..scale.profiles)
        .map(|i| {
            // Vary the doi distribution across profiles, as in [12]'s
            // setting: different means and deviations.
            let mean = 0.35 + 0.5 * (i as f64 / scale.profiles.max(1) as f64);
            let dev = 0.15 + 0.05 * (i % 4) as f64;
            let cfg = ProfileGenConfig {
                doi_mean: mean,
                doi_deviation: dev,
                seed: 1000 + i as u64,
                ..base_profile_cfg.clone()
            };
            generate_movie_profile(db.catalog(), &cfg)
        })
        .collect();
    let queries = generate_movie_queries(
        db.catalog(),
        &QueryGenConfig {
            count: scale.queries,
            ..Default::default()
        },
    );
    Workload {
        db,
        stats,
        profiles,
        queries,
        scale: scale.clone(),
    }
}

/// The *Supreme Cost* of a space: the cost of the query incorporating all
/// `K` preferences — "the most expensive query based on our cost
/// assumptions" (Section 7.2).
pub fn supreme_cost_blocks(space: &PreferenceSpace) -> u64 {
    (0..space.k()).map(|i| space.cost_blocks(i)).sum()
}

/// Runs `f` inside a root span `name` on `obs` and returns its output plus
/// the wall seconds the span tree attributed to *this* entry (total delta,
/// so it works on an `Obs` shared across repeated runs).
pub fn timed_span<R>(obs: &Obs, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let before = span_secs(obs, name);
    let r = {
        let _span = obs.span(name);
        f()
    };
    (r, span_secs(obs, name) - before)
}

/// Total wall seconds `obs`'s span tree holds for the span whose dotted
/// path equals `path` (0.0 if the span never ran).
pub fn span_secs(obs: &Obs, path: &str) -> f64 {
    obs.spans()
        .iter()
        .filter(|s| s.path == path)
        .map(|s| s.total.as_secs_f64())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_workload_builds_and_extracts() {
        let w = build_workload(&Scale::tiny());
        assert_eq!(w.num_pairs(), 4);
        let (p, q) = w.pairs().next().unwrap();
        let (space, secs) = w.space(p, q, 10, true);
        assert!(space.k() > 0, "extraction must find related preferences");
        assert!(space.k() <= 10);
        assert!(secs >= 0.0);
        space.check_invariants().unwrap();
        assert!(supreme_cost_blocks(&space) > 0);
    }

    #[test]
    fn k_is_reachable_at_default_scale_params() {
        // The profile generator must supply >= 40 related preferences.
        let w = build_workload(&Scale::tiny());
        let (p, q) = w.pairs().next().unwrap();
        let (space, _) = w.space(p, q, 40, true);
        // Tiny profiles carry fewer selections; the important invariant is
        // that extraction is capped by max_k and monotone in it.
        let (space5, _) = w.space(p, q, 5, true);
        assert!(space5.k() <= 5);
        assert!(space.k() >= space5.k());
    }

    #[test]
    fn timed_span_times_through_the_tracer() {
        let obs = Obs::new();
        let (v, t1) = timed_span(&obs, "work", || 42);
        assert_eq!(v, 42);
        assert!(t1 >= 0.0);
        let (_, t2) = timed_span(&obs, "work", || ());
        // Both entries aggregate in the tree, yet each call reported only
        // its own delta.
        assert!((span_secs(&obs, "work") - (t1 + t2)).abs() < 1e-9);
        assert_eq!(obs.spans()[0].count, 2);
        assert_eq!(span_secs(&obs, "no-such-span"), 0.0);
    }

    #[test]
    fn scale_lookup() {
        assert_eq!(Scale::by_name("paper").unwrap().profiles, 20);
        assert_eq!(Scale::by_name("tiny").unwrap().name, "tiny");
        assert!(Scale::by_name("nope").is_none());
    }
}
