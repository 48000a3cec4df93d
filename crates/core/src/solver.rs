//! The CQP system facade — the full architecture of paper Figure 2.
//!
//! `User query + profile + search context → Preference Space → Parameter
//! Estimation → CQP State Space Search → Personalized Query Construction →
//! Query Execution`. [`CqpSystem`] wires the modules of this workspace into
//! that pipeline, and holds its only copy: [`CqpSystem::personalize`] and
//! the batch driver's request path ([`crate::batch`]) both run one
//! crate-private prefspace → search → construct function. The driver hands
//! it its shared P2 cost cache, plus the cached preference space and
//! warm-start bound of an answer-cache warm hit; the facade passes none of
//! them.

use crate::algorithms::{
    branch_bound, exhaustive, general, solve_p2_budgeted, traced, Algorithm, Solution,
};
use crate::budget::{Budget, CancelToken};
use crate::construct::construct;
use crate::cost_cache::SharedCostCache;
use crate::error::CqpError;
use crate::params::QueryParams;
use crate::problem::{ProblemKind, ProblemSpec};
use cqp_engine::{
    execute_personalized, execute_personalized_recorded, ConjunctiveQuery, ExecOutput,
    PersonalizedQuery,
};
use cqp_obs::record::span_guard;
use cqp_obs::{NoopRecorder, Recorder};
use cqp_par::ThreadPool;
use cqp_prefs::{ConjModel, Profile};
use cqp_prefspace::{extract, ExtractConfig, PreferenceSpace};
use cqp_storage::{Database, DbStats, IoMeter};
use std::sync::Arc;

/// How much hardware parallelism a search may use.
///
/// `threads == 1` (the default) is the sequential baseline every parallel
/// path is tested bit-identical against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads for partitionable searches (clamped to
    /// `1..=`[`cqp_par::MAX_WORKERS`] by the pool).
    pub threads: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism { threads: 1 }
    }
}

impl Parallelism {
    /// `threads` workers (0 is treated as 1 by the pool).
    pub fn new(threads: usize) -> Self {
        Parallelism { threads }
    }

    /// One worker per hardware thread.
    pub fn auto() -> Self {
        Parallelism {
            threads: cqp_par::available_parallelism(),
        }
    }

    /// A pool of this width.
    pub fn pool(&self) -> ThreadPool {
        ThreadPool::new(self.threads)
    }
}

/// Configuration for one personalization request.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// The conjunction model `r` (Formula 10 by default).
    pub conj: ConjModel,
    /// Preference extraction parameters (`K`, pruning thresholds, …).
    pub extract: ExtractConfig,
    /// Search algorithm (used directly for Problem 2; other problems use
    /// the Section 6 adaptation, or branch-and-bound when selected).
    pub algorithm: Algorithm,
    /// Worker threads for partitionable searches (Exhaustive and
    /// BranchBound split their subset enumeration across a pool; the
    /// paper's graph searches are sequential and ignore this — batch-level
    /// parallelism across requests is [`crate::batch`]'s job).
    pub parallelism: Parallelism,
    /// Wall-clock / state budget for the search phase. When exceeded the
    /// search returns its best-so-far incumbent tagged
    /// [`Solution::degraded`] instead of running to completion. Unlimited
    /// by default.
    pub budget: Budget,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            conj: ConjModel::NoisyOr,
            extract: ExtractConfig::default(),
            algorithm: Algorithm::CMaxBounds,
            parallelism: Parallelism::default(),
            budget: Budget::unlimited(),
        }
    }
}

/// Errors surfaced by the system facade — the unified [`CqpError`].
///
/// Historical alias: earlier revisions had a facade-local two-variant enum;
/// the taxonomy now lives in [`crate::error`] so storage faults and request
/// validation share one type with construction and execution failures.
pub type SolverError = CqpError;

/// The result of a personalization request: what the answer cache stores
/// and what every request path returns.
#[derive(Debug, Clone)]
pub struct PersonalizationOutcome {
    /// The selected preferences and their estimated parameters.
    pub solution: Solution,
    /// The constructed personalized query.
    pub query: PersonalizedQuery,
    /// The query rendered as SQL (the paper's Section 4.2 form).
    pub sql: String,
    /// Number of preferences the Preference Space produced (`K`).
    pub space_k: usize,
    /// Dois of the selected preferences, in [`Solution::prefs`] order —
    /// what ranked execution ([`CqpSystem::execute_ranked`]) scores rows
    /// against, kept so callers need not re-extract the preference space.
    pub pref_dois: Vec<f64>,
}

/// The CQP system: a database plus its statistics, ready to personalize
/// queries for any profile.
#[derive(Debug)]
pub struct CqpSystem<'a> {
    db: &'a Database,
    stats: Arc<DbStats>,
}

impl<'a> CqpSystem<'a> {
    /// Builds the system, analyzing the database for statistics.
    pub fn new(db: &'a Database) -> Self {
        Self::new_recorded(db, &NoopRecorder)
    }

    /// [`CqpSystem::new`] with the catalog analysis pass traced and its
    /// row/table counters published (`storage.analyze` span).
    pub fn new_recorded(db: &'a Database, recorder: &dyn Recorder) -> Self {
        CqpSystem {
            db,
            stats: Arc::new(db.analyze_recorded(recorder)),
        }
    }

    /// Builds the system from already-computed statistics, skipping the
    /// analysis pass. The batch driver passes its `Arc` so every concurrent
    /// request shares one `DbStats` instead of re-analyzing or copying it
    /// per request.
    pub fn from_parts(db: &'a Database, stats: impl Into<Arc<DbStats>>) -> Self {
        CqpSystem {
            db,
            stats: stats.into(),
        }
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        self.db
    }

    /// The statistics the estimators run on.
    pub fn stats(&self) -> &DbStats {
        &self.stats
    }

    /// Extracts the preference space for a query/profile pair.
    pub fn preference_space(
        &self,
        query: &ConjunctiveQuery,
        profile: &Profile,
        config: &SolverConfig,
    ) -> PreferenceSpace {
        let mut extract_cfg = config.extract.clone();
        // Cost-based algorithms need the C/S vectors; the cost bound (if
        // any) lets extraction prune hopeless preferences (Figure 3).
        extract_cfg.with_cost_vectors =
            extract_cfg.with_cost_vectors || config.algorithm.needs_cost_vectors();
        extract(query, profile, &self.stats, &extract_cfg).space
    }

    /// Runs the full pipeline for one CQP problem, returning a typed
    /// [`CqpError`] for every failure mode: infeasible request shapes are
    /// rejected up front ([`CqpError::SpaceTooLarge`]), construction and
    /// execution errors propagate, and budget overruns degrade the solution
    /// ([`Solution::degraded`]) instead of failing the request.
    pub fn personalize(
        &self,
        query: &ConjunctiveQuery,
        profile: &Profile,
        problem: &ProblemSpec,
        config: &SolverConfig,
    ) -> Result<PersonalizationOutcome, SolverError> {
        self.personalize_recorded(query, profile, problem, config, &NoopRecorder)
    }

    /// [`CqpSystem::personalize`] under a `personalize` span with nested
    /// `prefspace` / `search` / `construct` phases; the recorder also sees
    /// the `solver.*` counters.
    pub fn personalize_recorded(
        &self,
        query: &ConjunctiveQuery,
        profile: &Profile,
        problem: &ProblemSpec,
        config: &SolverConfig,
        recorder: &dyn Recorder,
    ) -> Result<PersonalizationOutcome, SolverError> {
        let _run = span_guard(recorder, "personalize");
        self.pipeline(query, profile, problem, config, None, None, recorder)
            .map(|(outcome, _)| outcome)
    }

    /// The one prefspace → search → construct pipeline. `reuse` supplies an
    /// already-extracted space (skipping extraction and its `prefspace`
    /// span) and optionally a warm-start bound for branch-and-bound, which
    /// must be feasible under `problem`; `shared` routes C-BOUNDARIES' cost
    /// evaluations through a cross-request cache. Neither changes the
    /// answer. Returns the outcome and the space it was solved on.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn pipeline(
        &self,
        query: &ConjunctiveQuery,
        profile: &Profile,
        problem: &ProblemSpec,
        config: &SolverConfig,
        reuse: Option<(PreferenceSpace, Option<QueryParams>)>,
        shared: Option<&SharedCostCache>,
        recorder: &dyn Recorder,
    ) -> Result<(PersonalizationOutcome, PreferenceSpace), SolverError> {
        let (space, warm) = match reuse {
            Some(reuse) => reuse,
            None => {
                let _span = span_guard(recorder, "prefspace");
                (self.preference_space(query, profile, config), None)
            }
        };
        // The exhaustive oracle enumerates 2^K subsets and asserts on
        // oversized spaces; turn that into a typed rejection so one
        // oversized request cannot abort a batch.
        if config.algorithm == Algorithm::Exhaustive && space.k() > exhaustive::MAX_EXHAUSTIVE_K {
            return Err(CqpError::SpaceTooLarge {
                k: space.k(),
                max: exhaustive::MAX_EXHAUSTIVE_K,
            });
        }
        let solution = {
            let _span = span_guard(recorder, "search");
            search_recorded(&space, problem, config, warm, shared, recorder)
        };
        let pq = {
            let _span = span_guard(recorder, "construct");
            construct(query, &space, &solution.prefs)?
        };
        let sql = cqp_engine::sql::personalized_sql(self.db.catalog(), &pq);
        let pref_dois = solution
            .prefs
            .iter()
            .map(|&i| space.doi(i).value())
            .collect();
        let outcome = PersonalizationOutcome {
            solution,
            query: pq,
            sql,
            space_k: space.k(),
            pref_dois,
        };
        Ok((outcome, space))
    }

    /// Executes a personalized query on the database, returning the rows
    /// and the metered I/O cost (`blocks, simulated ms`).
    pub fn execute(
        &self,
        pq: &PersonalizedQuery,
        ms_per_block: f64,
    ) -> Result<(ExecOutput, u64, f64), SolverError> {
        let meter = IoMeter::new(ms_per_block);
        let out = execute_personalized(self.db, pq, &meter)?;
        Ok((out, meter.blocks_read(), meter.elapsed_ms()))
    }

    /// [`CqpSystem::execute`] with execution spans and engine/storage
    /// counters: the I/O meter forwards every physical block read to the
    /// recorder, and the executor reports scans, joins, and row counts.
    pub fn execute_recorded(
        &self,
        pq: &PersonalizedQuery,
        ms_per_block: f64,
        recorder: Arc<dyn Recorder>,
    ) -> Result<(ExecOutput, u64, f64), SolverError> {
        let meter = IoMeter::with_recorder(ms_per_block, Arc::clone(&recorder));
        let out = execute_personalized_recorded(self.db, pq, &meter, &*recorder)?;
        Ok((out, meter.blocks_read(), meter.elapsed_ms()))
    }

    /// Executes a personalization outcome in *ranked* mode: rows that
    /// satisfy at least `min_satisfied` of the selected preferences,
    /// ordered by the doi of the preferences each row satisfies
    /// (Section 3's ranking requirement).
    pub fn execute_ranked(
        &self,
        outcome: &PersonalizationOutcome,
        min_satisfied: usize,
        ms_per_block: f64,
    ) -> Result<Vec<cqp_engine::RankedRow>, SolverError> {
        let meter = IoMeter::new(ms_per_block);
        let rows = cqp_engine::execute_ranked(
            self.db,
            &outcome.query,
            &outcome.pref_dois,
            cqp_engine::Matching::AtLeast(min_satisfied),
            &meter,
        )?;
        Ok(rows)
    }
}

/// The search dispatcher, under one [`CancelToken`] derived from
/// `config.budget` and shared by every search path (and every pool worker
/// in the partitioned ones); a tripped token tags the returned incumbent
/// [`Solution::degraded`].
///
/// * Branch-and-bound on any problem, seeded with `warm` when given and
///   otherwise partitioned across `config.parallelism` when it is wider
///   than one thread.
/// * Problem 2 with its cost bound: Exhaustive is partitioned likewise;
///   every other algorithm runs through [`solve_p2_budgeted`], whose
///   C-BOUNDARIES memoizes costs in `shared` when given.
/// * Everything else: the Section 6 general search.
fn search_recorded(
    space: &PreferenceSpace,
    problem: &ProblemSpec,
    config: &SolverConfig,
    warm: Option<QueryParams>,
    shared: Option<&SharedCostCache>,
    recorder: &dyn Recorder,
) -> Solution {
    let token = CancelToken::for_budget(&config.budget);
    let partition = config.parallelism.threads > 1;
    let conj = config.conj;
    // P2 specs built via `ProblemSpec::p2` always carry their cost bound; a
    // hand-rolled spec without one falls through to the general search
    // instead of panicking.
    let p2_cmax = (problem.kind() == Some(ProblemKind::P2))
        .then_some(problem.constraints.cost_max_blocks)
        .flatten();
    match (config.algorithm, p2_cmax) {
        (Algorithm::BranchBound, _) => traced(recorder, "BranchBound", &token, || {
            if partition && warm.is_none() {
                let pool = config.parallelism.pool();
                branch_bound::solve_partitioned_bounded(space, conj, problem, &pool, &token)
            } else {
                branch_bound::solve_bounded_warm(space, conj, problem, &token, warm)
            }
        }),
        (Algorithm::Exhaustive, Some(cmax)) if partition => {
            traced(recorder, "Exhaustive", &token, || {
                let pool = config.parallelism.pool();
                let p2 = ProblemSpec::p2(cmax);
                exhaustive::solve_partitioned_bounded(space, conj, &p2, &pool, &token)
            })
        }
        (algorithm, Some(cmax)) => {
            solve_p2_budgeted(space, conj, cmax, algorithm, recorder, shared, &token)
        }
        (_, None) => traced(recorder, "general", &token, || {
            general::solve_bounded(space, conj, problem, &token)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqp_engine::QueryBuilder;
    use cqp_prefs::Doi;
    use cqp_storage::{DataType, RelationSchema, Value};

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

    #[test]
    fn end_to_end_personalization() {
        let db = movie_db();
        let system = CqpSystem::new(&db);
        let base = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let profile = Profile::paper_figure1(db.catalog()).unwrap();

        // Generous budget: both Figure 1 preferences fit.
        let outcome = system
            .personalize(
                &base,
                &profile,
                &ProblemSpec::p2(100),
                &SolverConfig::default(),
            )
            .unwrap();
        assert_eq!(outcome.space_k, 2);
        assert_eq!(outcome.solution.prefs.len(), 2);
        assert!(outcome.sql.contains("having count(*) = 2"));

        // Execute: results are W. Allen musicals (movies 0,4,8,... by d0
        // with even mid — mid % 4 == 0).
        let (rows, blocks, ms) = system.execute(&outcome.query, 1.0).unwrap();
        assert!(!rows.is_empty());
        assert!(blocks > 0);
        assert!(ms > 0.0);
    }

    #[test]
    fn tight_budget_prunes_preferences() {
        let db = movie_db();
        let system = CqpSystem::new(&db);
        let base = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let profile = Profile::paper_figure1(db.catalog()).unwrap();
        // MOVIE has 10 blocks, DIRECTOR 1, GENRE 10: the W. Allen sub-query
        // costs 11, the musical one 20. With cmax=15, only W. Allen fits.
        let outcome = system
            .personalize(
                &base,
                &profile,
                &ProblemSpec::p2(15),
                &SolverConfig::default(),
            )
            .unwrap();
        assert_eq!(outcome.solution.prefs.len(), 1);
        assert!(outcome.solution.cost_blocks <= 15);
    }

    #[test]
    fn all_algorithms_agree_on_doi_here() {
        let db = movie_db();
        let system = CqpSystem::new(&db);
        let base = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let profile = Profile::paper_figure1(db.catalog()).unwrap();
        let mut dois = Vec::new();
        for algo in Algorithm::PAPER {
            let config = SolverConfig {
                algorithm: algo,
                ..Default::default()
            };
            let outcome = system
                .personalize(&base, &profile, &ProblemSpec::p2(100), &config)
                .unwrap();
            dois.push(outcome.solution.doi);
        }
        assert!(dois.windows(2).all(|w| w[0] == w[1]), "{dois:?}");
    }

    #[test]
    fn ranked_execution_via_facade() {
        let db = movie_db();
        let system = CqpSystem::new(&db);
        let base = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let profile = Profile::paper_figure1(db.catalog()).unwrap();
        let config = SolverConfig::default();
        // Ranked execution of a P2 outcome: soft matching returns at least
        // as many rows as the strict conjunction.
        let outcome = system
            .personalize(&base, &profile, &ProblemSpec::p2(100), &config)
            .unwrap();
        let space = system.preference_space(&base, &profile, &config);
        let dois: Vec<f64> = outcome
            .solution
            .prefs
            .iter()
            .map(|&i| space.doi(i).value())
            .collect();
        assert_eq!(outcome.pref_dois, dois);
        let strict = system.execute(&outcome.query, 1.0).unwrap().0;
        let soft = system.execute_ranked(&outcome, 1, 1.0).unwrap();
        assert!(soft.len() >= strict.len());
        for w in soft.windows(2) {
            assert!(w[0].doi >= w[1].doi);
        }
    }

    #[test]
    fn recorded_pipeline_emits_spans_and_counters() {
        let db = movie_db();
        let obs: Arc<cqp_obs::Obs> = Arc::new(cqp_obs::Obs::new());
        let system = CqpSystem::new_recorded(&db, &*obs);
        let base = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let profile = Profile::paper_figure1(db.catalog()).unwrap();
        let config = SolverConfig {
            algorithm: Algorithm::CBoundaries,
            ..Default::default()
        };
        let outcome = system
            .personalize_recorded(&base, &profile, &ProblemSpec::p2(100), &config, &*obs)
            .unwrap();
        let (_rows, blocks, _ms) = system
            .execute_recorded(&outcome.query, 1.0, obs.clone())
            .unwrap();

        // Solver-phase spans nest under personalize → search → algorithm.
        let spans = obs.spans();
        let paths: Vec<&str> = spans.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"storage.analyze"), "{paths:?}");
        assert!(paths.contains(&"personalize.search.C_Boundaries.find_boundaries"));
        assert!(paths.contains(&"personalize.search.C_Boundaries.find_max_doi"));
        assert!(paths.contains(&"personalize.construct"));
        assert!(paths.contains(&"engine.execute_personalized"));

        // Counters flowed from all three layers into one registry.
        let reg = obs.registry();
        assert!(reg.counter("solver.states_examined") > 0);
        assert!(reg.counter("engine.scans") > 0);
        assert_eq!(reg.counter("storage.blocks_read"), blocks);
        assert!(blocks > 0);
    }

    #[test]
    fn problem4_via_facade() {
        let db = movie_db();
        let system = CqpSystem::new(&db);
        let base = QueryBuilder::from(db.catalog(), "MOVIE")
            .unwrap()
            .select("MOVIE", "title")
            .unwrap()
            .build();
        let profile = Profile::paper_figure1(db.catalog()).unwrap();
        let outcome = system
            .personalize(
                &base,
                &profile,
                &ProblemSpec::p4(Doi::new(0.5)),
                &SolverConfig::default(),
            )
            .unwrap();
        assert!(outcome.solution.doi >= Doi::new(0.5));
    }
}
