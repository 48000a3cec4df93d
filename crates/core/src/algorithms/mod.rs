//! The CQP search algorithms (paper Section 5.2) and baselines.
//!
//! Exact for Problem 2 (`MAX doi` s.t. `cost ≤ cmax`):
//!
//! * [`c_boundaries`] — Theorem 2,
//! * [`d_maxdoi`] — Theorem 3,
//! * [`exhaustive`] — `O(2^K)` reference oracle,
//! * [`branch_bound`] — exact branch-and-bound over the additive
//!   reformulation (doubles as the knapsack-style baseline the Related Work
//!   section discusses).
//!
//! Heuristic:
//!
//! * [`c_maxbounds`], [`d_singlemaxdoi`], [`d_heurdoi`] — the paper's fast
//!   heuristics, evaluated for quality in Figure 14,
//! * [`generic`] — simulated annealing / tabu / genetic baselines.

pub mod branch_bound;
pub mod c_boundaries;
pub mod c_maxbounds;
pub mod d_heurdoi;
pub mod d_maxdoi;
pub mod d_singlemaxdoi;
pub mod exhaustive;
pub mod find_max_doi;
pub mod general;
pub mod generic;
pub mod pareto;
pub mod prune;

use crate::budget::{CancelToken, DegradedInfo};
use crate::cost_cache::SharedCostCache;
use crate::instrument::Instrument;
use crate::params::{ParamEval, QueryParams};
use crate::state::State;
use cqp_obs::record::span_guard;
use cqp_obs::{NoopRecorder, Recorder};
use cqp_prefs::{ConjModel, Doi};
use cqp_prefspace::PreferenceSpace;

/// The result of a CQP search: the preferences to integrate plus the
/// estimated parameters of the personalized query they induce.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Selected preferences as sorted P-indices (`PU` in the paper).
    pub prefs: Vec<usize>,
    /// `doi(Q ∧ PU)` (`MaxDoi` in the paper's pseudocode).
    pub doi: Doi,
    /// `cost(Q ∧ PU)` in blocks.
    pub cost_blocks: u64,
    /// Estimated result size in rows.
    pub size_rows: f64,
    /// True when a non-empty feasible personalization was found; false
    /// means "run the query unpersonalized".
    pub found: bool,
    /// Work and memory counters, blended over the whole run.
    pub instrument: Instrument,
    /// Per-phase counters for multi-phase algorithms (empty for
    /// single-phase ones). `instrument` remains the merged total; this
    /// preserves the attribution that `Instrument::merge` erases.
    pub phases: Vec<(&'static str, Instrument)>,
    /// `Some` when the search gave up before completion (deadline, state
    /// budget, or external cancellation) and this is the best-so-far
    /// incumbent rather than the algorithm's full answer. Incumbents are
    /// feasible by construction, so a degraded solution with `found == true`
    /// still satisfies the problem's hard range constraints.
    pub degraded: Option<DegradedInfo>,
}

impl Solution {
    /// The "no personalization" solution: empty preference set.
    pub fn empty(eval: &ParamEval<'_>) -> Self {
        Solution {
            prefs: Vec::new(),
            doi: Doi::ZERO,
            cost_blocks: eval.cost_of([]),
            size_rows: eval.size_of([]),
            found: false,
            instrument: Instrument::default(),
            phases: Vec::new(),
            degraded: None,
        }
    }

    /// Builds a solution from P-indices, evaluating its parameters.
    pub fn from_prefs(eval: &ParamEval<'_>, mut prefs: Vec<usize>, instrument: Instrument) -> Self {
        prefs.sort_unstable();
        let params = eval.params_of(&prefs);
        Solution {
            found: !prefs.is_empty(),
            prefs,
            doi: params.doi,
            cost_blocks: params.cost_blocks,
            size_rows: params.size_rows,
            instrument,
            phases: Vec::new(),
            degraded: None,
        }
    }

    /// The solution's parameters as a [`QueryParams`].
    pub fn params(&self) -> QueryParams {
        QueryParams {
            doi: self.doi,
            cost_blocks: self.cost_blocks,
            size_rows: self.size_rows,
        }
    }
}

/// Algorithm selector for [`solve_p2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// `O(2^K)` enumeration (exact; small `K` only).
    Exhaustive,
    /// Paper Figure 5 (exact — Theorem 2).
    CBoundaries,
    /// Paper Figure 7 (heuristic).
    CMaxBounds,
    /// Paper Figure 9 (exact — Theorem 3).
    DMaxDoi,
    /// Paper Figure 10 (heuristic).
    DSingleMaxDoi,
    /// Paper Figure 11 (heuristic).
    DHeurDoi,
    /// Exact branch-and-bound (knapsack-style baseline).
    BranchBound,
    /// Simulated annealing (generic baseline, Related Work).
    Annealing,
    /// Tabu search (generic baseline).
    Tabu,
    /// Genetic algorithm (generic baseline).
    Genetic,
}

impl Algorithm {
    /// The five algorithms proposed by the paper, in its presentation order.
    pub const PAPER: [Algorithm; 5] = [
        Algorithm::DMaxDoi,
        Algorithm::DSingleMaxDoi,
        Algorithm::CBoundaries,
        Algorithm::CMaxBounds,
        Algorithm::DHeurDoi,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Exhaustive => "Exhaustive",
            Algorithm::CBoundaries => "C_Boundaries",
            Algorithm::CMaxBounds => "C_MaxBounds",
            Algorithm::DMaxDoi => "D_MaxDoi",
            Algorithm::DSingleMaxDoi => "D_SingleMaxDoi",
            Algorithm::DHeurDoi => "D_HeurDoi",
            Algorithm::BranchBound => "BranchBound",
            Algorithm::Annealing => "SimAnnealing",
            Algorithm::Tabu => "TabuSearch",
            Algorithm::Genetic => "Genetic",
        }
    }

    /// The canonical lowercase wire spelling, as accepted by
    /// [`by_name`](Self::by_name). Used wherever the algorithm becomes a
    /// machine-read label (metrics, trace metadata) rather than prose.
    pub fn wire_name(&self) -> &'static str {
        match self {
            Algorithm::Exhaustive => "exhaustive",
            Algorithm::CBoundaries => "c_boundaries",
            Algorithm::CMaxBounds => "c_maxbounds",
            Algorithm::DMaxDoi => "d_maxdoi",
            Algorithm::DSingleMaxDoi => "d_singlemaxdoi",
            Algorithm::DHeurDoi => "d_heurdoi",
            Algorithm::BranchBound => "branch_bound",
            Algorithm::Annealing => "annealing",
            Algorithm::Tabu => "tabu",
            Algorithm::Genetic => "genetic",
        }
    }

    /// Parses an algorithm name: the display form ([`Algorithm::name`])
    /// or its lowercase token (`c_maxbounds`, `branch_bound`, …), case
    /// insensitively. The single parser the shell and the HTTP API share.
    pub fn by_name(s: &str) -> Option<Algorithm> {
        match s.to_ascii_lowercase().as_str() {
            "exhaustive" => Some(Algorithm::Exhaustive),
            "c_boundaries" => Some(Algorithm::CBoundaries),
            "c_maxbounds" => Some(Algorithm::CMaxBounds),
            "d_maxdoi" => Some(Algorithm::DMaxDoi),
            "d_singlemaxdoi" => Some(Algorithm::DSingleMaxDoi),
            "d_heurdoi" => Some(Algorithm::DHeurDoi),
            "branch_bound" | "branchbound" => Some(Algorithm::BranchBound),
            "annealing" | "simannealing" => Some(Algorithm::Annealing),
            "tabu" | "tabusearch" => Some(Algorithm::Tabu),
            "genetic" => Some(Algorithm::Genetic),
            _ => None,
        }
    }

    /// True for algorithms that provably return the optimum of Problem 2.
    pub fn is_exact(&self) -> bool {
        matches!(
            self,
            Algorithm::Exhaustive
                | Algorithm::CBoundaries
                | Algorithm::DMaxDoi
                | Algorithm::BranchBound
        )
    }

    /// True for algorithms that need the `C`/`S` vectors of the preference
    /// space (doi-based ones can work with a doi-only extraction,
    /// cf. paper Figure 12(b)).
    pub fn needs_cost_vectors(&self) -> bool {
        matches!(self, Algorithm::CBoundaries | Algorithm::CMaxBounds)
    }
}

/// Solves Problem 2 — `MAX doi(Q ∧ Px)` subject to
/// `cost(Q ∧ Px) ≤ cmax_blocks` — with the chosen algorithm.
///
/// The generic baselines use a fixed internal seed; use their module
/// functions directly for seed control.
pub fn solve_p2(
    space: &PreferenceSpace,
    conj: ConjModel,
    cmax_blocks: u64,
    algorithm: Algorithm,
) -> Solution {
    solve_p2_recorded(space, conj, cmax_blocks, algorithm, &NoopRecorder)
}

/// [`solve_p2`] with observability: the run is wrapped in a span named
/// after the algorithm, two-phase algorithms nest one span per phase, and
/// the work counters are flushed to the recorder under `solver.*`. With
/// [`NoopRecorder`] this is exactly `solve_p2` (counters stay local).
pub fn solve_p2_recorded(
    space: &PreferenceSpace,
    conj: ConjModel,
    cmax_blocks: u64,
    algorithm: Algorithm,
    recorder: &dyn Recorder,
) -> Solution {
    let token = CancelToken::unlimited();
    solve_p2_budgeted(space, conj, cmax_blocks, algorithm, recorder, None, &token)
}

/// [`solve_p2_recorded`] under a [`CancelToken`] and with an optional
/// cross-request [`SharedCostCache`]. Every state-space loop polls the
/// token, and if it trips the solution returned is the best-so-far
/// incumbent tagged [`Solution::degraded`]; the generic baselines
/// (annealing/tabu/genetic) run a fixed iteration budget of their own and
/// ignore the token. Only C-BOUNDARIES evaluates state costs through a
/// cache, so it alone consults `shared`. Cached costs are exact — the
/// answer is identical with or without sharing.
pub fn solve_p2_budgeted(
    space: &PreferenceSpace,
    conj: ConjModel,
    cmax_blocks: u64,
    algorithm: Algorithm,
    recorder: &dyn Recorder,
    shared: Option<&SharedCostCache>,
    token: &CancelToken,
) -> Solution {
    let sol = traced(recorder, algorithm.name(), token, || match algorithm {
        Algorithm::Exhaustive => exhaustive::solve_bounded(
            space,
            conj,
            &crate::problem::ProblemSpec::p2(cmax_blocks),
            token,
        ),
        Algorithm::CBoundaries => {
            c_boundaries::solve_budgeted(space, conj, cmax_blocks, recorder, shared, token)
        }
        Algorithm::CMaxBounds => {
            c_maxbounds::solve_budgeted(space, conj, cmax_blocks, recorder, token)
        }
        Algorithm::DMaxDoi => d_maxdoi::solve_budgeted(space, conj, cmax_blocks, recorder, token),
        Algorithm::DSingleMaxDoi => d_singlemaxdoi::solve_budgeted(space, conj, cmax_blocks, token),
        Algorithm::DHeurDoi => d_heurdoi::solve_budgeted(space, conj, cmax_blocks, token),
        Algorithm::BranchBound => branch_bound::solve_bounded(
            space,
            conj,
            &crate::problem::ProblemSpec::p2(cmax_blocks),
            token,
        ),
        Algorithm::Annealing => generic::annealing::solve_p2(space, conj, cmax_blocks, 0xC0FFEE),
        Algorithm::Tabu => generic::tabu::solve_p2(space, conj, cmax_blocks, 0xC0FFEE),
        Algorithm::Genetic => generic::genetic::solve_p2(space, conj, cmax_blocks, 0xC0FFEE),
    });
    recorder.event(format_args!(
        "{}: doi={:.4} cost={} states={}",
        algorithm.name(),
        sol.doi.value(),
        sol.cost_blocks,
        sol.instrument.states_examined,
    ));
    sol
}

/// Runs `solve` under a span named `name` and tags a degraded incumbent
/// from `token`. Every dispatched search ends here, so this is the one
/// place that counts `solver.degraded` and logs why. Two-phase algorithms
/// flush their counters per phase; everything else flushes its blended
/// total here, inside the span.
pub(crate) fn traced(
    recorder: &dyn Recorder,
    name: &'static str,
    token: &CancelToken,
    solve: impl FnOnce() -> Solution,
) -> Solution {
    let _span = span_guard(recorder, name);
    let mut sol = solve();
    sol.degraded = token.degraded_info();
    if sol.phases.is_empty() {
        sol.instrument.flush_to(recorder);
    }
    if let Some(d) = &sol.degraded {
        recorder.add("solver.degraded", 1);
        recorder.event(format_args!(
            "{name}: degraded ({}) after {} states",
            d.reason.name(),
            d.states_visited,
        ));
    }
    sol
}

/// The shared body of the two-phase searches (C-BOUNDARIES, C-MAXBOUNDS
/// and D-MAXDOI): `phase1` collects the states phase 2 refines (boundaries,
/// maximal boundaries or candidate solutions), `phase2` picks the selected
/// P-indices from them. Each phase runs under its own span
/// (`phase1_name`, then `find_max_doi`) with its own [`Instrument`],
/// flushed to the recorder as the phase ends and kept in
/// [`Solution::phases`]; [`Solution::instrument`] is their merge.
pub(crate) fn solve_two_phase(
    eval: &ParamEval<'_>,
    recorder: &dyn Recorder,
    phase1_name: &'static str,
    phase1: impl FnOnce(&mut Instrument) -> Vec<State>,
    phase2: impl FnOnce(&[State], &mut Instrument) -> Vec<usize>,
) -> Solution {
    let mut p1 = Instrument::new();
    let found = {
        let _span = span_guard(recorder, phase1_name);
        let found = phase1(&mut p1);
        p1.boundaries_found = found.len() as u64;
        p1.flush_to(recorder);
        found
    };

    let mut p2 = Instrument::new();
    let prefs = {
        let _span = span_guard(recorder, "find_max_doi");
        let prefs = phase2(&found, &mut p2);
        p2.flush_to(recorder);
        prefs
    };

    let mut inst = p1;
    inst.merge(&p2);
    let mut sol = if prefs.is_empty() {
        Solution {
            instrument: inst,
            ..Solution::empty(eval)
        }
    } else {
        Solution::from_prefs(eval, prefs, inst)
    };
    sol.phases = vec![(phase1_name, p1), ("find_max_doi", p2)];
    sol
}
