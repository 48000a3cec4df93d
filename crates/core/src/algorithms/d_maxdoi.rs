//! Algorithm **D-MAXDOI** (paper Figure 9) — exact for Problem 2, on the
//! doi state space.
//!
//! `FINDOPTIMAL` climbs Horizontal transitions (which increase doi) while
//! the cost constraint holds; the last feasible node of each climb is a
//! candidate solution, and the Vertical neighbors of the *first violating*
//! successor seed further exploration. Verticals in the doi space are
//! "blind" with respect to cost (paper Section 7.2.1) — no boundary
//! dominance pruning is sound here, only the visited set — which is exactly
//! why this exact algorithm explores large parts of the space and is slow.
//!
//! One pseudocode gap is resolved conservatively: when a dequeued node
//! itself violates the constraint (step 3.2 skipped), its own Vertical
//! neighbors are expanded (`R' = R`), otherwise chains that first become
//! feasible after a swap would be unreachable and exactness would be lost.

use super::prune::{Pruner, STATE_BYTES};
use super::{solve_two_phase, Solution};
use crate::budget::CancelToken;
use crate::instrument::Instrument;
use crate::params::ParamEval;
use crate::spaces::SpaceView;
use crate::state::State;
use crate::transitions::{horizontal, vertical_into, Neighbours};
use cqp_obs::{NoopRecorder, Recorder};
use cqp_prefs::{ConjModel, Doi};
use cqp_prefspace::PreferenceSpace;
use std::collections::VecDeque;

/// Runs D-MAXDOI for Problem 2.
pub fn solve(space: &PreferenceSpace, conj: ConjModel, cmax_blocks: u64) -> Solution {
    let token = CancelToken::unlimited();
    solve_budgeted(space, conj, cmax_blocks, &NoopRecorder, &token)
}

/// [`solve`] with one span and one [`Instrument`] per phase (counters are
/// flushed to the recorder at each phase boundary and kept in
/// [`Solution::phases`]), polling `token` in both phases; on a trip the
/// best incumbent among the candidate solutions found so far is returned
/// (the dispatcher tags it degraded).
pub fn solve_budgeted(
    space: &PreferenceSpace,
    conj: ConjModel,
    cmax_blocks: u64,
    recorder: &dyn Recorder,
    token: &CancelToken,
) -> Solution {
    let view = SpaceView::doi(space, conj);
    solve_two_phase(
        view.eval(),
        recorder,
        "find_optimal",
        |inst| find_optimal_bounded(&view, cmax_blocks, inst, token),
        |solutions, inst| d_find_max_doi(&view, solutions, inst, token).0,
    )
}

/// Phase 1: `FINDOPTIMAL` (Figure 9).
pub fn find_optimal(view: &SpaceView<'_>, cmax: u64, inst: &mut Instrument) -> Vec<State> {
    find_optimal_bounded(view, cmax, inst, &CancelToken::unlimited())
}

/// [`find_optimal`] polling `token` once per dequeued state; on a trip the
/// candidate solutions recorded so far are returned (each is feasible).
pub fn find_optimal_bounded(
    view: &SpaceView<'_>,
    cmax: u64,
    inst: &mut Instrument,
    token: &CancelToken,
) -> Vec<State> {
    let mut solutions: Vec<State> = Vec::new();
    if view.k() == 0 {
        return solutions;
    }
    let mut rq: VecDeque<State> = VecDeque::new();
    let mut pruner = Pruner::new(view.k());
    let mut neighbours = Neighbours::default();
    let start = State::singleton(0);
    pruner.mark_visited(&start);
    rq.push_back(start);

    while let Some(mut r) = rq.pop_front() {
        if token.should_stop() {
            break;
        }
        inst.states_examined += 1;
        inst.param_evals += 1;
        let mut frontier = r; // R' in the paper: where Verticals expand
        if view.state_cost(&r) <= cmax {
            // Climb while feasible.
            let mut successor: Option<State> = None;
            while let Some(h) = horizontal(view, &r) {
                inst.horizontal_moves += 1;
                inst.param_evals += 1;
                if view.state_cost(&h) <= cmax {
                    r = h;
                } else {
                    successor = Some(h);
                    break;
                }
            }
            solutions.push(r);
            match successor {
                Some(s) => frontier = s,
                None => {
                    // Climbed to the full set: nothing further to expand.
                    inst.observe_bytes((rq.len() + solutions.len()) * STATE_BYTES + pruner.bytes());
                    continue;
                }
            }
        }
        let unvisited = |n: &State| {
            inst.vertical_moves += 1;
            pruner.mark_visited(n)
        };
        vertical_into(view, &frontier, unvisited, &mut neighbours);
        rq.extend(neighbours.iter());
        inst.observe_bytes((rq.len() + solutions.len()) * STATE_BYTES + pruner.bytes());
    }
    solutions
}

/// Phase 2: `D_FINDMAXDOI` (Figure 9) — pick the solution with the best
/// doi, scanning groups in decreasing size with the `BestExpectedDoi`
/// early exit. In the doi space no refinement below a solution is needed:
/// everything Vertical-reachable has lower doi by construction.
pub fn d_find_max_doi(
    view: &SpaceView<'_>,
    solutions: &[State],
    inst: &mut Instrument,
    token: &CancelToken,
) -> (Vec<usize>, Doi) {
    let eval: &ParamEval<'_> = view.eval();
    let mut sorted: Vec<&State> = solutions.iter().collect();
    sorted.sort_by_key(|s| std::cmp::Reverse(s.len()));

    let mut max_doi = Doi::ZERO;
    let mut best: Vec<usize> = Vec::new();
    let mut group = view.k();
    for r in sorted {
        if token.should_stop() {
            break;
        }
        if r.len() < group {
            group = r.len();
            let best_expected = eval.best_doi_for_group(group);
            inst.param_evals += 1;
            if max_doi > best_expected {
                break;
            }
        }
        let doi = view.state_doi(r);
        inst.param_evals += 1;
        if doi > max_doi {
            max_doi = doi;
            best = r.to_pref_indices(view.order());
        }
    }
    best.sort_unstable();
    (best, max_doi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exhaustive;
    use cqp_prefspace::{PrefParams, PreferenceSpace};

    fn space_with(costs: &[u64], dois: &[f64]) -> PreferenceSpace {
        PreferenceSpace::synthetic(
            costs
                .iter()
                .zip(dois)
                .map(|(&c, &d)| PrefParams {
                    doi: Doi::new(d),
                    cost_blocks: c,
                    size_factor: 0.5,
                })
                .collect(),
            1000.0,
            0,
        )
    }

    #[test]
    fn fig6_exactness_sweep() {
        let space = space_with(&[120, 80, 60, 40, 30], &[0.9, 0.8, 0.7, 0.6, 0.5]);
        for cmax in (0..=340).step_by(5) {
            let sol = solve(&space, ConjModel::NoisyOr, cmax);
            let oracle = exhaustive::solve_p2(&space, ConjModel::NoisyOr, cmax);
            assert_eq!(sol.doi, oracle.doi, "cmax={cmax}");
        }
    }

    #[test]
    fn swap_chains_are_reached() {
        // The case motivating the conservative R'=R extension: {p0} is
        // feasible, {p0,·} never is, and the optimum {p1,p2} is only
        // reachable through an infeasible intermediate.
        let space = space_with(&[105, 10, 10], &[0.9, 0.8, 0.7]);
        let sol = solve(&space, ConjModel::NoisyOr, 110);
        let oracle = exhaustive::solve_p2(&space, ConjModel::NoisyOr, 110);
        // Optimum is {p1, p2}: doi 1-0.2*0.3 = 0.94 > 0.9.
        assert_eq!(oracle.prefs, vec![1, 2]);
        assert_eq!(sol.prefs, oracle.prefs);
        assert_eq!(sol.doi, oracle.doi);
    }

    #[test]
    fn doi_space_explores_more_than_cost_space() {
        // Figure 12(a): D-MAXDOI examines far more states than the
        // cost-based algorithms on the same instance.
        let costs: Vec<u64> = (1..=12).map(|i| 10 * i as u64).collect();
        let dois: Vec<f64> = (1..=12).map(|i| 0.3 + 0.05 * i as f64).collect();
        let mut dois = dois;
        dois.reverse(); // make doi order differ from cost order
        let space = space_with(&costs, &dois);
        let d = solve(&space, ConjModel::NoisyOr, 300);
        let c = crate::algorithms::c_boundaries::solve(&space, ConjModel::NoisyOr, 300);
        assert_eq!(d.doi, c.doi, "both are exact");
        assert!(
            d.instrument.states_examined >= c.instrument.states_examined,
            "D={} C={}",
            d.instrument.states_examined,
            c.instrument.states_examined
        );
    }

    #[test]
    fn empty_and_infeasible() {
        let space = space_with(&[], &[]);
        assert!(!solve(&space, ConjModel::NoisyOr, 10).found);
        let space = space_with(&[50], &[0.5]);
        assert!(!solve(&space, ConjModel::NoisyOr, 10).found);
    }
}
