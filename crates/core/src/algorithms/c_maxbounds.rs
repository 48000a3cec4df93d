//! Algorithm **C-MAXBOUNDS** (paper Figure 7) — fast heuristic.
//!
//! C-BOUNDARIES produces a superset of the boundaries needed: boundaries in
//! one group may be subsets of boundaries in later groups, and "wrong"
//! boundaries below other boundaries can slip through. C-MAXBOUNDS instead
//! builds **maximal boundaries** such that none is a subset of, or
//! reachable from, another: in each round it seeds with the most expensive
//! preference not yet examined and greedily grows the seed with
//! `Horizontal2` insertions ("insert as many preferences as possible before
//! storing it as a maximal boundary"), exploring Vertical variants that
//! still contain the seed. The second phase is `C_FINDMAXDOI`, unchanged.

use super::find_max_doi::c_find_max_doi;
use super::prune::{Pruner, STATE_BYTES};
use super::{solve_two_phase, Solution};
use crate::budget::CancelToken;
use crate::instrument::Instrument;
use crate::spaces::SpaceView;
use crate::state::State;
use crate::transitions::{horizontal2, vertical_into, Neighbours};
use cqp_obs::{NoopRecorder, Recorder};
use cqp_prefs::ConjModel;
use cqp_prefspace::PreferenceSpace;
use std::collections::VecDeque;

/// Runs C-MAXBOUNDS for Problem 2.
pub fn solve(space: &PreferenceSpace, conj: ConjModel, cmax_blocks: u64) -> Solution {
    let token = CancelToken::unlimited();
    solve_budgeted(space, conj, cmax_blocks, &NoopRecorder, &token)
}

/// [`solve`] with one span and one [`Instrument`] per phase (counters are
/// flushed to the recorder at each phase boundary and kept in
/// [`Solution::phases`]), polling `token` in both phases; on a trip the
/// best refinement over the maximal boundaries found so far is returned
/// (the dispatcher tags it degraded).
pub fn solve_budgeted(
    space: &PreferenceSpace,
    conj: ConjModel,
    cmax_blocks: u64,
    recorder: &dyn Recorder,
    token: &CancelToken,
) -> Solution {
    let view = SpaceView::cost(space, conj);
    solve_two_phase(
        view.eval(),
        recorder,
        "find_max_bounds",
        |inst| find_all_max_bounds_bounded(&view, cmax_blocks, inst, token),
        |max_bounds, inst| {
            let (mut prefs, _doi) = c_find_max_doi(&view, max_bounds, inst, token);
            if prefs.is_empty() {
                // The growth loop never records bare seeds; a single
                // feasible preference may still exist (the best one is the
                // max-doi feasible singleton).
                prefs = best_feasible_singleton(&view, cmax_blocks, inst)
                    .map(|p| vec![p])
                    .unwrap_or_default();
            }
            prefs
        },
    )
}

/// Phase 1: rounds of `FINDMAXBOUND` over seeds `c1, c2, …` (Figure 7).
pub fn find_all_max_bounds(view: &SpaceView<'_>, cmax: u64, inst: &mut Instrument) -> Vec<State> {
    find_all_max_bounds_bounded(view, cmax, inst, &CancelToken::unlimited())
}

/// [`find_all_max_bounds`] polling `token` between rounds and per dequeued
/// state; on a trip the maximal boundaries recorded so far are returned.
pub fn find_all_max_bounds_bounded(
    view: &SpaceView<'_>,
    cmax: u64,
    inst: &mut Instrument,
    token: &CancelToken,
) -> Vec<State> {
    let k_total = view.k();
    let mut max_bounds: Vec<State> = Vec::new();
    let mut last_solution_size = 0usize;
    let mut pruner = Pruner::new(k_total);
    let mut k = 0usize;
    // Paper (1-based): while k + LastSolutionSize <= K.
    while k < k_total && (k + 1) + last_solution_size <= k_total {
        if token.should_stop() {
            break;
        }
        find_max_bound(
            view,
            k as u16,
            cmax,
            &mut max_bounds,
            &mut pruner,
            inst,
            token,
        );
        last_solution_size = max_bounds.last().map_or(0, State::len);
        k += 1;
    }
    max_bounds
}

/// `FINDMAXBOUND` (Figure 7): grow maximal boundaries containing seed `k`.
/// `pruner` is the solve's, cleared here and seeded with `max_bounds`.
fn find_max_bound(
    view: &SpaceView<'_>,
    k: u16,
    cmax: u64,
    max_bounds: &mut Vec<State>,
    pruner: &mut Pruner,
    inst: &mut Instrument,
    token: &CancelToken,
) {
    let mut rq: VecDeque<State> = VecDeque::new();
    let mut neighbours = Neighbours::default();
    let seed = State::singleton(k);
    pruner.clear();
    for b in max_bounds.iter() {
        pruner.add_boundary(b);
    }
    pruner.mark_visited(&seed);
    rq.push_back(seed);

    while let Some(mut r) = rq.pop_front() {
        if token.should_stop() {
            break;
        }
        inst.states_examined += 1;
        let r0 = r;
        // Greedy growth: repeatedly take the first (most expensive)
        // Horizontal2 neighbor that satisfies the constraint.
        loop {
            let mut grew = false;
            let base = r;
            for (_, n) in horizontal2(view, &base) {
                inst.horizontal_moves += 1;
                inst.param_evals += 1;
                if view.state_cost(&n) <= cmax {
                    r = n;
                    grew = true;
                    break;
                }
            }
            if !grew {
                break;
            }
        }
        if r != r0 {
            // Record as a maximal boundary unless it is subsumed by or
            // below an already-found one.
            let redundant = max_bounds
                .iter()
                .any(|b| b.is_superset_of(&r) || r.dominated_by(b));
            if !redundant {
                pruner.add_boundary(&r);
                max_bounds.push(r);
            }
        }
        // Explore Vertical variants that still contain the seed. Every
        // neighbour is listed: the exit depends on where the one without
        // the seed sorts among all of them.
        vertical_into(view, &r, |_| true, &mut neighbours);
        for n in neighbours.iter() {
            inst.vertical_moves += 1;
            if !n.contains(k) {
                break; // paper: "If R' ∩ {k} = {} then exit for"
            }
            if pruner.admit(&n) {
                rq.push_back(n);
            }
        }
        // Maximal-boundary bytes are part of pruner.bytes().
        inst.observe_bytes(rq.len() * STATE_BYTES + pruner.bytes());
    }
}

/// Fallback when no multi-preference boundary exists: the feasible
/// preference with the best doi, if any.
fn best_feasible_singleton(
    view: &SpaceView<'_>,
    cmax: u64,
    inst: &mut Instrument,
) -> Option<usize> {
    (0..view.k())
        .filter(|&p| {
            inst.param_evals += 1;
            view.eval().cost_of([p]) <= cmax
        })
        .min() // P is doi-sorted: the lowest feasible P-index has the best doi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exhaustive;
    use cqp_prefs::Doi;
    use cqp_prefspace::{PrefParams, PreferenceSpace};

    fn fig6_space() -> PreferenceSpace {
        let costs = [120u64, 80, 60, 40, 30];
        let dois = [0.9, 0.8, 0.7, 0.6, 0.5];
        PreferenceSpace::synthetic(
            (0..5)
                .map(|i| PrefParams {
                    doi: Doi::new(dois[i]),
                    cost_blocks: costs[i],
                    size_factor: 0.5,
                })
                .collect(),
            1000.0,
            0,
        )
    }

    fn st(v: &[u16]) -> State {
        State::from_indices(v.to_vec())
    }

    #[test]
    fn figure8_max_bounds_match_paper() {
        // Paper: for cmax=185 the output is {c1c3, c2c3c4} — a strict
        // subset of FINDBOUNDARY's answer.
        let space = fig6_space();
        let view = SpaceView::cost(&space, ConjModel::NoisyOr);
        let mut inst = Instrument::new();
        let mb = find_all_max_bounds(&view, 185, &mut inst);
        assert_eq!(
            mb,
            vec![st(&[0, 2]), st(&[1, 2, 3])],
            "got: {:?}",
            mb.iter().map(|b| b.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn figure8_solution_matches_oracle() {
        let space = fig6_space();
        let sol = solve(&space, ConjModel::NoisyOr, 185);
        let oracle = exhaustive::solve_p2(&space, ConjModel::NoisyOr, 185);
        assert_eq!(sol.doi, oracle.doi);
        assert_eq!(sol.prefs, oracle.prefs);
    }

    #[test]
    fn always_feasible_across_sweep() {
        // C-MAXBOUNDS is a heuristic: it must always be feasible and never
        // beat the oracle.
        let space = fig6_space();
        for cmax in (0..=340).step_by(5) {
            let sol = solve(&space, ConjModel::NoisyOr, cmax);
            let oracle = exhaustive::solve_p2(&space, ConjModel::NoisyOr, cmax);
            if sol.found {
                assert!(sol.cost_blocks <= cmax, "cmax={cmax}");
            }
            assert!(sol.doi <= oracle.doi, "cmax={cmax}");
        }
    }

    #[test]
    fn single_feasible_pref_is_found() {
        // Only the cheapest preference fits: the greedy growth records no
        // multi-preference bound, and the singleton fallback must kick in.
        let space = fig6_space();
        let sol = solve(&space, ConjModel::NoisyOr, 35);
        assert!(sol.found);
        assert_eq!(sol.prefs, vec![4]); // cost 30
        assert_eq!(sol.cost_blocks, 30);
    }

    #[test]
    fn empty_space() {
        let space = PreferenceSpace::synthetic(vec![], 10.0, 1);
        let sol = solve(&space, ConjModel::NoisyOr, 100);
        assert!(!sol.found);
    }
}
