//! Algorithm **D-SINGLEMAXDOI** (paper Figure 10) — single-phase heuristic
//! on the doi space.
//!
//! Follows C-MAXBOUNDS's greedy philosophy but keeps track of the best
//! solution on the fly instead of collecting boundaries: every examined
//! node is grown maximally with `Horizontal2` insertions (best-doi-first),
//! its doi compared against `MaxDoi`, and the round loop stops as soon as
//! `MaxDoi` exceeds `BestExpectedDoi`, the best degree any state drawn from
//! the not-yet-seeded suffix of `P` could reach.

use super::prune::{Pruner, STATE_BYTES};
use super::Solution;
use crate::budget::CancelToken;
use crate::instrument::Instrument;
use crate::spaces::SpaceView;
use crate::state::State;
use crate::transitions::{horizontal2, vertical_into, Neighbours};
use cqp_prefs::{ConjModel, Doi};
use cqp_prefspace::PreferenceSpace;
use std::collections::VecDeque;

/// Greedily grows `r` by repeatedly inserting the first (highest-ranked)
/// absent entry that keeps the state within `cmax`. `banned_first`
/// optionally forbids one specific index for the *first* insertion (used by
/// D-HEURDOI's regrow step to avoid recreating the node it just shrank).
pub(crate) fn greedy_grow(
    view: &SpaceView<'_>,
    mut r: State,
    cmax: u64,
    banned_first: Option<u16>,
    inst: &mut Instrument,
) -> State {
    let mut first = true;
    loop {
        let mut grew = false;
        let base = r;
        for (idx, n) in horizontal2(view, &base) {
            if first && Some(idx) == banned_first {
                continue;
            }
            inst.horizontal_moves += 1;
            inst.param_evals += 1;
            if view.state_cost(&n) <= cmax {
                r = n;
                grew = true;
                break;
            }
        }
        if !grew {
            return r;
        }
        first = false;
    }
}

/// Runs D-SINGLEMAXDOI for Problem 2.
pub fn solve(space: &PreferenceSpace, conj: ConjModel, cmax_blocks: u64) -> Solution {
    solve_budgeted(space, conj, cmax_blocks, &CancelToken::unlimited())
}

/// [`solve`] polling `token` between rounds and per dequeued state; on a
/// trip the best grown node found so far is returned (the dispatcher tags
/// it degraded).
pub fn solve_budgeted(
    space: &PreferenceSpace,
    conj: ConjModel,
    cmax_blocks: u64,
    token: &CancelToken,
) -> Solution {
    let view = SpaceView::doi(space, conj);
    let eval = view.eval();
    let k_total = view.k();
    let mut inst = Instrument::new();

    let mut max_doi = Doi::ZERO;
    let mut best: Vec<usize> = Vec::new();
    let mut best_expected = eval.best_doi_for_group(k_total); // doi(P)

    let mut neighbours = Neighbours::default();
    let mut pruner = Pruner::new(k_total);
    let mut k = 0usize;
    while k < k_total && max_doi <= best_expected {
        if token.should_stop() {
            break;
        }
        let seed = State::singleton(k as u16);
        pruner.clear();
        pruner.mark_visited(&seed);
        let mut rq: VecDeque<State> = VecDeque::new();

        // Seeds that violate the constraint on their own can never be part
        // of a feasible state (cost is additive).
        inst.param_evals += 1;
        if view.state_cost(&seed) <= cmax_blocks {
            rq.push_back(seed);
        }

        while let Some(r) = rq.pop_front() {
            if token.should_stop() {
                break;
            }
            inst.states_examined += 1;
            let grown = greedy_grow(&view, r, cmax_blocks, None, &mut inst);
            let doi = view.state_doi(&grown);
            inst.param_evals += 1;
            if doi > max_doi {
                max_doi = doi;
                best = grown.to_pref_indices(view.order());
            }
            // Every neighbour is listed: the exit below depends on where
            // the one without `k` sorts among all of them.
            vertical_into(&view, &grown, |_| true, &mut neighbours);
            for n in neighbours.iter() {
                inst.vertical_moves += 1;
                if !n.contains(k as u16) {
                    break; // paper: "If R' ∩ {k} = {} then exit for"
                }
                if pruner.mark_visited(&n) {
                    rq.push_back(n);
                }
            }
            inst.observe_bytes(rq.len() * STATE_BYTES + pruner.bytes());
        }

        // Future rounds seed from k+1 onward; bound what they can reach.
        best_expected = eval.best_expected_doi((k + 1)..k_total);
        inst.param_evals += 1;
        k += 1;
    }

    if best.is_empty() {
        Solution {
            instrument: inst,
            ..Solution::empty(eval)
        }
    } else {
        Solution::from_prefs(eval, best, inst)
    }
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
    fn feasible_and_never_better_than_oracle() {
        let space = space_with(&[120, 80, 60, 40, 30], &[0.9, 0.8, 0.7, 0.6, 0.5]);
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
    fn finds_exact_optimum_on_easy_instances() {
        // When everything fits, greedy growth reaches the full set.
        let space = space_with(&[10, 10, 10], &[0.9, 0.5, 0.3]);
        let sol = solve(&space, ConjModel::NoisyOr, 100);
        assert_eq!(sol.prefs, vec![0, 1, 2]);
    }

    #[test]
    fn quality_is_high_on_fig6() {
        // Figure 14: heuristic quality differences are minuscule.
        let space = space_with(&[120, 80, 60, 40, 30], &[0.9, 0.8, 0.7, 0.6, 0.5]);
        let sol = solve(&space, ConjModel::NoisyOr, 185);
        let oracle = exhaustive::solve_p2(&space, ConjModel::NoisyOr, 185);
        assert!(oracle.doi.value() - sol.doi.value() < 0.05);
    }

    #[test]
    fn infeasible_instance() {
        let space = space_with(&[100, 90], &[0.9, 0.8]);
        let sol = solve(&space, ConjModel::NoisyOr, 50);
        assert!(!sol.found);
        assert_eq!(sol.doi, Doi::ZERO);
    }

    #[test]
    fn empty_space() {
        let space = space_with(&[], &[]);
        assert!(!solve(&space, ConjModel::NoisyOr, 10).found);
    }
}
