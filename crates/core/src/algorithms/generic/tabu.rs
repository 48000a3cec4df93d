//! Tabu search baseline [Glover, 1989].

use super::{p2_energy, p2_feasible, BestTracker};
use crate::algorithms::prune::STATE_BYTES;
use crate::algorithms::Solution;
use crate::instrument::Instrument;
use crate::params::ParamEval;
use crate::state::State;
use cqp_prefs::ConjModel;
use cqp_prefspace::PreferenceSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Tabu search parameters.
#[derive(Debug, Clone, Copy)]
pub struct TabuConfig {
    /// Length of the tabu list (recently flipped bits).
    pub tenure: usize,
    /// Total iterations.
    pub iterations: usize,
}

impl Default for TabuConfig {
    fn default() -> Self {
        TabuConfig {
            tenure: 7,
            iterations: 600,
        }
    }
}

/// Solves Problem 2 by tabu search with the default parameters.
pub fn solve_p2(space: &PreferenceSpace, conj: ConjModel, cmax_blocks: u64, seed: u64) -> Solution {
    solve_p2_with(space, conj, cmax_blocks, seed, TabuConfig::default())
}

/// Solves Problem 2 by tabu search with explicit parameters.
pub fn solve_p2_with(
    space: &PreferenceSpace,
    conj: ConjModel,
    cmax_blocks: u64,
    seed: u64,
    config: TabuConfig,
) -> Solution {
    let eval = ParamEval::new(space, conj);
    let k = space.k();
    let mut inst = Instrument::new();
    if k == 0 {
        return Solution {
            instrument: inst,
            ..Solution::empty(&eval)
        };
    }

    let mut rng = StdRng::seed_from_u64(seed);
    // Random restart-free single trajectory from a random feasible-ish point.
    let mut state = State::empty();
    if k > 1 {
        state = state.with_toggled(rng.gen_range(0..k) as u16);
    }
    let mut best = BestTracker::new();
    best.offer(&eval, &state, cmax_blocks, &mut inst);
    let mut tabu: VecDeque<usize> = VecDeque::new();

    for _ in 0..config.iterations {
        inst.states_examined += 1;
        // Full neighborhood scan: flip each bit, pick the best non-tabu
        // move (aspiration: tabu moves are allowed if they improve the
        // global best energy seen so far).
        let mut best_move: Option<(usize, f64)> = None;
        for i in 0..k {
            let flipped = state.with_toggled(i as u16);
            let e = p2_energy(&eval, &flipped, cmax_blocks);
            inst.param_evals += 1;
            let is_tabu = tabu.contains(&i);
            let improves_best = -e > best.doi.value() && {
                inst.param_evals += 1;
                p2_feasible(&eval, &flipped, cmax_blocks)
            };
            if is_tabu && !improves_best {
                continue;
            }
            if best_move.is_none_or(|(_, be)| e < be) {
                best_move = Some((i, e));
            }
        }
        let Some((i, _)) = best_move else { break };
        state = state.with_toggled(i as u16);
        best.offer(&eval, &state, cmax_blocks, &mut inst);
        tabu.push_back(i);
        if tabu.len() > config.tenure {
            tabu.pop_front();
        }
        inst.observe_bytes(STATE_BYTES + tabu.len() * std::mem::size_of::<usize>() + best.bytes());
    }

    if best.prefs.is_empty() {
        Solution {
            instrument: inst,
            ..Solution::empty(&eval)
        }
    } else {
        Solution::from_prefs(&eval, best.prefs, inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exhaustive;
    use cqp_prefs::Doi;
    use cqp_prefspace::PrefParams;

    fn fig6() -> PreferenceSpace {
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

    #[test]
    fn feasible_deterministic_and_competitive() {
        let space = fig6();
        let a = solve_p2(&space, ConjModel::NoisyOr, 185, 3);
        let b = solve_p2(&space, ConjModel::NoisyOr, 185, 3);
        assert_eq!(a.prefs, b.prefs);
        assert!(a.cost_blocks <= 185 || !a.found);
        let oracle = exhaustive::solve_p2(&space, ConjModel::NoisyOr, 185);
        assert!(a.doi <= oracle.doi);
        assert!(oracle.doi.value() - a.doi.value() < 0.1);
    }

    #[test]
    fn empty_space_and_tiny_budget() {
        let space = PreferenceSpace::synthetic(vec![], 10.0, 0);
        assert!(!solve_p2(&space, ConjModel::NoisyOr, 10, 0).found);
        let space = fig6();
        assert!(!solve_p2(&space, ConjModel::NoisyOr, 5, 0).found);
    }
}
