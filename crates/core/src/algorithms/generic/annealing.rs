//! Simulated annealing baseline [Kirkpatrick et al., 1983].

use super::{p2_energy, BestTracker};
use crate::algorithms::prune::STATE_BYTES;
use crate::algorithms::Solution;
use crate::instrument::Instrument;
use crate::params::ParamEval;
use crate::state::State;
use cqp_prefs::ConjModel;
use cqp_prefspace::PreferenceSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy)]
pub struct AnnealingConfig {
    /// Initial temperature.
    pub t0: f64,
    /// Geometric cooling factor per step.
    pub cooling: f64,
    /// Total proposal steps.
    pub steps: usize,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig {
            t0: 1.0,
            cooling: 0.995,
            steps: 4000,
        }
    }
}

/// Solves Problem 2 by simulated annealing with the default schedule.
pub fn solve_p2(space: &PreferenceSpace, conj: ConjModel, cmax_blocks: u64, seed: u64) -> Solution {
    solve_p2_with(space, conj, cmax_blocks, seed, AnnealingConfig::default())
}

/// Solves Problem 2 by simulated annealing with an explicit schedule.
pub fn solve_p2_with(
    space: &PreferenceSpace,
    conj: ConjModel,
    cmax_blocks: u64,
    seed: u64,
    config: AnnealingConfig,
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
    let mut state = State::empty();
    let mut energy = p2_energy(&eval, &state, cmax_blocks);
    let mut best = BestTracker::new();
    let mut temperature = config.t0;

    for _ in 0..config.steps {
        inst.states_examined += 1;
        let i = rng.gen_range(0..k);
        let proposal = state.with_toggled(i as u16);
        let candidate = p2_energy(&eval, &proposal, cmax_blocks);
        inst.param_evals += 1;
        let accept = candidate <= energy || {
            let delta = candidate - energy;
            rng.gen::<f64>() < (-delta / temperature.max(1e-9)).exp()
        };
        if accept {
            state = proposal;
            energy = candidate;
            best.offer(&eval, &state, cmax_blocks, &mut inst);
        }
        temperature *= config.cooling;
        // Current state + tracked best.
        inst.observe_bytes(STATE_BYTES + best.bytes());
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
    fn always_feasible_and_deterministic() {
        let space = fig6();
        let a = solve_p2(&space, ConjModel::NoisyOr, 185, 42);
        let b = solve_p2(&space, ConjModel::NoisyOr, 185, 42);
        assert_eq!(a.prefs, b.prefs);
        assert!(a.cost_blocks <= 185 || !a.found);
    }

    #[test]
    fn close_to_oracle_on_small_instance() {
        let space = fig6();
        let sa = solve_p2(&space, ConjModel::NoisyOr, 185, 7);
        let oracle = exhaustive::solve_p2(&space, ConjModel::NoisyOr, 185);
        assert!(sa.doi <= oracle.doi);
        // With 4000 steps on a 32-state feasible region, annealing should
        // land close to the optimum.
        assert!(oracle.doi.value() - sa.doi.value() < 0.1);
    }

    #[test]
    fn infeasible_budget_returns_empty() {
        let space = fig6();
        let sol = solve_p2(&space, ConjModel::NoisyOr, 5, 1);
        assert!(!sol.found);
    }
}
