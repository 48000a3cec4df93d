//! Genetic algorithm baseline [Goldberg, 1989].

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

/// Genetic algorithm parameters.
#[derive(Debug, Clone, Copy)]
pub struct GeneticConfig {
    /// Population size.
    pub population: usize,
    /// Generations.
    pub generations: usize,
    /// Per-bit mutation probability.
    pub mutation: f64,
    /// Tournament size for selection.
    pub tournament: usize,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        GeneticConfig {
            population: 32,
            generations: 60,
            mutation: 0.05,
            tournament: 3,
        }
    }
}

/// Solves Problem 2 with a genetic algorithm and default parameters.
pub fn solve_p2(space: &PreferenceSpace, conj: ConjModel, cmax_blocks: u64, seed: u64) -> Solution {
    solve_p2_with(space, conj, cmax_blocks, seed, GeneticConfig::default())
}

/// Solves Problem 2 with a genetic algorithm and explicit parameters.
pub fn solve_p2_with(
    space: &PreferenceSpace,
    conj: ConjModel,
    cmax_blocks: u64,
    seed: u64,
    config: GeneticConfig,
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
    let mut best = BestTracker::new();

    // Initial population: sparse random subsets (dense ones are mostly
    // infeasible under tight budgets).
    let mut population: Vec<State> = (0..config.population)
        .map(|_| (0..k as u16).filter(|_| rng.gen::<f64>() < 0.25).collect())
        .collect();

    for _ in 0..config.generations {
        let fitness: Vec<f64> = population
            .iter()
            .map(|s| {
                inst.param_evals += 1;
                -p2_energy(&eval, s, cmax_blocks)
            })
            .collect();
        for s in &population {
            best.offer(&eval, s, cmax_blocks, &mut inst);
        }
        inst.states_examined += population.len() as u64;

        let mut next: Vec<State> = Vec::with_capacity(config.population);
        while next.len() < config.population {
            let a = tournament(&mut rng, &fitness, config.tournament);
            let b = tournament(&mut rng, &fitness, config.tournament);
            // Uniform crossover.
            let child = (0..k as u16)
                .filter(|&i| {
                    let source = if rng.gen::<bool>() {
                        &population[a]
                    } else {
                        &population[b]
                    };
                    let mutate = rng.gen::<f64>() < config.mutation;
                    source.contains(i) != mutate
                })
                .collect();
            next.push(child);
        }
        // Peak: parents and offspring coexist until the swap below.
        inst.observe_bytes((population.len() + next.len()) * STATE_BYTES + best.bytes());
        population = next;
    }
    for s in &population {
        best.offer(&eval, s, cmax_blocks, &mut inst);
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

/// Tournament selection: the fittest of `t` random picks.
fn tournament(rng: &mut StdRng, fitness: &[f64], t: usize) -> usize {
    let mut best = rng.gen_range(0..fitness.len());
    for _ in 1..t {
        let c = rng.gen_range(0..fitness.len());
        if fitness[c] > fitness[best] {
            best = c;
        }
    }
    best
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
        let a = solve_p2(&space, ConjModel::NoisyOr, 185, 11);
        let b = solve_p2(&space, ConjModel::NoisyOr, 185, 11);
        assert_eq!(a.prefs, b.prefs);
        assert!(a.cost_blocks <= 185 || !a.found);
        let oracle = exhaustive::solve_p2(&space, ConjModel::NoisyOr, 185);
        assert!(a.doi <= oracle.doi);
        assert!(oracle.doi.value() - a.doi.value() < 0.1);
    }

    #[test]
    fn empty_space() {
        let space = PreferenceSpace::synthetic(vec![], 10.0, 0);
        assert!(!solve_p2(&space, ConjModel::NoisyOr, 10, 0).found);
    }
}
