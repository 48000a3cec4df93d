//! Generic search baselines (paper Section 2, Related Work).
//!
//! "Given the formulation of CQP as state-space optimization several
//! well-known algorithms are potentially applicable: genetic algorithms,
//! simulated annealing, tabu search, etc. These are generic approaches,
//! however, that do not take into account the problem's particularities or
//! special properties." These implementations exist to *quantify* that
//! claim in the ablation benchmarks: they treat a [`State`] as a plain set
//! of P-indices and learn nothing from the syntax-based partial orders.
//!
//! All three are deterministic given a seed, penalize constraint violations
//! (so they can traverse infeasible regions), and only ever *return*
//! feasible solutions.

pub mod annealing;
pub mod genetic;
pub mod tabu;

use crate::instrument::Instrument;
use crate::params::ParamEval;
use crate::state::State;
use cqp_prefs::Doi;

/// The members of a generic-search state, read as P-indices.
fn prefs_of(s: &State) -> impl Iterator<Item = usize> {
    s.iter().map(usize::from)
}

/// Energy of a state for Problem 2: negative doi plus a steep penalty for
/// exceeding the cost budget (lower is better).
pub(crate) fn p2_energy(eval: &ParamEval<'_>, s: &State, cmax: u64) -> f64 {
    if s.is_empty() {
        return 0.0; // doi 0, always feasible
    }
    let doi = eval.doi_of(prefs_of(s)).value();
    let cost = eval.cost_of(prefs_of(s));
    let penalty = if cost > cmax {
        // Proportional overshoot keeps the landscape informative.
        1.0 + (cost - cmax) as f64 / cmax.max(1) as f64
    } else {
        0.0
    };
    -doi + penalty
}

/// True when the state satisfies the Problem 2 constraint.
pub(crate) fn p2_feasible(eval: &ParamEval<'_>, s: &State, cmax: u64) -> bool {
    s.is_empty() || eval.cost_of(prefs_of(s)) <= cmax
}

/// Tracks the best feasible state seen by a generic search.
#[derive(Debug, Clone)]
pub(crate) struct BestTracker {
    pub prefs: Vec<usize>,
    pub doi: Doi,
}

impl BestTracker {
    pub fn new() -> Self {
        BestTracker {
            prefs: Vec::new(),
            doi: Doi::ZERO,
        }
    }

    pub fn offer(&mut self, eval: &ParamEval<'_>, s: &State, cmax: u64, inst: &mut Instrument) {
        // The feasibility check is a cost evaluation in its own right.
        inst.param_evals += 1;
        if !p2_feasible(eval, s, cmax) || s.is_empty() {
            return;
        }
        inst.param_evals += 1;
        let doi = eval.doi_of(prefs_of(s));
        if doi > self.doi {
            self.doi = doi;
            self.prefs = prefs_of(s).collect();
        }
    }

    /// Heap footprint of the tracked best, for Figure 13 accounting.
    pub fn bytes(&self) -> usize {
        self.prefs.len() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqp_prefs::ConjModel;
    use cqp_prefspace::{PrefParams, PreferenceSpace};

    fn space() -> PreferenceSpace {
        PreferenceSpace::synthetic(
            vec![
                PrefParams {
                    doi: Doi::new(0.8),
                    cost_blocks: 50,
                    size_factor: 0.5,
                },
                PrefParams {
                    doi: Doi::new(0.6),
                    cost_blocks: 30,
                    size_factor: 0.5,
                },
            ],
            100.0,
            0,
        )
    }

    #[test]
    fn energy_penalizes_violations() {
        let sp = space();
        let eval = ParamEval::new(&sp, ConjModel::NoisyOr);
        let mut s = State::empty();
        assert_eq!(p2_energy(&eval, &s, 40), 0.0);
        s = s.with_toggled(1); // cost 30 <= 40
        assert!(p2_energy(&eval, &s, 40) < 0.0);
        s = s.with_toggled(0); // cost 80 > 40
        assert!(p2_energy(&eval, &s, 40) > 0.0);
        assert!(!p2_feasible(&eval, &s, 40));
    }

    #[test]
    fn tracker_keeps_best_feasible_only() {
        let sp = space();
        let eval = ParamEval::new(&sp, ConjModel::NoisyOr);
        let mut t = BestTracker::new();
        let mut inst = Instrument::new();
        let mut s = State::singleton(0);
        t.offer(&eval, &s, 100, &mut inst);
        assert_eq!(t.prefs, vec![0]);
        s = s.with_toggled(1); // cost 80 > 60: infeasible under cmax 60
        t.offer(&eval, &s, 60, &mut inst);
        assert_eq!(t.prefs, vec![0], "infeasible offers are ignored");
        t.offer(&eval, &s, 100, &mut inst);
        assert_eq!(t.prefs, vec![0, 1]);
        // Every offer costs a feasibility eval; feasible non-empty ones a
        // doi eval on top: 2 + 1 + 2.
        assert_eq!(inst.param_evals, 5);
        assert_eq!(t.bytes(), 2 * std::mem::size_of::<usize>());
    }
}
