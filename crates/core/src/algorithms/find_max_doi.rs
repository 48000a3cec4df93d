//! `C_FINDMAXDOI` — the shared second phase of C-BOUNDARIES and
//! C-MAXBOUNDS (paper Figure 5).
//!
//! Given the boundaries found in the cost space, it searches *below* each
//! boundary for the node with the maximum doi. The search never computes
//! doi during the scan: for each slot `k` of a boundary `R` (processed from
//! the largest slot down), it picks the preference with the best doi —
//! minimum P-index, since `P` is doi-sorted — among the C-positions `j ≥ k`
//! not yet used. Every such replacement moves to an equal-or-cheaper
//! preference, so the refined node still satisfies the cost constraint.
//!
//! The per-slot greedy is exact: the feasible position sets `{j ≥ R[i]}`
//! are nested (suffixes of `C`), and for a laminar family the
//! most-constrained-first greedy yields a maximum-weight transversal; with
//! the noisy-or model, maximizing doi is equivalent to maximizing
//! `Σ −ln(1−doi_i)`, an additive weight.

use crate::budget::CancelToken;
use crate::instrument::Instrument;
use crate::spaces::SpaceView;
use crate::state::State;
use cqp_prefs::Doi;

/// Runs the second phase over boundaries from the cost space.
///
/// Returns the best preference set (as P-indices) and its doi. Boundaries
/// are examined in decreasing group size with the `BestExpectedDoi` early
/// exit: once the best doi found exceeds what the largest remaining group
/// could possibly reach, scanning stops. `token` is polled per boundary;
/// on a trip the best refinement so far is returned.
pub fn c_find_max_doi(
    view: &SpaceView<'_>,
    boundaries: &[State],
    inst: &mut Instrument,
    token: &CancelToken,
) -> (Vec<usize>, Doi) {
    let k_total = view.k();
    let mut sorted: Vec<&State> = boundaries.iter().collect();
    sorted.sort_by_key(|s| std::cmp::Reverse(s.len()));

    let mut max_doi = Doi::ZERO;
    let mut best: Vec<usize> = Vec::new();
    let mut group = k_total; // current group size being examined

    for r in sorted {
        if token.should_stop() {
            break;
        }
        if r.len() < group {
            group = r.len();
            let best_expected = view.eval().best_doi_for_group(group);
            inst.param_evals += 1;
            if max_doi > best_expected {
                break;
            }
        }
        let px = refine_max_doi(view, r);
        let doi = view.eval().doi_of(px.iter().copied());
        inst.param_evals += 1;
        if doi > max_doi {
            max_doi = doi;
            best = px;
        }
    }
    best.sort_unstable();
    (best, max_doi)
}

/// The greedy transversal below one boundary: for each slot (largest C-index
/// first) pick the unused preference with the minimum P-index among
/// positions `≥` the slot's index.
pub fn refine_max_doi(view: &SpaceView<'_>, r: &State) -> Vec<usize> {
    let k_total = view.k();
    let mut used = vec![false; k_total];
    let mut px: Vec<usize> = Vec::with_capacity(r.len());
    for slot in r.iter().rev() {
        let slot = slot as usize;
        let mut best_p = usize::MAX;
        for j in slot..k_total {
            let p = view.pref_at(j as u16);
            if !used[p] && p < best_p {
                best_p = p;
            }
        }
        debug_assert!(
            best_p != usize::MAX,
            "suffix always has enough unused positions"
        );
        used[best_p] = true;
        px.push(best_p);
    }
    px
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqp_prefs::{ConjModel, Doi};
    use cqp_prefspace::{PrefParams, PreferenceSpace};

    /// A space where doi order and cost order DIFFER, so refinement has
    /// something to do.
    fn mixed_space() -> PreferenceSpace {
        // P (doi-sorted):      p0=.9   p1=.8   p2=.7   p3=.6
        // costs:               10      40      20      30
        // C (cost desc):       [1, 3, 2, 0]
        PreferenceSpace::synthetic(
            vec![
                PrefParams {
                    doi: Doi::new(0.9),
                    cost_blocks: 10,
                    size_factor: 0.5,
                },
                PrefParams {
                    doi: Doi::new(0.8),
                    cost_blocks: 40,
                    size_factor: 0.5,
                },
                PrefParams {
                    doi: Doi::new(0.7),
                    cost_blocks: 20,
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
    fn refinement_moves_to_better_doi_without_raising_cost() {
        let space = mixed_space();
        assert_eq!(space.c, vec![1, 3, 2, 0]);
        let view = SpaceView::cost(&space, ConjModel::NoisyOr);
        // Boundary {c2, c3} = positions {1,2} = prefs {3, 2} (cost 50).
        let r = State::from_indices(vec![1, 2]);
        let px = refine_max_doi(&view, &r);
        // Slot 2 (positions >= 2): prefs {2, 0}; best doi = p0.
        // Slot 1 (positions >= 1): prefs {3, 2, 0} minus used -> p2.
        let mut sorted = px.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 2]);
        // Cost did not increase: 10 + 20 = 30 <= 50.
        let cost: u64 = sorted.iter().map(|&p| view.eval().cost_of([p])).sum();
        assert!(cost <= view.state_cost(&r));
    }

    #[test]
    fn find_max_doi_prefers_larger_groups_but_checks_all() {
        let space = mixed_space();
        let view = SpaceView::cost(&space, ConjModel::NoisyOr);
        let mut inst = Instrument::new();
        // Two boundaries: a pair and a singleton.
        let boundaries = vec![
            State::from_indices(vec![3]),
            State::from_indices(vec![1, 2]),
        ];
        let (best, doi) = c_find_max_doi(&view, &boundaries, &mut inst, &CancelToken::unlimited());
        assert_eq!(best, vec![0, 2]);
        // doi = 1 - 0.1*0.3 = 0.97
        assert!((doi.value() - 0.97).abs() < 1e-12);
    }

    #[test]
    fn early_exit_on_best_expected() {
        let space = mixed_space();
        let view = SpaceView::cost(&space, ConjModel::NoisyOr);
        let mut inst = Instrument::new();
        // A 3-boundary whose refinement reaches the top-3 dois, then a
        // singleton group that cannot possibly beat it.
        let boundaries = vec![
            State::from_indices(vec![0, 1, 2]),
            State::from_indices(vec![3]),
        ];
        let (best, doi) = c_find_max_doi(&view, &boundaries, &mut inst, &CancelToken::unlimited());
        assert_eq!(best.len(), 3);
        assert!(doi > view.eval().best_doi_for_group(1));
    }

    #[test]
    fn empty_boundaries_yield_nothing() {
        let space = mixed_space();
        let view = SpaceView::cost(&space, ConjModel::NoisyOr);
        let mut inst = Instrument::new();
        let (best, doi) = c_find_max_doi(&view, &[], &mut inst, &CancelToken::unlimited());
        assert!(best.is_empty());
        assert_eq!(doi, Doi::ZERO);
    }
}
