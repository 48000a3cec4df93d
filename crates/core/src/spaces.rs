//! Space views: a rank vector (`C`, `D`, or `S`) bound to a parameter
//! evaluator.
//!
//! "Transitions are based on transformation rules … Each category creates a
//! different state space (same nodes, different edges)" (paper Section 5.1).
//! A [`SpaceView`] fixes which rank vector the state indices refer to, and
//! therefore which state space the transitions of [`crate::transitions`]
//! generate.

use crate::params::{ParamEval, QueryParams};
use crate::state::State;
use cqp_prefs::{ConjModel, Doi};
use cqp_prefspace::PreferenceSpace;

/// Which parameter orders the rank vector of a view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceKind {
    /// The `C` vector: preferences by decreasing `cost(Q ∧ p)`.
    Cost,
    /// The `D` vector: preferences by decreasing doi (identity over `P`).
    Doi,
    /// The `S` vector: preferences by increasing `size(Q ∧ p)`.
    Size,
}

/// A state space: an order vector over `P` plus the parameter evaluator.
#[derive(Debug, Clone, Copy)]
pub struct SpaceView<'a> {
    eval: ParamEval<'a>,
    kind: SpaceKind,
    order: &'a [usize],
}

impl<'a> SpaceView<'a> {
    /// The cost state space (requires the space's `C` vector to be built).
    ///
    /// # Panics
    /// Panics if the preference space was extracted in doi-only mode.
    pub fn cost(space: &'a PreferenceSpace, conj: ConjModel) -> Self {
        assert!(
            space.c.len() == space.k(),
            "cost view requires the C vector (space was built in doi-only mode?)"
        );
        SpaceView {
            eval: ParamEval::new(space, conj),
            kind: SpaceKind::Cost,
            order: &space.c,
        }
    }

    /// The doi state space (`D` is the identity over `P`).
    pub fn doi(space: &'a PreferenceSpace, conj: ConjModel) -> Self {
        assert!(space.d.len() == space.k(), "D vector must be built");
        SpaceView {
            eval: ParamEval::new(space, conj),
            kind: SpaceKind::Doi,
            order: &space.d,
        }
    }

    /// The size state space (requires the space's `S` vector).
    ///
    /// # Panics
    /// Panics if the preference space was extracted in doi-only mode.
    pub fn size(space: &'a PreferenceSpace, conj: ConjModel) -> Self {
        assert!(
            space.s.len() == space.k(),
            "size view requires the S vector (space was built in doi-only mode?)"
        );
        SpaceView {
            eval: ParamEval::new(space, conj),
            kind: SpaceKind::Size,
            order: &space.s,
        }
    }

    /// The parameter evaluator.
    pub fn eval(&self) -> &ParamEval<'a> {
        &self.eval
    }

    /// The order vector of this view.
    pub fn order(&self) -> &'a [usize] {
        self.order
    }

    /// Which parameter orders this view.
    pub fn kind(&self) -> SpaceKind {
        self.kind
    }

    /// Number of preferences `K`.
    pub fn k(&self) -> usize {
        self.order.len()
    }

    /// P-index of the `i`-th entry of the order vector (the paper's `C[i]`).
    pub fn pref_at(&self, i: u16) -> usize {
        self.order[i as usize]
    }

    /// The P-indices of a state's members, in ascending position: the
    /// order every parameter fold below takes them in, so a state's doi
    /// and size are the same `f64`s whichever search computes them.
    fn prefs_of(&self, s: &State) -> impl Iterator<Item = usize> + 'a {
        let order = self.order;
        s.iter().map(move |i| order[i as usize])
    }

    /// doi of a state in this view.
    pub fn state_doi(&self, s: &State) -> Doi {
        self.eval.doi_of(self.prefs_of(s))
    }

    /// Cost (blocks) of a state in this view.
    pub fn state_cost(&self, s: &State) -> u64 {
        self.eval.cost_of(self.prefs_of(s))
    }

    /// Estimated size (rows) of a state in this view.
    pub fn state_size(&self, s: &State) -> f64 {
        self.eval.size_of(self.prefs_of(s))
    }

    /// All parameters of a state in this view.
    pub fn state_params(&self, s: &State) -> QueryParams {
        QueryParams {
            doi: self.state_doi(s),
            cost_blocks: self.state_cost(s),
            size_rows: self.state_size(s),
        }
    }

    /// The *primary* value of a state: the parameter the order vector sorts
    /// on, signed so that it **decreases** along the vector:
    ///
    /// * cost space  → cost (`C` is sorted by decreasing cost),
    /// * doi space   → doi,
    /// * size space  → `-size` (`S` is sorted by increasing size).
    ///
    /// Horizontal transitions increase it; the Vertical neighbor lists are
    /// ordered by it descending (paper: "Vertical neighbors are ordered in
    /// decreasing cost").
    pub fn primary(&self, s: &State) -> f64 {
        match self.kind {
            SpaceKind::Cost => self.state_cost(s) as f64,
            SpaceKind::Doi => self.state_doi(s).value(),
            SpaceKind::Size => -self.state_size(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqp_prefspace::PrefParams;

    fn space() -> PreferenceSpace {
        PreferenceSpace::synthetic(
            vec![
                PrefParams {
                    doi: Doi::new(0.8),
                    cost_blocks: 5,
                    size_factor: 0.2,
                },
                PrefParams {
                    doi: Doi::new(0.7),
                    cost_blocks: 12,
                    size_factor: 1.0,
                },
                PrefParams {
                    doi: Doi::new(0.5),
                    cost_blocks: 10,
                    size_factor: 0.3,
                },
            ],
            10.0,
            0,
        )
    }

    #[test]
    fn views_map_indices_through_their_vector() {
        let s = space();
        // P (doi-sorted): [.8/5/.2, .7/12/1.0, .5/10/.3]
        // C (cost desc): [1, 2, 0]; S (size asc): [0, 2, 1]
        let cost = SpaceView::cost(&s, ConjModel::NoisyOr);
        assert_eq!(cost.pref_at(0), 1);
        let st = State::singleton(0); // c1 = most expensive = P-index 1
        assert_eq!(cost.state_cost(&st), 12);
        assert!((cost.state_doi(&st).value() - 0.7).abs() < 1e-12);

        let size = SpaceView::size(&s, ConjModel::NoisyOr);
        assert_eq!(size.pref_at(0), 0); // smallest size factor first
        assert!((size.state_size(&State::singleton(0)) - 2.0).abs() < 1e-12);

        let doi = SpaceView::doi(&s, ConjModel::NoisyOr);
        assert_eq!(doi.pref_at(0), 0);
        assert!((doi.state_doi(&State::singleton(0)).value() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn primary_decreases_along_each_order_vector() {
        let s = space();
        for view in [
            SpaceView::cost(&s, ConjModel::NoisyOr),
            SpaceView::doi(&s, ConjModel::NoisyOr),
            SpaceView::size(&s, ConjModel::NoisyOr),
        ] {
            let singles: Vec<f64> = (0..view.k() as u16)
                .map(|i| view.primary(&State::singleton(i)))
                .collect();
            for w in singles.windows(2) {
                assert!(w[0] >= w[1], "{:?}: {:?}", view.kind(), singles);
            }
        }
    }

    #[test]
    fn state_params_consistent_with_individual_accessors() {
        let s = space();
        let view = SpaceView::cost(&s, ConjModel::NoisyOr);
        let st = State::from_indices(vec![0, 2]);
        let p = view.state_params(&st);
        assert_eq!(p.cost_blocks, view.state_cost(&st));
        assert_eq!(p.doi, view.state_doi(&st));
        assert!((p.size_rows - view.state_size(&st)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "doi-only mode")]
    fn cost_view_requires_c_vector() {
        let mut s = space();
        s.build_vectors(false);
        let _ = SpaceView::cost(&s, ConjModel::NoisyOr);
    }
}
