//! The transitions of the CQP state spaces (paper Sections 5.2.1/5.2.2).
//!
//! All three transitions perform *syntactic* modifications with known
//! implications on the state parameters (paper Observation 1):
//!
//! * [`horizontal`] — `Cx ∪ {c_{i+1}}` where `i = max(Cx)`: insert the
//!   order-vector entry right after the largest one present. Moves to
//!   higher primary value and higher doi (cost space Table 4).
//! * [`vertical`] — replace a member `c_i` by its successor `c_{i+1}` if
//!   absent. Moves to lower primary value; the other parameters change in
//!   unknown directions. Neighbors are returned ordered by decreasing
//!   primary value of the resulting state.
//! * [`horizontal2`] — `Cx ∪ {c_i}` for any absent `c_i`, "ordered in
//!   decreasing cost": i.e. by ascending order-vector index, since the
//!   vector itself is sorted by decreasing parameter contribution.

use crate::spaces::SpaceView;
use crate::state::State;

/// The Horizontal transition: append the successor of the maximum index.
///
/// For the empty state this yields `{c1}` (the paper's algorithms start
/// from `R = {1}`). Returns `None` when the maximum index is already the
/// last entry of the order vector.
pub fn horizontal(view: &SpaceView<'_>, s: &State) -> Option<State> {
    let k = view.k() as u16;
    if k == 0 {
        return None;
    }
    match s.max_index() {
        None => Some(State::singleton(0)),
        Some(m) if m + 1 < k => Some(s.with_inserted(m + 1)),
        Some(_) => None,
    }
}

/// The Vertical transitions: every replacement of a member by its immediate
/// successor in the order vector, provided the successor is absent.
///
/// The returned list is ordered by decreasing primary value of the
/// resulting state (paper: "Vertical neighbors are ordered in decreasing
/// cost"), with ties broken by the replaced index for determinism.
pub fn vertical(view: &SpaceView<'_>, s: &State) -> Vec<State> {
    let mut out = Neighbours::default();
    vertical_into(view, s, |_| true, &mut out);
    out.iter().collect()
}

/// A reusable buffer of Vertical neighbours, filled by [`vertical_into`].
#[derive(Debug, Default)]
pub struct Neighbours {
    /// `(primary, replaced index, neighbour)`.
    items: Vec<(f64, u16, State)>,
}

impl Neighbours {
    /// The neighbours in [`vertical`]'s order.
    pub fn iter(&self) -> impl Iterator<Item = State> + '_ {
        self.items.iter().map(|&(_, _, n)| n)
    }
}

/// [`vertical`] into a reused buffer, keeping only the neighbours `keep`
/// accepts. `keep` sees every neighbour once, in ascending replaced index,
/// before any primary value is computed, so a search can drop visited
/// states without evaluating them; the kept ones come out in [`vertical`]'s
/// order.
pub fn vertical_into(
    view: &SpaceView<'_>,
    s: &State,
    mut keep: impl FnMut(&State) -> bool,
    out: &mut Neighbours,
) {
    let k = view.k() as u16;
    out.items.clear();
    // `for_each` rather than `for`: it runs on the members' word walk.
    s.iter().for_each(|i| {
        let next = i + 1;
        if next < k && !s.contains(next) {
            let n = s.with_replaced(i, next);
            if keep(&n) {
                out.items.push((view.primary(&n), i, n));
            }
        }
    });
    out.items
        .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
}

/// The Horizontal2 transitions (paper Section 5.2.1, C-MAXBOUNDS): every
/// single insertion of an absent order-vector entry, in ascending index
/// order — which is descending order of the inserted preference's
/// parameter contribution, hence "ordered in decreasing cost".
///
/// Returned lazily so "first neighbor satisfying the constraint" scans
/// don't materialize the whole list.
pub fn horizontal2<'a>(
    view: &SpaceView<'a>,
    s: &'a State,
) -> impl Iterator<Item = (u16, State)> + 'a {
    let k = view.k() as u16;
    let s = *s;
    (0..k)
        .filter(move |&i| !s.contains(i))
        .map(move |i| (i, s.with_inserted(i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spaces::SpaceView;
    use cqp_prefs::{ConjModel, Doi};
    use cqp_prefspace::{PrefParams, PreferenceSpace};

    /// The paper's Figure 6/8 example: five preferences with costs
    /// 120, 80, 60, 40, 30 in C order. We give dois so that the doi order
    /// equals the cost order (which keeps the fixture easy to reason
    /// about) — the transition structure only depends on the indices.
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
    fn horizontal_appends_after_max() {
        let space = fig6_space();
        let view = SpaceView::cost(&space, ConjModel::NoisyOr);
        // Paper: Horizontal(c1c3) = c1c3c4.
        assert_eq!(horizontal(&view, &st(&[0, 2])), Some(st(&[0, 2, 3])));
        // From the empty state: {c1}.
        assert_eq!(horizontal(&view, &State::empty()), Some(st(&[0])));
        // Max index present: no successor.
        assert_eq!(horizontal(&view, &st(&[1, 4])), None);
    }

    #[test]
    fn vertical_paper_example() {
        let space = fig6_space();
        let view = SpaceView::cost(&space, ConjModel::NoisyOr);
        // Paper: Vertical(c1c3) = {c1c4, c2c3} (in decreasing cost:
        // c1c4 = 120+40 = 160, c2c3 = 80+60 = 140).
        let vs = vertical(&view, &st(&[0, 2]));
        assert_eq!(vs, vec![st(&[0, 3]), st(&[1, 2])]);
    }

    #[test]
    fn vertical_skips_present_successors() {
        let space = fig6_space();
        let view = SpaceView::cost(&space, ConjModel::NoisyOr);
        // c1c2: replacing c1 by c2 is blocked (present); only c2→c3 works.
        let vs = vertical(&view, &st(&[0, 1]));
        assert_eq!(vs, vec![st(&[0, 2])]);
        // Full state has no vertical neighbors.
        assert!(vertical(&view, &st(&[0, 1, 2, 3, 4])).is_empty());
    }

    #[test]
    fn vertical_decreases_primary() {
        let space = fig6_space();
        let view = SpaceView::cost(&space, ConjModel::NoisyOr);
        let s = st(&[0, 2, 3]);
        let c = view.state_cost(&s);
        for n in vertical(&view, &s) {
            assert!(view.state_cost(&n) < c);
            assert_eq!(n.len(), s.len());
        }
    }

    #[test]
    fn horizontal_increases_cost_and_doi() {
        // Table 4: Horizontal ↑cost, ↑doi.
        let space = fig6_space();
        let view = SpaceView::cost(&space, ConjModel::NoisyOr);
        let s = st(&[1, 2]);
        let h = horizontal(&view, &s).unwrap();
        assert!(view.state_cost(&h) > view.state_cost(&s));
        assert!(view.state_doi(&h) > view.state_doi(&s));
        assert!(view.state_size(&h) <= view.state_size(&s));
    }

    #[test]
    fn horizontal2_enumerates_in_decreasing_cost() {
        let space = fig6_space();
        let view = SpaceView::cost(&space, ConjModel::NoisyOr);
        // Paper: Horizontal2(c2) = {c1c2, c2c3, c2c4, c2c5}.
        let base = st(&[1]);
        let hs: Vec<State> = horizontal2(&view, &base).map(|(_, s)| s).collect();
        assert_eq!(hs, vec![st(&[0, 1]), st(&[1, 2]), st(&[1, 3]), st(&[1, 4])]);
        // Costs decrease along the enumeration.
        let costs: Vec<u64> = hs.iter().map(|s| view.state_cost(s)).collect();
        for w in costs.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn doi_space_transitions_mirror_table5() {
        let space = fig6_space();
        let view = SpaceView::doi(&space, ConjModel::NoisyOr);
        let s = st(&[1, 2]);
        // Horizontal: ↑doi (Table 5).
        let h = horizontal(&view, &s).unwrap();
        assert!(view.state_doi(&h) > view.state_doi(&s));
        // Vertical: ↓doi, cost unknown.
        for n in vertical(&view, &s) {
            assert!(view.state_doi(&n) < view.state_doi(&s));
        }
    }

    #[test]
    fn destination_states_remain_valid_sets() {
        // Proposition 1: the destination of a transition is also a state.
        let space = fig6_space();
        let view = SpaceView::cost(&space, ConjModel::NoisyOr);
        for s in [st(&[0]), st(&[0, 2]), st(&[1, 3]), st(&[0, 1, 2])] {
            if let Some(h) = horizontal(&view, &s) {
                assert_eq!(h.len(), s.len() + 1);
            }
            for v in vertical(&view, &s) {
                assert_eq!(v.len(), s.len());
            }
            for (_, h2) in horizontal2(&view, &s) {
                assert_eq!(h2.len(), s.len() + 1);
            }
        }
    }
}
