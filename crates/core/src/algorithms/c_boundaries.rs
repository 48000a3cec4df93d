//! Algorithm **C-BOUNDARIES** (paper Figure 5) — exact for Problem 2.
//!
//! Phase 1 (`FINDBOUNDARY`) finds the *boundaries*: nodes satisfying the
//! cost constraint whose Vertical predecessors do not. They form a virtual
//! borderline partitioning the cost state space. Phase 2
//! (`C_FINDMAXDOI`, in [`super::find_max_doi`]) searches below the
//! boundaries for the node of maximum doi.
//!
//! Queue discipline (Figure 5): feasible nodes push their Horizontal
//! successor at the **tail**; infeasible nodes push their Vertical
//! neighbors at the **head** — "in this way, we first examine all states
//! belonging to the same group and then proceed to the next group's
//! states". Verticals are generated in decreasing cost and pushed to the
//! head one by one, so they are *examined* cheapest-first; this reproduces
//! the paper's Figure 6 trace exactly.

use super::find_max_doi::c_find_max_doi;
use super::prune::{Pruner, STATE_BYTES};
use super::{solve_two_phase, Solution};
use crate::budget::CancelToken;
use crate::cost_cache::{CacheHandle, SharedCostCache};
use crate::instrument::Instrument;
use crate::spaces::SpaceView;
use crate::state::State;
use crate::transitions::{horizontal, vertical_into, Neighbours};
use cqp_obs::{NoopRecorder, Recorder};
use cqp_prefs::ConjModel;
use cqp_prefspace::PreferenceSpace;
use std::collections::VecDeque;

/// Runs C-BOUNDARIES for Problem 2.
pub fn solve(space: &PreferenceSpace, conj: ConjModel, cmax_blocks: u64) -> Solution {
    let token = CancelToken::unlimited();
    solve_budgeted(space, conj, cmax_blocks, &NoopRecorder, None, &token)
}

/// [`solve`] with one span and one [`Instrument`] per phase (counters are
/// flushed to the recorder at each phase boundary and kept in
/// [`Solution::phases`]), polling `token` in both phases; on a trip the
/// phase stops where it is and the best incumbent reachable from the
/// boundaries found so far is returned (the dispatcher tags it degraded).
/// With a batch-wide [`SharedCostCache`], phase 1 memoizes state costs
/// through it so concurrent requests over the same preference space reuse
/// each other's evaluations. Cached costs are exact, so the answer is
/// identical either way.
pub fn solve_budgeted(
    space: &PreferenceSpace,
    conj: ConjModel,
    cmax_blocks: u64,
    recorder: &dyn Recorder,
    shared: Option<&SharedCostCache>,
    token: &CancelToken,
) -> Solution {
    let view = SpaceView::cost(space, conj);
    let mut cache = match shared {
        Some(c) => CacheHandle::shared(c, &view),
        None => CacheHandle::local(),
    };
    solve_two_phase(
        view.eval(),
        recorder,
        "find_boundaries",
        |inst| find_boundary_bounded(&view, cmax_blocks, inst, &mut cache, token),
        |boundaries, inst| c_find_max_doi(&view, boundaries, inst, token).0,
    )
}

/// Phase 1: `FINDBOUNDARY` (paper Figure 5).
pub fn find_boundary(view: &SpaceView<'_>, cmax: u64, inst: &mut Instrument) -> Vec<State> {
    // "Costs that may be re-used are cached" (Section 5.2.1): states
    // re-reached through different transition sequences skip re-evaluation.
    let mut cache = CacheHandle::local();
    find_boundary_bounded(view, cmax, inst, &mut cache, &CancelToken::unlimited())
}

/// [`find_boundary`] against a caller-provided cost cache (local or
/// batch-shared), polling `token` once per dequeued state. On a trip the
/// queue is abandoned: the boundaries found so far are returned, each of
/// which already satisfies the cost constraint.
pub fn find_boundary_bounded(
    view: &SpaceView<'_>,
    cmax: u64,
    inst: &mut Instrument,
    cache: &mut CacheHandle<'_>,
    token: &CancelToken,
) -> Vec<State> {
    let mut boundaries: Vec<State> = Vec::new();
    if view.k() == 0 {
        return boundaries;
    }
    let mut rq: VecDeque<State> = VecDeque::new();
    let mut pruner = Pruner::new(view.k());
    let mut neighbours = Neighbours::default();
    let start = State::singleton(0);
    pruner.mark_visited(&start);
    rq.push_back(start);

    while let Some(r) = rq.pop_front() {
        if token.should_stop() {
            break;
        }
        inst.states_examined += 1;
        let cost = cache.cost(view, &r);
        inst.param_evals += 1;
        if cost <= cmax {
            // A boundary: record it and move Horizontal (next group).
            pruner.add_boundary(&r);
            boundaries.push(r);
            if let Some(h) = horizontal(view, &r) {
                inst.horizontal_moves += 1;
                if pruner.mark_visited(&h) {
                    rq.push_back(h);
                }
            }
        } else {
            // Push Vertical neighbors at the head; generation order is
            // decreasing cost, so the head ends up cheapest-first.
            let admit = |n: &State| {
                inst.vertical_moves += 1;
                pruner.admit(n)
            };
            vertical_into(view, &r, admit, &mut neighbours);
            for n in neighbours.iter() {
                rq.push_front(n);
            }
        }
        // Boundary bytes are part of pruner.bytes().
        inst.observe_bytes(rq.len() * STATE_BYTES + pruner.bytes() + cache.bytes());
    }
    cache.absorb_into(inst);
    boundaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exhaustive;
    use cqp_prefs::Doi;
    use cqp_prefspace::{PrefParams, PreferenceSpace};

    /// The Figure 6 fixture: costs 120, 80, 60, 40, 30 (C order), base 0.
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
    fn figure6_boundaries_match_paper() {
        // Paper: for cmax=185, FINDBOUNDARY outputs
        // {{1}, {1,3}, {2,3,4}, {2,4,5}} = {c1, c1c3, c2c3c4, c2c4c5} — and
        // then remarks that c2c4c5 "has been wrongly identified as a
        // boundary. If c2c3c4 was found first, then c2c4c5 would not have
        // been visited in the first place." Our queue discipline examines
        // same-group Verticals cheapest-first, so c2c3c4 IS found first and
        // the dominance prune removes c2c4c5, realizing exactly the
        // behaviour the paper describes as intended.
        let space = fig6_space();
        let view = SpaceView::cost(&space, ConjModel::NoisyOr);
        let mut inst = Instrument::new();
        let bs = find_boundary(&view, 185, &mut inst);
        assert_eq!(
            bs,
            vec![st(&[0]), st(&[0, 2]), st(&[1, 2, 3])],
            "got: {:?}",
            bs.iter().map(|b| b.to_string()).collect::<Vec<_>>()
        );
        // Every boundary satisfies the constraint...
        for b in &bs {
            assert!(view.state_cost(b) <= 185);
        }
        // ...and none is below another (they are mutually unreachable).
        for a in &bs {
            for b in &bs {
                if a != b {
                    assert!(!a.dominated_by(b), "{a} is below {b}");
                }
            }
        }
    }

    #[test]
    fn figure6_solution_is_exact() {
        let space = fig6_space();
        let sol = solve(&space, ConjModel::NoisyOr, 185);
        let oracle = exhaustive::solve_p2(&space, ConjModel::NoisyOr, 185);
        assert_eq!(sol.prefs, oracle.prefs);
        assert_eq!(sol.doi, oracle.doi);
        assert!(sol.cost_blocks <= 185);
        assert!(sol.instrument.boundaries_found >= 3);
    }

    #[test]
    fn matches_oracle_across_cmax_sweep() {
        let space = fig6_space();
        for cmax in (0..=340).step_by(5) {
            let sol = solve(&space, ConjModel::NoisyOr, cmax);
            let oracle = exhaustive::solve_p2(&space, ConjModel::NoisyOr, cmax);
            assert_eq!(sol.doi, oracle.doi, "cmax={cmax}");
            assert!(
                sol.cost_blocks <= cmax.max(space.base_cost_blocks),
                "cmax={cmax}"
            );
        }
    }

    #[test]
    fn empty_space_returns_empty() {
        let space = PreferenceSpace::synthetic(vec![], 10.0, 2);
        let sol = solve(&space, ConjModel::NoisyOr, 100);
        assert!(!sol.found);
        assert_eq!(sol.cost_blocks, 2); // base query cost
    }

    #[test]
    fn memory_is_tracked() {
        let space = fig6_space();
        let sol = solve(&space, ConjModel::NoisyOr, 185);
        assert!(sol.instrument.peak_bytes > 0);
        assert!(sol.instrument.states_examined > 0);
    }

    #[test]
    fn phases_are_attributed_separately() {
        let space = fig6_space();
        let obs = cqp_obs::Obs::new();
        let token = CancelToken::unlimited();
        let sol = solve_budgeted(&space, ConjModel::NoisyOr, 185, &obs, None, &token);

        // Per-phase instruments survive (no merge attribution loss) and
        // their merge reproduces the blended total.
        assert_eq!(sol.phases.len(), 2);
        let (n1, p1) = sol.phases[0];
        let (n2, p2) = sol.phases[1];
        assert_eq!(n1, "find_boundaries");
        assert_eq!(n2, "find_max_doi");
        assert!(p1.states_examined > 0);
        assert!(p2.param_evals > 0);
        assert_eq!(p2.states_examined, 0, "phase 2 pops no queue states");
        let mut merged = p1;
        merged.merge(&p2);
        assert_eq!(sol.instrument, merged);

        // The cost cache flowed its stats into phase 1.
        assert!(p1.cache_misses > 0);

        // Spans and registry counters were published.
        let spans = obs.spans();
        assert!(spans.iter().any(|s| s.path == "find_boundaries"));
        assert!(spans.iter().any(|s| s.path == "find_max_doi"));
        assert_eq!(
            obs.registry().counter("solver.states_examined"),
            sol.instrument.states_examined
        );

        // Recording changes observation, not the answer.
        let plain = solve(&space, ConjModel::NoisyOr, 185);
        assert_eq!(plain.prefs, sol.prefs);
        assert_eq!(plain.doi, sol.doi);
    }
}
