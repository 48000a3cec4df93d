//! Section 6 — adapting the state-space machinery to all Table 1 problems.
//!
//! "For all problems in Table 1, it is essentially the same kind of state
//! spaces that are available for search … The only adaptation that is
//! required in each case is making the appropriate choice of the direction
//! of Horizontal and Vertical transitions."
//!
//! Every constraint is monotone along the subset lattice, so it is either
//! **down-closed** (adding preferences can only break it: `cost ≤ cmax`,
//! `size ≥ smin`) or **up-closed** (adding preferences can only help:
//! `doi ≥ dmin`, `size ≤ smax`). The two search shapes are then:
//!
//! * **MaxDoi problems (1–3)** — boundary enumeration wrt the down-closed
//!   constraints (exactly `FINDBOUNDARY`, with the feasibility predicate
//!   swapped), followed by a refinement that replaces boundary members by
//!   *later* positions of the order vector — which preserves the
//!   down-closed constraints by construction — and a full-constraint check.
//! * **MinCost problems (4–6)** — the mirrored search: climb `Horizontal`
//!   until the up-closed constraints are first satisfied (minimal feasible
//!   nodes), then refine by replacing members with *earlier* positions —
//!   which preserves the up-closed constraints — minimizing cost.
//!
//! Both refinements are greedy transversals of nested (suffix/prefix)
//! families and hence optimal for their additive weight; when a refinement
//! breaks one of the *other* constraints, the unrefined candidate is kept —
//! this is where the composite problems (3 and 5) become heuristic, exactly
//! as the paper's description suggests ("the algorithm keeps track of the
//! solution with the currently maximum degree of interest that also
//! satisfies the cost constraint"). Problem 2 is exact (Theorem 2);
//! Problem 4's shape is validated against branch-and-bound in the tests.

use super::prune::{Pruner, STATE_BYTES};
use super::{c_boundaries, Solution};
use crate::budget::CancelToken;
use crate::instrument::Instrument;
use crate::problem::{Constraints, Objective, ProblemKind, ProblemSpec};
use crate::spaces::SpaceView;
use crate::state::State;
use crate::transitions::{horizontal, vertical_into, Neighbours};
use cqp_prefs::ConjModel;
use cqp_prefspace::PreferenceSpace;
use std::collections::VecDeque;

/// Solves any Table 1 problem with the paper-style state-space machinery.
///
/// Problem 2 dispatches to the exact C-BOUNDARIES; the other problems use
/// the band/mirror searches described in the module docs. For a provably
/// exact answer on Problems 1, 3, 5, 6 use
/// [`super::branch_bound::solve`].
pub fn solve(space: &PreferenceSpace, conj: ConjModel, problem: &ProblemSpec) -> Solution {
    solve_bounded(space, conj, problem, &CancelToken::unlimited())
}

/// [`solve`] polling `token` in every search loop; on a trip the best
/// feasible candidate found so far is returned (the caller tags it
/// degraded).
pub fn solve_bounded(
    space: &PreferenceSpace,
    conj: ConjModel,
    problem: &ProblemSpec,
    token: &CancelToken,
) -> Solution {
    // P2 dispatches to the exact C-BOUNDARIES when its cost bound is
    // present (always true for specs built via `ProblemSpec::p2`, but a
    // hand-rolled spec without one falls through to the band search
    // instead of panicking).
    if problem.kind() == Some(ProblemKind::P2) {
        if let Some(cmax) = problem.constraints.cost_max_blocks {
            return c_boundaries::solve_budgeted(
                space,
                conj,
                cmax,
                &cqp_obs::NoopRecorder,
                None,
                token,
            );
        }
    }
    match problem.objective {
        Objective::MaxDoi => max_doi_band(space, conj, problem, token),
        Objective::MinCost => min_cost_mirror(space, conj, problem, token),
    }
}

/// MaxDoi under a constraint band (Problems 1 and 3).
fn max_doi_band(
    space: &PreferenceSpace,
    conj: ConjModel,
    problem: &ProblemSpec,
    token: &CancelToken,
) -> Solution {
    // Primary space: cost when a cost bound exists (P3), else size (P1).
    let view = if problem.constraints.cost_max_blocks.is_some() {
        SpaceView::cost(space, conj)
    } else {
        SpaceView::size(space, conj)
    };
    let eval = view.eval();
    let mut inst = Instrument::new();
    let boundaries = find_band_boundaries_bounded(&view, &problem.constraints, &mut inst, token);
    inst.boundaries_found = boundaries.len() as u64;

    let mut best: Option<(Vec<usize>, crate::params::QueryParams)> = None;
    for b in &boundaries {
        if token.should_stop() {
            break;
        }
        // Candidate 1: the boundary itself.
        // Candidate 2: suffix-refined for max doi (keeps down-closed).
        // Candidate 3: suffix-refined for min size (helps reach smax).
        let refined_doi = refine_suffix(&view, b, |p| eval.space().doi(p).value(), true);
        let refined_size = refine_suffix(&view, b, |p| eval.space().size_factor(p), false);
        for cand in [b.to_pref_indices(view.order()), refined_doi, refined_size] {
            let params = eval.params_of(&cand);
            inst.param_evals += 1;
            if !problem.feasible(&params) {
                continue;
            }
            let replace = match &best {
                None => true,
                Some((_, bp)) => problem.better(&params, bp),
            };
            if replace {
                best = Some((cand, params));
            }
        }
    }
    match best {
        Some((prefs, _)) => Solution::from_prefs(eval, prefs, inst),
        None => Solution {
            instrument: inst,
            ..Solution::empty(eval)
        },
    }
}

/// MinCost with up-closed requirements (Problems 4, 5, 6).
fn min_cost_mirror(
    space: &PreferenceSpace,
    conj: ConjModel,
    problem: &ProblemSpec,
    token: &CancelToken,
) -> Solution {
    // Primary space: doi when a doi bound exists (P4/P5), else size (P6).
    let view = if problem.constraints.doi_min.is_some() {
        SpaceView::doi(space, conj)
    } else {
        SpaceView::size(space, conj)
    };
    let eval = view.eval();
    let mut inst = Instrument::new();
    let minimal = find_minimal_up_bounded(&view, &problem.constraints, &mut inst, token);
    inst.boundaries_found = minimal.len() as u64;

    let mut best: Option<(Vec<usize>, crate::params::QueryParams)> = None;
    for m in &minimal {
        if token.should_stop() {
            break;
        }
        let refined = refine_prefix(&view, m, |p| eval.space().cost_blocks(p) as f64, false);
        for cand in [m.to_pref_indices(view.order()), refined] {
            let params = eval.params_of(&cand);
            inst.param_evals += 1;
            if !problem.feasible(&params) {
                continue;
            }
            let replace = match &best {
                None => true,
                Some((_, bp)) => problem.better(&params, bp),
            };
            if replace {
                best = Some((cand, params));
            }
        }
    }
    match best {
        Some((prefs, _)) => Solution::from_prefs(eval, prefs, inst),
        None => Solution {
            instrument: inst,
            ..Solution::empty(eval)
        },
    }
}

/// `FINDBOUNDARY` generalized to an arbitrary down-closed predicate:
/// boundaries are the deepest states (per chain) whose down-closed
/// constraints still hold.
pub fn find_band_boundaries(
    view: &SpaceView<'_>,
    constraints: &Constraints,
    inst: &mut Instrument,
) -> Vec<State> {
    find_band_boundaries_bounded(view, constraints, inst, &CancelToken::unlimited())
}

/// [`find_band_boundaries`] polling `token` once per dequeued state; on a
/// trip the boundaries recorded so far are returned.
pub fn find_band_boundaries_bounded(
    view: &SpaceView<'_>,
    constraints: &Constraints,
    inst: &mut Instrument,
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
        let params = view.state_params(&r);
        inst.param_evals += 1;
        if constraints.down_closed_ok(&params) {
            pruner.add_boundary(&r);
            boundaries.push(r);
            if let Some(h) = horizontal(view, &r) {
                inst.horizontal_moves += 1;
                if pruner.mark_visited(&h) {
                    rq.push_back(h);
                }
            }
        } else {
            let admit = |n: &State| {
                inst.vertical_moves += 1;
                pruner.admit(n)
            };
            vertical_into(view, &r, admit, &mut neighbours);
            for n in neighbours.iter() {
                rq.push_front(n);
            }
        }
        inst.observe_bytes(rq.len() * STATE_BYTES + pruner.bytes());
    }
    boundaries
}

/// The mirrored first phase: per chain, climb `Horizontal` until the
/// up-closed constraints first hold; record those minimal feasible nodes
/// and branch through their Vertical neighbors.
pub fn find_minimal_up(
    view: &SpaceView<'_>,
    constraints: &Constraints,
    inst: &mut Instrument,
) -> Vec<State> {
    find_minimal_up_bounded(view, constraints, inst, &CancelToken::unlimited())
}

/// [`find_minimal_up`] polling `token` once per dequeued state; on a trip
/// the minimal feasible nodes recorded so far are returned.
pub fn find_minimal_up_bounded(
    view: &SpaceView<'_>,
    constraints: &Constraints,
    inst: &mut Instrument,
    token: &CancelToken,
) -> Vec<State> {
    let mut minimal: Vec<State> = Vec::new();
    if view.k() == 0 {
        return minimal;
    }
    let mut rq: VecDeque<State> = VecDeque::new();
    let mut pruner = Pruner::new(view.k());
    let mut neighbours = Neighbours::default();
    let start = State::singleton(0);
    pruner.mark_visited(&start);
    rq.push_back(start);

    while let Some(mut r) = rq.pop_front() {
        if token.should_stop() {
            break;
        }
        inst.states_examined += 1;
        // Climb until the up-closed constraints hold.
        let mut ok = {
            inst.param_evals += 1;
            constraints.up_closed_ok(&view.state_params(&r))
        };
        while !ok {
            match horizontal(view, &r) {
                Some(h) => {
                    inst.horizontal_moves += 1;
                    r = h;
                    inst.param_evals += 1;
                    ok = constraints.up_closed_ok(&view.state_params(&r));
                }
                None => break, // chain exhausted without satisfying
            }
        }
        if ok {
            minimal.push(r);
            let unvisited = |n: &State| {
                inst.vertical_moves += 1;
                pruner.mark_visited(n)
            };
            vertical_into(view, &r, unvisited, &mut neighbours);
            rq.extend(neighbours.iter());
        }
        inst.observe_bytes(rq.len() * STATE_BYTES + pruner.bytes());
    }
    minimal
}

/// Greedy transversal over the *suffix* family `{j ≥ slot}`: for each slot
/// (largest first) pick the unused P-index optimizing `key`. Replacing
/// members by later positions preserves the down-closed constraints of the
/// view's parameter (cost space: cheaper; size space: larger result).
pub fn refine_suffix(
    view: &SpaceView<'_>,
    r: &State,
    key: impl Fn(usize) -> f64,
    maximize: bool,
) -> Vec<usize> {
    let k_total = view.k();
    let mut used = vec![false; k_total];
    let mut out = Vec::with_capacity(r.len());
    for slot in r.iter().rev() {
        let slot = slot as usize;
        let mut best_p: Option<usize> = None;
        for j in slot..k_total {
            let p = view.pref_at(j as u16);
            if used[p] {
                continue;
            }
            let better = match best_p {
                None => true,
                Some(bp) => {
                    if maximize {
                        key(p) > key(bp)
                    } else {
                        key(p) < key(bp)
                    }
                }
            };
            if better {
                best_p = Some(p);
            }
        }
        let p = best_p.expect("suffix always has enough unused positions");
        used[p] = true;
        out.push(p);
    }
    out.sort_unstable();
    out
}

/// Greedy transversal over the *prefix* family `{j ≤ slot}`: for each slot
/// (smallest first) pick the unused P-index optimizing `key`. Replacing
/// members by earlier positions preserves the up-closed constraints of the
/// view's parameter (doi space: higher doi; size space: smaller result).
pub fn refine_prefix(
    view: &SpaceView<'_>,
    r: &State,
    key: impl Fn(usize) -> f64,
    maximize: bool,
) -> Vec<usize> {
    let mut used = vec![false; view.k()];
    let mut out = Vec::with_capacity(r.len());
    for slot in r.iter() {
        let slot = slot as usize;
        let mut best_p: Option<usize> = None;
        for j in 0..=slot {
            let p = view.pref_at(j as u16);
            if used[p] {
                continue;
            }
            let better = match best_p {
                None => true,
                Some(bp) => {
                    if maximize {
                        key(p) > key(bp)
                    } else {
                        key(p) < key(bp)
                    }
                }
            };
            if better {
                best_p = Some(p);
            }
        }
        let p = best_p.expect("prefix always has enough unused positions");
        used[p] = true;
        out.push(p);
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{branch_bound, exhaustive};
    use cqp_prefs::Doi;
    use cqp_prefspace::{PrefParams, PreferenceSpace};

    fn space6() -> PreferenceSpace {
        PreferenceSpace::synthetic(
            vec![
                PrefParams {
                    doi: Doi::new(0.95),
                    cost_blocks: 50,
                    size_factor: 0.9,
                },
                PrefParams {
                    doi: Doi::new(0.8),
                    cost_blocks: 40,
                    size_factor: 0.5,
                },
                PrefParams {
                    doi: Doi::new(0.6),
                    cost_blocks: 30,
                    size_factor: 0.7,
                },
                PrefParams {
                    doi: Doi::new(0.55),
                    cost_blocks: 20,
                    size_factor: 0.3,
                },
                PrefParams {
                    doi: Doi::new(0.3),
                    cost_blocks: 10,
                    size_factor: 0.8,
                },
                PrefParams {
                    doi: Doi::new(0.2),
                    cost_blocks: 5,
                    size_factor: 0.6,
                },
            ],
            1000.0,
            0,
        )
    }

    #[test]
    fn p2_dispatches_to_exact() {
        let s = space6();
        let sol = solve(&s, ConjModel::NoisyOr, &ProblemSpec::p2(70));
        let oracle = exhaustive::solve_p2(&s, ConjModel::NoisyOr, 70);
        assert_eq!(sol.doi, oracle.doi);
    }

    #[test]
    fn p4_matches_branch_and_bound() {
        let s = space6();
        for dmin in [0.3, 0.5, 0.7, 0.9, 0.96, 0.99] {
            let p = ProblemSpec::p4(Doi::new(dmin));
            let sol = solve(&s, ConjModel::NoisyOr, &p);
            let oracle = branch_bound::solve(&s, ConjModel::NoisyOr, &p);
            assert_eq!(sol.found, oracle.found, "dmin={dmin}");
            if sol.found {
                assert!(sol.doi >= Doi::new(dmin), "dmin={dmin}");
                assert_eq!(sol.cost_blocks, oracle.cost_blocks, "dmin={dmin}");
            }
        }
    }

    #[test]
    fn p1_feasible_and_competitive() {
        let s = space6();
        for (smin, smax) in [(1.0, 500.0), (50.0, 300.0), (100.0, 900.0)] {
            let p = ProblemSpec::p1(smin, smax);
            let sol = solve(&s, ConjModel::NoisyOr, &p);
            let oracle = exhaustive::solve(&s, ConjModel::NoisyOr, &p);
            if sol.found {
                assert!(sol.size_rows >= smin && sol.size_rows <= smax);
                assert!(sol.doi <= oracle.doi);
            }
            if oracle.found {
                assert!(
                    sol.found,
                    "band search missed a feasible region ({smin},{smax})"
                );
            }
        }
    }

    #[test]
    fn p3_feasible_and_competitive() {
        let s = space6();
        let p = ProblemSpec::p3(100, 50.0, 600.0);
        let sol = solve(&s, ConjModel::NoisyOr, &p);
        let oracle = exhaustive::solve(&s, ConjModel::NoisyOr, &p);
        if sol.found {
            let params = sol.params();
            assert!(p.feasible(&params));
            assert!(sol.doi <= oracle.doi);
        }
        assert_eq!(sol.found, oracle.found);
    }

    #[test]
    fn p5_and_p6_feasible() {
        let s = space6();
        let p5 = ProblemSpec::p5(Doi::new(0.6), 50.0, 800.0);
        let sol5 = solve(&s, ConjModel::NoisyOr, &p5);
        if sol5.found {
            assert!(p5.feasible(&sol5.params()));
            let oracle = exhaustive::solve(&s, ConjModel::NoisyOr, &p5);
            assert!(sol5.cost_blocks >= oracle.cost_blocks);
        }
        let p6 = ProblemSpec::p6(50.0, 800.0);
        let sol6 = solve(&s, ConjModel::NoisyOr, &p6);
        if sol6.found {
            assert!(p6.feasible(&sol6.params()));
            let oracle = exhaustive::solve(&s, ConjModel::NoisyOr, &p6);
            assert!(sol6.cost_blocks >= oracle.cost_blocks);
        }
    }

    #[test]
    fn infeasible_band_returns_empty() {
        let s = space6();
        // Impossible: size must be both >= 900 and <= 10.
        let p = ProblemSpec::p1(900.0, 910.0);
        // With one pref the best size is 0.9*1000=900 — actually feasible!
        let sol = solve(&s, ConjModel::NoisyOr, &p);
        assert!(sol.found);
        assert!((sol.size_rows - 900.0).abs() < 1e-9);
        // Now a truly impossible band.
        let p = ProblemSpec::p1(990.0, 995.0);
        let sol = solve(&s, ConjModel::NoisyOr, &p);
        assert!(!sol.found);
    }
}
