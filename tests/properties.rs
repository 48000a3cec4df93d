//! Property-based tests of the CQP invariants (proptest).
//!
//! These encode the paper's formal claims as machine-checked properties:
//! Formulas 4/7/8 (parameter monotonicity), Proposition 1 and Tables 4/5
//! (transition structure), Theorems 2/3 (exactness of C-BOUNDARIES and
//! D-MAXDOI), and feasibility/suboptimality of every heuristic — all over
//! randomized synthetic preference spaces.

use cqp_core::algorithms::{branch_bound, exhaustive, general};
use cqp_core::spaces::SpaceView;
use cqp_core::transitions::{horizontal, horizontal2, vertical};
use cqp_core::{solve_p2, Algorithm, ProblemSpec, State};
use cqp_prefs::{ConjModel, Doi};
use cqp_prefspace::{PrefParams, PreferenceSpace};
use proptest::prelude::*;

/// Strategy: a preference space of 1..=9 preferences with doi in
/// [0.05, 0.95], cost in [1, 60] blocks, size factor in [0.05, 1.0].
fn arb_space() -> impl Strategy<Value = PreferenceSpace> {
    prop::collection::vec((1u64..=19, 1u64..=60, 1u32..=20), 1..=9).prop_map(|raw| {
        let params: Vec<PrefParams> = raw
            .into_iter()
            .map(|(d, c, f)| PrefParams {
                doi: Doi::new(d as f64 * 0.05),
                cost_blocks: c,
                size_factor: f as f64 * 0.05,
            })
            .collect();
        PreferenceSpace::synthetic(params, 1000.0, 0)
    })
}

/// Strategy: a subset of `0..k` as a state.
fn arb_state(k: usize) -> impl Strategy<Value = State> {
    prop::collection::btree_set(0u16..k as u16, 0..=k)
        .prop_map(|s| State::from_indices(s.into_iter().collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Theorems 2 & 3 + branch-and-bound exactness: all four exact
    /// algorithms find the same optimal doi as exhaustive enumeration.
    #[test]
    fn exact_algorithms_match_exhaustive(space in arb_space(), cmax in 0u64..400) {
        let oracle = exhaustive::solve_p2(&space, ConjModel::NoisyOr, cmax);
        for algo in [Algorithm::CBoundaries, Algorithm::DMaxDoi, Algorithm::BranchBound] {
            let sol = solve_p2(&space, ConjModel::NoisyOr, cmax, algo);
            prop_assert_eq!(sol.doi, oracle.doi, "{} at cmax={}", algo.name(), cmax);
            prop_assert_eq!(sol.found, oracle.found);
            if sol.found {
                prop_assert!(sol.cost_blocks <= cmax);
            }
        }
    }

    /// Heuristics always return feasible solutions that never beat the
    /// optimum (Figure 14's premise).
    #[test]
    fn heuristics_feasible_and_bounded(space in arb_space(), cmax in 0u64..400) {
        let oracle = exhaustive::solve_p2(&space, ConjModel::NoisyOr, cmax);
        for algo in [
            Algorithm::CMaxBounds,
            Algorithm::DHeurDoi,
            Algorithm::DSingleMaxDoi,
            Algorithm::Annealing,
            Algorithm::Tabu,
            Algorithm::Genetic,
        ] {
            let sol = solve_p2(&space, ConjModel::NoisyOr, cmax, algo);
            if sol.found {
                prop_assert!(sol.cost_blocks <= cmax, "{} infeasible", algo.name());
            }
            prop_assert!(sol.doi <= oracle.doi, "{} above optimum", algo.name());
        }
    }

    /// Formulas 4, 7, 8: along any Horizontal transition (adding a
    /// preference) doi grows, cost grows, size shrinks — in every space.
    #[test]
    fn parameter_monotonicity_along_horizontal(space in arb_space(), seed in any::<u64>()) {
        for view in [
            SpaceView::cost(&space, ConjModel::NoisyOr),
            SpaceView::doi(&space, ConjModel::NoisyOr),
            SpaceView::size(&space, ConjModel::NoisyOr),
        ] {
            let k = view.k();
            let pick = (seed as usize) % (1 << k);
            let s = State::from_indices(
                (0..k as u16).filter(|i| pick & (1 << i) != 0).collect(),
            );
            if let Some(h) = horizontal(&view, &s) {
                prop_assert!(view.state_doi(&h) >= view.state_doi(&s));
                prop_assert!(view.state_cost(&h) >= view.state_cost(&s));
                prop_assert!(view.state_size(&h) <= view.state_size(&s) + 1e-9);
            }
        }
    }

    /// Proposition 1 + the Vertical direction of Tables 4/5: destinations
    /// are valid same-size states with lower primary value.
    #[test]
    fn vertical_moves_down_the_primary_order(space in arb_space(), seed in any::<u64>()) {
        for view in [
            SpaceView::cost(&space, ConjModel::NoisyOr),
            SpaceView::doi(&space, ConjModel::NoisyOr),
        ] {
            let k = view.k();
            let pick = (seed as usize) % (1 << k);
            let s = State::from_indices(
                (0..k as u16).filter(|i| pick & (1 << i) != 0).collect(),
            );
            for n in vertical(&view, &s) {
                prop_assert_eq!(n.len(), s.len());
                prop_assert!(view.primary(&n) <= view.primary(&s) + 1e-9);
                prop_assert!(n.dominated_by(&s));
            }
        }
    }

    /// Horizontal2 enumerates every single-insertion neighbor exactly once,
    /// in decreasing order of the inserted preference's primary parameter.
    #[test]
    fn horizontal2_enumeration_is_complete(space in arb_space(), st in arb_state(9)) {
        let view = SpaceView::cost(&space, ConjModel::NoisyOr);
        let k = view.k();
        let s = State::from_indices(st.iter().filter(|&i| (i as usize) < k).collect());
        let neighbors: Vec<State> = horizontal2(&view, &s).map(|(_, n)| n).collect();
        prop_assert_eq!(neighbors.len(), k - s.len());
        for n in &neighbors {
            prop_assert_eq!(n.len(), s.len() + 1);
            prop_assert!(n.is_superset_of(&s));
        }
        // No duplicates.
        let mut keys: Vec<State> = neighbors.clone();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), neighbors.len());
    }

    /// Branch-and-bound is exact for the entire problem family (Table 1),
    /// validated against exhaustive enumeration.
    #[test]
    fn branch_bound_exact_for_all_problems(
        space in arb_space(),
        cmax in 1u64..300,
        dmin_steps in 1u32..19,
        smax_frac in 1u32..100,
    ) {
        let dmin = Doi::new(dmin_steps as f64 * 0.05);
        let smax = 1000.0 * smax_frac as f64 / 100.0;
        let problems = [
            ProblemSpec::p1(1.0, smax),
            ProblemSpec::p2(cmax),
            ProblemSpec::p3(cmax, 1.0, smax),
            ProblemSpec::p4(dmin),
            ProblemSpec::p5(dmin, 1.0, smax),
            ProblemSpec::p6(1.0, smax),
        ];
        for p in &problems {
            let bb = branch_bound::solve(&space, ConjModel::NoisyOr, p);
            let ex = exhaustive::solve(&space, ConjModel::NoisyOr, p);
            prop_assert_eq!(bb.found, ex.found, "{:?}", p.kind());
            prop_assert_eq!(bb.doi, ex.doi, "{:?}", p.kind());
            prop_assert_eq!(bb.cost_blocks, ex.cost_blocks, "{:?}", p.kind());
        }
    }

    /// The Section 6 state-space adaptation: always feasible, never better
    /// than the optimum; exact for Problems 2 and 4.
    #[test]
    fn general_solver_feasible_and_sound(
        space in arb_space(),
        cmax in 1u64..300,
        dmin_steps in 1u32..19,
        smax_frac in 1u32..100,
    ) {
        let dmin = Doi::new(dmin_steps as f64 * 0.05);
        let smax = 1000.0 * smax_frac as f64 / 100.0;
        let problems = [
            ProblemSpec::p1(1.0, smax),
            ProblemSpec::p2(cmax),
            ProblemSpec::p3(cmax, 1.0, smax),
            ProblemSpec::p4(dmin),
            ProblemSpec::p5(dmin, 1.0, smax),
            ProblemSpec::p6(1.0, smax),
        ];
        for p in &problems {
            let sol = general::solve(&space, ConjModel::NoisyOr, p);
            let ex = exhaustive::solve(&space, ConjModel::NoisyOr, p);
            if sol.found {
                prop_assert!(p.feasible(&sol.params()), "{:?} infeasible", p.kind());
            }
            match p.objective {
                cqp_core::Objective::MaxDoi => prop_assert!(sol.doi <= ex.doi),
                cqp_core::Objective::MinCost => {
                    if sol.found && ex.found {
                        prop_assert!(sol.cost_blocks >= ex.cost_blocks);
                    }
                }
            }
            // Exactness where the refinement argument is complete.
            match p.kind() {
                Some(cqp_core::ProblemKind::P2) => prop_assert_eq!(sol.doi, ex.doi),
                Some(cqp_core::ProblemKind::P4) => {
                    prop_assert_eq!(sol.found, ex.found, "P4 found");
                    if sol.found {
                        prop_assert_eq!(sol.cost_blocks, ex.cost_blocks, "P4 cost");
                    }
                }
                _ => {}
            }
        }
    }

    /// The refinement of C_FINDMAXDOI never raises cost above the boundary
    /// it refines (the suffix-transversal safety property).
    #[test]
    fn refinement_preserves_cost_bound(space in arb_space(), st in arb_state(9)) {
        let view = SpaceView::cost(&space, ConjModel::NoisyOr);
        let k = view.k();
        let s = State::from_indices(st.iter().filter(|&i| (i as usize) < k).collect());
        if s.is_empty() {
            return Ok(());
        }
        let refined = cqp_core::algorithms::find_max_doi::refine_max_doi(&view, &s);
        let refined_cost: u64 =
            refined.iter().map(|&p| view.eval().cost_of([p])).sum();
        prop_assert!(refined_cost <= view.state_cost(&s));
        prop_assert_eq!(refined.len(), s.len());
    }

    /// doi ordering of the preference space is the identity permutation and
    /// all three vectors stay consistent under random inputs.
    #[test]
    fn space_invariants_hold(space in arb_space()) {
        prop_assert!(space.check_invariants().is_ok());
    }
}

/// Strategy: selection dois drawn from a coarse grid so ties are common —
/// the tie-breaking rule is exactly what the prefix property stresses.
fn arb_selection_dois() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1u64..=10, 1..=12)
        .prop_map(|raw| raw.into_iter().map(|d| d as f64 * 0.1).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Profile::top_k(k)` is a prefix of `top_k(k + 1)` at every depth —
    /// the serving layer's personalization-depth knob never reorders
    /// preferences as the depth grows, it only extends them.
    #[test]
    fn top_k_is_a_prefix_of_top_k_plus_one(dois in arb_selection_dois()) {
        let mut catalog = cqp_storage::Catalog::new();
        catalog
            .add_relation(cqp_storage::RelationSchema::new(
                "GENRE",
                vec![
                    ("mid", cqp_storage::DataType::Int),
                    ("genre", cqp_storage::DataType::Str),
                ],
            ))
            .unwrap();
        let mut profile = cqp_prefs::Profile::new("prop");
        for (i, d) in dois.iter().enumerate() {
            profile
                .add_selection(&catalog, "GENRE", "genre", format!("g{i}"), Doi::new(*d))
                .unwrap();
        }
        let n = dois.len();
        for k in 0..=n {
            let shorter: Vec<usize> =
                profile.top_k(k).into_iter().map(|(id, _)| id).collect();
            let longer: Vec<usize> =
                profile.top_k(k + 1).into_iter().map(|(id, _)| id).collect();
            prop_assert!(shorter.len() == k.min(n));
            prop_assert_eq!(&longer[..shorter.len()], &shorter[..]);
            // Ranking is by doi descending with ties broken toward the
            // earlier insertion id.
            for w in profile.top_k(k).windows(2) {
                let (ia, a) = (w[0].0, w[0].1);
                let (ib, b) = (w[1].0, w[1].1);
                prop_assert!(
                    a.doi > b.doi || (a.doi == b.doi && ia < ib),
                    "rank order violated at ids {} and {}", ia, ib
                );
            }
        }
    }
}
