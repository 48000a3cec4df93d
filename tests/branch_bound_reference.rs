//! Branch-and-bound against its reference: the DFS before the knapsack bound.
//!
//! [`reference`] is that search as it was — every node clones its members'
//! dois, and doi is bounded only by taking every remaining preference. On
//! seeded, tie-heavy spaces (doi on a 0.05 grid including 0 and 1, costs of
//! 0–8 blocks including 0), every problem of Table 1 under every
//! conjunction model must get a bit-identical answer from the sequential,
//! warm-seeded and partitioned searches. Sequential searches must examine
//! exactly the reference's states where the knapsack bound does not apply
//! (P1, P4–P6, and `max` and quadrature), and at most as many where it does
//! (P2 and P3 under noisy-or).

use cqp_core::algorithms::branch_bound;
use cqp_core::params::ParamEval;
use cqp_core::prelude::*;
use cqp_par::ThreadPool;
use cqp_prefs::{ConjModel, Doi};
use cqp_prefspace::{PrefParams, PreferenceSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The all-remaining-bound DFS, with the same include-first preorder,
/// strict prunes and warm-seed cuts as the solver it checks; its answer is
/// `best`.
struct Reference<'a> {
    eval: ParamEval<'a>,
    problem: &'a ProblemSpec,
    warm: Option<QueryParams>,
    chosen: Vec<usize>,
    best: Option<(Vec<usize>, QueryParams)>,
    states_examined: u64,
    param_evals: u64,
}

fn reference<'a>(
    space: &'a PreferenceSpace,
    conj: ConjModel,
    problem: &'a ProblemSpec,
    warm: Option<QueryParams>,
) -> Reference<'a> {
    let mut r = Reference {
        eval: ParamEval::new(space, conj),
        problem,
        warm,
        chosen: Vec::new(),
        best: None,
        states_examined: 0,
        param_evals: 0,
    };
    if space.k() > 0 {
        r.recurse(0, 0, Vec::new(), space.base_rows);
    }
    r
}

impl Reference<'_> {
    fn recurse(&mut self, i: usize, cost: u64, dois_members: Vec<Doi>, size: f64) {
        let space = self.eval.space();
        let k = space.k();
        self.states_examined += 1;
        if !self.chosen.is_empty() {
            let params = QueryParams {
                doi: self.eval.conj_model().conj(&dois_members),
                cost_blocks: cost,
                size_rows: size,
            };
            self.param_evals += 1;
            if self.problem.feasible(&params) {
                let replace = match &self.best {
                    None => true,
                    Some((_, bp)) => self.problem.better(&params, bp),
                };
                if replace {
                    self.best = Some((self.chosen.clone(), params));
                }
            }
        }
        if i >= k {
            return;
        }
        let c = &self.problem.constraints;
        if let Some(cmax) = c.cost_max_blocks {
            if cost > cmax {
                return;
            }
        }
        if size < c.size_min {
            return;
        }
        if let Some(smax) = c.size_max {
            let min_size = (i..k).fold(size, |s, j| s * space.size_factor(j));
            if min_size > smax {
                return;
            }
        }
        let doi_bound = {
            let mut all = dois_members.clone();
            all.extend((i..k).map(|j| space.doi(j)));
            self.eval.conj_model().conj(&all)
        };
        if let Some(dmin) = c.doi_min {
            if doi_bound < dmin {
                return;
            }
        }
        let cut = |bp: &QueryParams| match self.problem.objective {
            Objective::MaxDoi => doi_bound < bp.doi,
            Objective::MinCost => cost > bp.cost_blocks,
        };
        if self.warm.as_ref().is_some_and(cut) || self.best.as_ref().is_some_and(|(_, bp)| cut(bp))
        {
            return;
        }
        self.chosen.push(i);
        let mut with = dois_members.clone();
        with.push(space.doi(i));
        self.recurse(
            i + 1,
            cost + space.cost_blocks(i),
            with,
            size * space.size_factor(i),
        );
        self.chosen.pop();
        self.recurse(i + 1, cost, dois_members, size);
    }
}

/// A seeded space of `k` preferences: doi on the 0.05 grid with extra
/// weight on 0 and 1, costs of 0–8 blocks, size factors on the 0.05 grid.
fn tie_heavy_space(k: usize, rng: &mut StdRng) -> PreferenceSpace {
    PreferenceSpace::synthetic(
        (0..k)
            .map(|_| {
                let doi = match rng.gen_range(0..8u32) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen_range(0..=20u32) as f64 * 0.05,
                };
                PrefParams {
                    doi: Doi::new(doi.min(1.0)),
                    cost_blocks: rng.gen_range(0..=8u64),
                    size_factor: rng.gen_range(1..=20u32) as f64 * 0.05,
                }
            })
            .collect(),
        1000.0,
        0,
    )
}

/// P1–P6, with P2 and P3 at cmax 0, a random budget of at most half the
/// total cost, and one above the total.
fn problems(space: &PreferenceSpace, rng: &mut StdRng) -> Vec<ProblemSpec> {
    let total: u64 = (0..space.k()).map(|j| space.cost_blocks(j)).sum();
    let dmin = Doi::new(rng.gen_range(1..=20u32) as f64 * 0.05);
    let smax = rng.gen_range(1..=20u32) as f64 * 50.0;
    let mut out = vec![
        ProblemSpec::p1(1.0, smax),
        ProblemSpec::p4(dmin),
        ProblemSpec::p5(dmin, 1.0, smax),
        ProblemSpec::p6(1.0, smax),
    ];
    for cmax in [0, rng.gen_range(1..=total / 2 + 1), total + 1] {
        out.push(ProblemSpec::p2(cmax));
        out.push(ProblemSpec::p3(cmax, 1.0, smax));
    }
    out
}

fn answer(r: &Reference) -> Solution {
    match &r.best {
        Some((prefs, _)) => Solution::from_prefs(&r.eval, prefs.clone(), Instrument::new()),
        None => Solution::empty(&r.eval),
    }
}

fn assert_same_answer(got: &Solution, want: &Solution, what: &str) {
    assert_eq!(got.prefs, want.prefs, "{what}");
    assert_eq!(
        got.doi.value().to_bits(),
        want.doi.value().to_bits(),
        "{what}"
    );
    assert_eq!(got.cost_blocks, want.cost_blocks, "{what}");
    assert_eq!(got.size_rows.to_bits(), want.size_rows.to_bits(), "{what}");
    assert_eq!(got.found, want.found, "{what}");
    assert!(got.degraded.is_none(), "{what}");
}

/// Checks a sequential solve's counters against the reference's.
fn assert_work(got: &Solution, r: &Reference, knapsack: bool, what: &str) {
    let (states, evals) = (got.instrument.states_examined, got.instrument.param_evals);
    if knapsack {
        assert!(
            states <= r.states_examined,
            "{what}: {states} > {}",
            r.states_examined
        );
        assert!(
            evals <= r.param_evals,
            "{what}: {evals} > {}",
            r.param_evals
        );
    } else {
        assert_eq!(states, r.states_examined, "{what}");
        assert_eq!(evals, r.param_evals, "{what}");
    }
}

#[test]
fn branch_bound_matches_the_reference_search() {
    let pools = [ThreadPool::new(2), ThreadPool::new(4)];
    let unlimited = CancelToken::unlimited();
    let mut rng = StdRng::seed_from_u64(15);
    let (mut knapsack_states, mut reference_states) = (0u64, 0u64);
    // Many small spaces, which are fast, then the three largest.
    for (case, k) in (1..=10).cycle().take(120).chain([12, 13, 14]).enumerate() {
        let space = tie_heavy_space(k, &mut rng);
        for problem in problems(&space, &mut rng) {
            for conj in [ConjModel::NoisyOr, ConjModel::Max, ConjModel::Quadrature] {
                let what = format!("case {case} k {k} {:?} {conj:?}", problem.kind());
                let knapsack =
                    conj == ConjModel::NoisyOr && problem.constraints.cost_max_blocks.is_some();
                let r = reference(&space, conj, &problem, None);
                let want = answer(&r);

                let cold = branch_bound::solve(&space, conj, &problem);
                assert_same_answer(&cold, &want, &what);
                assert_work(&cold, &r, knapsack, &what);
                if knapsack {
                    knapsack_states += cold.instrument.states_examined;
                    reference_states += r.states_examined;
                }

                // Warm seeds: the parameters of random subsets that are
                // feasible under the problem.
                let eval = ParamEval::new(&space, conj);
                for _ in 0..3 {
                    let subset: Vec<usize> =
                        (0..k).filter(|_| rng.gen_range(0..3u32) == 0).collect();
                    let seed = eval.params_of(&subset);
                    if subset.is_empty() || !problem.feasible(&seed) {
                        continue;
                    }
                    let r_warm = reference(&space, conj, &problem, Some(seed));
                    assert_same_answer(&answer(&r_warm), &want, &what);
                    let warm = branch_bound::solve_bounded_warm(
                        &space,
                        conj,
                        &problem,
                        &unlimited,
                        Some(seed),
                    );
                    assert_same_answer(&warm, &want, &format!("{what} warm {subset:?}"));
                    assert_work(&warm, &r_warm, knapsack, &format!("{what} warm {subset:?}"));
                }

                for pool in &pools {
                    let par = branch_bound::solve_partitioned(&space, conj, &problem, pool);
                    assert_same_answer(&par, &want, &format!("{what} threads {}", pool.threads()));
                }
            }
        }
    }
    assert!(
        knapsack_states < reference_states,
        "the knapsack bound never pruned: {knapsack_states} states"
    );
}
