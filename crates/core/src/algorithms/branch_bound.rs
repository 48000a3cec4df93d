//! Exact branch-and-bound for every problem of Table 1 — the
//! "knapsack-style" baseline of the Related Work discussion (Section 2), and
//! the exact reference solver for the *general* problems.
//!
//! A depth-first search decides items `0..K` in order, include branch first.
//! A node carries its cost, its size and the [`ConjFold`] of its members, so
//! its doi is bit-equal to `conj` of its members, and it allocates only to
//! copy the members when it becomes the incumbent. A subtree is cut when a
//! bound proves that no completion can satisfy the constraints or
//! *strictly* beat the incumbent; strict, so every tie candidate of the
//! optimum is still reached in include-first preorder.
//!
//! Two doi bounds, chosen by the problem and the conjunction model:
//!
//! * **All remaining** (every model): the fold continued over every item
//!   `i..K` — the largest doi any completion can reach (Formula 4).
//! * **Knapsack** (noisy-or with a cost bound, i.e. P2 and P3): Formulas
//!   9/10 make doi additive, `doi = 1 − exp(−Σ wi)` with `wi = −ln(1−di)`,
//!   so the best completion is a 0/1 knapsack over the budget left, and its
//!   LP relaxation (Dantzig) bounds it: items taken greedily by descending
//!   `w/c`, the last one fractionally. The bound is converted back to a
//!   product lower bound with [`SLACK`] for rounding, and used wherever it
//!   is below the all-remaining bound.
//!
//! Bounds are compared in the doi domain, never in the log domain: every
//! completion whose product falls below 2⁻⁵³ has doi exactly 1.0, so it can
//! tie a saturated incumbent on doi and still win on cost.
//!
//! The paper's point that knapsack algorithms are *not appropriate in
//! general* (CQP may compose doi by other, even nonlinear functions) still
//! holds for `max` and quadrature: neither is additive in any domain, so
//! only the all-remaining bound applies to them.

use super::Solution;
use crate::budget::CancelToken;
use crate::instrument::Instrument;
use crate::params::{ParamEval, QueryParams};
use crate::problem::{Objective, ProblemSpec};
use cqp_par::ThreadPool;
use cqp_prefs::{ConjFold, ConjModel, Doi};
use cqp_prefspace::PreferenceSpace;
use std::sync::atomic::{AtomicU64, Ordering};

/// Relative slack between the knapsack bound's product and the smallest
/// product the fold can compute for a completion.
///
/// With `u = 2⁻⁵³`, for a completion `S` of `n ≤ K` more items:
/// * the fold computes `P_S ≥ P·Π(1−dj)·(1−u)^{2n}` from the node's product
///   `P` (one rounding for `1−dj`, one per multiply);
/// * `Π(1−dj) = exp(−Σ wj) ≥ exp(−L)` for the exact LP optimum `L`;
/// * the computed `L̂` misses `L` by at most `γL` with `γ ≤ (K+6)u`: `ln_1p`
///   and the ratio are within `3u`, so ties misordered by rounding cost at
///   most that, and the sum of `≤ K` non-negative terms plus the fractional
///   one loses at most `(K+2)u`;
/// * `exp` and the two multiplies of `P·exp(−L̂)·(1−SLACK)` add at most
///   `5u`.
///
/// So the bound is sound when `SLACK ≥ γL + (2K+5)u`. Only a product of at
/// least 2⁻⁵⁴ gives a bound below 1 (`1 − p` rounds to 1.0 for smaller
/// `p`), so the binding case has `L ≤ 54·ln 2 < 37.5`, where a completion's
/// product is far from the subnormal range. At `K = MAX_K = 256` the error
/// is below 1.2e-12, and 1e-9 covers it up to `K ≈ 2·10⁵`.
const SLACK: f64 = 1e-9;

/// Exact branch-and-bound for any CQP problem of Table 1.
pub fn solve(space: &PreferenceSpace, conj: ConjModel, problem: &ProblemSpec) -> Solution {
    solve_bounded(space, conj, problem, &CancelToken::unlimited())
}

/// [`solve`] polling `token` at every DFS node; on a trip the remaining
/// subtrees are abandoned and the incumbent so far is returned (the caller
/// tags it degraded).
pub fn solve_bounded(
    space: &PreferenceSpace,
    conj: ConjModel,
    problem: &ProblemSpec,
    token: &CancelToken,
) -> Solution {
    solve_bounded_warm(space, conj, problem, token, None)
}

/// [`solve_bounded`] seeded with a *pruning bound* from a previously solved
/// instance over the same preference space (the cross-request warm start).
///
/// `warm` must be the parameters of a state that is **feasible under
/// `problem`** — typically a cached answer for the same template/profile
/// whose constraint budget moved. The seed is used exactly like a
/// cross-worker incumbent bound, never as the incumbent itself: subtrees
/// that cannot reach it are cut *strictly* (`doi_bound < warm.doi` for
/// MaxDoi, `cost > warm.cost_blocks` for MinCost — sound by the monotone
/// Formulas 4 and 7), so every state that could still win — including tie
/// candidates of the eventual optimum — is visited in the same
/// include-first preorder as a cold search. The returned solution is
/// therefore bit-identical to [`solve_bounded`]'s; only the states visited
/// shrink. Seeding the incumbent instead would break that: a seed tying the
/// optimum on both doi and cost but with different members would be
/// returned over the cold search's preorder-first winner.
pub fn solve_bounded_warm(
    space: &PreferenceSpace,
    conj: ConjModel,
    problem: &ProblemSpec,
    token: &CancelToken,
    warm: Option<QueryParams>,
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

    let knapsack = Knapsack::new(&eval, problem);
    let mut search = Search {
        eval: &eval,
        problem,
        k,
        knapsack: knapsack.as_ref(),
        best: None,
        inst: &mut inst,
        chosen: Vec::new(),
        shared: None,
        warm,
        token,
    };
    search.recurse(0, 0, ConjFold::new(conj), space.base_rows);
    let best = search.best.take();

    match best {
        Some((prefs, _)) => Solution::from_prefs(&eval, prefs, inst),
        None => Solution {
            instrument: inst,
            ..Solution::empty(&eval)
        },
    }
}

/// [`solve`] with the DFS partitioned across `pool`'s workers.
///
/// The first `d` include/exclude decisions are fixed per task (`2^d` prefix
/// subproblems, `d` sized for ~4 tasks per worker so stealing re-balances
/// the wildly uneven subtree sizes); each task runs an independent
/// [`Search`] seeded with its prefix. Workers publish their incumbents to a
/// shared monotone bound ([`SharedBest`]); because the objective prunes are
/// *strict*, a cross-worker bound can never cut a subtree holding an
/// eventual winner or tie-candidate, so the answer stays exact.
///
/// The sequential DFS first evaluates a member set where its last member is
/// included, so its preorder visits sets in lexicographic order of their
/// sorted members, and the strict `better` keeps the first of tied optima.
/// Per-task optima are merged by the same rule — `better`, then the
/// lexicographically smaller member list — which makes the returned
/// solution the sequential one at any worker count. (Task order alone is
/// not enough: the set of a depth-`t < d` node is a task root that comes
/// after the tasks extending it.) Work *counters* may vary run to run — the
/// racy bound changes how much gets pruned, never what is returned.
pub fn solve_partitioned(
    space: &PreferenceSpace,
    conj: ConjModel,
    problem: &ProblemSpec,
    pool: &ThreadPool,
) -> Solution {
    solve_partitioned_bounded(space, conj, problem, pool, &CancelToken::unlimited())
}

/// [`solve_partitioned`] sharing one [`CancelToken`] across all workers:
/// every task's DFS polls it per node, so the whole pool stops within one
/// state of the trip. A degraded partitioned search keeps the deterministic
/// merge but may have covered different subtrees than the sequential DFS at
/// the same trip point.
pub fn solve_partitioned_bounded(
    space: &PreferenceSpace,
    conj: ConjModel,
    problem: &ProblemSpec,
    pool: &ThreadPool,
    token: &CancelToken,
) -> Solution {
    let k = space.k();
    if k == 0 || pool.threads() == 1 {
        return solve_bounded(space, conj, problem, token);
    }
    let eval = ParamEval::new(space, conj);
    let knapsack = Knapsack::new(&eval, problem);
    let mut d = 0usize;
    while (1usize << d) < pool.threads() * 4 && d < k {
        d += 1;
    }
    let shared = SharedBest::new();
    // Prefix id bit `j` set means item `j` is excluded.
    let prefixes: Vec<u32> = (0..(1u32 << d)).collect();
    let per_prefix = pool.map(prefixes, |_, p| {
        let mut inst = Instrument::new();
        let mut chosen = Vec::new();
        let mut cost = 0u64;
        let mut fold = ConjFold::new(conj);
        let mut size = space.base_rows;
        for j in 0..d {
            if p & (1 << j) == 0 {
                chosen.push(j);
                cost += space.cost_blocks(j);
                fold.push(space.doi(j));
                size *= space.size_factor(j);
            }
        }
        let mut search = Search {
            eval: &eval,
            problem,
            k,
            knapsack: knapsack.as_ref(),
            best: None,
            inst: &mut inst,
            chosen,
            shared: Some(&shared),
            warm: None,
            token,
        };
        search.recurse(d, cost, fold, size);
        (search.best.take(), inst)
    });

    let mut inst = Instrument::new();
    let mut best: Option<(Vec<usize>, QueryParams)> = None;
    for (cand, task_inst) in per_prefix {
        inst.merge(&task_inst);
        if let Some((prefs, params)) = cand {
            let replace = match &best {
                None => true,
                Some((bprefs, bp)) => {
                    problem.better(&params, bp) || (!problem.better(bp, &params) && prefs < *bprefs)
                }
            };
            if replace {
                best = Some((prefs, params));
            }
        }
    }
    match best {
        Some((prefs, _)) => Solution::from_prefs(&eval, prefs, inst),
        None => Solution {
            instrument: inst,
            ..Solution::empty(&eval)
        },
    }
}

/// A cross-worker incumbent bound: monotone best doi and best (lowest)
/// cost over every *feasible* candidate any worker has accepted. The doi is
/// stored as `f64` bits — doi is non-negative, so bit order equals numeric
/// order and `fetch_max` suffices.
struct SharedBest {
    doi_bits: AtomicU64,
    cost: AtomicU64,
}

impl SharedBest {
    fn new() -> Self {
        SharedBest {
            doi_bits: AtomicU64::new(0),
            cost: AtomicU64::new(u64::MAX),
        }
    }

    fn publish(&self, p: &QueryParams) {
        self.doi_bits
            .fetch_max(p.doi.value().to_bits(), Ordering::Relaxed);
        self.cost.fetch_min(p.cost_blocks, Ordering::Relaxed);
    }

    fn best_doi(&self) -> Doi {
        Doi::new(f64::from_bits(self.doi_bits.load(Ordering::Relaxed)))
    }

    fn best_cost(&self) -> u64 {
        self.cost.load(Ordering::Relaxed)
    }
}

/// The knapsack bound's items — every preference with its additive weight
/// `w = −ln(1−d)` and cost — in the greedy order: descending `w/c`, zero
/// cost counting as an infinite ratio, ties to the cheaper and then the
/// lower index. Built once per solve.
struct Knapsack {
    cmax: u64,
    /// `(index, w, cost)`.
    items: Vec<(usize, f64, u64)>,
}

impl Knapsack {
    /// The bound for `problem`, or `None` when it does not apply: the model
    /// is not noisy-or (no additive form) or there is no cost bound.
    fn new(eval: &ParamEval<'_>, problem: &ProblemSpec) -> Option<Self> {
        let cmax = problem.constraints.cost_max_blocks?;
        if eval.conj_model() != ConjModel::NoisyOr {
            return None;
        }
        let space = eval.space();
        // `d = 1` gives `w = ∞`, never NaN: `ln_1p(−1) = −∞`.
        let mut items: Vec<(usize, f64, u64)> = (0..space.k())
            .map(|j| (j, -(-space.doi(j).value()).ln_1p(), space.cost_blocks(j)))
            .collect();
        let ratio = |&(_, w, c): &(usize, f64, u64)| {
            if c == 0 {
                f64::INFINITY
            } else {
                w / c as f64
            }
        };
        items.sort_by(|a, b| {
            ratio(b)
                .total_cmp(&ratio(a))
                .then(a.2.cmp(&b.2))
                .then(a.0.cmp(&b.0))
        });
        Some(Knapsack { cmax, items })
    }

    /// Upper bound on the doi of every completion, over items `i..K`, of a
    /// node with fold product `product` and cost `cost ≤ cmax`.
    fn doi_bound(&self, i: usize, cost: u64, product: f64) -> Doi {
        let room = self.cmax - cost;
        let mut left = room;
        let mut lp = 0.0;
        for &(j, w, c) in &self.items {
            // An item that alone busts the budget is in no completion.
            if j < i || c > room {
                continue;
            }
            if c <= left {
                lp += w;
                left -= c;
            } else {
                // Skipped at `left = 0`, where `w = ∞` would make ∞·0 = NaN.
                if left > 0 {
                    lp += w * (left as f64 / c as f64);
                }
                break;
            }
        }
        Doi::clamped(1.0 - product * (-lp).exp() * (1.0 - SLACK))
    }
}

struct Search<'a, 'b> {
    eval: &'a ParamEval<'a>,
    problem: &'a ProblemSpec,
    k: usize,
    /// The knapsack bound, when it applies to this problem and model.
    knapsack: Option<&'a Knapsack>,
    best: Option<(Vec<usize>, QueryParams)>,
    inst: &'b mut Instrument,
    chosen: Vec<usize>,
    /// Cross-worker bound in partitioned mode; `None` when sequential.
    shared: Option<&'a SharedBest>,
    /// Warm-start bound from a cached feasible solution; pruned against
    /// strictly, exactly like `shared`, so it never changes the answer.
    warm: Option<QueryParams>,
    /// Cooperative cancellation, polled once per DFS node.
    token: &'a CancelToken,
}

impl Search<'_, '_> {
    /// DFS over items `i..K` from a node with the given cost, members' fold
    /// and size; `self.chosen` holds the members.
    fn recurse(&mut self, i: usize, cost: u64, fold: ConjFold, size: f64) {
        if self.token.should_stop() {
            return;
        }
        self.inst.states_examined += 1;
        // Evaluate the current node as a candidate.
        if !self.chosen.is_empty() {
            let params = QueryParams {
                doi: fold.finish(),
                cost_blocks: cost,
                size_rows: size,
            };
            self.inst.param_evals += 1;
            if self.problem.feasible(&params) {
                let replace = match &self.best {
                    None => true,
                    Some((_, bp)) => self.problem.better(&params, bp),
                };
                if replace {
                    if let Some(sh) = self.shared {
                        sh.publish(&params);
                    }
                    self.best = Some((self.chosen.clone(), params));
                }
            }
        }
        if i >= self.k {
            return;
        }

        // --- Pruning ---------------------------------------------------
        let space = self.eval.space();
        let c = &self.problem.constraints;

        // Cost only grows: if the node already busts cmax, every extension
        // does too (and the node itself was already evaluated).
        if let Some(cmax) = c.cost_max_blocks {
            if cost > cmax {
                return;
            }
        }
        // Size only shrinks: below smin nothing can recover.
        if size < c.size_min {
            return;
        }
        // Upper-bound the achievable size reduction: taking every remaining
        // preference gives the smallest size; if that still exceeds smax,
        // the subtree is infeasible.
        if let Some(smax) = c.size_max {
            let min_size = (i..self.k).fold(size, |s, j| s * space.size_factor(j));
            if min_size > smax {
                return;
            }
        }
        // Objective bounds against the incumbent, the cross-worker bound and
        // the warm seed. Every cut is strict: an equal-doi descendant can
        // still win the lower-cost tie-break (MaxDoi), an equal-cost one the
        // higher-doi tie-break (MinCost), so no bound — local, published
        // elsewhere or seeded — cuts a tie candidate of the optimum. For
        // MinCost, cost only grows along include branches, so every
        // descendant costs at least the node.
        let best = self.best.as_ref().map(|(_, bp)| bp);
        let doi_floor = match self.problem.objective {
            Objective::MaxDoi => [
                c.doi_min,
                self.shared.map(SharedBest::best_doi),
                self.warm.map(|w| w.doi),
                best.map(|bp| bp.doi),
            ]
            .into_iter()
            .flatten()
            .max(),
            Objective::MinCost => {
                let cost_ceiling = [
                    self.shared.map(SharedBest::best_cost),
                    self.warm.map(|w| w.cost_blocks),
                    best.map(|bp| bp.cost_blocks),
                ]
                .into_iter()
                .flatten()
                .min();
                if cost_ceiling.is_some_and(|ceiling| cost > ceiling) {
                    return;
                }
                c.doi_min
            }
        };
        if let Some(floor) = doi_floor {
            if self.doi_bound(i, cost, fold) < floor {
                return;
            }
        }

        // --- Branch ------------------------------------------------------
        // Include item i.
        self.chosen.push(i);
        let mut with = fold;
        with.push(space.doi(i));
        self.recurse(
            i + 1,
            cost + space.cost_blocks(i),
            with,
            size * space.size_factor(i),
        );
        self.chosen.pop();
        // Exclude item i.
        self.recurse(i + 1, cost, fold, size);
    }

    /// Upper bound on the doi of every completion over items `i..K`: the
    /// members' fold continued over all of them, lowered by the knapsack
    /// bound where that applies and is tighter.
    fn doi_bound(&self, i: usize, cost: u64, fold: ConjFold) -> Doi {
        let space = self.eval.space();
        let mut all = fold;
        for j in i..self.k {
            all.push(space.doi(j));
        }
        let all = all.finish();
        match (self.knapsack, fold.noisy_or_product()) {
            (Some(kn), Some(product)) => all.min(kn.doi_bound(i, cost, product)),
            _ => all,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exhaustive;
    use cqp_prefspace::PrefParams;

    fn space_with(costs: &[u64], dois: &[f64], factors: &[f64]) -> PreferenceSpace {
        PreferenceSpace::synthetic(
            costs
                .iter()
                .zip(dois)
                .zip(factors)
                .map(|((&c, &d), &f)| PrefParams {
                    doi: Doi::new(d),
                    cost_blocks: c,
                    size_factor: f,
                })
                .collect(),
            1000.0,
            0,
        )
    }

    fn fig6() -> PreferenceSpace {
        space_with(
            &[120, 80, 60, 40, 30],
            &[0.9, 0.8, 0.7, 0.6, 0.5],
            &[0.5, 0.5, 0.5, 0.5, 0.5],
        )
    }

    #[test]
    fn matches_exhaustive_on_p2_sweep() {
        let space = fig6();
        for cmax in (0..=340).step_by(5) {
            let bb = solve(&space, ConjModel::NoisyOr, &ProblemSpec::p2(cmax));
            let ex = exhaustive::solve_p2(&space, ConjModel::NoisyOr, cmax);
            assert_eq!(bb.doi, ex.doi, "cmax={cmax}");
            assert_eq!(bb.prefs, ex.prefs, "cmax={cmax}");
        }
    }

    #[test]
    fn matches_exhaustive_on_all_six_problems() {
        let space = space_with(
            &[50, 40, 30, 20, 10, 5],
            &[0.95, 0.8, 0.6, 0.55, 0.3, 0.2],
            &[0.9, 0.5, 0.7, 0.3, 0.8, 0.6],
        );
        let problems = [
            ProblemSpec::p1(50.0, 600.0),
            ProblemSpec::p2(70),
            ProblemSpec::p3(70, 50.0, 600.0),
            ProblemSpec::p4(Doi::new(0.9)),
            ProblemSpec::p5(Doi::new(0.9), 50.0, 600.0),
            ProblemSpec::p6(50.0, 600.0),
        ];
        for (n, p) in problems.iter().enumerate() {
            let bb = solve(&space, ConjModel::NoisyOr, p);
            let ex = exhaustive::solve(&space, ConjModel::NoisyOr, p);
            assert_eq!(bb.found, ex.found, "problem {}", n + 1);
            assert_eq!(bb.doi, ex.doi, "problem {}", n + 1);
            assert_eq!(bb.cost_blocks, ex.cost_blocks, "problem {}", n + 1);
        }
    }

    #[test]
    fn scales_beyond_exhaustive_reach() {
        // K = 34 with a tight budget: B&B finishes quickly where 2^34 would
        // not.
        let costs: Vec<u64> = (1..=34).map(|i| (i * 7 % 90 + 10) as u64).collect();
        let dois: Vec<f64> = (1..=34).map(|i| 0.15 + (i as f64 * 0.37) % 0.8).collect();
        let factors: Vec<f64> = (1..=34).map(|i| 0.4 + (i as f64 * 0.13) % 0.5).collect();
        let space = space_with(&costs, &dois, &factors);
        let sol = solve(&space, ConjModel::NoisyOr, &ProblemSpec::p2(120));
        assert!(sol.found);
        assert!(sol.cost_blocks <= 120);
    }

    #[test]
    fn partitioned_matches_sequential_at_every_width() {
        let space = fig6();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            for cmax in (0..=340).step_by(17) {
                let problem = ProblemSpec::p2(cmax);
                let seq = solve(&space, ConjModel::NoisyOr, &problem);
                let par = solve_partitioned(&space, ConjModel::NoisyOr, &problem, &pool);
                assert_eq!(par.prefs, seq.prefs, "threads={threads} cmax={cmax}");
                assert_eq!(par.doi, seq.doi, "threads={threads} cmax={cmax}");
                assert_eq!(par.cost_blocks, seq.cost_blocks);
                assert_eq!(par.found, seq.found);
            }
        }
    }

    #[test]
    fn partitioned_matches_sequential_on_all_six_problems() {
        let space = space_with(
            &[50, 40, 30, 20, 10, 5],
            &[0.95, 0.8, 0.6, 0.55, 0.3, 0.2],
            &[0.9, 0.5, 0.7, 0.3, 0.8, 0.6],
        );
        let pool = ThreadPool::new(4);
        let problems = [
            ProblemSpec::p1(50.0, 600.0),
            ProblemSpec::p2(70),
            ProblemSpec::p3(70, 50.0, 600.0),
            ProblemSpec::p4(Doi::new(0.9)),
            ProblemSpec::p5(Doi::new(0.9), 50.0, 600.0),
            ProblemSpec::p6(50.0, 600.0),
        ];
        for (n, p) in problems.iter().enumerate() {
            let par = solve_partitioned(&space, ConjModel::NoisyOr, p, &pool);
            let seq = solve(&space, ConjModel::NoisyOr, p);
            assert_eq!(par.found, seq.found, "problem {}", n + 1);
            assert_eq!(par.prefs, seq.prefs, "problem {}", n + 1);
            assert_eq!(par.doi, seq.doi, "problem {}", n + 1);
            assert_eq!(par.cost_blocks, seq.cost_blocks, "problem {}", n + 1);
        }
    }

    #[test]
    fn partitioned_scales_beyond_exhaustive_reach() {
        let costs: Vec<u64> = (1..=34).map(|i| (i * 7 % 90 + 10) as u64).collect();
        let dois: Vec<f64> = (1..=34).map(|i| 0.15 + (i as f64 * 0.37) % 0.8).collect();
        let factors: Vec<f64> = (1..=34).map(|i| 0.4 + (i as f64 * 0.13) % 0.5).collect();
        let space = space_with(&costs, &dois, &factors);
        let pool = ThreadPool::new(4);
        let par = solve_partitioned(&space, ConjModel::NoisyOr, &ProblemSpec::p2(120), &pool);
        let seq = solve(&space, ConjModel::NoisyOr, &ProblemSpec::p2(120));
        assert_eq!(par.prefs, seq.prefs);
        assert_eq!(par.doi, seq.doi);
        assert!(par.cost_blocks <= 120);
    }

    #[test]
    fn warm_start_is_bit_identical_and_prunes() {
        use crate::budget::CancelToken;
        let space = fig6();
        // Solve at one budget, then warm-start the neighboring budgets with
        // that answer wherever it stays feasible.
        let base = solve(&space, ConjModel::NoisyOr, &ProblemSpec::p2(180));
        assert!(base.found);
        let seed = crate::params::QueryParams {
            doi: base.doi,
            cost_blocks: base.cost_blocks,
            size_rows: base.size_rows,
        };
        for cmax in (180..=340).step_by(10) {
            let problem = ProblemSpec::p2(cmax);
            let cold = solve(&space, ConjModel::NoisyOr, &problem);
            let warm = solve_bounded_warm(
                &space,
                ConjModel::NoisyOr,
                &problem,
                &CancelToken::unlimited(),
                Some(seed),
            );
            assert_eq!(warm.prefs, cold.prefs, "cmax={cmax}");
            assert_eq!(warm.doi, cold.doi, "cmax={cmax}");
            assert_eq!(warm.cost_blocks, cold.cost_blocks, "cmax={cmax}");
            assert_eq!(warm.size_rows, cold.size_rows, "cmax={cmax}");
            assert!(
                warm.instrument.states_examined <= cold.instrument.states_examined,
                "warm start must never expand more states (cmax={cmax})"
            );
        }
        // At the seed's own budget the warm bound is at worst a no-op: the
        // cold incumbent converges so fast here that the seed cannot do
        // strictly better, but it must never do worse.
        let cold = solve(&space, ConjModel::NoisyOr, &ProblemSpec::p2(180));
        let warm = solve_bounded_warm(
            &space,
            ConjModel::NoisyOr,
            &ProblemSpec::p2(180),
            &CancelToken::unlimited(),
            Some(seed),
        );
        assert!(warm.instrument.states_examined <= cold.instrument.states_examined);
    }

    #[test]
    fn warm_start_min_cost_objective_stays_exact() {
        use crate::budget::CancelToken;
        // The highest-doi preference is wildly expensive and excluded from
        // the optimum: a cold search burns states inside its subtree before
        // any incumbent exists, which is exactly where a warm bound helps.
        let space = space_with(
            &[500, 5, 5, 5, 5],
            &[0.95, 0.6, 0.6, 0.6, 0.6],
            &[0.9, 0.5, 0.7, 0.3, 0.8],
        );
        let problem = ProblemSpec::p4(Doi::new(0.97));
        let cold = solve(&space, ConjModel::NoisyOr, &problem);
        assert!(cold.found);
        let seed = crate::params::QueryParams {
            doi: cold.doi,
            cost_blocks: cold.cost_blocks,
            size_rows: cold.size_rows,
        };
        // Seeding with the optimum itself must still return the optimum.
        let warm = solve_bounded_warm(
            &space,
            ConjModel::NoisyOr,
            &problem,
            &CancelToken::unlimited(),
            Some(seed),
        );
        assert_eq!(warm.prefs, cold.prefs);
        assert_eq!(warm.doi, cold.doi);
        assert_eq!(warm.cost_blocks, cold.cost_blocks);
        // Under MinCost the cold search has no incumbent until it first
        // reaches a doi-feasible state, while the warm bound prunes
        // over-budget subtrees from the very first expansion — so here the
        // seed strictly shrinks the search.
        assert!(warm.instrument.states_examined < cold.instrument.states_examined);
    }

    #[test]
    fn knapsack_bound_covers_every_completion() {
        // `d = 1` items (`w = ∞`) costing 2, 2 and 3 blocks, so the budget
        // can run out exactly before one of them; `d = 0` and zero-cost
        // items; every budget down to a zero remainder.
        let space = space_with(
            &[2, 0, 2, 3, 0, 4, 1],
            &[1.0, 0.3, 1.0, 1.0, 0.0, 0.6, 0.95],
            &[1.0; 7],
        );
        let k = space.k();
        let eval = ParamEval::new(&space, ConjModel::NoisyOr);
        // The fold and cost of the items of `set` within `range`.
        let extend =
            |mut fold: ConjFold, mut cost: u64, range: std::ops::Range<usize>, set: u32| {
                for j in range.clone() {
                    if set & (1 << (j - range.start)) != 0 {
                        fold.push(space.doi(j));
                        cost += space.cost_blocks(j);
                    }
                }
                (fold, cost)
            };
        for cmax in 0..=15 {
            let kn = Knapsack::new(&eval, &ProblemSpec::p2(cmax)).expect("noisy-or with cmax");
            for i in 0..=k {
                for members in 0..1u32 << i {
                    let (fold, cost) = extend(ConjFold::new(ConjModel::NoisyOr), 0, 0..i, members);
                    if cost > cmax {
                        continue;
                    }
                    let product = fold.noisy_or_product().expect("noisy-or");
                    let bound = kn.doi_bound(i, cost, product);
                    for rest in 0..1u32 << (k - i) {
                        let (done, total) = extend(fold, cost, i..k, rest);
                        if total <= cmax {
                            assert!(
                                done.finish() <= bound,
                                "cmax {cmax} i {i} members {members:b} rest {rest:b}: {} > {bound}",
                                done.finish()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn other_conj_models_stay_exact() {
        let space = space_with(&[30, 20, 10], &[0.9, 0.5, 0.4], &[0.5, 0.6, 0.7]);
        for conj in [ConjModel::Max, ConjModel::Quadrature] {
            let bb = solve(&space, conj, &ProblemSpec::p2(40));
            let ex = exhaustive::solve_p2(&space, conj, 40);
            assert_eq!(bb.doi, ex.doi, "{conj:?}");
        }
    }
}
