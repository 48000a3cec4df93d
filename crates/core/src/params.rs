//! Query parameters of a state: doi, cost, size (paper Section 4.3).

use cqp_prefs::{ConjModel, Doi};
use cqp_prefspace::PreferenceSpace;

/// The three query parameters the paper tracks per personalized query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryParams {
    /// Degree of interest `doi(Qx) = r(doi(p1), …, doi(pL))` (Formula 5).
    pub doi: Doi,
    /// Execution cost `cost(Qx) = Σ cost(qi)` in blocks (Formula 6).
    pub cost_blocks: u64,
    /// Estimated result size in rows (shrinks as preferences are added,
    /// Formula 8).
    pub size_rows: f64,
}

/// Evaluates the parameters of preference subsets (given by P-indices).
///
/// All three evaluations are incremental-friendly: doi composes via the
/// conjunction model, cost is a plain sum, size a product of factors —
/// "incremental computation of query parameters is possible" (Section 4.3).
#[derive(Debug, Clone, Copy)]
pub struct ParamEval<'a> {
    space: &'a PreferenceSpace,
    conj: ConjModel,
}

impl<'a> ParamEval<'a> {
    /// Creates an evaluator over a preference space.
    pub fn new(space: &'a PreferenceSpace, conj: ConjModel) -> Self {
        ParamEval { space, conj }
    }

    /// The underlying preference space.
    pub fn space(&self) -> &'a PreferenceSpace {
        self.space
    }

    /// The conjunction model used for doi.
    pub fn conj_model(&self) -> ConjModel {
        self.conj
    }

    /// Number of preferences `K`.
    pub fn k(&self) -> usize {
        self.space.k()
    }

    /// doi of a subset of P-indices, folded in the order given.
    pub fn doi_of(&self, prefs: impl IntoIterator<Item = usize>) -> Doi {
        self.conj
            .conj_iter(prefs.into_iter().map(|i| self.space.doi(i)))
    }

    /// Cost (in blocks) of a subset of P-indices. The empty subset is the
    /// unpersonalized query and costs `base_cost_blocks`.
    pub fn cost_of(&self, prefs: impl IntoIterator<Item = usize>) -> u64 {
        let (sum, any) = prefs.into_iter().fold((0u64, false), |(sum, _), i| {
            (sum + self.space.cost_blocks(i), true)
        });
        if any {
            sum
        } else {
            self.space.base_cost_blocks
        }
    }

    /// Estimated result size of a subset of P-indices.
    pub fn size_of(&self, prefs: impl IntoIterator<Item = usize>) -> f64 {
        prefs.into_iter().fold(self.space.base_rows, |size, i| {
            size * self.space.size_factor(i)
        })
    }

    /// All three parameters of a subset of P-indices.
    pub fn params_of(&self, prefs: &[usize]) -> QueryParams {
        QueryParams {
            doi: self.doi_of(prefs.iter().copied()),
            cost_blocks: self.cost_of(prefs.iter().copied()),
            size_rows: self.size_of(prefs.iter().copied()),
        }
    }

    /// Upper bound on the doi of any subset drawn from the given P-indices
    /// (the conjunction of *all* of them — Formula 4 makes this maximal).
    pub fn best_expected_doi(&self, prefs: impl IntoIterator<Item = usize>) -> Doi {
        self.doi_of(prefs)
    }

    /// Upper bound on the doi of any subset of size `n`: the conjunction of
    /// the `n` highest-doi preferences (P is doi-sorted, so the first `n`).
    pub fn best_doi_for_group(&self, n: usize) -> Doi {
        self.doi_of(0..n.min(self.space.k()))
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
            3,
        )
    }

    #[test]
    fn doi_composes_noisy_or() {
        let s = space();
        let eval = ParamEval::new(&s, ConjModel::NoisyOr);
        // 1 - (1-0.8)(1-0.5) = 0.9
        let d = eval.doi_of([0usize, 2]);
        assert!((d.value() - 0.9).abs() < 1e-12);
        assert_eq!(eval.doi_of([]), Doi::ZERO);
    }

    #[test]
    fn cost_sums_with_base_fallback() {
        let s = space();
        let eval = ParamEval::new(&s, ConjModel::NoisyOr);
        assert_eq!(eval.cost_of([0usize, 1]), 17);
        // Empty set: the unpersonalized query (base cost).
        assert_eq!(eval.cost_of([]), 3);
    }

    #[test]
    fn size_multiplies_factors() {
        let s = space();
        let eval = ParamEval::new(&s, ConjModel::NoisyOr);
        assert!((eval.size_of([0usize]) - 2.0).abs() < 1e-12);
        assert!((eval.size_of([0usize, 2]) - 0.6).abs() < 1e-12);
        assert!((eval.size_of([]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn params_of_bundles_all_three() {
        let s = space();
        let eval = ParamEval::new(&s, ConjModel::NoisyOr);
        let p = eval.params_of(&[0, 1]);
        assert_eq!(p.cost_blocks, 17);
        assert!((p.size_rows - 2.0).abs() < 1e-12);
        assert!((p.doi.value() - (1.0 - 0.2 * 0.3)).abs() < 1e-12);
    }

    #[test]
    fn group_doi_bound_uses_top_prefs() {
        let s = space();
        let eval = ParamEval::new(&s, ConjModel::NoisyOr);
        let b2 = eval.best_doi_for_group(2);
        // Top two dois: 0.8 and 0.7 -> 1 - 0.2×0.3 = 0.94
        assert!((b2.value() - 0.94).abs() < 1e-12);
        // Bound is monotone in n.
        assert!(eval.best_doi_for_group(3) >= b2);
        assert!(eval.best_doi_for_group(9) == eval.best_doi_for_group(3));
    }
}
