//! Degrees of interest and their composition functions.
//!
//! `doi ∈ [0, 1]`: 0 means no interest, 1 means extreme ("must-have")
//! interest (paper Section 3). Two composition functions govern the model:
//!
//! * `f⊗` composes the atomic dois along an implicit-preference path and
//!   must satisfy `f⊗(d1,…,dm) ≤ min(d1,…,dm)` (Formula 2);
//! * `r` composes the dois of a *conjunction* of preferences and must be
//!   monotone in set inclusion (Formula 4).
//!
//! The experiments use multiplication for `f⊗` (Formula 9) and
//! `1 − Π(1−di)` for `r` (Formula 10); alternatives are provided for the
//! ablation the paper hints at in Section 7.2.3 ("using a different model
//! for conjunctive preferences would still exhibit the same growing
//! trends").

use std::cmp::Ordering;
use std::fmt;

/// A degree of interest: a finite `f64` in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Doi(f64);

impl Doi {
    /// Zero interest.
    pub const ZERO: Doi = Doi(0.0);
    /// Must-have interest.
    pub const ONE: Doi = Doi(1.0);

    /// Constructs a doi, validating the range.
    ///
    /// # Panics
    /// Panics if `v` is not finite or lies outside `[0, 1]`.
    pub fn new(v: f64) -> Self {
        assert!(
            v.is_finite() && (0.0..=1.0).contains(&v),
            "doi must be in [0,1], got {v}"
        );
        Doi(v)
    }

    /// Constructs a doi, clamping into `[0, 1]` (NaN becomes 0).
    pub fn clamped(v: f64) -> Self {
        if v.is_nan() {
            Doi(0.0)
        } else {
            Doi(v.clamp(0.0, 1.0))
        }
    }

    /// The raw value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Eq for Doi {}

impl PartialOrd for Doi {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Doi {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("doi is never NaN")
    }
}

impl fmt::Display for Doi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Doi> for f64 {
    fn from(d: Doi) -> f64 {
        d.0
    }
}

/// The path-composition function `f⊗` (Formula 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathCompose {
    /// `Π di` — the paper's experimental choice (Formula 9).
    #[default]
    Product,
    /// `min(di)` — the loosest function permitted by Formula 2.
    Min,
}

impl PathCompose {
    /// Composes the dois along a path. An empty path has doi 1 (the neutral
    /// element: composing it with an atomic doi leaves it unchanged).
    pub fn compose(self, dois: &[Doi]) -> Doi {
        match self {
            PathCompose::Product => Doi::clamped(dois.iter().map(|d| d.0).product()),
            PathCompose::Min => dois.iter().copied().min().unwrap_or(Doi::ONE),
        }
    }

    /// Incrementally extends a path doi with one more edge.
    pub fn extend(self, path: Doi, edge: Doi) -> Doi {
        match self {
            PathCompose::Product => Doi::clamped(path.0 * edge.0),
            PathCompose::Min => path.min(edge),
        }
    }
}

/// The conjunction-composition function `r` (Formula 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConjModel {
    /// `1 − Π(1−di)` — the paper's experimental choice (Formula 10).
    /// Sometimes called "noisy-or"; strictly increasing as preferences are
    /// added, which is exactly Formula 4.
    #[default]
    NoisyOr,
    /// `max(di)` — the weakest monotone choice.
    Max,
    /// `min(1, √(Σ di²))` — a quadrature alternative; monotone under adding
    /// preferences (each term is non-negative) but grows differently from
    /// noisy-or; used by the quality-model ablation.
    Quadrature,
}

impl ConjModel {
    /// Composes the dois of a conjunction of preferences. The empty
    /// conjunction has doi 0 (no preference satisfied).
    pub fn conj(self, dois: &[Doi]) -> Doi {
        self.conj_iter(dois.iter().copied())
    }

    /// [`ConjModel::conj`] over any sequence of dois, folded in the order
    /// given (the product and the sum are not associative in `f64`, so the
    /// order fixes the bits of the result).
    pub fn conj_iter(self, dois: impl IntoIterator<Item = Doi>) -> Doi {
        let dois = dois.into_iter();
        match self {
            ConjModel::NoisyOr => Doi::clamped(1.0 - dois.map(|d| 1.0 - d.0).product::<f64>()),
            ConjModel::Max => dois.max().unwrap_or(Doi::ZERO),
            ConjModel::Quadrature => {
                let sumsq: f64 = dois.map(|d| d.0 * d.0).sum();
                Doi::clamped(sumsq.sqrt())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doi_validation() {
        assert_eq!(Doi::new(0.5).value(), 0.5);
        assert_eq!(Doi::clamped(1.5), Doi::ONE);
        assert_eq!(Doi::clamped(-0.1), Doi::ZERO);
        assert_eq!(Doi::clamped(f64::NAN), Doi::ZERO);
    }

    #[test]
    #[should_panic(expected = "doi must be in [0,1]")]
    fn out_of_range_rejected() {
        let _ = Doi::new(1.1);
    }

    #[test]
    fn paper_formula_9_product() {
        // p3 (1.0) and p4 (0.8) compose to 0.8 — the W. Allen implicit
        // preference of Section 3.
        let d = PathCompose::Product.compose(&[Doi::new(1.0), Doi::new(0.8)]);
        assert!((d.value() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn formula_2_f_at_most_min() {
        for compose in [PathCompose::Product, PathCompose::Min] {
            let dois = [Doi::new(0.9), Doi::new(0.5), Doi::new(0.7)];
            let composed = compose.compose(&dois);
            let min = dois.iter().copied().min().unwrap();
            assert!(composed <= min, "{compose:?} violated Formula 2");
        }
    }

    #[test]
    fn extend_matches_compose() {
        let dois = [Doi::new(0.9), Doi::new(0.5), Doi::new(0.7)];
        for compose in [PathCompose::Product, PathCompose::Min] {
            let step = dois.iter().fold(Doi::ONE, |acc, d| compose.extend(acc, *d));
            let whole = compose.compose(&dois);
            assert!((step.value() - whole.value()).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_formula_10_noisy_or() {
        // 1 - (1-0.5)(1-0.8) = 0.9
        let d = ConjModel::NoisyOr.conj(&[Doi::new(0.5), Doi::new(0.8)]);
        assert!((d.value() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn formula_4_monotone_in_inclusion() {
        for model in [ConjModel::NoisyOr, ConjModel::Max, ConjModel::Quadrature] {
            let small = model.conj(&[Doi::new(0.3), Doi::new(0.6)]);
            let large = model.conj(&[Doi::new(0.3), Doi::new(0.6), Doi::new(0.2)]);
            assert!(large >= small, "{model:?} violated Formula 4");
        }
    }

    #[test]
    fn empty_compositions() {
        assert_eq!(PathCompose::Product.compose(&[]), Doi::ONE);
        assert_eq!(ConjModel::NoisyOr.conj(&[]), Doi::ZERO);
        assert_eq!(ConjModel::Max.conj(&[]), Doi::ZERO);
        assert_eq!(ConjModel::Quadrature.conj(&[]), Doi::ZERO);
    }

    #[test]
    fn doi_ordering_total() {
        let mut v = vec![Doi::new(0.9), Doi::new(0.1), Doi::new(0.5)];
        v.sort();
        assert_eq!(v, vec![Doi::new(0.1), Doi::new(0.5), Doi::new(0.9)]);
    }
}
