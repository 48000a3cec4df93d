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
        let mut fold = ConjFold::new(self);
        for d in dois {
            fold.push(d);
        }
        fold.finish()
    }
}

/// The one fold behind [`ConjModel::conj`]: start with [`ConjFold::new`],
/// [`push`](ConjFold::push) dois in order, [`finish`](ConjFold::finish).
///
/// It is `Copy` and extend-only, so a depth-first search can keep one per
/// node and extend a copy per branch: the doi of every prefix is then
/// bit-equal to `conj` of that prefix. There is no removal — undoing a push
/// by division does not restore the bits.
#[derive(Debug, Clone, Copy)]
pub struct ConjFold {
    model: ConjModel,
    /// `Π(1−di)` from 1.0 (NoisyOr), `max(di)` from 0.0 (Max), or `Σ di²`
    /// from −0.0, the neutral element std's `f64` `Sum` starts from
    /// (Quadrature).
    acc: f64,
}

impl ConjFold {
    /// The empty conjunction under `model`.
    pub fn new(model: ConjModel) -> Self {
        let acc = match model {
            ConjModel::NoisyOr => 1.0,
            ConjModel::Max => 0.0,
            ConjModel::Quadrature => -0.0,
        };
        ConjFold { model, acc }
    }

    /// Adds one more member.
    pub fn push(&mut self, d: Doi) {
        match self.model {
            ConjModel::NoisyOr => self.acc *= 1.0 - d.0,
            // `>=`: a later equal member replaces an earlier one, as in
            // `Iterator::max`.
            ConjModel::Max => {
                if d.0 >= self.acc {
                    self.acc = d.0;
                }
            }
            ConjModel::Quadrature => self.acc += d.0 * d.0,
        }
    }

    /// The doi of the members pushed so far.
    pub fn finish(self) -> Doi {
        match self.model {
            ConjModel::NoisyOr => Doi::clamped(1.0 - self.acc),
            ConjModel::Max => Doi(self.acc),
            ConjModel::Quadrature => Doi::clamped(self.acc.sqrt()),
        }
    }

    /// The running product `Π(1−di)` under [`ConjModel::NoisyOr`] — the
    /// additive form's `exp(−Σ wi)` with `wi = −ln(1−di)` — and `None`
    /// under the other models.
    pub fn noisy_or_product(self) -> Option<f64> {
        (self.model == ConjModel::NoisyOr).then_some(self.acc)
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

    /// The std-iterator formulas `conj` was written with before it became
    /// a [`ConjFold`].
    fn reference_conj(model: ConjModel, dois: &[Doi]) -> Doi {
        let dois = dois.iter().copied();
        match model {
            ConjModel::NoisyOr => Doi::clamped(1.0 - dois.map(|d| 1.0 - d.0).product::<f64>()),
            ConjModel::Max => dois.max().unwrap_or(Doi::ZERO),
            ConjModel::Quadrature => Doi::clamped(dois.map(|d| d.0 * d.0).sum::<f64>().sqrt()),
        }
    }

    #[test]
    fn fold_is_bit_equal_to_conj_on_every_prefix() {
        // splitmix64, so the sequences repeat without a dev-dependency.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for case in 0..200 {
            let len = (next() % 24) as usize;
            let dois: Vec<Doi> = (0..len)
                .map(|_| match next() % 8 {
                    0 => Doi::ZERO,
                    1 => Doi::ONE,
                    // −0.0 ties 0.0 but not in bits: `Max` must keep the
                    // later of equal members, as `Iterator::max` does.
                    2 => Doi::new(-0.0),
                    3 | 4 => Doi::new((next() % 21) as f64 * 0.05),
                    _ => Doi::new((next() >> 11) as f64 / (1u64 << 53) as f64),
                })
                .collect();
            for model in [ConjModel::NoisyOr, ConjModel::Max, ConjModel::Quadrature] {
                let mut fold = ConjFold::new(model);
                for n in 0..=dois.len() {
                    let want = reference_conj(model, &dois[..n]).value().to_bits();
                    assert_eq!(
                        fold.finish().value().to_bits(),
                        want,
                        "{model:?} case {case} n {n}"
                    );
                    assert_eq!(model.conj(&dois[..n]).value().to_bits(), want);
                    if n < dois.len() {
                        fold.push(dois[n]);
                    }
                }
            }
        }
    }

    #[test]
    fn doi_ordering_total() {
        let mut v = vec![Doi::new(0.9), Doi::new(0.1), Doi::new(0.5)];
        v.sort();
        assert_eq!(v, vec![Doi::new(0.1), Doi::new(0.5), Doi::new(0.9)]);
    }
}
