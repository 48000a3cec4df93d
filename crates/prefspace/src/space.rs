//! The preference space `P` with its parameter table and rank vectors.

use cqp_prefs::{Doi, Preference};

/// Per-preference parameters of the personalized sub-query `Q ∧ p`
/// (paper Section 4.3: doi, cost, and size are "collectively referred to as
/// query parameters"; here they are precomputed once per preference).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefParams {
    /// `doi(p)` — composed degree of interest of the path.
    pub doi: Doi,
    /// `cost(Q ∧ p)` in blocks (the paper's Formula 6 summand).
    pub cost_blocks: u64,
    /// Size factor `size(Q ∧ p) / size(Q)` in `[0, 1]`; multiplying the
    /// factors of a state's members gives `size(Q ∧ Px) / size(Q)`
    /// under independence (consistent with Formula 8).
    pub size_factor: f64,
}

/// The preference space: `P`, its parameters, and the `D`, `C`, `S` vectors.
///
/// `P` is stored in decreasing-doi order (that is how the Figure 3 traversal
/// emits preferences), so `D` is the identity permutation; `C` and `S` are
/// permutations of `0..K` sorted by the respective parameter. All vectors
/// hold **indices into `P`**, exactly like the paper's pointer vectors.
#[derive(Debug, Clone)]
pub struct PreferenceSpace {
    /// The preference paths (may be empty for synthetic instances that only
    /// exercise the search algorithms).
    pub prefs: Vec<Preference>,
    /// Parameters of `Q ∧ p_i`, parallel to `prefs` / `P`-indices.
    pub params: Vec<PrefParams>,
    /// Estimated result size of the base query `Q`.
    pub base_rows: f64,
    /// Cost of the base query `Q` in blocks.
    pub base_cost_blocks: u64,
    /// `D`: P-indices by decreasing doi (identity by construction).
    pub d: Vec<usize>,
    /// `C`: P-indices by decreasing `cost(Q ∧ p)`. Empty when the space was
    /// built in doi-only mode (paper Figure 12(b)'s `D_PrefSelTime`).
    pub c: Vec<usize>,
    /// `S`: P-indices by increasing `size(Q ∧ p)`. Empty in doi-only mode.
    pub s: Vec<usize>,
}

impl PreferenceSpace {
    /// Number of preferences `K`.
    pub fn k(&self) -> usize {
        self.params.len()
    }

    /// True when no preferences were extracted.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// doi of preference `i` (a P-index).
    pub fn doi(&self, i: usize) -> Doi {
        self.params[i].doi
    }

    /// `cost(Q ∧ p_i)` in blocks.
    pub fn cost_blocks(&self, i: usize) -> u64 {
        self.params[i].cost_blocks
    }

    /// Size factor of preference `i`.
    pub fn size_factor(&self, i: usize) -> f64 {
        self.params[i].size_factor
    }

    /// Builds a synthetic space from raw parameters (no preference paths).
    ///
    /// Inputs need not be sorted: the constructor orders `P` by decreasing
    /// doi (ties broken by original position) and derives `D`, `C`, `S`.
    /// Used by tests and benchmarks that exercise the search algorithms on
    /// controlled instances such as the paper's Figure 6/8 examples.
    pub fn synthetic(params: Vec<PrefParams>, base_rows: f64, base_cost_blocks: u64) -> Self {
        let mut order: Vec<usize> = (0..params.len()).collect();
        order.sort_by(|&a, &b| params[b].doi.cmp(&params[a].doi).then_with(|| a.cmp(&b)));
        let params: Vec<PrefParams> = order.into_iter().map(|i| params[i]).collect();
        let mut space = PreferenceSpace {
            prefs: Vec::new(),
            params,
            base_rows,
            base_cost_blocks,
            d: Vec::new(),
            c: Vec::new(),
            s: Vec::new(),
        };
        space.build_vectors(true);
        space
    }

    /// (Re)builds the rank vectors. `D` is always built; `C` and `S` only
    /// when `with_cost_vectors` is set (the distinction Figure 12(b)
    /// measures).
    pub fn build_vectors(&mut self, with_cost_vectors: bool) {
        let k = self.params.len();
        self.d = (0..k).collect();
        if with_cost_vectors {
            let mut c: Vec<usize> = (0..k).collect();
            c.sort_by(|&a, &b| {
                self.params[b]
                    .cost_blocks
                    .cmp(&self.params[a].cost_blocks)
                    .then_with(|| a.cmp(&b))
            });
            self.c = c;
            let mut s: Vec<usize> = (0..k).collect();
            s.sort_by(|&a, &b| {
                self.params[a]
                    .size_factor
                    .partial_cmp(&self.params[b].size_factor)
                    .expect("size factors are finite")
                    .then_with(|| a.cmp(&b))
            });
            self.s = s;
        } else {
            self.c = Vec::new();
            self.s = Vec::new();
        }
    }

    /// Checks the invariants the CQP algorithms rely on; used by tests.
    ///
    /// * `P` is sorted by decreasing doi (so `D` is the identity);
    /// * `C` is a permutation sorted by decreasing cost;
    /// * `S` is a permutation sorted by increasing size factor.
    pub fn check_invariants(&self) -> Result<(), String> {
        let k = self.k();
        for w in self.params.windows(2) {
            if w[0].doi < w[1].doi {
                return Err("P is not sorted by decreasing doi".into());
            }
        }
        if self.d != (0..k).collect::<Vec<_>>() {
            return Err("D is not the identity permutation".into());
        }
        if !self.c.is_empty() {
            let mut seen = vec![false; k];
            for &i in &self.c {
                if i >= k || seen[i] {
                    return Err("C is not a permutation".into());
                }
                seen[i] = true;
            }
            for w in self.c.windows(2) {
                if self.params[w[0]].cost_blocks < self.params[w[1]].cost_blocks {
                    return Err("C is not sorted by decreasing cost".into());
                }
            }
        }
        if !self.s.is_empty() {
            let mut seen = vec![false; k];
            for &i in &self.s {
                if i >= k || seen[i] {
                    return Err("S is not a permutation".into());
                }
                seen[i] = true;
            }
            for w in self.s.windows(2) {
                if self.params[w[0]].size_factor > self.params[w[1]].size_factor {
                    return Err("S is not sorted by increasing size".into());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(doi: f64, cost: u64, factor: f64) -> PrefParams {
        PrefParams {
            doi: Doi::new(doi),
            cost_blocks: cost,
            size_factor: factor,
        }
    }

    #[test]
    fn table2_example_vectors() {
        // Paper Table 2: p1(doi .5, cost 10, size 3), p2(.8, 5, 2),
        // p3(.7, 12, 10). With P sorted by doi: P = [p2, p3, p1].
        // Paper's vectors (1-based, over the original p-numbers):
        // D = {2,3,1}, C = {3,1,2}, S = {2,1,3}.
        let space = PreferenceSpace::synthetic(
            vec![p(0.5, 10, 0.3), p(0.8, 5, 0.2), p(0.7, 12, 1.0)],
            10.0,
            0,
        );
        space.check_invariants().unwrap();
        // P-order is [p2, p3, p1]; dois decreasing:
        assert_eq!(space.doi(0), Doi::new(0.8));
        assert_eq!(space.doi(1), Doi::new(0.7));
        assert_eq!(space.doi(2), Doi::new(0.5));
        // C by decreasing cost: p3 (12), p1 (10), p2 (5) -> P-indices [1, 2, 0].
        assert_eq!(space.c, vec![1, 2, 0]);
        // S by increasing size: p2 (2), p1 (3), p3 (10) -> P-indices [0, 2, 1].
        assert_eq!(space.s, vec![0, 2, 1]);
    }

    #[test]
    fn doi_only_mode_skips_cost_vectors() {
        let mut space = PreferenceSpace::synthetic(vec![p(0.9, 1, 0.5), p(0.4, 2, 0.5)], 5.0, 0);
        space.build_vectors(false);
        assert!(space.c.is_empty());
        assert!(space.s.is_empty());
        assert_eq!(space.d, vec![0, 1]);
        space.check_invariants().unwrap();
    }

    #[test]
    fn invariants_catch_corruption() {
        let mut space = PreferenceSpace::synthetic(vec![p(0.9, 1, 0.5), p(0.4, 2, 0.6)], 5.0, 0);
        space.c = vec![0, 0];
        assert!(space.check_invariants().is_err());
        space.build_vectors(true);
        space.d = vec![1, 0];
        assert!(space.check_invariants().is_err());
    }

    #[test]
    fn ties_break_deterministically() {
        let space = PreferenceSpace::synthetic(
            vec![p(0.5, 7, 0.5), p(0.5, 7, 0.5), p(0.5, 7, 0.5)],
            1.0,
            0,
        );
        assert_eq!(space.c, vec![0, 1, 2]);
        assert_eq!(space.s, vec![0, 1, 2]);
    }

    #[test]
    fn accessors() {
        let space = PreferenceSpace::synthetic(vec![p(0.9, 11, 0.25)], 100.0, 3);
        assert_eq!(space.k(), 1);
        assert!(!space.is_empty());
        assert_eq!(space.cost_blocks(0), 11);
        assert!((space.size_factor(0) - 0.25).abs() < 1e-12);
        assert_eq!(space.base_cost_blocks, 3);
        assert!((space.base_rows - 100.0).abs() < 1e-12);
    }
}
