//! States of the CQP search space.
//!
//! "Each state in a CQP problem corresponds to a query built by integrating
//! a set of preferences from the user profile into the initial query"
//! (paper Section 5.1). Algorithms never manipulate the preferences
//! directly; they work with **ordered sets of indices `R` into a rank
//! vector** (`C`, `D`, or `S`) — paper Observation 1 — which is exactly
//! what [`State`] stores.
//!
//! A state is a 256-bit set: bit `i` is position `i` of the view's rank
//! vector. It is `Copy`, so the searches move states through queues,
//! visited sets and cost caches without allocating, and every transition
//! is a bit operation. In a space of at most 64 preferences a state is
//! also one integer ([`State::as_word`]), which the visited bitmap of a
//! small search uses as the state's address. Members are always visited
//! in ascending position, the order the paper writes them in (`c1c3c4`).

use std::fmt;

/// Maximum number of preferences a state space can index.
///
/// The paper's experiments use `K ≤ 40`, so 256 is generous. Indices at or
/// beyond this bound **hard-error** instead of silently aliasing.
pub const MAX_K: usize = 256;

const WORDS: usize = MAX_K / 64;

/// An ordered index set: indices (0-based) into a rank vector. The paper
/// writes these as e.g. `c1c3c4` (1-based).
///
/// `Ord` compares the bit words: a total order for sorting and
/// deduplicating, not the order of the member lists.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct State {
    words: [u64; WORDS],
}

impl std::hash::Hash for State {
    /// Feeds the words up to the highest non-zero one: a K ≤ 64 state is
    /// one `u64` to the (keyed) hasher instead of 32 bytes and a length.
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        for &w in &self.words[..self.used_words()] {
            h.write_u64(w);
        }
    }
}

/// The word and bit of index `i`.
///
/// # Panics
/// Panics (in all builds) if `i ≥ MAX_K`: aliasing two states onto one is
/// silent state-space corruption, never acceptable.
fn slot(i: u16) -> (usize, u64) {
    assert!(
        (i as usize) < MAX_K,
        "preference index {i} out of range: a State holds at most {MAX_K} \
         preferences; raise MAX_K for larger profiles"
    );
    ((i / 64) as usize, 1u64 << (i % 64))
}

impl State {
    /// The empty state (no preferences integrated).
    pub fn empty() -> Self {
        State::default()
    }

    /// A single-preference state `{k}`.
    pub fn singleton(k: u16) -> Self {
        State::empty().with_inserted(k)
    }

    /// Builds a state from indices in any order; duplicates collapse.
    pub fn from_indices(indices: Vec<u16>) -> Self {
        indices.into_iter().collect()
    }

    /// Number of preferences — the paper's *group size* (Definition 1).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the state holds no preferences.
    pub fn is_empty(&self) -> bool {
        self.words == [0; WORDS]
    }

    /// Membership test.
    pub fn contains(&self, k: u16) -> bool {
        (k as usize) < MAX_K && self.words[(k / 64) as usize] & (1u64 << (k % 64)) != 0
    }

    /// The largest index, if any.
    pub fn max_index(&self) -> Option<u16> {
        self.iter().next_back()
    }

    /// Returns a new state with `k` inserted.
    pub fn with_inserted(&self, k: u16) -> State {
        debug_assert!(!self.contains(k), "inserting an index already present");
        self.with_toggled(k)
    }

    /// Returns a new state with the member `old` replaced by `new`.
    pub fn with_replaced(&self, old: u16, new: u16) -> State {
        debug_assert!(self.contains(old) && !self.contains(new));
        self.with_toggled(old).with_toggled(new)
    }

    /// Returns a new state with `k`'s membership flipped (the generic
    /// searchers' move).
    pub fn with_toggled(&self, k: u16) -> State {
        let (w, bit) = slot(k);
        let mut s = *self;
        s.words[w] ^= bit;
        s
    }

    /// Returns the prefix state keeping the first `n` members (used by the
    /// D-HEURDOI regrow heuristic, paper Figure 11 step 2.5.1).
    pub fn prefix(&self, n: usize) -> State {
        self.iter().take(n).collect()
    }

    /// True if `self` is componentwise ≥ `other` (same size): i.e. `self`
    /// is reachable from `other` through Vertical transitions, which means
    /// `self` lies *below* `other` in the paper's diagrams.
    pub fn dominated_by(&self, other: &State) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(s, o)| s >= o)
    }

    /// True if `other`'s members are a subset of `self`'s.
    pub fn is_superset_of(&self, other: &State) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(s, o)| o & !s == 0)
    }

    /// The state as one integer, bit `i` set for member `i`: the direct
    /// address of a bitmap over the states of a K ≤ 64 space. A state with
    /// a member at or above 64 has no such integer.
    pub(crate) fn as_word(&self) -> u64 {
        debug_assert!(
            self.words[1..] == [0; WORDS - 1],
            "a state with a member ≥ 64 is not one word"
        );
        self.words[0]
    }

    /// Iterates over the members in ascending order.
    pub fn iter(&self) -> Members {
        Members {
            words: self.words,
            lo: 0,
            hi: self.used_words(),
        }
    }

    /// Number of words up to and including the highest non-zero one.
    fn used_words(&self) -> usize {
        self.words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |w| w + 1)
    }

    /// Maps the state's rank-vector indices to P-indices through `order`
    /// (the paper's `C[k]` dereference).
    pub fn to_pref_indices(&self, order: &[usize]) -> Vec<usize> {
        self.iter().map(|i| order[i as usize]).collect()
    }

    /// A well-mixed 64-bit digest of the set, for shard selection.
    pub fn digest(&self) -> u64 {
        // FNV-1a over the four words, then a final avalanche multiply.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in self.words {
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= h >> 33;
        h.wrapping_mul(0xff51_afd7_ed55_8ccd)
    }
}

/// The members of a [`State`], ascending from the front and descending
/// from the back.
#[derive(Debug, Clone)]
pub struct Members {
    /// The members not yet yielded.
    words: [u64; WORDS],
    /// Words below `lo` and from `hi` on are exhausted.
    lo: usize,
    hi: usize,
}

impl Iterator for Members {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        while self.lo < self.hi {
            let word = self.words[self.lo];
            if word != 0 {
                self.words[self.lo] = word & (word - 1);
                return Some((self.lo * 64) as u16 + word.trailing_zeros() as u16);
            }
            self.lo += 1;
        }
        None
    }

    /// Internal iteration, word by word: the parameter folds of
    /// `SpaceView` (`sum`, `product`, `fold`) run through this tight loop.
    fn fold<B, F: FnMut(B, u16) -> B>(self, init: B, mut f: F) -> B {
        let mut acc = init;
        for (w, &word) in self.words[self.lo..self.hi].iter().enumerate() {
            let base = ((self.lo + w) * 64) as u16;
            let mut bits = word;
            while bits != 0 {
                acc = f(acc, base + bits.trailing_zeros() as u16);
                bits &= bits - 1;
            }
        }
        acc
    }
}

impl DoubleEndedIterator for Members {
    fn next_back(&mut self) -> Option<u16> {
        while self.lo < self.hi {
            let w = self.hi - 1;
            let word = self.words[w];
            if word != 0 {
                let bit = 63 - word.leading_zeros();
                self.words[w] = word & !(1u64 << bit);
                return Some((w * 64) as u16 + bit as u16);
            }
            self.hi = w;
        }
        None
    }
}

impl fmt::Display for State {
    /// Paper-style rendering, 1-based: `c1c3c4`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        for i in self.iter() {
            write!(f, "c{}", i + 1)?;
        }
        Ok(())
    }
}

impl fmt::Debug for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<u16> for State {
    fn from_iter<T: IntoIterator<Item = u16>>(iter: T) -> Self {
        let mut s = State::empty();
        for i in iter {
            let (w, bit) = slot(i);
            s.words[w] |= bit;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(v: &[u16]) -> State {
        State::from_indices(v.to_vec())
    }

    fn members(st: &State) -> Vec<u16> {
        st.iter().collect()
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let st = s(&[3, 1, 3, 0]);
        assert_eq!(members(&st), [0, 1, 3]);
        assert_eq!(st.len(), 3);
        assert!(st.contains(1));
        assert!(!st.contains(2));
        assert_eq!(st.max_index(), Some(3));
    }

    #[test]
    fn insertion_and_replacement_keep_order() {
        let st = s(&[0, 2]);
        assert_eq!(members(&st.with_inserted(1)), [0, 1, 2]);
        assert_eq!(members(&st.with_inserted(5)), [0, 2, 5]);
        assert_eq!(members(&st.with_replaced(2, 3)), [0, 3]);
        assert_eq!(members(&st.with_replaced(0, 1)), [1, 2]);
    }

    #[test]
    fn paper_dominance_example() {
        // Figure 6 discussion: c2c3c5 lies below boundary c2c3c4
        // (componentwise {1,2,4} ≥ {1,2,3}).
        let below = s(&[1, 2, 4]);
        let boundary = s(&[1, 2, 3]);
        assert!(below.dominated_by(&boundary));
        assert!(!boundary.dominated_by(&below));
        // Different sizes never dominate.
        assert!(!s(&[1, 2]).dominated_by(&boundary));
    }

    #[test]
    fn superset_check() {
        // C-MAXBOUNDS: c1 is a subset of c1c3 and therefore redundant.
        assert!(s(&[0, 2]).is_superset_of(&s(&[0])));
        assert!(!s(&[0]).is_superset_of(&s(&[0, 2])));
        assert!(s(&[0]).is_superset_of(&State::empty()));
    }

    #[test]
    fn bitkeys_distinguish_states() {
        assert_ne!(s(&[0, 1]), s(&[0, 2]));
        assert_eq!(s(&[1, 0]), s(&[0, 1]));
        assert_eq!(s(&[]), State::empty());
    }

    #[test]
    fn bitkeys_do_not_alias_across_the_128_boundary() {
        // Regression: an old u128 key computed `1 << (i % 128)`, so index
        // 128 aliased index 0 and 129 aliased 1.
        assert_ne!(s(&[0]), s(&[128]));
        assert_ne!(s(&[1]), s(&[129]));
        assert_ne!(s(&[128]), s(&[129]));
        assert_ne!(s(&[0, 128]), s(&[0]));
        // Word boundaries inside the set.
        assert_ne!(s(&[63]), s(&[64]));
        assert_ne!(s(&[191]), s(&[192]));
        assert_ne!(s(&[255]), s(&[0]));
        // Digests spread too (not a correctness requirement, but the shard
        // selector depends on them not being degenerate).
        assert_ne!(s(&[0]).digest(), s(&[128]).digest());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitkey_hard_errors_beyond_max_k() {
        let _ = s(&[MAX_K as u16]);
    }

    #[test]
    fn prefix_truncates() {
        let st = s(&[0, 2, 5]);
        assert_eq!(members(&st.prefix(2)), [0, 2]);
        assert_eq!(st.prefix(0), State::empty());
        assert_eq!(st.prefix(9), st);
    }

    #[test]
    fn display_is_paper_style() {
        assert_eq!(s(&[0, 2, 3]).to_string(), "c1c3c4");
        assert_eq!(State::empty().to_string(), "∅");
        assert_eq!(format!("{:?}", s(&[2, 0])), "{0, 2}");
    }

    #[test]
    fn pref_index_mapping() {
        // C = [2, 0, 1] maps state {0,2} to P-indices {2, 1}.
        let order = vec![2usize, 0, 1];
        assert_eq!(s(&[0, 2]).to_pref_indices(&order), vec![2, 1]);
    }

    #[test]
    fn from_iterator() {
        let st: State = vec![4u16, 1, 4].into_iter().collect();
        assert_eq!(members(&st), [1, 4]);
    }

    #[test]
    fn members_iterate_from_both_ends() {
        let st = s(&[200, 3, 64, 63, 255]);
        assert_eq!(st.iter().rev().collect::<Vec<_>>(), [255, 200, 64, 63, 3]);
        let mut it = st.iter();
        assert_eq!((it.next(), it.next_back()), (Some(3), Some(255)));
        assert_eq!(it.collect::<Vec<_>>(), [63, 64, 200]);
    }

    /// Indices on both sides of every word boundary.
    const EDGES: [u16; 16] = [
        0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 190, 191, 192, 193, 254, 255,
    ];

    /// A set of indices as its sorted list: the representation `State`
    /// replaced, used as the reference model.
    fn arb_members() -> impl Strategy<Value = Vec<u16>> {
        prop::collection::vec((any::<bool>(), 0u16..MAX_K as u16, 0..EDGES.len()), 0..=12).prop_map(
            |picks| {
                let set: std::collections::BTreeSet<u16> = picks
                    .into_iter()
                    .map(|(edge, any, e)| if edge { EDGES[e] } else { any })
                    .collect();
                set.into_iter().collect()
            },
        )
    }

    fn model_dominated(a: &[u16], b: &[u16]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x >= y)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every `State` operation agrees with the sorted-`Vec<u16>` model.
        #[test]
        fn state_matches_sorted_vec_model(
            a in arb_members(),
            b in arb_members(),
            k in 0u16..MAX_K as u16,
            e in 0..EDGES.len(),
            n in 0usize..14,
            shifts in prop::collection::vec(0u16..3, 12),
        ) {
            let sa = State::from_indices(a.iter().rev().copied().collect());
            let sb = State::from_indices(b.clone());
            prop_assert_eq!(members(&sa), a.clone());
            prop_assert_eq!(sa.iter().rev().collect::<Vec<_>>(), a.iter().rev().copied().collect::<Vec<_>>());
            prop_assert_eq!(sa.len(), a.len());
            prop_assert_eq!(sa.is_empty(), a.is_empty());
            prop_assert_eq!(sa.max_index(), a.last().copied());
            for i in 0..MAX_K as u16 {
                prop_assert_eq!(sa.contains(i), a.binary_search(&i).is_ok(), "contains({})", i);
            }
            prop_assert!(!sa.contains(MAX_K as u16));
            let rendered: String = a.iter().map(|i| format!("c{}", i + 1)).collect();
            prop_assert_eq!(sa.to_string(), if a.is_empty() { "∅".to_string() } else { rendered });
            prop_assert_eq!(members(&sa.prefix(n)), a[..n.min(a.len())].to_vec());
            prop_assert_eq!(sa == sb, a == b);
            prop_assert_eq!(sa.dominated_by(&sb), model_dominated(&a, &b));
            let subset = b.iter().all(|i| a.binary_search(i).is_ok());
            prop_assert_eq!(sa.is_superset_of(&sb), subset);
            let order: Vec<usize> = (0..MAX_K).rev().collect();
            prop_assert_eq!(
                sa.to_pref_indices(&order),
                a.iter().map(|&i| MAX_K - 1 - i as usize).collect::<Vec<_>>()
            );

            // Insert, replace and toggle, at a random index and at a word edge.
            for x in [k, EDGES[e]] {
                let mut model = a.clone();
                match model.binary_search(&x) {
                    Ok(pos) => {
                        model.remove(pos);
                        prop_assert_eq!(members(&sa.with_toggled(x)), model.clone());
                    }
                    Err(pos) => {
                        model.insert(pos, x);
                        prop_assert_eq!(members(&sa.with_inserted(x)), model.clone());
                        prop_assert_eq!(sa.with_toggled(x), sa.with_inserted(x));
                        if let Some(&old) = a.first() {
                            let mut replaced: Vec<u16> =
                                a.iter().copied().filter(|&i| i != old).collect();
                            let pos = replaced.partition_point(|&i| i < x);
                            replaced.insert(pos, x);
                            prop_assert_eq!(members(&sa.with_replaced(old, x)), replaced);
                        }
                    }
                }
            }

            // A state componentwise above `a` (a chain of Vertical moves)
            // is dominated by it; `a` is dominated by it only if equal.
            let mut above = Vec::with_capacity(a.len());
            for (&m, &d) in a.iter().zip(&shifts) {
                let next = (m + d).max(above.last().map_or(0, |&p: &u16| p + 1));
                above.push(next);
            }
            if above.last().is_none_or(|&m| (m as usize) < MAX_K) {
                let sabove = State::from_indices(above.clone());
                prop_assert!(sabove.dominated_by(&sa));
                prop_assert_eq!(sa.dominated_by(&sabove), above == a);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_beyond_max_k_hard_errors() {
        let _ = State::singleton(3).with_inserted(MAX_K as u16);
    }
}
