//! The `prune(.)` machinery of the boundary algorithms.
//!
//! The paper (Section 5.2.1) prunes parts of the graph "either because they
//! have already been visited or because they are below boundaries found"
//! (details "skipped for space reasons"). Concretely:
//!
//! * **visited** — boundary search does not store the graph, so it must not
//!   re-enqueue states. Up to [`DENSE_MAX_K`] preferences a state is an
//!   integer below 2^K, and the visited set is a bitmap indexed by it: no
//!   hashing, and no two states share a bit. Larger spaces keep a SipHash
//!   map keyed on the state;
//! * **below a boundary** — a state `R` is reachable from a boundary `B`
//!   through Vertical transitions iff `|R| = |B|` and `R` is componentwise
//!   `≥ B` (each Vertical replaces a member by its successor); such states
//!   satisfy the constraint trivially and would produce spurious boundaries
//!   (the paper's `c2c3c5` example under Figure 6). Boundaries are stored
//!   as flat member lists per group size and compared element by element.

use crate::state::{State, MAX_K};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Bytes charged per stored state by the Figure 13 accounting.
pub(crate) const STATE_BYTES: usize = std::mem::size_of::<State>();

/// The largest K whose visited set is a bitmap. A state over K preferences
/// is an integer below 2^K, so the bitmap takes 2^K bits: 8 KiB at K = 16,
/// which a search zeroes up front. At K = 20 it would be 128 KiB, more than
/// a small search touches (C-MAXBOUNDS visits about 13 states there), so
/// larger spaces keep the hash map.
pub(crate) const DENSE_MAX_K: usize = 16;

/// Visited-set and boundary-dominance pruning for one search over K
/// preferences.
#[derive(Debug)]
pub struct Pruner {
    visited: Visited,
    /// Boundaries indexed by group size.
    boundaries: Vec<Group>,
    boundary_count: usize,
}

/// The states a search has visited.
#[derive(Debug)]
enum Visited {
    /// Bit `s` is set for each visited state `s`, read as one integer
    /// (K ≤ [`DENSE_MAX_K`]); `len` counts the set bits.
    Dense { bits: Vec<u64>, len: usize },
    /// Keyed on the state itself with std's SipHash: states come from
    /// client-supplied profiles, so the hasher must resist flooding. A map
    /// rather than a set for its entry API (see [`Visited::admit`]).
    Hashed(HashMap<State, ()>),
}

/// The boundaries of one group size.
#[derive(Debug, Default)]
struct Group {
    /// How many there are: the only trace an empty boundary leaves.
    count: usize,
    /// Their members, each boundary ascending, one after another.
    members: Vec<u16>,
}

impl Pruner {
    /// Creates an empty pruner for states over `k` preferences: a bitmap
    /// visited set up to [`DENSE_MAX_K`], a hash map above.
    pub fn new(k: usize) -> Self {
        let visited = if k <= DENSE_MAX_K {
            Visited::Dense {
                bits: vec![0; (1usize << k).div_ceil(64)],
                len: 0,
            }
        } else {
            Visited::Hashed(HashMap::new())
        };
        Pruner {
            visited,
            boundaries: Vec::new(),
            boundary_count: 0,
        }
    }

    /// Marks a state visited; returns `true` if it was new.
    pub fn mark_visited(&mut self, s: &State) -> bool {
        self.visited.mark_visited(s)
    }

    /// Registers a boundary for dominance pruning.
    pub fn add_boundary(&mut self, s: &State) {
        let n = s.len();
        if self.boundaries.len() <= n {
            self.boundaries.resize_with(n + 1, Group::default);
        }
        let group = &mut self.boundaries[n];
        group.count += 1;
        group.members.extend(s.iter());
        self.boundary_count += 1;
    }

    /// The paper's `prune(R')` that marks an unpruned state visited: `true`
    /// when `s` is new and not below a boundary. The dominance scan runs
    /// only for unvisited states.
    pub fn admit(&mut self, s: &State) -> bool {
        let boundaries = &self.boundaries;
        self.visited.admit(s, || below(boundaries, s))
    }

    /// Forgets every visited state and boundary, so one pruner (and one
    /// bitmap or map allocation) serves a solve's successive seeds.
    pub fn clear(&mut self) {
        self.visited.clear();
        self.boundaries.clear();
        self.boundary_count = 0;
    }

    /// Tracked bytes for the Figure 13 memory accounting: the paper's
    /// states-stored model, [`STATE_BYTES`] per visited state and per
    /// boundary, whatever the visited set's representation. O(1), so
    /// per-iteration memory observations stay cheap.
    pub fn bytes(&self) -> usize {
        (self.visited.len() + self.boundary_count) * STATE_BYTES
    }
}

impl Visited {
    /// The bitmap word and bit of `s`. A member at or above K makes `s` an
    /// integer of at least 2^K, past the bitmap's end, so indexing panics
    /// (below K = 6 the one word has spare bits no state of the space uses).
    fn slot(s: &State) -> (usize, u64) {
        let i = s.as_word();
        ((i / 64) as usize, 1 << (i % 64))
    }

    fn mark_visited(&mut self, s: &State) -> bool {
        match self {
            Visited::Dense { bits, len } => {
                let (word, bit) = Visited::slot(s);
                let new = bits[word] & bit == 0;
                bits[word] |= bit;
                *len += usize::from(new);
                new
            }
            Visited::Hashed(map) => map.insert(*s, ()).is_none(),
        }
    }

    /// Marks `s` visited if it is new and `below` (asked only then) is
    /// false; returns whether it did. One probe of the set either way.
    fn admit(&mut self, s: &State, below: impl FnOnce() -> bool) -> bool {
        match self {
            Visited::Dense { bits, len } => {
                let (word, bit) = Visited::slot(s);
                if bits[word] & bit != 0 || below() {
                    return false;
                }
                bits[word] |= bit;
                *len += 1;
                true
            }
            Visited::Hashed(map) => match map.entry(*s) {
                Entry::Occupied(_) => false,
                Entry::Vacant(_) if below() => false,
                Entry::Vacant(slot) => {
                    slot.insert(());
                    true
                }
            },
        }
    }

    fn len(&self) -> usize {
        match self {
            Visited::Dense { len, .. } => *len,
            Visited::Hashed(map) => map.len(),
        }
    }

    fn clear(&mut self) {
        match self {
            Visited::Dense { bits, len } => {
                bits.fill(0);
                *len = 0;
            }
            Visited::Hashed(map) => map.clear(),
        }
    }
}

/// True if `s` is dominated by a boundary of its own group size. `s`'s
/// members are listed once, and each boundary's slice is compared with
/// them element by element until one member is larger.
fn below(boundaries: &[Group], s: &State) -> bool {
    let n = s.len();
    let Some(group) = boundaries.get(n).filter(|g| g.count > 0) else {
        return false;
    };
    if n == 0 {
        return true; // an empty boundary dominates the empty state
    }
    let mut members = [0u16; MAX_K];
    for (slot, m) in members.iter_mut().zip(s.iter()) {
        *slot = m;
    }
    let members = &members[..n];
    group
        .members
        .chunks_exact(n)
        .any(|b| b.iter().zip(members).all(|(b, m)| b <= m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn st(v: &[u16]) -> State {
        State::from_indices(v.to_vec())
    }

    #[test]
    fn visited_marks_once() {
        for k in [3, DENSE_MAX_K + 1] {
            let mut p = Pruner::new(k);
            let s = st(&[0, 2]);
            assert!(p.mark_visited(&s));
            assert!(!p.mark_visited(&s));
            assert!(!p.admit(&s));
            assert!(p.admit(&st(&[1, 2])));
            assert!(!p.mark_visited(&st(&[1, 2])));
        }
    }

    #[test]
    fn paper_c2c3c5_case() {
        for k in [5, DENSE_MAX_K + 1] {
            // Boundary c2c3c4 found; c2c3c5 must be pruned (below it),
            // while c1c4c5 — not dominated — must not be.
            let mut p = Pruner::new(k);
            p.add_boundary(&st(&[1, 2, 3]));
            assert!(!p.admit(&st(&[1, 2, 4])));
            assert!(p.admit(&st(&[0, 3, 4])));
            // Size mismatch: never dominated.
            assert!(p.admit(&st(&[1, 2])));
            // A pruned state is not marked visited.
            assert!(p.mark_visited(&st(&[1, 2, 4])));
        }
    }

    #[test]
    fn bytes_grow_with_content() {
        let mut p = Pruner::new(2);
        let b0 = p.bytes();
        p.mark_visited(&st(&[0]));
        p.add_boundary(&st(&[0, 1]));
        assert_eq!(p.bytes(), b0 + 2 * STATE_BYTES);
        p.clear();
        assert_eq!(p.bytes(), b0);
    }

    #[test]
    fn representation_switches_above_dense_max_k() {
        let dense = Pruner::new(DENSE_MAX_K);
        assert!(
            matches!(&dense.visited, Visited::Dense { bits, .. } if bits.len() * 64 == 1 << DENSE_MAX_K)
        );
        assert!(matches!(
            Pruner::new(DENSE_MAX_K + 1).visited,
            Visited::Hashed(_)
        ));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn dense_slot_beyond_k_panics() {
        Pruner::new(8).mark_visited(&st(&[8]));
    }

    /// A state over `k` preferences: `n` draws from the 16-bit chunks of
    /// `draws` (duplicates collapse, so it may be smaller), or, for `n` of
    /// 5, the low `k` bits of `draws` themselves.
    fn state(k: usize, draws: u64, n: u8) -> State {
        if n == 5 {
            return (0..k as u16).filter(|&i| draws >> i & 1 == 1).collect();
        }
        (0..n)
            .map(|c| ((draws >> (16 * c)) as u16) % k as u16)
            .collect()
    }

    /// `s` with every member moved up one position, if that stays below
    /// `k`: Vertical-reachable from `s`, so strictly below it.
    fn shifted(s: &State, k: usize) -> Option<State> {
        let top = s.max_index()?;
        (usize::from(top) + 1 < k).then(|| s.iter().map(|m| m + 1).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A bitmap and a hash-map pruner driven through one sequence of
        /// operations agree on every return and on `bytes()`, and both
        /// agree with a model: a set of visited states and a list of
        /// boundaries tested with `State::dominated_by`.
        #[test]
        fn dense_and_hashed_pruners_agree(
            k_pick in 0usize..4,
            pool in prop::collection::vec((any::<u64>(), 0u8..=5), 1..=8),
            ops in prop::collection::vec((0u8..10, 0usize..18), 0..=48),
        ) {
            let k = [1, 2, 15, DENSE_MAX_K][k_pick];
            let mut pool: Vec<State> = pool.iter().map(|&(d, n)| state(k, d, n)).collect();
            let below_pool: Vec<State> = pool.iter().filter_map(|s| shifted(s, k)).collect();
            pool.extend(below_pool);
            // The first and last slot of the bitmap.
            pool.extend([State::empty(), (0..k as u16).collect()]);
            let mut dense = Pruner::new(k);
            prop_assert!(matches!(dense.visited, Visited::Dense { .. }));
            let mut hashed = Pruner {
                visited: Visited::Hashed(HashMap::new()),
                ..Pruner::new(k)
            };
            let mut visited: HashSet<State> = HashSet::new();
            let mut boundaries: Vec<State> = Vec::new();
            for (op, i) in ops {
                let s = pool[i % pool.len()];
                let dominated = boundaries.iter().any(|b| s.dominated_by(b));
                prop_assert_eq!(below(&dense.boundaries, &s), dominated, "below({:?})", s);
                match op {
                    0..=2 => {
                        let new = visited.insert(s);
                        prop_assert_eq!(dense.mark_visited(&s), new);
                        prop_assert_eq!(hashed.mark_visited(&s), new);
                    }
                    3..=5 => {
                        let admitted = !visited.contains(&s) && !dominated;
                        if admitted {
                            visited.insert(s);
                        }
                        prop_assert_eq!(dense.admit(&s), admitted, "admit({:?})", s);
                        prop_assert_eq!(hashed.admit(&s), admitted, "admit({:?})", s);
                    }
                    6..=8 => {
                        boundaries.push(s);
                        dense.add_boundary(&s);
                        hashed.add_boundary(&s);
                    }
                    _ => {
                        visited.clear();
                        boundaries.clear();
                        dense.clear();
                        hashed.clear();
                    }
                }
                let bytes = (visited.len() + boundaries.len()) * STATE_BYTES;
                prop_assert_eq!(dense.bytes(), bytes);
                prop_assert_eq!(hashed.bytes(), bytes);
            }
        }
    }
}
