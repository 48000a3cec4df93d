//! The `prune(.)` machinery of the boundary algorithms.
//!
//! The paper (Section 5.2.1) prunes parts of the graph "either because they
//! have already been visited or because they are below boundaries found"
//! (details "skipped for space reasons"). Concretely:
//!
//! * **visited** — boundary search does not store the graph, so it must not
//!   re-enqueue states; a bit-set keyed hash set catches revisits;
//! * **below a boundary** — a state `R` is reachable from a boundary `B`
//!   through Vertical transitions iff `|R| = |B|` and `R` is componentwise
//!   `≥ B` (each Vertical replaces a member by its successor); such states
//!   satisfy the constraint trivially and would produce spurious boundaries
//!   (the paper's `c2c3c5` example under Figure 6).

use crate::state::{State, MAX_K};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Bytes charged per stored state by the Figure 13 accounting.
pub(crate) const STATE_BYTES: usize = std::mem::size_of::<State>();

/// Visited-set and boundary-dominance pruning.
#[derive(Debug, Default)]
pub struct Pruner {
    /// Keyed on the state itself with std's SipHash: states come from
    /// client-supplied profiles, so the hasher must resist flooding. A map
    /// rather than a set for its entry API (see [`Pruner::admit`]).
    visited: HashMap<State, ()>,
    /// Boundaries indexed by group size.
    boundaries_by_size: Vec<Vec<State>>,
    boundary_count: usize,
}

impl Pruner {
    /// Creates an empty pruner.
    pub fn new() -> Self {
        Pruner::default()
    }

    /// Marks a state visited; returns `true` if it was new. One hash per
    /// call, so "check, then mark" loops use this alone.
    pub fn mark_visited(&mut self, s: &State) -> bool {
        self.visited.insert(*s, ()).is_none()
    }

    /// True if the state was already visited.
    pub fn was_visited(&self, s: &State) -> bool {
        self.visited.contains_key(s)
    }

    /// Registers a boundary for dominance pruning.
    pub fn add_boundary(&mut self, s: &State) {
        let n = s.len();
        if self.boundaries_by_size.len() <= n {
            self.boundaries_by_size.resize_with(n + 1, Vec::new);
        }
        self.boundaries_by_size[n].push(*s);
        self.boundary_count += 1;
    }

    /// True if `s` lies below (is Vertical-reachable from) a registered
    /// boundary of the same group size.
    pub fn below_boundary(&self, s: &State) -> bool {
        below(&self.boundaries_by_size, s)
    }

    /// The paper's `prune(R')`: visited or below a boundary.
    pub fn prune(&self, s: &State) -> bool {
        self.was_visited(s) || self.below_boundary(s)
    }

    /// [`Pruner::prune`] that marks an unpruned state visited: `true` when
    /// `s` is new and not below a boundary. One hash, and the dominance
    /// scan only for unvisited states.
    pub fn admit(&mut self, s: &State) -> bool {
        match self.visited.entry(*s) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                let admitted = !below(&self.boundaries_by_size, s);
                if admitted {
                    slot.insert(());
                }
                admitted
            }
        }
    }

    /// Tracked bytes (visited states + boundary states), for the Figure 13
    /// memory accounting. O(1), so per-iteration memory observations stay
    /// cheap.
    pub fn bytes(&self) -> usize {
        (self.visited.len() + self.boundary_count) * STATE_BYTES
    }
}

/// True if `s` is dominated by a boundary of its own group size. `s`'s
/// members are listed once, so each boundary costs one walk of its bits.
fn below(boundaries_by_size: &[Vec<State>], s: &State) -> bool {
    let n = s.len();
    let Some(boundaries) = boundaries_by_size.get(n) else {
        return false;
    };
    let mut members = [0u16; MAX_K];
    for (slot, m) in members.iter_mut().zip(s.iter()) {
        *slot = m;
    }
    let members = &members[..n];
    boundaries.iter().any(|b| b.members_at_most(members))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(v: &[u16]) -> State {
        State::from_indices(v.to_vec())
    }

    #[test]
    fn visited_marks_once() {
        let mut p = Pruner::new();
        let s = st(&[0, 2]);
        assert!(!p.was_visited(&s));
        assert!(p.mark_visited(&s));
        assert!(!p.mark_visited(&s));
        assert!(p.prune(&s));
    }

    #[test]
    fn paper_c2c3c5_case() {
        // Boundary c2c3c4 found; c2c3c5 must be pruned (below it), while
        // c1c4c5 — not dominated — must not be.
        let mut p = Pruner::new();
        p.add_boundary(&st(&[1, 2, 3]));
        assert!(p.prune(&st(&[1, 2, 4])));
        assert!(!p.prune(&st(&[0, 3, 4])));
        // Size mismatch: never dominated.
        assert!(!p.prune(&st(&[1, 2])));
    }

    #[test]
    fn bytes_grow_with_content() {
        let mut p = Pruner::new();
        let b0 = p.bytes();
        p.mark_visited(&st(&[0]));
        p.add_boundary(&st(&[0, 1]));
        assert!(p.bytes() > b0);
    }
}
