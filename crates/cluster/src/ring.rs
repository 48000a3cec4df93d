//! Consistent-hash ring: user → shard-group placement.
//!
//! Classic Karger-style consistent hashing with virtual nodes: each
//! group contributes `vnodes` points on a `u64` circle (FNV-1a over
//! `"{name}#{i}"`), and a key lands on the first point clockwise from
//! its own hash. Two properties make this the right placement function
//! for a session-sharded cluster:
//!
//! * **Balance** — with enough virtual nodes, group loads concentrate
//!   near `keys / groups` (the property test bounds the max/min ratio).
//! * **Minimal movement** — adding a group only *steals* keys for the
//!   new group, and removing one only *re-homes* the removed group's
//!   keys: a key whose group survives the change never moves. That is
//!   what keeps WAL-shipped session state mostly in place during
//!   topology changes, unlike `hash(key) % n` which reshuffles nearly
//!   everything.
//!
//! The hash is the shared workspace FNV-1a
//! ([`cqp_core::answer_cache::fnv1a`]) finished with the shared
//! splitmix64 mixer: FNV alone leaves sequential keys (`user0001`,
//! `user0002`, …) clustered in the high bits that decide ring position,
//! and the finalizer disperses them. Placement is deterministic across
//! processes and runs, so the router, the bench, and the tests all
//! agree on who owns a user.

use cqp_core::answer_cache::{fnv1a, FNV_OFFSET};
use rand::splitmix64_mix;

/// Virtual nodes per group when none is specified. 128 keeps the
/// balance ratio comfortably under 2 for single-digit group counts
/// while the ring stays tiny (an 8-group ring is 1024 points).
pub const DEFAULT_VNODES: usize = 128;

/// A consistent-hash ring over named groups.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, group index)` sorted by point.
    points: Vec<(u64, usize)>,
    groups: Vec<String>,
    vnodes: usize,
}

/// The stable key hash: where `key` sits on the circle.
pub fn key_point(key: &str) -> u64 {
    splitmix64_mix(fnv1a(FNV_OFFSET, key.as_bytes()))
}

impl Ring {
    /// An empty ring with `vnodes` virtual nodes per group (≥ 1).
    pub fn new(vnodes: usize) -> Self {
        Ring {
            points: Vec::new(),
            groups: Vec::new(),
            vnodes: vnodes.max(1),
        }
    }

    /// A ring over `names` with [`DEFAULT_VNODES`].
    pub fn with_groups<S: AsRef<str>>(names: &[S]) -> Self {
        let mut ring = Ring::new(DEFAULT_VNODES);
        for n in names {
            ring.add_group(n.as_ref());
        }
        ring
    }

    /// Group names in insertion order.
    pub fn groups(&self) -> &[String] {
        &self.groups
    }

    /// Number of groups on the ring.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when no group has been added.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Adds a group; duplicate names are ignored (the ring is a set).
    pub fn add_group(&mut self, name: &str) {
        if self.groups.iter().any(|g| g == name) {
            return;
        }
        let index = self.groups.len();
        self.groups.push(name.to_string());
        for i in 0..self.vnodes {
            let point = splitmix64_mix(fnv1a(FNV_OFFSET, format!("{name}#{i}").as_bytes()));
            self.points.push((point, index));
        }
        // Sort by point; ties (astronomically unlikely with 64-bit FNV)
        // break by group index so placement stays deterministic.
        self.points.sort_unstable();
    }

    /// Removes a group (no-op when absent). Keys it owned re-home to
    /// their next point clockwise; everyone else stays put.
    pub fn remove_group(&mut self, name: &str) {
        let Some(index) = self.groups.iter().position(|g| g == name) else {
            return;
        };
        self.groups.remove(index);
        self.points.retain(|(_, g)| *g != index);
        // Indices above the removed one shift down by one.
        for (_, g) in &mut self.points {
            if *g > index {
                *g -= 1;
            }
        }
    }

    /// The group owning `key`: the first virtual node clockwise from the
    /// key's point (wrapping). `None` on an empty ring.
    pub fn place(&self, key: &str) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let point = key_point(key);
        let i = self.points.partition_point(|(p, _)| *p < point);
        let (_, group) = self.points[if i == self.points.len() { 0 } else { i }];
        Some(&self.groups[group])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("user{i:05}")).collect()
    }

    /// Per-group key counts for `keys`: the balance diagnostic.
    fn load(ring: &Ring, keys: &[String]) -> Vec<(String, usize)> {
        let mut counts = vec![0usize; ring.len()];
        for k in keys {
            let g = ring.place(k).unwrap();
            counts[ring.groups().iter().position(|n| n == g).unwrap()] += 1;
        }
        ring.groups().iter().cloned().zip(counts).collect()
    }

    #[test]
    fn placement_is_deterministic_and_total() {
        let ring = Ring::with_groups(&["g0", "g1", "g2"]);
        let again = Ring::with_groups(&["g0", "g1", "g2"]);
        for k in keys(500) {
            let g = ring.place(&k).unwrap();
            assert_eq!(Some(g), again.place(&k));
            assert!(ring.groups().iter().any(|n| n == g));
        }
        assert_eq!(Ring::new(8).place("anyone"), None);
    }

    #[test]
    fn duplicate_add_is_ignored_and_remove_is_safe() {
        let mut ring = Ring::with_groups(&["a", "b"]);
        ring.add_group("a");
        assert_eq!(ring.len(), 2);
        ring.remove_group("missing");
        assert_eq!(ring.len(), 2);
        ring.remove_group("a");
        assert_eq!(ring.len(), 1);
        for k in keys(100) {
            assert_eq!(ring.place(&k), Some("b"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Balance: across 2–8 groups and 10k keys, the most loaded
        /// group holds at most 4× the least loaded — the virtual-node
        /// concentration bound, far from `%`-free-for-all but loose
        /// enough to never flake under FNV's fixed geometry.
        #[test]
        fn load_ratio_is_bounded(groups in 2usize..=8, salt in 0u64..1000) {
            let names: Vec<String> =
                (0..groups).map(|i| format!("shard-{salt}-{i}")).collect();
            let ring = Ring::with_groups(&names);
            let load = load(&ring, &keys(10_000));
            let max = load.iter().map(|(_, c)| *c).max().unwrap();
            let min = load.iter().map(|(_, c)| *c).min().unwrap();
            prop_assert!(min > 0, "a group got zero keys: {load:?}");
            prop_assert!(
                (max as f64) / (min as f64) <= 4.0,
                "load ratio {max}/{min} exceeds 4.0: {load:?}"
            );
        }

        /// Minimal movement, join: adding a group only *steals* keys —
        /// every key either keeps its old group or moves to the new one,
        /// and the stolen fraction stays near 1/(n+1).
        #[test]
        fn join_moves_only_to_the_new_group(groups in 2usize..=8, salt in 0u64..1000) {
            let names: Vec<String> =
                (0..groups).map(|i| format!("shard-{salt}-{i}")).collect();
            let mut ring = Ring::with_groups(&names);
            let ks = keys(5_000);
            let before: Vec<String> =
                ks.iter().map(|k| ring.place(k).unwrap().to_string()).collect();
            ring.add_group("joiner");
            let mut stolen = 0usize;
            for (k, old) in ks.iter().zip(&before) {
                let now = ring.place(k).unwrap();
                if now != old {
                    prop_assert_eq!(now, "joiner", "key {} moved between old groups", k);
                    stolen += 1;
                }
            }
            // Expected share 1/(n+1); allow 3× plus slack for FNV's
            // fixed arc lengths.
            let expected = ks.len() / (groups + 1);
            prop_assert!(
                stolen <= 3 * expected + 100,
                "join stole {stolen} keys, expected ~{expected}"
            );
        }

        /// Minimal movement, leave: removing a group re-homes only its
        /// own keys; keys on surviving groups never move.
        #[test]
        fn leave_moves_only_the_removed_groups_keys(groups in 2usize..=8, salt in 0u64..1000) {
            let names: Vec<String> =
                (0..groups).map(|i| format!("shard-{salt}-{i}")).collect();
            let mut ring = Ring::with_groups(&names);
            let ks = keys(5_000);
            let victim = names[(salt as usize) % names.len()].clone();
            let before: Vec<String> =
                ks.iter().map(|k| ring.place(k).unwrap().to_string()).collect();
            ring.remove_group(&victim);
            for (k, old) in ks.iter().zip(&before) {
                let now = ring.place(k).unwrap();
                if *old == victim {
                    prop_assert!(now != victim);
                } else {
                    prop_assert_eq!(now, old, "surviving key {} moved", k);
                }
            }
        }
    }
}
