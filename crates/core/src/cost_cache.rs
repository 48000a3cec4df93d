//! Memoized state-cost evaluation.
//!
//! "Each time it computes the cost of a node that is slightly different
//! from a previous one. Since Formula (6) permits incremental cost
//! computation, cost(.) has been implemented in this way. Costs that may be
//! re-used are cached. This technique is used in all algorithms proposed."
//! (paper Section 5.2.1, discussion of `cost(Q, R, C, P)`).
//!
//! States are tiny index sets, so a straight sum is already `O(|R|)`; the
//! cache's value is avoiding the repeated re-derivation when the boundary
//! searches revisit neighborhoods. Its footprint is charged to the
//! Figure 13 memory accounting like every other structure the algorithms
//! keep.
//!
//! Both implementations key on the [`State`] itself (a `Copy` 256-bit set)
//! through std's keyed SipHash, so a client-supplied profile cannot steer
//! entries into one bucket:
//!
//! * [`CostCache`] — the per-run, single-threaded memo with deterministic
//!   eviction ([`EvictionPolicy`]: FIFO by default, LRU for serving);
//! * [`SharedCostCache`] — the N-way sharded, `Mutex`-per-shard cache a
//!   batch personalization run shares across workers, so concurrent
//!   boundary searches over the *same* space reuse each other's cost
//!   evaluations.

use crate::spaces::SpaceView;
use crate::state::State;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Approximate per-entry heap footprint (key + value) in bytes.
const ENTRY_BYTES: usize = std::mem::size_of::<State>() + std::mem::size_of::<u64>();

/// Which resident entry a full cache evicts.
///
/// Both policies are deterministic — a bounded run's hit/miss/eviction
/// trace is a pure function of the lookup sequence — so either choice
/// preserves the bit-for-bit reproducibility the batch tests rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict the oldest *insertion*. Hits never reorder the ring, so the
    /// victim sequence depends only on the miss sequence. The historical
    /// default for offline batch runs.
    #[default]
    Fifo,
    /// Evict the least recently *used* entry: a hit moves the entry to the
    /// back of the ring. The right policy for long-lived serving caches,
    /// where hot spaces should stay resident across request streams.
    Lru,
}

impl EvictionPolicy {
    /// Stable lowercase tag for reports and config parsing.
    pub fn name(&self) -> &'static str {
        match self {
            EvictionPolicy::Fifo => "fifo",
            EvictionPolicy::Lru => "lru",
        }
    }
}

/// Moves `key` to the back of the recency ring (LRU touch). `O(n)` in
/// resident entries — acceptable because bounded caches are small by
/// construction and unbounded caches never call this.
fn touch<K: PartialEq + Copy>(order: &mut VecDeque<K>, key: K) {
    if order.back() == Some(&key) {
        return;
    }
    if let Some(pos) = order.iter().position(|k| *k == key) {
        order.remove(pos);
        order.push_back(key);
    }
}

/// A per-run memo of `state → cost`.
///
/// Unbounded by default (per-run caches die with the search); a capacity
/// can be set to bound the footprint, in which case a full cache evicts
/// per its [`EvictionPolicy`] (FIFO unless configured otherwise), so
/// bounded runs are bit-for-bit reproducible.
#[derive(Debug)]
pub struct CostCache {
    map: HashMap<State, u64>,
    /// Eviction ring of resident keys; front = next victim. Insertion
    /// order under FIFO, recency order under LRU.
    order: VecDeque<State>,
    capacity: usize,
    policy: EvictionPolicy,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for CostCache {
    fn default() -> Self {
        CostCache::new()
    }
}

impl CostCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        CostCache::with_capacity(usize::MAX)
    }

    /// Creates an empty cache holding at most `capacity` entries (FIFO).
    pub fn with_capacity(capacity: usize) -> Self {
        CostCache::with_capacity_policy(capacity, EvictionPolicy::Fifo)
    }

    /// Creates an empty cache holding at most `capacity` entries, evicting
    /// per `policy` when full.
    pub fn with_capacity_policy(capacity: usize, policy: EvictionPolicy) -> Self {
        CostCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            policy,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The eviction policy this cache was built with.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// The cost of `s` in `view`, computed at most once per resident state.
    pub fn cost(&mut self, view: &SpaceView<'_>, s: &State) -> u64 {
        let key = *s;
        match self.map.get(&key) {
            Some(&c) => {
                self.hits += 1;
                // Under LRU a hit refreshes recency; skip the O(n) touch
                // when the cache can never fill (unbounded caches never
                // evict, so the ring order is irrelevant).
                if self.policy == EvictionPolicy::Lru && self.capacity < usize::MAX {
                    touch(&mut self.order, key);
                }
                c
            }
            None => {
                self.misses += 1;
                let c = view.state_cost(s);
                if self.map.len() >= self.capacity {
                    // Evict the ring's front: oldest insertion under FIFO,
                    // least recently used under LRU. Deterministic either
                    // way, so a bounded run's trace is reproducible.
                    if let Some(victim) = self.order.pop_front() {
                        self.map.remove(&victim);
                        self.evictions += 1;
                    }
                }
                self.map.insert(key, c);
                self.order.push_back(key);
                c
            }
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (actual evaluations) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted to respect the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate heap footprint in bytes (map entries + order ring).
    pub fn bytes(&self) -> usize {
        self.map.len() * ENTRY_BYTES + self.order.len() * std::mem::size_of::<State>()
    }
}

/// A content fingerprint of the cost function a [`SpaceView`] induces.
///
/// Two views share cost-cache entries only when this matches: the cost of a
/// `State` depends on the base query cost, the order vector, and the mapped
/// per-preference costs — all hashed here (FNV-1a). Doi and size are *not*
/// hashed: the caches memoize cost only.
pub fn cost_fingerprint(view: &SpaceView<'_>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    };
    let space = view.eval().space();
    mix(view.k() as u64);
    mix(space.base_cost_blocks);
    for i in 0..view.k() {
        let p = view.pref_at(i as u16);
        mix(p as u64);
        mix(space.cost_blocks(p));
    }
    h
}

/// One shard: a bounded map keyed by `(cost fingerprint, state key)` with
/// a policy-ordered eviction ring.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<(u64, State), u64>,
    order: VecDeque<(u64, State)>,
}

/// An N-way sharded, `Mutex`-per-shard cost cache for concurrent solvers.
///
/// Keys are `(cost_fingerprint(view), state)`, so requests over the
/// same preference space share evaluations while different spaces never
/// collide. Shard choice hashes the full key; counters are atomics.
///
/// Sharing is *read-mostly*: a hit is one short lock on one shard; a miss
/// computes the cost outside any lock and then publishes it. Two workers
/// racing on the same miss may both compute it — costs are deterministic,
/// so the double insert is harmless (last write wins with an equal value).
#[derive(Debug)]
pub struct SharedCostCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    policy: EvictionPolicy,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Default shard count for [`SharedCostCache::new`].
pub const DEFAULT_SHARDS: usize = 16;

impl Default for SharedCostCache {
    fn default() -> Self {
        SharedCostCache::new(DEFAULT_SHARDS)
    }
}

impl SharedCostCache {
    /// An unbounded cache with `shards` shards (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        SharedCostCache::with_capacity(shards, usize::MAX)
    }

    /// A cache with `shards` shards holding at most `total_capacity`
    /// entries overall (split evenly; FIFO eviction per shard).
    pub fn with_capacity(shards: usize, total_capacity: usize) -> Self {
        SharedCostCache::with_capacity_policy(shards, total_capacity, EvictionPolicy::Fifo)
    }

    /// [`SharedCostCache::with_capacity`] with an explicit per-shard
    /// eviction policy. The serving path uses LRU so hot preference spaces
    /// stay resident across a request stream.
    pub fn with_capacity_policy(
        shards: usize,
        total_capacity: usize,
        policy: EvictionPolicy,
    ) -> Self {
        let shards = shards.max(1);
        SharedCostCache {
            capacity_per_shard: (total_capacity / shards).max(1),
            policy,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The eviction policy applied per shard.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    fn shard_of(&self, key: &(u64, State)) -> &Mutex<Shard> {
        let h = key.0 ^ key.1.digest();
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// The cost of `s` in `view`, shared across every worker holding this
    /// cache. `fingerprint` must be `cost_fingerprint(view)` (hoisted by
    /// the caller so the per-state path does not rehash the space).
    pub fn cost(&self, fingerprint: u64, view: &SpaceView<'_>, s: &State) -> u64 {
        let key = (fingerprint, *s);
        let shard = self.shard_of(&key);
        {
            let mut guard = shard.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(&c) = guard.map.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if self.policy == EvictionPolicy::Lru && self.capacity_per_shard < usize::MAX {
                    touch(&mut guard.order, key);
                }
                return c;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Compute outside the lock: evaluation is the expensive part.
        let c = view.state_cost(s);
        let mut guard = shard.lock().unwrap_or_else(|p| p.into_inner());
        if !guard.map.contains_key(&key) {
            if guard.map.len() >= self.capacity_per_shard {
                if let Some(victim) = guard.order.pop_front() {
                    guard.map.remove(&victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            guard.map.insert(key, c);
            guard.order.push_back(key);
        }
        c
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Cache hits so far (all shards).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far (all shards).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted so far (all shards).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).map.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A solver-side handle over either cache flavor, so the boundary search
/// is written once. `Local` owns a per-run [`CostCache`]; `Shared` borrows
/// a [`SharedCostCache`] plus the hoisted fingerprint.
#[derive(Debug)]
pub enum CacheHandle<'a> {
    /// A private per-run memo.
    Local(CostCache),
    /// A batch-wide shared memo (fingerprint, cache).
    Shared(u64, &'a SharedCostCache),
}

impl CacheHandle<'_> {
    /// A fresh private memo.
    pub fn local() -> Self {
        CacheHandle::Local(CostCache::new())
    }

    /// A handle onto `cache` for `view`'s cost function.
    pub fn shared<'a>(cache: &'a SharedCostCache, view: &SpaceView<'_>) -> CacheHandle<'a> {
        CacheHandle::Shared(cost_fingerprint(view), cache)
    }

    /// The (memoized) cost of `s` in `view`.
    pub fn cost(&mut self, view: &SpaceView<'_>, s: &State) -> u64 {
        match self {
            CacheHandle::Local(c) => c.cost(view, s),
            CacheHandle::Shared(fp, c) => c.cost(*fp, view, s),
        }
    }

    /// Bytes attributable to *this run* (shared residency is global, not
    /// charged to any single run's Figure 13 accounting).
    pub fn bytes(&self) -> usize {
        match self {
            CacheHandle::Local(c) => c.bytes(),
            CacheHandle::Shared(..) => 0,
        }
    }

    /// Folds hit/miss/eviction counts into `inst`. For a shared cache the
    /// global counters are not attributable per-run, so nothing is folded
    /// (the batch driver reports them separately).
    pub fn absorb_into(&self, inst: &mut crate::instrument::Instrument) {
        if let CacheHandle::Local(c) = self {
            inst.absorb_cache(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqp_prefs::{ConjModel, Doi};
    use cqp_prefspace::{PrefParams, PreferenceSpace};

    fn space() -> PreferenceSpace {
        PreferenceSpace::synthetic(
            vec![
                PrefParams {
                    doi: Doi::new(0.9),
                    cost_blocks: 10,
                    size_factor: 0.5,
                },
                PrefParams {
                    doi: Doi::new(0.5),
                    cost_blocks: 7,
                    size_factor: 0.5,
                },
            ],
            10.0,
            0,
        )
    }

    fn wide_space(k: usize) -> PreferenceSpace {
        PreferenceSpace::synthetic(
            (0..k)
                .map(|i| PrefParams {
                    doi: Doi::new(0.9 - 0.8 * (i as f64) / (k as f64)),
                    cost_blocks: (k - i) as u64,
                    size_factor: 0.5,
                })
                .collect(),
            10.0,
            0,
        )
    }

    #[test]
    fn caches_repeated_evaluations() {
        let s = space();
        let view = SpaceView::cost(&s, ConjModel::NoisyOr);
        let mut cache = CostCache::new();
        let st = State::from_indices(vec![0, 1]);
        let a = cache.cost(&view, &st);
        let b = cache.cost(&view, &st);
        assert_eq!(a, b);
        assert_eq!(a, view.state_cost(&st));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn distinct_states_evaluate_separately() {
        let s = space();
        let view = SpaceView::cost(&s, ConjModel::NoisyOr);
        let mut cache = CostCache::new();
        cache.cost(&view, &State::singleton(0));
        cache.cost(&view, &State::singleton(1));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn bounded_cache_evicts_fifo_and_counts_exactly() {
        let s = wide_space(4);
        let view = SpaceView::cost(&s, ConjModel::NoisyOr);
        let mut cache = CostCache::with_capacity(2);
        let states: Vec<State> = (0..4u16).map(State::singleton).collect();

        cache.cost(&view, &states[0]); // resident: [0]
        cache.cost(&view, &states[1]); // resident: [0, 1]
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (0, 2, 0));

        cache.cost(&view, &states[2]); // FIFO evicts 0 → [1, 2]
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (0, 3, 1));
        assert_eq!(cache.len(), 2);

        // 1 and 2 are resident — hits, no eviction.
        cache.cost(&view, &states[1]);
        cache.cost(&view, &states[2]);
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (2, 3, 1));

        // 0 was the FIFO victim — a miss, evicting 1 (oldest resident).
        cache.cost(&view, &states[0]);
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (2, 4, 2));
        cache.cost(&view, &states[1]);
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (2, 5, 3));

        // Costs stay correct throughout.
        for st in &states {
            assert_eq!(cache.cost(&view, st), view.state_cost(st));
        }
    }

    #[test]
    fn bounded_cache_evicts_lru_and_counts_exactly() {
        let s = wide_space(4);
        let view = SpaceView::cost(&s, ConjModel::NoisyOr);
        let mut cache = CostCache::with_capacity_policy(2, EvictionPolicy::Lru);
        assert_eq!(cache.policy(), EvictionPolicy::Lru);
        let states: Vec<State> = (0..4u16).map(State::singleton).collect();

        cache.cost(&view, &states[0]); // resident: [0]
        cache.cost(&view, &states[1]); // resident: [0, 1]
        cache.cost(&view, &states[0]); // hit — refreshes 0 → ring [1, 0]
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (1, 2, 0));

        // Under LRU the victim is 1 (least recently used), NOT 0 (oldest
        // inserted) — this is exactly where the two policies diverge.
        cache.cost(&view, &states[2]); // evicts 1 → [0, 2]
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (1, 3, 1));
        cache.cost(&view, &states[0]); // hit: 0 survived its FIFO slot
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (2, 3, 1));
        cache.cost(&view, &states[1]); // miss: 1 was evicted; evicts 2
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (2, 4, 2));
        assert_eq!(cache.len(), 2);

        // Costs stay correct throughout.
        for st in &states {
            assert_eq!(cache.cost(&view, st), view.state_cost(st));
        }
    }

    #[test]
    fn fifo_and_lru_policies_diverge_on_the_same_trace() {
        let s = wide_space(3);
        let view = SpaceView::cost(&s, ConjModel::NoisyOr);
        let trace: Vec<State> = [0u16, 1, 0, 2, 0]
            .iter()
            .map(|&i| State::singleton(i))
            .collect();
        let mut fifo = CostCache::with_capacity_policy(2, EvictionPolicy::Fifo);
        let mut lru = CostCache::with_capacity_policy(2, EvictionPolicy::Lru);
        for st in &trace {
            assert_eq!(fifo.cost(&view, st), lru.cost(&view, st));
        }
        // FIFO evicted 0 when 2 arrived → final lookup of 0 misses.
        assert_eq!((fifo.hits(), fifo.misses()), (1, 4));
        // LRU refreshed 0 on its hit → evicted 1 instead → final 0 hits.
        assert_eq!((lru.hits(), lru.misses()), (2, 3));
    }

    #[test]
    fn shared_cache_bounded_lru_keeps_hot_entries() {
        let s = wide_space(4);
        let view = SpaceView::cost(&s, ConjModel::NoisyOr);
        let fp = cost_fingerprint(&view);
        // One shard, two entries, LRU.
        let cache = SharedCostCache::with_capacity_policy(1, 2, EvictionPolicy::Lru);
        assert_eq!(cache.policy(), EvictionPolicy::Lru);
        let st: Vec<State> = (0..4u16).map(State::singleton).collect();
        cache.cost(fp, &view, &st[0]);
        cache.cost(fp, &view, &st[1]);
        cache.cost(fp, &view, &st[0]); // hit refreshes 0
        cache.cost(fp, &view, &st[2]); // evicts 1, not 0
        cache.cost(fp, &view, &st[0]); // still a hit
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (2, 3, 1));
        cache.cost(fp, &view, &st[1]); // 1 was the LRU victim → miss
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn shared_cache_hits_across_callers_same_space_only() {
        let s = space();
        let view = SpaceView::cost(&s, ConjModel::NoisyOr);
        let fp = cost_fingerprint(&view);
        let cache = SharedCostCache::new(4);
        let st = State::from_indices(vec![0, 1]);
        assert_eq!(cache.cost(fp, &view, &st), view.state_cost(&st));
        assert_eq!(cache.cost(fp, &view, &st), view.state_cost(&st));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // A different space: same state key, different fingerprint — no
        // cross-space pollution.
        let s2 = wide_space(2);
        let view2 = SpaceView::cost(&s2, ConjModel::NoisyOr);
        let fp2 = cost_fingerprint(&view2);
        assert_ne!(fp, fp2);
        assert_eq!(cache.cost(fp2, &view2, &st), view2.state_cost(&st));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn shared_cache_is_safe_and_correct_under_threads() {
        let s = wide_space(12);
        let view = SpaceView::cost(&s, ConjModel::NoisyOr);
        let fp = cost_fingerprint(&view);
        let cache = SharedCostCache::new(8);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = &cache;
                let view = &view;
                scope.spawn(move || {
                    for round in 0..3 {
                        for i in 0..12u16 {
                            let st = State::from_indices(vec![i, (i + 1) % 12]);
                            assert_eq!(cache.cost(fp, view, &st), view.state_cost(&st), "{round}");
                        }
                    }
                });
            }
        });
        // 12 distinct states; every extra lookup is a hit.
        assert_eq!(cache.hits() + cache.misses(), 4 * 3 * 12);
        assert!(cache.len() <= 12);
        assert!(cache.misses() >= 12);
    }

    #[test]
    fn shared_cache_bounded_eviction_counts() {
        let s = wide_space(8);
        let view = SpaceView::cost(&s, ConjModel::NoisyOr);
        let fp = cost_fingerprint(&view);
        let cache = SharedCostCache::with_capacity(1, 2);
        for i in 0..8u16 {
            cache.cost(fp, &view, &State::singleton(i));
        }
        assert_eq!(cache.misses(), 8);
        assert_eq!(cache.evictions(), 6);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_handle_unifies_both_flavors() {
        let s = space();
        let view = SpaceView::cost(&s, ConjModel::NoisyOr);
        let shared = SharedCostCache::default();
        let st = State::singleton(0);
        let mut local = CacheHandle::local();
        let mut remote = CacheHandle::shared(&shared, &view);
        assert_eq!(local.cost(&view, &st), remote.cost(&view, &st));
        assert!(local.bytes() > 0);
        assert_eq!(remote.bytes(), 0);
        let mut inst = crate::instrument::Instrument::new();
        local.absorb_into(&mut inst);
        remote.absorb_into(&mut inst);
        assert_eq!(inst.cache_misses, 1);
    }
}
