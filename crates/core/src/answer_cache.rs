//! Cross-request answer/incumbent cache — incremental personalization.
//!
//! Every `/personalize` request used to run the full pipeline (preference
//! space → search → construction) even though profiles change rarely and
//! the paper's transitions have *known* monotone effects on doi, cost, and
//! size (Formulas 4, 7, 8). A solved `(query template, profile version,
//! problem variant, constraint values)` instance therefore bounds nearby
//! instances, in the spirit of Chomicki's semantic optimization of
//! preference queries. This module caches solved instances and classifies
//! each lookup into one of three tiers, or a miss:
//!
//! * **exact** — identical key: the stored [`PersonalizationOutcome`]
//!   (solution, constructed query and SQL) is returned with zero search
//!   work, bit-identical to a cold solve because it *is* the cold solve's
//!   output;
//! * **warm** — same template/profile/config, different constraint values:
//!   the cached preference space is reused (extraction skipped) and, for
//!   branch-and-bound, a cached solution that is still feasible under the
//!   new constraints seeds a *strict pruning bound*
//!   ([`crate::algorithms::branch_bound::solve_bounded_warm`]). The answer
//!   never changes — only the states visited;
//! * **repair** — the profile version moved: nothing cached is reusable,
//!   so the request runs the cold pipeline (a fresh Figure 3 extraction,
//!   then a fresh search) and its result replaces the family. The tier is
//!   counted apart from misses because it measures how often profile
//!   writes cost a cached family.
//!
//! Staleness safety is structural: the profile version is part of the
//! lookup, so an entry recorded under version `v` can never satisfy an
//! exact or warm lookup at version `v' > v`. Session-store writes
//! additionally push invalidations ([`AnswerCache::invalidate_profile`])
//! so stale variants are dropped eagerly and the entries gauge stays
//! honest. Degraded (budget-tripped) solutions are never inserted — a
//! cache must only ever serve full-fidelity optima.

use crate::algorithms::Algorithm;
use crate::params::QueryParams;
use crate::problem::{Objective, ProblemSpec};
use crate::solver::{PersonalizationOutcome, SolverConfig};
use cqp_prefspace::PreferenceSpace;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shard count of the cache (FNV of the family key picks the shard).
pub const DEFAULT_SHARDS: usize = 16;

/// Default bound on cached families (template × profile × config keys).
pub const DEFAULT_FAMILY_CAPACITY: usize = 4096;

/// FNV-1a over `bytes`, continuing from `seed` (use [`FNV_OFFSET`] to
/// start a fresh hash). Chaining calls hashes the concatenation.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Separator between a profile key's base identity and an optional scope
/// qualifier. The serving tier keys families as `user` or
/// `user␁k<top_k>` — the personalization depth truncates the profile, so
/// it must be part of the family identity — while a session write for
/// `user` must drop *every* scope. [`AnswerCache::invalidate_profile`]
/// therefore matches on the base segment before this separator.
pub const PROFILE_SCOPE_SEP: char = '\u{1}';

/// The base identity of a (possibly scoped) profile key.
fn profile_base(profile_key: &str) -> &str {
    profile_key
        .split(PROFILE_SCOPE_SEP)
        .next()
        .unwrap_or(profile_key)
}

/// Everything that identifies a *family* of cacheable instances: one
/// canonicalized query template for one profile under one solver
/// configuration. Families share a preference space (extraction does not
/// depend on the problem's constraint values); the constraint values key
/// the variants *within* a family.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FamilyKey {
    /// Hash of the canonicalized SQL template (plus, at the serving tier,
    /// the parsed query as a semantic backstop).
    pub template_hash: u64,
    /// Identity of the profile (the user id at the serving tier).
    pub profile_key: String,
    /// The search algorithm — part of the key because it decides which
    /// rank vectors extraction builds.
    pub algorithm: Algorithm,
    /// Fingerprint of the rest of the solver configuration
    /// ([`config_fingerprint`]).
    pub config_hash: u64,
}

impl FamilyKey {
    /// Builds the family key for one request.
    pub fn new(template_hash: u64, profile_key: &str, config: &SolverConfig) -> Self {
        FamilyKey {
            template_hash,
            profile_key: profile_key.to_owned(),
            algorithm: config.algorithm,
            config_hash: config_fingerprint(config),
        }
    }

    fn shard_hash(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, &self.template_hash.to_le_bytes());
        h = fnv1a(h, self.profile_key.as_bytes());
        fnv1a(h, &self.config_hash.to_le_bytes())
    }
}

/// Hashes the answer-relevant parts of a [`SolverConfig`]: the conjunction
/// model and the extraction parameters. Parallelism and budget are
/// deliberately excluded — neither changes the answer (partitioned search
/// is bit-identical to sequential, and budget-degraded answers are never
/// cached).
pub fn config_fingerprint(config: &SolverConfig) -> u64 {
    fnv1a(
        FNV_OFFSET,
        format!("{:?}|{:?}", config.conj, config.extract).as_bytes(),
    )
}

/// The constraint values of one problem variant, bit-exact. `u64::MAX`
/// marks an absent optional bound (no finite `f64` and no valid block
/// count collides with it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VariantKey {
    objective: u8,
    cost_max_blocks: u64,
    doi_min_bits: u64,
    size_min_bits: u64,
    size_max_bits: u64,
}

impl VariantKey {
    /// The variant key of a problem spec.
    pub fn of(problem: &ProblemSpec) -> Self {
        let c = &problem.constraints;
        VariantKey {
            objective: match problem.objective {
                Objective::MaxDoi => 0,
                Objective::MinCost => 1,
            },
            cost_max_blocks: c.cost_max_blocks.unwrap_or(u64::MAX),
            doi_min_bits: c.doi_min.map_or(u64::MAX, |d| d.value().to_bits()),
            size_min_bits: c.size_min.to_bits(),
            size_max_bits: c.size_max.map_or(u64::MAX, f64::to_bits),
        }
    }

    fn objective(&self) -> Objective {
        if self.objective == 0 {
            Objective::MaxDoi
        } else {
            Objective::MinCost
        }
    }
}

#[derive(Debug)]
struct Family {
    version: u64,
    space: PreferenceSpace,
    variants: HashMap<VariantKey, PersonalizationOutcome>,
    last_used: u64,
}

/// The outcome of a cache lookup, one per reuse tier.
#[derive(Debug)]
pub enum Lookup {
    /// Identical key: serve the stored answer, zero search work.
    Exact(PersonalizationOutcome),
    /// Same family and version, new constraint values: reuse the space;
    /// `seed` (when present) is a cached solution proven feasible under
    /// the new constraints, usable as a branch-and-bound pruning bound.
    Warm {
        /// The cached preference space (extraction can be skipped).
        space: PreferenceSpace,
        /// Strongest feasible warm-start bound among cached variants.
        seed: Option<QueryParams>,
    },
    /// The profile moved past the cached version: nothing cached is
    /// reusable, so the request runs the cold pipeline and its result
    /// replaces the family.
    Repair {
        /// The version the cached family was built at.
        old_version: u64,
    },
    /// Nothing cached for this family.
    Miss,
}

impl Lookup {
    /// The wire/metrics label of this tier.
    pub fn tier(&self) -> &'static str {
        match self {
            Lookup::Exact(_) => "exact",
            Lookup::Warm { .. } => "warm",
            Lookup::Repair { .. } => "repair",
            Lookup::Miss => "miss",
        }
    }
}

/// Monotonic counter snapshot of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Exact-tier hits (stored answer served, zero search).
    pub hits_exact: u64,
    /// Warm-tier hits (space reused; branch-and-bound also seeded).
    pub hits_warm: u64,
    /// Repair-tier lookups (family cached at an older profile version;
    /// served cold).
    pub hits_repair: u64,
    /// Lookups that found nothing reusable.
    pub misses: u64,
    /// Variants dropped by session-write invalidation.
    pub invalidations: u64,
}

/// The sharded cross-request answer cache. See the module docs for the
/// tier semantics and the staleness argument.
#[derive(Debug)]
pub struct AnswerCache {
    shards: Vec<Mutex<HashMap<FamilyKey, Family>>>,
    families_per_shard: usize,
    touch: AtomicU64,
    hits_exact: AtomicU64,
    hits_warm: AtomicU64,
    hits_repair: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for AnswerCache {
    fn default() -> Self {
        Self::new()
    }
}

impl AnswerCache {
    /// A cache bounded at [`DEFAULT_FAMILY_CAPACITY`] families.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_FAMILY_CAPACITY)
    }

    /// A cache bounded at `family_capacity` families total (least-recently
    /// used families are evicted per shard once the bound is exceeded).
    pub fn with_capacity(family_capacity: usize) -> Self {
        let per_shard = family_capacity.div_ceil(DEFAULT_SHARDS).max(1);
        AnswerCache {
            shards: (0..DEFAULT_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            families_per_shard: per_shard,
            touch: AtomicU64::new(0),
            hits_exact: AtomicU64::new(0),
            hits_warm: AtomicU64::new(0),
            hits_repair: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &FamilyKey) -> &Mutex<HashMap<FamilyKey, Family>> {
        &self.shards[(key.shard_hash() as usize) % self.shards.len()]
    }

    /// Classifies one request against the cache and bumps the matching
    /// tier counter. `problem` supplies the new constraint values used to
    /// vet warm-start seeds for feasibility.
    pub fn lookup(
        &self,
        key: &FamilyKey,
        version: u64,
        variant: &VariantKey,
        problem: &ProblemSpec,
    ) -> Lookup {
        let stamp = self.touch.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self.shard(key).lock().unwrap_or_else(|p| p.into_inner());
        let outcome = match shard.get_mut(key) {
            Some(family) if family.version == version => {
                family.last_used = stamp;
                if let Some(hit) = family.variants.get(variant) {
                    Lookup::Exact(hit.clone())
                } else {
                    Lookup::Warm {
                        space: family.space.clone(),
                        seed: best_seed(family, variant, problem),
                    }
                }
            }
            Some(family) if family.version < version => {
                family.last_used = stamp;
                Lookup::Repair {
                    old_version: family.version,
                }
            }
            // A *newer* family than the requested version means the caller
            // raced a concurrent write and read the store first; serving
            // from the newer entry would not match what it asked for.
            _ => Lookup::Miss,
        };
        drop(shard);
        match &outcome {
            Lookup::Exact(_) => self.hits_exact.fetch_add(1, Ordering::Relaxed),
            Lookup::Warm { .. } => self.hits_warm.fetch_add(1, Ordering::Relaxed),
            Lookup::Repair { .. } => self.hits_repair.fetch_add(1, Ordering::Relaxed),
            Lookup::Miss => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        outcome
    }

    /// Records a solved instance. Never inserts degraded solutions, never
    /// lets an older profile version clobber a newer family, and replaces
    /// the whole family (space included) when the version advances.
    pub fn insert(
        &self,
        key: &FamilyKey,
        version: u64,
        variant: VariantKey,
        space: &PreferenceSpace,
        answer: PersonalizationOutcome,
    ) {
        if answer.solution.degraded.is_some() {
            return;
        }
        let stamp = self.touch.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self.shard(key).lock().unwrap_or_else(|p| p.into_inner());
        match shard.get_mut(key) {
            Some(family) if family.version > version => {}
            Some(family) if family.version == version => {
                family.variants.insert(variant, answer);
                family.last_used = stamp;
            }
            _ => {
                let mut variants = HashMap::new();
                variants.insert(variant, answer);
                shard.insert(
                    key.clone(),
                    Family {
                        version,
                        space: space.clone(),
                        variants,
                        last_used: stamp,
                    },
                );
                if shard.len() > self.families_per_shard {
                    if let Some(oldest) = shard
                        .iter()
                        .min_by_key(|(_, f)| f.last_used)
                        .map(|(k, _)| k.clone())
                    {
                        shard.remove(&oldest);
                    }
                }
            }
        }
    }

    /// Session-write invalidation: drops every variant cached for
    /// `profile_key` at a version older than `new_version`. Scoped keys
    /// (`base␁scope`, see [`PROFILE_SCOPE_SEP`]) match on their base, so
    /// one write drops every personalization depth of the profile. The
    /// families stay, so the next request for one reports the repair tier
    /// rather than a miss. Version keying already guarantees stale
    /// variants can never satisfy a lookup; this keeps memory and the
    /// entries gauge honest.
    pub fn invalidate_profile(&self, profile_key: &str, new_version: u64) {
        let base = profile_base(profile_key);
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(|p| p.into_inner());
            for (key, family) in shard.iter_mut() {
                if profile_base(&key.profile_key) == base && family.version < new_version {
                    dropped += family.variants.len() as u64;
                    family.variants.clear();
                }
            }
        }
        if dropped > 0 {
            self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Snapshot of the tier counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits_exact: self.hits_exact.load(Ordering::Relaxed),
            hits_warm: self.hits_warm.load(Ordering::Relaxed),
            hits_repair: self.hits_repair.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Cached variants across all families (the entries gauge).
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .values()
                    .map(|f| f.variants.len())
                    .sum::<usize>()
            })
            .sum()
    }
}

/// The strongest warm-start bound available for `problem`: among cached
/// variants with the same objective whose solutions are found, non-empty,
/// and *feasible under the new constraints*, the one the problem's own
/// `better` ordering prefers. Feasibility is what makes the strict prune
/// sound — an infeasible seed could bound the optimum from the wrong side.
fn best_seed(family: &Family, variant: &VariantKey, problem: &ProblemSpec) -> Option<QueryParams> {
    let mut best: Option<QueryParams> = None;
    for (vk, ans) in &family.variants {
        if vk.objective() != variant.objective() || !ans.solution.found {
            continue;
        }
        if ans.solution.prefs.is_empty() {
            continue;
        }
        let params = QueryParams {
            doi: ans.solution.doi,
            cost_blocks: ans.solution.cost_blocks,
            size_rows: ans.solution.size_rows,
        };
        if !problem.feasible(&params) {
            continue;
        }
        let replace = match &best {
            None => true,
            Some(b) => problem.better(&params, b),
        };
        if replace {
            best = Some(params);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::branch_bound;
    use cqp_prefs::{ConjModel, Doi};
    use cqp_prefspace::PrefParams;

    fn space() -> PreferenceSpace {
        PreferenceSpace::synthetic(
            vec![
                PrefParams {
                    doi: Doi::new(0.9),
                    cost_blocks: 120,
                    size_factor: 0.5,
                },
                PrefParams {
                    doi: Doi::new(0.8),
                    cost_blocks: 80,
                    size_factor: 0.5,
                },
                PrefParams {
                    doi: Doi::new(0.7),
                    cost_blocks: 60,
                    size_factor: 0.5,
                },
            ],
            1000.0,
            0,
        )
    }

    fn answer_for(problem: &ProblemSpec, sp: &PreferenceSpace) -> PersonalizationOutcome {
        let solution = branch_bound::solve(sp, ConjModel::NoisyOr, problem);
        let base = cqp_engine::ConjunctiveQuery::scan(cqp_storage::RelationId(0), Vec::new());
        let pq = crate::construct::construct(&base, sp, &[]).expect("empty construction");
        PersonalizationOutcome {
            pref_dois: solution.prefs.iter().map(|&i| sp.doi(i).value()).collect(),
            space_k: sp.k(),
            solution,
            query: pq,
            sql: "select 1".into(),
        }
    }

    fn key(config: &SolverConfig) -> FamilyKey {
        FamilyKey::new(42, "user1", config)
    }

    #[test]
    fn exact_warm_repair_miss_tiers() {
        let cache = AnswerCache::new();
        let sp = space();
        let config = SolverConfig {
            algorithm: Algorithm::BranchBound,
            ..Default::default()
        };
        let k = key(&config);
        let p_200 = ProblemSpec::p2(200);
        let v_200 = VariantKey::of(&p_200);

        // Cold cache: miss.
        assert!(matches!(cache.lookup(&k, 1, &v_200, &p_200), Lookup::Miss));
        cache.insert(&k, 1, v_200, &sp, answer_for(&p_200, &sp));
        assert_eq!(cache.entries(), 1);

        // Same key, same version: exact.
        match cache.lookup(&k, 1, &v_200, &p_200) {
            Lookup::Exact(hit) => assert!(hit.solution.cost_blocks <= 200),
            other => panic!("expected exact, got {other:?}"),
        }

        // Same version, moved budget: warm with a feasible seed (the
        // cached cost-200 answer fits the 260 budget).
        let p_260 = ProblemSpec::p2(260);
        match cache.lookup(&k, 1, &VariantKey::of(&p_260), &p_260) {
            Lookup::Warm { space, seed } => {
                assert_eq!(space.k(), sp.k());
                assert!(seed.expect("seed").cost_blocks <= 200);
            }
            other => panic!("expected warm, got {other:?}"),
        }

        // A tighter budget the cached answer busts: warm, but no seed.
        let p_50 = ProblemSpec::p2(50);
        match cache.lookup(&k, 1, &VariantKey::of(&p_50), &p_50) {
            Lookup::Warm { seed, .. } => assert!(seed.is_none()),
            other => panic!("expected warm, got {other:?}"),
        }

        // Version moved: repair, naming the cached version.
        match cache.lookup(&k, 2, &v_200, &p_200) {
            Lookup::Repair { old_version } => assert_eq!(old_version, 1),
            other => panic!("expected repair, got {other:?}"),
        }

        let c = cache.counters();
        assert_eq!(c.hits_exact, 1);
        assert_eq!(c.hits_warm, 2);
        assert_eq!(c.hits_repair, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn invalidation_drops_variants_and_next_lookup_repairs() {
        let cache = AnswerCache::new();
        let sp = space();
        let config = SolverConfig {
            algorithm: Algorithm::BranchBound,
            ..Default::default()
        };
        let k = key(&config);
        let p = ProblemSpec::p2(200);
        cache.insert(&k, 1, VariantKey::of(&p), &sp, answer_for(&p, &sp));
        assert_eq!(cache.entries(), 1);

        cache.invalidate_profile("user1", 2);
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.counters().invalidations, 1);
        // The family survives at the old version, so the next request
        // reports the repair tier.
        assert!(matches!(
            cache.lookup(&k, 2, &VariantKey::of(&p), &p),
            Lookup::Repair { old_version: 1 }
        ));
        // Other profiles are untouched.
        cache.invalidate_profile("someone-else", 99);
        assert_eq!(cache.counters().invalidations, 1);
    }

    #[test]
    fn invalidation_matches_every_scope_of_a_profile() {
        let cache = AnswerCache::new();
        let sp = space();
        let config = SolverConfig {
            algorithm: Algorithm::BranchBound,
            ..Default::default()
        };
        let p = ProblemSpec::p2(200);
        let v = VariantKey::of(&p);
        // The same user cached at full depth and at top_k = 3.
        let full = FamilyKey::new(42, "user1", &config);
        let scoped = FamilyKey::new(42, &format!("user1{PROFILE_SCOPE_SEP}k3"), &config);
        cache.insert(&full, 1, v, &sp, answer_for(&p, &sp));
        cache.insert(&scoped, 1, v, &sp, answer_for(&p, &sp));
        assert_eq!(cache.entries(), 2);
        // A write to user1 drops both; "user10" is a different base.
        let other = FamilyKey::new(42, "user10", &config);
        cache.insert(&other, 1, v, &sp, answer_for(&p, &sp));
        cache.invalidate_profile("user1", 2);
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.counters().invalidations, 2);
    }

    #[test]
    fn newer_family_never_clobbered_and_stale_insert_ignored() {
        let cache = AnswerCache::new();
        let sp = space();
        let config = SolverConfig {
            algorithm: Algorithm::BranchBound,
            ..Default::default()
        };
        let k = key(&config);
        let p = ProblemSpec::p2(200);
        let v = VariantKey::of(&p);
        cache.insert(&k, 5, v, &sp, answer_for(&p, &sp));
        // A racing slow request finishing late at version 3 must not win.
        cache.insert(&k, 3, v, &sp, answer_for(&p, &sp));
        assert!(matches!(cache.lookup(&k, 5, &v, &p), Lookup::Exact(_)));
        // And a lookup at the stale version must not serve version 5's
        // answer as exact.
        assert!(matches!(cache.lookup(&k, 3, &v, &p), Lookup::Miss));
    }

    #[test]
    fn degraded_solutions_are_never_cached() {
        let cache = AnswerCache::new();
        let sp = space();
        let config = SolverConfig {
            algorithm: Algorithm::BranchBound,
            ..Default::default()
        };
        let k = key(&config);
        let p = ProblemSpec::p2(200);
        let mut ans = answer_for(&p, &sp);
        ans.solution.degraded = Some(crate::budget::DegradedInfo {
            reason: crate::budget::DegradeReason::DeadlineExceeded,
            states_visited: 1,
            elapsed: std::time::Duration::ZERO,
        });
        cache.insert(&k, 1, VariantKey::of(&p), &sp, ans);
        assert_eq!(cache.entries(), 0);
    }

    #[test]
    fn capacity_evicts_least_recently_used_family() {
        let cache = AnswerCache::with_capacity(DEFAULT_SHARDS); // 1 per shard
        let sp = space();
        let config = SolverConfig {
            algorithm: Algorithm::BranchBound,
            ..Default::default()
        };
        let p = ProblemSpec::p2(200);
        let v = VariantKey::of(&p);
        // Far more families than capacity: the cache must stay bounded.
        // Each family holds one variant, so entries count families.
        for i in 0..200 {
            let k = FamilyKey::new(i, "user1", &config);
            cache.insert(&k, 1, v, &sp, answer_for(&p, &sp));
        }
        assert!(cache.entries() <= DEFAULT_SHARDS);
    }

    #[test]
    fn variant_key_distinguishes_constraints_bit_exactly() {
        assert_ne!(
            VariantKey::of(&ProblemSpec::p2(200)),
            VariantKey::of(&ProblemSpec::p2(201))
        );
        assert_ne!(
            VariantKey::of(&ProblemSpec::p4(Doi::new(0.9))),
            VariantKey::of(&ProblemSpec::p4(Doi::new(0.90000000001)))
        );
        assert_eq!(
            VariantKey::of(&ProblemSpec::p2(200)),
            VariantKey::of(&ProblemSpec::p2(200))
        );
        // Different problems over the same bound stay distinct.
        assert_ne!(
            VariantKey::of(&ProblemSpec::p1(50.0, 600.0)),
            VariantKey::of(&ProblemSpec::p6(50.0, 600.0))
        );
    }
}
