//! Metrics registry: named counters, gauges, and log-linear histograms.
//!
//! All mutation goes through `&self` (interior mutability) so a registry can
//! be shared by reference across solver, engine, and storage within one
//! query — and, since the registry is `Sync`, across the workers of a
//! parallel batch. Counters and gauges are lock-free atomics once created
//! (a `RwLock` guards only map growth); histograms sit behind one `Mutex`.
//! Every lock recovers from poisoning, as the span capture's does: a guard
//! only inserts a name or bumps one histogram, so a panic elsewhere under
//! it leaves valid data, and it must not turn every later metric write on
//! the serving path into a panic too.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

/// Number of linear sub-buckets per power-of-two magnitude group.
const SUB_BUCKETS: u64 = 4;

/// A log-linear histogram over `u64` observations.
///
/// Values are grouped by floor-log2 magnitude, each magnitude split into
/// [`SUB_BUCKETS`] linear sub-buckets, giving a worst-case relative bucket
/// width of 25% with a handful of buckets per decade. Zero gets a dedicated
/// bucket. Exact `count`/`sum`/`min`/`max` are tracked alongside.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index for a value: 0 for 0, else `1 + 4*floor(log2 v) + sub`.
fn bucket_index(v: u64) -> u32 {
    if v == 0 {
        return 0;
    }
    let mag = 63 - v.leading_zeros();
    // Position of v within [2^mag, 2^(mag+1)), scaled to SUB_BUCKETS slots.
    // (v << 2) >> mag maps the magnitude group onto [4, 8); subtracting 4
    // yields the sub-bucket. For mag > 61 shift the value down instead to
    // avoid overflow.
    let sub = if mag <= 61 {
        ((v << 2) >> mag) - SUB_BUCKETS
    } else {
        (v >> (mag - 2)) & 0b11
    };
    1 + mag * SUB_BUCKETS as u32 + sub as u32
}

/// Inclusive lower bound of a bucket, for rendering: the smallest value
/// whose scaled position within the magnitude group reaches `sub`, i.e.
/// `ceil(base * (1 + sub/4))`.
fn bucket_floor(index: u32) -> u64 {
    if index == 0 {
        return 0;
    }
    let mag = (index - 1) / SUB_BUCKETS as u32;
    let sub = ((index - 1) % SUB_BUCKETS as u32) as u128;
    let base = 1u64 << mag;
    base + (base as u128 * sub).div_ceil(SUB_BUCKETS as u128) as u64
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Occupied buckets as `(inclusive lower bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .map(|(&i, &c)| (bucket_floor(i), c))
            .collect()
    }

    /// Estimated `q`-quantile (`0.0 ≤ q ≤ 1.0`) from the bucket counts.
    ///
    /// The target rank's observations are assumed uniformly spread across
    /// the holding bucket's value range, so the estimate interpolates
    /// linearly within the bucket (midpoint convention: the k-th of c
    /// observations sits at `(k - 0.5) / c` of the bucket width) instead of
    /// reporting a bucket edge. The extreme ranks are exact: rank 1 returns
    /// `min`, rank `count` returns `max` — in particular `p99` of a small
    /// sample can no longer over-report past the largest observation.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based: ceil(q * count).
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return self.max;
        }
        if rank == 1 {
            return self.min;
        }
        let mut seen = 0u64;
        for (&i, &c) in &self.buckets {
            if seen + c >= rank {
                // Bucket value range, tightened to the observed extrema.
                let lo = bucket_floor(i).clamp(self.min, self.max);
                let hi = bucket_floor(i + 1)
                    .saturating_sub(1)
                    .clamp(self.min, self.max);
                if hi <= lo {
                    return lo;
                }
                let into = (rank - seen) as f64 - 0.5;
                let frac = (into / c as f64).clamp(0.0, 1.0);
                return lo + ((hi - lo) as f64 * frac).round() as u64;
            }
            seen += c;
        }
        self.max
    }

    /// Cumulative bucket counts as `(inclusive upper bound, cumulative)`
    /// pairs, ascending — the shape Prometheus `le` bucket rendering needs.
    /// The final implicit `+Inf` bucket is `count()`, not included here.
    pub fn le_buckets(&self) -> Vec<(u64, u64)> {
        let mut cumulative = 0u64;
        self.buckets
            .iter()
            .map(|(&i, &c)| {
                cumulative += c;
                (bucket_floor(i + 1).saturating_sub(1), cumulative)
            })
            .collect()
    }

    /// Condensed view for snapshots and reports.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }
}

/// Exact aggregate view of a [`Histogram`] at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
}

impl HistogramSummary {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Named counters, gauges, and histograms behind `&self`.
///
/// Metric names are `&'static str` dotted paths by convention
/// (`"storage.blocks_read"`, `"solver.states_examined"`); keeping them
/// static makes recording allocation-free on the counter path. The registry
/// is `Sync`: counter/gauge updates are atomic `fetch_add`/`store` under a
/// read lock (the write lock is taken only the first time a name appears),
/// so workers of a parallel batch can share one registry.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<&'static str, AtomicU64>>,
    // Gauges store the f64 bit pattern so they can share the atomic path.
    gauges: RwLock<BTreeMap<&'static str, AtomicU64>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        {
            let map = self.counters.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(c) = map.get(name) {
                c.fetch_add(delta, Ordering::Relaxed);
                return;
            }
        }
        self.counters
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name)
            .or_insert_with(|| AtomicU64::new(0))
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        let bits = value.to_bits();
        {
            let map = self.gauges.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(g) = map.get(name) {
                g.store(bits, Ordering::Relaxed);
                return;
            }
        }
        self.gauges
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name)
            .or_insert_with(|| AtomicU64::new(bits))
            .store(bits, Ordering::Relaxed);
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map(|g| f64::from_bits(g.load(Ordering::Relaxed)))
    }

    /// Records `value` into the named histogram.
    pub fn observe(&self, name: &'static str, value: u64) {
        self.histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name)
            .or_default()
            .observe(value);
    }

    /// Occupied buckets of a histogram (empty vec if absent).
    pub fn histogram_buckets(&self, name: &str) -> Vec<(u64, u64)> {
        self.histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map(|h| h.nonzero_buckets())
            .unwrap_or_default()
    }

    /// A point-in-time copy of the named histogram, if ever observed.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(&k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: self
                .gauges
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(&k, v)| (k.to_string(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(&k, h)| (k.to_string(), h.summary()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_zero_has_own_bucket() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        let mut last = 0;
        for v in 1..4096u64 {
            let b = bucket_index(v);
            assert!(b >= last, "bucket regressed at v={v}");
            last = b;
        }
        // Values in the same magnitude/quarter share a bucket.
        assert_eq!(bucket_index(64), bucket_index(79));
        assert_ne!(bucket_index(64), bucket_index(80));
    }

    #[test]
    fn bucket_floor_inverts_index_lower_bound() {
        for v in [0u64, 1, 2, 3, 5, 8, 13, 100, 1023, 1024, 1_000_000] {
            let b = bucket_index(v);
            let floor = bucket_floor(b);
            assert!(floor <= v, "floor {floor} > v {v}");
            // The next bucket's floor must be above v.
            if b < u32::MAX {
                assert!(bucket_floor(b + 1) > v, "v {v} not below next floor");
            }
        }
    }

    #[test]
    fn bucket_index_handles_huge_values() {
        assert!(bucket_index(u64::MAX) > bucket_index(u64::MAX / 2));
        assert!(bucket_index(1u64 << 62) < bucket_index(u64::MAX));
    }

    #[test]
    fn histogram_tracks_aggregates() {
        let mut h = Histogram::default();
        for v in [3u64, 9, 27, 81, 0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 120);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 81);
        assert!((h.mean() - 24.0).abs() < 1e-9);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), 5);
    }

    #[test]
    fn quantiles_are_exact_on_a_known_uniform_distribution() {
        // 1..=1000 is uniform, so within-bucket interpolation recovers the
        // true rank values exactly: the k-th observation in a bucket sits at
        // (k - 0.5)/c of the bucket width and rounding lands on the integer.
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.5), 500);
        assert_eq!(h.quantile(0.95), 950);
        assert_eq!(h.quantile(0.99), 990);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(Histogram::default().quantile(0.5), 0);
    }

    #[test]
    fn small_sample_p99_is_not_biased_to_the_bucket_edge() {
        // Four observations: p99 targets rank 4, which IS the max — the old
        // floor-of-bucket estimate returned 896 (the lower edge of 1000's
        // bucket); the fix returns the observation itself.
        let mut h = Histogram::default();
        for v in [1u64, 1, 1, 1000] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(0.5), 1);
        // A single observation reports itself at every quantile.
        let mut one = Histogram::default();
        one.observe(777);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 777, "q={q}");
        }
    }

    #[test]
    fn quantiles_stay_within_observed_range() {
        let mut h = Histogram::default();
        for v in [3u64, 90, 91, 92, 93, 94, 2000] {
            h.observe(v);
        }
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.quantile(q);
            assert!((3..=2000).contains(&v), "q={q} v={v}");
        }
        // Monotone in q.
        let mut last = 0;
        for i in 0..=100 {
            let v = h.quantile(i as f64 / 100.0);
            assert!(v >= last, "quantile regressed at q={}", i as f64 / 100.0);
            last = v;
        }
    }

    #[test]
    fn le_buckets_are_cumulative_and_cover_count() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 70, 70, 1000] {
            h.observe(v);
        }
        let le = h.le_buckets();
        let mut last_le = 0;
        let mut last_cum = 0;
        for &(le_bound, cum) in &le {
            assert!(le_bound >= last_le);
            assert!(cum > last_cum);
            last_le = le_bound;
            last_cum = cum;
        }
        assert_eq!(le.last().map(|&(_, c)| c), Some(h.count()));
        // Every observation is ≤ the final bucket's upper bound.
        assert!(le.last().map(|&(b, _)| b).unwrap_or(0) >= h.max());
    }

    #[test]
    fn registry_is_sync_across_threads() {
        let r = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        r.add("t.count", 1);
                        r.observe("t.hist", 8);
                    }
                    r.set_gauge("t.gauge", 2.5);
                });
            }
        });
        assert_eq!(r.counter("t.count"), 4000);
        assert_eq!(r.gauge("t.gauge"), Some(2.5));
        assert_eq!(r.histogram("t.hist").unwrap().count(), 4000);
    }

    #[test]
    fn registry_counters_and_gauges() {
        let r = Registry::new();
        r.add("a.x", 2);
        r.add("a.x", 3);
        r.set_gauge("g", 1.5);
        r.set_gauge("g", 2.5);
        assert_eq!(r.counter("a.x"), 5);
        assert_eq!(r.counter("a.y"), 0);
        assert_eq!(r.gauge("g"), Some(2.5));
    }
}
