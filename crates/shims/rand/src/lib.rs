//! Offline stand-in for the `rand` crate (0.8-compatible surface).
//!
//! This workspace must build in environments with no registry access, so the
//! subset of `rand` it actually uses is reimplemented here behind the same
//! paths: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and the [`Rng`]
//! extension methods `gen`, `gen_range`, and `gen_bool`.
//!
//! The generator is xoshiro256++ seeded through splitmix64 — a different
//! stream than upstream `StdRng` (which is explicitly *not* guaranteed
//! stable across rand versions either), but with the same contract the
//! workspace relies on: high-quality, deterministic output for a given
//! `seed_from_u64` value.

use std::ops::{Range, RangeInclusive};

/// One step of the splitmix64 stream (Steele, Lea & Flood): advances
/// `state` by the golden-ratio increment and returns the finalized mix.
/// This is THE workspace splitmix64 — every seeded stream (load drivers,
/// fault plans, trace IDs, the test shims) derives from this function or
/// [`splitmix64_mix`], so deterministic fixtures stay bit-identical no
/// matter which crate drew them.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stateless form: one splitmix64 step over a copy of `x`. Callers
/// that just need a hash-quality scramble of an existing value (trace
/// IDs, ring points, fault-plan coin flips) use this directly;
/// it is bit-identical to `splitmix64(&mut x.clone())`.
pub fn splitmix64_mix(mut x: u64) -> u64 {
    splitmix64(&mut x)
}

/// Core source of randomness: a stream of `u64`s.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seeding support (only the `seed_from_u64` entry point is provided).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed, deterministically.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from the full value domain
/// (the `Standard` distribution of upstream `rand`).
pub trait StandardSample {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges a value can be drawn from uniformly (`gen_range` argument).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Rejection-free bounded integer sampling (Lemire's method would need
/// 128-bit widening everywhere; simple modulo bias is fine at the scales
/// this workspace draws — bounds are tiny next to 2^64).
fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    rng.next_u64() % span
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + bounded_u64(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + bounded_u64(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range on empty range");
        lo + f64::sample(rng) * (hi - lo)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + f32::sample(rng) * (self.end - self.start)
    }
}

/// The user-facing extension trait (auto-implemented for every [`RngCore`]).
pub trait Rng: RngCore {
    /// Draws a value of `T` from its full domain.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of [0,1]");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman & Vigna),
    /// seeded via [`splitmix64`] as its authors recommend.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(3..10);
            assert!((3..10).contains(&x));
            let y = rng.gen_range(0u64..=5);
            assert!(y <= 5);
            let f = rng.gen_range(0.25..=0.75);
            assert!((0.25..=0.75).contains(&f));
            let n: i64 = 1970 + rng.gen_range(0..35) as i64;
            assert!((1970..2005).contains(&n));
        }
    }

    #[test]
    fn floats_are_uniform_enough() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_p() {
        let mut rng = StdRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "hits {hits}");
    }
}
