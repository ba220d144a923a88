//! Vendored stand-in for `rand` (offline build).
//!
//! Implements the exact API subset the workspace uses — `rngs::StdRng`,
//! [`SeedableRng::seed_from_u64`], [`Rng::random_range`] over integer
//! `Range`s, and [`Rng::random`] for scalars — on top of a SplitMix64 core.
//! All workspace randomness is seeded and only statistical properties matter
//! (no test pins exact streams), so swapping the real crates-io `rand` back
//! in is a manifest-only change.

#![forbid(unsafe_code)]

use core::ops::Range;

/// Low-level uniform-`u64` source (subset of `rand_core::RngCore`).
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from a `u64` seed (subset of `rand_core::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator deterministically from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Scalars samplable uniformly from all bit patterns / the unit interval.
pub trait StandardSample: Sized {
    /// Draws one value from the standard distribution for the type.
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

/// Integer types uniformly samplable from a half-open range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Draws uniformly from `[range.start, range.end)` without modulo bias
    /// (Lemire's widening-multiply rejection method).
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<$t>) -> $t {
                assert!(
                    range.start < range.end,
                    "cannot sample from empty range {}..{}",
                    range.start,
                    range.end
                );
                let span = (range.end - range.start) as u64;
                let mut x = rng.next_u64();
                let mut m = (x as u128) * (span as u128);
                let mut lo = m as u64;
                if lo < span {
                    let threshold = span.wrapping_neg() % span;
                    while lo < threshold {
                        x = rng.next_u64();
                        m = (x as u128) * (span as u128);
                        lo = m as u64;
                    }
                }
                range.start + ((m >> 64) as u64) as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize);

/// High-level sampling methods (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a value from the type's standard distribution
    /// (all bit patterns for integers, `[0, 1)` for floats).
    fn random<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws uniformly from the half-open `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range)
    }

    /// Returns `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.random::<f64>() < p
    }
}

impl<R: RngCore> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: SplitMix64.
    ///
    /// Statistically solid for simulation workloads (passes BigCrush apart
    /// from linearity tests), one `u64` of state, and trivially seedable —
    /// a faithful stand-in for `rand::rngs::StdRng` where only seeded
    /// determinism and uniformity matter.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Pre-scramble so adjacent seeds do not yield shifted streams.
            let mut rng = StdRng {
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            };
            rng.next_u64();
            rng
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64)
            .filter(|_| a.random::<u64>() == b.random::<u64>())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn range_stays_in_bounds_and_covers() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = rng.random_range(0usize..10);
            seen[x] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues should appear: {seen:?}"
        );
        for _ in 0..1000 {
            let x = rng.random_range(5u32..7);
            assert!((5..7).contains(&x));
        }
    }

    #[test]
    fn unit_floats_in_range_and_spread() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut sum = 0.0;
        for _ in 0..4096 {
            let x = rng.random::<f64>();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 4096.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.random_range(5usize..5);
    }
}
