//! Offline, dependency-free subset of the `rand` 0.8 API.
//!
//! The build environment has no access to crates.io, so this shim provides
//! the (small) surface the workspace actually uses: [`rngs::StdRng`] with
//! [`SeedableRng`], the [`Rng`] extension methods (`gen`, `gen_range`,
//! `gen_bool`), [`seq::SliceRandom::shuffle`] and
//! [`distributions::Uniform`]. The generator is xoshiro256++ seeded via
//! SplitMix64 — high-quality, deterministic and stable across platforms.
//! It intentionally does NOT reproduce upstream `StdRng` (ChaCha12) streams;
//! all workspace experiments derive determinism from their own fixed seeds,
//! not from rand-crate version pinning.

use std::ops::Range;

/// Low-level generator interface (subset of `rand_core::RngCore`).
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// Seedable generators (subset of `rand_core::SeedableRng`).
pub trait SeedableRng: Sized {
    /// The seed type (fixed-size byte array).
    type Seed: AsMut<[u8]> + Default;

    /// Constructs from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Constructs from a `u64` convenience seed.
    fn from_seed_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64(state);
        let bytes = seed.as_mut();
        let mut i = 0;
        while i < bytes.len() {
            let v = sm.next().to_le_bytes();
            let n = (bytes.len() - i).min(8);
            bytes[i..i + n].copy_from_slice(&v[..n]);
            i += n;
        }
        Self::from_seed(seed)
    }

    /// Upstream-compatible name for [`SeedableRng::from_seed_u64`].
    fn seed_from_u64(state: u64) -> Self {
        Self::from_seed_u64(state)
    }
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// Sampling from a `Range<T>` (subset of `rand::distributions::uniform`).
pub trait SampleRange<T> {
    /// Draws one sample from the range.
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_float_range {
    ($t:ty, $gen:ident) => {
        impl SampleRange<$t> for Range<$t> {
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                self.start + (self.end - self.start) * $gen(rng)
            }
        }
    };
}

fn unit_f32<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
    // 24 mantissa bits → uniform in [0, 1).
    (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl_float_range!(f32, unit_f32);
impl_float_range!(f64, unit_f64);

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                // Lemire-style widening reduction; bias is < 2^-64 per draw.
                let hi = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + hi) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types drawable from the standard distribution via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one standard sample (`[0, 1)` for floats, full range for ints).
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f32(rng)
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// High-level convenience methods (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a standard sample of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draws uniformly from `range` (half-open).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_one(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (xoshiro256++).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        #[inline]
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

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                *word = u64::from_le_bytes(seed[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            }
            // All-zero state is a fixed point of xoshiro; nudge it.
            if s == [0, 0, 0, 0] {
                s = [
                    0x9e3779b97f4a7c15,
                    0x6a09e667f3bcc909,
                    0xbb67ae8584caa73b,
                    1,
                ];
            }
            StdRng { s }
        }
    }
}

pub mod seq {
    //! Slice utilities (subset of `rand::seq`).

    use super::{Rng, RngCore};

    /// Random slice operations.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` when empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

pub mod distributions {
    //! Distribution objects (subset of `rand::distributions`).

    use super::{RngCore, SampleRange};

    /// A sampleable distribution.
    pub trait Distribution<T> {
        /// Draws one sample.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Uniform distribution over `[lo, hi)`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Uniform<T> {
        lo: T,
        hi: T,
    }

    impl<T: Copy> Uniform<T> {
        /// Creates a uniform distribution over `[lo, hi)`.
        pub fn new(lo: T, hi: T) -> Self {
            Uniform { lo, hi }
        }
    }

    impl<T: Copy> Distribution<T> for Uniform<T>
    where
        std::ops::Range<T>: SampleRange<T>,
    {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
            (self.lo..self.hi).sample_one(rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let va: Vec<u64> = (0..16).map(|_| a.gen::<u64>()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.gen::<u64>()).collect();
        assert_eq!(va, vb);
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(va[0], c.gen::<u64>());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let f: f32 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = rng.gen_range(3..9);
            assert!((3..9).contains(&x));
            let f = rng.gen_range(-0.5f32..0.5);
            assert!((-0.5..0.5).contains(&f));
        }
    }

    #[test]
    fn gen_range_mean_is_central() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen_range(0.0f64..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the identity permutation");
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "{hits}");
    }

    #[test]
    fn works_through_mut_ref() {
        fn takes_rng<R: super::Rng + ?Sized>(rng: &mut R) -> f32 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(6);
        let v = takes_rng(&mut rng);
        assert!((0.0..1.0).contains(&v));
    }
}
