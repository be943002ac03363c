//! A minimal, dependency-free stand-in for the `rand` crate.
//!
//! The workspace builds in hermetic environments with no access to a crates
//! registry, so the small slice of the `rand 0.8` API the CHEHAB
//! reproduction uses is vendored here: the [`RngCore`] / [`Rng`] /
//! [`SeedableRng`] traits, [`rngs::StdRng`] (xoshiro256++ under the hood),
//! the bulk draw [`Rng::fill`] over `[u64]`, uniform range sampling for the
//! integer and float types the workspace samples, and
//! [`seq::SliceRandom::shuffle`].
//!
//! The streams produced are *not* those of the upstream crate; everything in
//! the workspace only relies on seeded determinism, not on specific values.

#![forbid(unsafe_code)]

/// Low-level uniform bit generation.
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Fills `dest` with exactly the values repeated [`RngCore::next_u64`]
    /// calls would return — the hook behind [`Rng::fill`], which a buffered
    /// generator overrides to copy whole buffers. Not in upstream `RngCore`:
    /// there `fill` reaches the bulk path through `fill_bytes` and a byte
    /// cast this `forbid(unsafe_code)` crate cannot write.
    fn fill_u64(&mut self, dest: &mut [u64]) {
        for word in dest {
            *word = self.next_u64();
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_u64(&mut self, dest: &mut [u64]) {
        (**self).fill_u64(dest)
    }
}

/// Deterministic construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanded with SplitMix64 the way
    /// upstream `rand` does.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64(state);
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next_value().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// The SplitMix64 sequence used for seed expansion.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Advances the sequence one step and returns the next value.
    pub fn next_value(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Types samplable uniformly over their whole domain with `Rng::gen`.
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Types with uniform sampling over an interval.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Draws uniformly from `[lo, hi)` (`inclusive = false`) or `[lo, hi]`.
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        inclusive: bool,
    ) -> Self;
}

macro_rules! sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                let span = (hi as i128 - lo as i128 + i128::from(inclusive)) as u128;
                assert!(span > 0, "cannot sample empty range");
                let offset = (rng.next_u64() as u128 % span) as i128;
                (lo as i128 + offset) as $t
            }
        }
    )*};
}
sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                assert!(if inclusive { lo <= hi } else { lo < hi }, "cannot sample empty range");
                lo + <$t as Standard>::sample(rng) * (hi - lo)
            }
        }
    )*};
}
sample_uniform_float!(f32, f64);

/// Ranges from which `Rng::gen_range` can sample one value.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, *self.start(), *self.end(), true)
    }
}

/// High-level sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value uniformly over the type's whole domain.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_one(self)
    }

    /// Fills `dest` with uniform words, equal to one `gen::<u64>()` per
    /// element (upstream's `fill` is generic over a `Fill` trait; `[u64]` is
    /// the one destination the workspace fills).
    fn fill(&mut self, dest: &mut [u64]) {
        self.fill_u64(dest)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        <f64 as Standard>::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = (self.s[0].wrapping_add(self.s[3]))
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
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&seed[i * 8..i * 8 + 8]);
                *word = u64::from_le_bytes(bytes);
            }
            // An all-zero state is a fixed point of xoshiro; nudge it.
            if s == [0; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            StdRng { s }
        }
    }
}

/// Sequence-related sampling helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{Rng, RngCore};

    /// Slice shuffling and choice.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Returns a uniformly chosen element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
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

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn fill_equals_repeated_draws() {
        // Through `&mut R`, which forwards the hook rather than defaulting it.
        fn fill_by<R: Rng>(mut rng: R, dest: &mut [u64]) {
            rng.fill(dest);
        }
        let mut a = StdRng::seed_from_u64(5);
        let mut b = a.clone();
        let mut bulk = [0u64; 37];
        fill_by(&mut a, &mut bulk);
        assert!(bulk.iter().all(|&w| w == b.gen::<u64>()));
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: i64 = rng.gen_range(-5..5);
            assert!((-5..5).contains(&v));
            let w: usize = rng.gen_range(2..=3);
            assert!((2..=3).contains(&w));
            let f: f32 = rng.gen_range(-1.5..1.5);
            assert!((-1.5..1.5).contains(&f));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_respects_probability_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..32).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 32-element shuffle is astronomically unlikely to be identity"
        );
    }
}
