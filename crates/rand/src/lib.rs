//! A self-contained, deterministic reimplementation of the subset of the
//! `rand` crate API this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this minimal drop-in: same module paths (`rand::rngs::StdRng`,
//! `rand::seq::{SliceRandom, IndexedRandom}`), same trait split
//! ([`Rng`] = core generator, [`RngExt`] = convenience methods, blanket
//! implemented), same call-site spelling (`rng.random()`,
//! `rng.random_range(a..b)`, `rng.random_bool(p)`).
//!
//! Everything here is **deterministic given the seed** — the property the
//! simulators and the verification harness rely on. The stream is *not*
//! bit-compatible with upstream `rand`; it doesn't need to be, because
//! every experiment in this repository derives its randomness from
//! explicit seeds through this one implementation.
//!
//! The generator is xoshiro256++ (Blackman & Vigna), seeded through a
//! SplitMix64 expansion — a well-studied, fast, equidistributed
//! combination.
//!
//! # Examples
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::{RngExt, SeedableRng};
//!
//! let mut a = StdRng::seed_from_u64(7);
//! let mut b = StdRng::seed_from_u64(7);
//! assert_eq!(a.random::<u64>(), b.random::<u64>());
//! let x = a.random_range(10..20);
//! assert!((10..20).contains(&x));
//! ```

/// A source of randomness: the core trait, object-safe.
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seeding constructors.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed, expanding it to full state.
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 step: the standard state expander for 64-bit seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Named generators.
pub mod rngs {
    use super::{splitmix64, Rng, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            // All-zero state is the one degenerate case; the SplitMix64
            // expansion cannot produce it from any seed, but guard anyway.
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Types that can be sampled uniformly from their whole domain
/// (`f64`: uniformly from `[0, 1)`).
pub trait Random: Sized {
    /// Samples one value.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_random_int {
    ($($t:ty),*) => {$(
        impl Random for $t {
            fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_random_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Random for bool {
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Random for f64 {
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges a value can be drawn from uniformly.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u);
                let draw = uniform_u64(rng, span as u64) as $u;
                (self.start as $u).wrapping_add(draw) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as $u).wrapping_sub(lo as $u).wrapping_add(1);
                if span == 0 {
                    // Full-domain inclusive range.
                    return <$t as Random>::random(rng);
                }
                let draw = uniform_u64(rng, span as u64) as $u;
                (lo as $u).wrapping_add(draw) as $t
            }
        }
    )*};
}

impl_sample_range_int!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        self.start + f64::random(rng) * (self.end - self.start)
    }
}

/// Uniform draw from `0..span` (`span > 0`) by 128-bit multiply-shift.
///
/// The modulo bias of the multiply-shift method is at most `span / 2^64`
/// — unobservable at simulation scales, and crucially *deterministic*.
fn uniform_u64<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

/// Convenience methods over any [`Rng`], blanket-implemented.
pub trait RngExt: Rng {
    /// Samples a value uniformly over `T`'s domain (`[0, 1)` for `f64`).
    fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }

    /// Samples uniformly from a range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.random::<f64>() < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Sequence helpers (`shuffle`, `choose`).
pub mod seq {
    use super::{uniform_u64, Rng};

    /// In-place random reordering of slices.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = uniform_u64(rng, i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }
    }

    /// Random element selection from slices.
    pub trait IndexedRandom {
        /// The element type.
        type Output;

        /// A uniformly random element, or `None` when empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Output>;
    }

    impl<T> IndexedRandom for [T] {
        type Output = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[uniform_u64(rng, self.len() as u64) as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::{IndexedRandom, SliceRandom};
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_streams() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.random_range(3..17);
            assert!((3..17).contains(&x));
            let y: i64 = rng.random_range(-5..=5);
            assert!((-5..=5).contains(&y));
            let z = rng.random_range(0usize..1);
            assert_eq!(z, 0);
            let f = rng.random::<f64>();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_covers_domain() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.random_range(0..8usize)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all 8 values should appear: {seen:?}"
        );
    }

    #[test]
    fn bool_probabilities() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "got {hits}");
        assert!(!(0..100).any(|_| rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn shuffle_and_choose() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..64).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..64).collect::<Vec<_>>(),
            "shuffle is a permutation"
        );
        assert!(
            v.windows(2).any(|w| w[0] > w[1]),
            "shuffle changed the order"
        );
        assert!(v.choose(&mut rng).is_some());
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
