//! Shared substrate for the `collab-pcm` workspace.
//!
//! This crate provides the low-level building blocks that every other crate
//! in the reproduction of *"Exploring the Potential for Collaborative Data
//! Compression and Hard-Error Tolerance in PCM Memories"* (DSN 2017) relies
//! on:
//!
//! * [`Line512`] — a 64-byte (512-bit) memory line, the unit of every
//!   write-back, compression, differential write, and fault-tolerance
//!   operation in the paper.
//! * [`stats`] — small statistics helpers (means, percentiles, empirical
//!   CDFs, histograms) used by the experiment harness.
//! * [`dist`] — seedable samplers (normal, Zipf) used by the fault model and
//!   the synthetic workload generator.
//!
//! # Examples
//!
//! ```
//! use pcm_util::Line512;
//!
//! let mut line = Line512::zero();
//! line.set_bit(3, true);
//! line.set_byte(10, 0xAB);
//! assert_eq!(line.count_ones(), 1 + 5); // 0xAB has five set bits
//! ```

#![forbid(unsafe_code)]

pub mod dist;
pub mod fault;
pub mod line;
pub mod pool;
pub mod simd;
pub mod stats;
pub mod vclock;

pub use fault::{FaultMap, FaultPlan, StuckAt};
pub use line::{Line512, DATA_BITS, DATA_BYTES};
pub use pool::Pool;
pub use simd::BATCH_LANES;
pub use vclock::ArrivalStream;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Creates a deterministic random number generator from a `u64` seed.
///
/// All simulations in this workspace are reproducible: every stochastic
/// component takes an explicit RNG, and experiment harnesses derive their
/// RNGs from fixed seeds through this function.
///
/// # Examples
///
/// ```
/// use rand::RngExt;
///
/// let mut a = pcm_util::seeded_rng(42);
/// let mut b = pcm_util::seeded_rng(42);
/// assert_eq!(a.random::<u64>(), b.random::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream index.
///
/// Used to fan a single experiment seed out to many independent workers
/// (Monte-Carlo shards, per-workload simulations) without correlation.
///
/// # Examples
///
/// ```
/// assert_ne!(pcm_util::child_seed(1, 0), pcm_util::child_seed(1, 1));
/// ```
pub fn child_seed(parent: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the combined value: cheap, well-mixed.
    let mut z = parent
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn seeded_rng_is_deterministic() {
        let xs: Vec<u64> = (0..8).map(|_| 0u64).collect();
        let mut r1 = seeded_rng(7);
        let mut r2 = seeded_rng(7);
        let a: Vec<u64> = xs.iter().map(|_| r1.random()).collect();
        let b: Vec<u64> = xs.iter().map(|_| r2.random()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut r1 = seeded_rng(1);
        let mut r2 = seeded_rng(2);
        let a: u64 = r1.random();
        let b: u64 = r2.random();
        assert_ne!(a, b);
    }

    #[test]
    fn child_seeds_spread() {
        let s: Vec<u64> = (0..100).map(|i| child_seed(99, i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 100);
    }
}
