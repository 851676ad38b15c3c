//! A standalone per-block write stream, and the per-block evolution step
//! it shares with the trace generator.
//!
//! [`BlockStream`] evolves one block's content with the same step
//! [`TraceGenerator`](crate::TraceGenerator) applies to each of its blocks
//! (affinity, bounded-wander morphs, in-place mutations), but as an
//! independent, separately-seeded object. The lifetime engine simulates
//! each physical line with its own `BlockStream`, swapping in a fresh one
//! whenever inter-line wear-leveling relocates the hosted block.

use crate::content::{ContentClass, ALL_CLASSES};
use crate::profile::WorkloadProfile;
use pcm_util::{seeded_rng, Line512};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, RngExt};

/// One block's temporal state.
///
/// Each block carries a fixed *affinity* (the content class sampled at
/// first touch): morphs wander only to size-adjacent classes of the
/// affinity. This matches the paper's Fig. 11 observation that the
/// per-address **maximum** compressed size has a workload-characteristic
/// distribution — addresses do not all drift to incompressible content
/// even in volatile workloads.
#[derive(Debug, Clone)]
pub(crate) struct BlockState {
    /// Size rank of the affinity class in [`ALL_CLASSES`].
    affinity: usize,
    class: ContentClass,
    pub(crate) data: Line512,
}

impl BlockState {
    /// A fresh block sampled from the profile's mixture.
    pub(crate) fn fresh<R: Rng + ?Sized>(profile: &WorkloadProfile, rng: &mut R) -> Self {
        let class = profile.sample_class(rng);
        let data = class.generate(rng);
        BlockState {
            affinity: class.size_rank(),
            class,
            data,
        }
    }

    /// Rewrites the block and returns its new content: with `morph` (drawn
    /// by the caller with probability `size_volatility`), a jump to a
    /// size-adjacent class of the affinity *different from the current
    /// one*, so the compressed size changes (Fig. 6) while the address
    /// keeps its characteristic size tier (Fig. 11); otherwise an in-place
    /// mutation of a few words.
    pub(crate) fn rewrite<R: Rng + ?Sized>(
        &mut self,
        profile: &WorkloadProfile,
        rng: &mut R,
        morph: bool,
    ) -> Line512 {
        if morph {
            let a = self.affinity as i64;
            let max = ALL_CLASSES.len() as i64 - 1;
            // At most three neighbour ranks: keep them on the stack (this
            // runs once per sampled write in the lifetime hot path).
            let mut candidates = [0usize; 3];
            let mut len = 0;
            for r in [a - 1, a, a + 1] {
                if (0..=max).contains(&r) && ALL_CLASSES[r as usize] != self.class {
                    candidates[len] = r as usize;
                    len += 1;
                }
            }
            let rank = *candidates[..len]
                .choose(rng)
                .expect("at least one neighbour");
            self.class = ALL_CLASSES[rank];
            self.data = self.class.generate(rng);
        } else {
            self.data = self.class.mutate(rng, &self.data, profile.mutation_words);
        }
        self.data
    }
}

/// An infinite stream of write-back payloads for one logical block.
///
/// # Examples
///
/// ```
/// use pcm_trace::{BlockStream, SpecApp};
///
/// let mut s = BlockStream::new(SpecApp::Milc.profile(), 7);
/// let first = s.next_data();
/// let second = s.next_data();
/// // Same logical block, evolving content.
/// let _ = (first, second);
/// ```
#[derive(Debug)]
pub struct BlockStream {
    profile: WorkloadProfile,
    rng: StdRng,
    block: BlockState,
}

impl BlockStream {
    /// Creates a stream whose first value is a fresh block sampled from the
    /// profile's mixture.
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        let block = BlockState::fresh(&profile, &mut rng);
        BlockStream {
            profile,
            rng,
            block,
        }
    }

    /// The block's current content (what the previous write stored).
    pub fn current(&self) -> Line512 {
        self.block.data
    }

    /// The block's current content class.
    pub fn class(&self) -> ContentClass {
        self.block.class
    }

    /// Produces the next write-back payload: a morph (size jump within the
    /// affinity tier) with probability `size_volatility`, otherwise an
    /// in-place mutation.
    pub fn next_data(&mut self) -> Line512 {
        let morph = self.rng.random_bool(self.profile.size_volatility);
        self.block.rewrite(&self.profile, &mut self.rng, morph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SpecApp;
    use pcm_compress::compress_best;

    #[test]
    fn deterministic_given_seed() {
        let mut a = BlockStream::new(SpecApp::Gcc.profile(), 3);
        let mut b = BlockStream::new(SpecApp::Gcc.profile(), 3);
        for _ in 0..50 {
            assert_eq!(a.next_data(), b.next_data());
        }
    }

    #[test]
    fn stable_profile_keeps_size() {
        let mut s = BlockStream::new(SpecApp::CactusADM.profile(), 5);
        let sizes: Vec<usize> = (0..100)
            .map(|_| compress_best(&s.next_data()).size())
            .collect();
        let distinct = {
            let mut v = sizes.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(
            distinct <= 3,
            "cactusADM blocks should barely change size, got {distinct}"
        );
    }

    #[test]
    fn volatile_profile_swings_size() {
        let mut s = BlockStream::new(SpecApp::Bzip2.profile(), 5);
        let sizes: Vec<usize> = (0..100)
            .map(|_| compress_best(&s.next_data()).size())
            .collect();
        let changes = sizes.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            changes > 50,
            "bzip2 blocks should change size often, got {changes}/99"
        );
    }
}
