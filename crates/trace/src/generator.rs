//! The trace generator: Zipf-popular addresses over stateful blocks.

use crate::profile::WorkloadProfile;
use crate::record::{Access, AccessKind, Trace, WriteRecord};
use crate::stream::BlockState;
use pcm_util::dist::Zipf;
use pcm_util::{seeded_rng, Line512};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt;

/// Generates a synthetic LLC write-back stream for one workload over a
/// memory of `lines` logical lines.
///
/// Line popularity is Zipf-distributed with the profile's exponent; the
/// popularity ranking is scattered over the address space by a seeded
/// permutation so hot lines spread across banks, as they do under real
/// allocators.
///
/// # Examples
///
/// ```
/// use pcm_trace::{SpecApp, TraceGenerator};
///
/// let mut generator = TraceGenerator::from_profile(SpecApp::Gcc.profile(), 256, 7);
/// let trace = generator.generate(1000);
/// assert_eq!(trace.len(), 1000);
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    lines: u64,
    rng: StdRng,
    zipf: Zipf,
    rank_to_line: Vec<u32>,
    blocks: Vec<Option<BlockState>>,
}

impl TraceGenerator {
    /// Creates a generator for `lines` logical lines.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0` or `lines > u32::MAX`.
    pub fn from_profile(profile: WorkloadProfile, lines: u64, seed: u64) -> Self {
        assert!(lines > 0, "need at least one line");
        assert!(
            lines <= u32::MAX as u64,
            "generator supports up to 2^32 lines"
        );
        let mut rng = seeded_rng(seed);
        let zipf = Zipf::new(lines as usize, profile.zipf_s);
        let mut rank_to_line: Vec<u32> = (0..lines as u32).collect();
        rank_to_line.shuffle(&mut rng);
        TraceGenerator {
            profile,
            lines,
            rng,
            zipf,
            rank_to_line,
            blocks: vec![None; lines as usize],
        }
    }

    /// The workload profile driving this generator.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Number of logical lines.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Draws the next write-back.
    pub fn next_write(&mut self) -> WriteRecord {
        let rank = self.zipf.sample(&mut self.rng);
        let line = self.rank_to_line[rank] as u64;
        let data = self.rewrite(line as usize);
        WriteRecord { line, data }
    }

    /// Draws the next write-back *to a specific line* (used by
    /// per-block studies like Figs. 1 and 7).
    pub fn next_write_to(&mut self, line: u64) -> WriteRecord {
        assert!(line < self.lines, "line {line} out of range");
        let data = self.rewrite(line as usize);
        WriteRecord { line, data }
    }

    /// Draws the next [`Access`] (read or write), with the profile's
    /// reads-per-write ratio.
    pub fn next_access(&mut self) -> Access {
        let p_read = self.profile.reads_per_write / (self.profile.reads_per_write + 1.0);
        if self.rng.random_bool(p_read) {
            let rank = self.zipf.sample(&mut self.rng);
            let line = self.rank_to_line[rank] as u64;
            Access {
                line,
                kind: AccessKind::Read,
                data: None,
            }
        } else {
            let w = self.next_write();
            Access {
                line: w.line,
                kind: AccessKind::Write,
                data: Some(w.data),
            }
        }
    }

    /// Generates a trace of `n` write-backs.
    pub fn generate(&mut self, n: usize) -> Trace {
        (0..n).map(|_| self.next_write()).collect()
    }

    /// Computes the new content of a block being rewritten: the morph
    /// draw comes first, then a first touch samples a fresh block and
    /// every later write applies the shared [`BlockState::rewrite`] step.
    fn rewrite(&mut self, idx: usize) -> Line512 {
        let morph = self.rng.random_bool(self.profile.size_volatility);
        match &mut self.blocks[idx] {
            Some(block) => block.rewrite(&self.profile, &mut self.rng, morph),
            state @ None => {
                state
                    .insert(BlockState::fresh(&self.profile, &mut self.rng))
                    .data
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SpecApp;
    use pcm_compress::compress_best;

    #[test]
    fn deterministic_given_seed() {
        let mut a = TraceGenerator::from_profile(SpecApp::Gcc.profile(), 128, 5);
        let mut b = TraceGenerator::from_profile(SpecApp::Gcc.profile(), 128, 5);
        for _ in 0..100 {
            assert_eq!(a.next_write(), b.next_write());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TraceGenerator::from_profile(SpecApp::Gcc.profile(), 128, 5);
        let mut b = TraceGenerator::from_profile(SpecApp::Gcc.profile(), 128, 6);
        let wa: Vec<_> = (0..20).map(|_| a.next_write()).collect();
        let wb: Vec<_> = (0..20).map(|_| b.next_write()).collect();
        assert_ne!(wa, wb);
    }

    #[test]
    fn addresses_in_range_and_skewed() {
        let mut g = TraceGenerator::from_profile(SpecApp::Mcf.profile(), 64, 9);
        let mut counts = vec![0u32; 64];
        for _ in 0..20_000 {
            let w = g.next_write();
            counts[w.line as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max > min * 3, "Zipf skew expected, max {max} min {min}");
    }

    #[test]
    fn stable_workload_keeps_sizes_volatile_workload_does_not() {
        let stable = {
            let mut g = TraceGenerator::from_profile(SpecApp::Hmmer.profile(), 16, 3);
            size_change_fraction(&mut g)
        };
        let volatile = {
            let mut g = TraceGenerator::from_profile(SpecApp::Bzip2.profile(), 16, 3);
            size_change_fraction(&mut g)
        };
        assert!(
            volatile > stable + 0.3,
            "bzip2 ({volatile}) should change sizes far more than hmmer ({stable})"
        );
    }

    fn size_change_fraction(g: &mut TraceGenerator) -> f64 {
        let mut last = std::collections::HashMap::new();
        let mut changes = 0u32;
        let mut pairs = 0u32;
        for _ in 0..4000 {
            let w = g.next_write();
            let size = compress_best(&w.data).size();
            if let Some(prev) = last.insert(w.line, size) {
                pairs += 1;
                if prev != size {
                    changes += 1;
                }
            }
        }
        changes as f64 / pairs.max(1) as f64
    }

    #[test]
    fn reads_follow_ratio() {
        let mut g = TraceGenerator::from_profile(SpecApp::Lbm.profile(), 64, 10);
        let mut reads = 0;
        let n = 30_000;
        for _ in 0..n {
            if g.next_access().kind == AccessKind::Read {
                reads += 1;
            }
        }
        let frac = reads as f64 / n as f64;
        // reads_per_write = 2.0 -> two thirds of accesses are reads.
        assert!((frac - 2.0 / 3.0).abs() < 0.02, "read fraction {frac}");
    }

    #[test]
    fn per_line_stream_is_usable_for_block_studies() {
        let mut g = TraceGenerator::from_profile(SpecApp::Gobmk.profile(), 32, 11);
        for _ in 0..50 {
            let w = g.next_write_to(5);
            assert_eq!(w.line, 5);
        }
    }
}
