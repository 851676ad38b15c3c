//! Masked-u64 bit kernels over the 512 cells of one line.
//!
//! The hot loops of the simulator are all masked-u64 bit kernels: popcount
//! (differential writes), per-chunk popcounts (Flip-N-Write), "add the
//! bits of a mask to an array of counters" (per-cell wear and flip
//! statistics), and "minimum remaining endurance over a mask" (death
//! scans). Each treats a `Line512` mask as 512 predicate lanes over the
//! line's per-cell arrays (`[u32; 512]` wear, endurance, and flip counts),
//! one u64 word of 64 cells at a time. [`MaskAccumulator`] goes one step
//! further and keeps the counts themselves as bit planes, so folding a
//! mask costs a few word operations however many bits it sets.

use crate::DATA_BITS;

/// Lines per campaign pool job: `run_campaign_on` hands each worker one
/// contiguous chunk of this many seeds at a time.
pub const BATCH_LANES: usize = 64;

/// u64 words per line.
const WORDS: usize = DATA_BITS / 64;

/// Popcount of eight u64 words (one `Line512`).
#[inline]
pub fn popcount512(words: &[u64; 8]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// Adds each set bit of `mask` to the matching counter: for every bit
/// position `p` set in `mask`, `counts[p] += 1`.
///
/// # Panics
///
/// Panics if `counts.len() < 512`.
#[inline]
pub fn mask_accumulate(counts: &mut [u32], mask: &[u64; 8]) {
    assert!(counts.len() >= DATA_BITS, "counter array shorter than line");
    for (w, &m) in mask.iter().enumerate() {
        let mut bits = m;
        while bits != 0 {
            let tz = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            counts[w * 64 + tz] += 1;
        }
    }
}

/// One wear step over 512 cell lanes: for every bit `p` set in `program`,
/// `wear[p] += 1`, and `p` is reported in the returned mask if its new
/// wear exceeds `endurance[p]` (the cell dies on this pulse).
///
/// # Panics
///
/// Panics if either slice is shorter than 512.
#[inline]
pub fn wear_step(wear: &mut [u32], endurance: &[u32], program: &[u64; 8]) -> [u64; 8] {
    assert!(wear.len() >= DATA_BITS, "wear array shorter than line");
    assert!(
        endurance.len() >= DATA_BITS,
        "endurance array shorter than line"
    );
    let mut died = [0u64; 8];
    for (w, &m) in program.iter().enumerate() {
        let mut bits = m;
        while bits != 0 {
            let tz = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let pos = w * 64 + tz;
            wear[pos] += 1;
            if wear[pos] > endurance[pos] {
                died[w] |= 1u64 << tz;
            }
        }
    }
    died
}

/// Per-chunk popcounts of a line: `out[c]` = set bits in chunk `c`, where
/// chunks are `chunk_bits` wide. Used by Flip-N-Write.
///
/// # Panics
///
/// Panics unless `chunk_bits` divides 512, is at least 2, and
/// `out.len() >= 512 / chunk_bits`.
#[inline]
pub fn chunk_popcounts(words: &[u64; 8], chunk_bits: usize, out: &mut [u32]) {
    assert!(
        chunk_bits >= 2 && DATA_BITS % chunk_bits == 0,
        "chunk width must divide 512, got {chunk_bits}"
    );
    assert!(
        out.len() >= DATA_BITS / chunk_bits,
        "chunk counter array too short"
    );
    if chunk_bits >= 64 {
        let words_per_chunk = chunk_bits / 64;
        for (c, group) in words.chunks_exact(words_per_chunk).enumerate() {
            out[c] = group.iter().map(|w| w.count_ones()).sum();
        }
    } else {
        let chunks_per_word = 64 / chunk_bits;
        let seg = u64::MAX >> (64 - chunk_bits);
        for (w, &word) in words.iter().enumerate() {
            for c in 0..chunks_per_word {
                out[w * chunks_per_word + c] = (word >> (c * chunk_bits) & seg).count_ones();
            }
        }
    }
}

/// Minimum of `endurance[p] - wear[p]` over the cells whose bit is set in
/// `healthy`, or `u32::MAX` when `healthy` is empty.
///
/// Callers must guarantee `wear[p] <= endurance[p]` for every healthy cell
/// (true by construction in the wear model: a cell whose wear exceeds its
/// endurance is a fault and leaves the healthy set); the subtraction still
/// saturates so a violated precondition yields 0, never garbage.
///
/// # Panics
///
/// Panics if either slice is shorter than 512.
#[inline]
pub fn min_remaining(wear: &[u32], endurance: &[u32], healthy: &[u64; 8]) -> u32 {
    assert!(wear.len() >= DATA_BITS, "wear array shorter than line");
    assert!(
        endurance.len() >= DATA_BITS,
        "endurance array shorter than line"
    );
    let mut min = u32::MAX;
    for (w, &m) in healthy.iter().enumerate() {
        let mut bits = m;
        while bits != 0 {
            let tz = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let pos = w * 64 + tz;
            min = min.min(endurance[pos].saturating_sub(wear[pos]));
        }
    }
    min
}

/// A carry-save accumulator of 512-bit masks, in bit-plane layout.
///
/// Where [`mask_accumulate`] walks 512 u32 counters per mask, this folds
/// each mask into six bit *planes* (plane `j`, word `w` holds bit `j` of
/// the running per-cell count for cells `64w..64w+64`) with a half-adder
/// carry chain — a handful of u64 ops per mask, independent of how many
/// bits are set. [`Self::drain_into`] materializes the planes into the
/// real counter array; it runs automatically when the 6-bit planes would
/// overflow (every 63 masks), so the amortized cost per mask stays tiny.
#[derive(Debug, Clone, Default)]
pub struct MaskAccumulator {
    planes: [[u64; WORDS]; 6],
    pending: u32,
}

impl MaskAccumulator {
    /// Masks the planes can absorb before [`Self::accumulate`] must drain.
    pub const CAPACITY: u32 = 63;

    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        MaskAccumulator::default()
    }

    /// Number of masks folded in since the last drain.
    pub fn pending(&self) -> u32 {
        self.pending
    }

    /// Folds one mask in, draining into `counts` first if the planes are
    /// full. Equivalent to `mask_accumulate(counts, mask)` once a final
    /// [`Self::drain_into`] lands the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() < 512`.
    #[inline]
    pub fn accumulate(&mut self, counts: &mut [u32], mask: &[u64; 8]) {
        if self.pending == Self::CAPACITY {
            self.drain_into(counts);
        }
        for (w, &m) in mask.iter().enumerate() {
            let mut carry = m;
            for plane in &mut self.planes {
                if carry == 0 {
                    break;
                }
                let sum = plane[w] ^ carry;
                carry &= plane[w];
                plane[w] = sum;
            }
            debug_assert_eq!(carry, 0, "plane overflow despite capacity drain");
        }
        self.pending += 1;
    }

    /// Adds the planes' per-cell counts into `counts` and resets.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() < 512`.
    pub fn drain_into(&mut self, counts: &mut [u32]) {
        assert!(counts.len() >= DATA_BITS, "counter array shorter than line");
        for w in 0..WORDS {
            let mut touched = 0u64;
            for plane in &self.planes {
                touched |= plane[w];
            }
            while touched != 0 {
                let tz = touched.trailing_zeros() as usize;
                touched &= touched - 1;
                let mut v = 0u32;
                for (j, plane) in self.planes.iter().enumerate() {
                    v |= (((plane[w] >> tz) & 1) as u32) << j;
                }
                counts[w * 64 + tz] += v;
            }
            for plane in &mut self.planes {
                plane[w] = 0;
            }
        }
        self.pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::Line512;
    use crate::seeded_rng;

    #[test]
    fn wear_step_reports_deaths_only_for_programmed_cells() {
        let mut wear = vec![0u32; DATA_BITS];
        let mut endurance = vec![5u32; DATA_BITS];
        endurance[3] = 0;
        endurance[100] = 0; // over-limit but never programmed
        wear[100] = 7;
        let mut program = [0u64; 8];
        program[0] = 1 << 3 | 1 << 5;
        let died = wear_step(&mut wear, &endurance, &program);
        assert_eq!(died[0], 1 << 3);
        assert_eq!(wear[3], 1);
        assert_eq!(wear[5], 1);
        assert_eq!(wear[100], 7);
    }

    #[test]
    fn mask_accumulator_matches_direct_accumulation() {
        let mut rng = seeded_rng(72);
        let mut direct = [0u32; DATA_BITS];
        let mut planes = [0u32; DATA_BITS];
        let mut acc = MaskAccumulator::new();
        // 150 masks force two automatic capacity drains along the way.
        for _ in 0..150 {
            let words = Line512::random(&mut rng).words();
            mask_accumulate(&mut direct, &words);
            acc.accumulate(&mut planes, &words);
        }
        acc.drain_into(&mut planes);
        assert_eq!(planes, direct);
        assert_eq!(acc.pending(), 0);
    }

    #[test]
    fn min_remaining_honors_healthy_mask() {
        let mut wear = vec![0u32; DATA_BITS];
        let mut endurance = vec![100u32; DATA_BITS];
        wear[7] = 95; // remaining 5
        endurance[200] = 2; // remaining 2, but masked out below
        let mut healthy = [u64::MAX; 8];
        healthy[3] &= !(1 << 8); // cell 200 unhealthy
        assert_eq!(min_remaining(&wear, &endurance, &healthy), 5);
        assert_eq!(
            min_remaining(&wear, &endurance, &[0u64; 8]),
            u32::MAX,
            "empty healthy set has no constraint"
        );
    }
}
