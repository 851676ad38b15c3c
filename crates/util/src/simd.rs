//! Masked-u64 bit kernels over the 512 cells of one line.
//!
//! The hot loops of the simulator are all masked-u64 bit kernels: popcount
//! (differential writes), per-chunk popcounts (Flip-N-Write), "add the
//! bits of a mask to an array of counters" (per-cell wear and flip
//! statistics), and "minimum remaining endurance over a mask" (death
//! scans). Each treats a `Line512` mask as 512 predicate lanes over the
//! line's per-cell arrays (`[u32; 512]` wear, endurance, and flip counts),
//! one u64 word of 64 cells at a time.

use crate::DATA_BITS;

/// Most seeds one `simulate_line_batch` call takes. Campaigns do not batch
/// (each line is its own pool job); the benchmarks time a batch of this
/// many lines as one unit.
pub const BATCH_LANES: usize = 64;

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

#[cfg(test)]
mod tests {
    use super::*;

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
