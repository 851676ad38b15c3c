//! Differential writes and Flip-N-Write.
//!
//! Every PCM chip carries read-modify-write logic: on a write it reads the
//! old block, compares bit-by-bit with the new data, and programs **only
//! the differing cells** (paper §I, §II-C). This reduces energy and wear,
//! but — as the paper's Fig. 1 shows — leaves a *random* bit-flip pattern
//! over the whole 64-byte block, which is exactly the inefficiency the
//! compression-window design attacks.
//!
//! [`FlipNWrite`] (Cho & Lee, MICRO 2009) is the stronger chip-level
//! variant: per data chunk it stores either the data or its complement
//! (whichever flips fewer cells) plus one flip flag, bounding flips at half
//! the chunk. The paper's baseline uses plain DW; Flip-N-Write is provided
//! as the ablation extension.

use pcm_util::simd;
use pcm_util::Line512;
use serde::{Deserialize, Serialize};

/// The outcome of a differential write: the mask of programmed cells,
/// split by pulse polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffWrite {
    flip_mask: Line512,
    set_mask: Line512,
}

impl DiffWrite {
    /// The mask of cells the RMW circuit programs.
    pub fn flip_mask(&self) -> Line512 {
        self.flip_mask
    }

    /// Number of programmed (flipped) cells.
    pub fn flips(&self) -> u32 {
        self.flip_mask.count_ones()
    }

    /// Cells programmed 0→1 (SET pulses).
    pub fn sets(&self) -> u32 {
        self.set_mask.count_ones()
    }

    /// Cells programmed 1→0 (RESET pulses).
    pub fn resets(&self) -> u32 {
        (self.flip_mask & !self.set_mask).count_ones()
    }

    /// Number of flips within a byte window `[offset, offset + len)`.
    pub fn flips_in_window(&self, offset: usize, len: usize) -> u32 {
        self.flip_mask.count_ones_in(offset * 8..(offset + len) * 8)
    }
}

/// Computes the differential write of `new` over `old` as a [`DiffWrite`].
///
/// # Examples
///
/// ```
/// use pcm_device::dw::diff_write;
/// use pcm_util::Line512;
///
/// let mut old = Line512::zero();
/// let mut new = Line512::zero();
/// new.set_byte(3, 0xFF);
/// let dw = diff_write(&old, &new);
/// assert_eq!(dw.flips(), 8);
/// assert_eq!(dw.flips_in_window(3, 1), 8);
/// assert_eq!(dw.flips_in_window(0, 3), 0);
/// ```
pub fn diff_write(old: &Line512, new: &Line512) -> DiffWrite {
    let flip_mask = *old ^ *new;
    DiffWrite {
        flip_mask,
        set_mask: flip_mask & *new,
    }
}

/// Flip-N-Write state for one line: per-chunk flip flags.
///
/// # Examples
///
/// ```
/// use pcm_device::dw::FlipNWrite;
/// use pcm_util::Line512;
///
/// let mut fnw = FlipNWrite::new(64); // 64-bit chunks, 8 flags per line
/// let stored = Line512::zero();
/// // Writing all-ones would flip 512 cells under plain DW; Flip-N-Write
/// // instead stores the complement in every chunk, flipping only the
/// // eight flag cells.
/// let (new_stored, flips) = fnw.write(&stored, &Line512::ones());
/// assert_eq!(flips, 8);
/// assert_eq!(fnw.decode(&new_stored), Line512::ones());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlipNWrite {
    chunk_bits: usize,
    /// One bit per chunk, packed into a fixed bitset (at the minimum 2-bit
    /// chunk width there are 256 chunks): no heap allocation per line.
    flags: [u64; 4],
}

impl FlipNWrite {
    /// Creates Flip-N-Write state with the given chunk width in bits.
    ///
    /// # Panics
    ///
    /// Panics unless `chunk_bits` divides 512 and is at least 2.
    pub fn new(chunk_bits: usize) -> Self {
        assert!(
            chunk_bits >= 2 && 512 % chunk_bits == 0,
            "chunk width must divide 512, got {chunk_bits}"
        );
        FlipNWrite {
            chunk_bits,
            flags: [0; 4],
        }
    }

    /// Number of flag bits (one per chunk).
    pub fn flag_bits(&self) -> usize {
        512 / self.chunk_bits
    }

    fn flag(&self, chunk: usize) -> bool {
        self.flags[chunk / 64] >> (chunk % 64) & 1 != 0
    }

    fn set_flag(&mut self, chunk: usize, value: bool) {
        let bit = 1u64 << (chunk % 64);
        if value {
            self.flags[chunk / 64] |= bit;
        } else {
            self.flags[chunk / 64] &= !bit;
        }
    }

    /// Writes `data` over the currently `stored` cells, choosing per chunk
    /// between the data and its complement. Returns the new stored line and
    /// the number of cell flips (including flag-cell flips).
    pub fn write(&mut self, stored: &Line512, data: &Line512) -> (Line512, u32) {
        let diff = *stored ^ *data;
        // All chunk popcounts in one kernel pass (at the minimum 2-bit
        // chunk width there are 256 chunks).
        let mut counts = [0u32; 256];
        simd::chunk_popcounts(&diff.words(), self.chunk_bits, &mut counts);
        let mut total_flips = 0u32;
        for (chunk, &direct) in counts[..self.flag_bits()].iter().enumerate() {
            let complement = self.chunk_bits as u32 - direct;
            let (use_complement, flips) = if complement < direct {
                (true, complement)
            } else {
                (false, direct)
            };
            total_flips += flips + (self.flag(chunk) != use_complement) as u32;
            self.set_flag(chunk, use_complement);
        }
        // Every chunk is rewritten in full, so the stored image is just the
        // data XOR the mask of complemented chunks.
        (*data ^ self.complement_mask(), total_flips)
    }

    /// Decodes the logical data from stored cells using the current flags.
    pub fn decode(&self, stored: &Line512) -> Line512 {
        *stored ^ self.complement_mask()
    }

    /// The mask of cells belonging to chunks whose flag says "complemented".
    fn complement_mask(&self) -> Line512 {
        let mut words = [0u64; 8];
        if self.chunk_bits >= 64 {
            let words_per_chunk = self.chunk_bits / 64;
            for chunk in 0..self.flag_bits() {
                if self.flag(chunk) {
                    let lo = chunk * words_per_chunk;
                    for w in &mut words[lo..lo + words_per_chunk] {
                        *w = u64::MAX;
                    }
                }
            }
        } else {
            let chunks_per_word = 64 / self.chunk_bits;
            let seg = u64::MAX >> (64 - self.chunk_bits);
            for (w, word) in words.iter_mut().enumerate() {
                for c in 0..chunks_per_word {
                    if self.flag(w * chunks_per_word + c) {
                        *word |= seg << (c * self.chunk_bits);
                    }
                }
            }
        }
        Line512::from_words(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_util::seeded_rng;

    #[test]
    fn identical_write_flips_nothing() {
        let mut rng = seeded_rng(51);
        let line = Line512::random(&mut rng);
        assert_eq!(diff_write(&line, &line).flips(), 0);
    }

    #[test]
    fn flip_mask_is_xor() {
        let mut rng = seeded_rng(52);
        for _ in 0..16 {
            let a = Line512::random(&mut rng);
            let b = Line512::random(&mut rng);
            let dw = diff_write(&a, &b);
            assert_eq!(dw.flip_mask(), a ^ b);
            assert_eq!(dw.flips(), a.hamming_distance(&b));
        }
    }

    #[test]
    fn window_flip_counts_partition_total() {
        let mut rng = seeded_rng(53);
        let a = Line512::random(&mut rng);
        let b = Line512::random(&mut rng);
        let dw = diff_write(&a, &b);
        let halves = dw.flips_in_window(0, 32) + dw.flips_in_window(32, 32);
        assert_eq!(halves, dw.flips());
    }

    #[test]
    fn fnw_bounds_flips_at_half_chunk_plus_flag() {
        let mut rng = seeded_rng(54);
        let mut fnw = FlipNWrite::new(64);
        let mut stored = Line512::zero();
        for _ in 0..32 {
            let data = Line512::random(&mut rng);
            let (new_stored, flips) = fnw.write(&stored, &data);
            // Per chunk at most chunk/2 data flips + 1 flag flip.
            assert!(flips <= 8 * (32 + 1), "flips {flips}");
            assert_eq!(fnw.decode(&new_stored), data);
            stored = new_stored;
        }
    }

    #[test]
    fn fnw_never_worse_than_dw_by_more_than_flags() {
        let mut rng = seeded_rng(55);
        let mut fnw = FlipNWrite::new(32);
        let mut stored = Line512::zero();
        let mut logical = Line512::zero();
        for _ in 0..16 {
            let data = Line512::random(&mut rng);
            let dw_flips = diff_write(&logical, &data).flips();
            let (new_stored, flips) = fnw.write(&stored, &data);
            assert!(
                flips <= dw_flips + fnw.flag_bits() as u32,
                "FNW {flips} vs DW {dw_flips}"
            );
            stored = new_stored;
            logical = data;
        }
    }

    #[test]
    fn fnw_decode_round_trip_with_alternating_patterns() {
        let mut fnw = FlipNWrite::new(128);
        let mut stored = Line512::zero();
        for pattern in [
            Line512::ones(),
            Line512::zero(),
            Line512::from_fn(|i| i % 2 == 0),
        ] {
            let (s, _) = fnw.write(&stored, &pattern);
            assert_eq!(fnw.decode(&s), pattern);
            stored = s;
        }
    }

    #[test]
    #[should_panic(expected = "divide 512")]
    fn fnw_rejects_bad_chunk() {
        FlipNWrite::new(7);
    }
}
