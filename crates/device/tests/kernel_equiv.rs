//! Equivalence suite for the differential-write and Flip-N-Write kernels.
//!
//! `diff_write` and `FlipNWrite::write` run on whole `u64` words; the
//! references here recompute every outcome bit by bit from the documented
//! semantics (program only differing cells; per chunk store data or its
//! complement, whichever flips fewer cells, counting flag-cell flips).

use pcm_device::dw::{diff_write, FlipNWrite};
use pcm_util::{Line512, DATA_BITS};
use proptest::prelude::*;

fn arb_line() -> impl Strategy<Value = Line512> {
    prop::array::uniform8(any::<u64>()).prop_map(Line512::from_words)
}

/// Chunk widths accepted by `FlipNWrite::new` (divisors of 512, >= 2).
fn arb_chunk_bits() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![2usize, 4, 8, 16, 32, 64, 128, 256, 512])
}

/// Per-bit reference for one Flip-N-Write step: returns the stored image,
/// the flip count, and the new flags.
fn ref_fnw_step(
    chunk_bits: usize,
    old_flags: &[bool],
    stored: &Line512,
    data: &Line512,
) -> (Line512, u32, Vec<bool>) {
    let mut out = Line512::zero();
    let mut flips = 0u32;
    let mut flags = Vec::with_capacity(old_flags.len());
    for (chunk, &old_flag) in old_flags.iter().enumerate() {
        let bits = chunk * chunk_bits..(chunk + 1) * chunk_bits;
        let direct: u32 = bits
            .clone()
            .filter(|&i| stored.bit(i) != data.bit(i))
            .count() as u32;
        let complement = chunk_bits as u32 - direct;
        let invert = complement < direct;
        flips += direct.min(complement) + (old_flag != invert) as u32;
        for i in bits {
            out.set_bit(i, data.bit(i) != invert);
        }
        flags.push(invert);
    }
    (out, flips, flags)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `diff_write` masks agree with comparing old and new bit by bit.
    #[test]
    fn diff_write_matches_per_bit(old in arb_line(), new in arb_line()) {
        let dw = diff_write(&old, &new);
        let mut flips = 0u32;
        let mut sets = 0u32;
        let mut resets = 0u32;
        for i in 0..DATA_BITS {
            match (old.bit(i), new.bit(i)) {
                (false, true) => { flips += 1; sets += 1; }
                (true, false) => { flips += 1; resets += 1; }
                _ => prop_assert!(!dw.flip_mask().bit(i), "bit {} must not flip", i),
            }
        }
        prop_assert_eq!(dw.flips(), flips);
        prop_assert_eq!(dw.sets(), sets);
        prop_assert_eq!(dw.resets(), resets);
        prop_assert_eq!(dw.flip_mask(), old ^ new);
    }

    /// A multi-step Flip-N-Write history (flags carried between writes)
    /// matches the per-bit reference at every step, and decode recovers
    /// the logical data.
    #[test]
    fn flip_n_write_matches_per_bit_reference(
        chunk_bits in arb_chunk_bits(),
        writes in prop::collection::vec(
            prop::array::uniform8(any::<u64>()).prop_map(Line512::from_words), 1..6),
    ) {
        let mut fnw = FlipNWrite::new(chunk_bits);
        let mut ref_flags = vec![false; 512 / chunk_bits];
        let mut stored = Line512::zero();
        for data in writes {
            let (ref_stored, ref_flips, new_flags) =
                ref_fnw_step(chunk_bits, &ref_flags, &stored, &data);
            let (fast_stored, fast_flips) = fnw.write(&stored, &data);
            prop_assert_eq!(fast_stored, ref_stored);
            prop_assert_eq!(fast_flips, ref_flips);
            prop_assert_eq!(fnw.decode(&fast_stored), data);
            ref_flags = new_flags;
            stored = fast_stored;
        }
    }
}
