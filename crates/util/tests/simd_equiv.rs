//! Reference rig for the masked-u64 kernels in `pcm_util::simd`.
//!
//! Each property recomputes a kernel's result with a deliberately naive
//! per-bit reference built only on `Line512::bit` accessors and asserts
//! the kernel agrees bit-for-bit on arbitrary lines and adversarial
//! patterns.

use pcm_util::simd::{self, MaskAccumulator};
use pcm_util::{Line512, DATA_BITS};
use proptest::prelude::*;

fn arb_line() -> impl Strategy<Value = Line512> {
    prop::array::uniform8(any::<u64>()).prop_map(Line512::from_words)
}

fn ref_popcount(line: &Line512) -> u32 {
    (0..DATA_BITS).filter(|&i| line.bit(i)).count() as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `popcount512` equals the per-bit count.
    #[test]
    fn popcount512_equiv(line in arb_line()) {
        prop_assert_eq!(simd::popcount512(&line.words()), ref_popcount(&line));
    }

    /// `mask_accumulate` bumps exactly the counters under the mask's set
    /// bits, by exactly one.
    #[test]
    fn mask_accumulate_equiv(
        mask in arb_line(),
        base in prop::collection::vec(0u32..1000, DATA_BITS),
    ) {
        let mut got = base.clone();
        simd::mask_accumulate(&mut got, &mask.words());
        for pos in 0..DATA_BITS {
            let want = base[pos] + u32::from(mask.bit(pos));
            prop_assert_eq!(got[pos], want, "pos {}", pos);
        }
    }

    /// `wear_step` increments exactly the programmed lanes and reports
    /// exactly the lanes whose new wear exceeds endurance.
    #[test]
    fn wear_step_equiv(
        program in arb_line(),
        endurance in prop::collection::vec(0u32..4, DATA_BITS),
        wear0 in prop::collection::vec(0u32..4, DATA_BITS),
    ) {
        // Keep the precondition of the wear model: live cells never start
        // past their endurance.
        let base: Vec<u32> = wear0
            .iter()
            .zip(&endurance)
            .map(|(&w, &e)| w.min(e))
            .collect();
        let mut got_wear = base.clone();
        let got_died = simd::wear_step(&mut got_wear, &endurance, &program.words());
        let died = Line512::from_words(got_died);
        for pos in 0..DATA_BITS {
            let want_wear = base[pos] + u32::from(program.bit(pos));
            prop_assert_eq!(got_wear[pos], want_wear, "wear at {}", pos);
            let want_dead = program.bit(pos) && want_wear > endurance[pos];
            prop_assert_eq!(died.bit(pos), want_dead, "death at {}", pos);
        }
    }

    /// Per-chunk popcounts agree with a per-bit scan of each chunk for
    /// every legal chunk width.
    #[test]
    fn chunk_popcounts_equiv(
        line in arb_line(),
        chunk_bits in prop::sample::select(vec![2usize, 4, 8, 16, 32, 64, 128, 256, 512]),
    ) {
        let chunks = DATA_BITS / chunk_bits;
        let mut got = vec![0u32; chunks];
        simd::chunk_popcounts(&line.words(), chunk_bits, &mut got);
        for c in 0..chunks {
            let want = (c * chunk_bits..(c + 1) * chunk_bits)
                .filter(|&i| line.bit(i))
                .count() as u32;
            prop_assert_eq!(got[c], want, "chunk {}", c);
        }
    }

    /// `min_remaining` equals a per-bit scan of `endurance - wear` over
    /// the healthy mask.
    #[test]
    fn min_remaining_equiv(
        healthy in arb_line(),
        endurance in prop::collection::vec(0u32..50, DATA_BITS),
        wear0 in prop::collection::vec(0u32..50, DATA_BITS),
    ) {
        let wear: Vec<u32> = wear0
            .iter()
            .zip(&endurance)
            .map(|(&w, &e)| w.min(e))
            .collect();
        let got = simd::min_remaining(&wear, &endurance, &healthy.words());
        let want = (0..DATA_BITS)
            .filter(|&p| healthy.bit(p))
            .map(|p| endurance[p] - wear[p])
            .min()
            .unwrap_or(u32::MAX);
        prop_assert_eq!(got, want);
    }

    /// Folding any mask sequence through the carry-save accumulator (with
    /// its automatic capacity drains) and landing the remainder equals
    /// calling `mask_accumulate` once per mask. Sequences beyond 63 masks
    /// cross the auto-drain boundary.
    #[test]
    fn mask_accumulator_equiv(
        masks in prop::collection::vec(arb_line(), 1..=150),
        base in prop::collection::vec(0u32..1000, DATA_BITS),
    ) {
        let mut acc_counts = base.clone();
        let mut acc = MaskAccumulator::new();
        for mask in &masks {
            acc.accumulate(&mut acc_counts, &mask.words());
        }
        acc.drain_into(&mut acc_counts);
        prop_assert_eq!(acc.pending(), 0);
        let mut direct = base.clone();
        for mask in &masks {
            simd::mask_accumulate(&mut direct, &mask.words());
        }
        prop_assert_eq!(acc_counts, direct);
    }
}

/// An empty healthy mask yields `u32::MAX` (no cell constrains the bound).
#[test]
fn min_remaining_empty_healthy() {
    let wear = vec![7u32; DATA_BITS];
    let endurance = vec![9u32; DATA_BITS];
    assert_eq!(
        simd::min_remaining(&wear, &endurance, &Line512::zero().words()),
        u32::MAX
    );
    assert_eq!(
        simd::min_remaining(&wear, &endurance, &Line512::ones().words()),
        2
    );
}

/// The accumulator drains itself exactly at capacity: 63 all-ones masks
/// fit, the 64th forces a drain, and no count is lost either side of the
/// boundary.
#[test]
fn mask_accumulator_capacity_boundary() {
    let mut counts = vec![0u32; DATA_BITS];
    let mut acc = MaskAccumulator::new();
    let ones = Line512::ones().words();
    for i in 0..MaskAccumulator::CAPACITY {
        acc.accumulate(&mut counts, &ones);
        assert_eq!(acc.pending(), i + 1);
    }
    // Planes are full; the counters still hold nothing.
    assert_eq!(counts[0], 0);
    acc.accumulate(&mut counts, &ones);
    // The 64th fold drained 63 and kept 1 pending.
    assert_eq!(acc.pending(), 1);
    assert_eq!(counts[0], MaskAccumulator::CAPACITY);
    acc.drain_into(&mut counts);
    assert_eq!(acc.pending(), 0);
    assert!(counts.iter().all(|&c| c == MaskAccumulator::CAPACITY + 1));
    // Draining an empty accumulator is a no-op.
    acc.drain_into(&mut counts);
    assert!(counts.iter().all(|&c| c == MaskAccumulator::CAPACITY + 1));
}
