//! Equivalence suite for the word-at-a-time `Line512` / `FaultMap` kernels.
//!
//! The library implements these operations with masked `u64` arithmetic;
//! each property here re-derives the result with a deliberately naive
//! per-bit (or per-byte) reference built only on `bit`/`byte` accessors,
//! so a regression in the word-level masking shows up as a disagreement
//! with first-principles semantics.

use pcm_util::fault::StuckAt;
use pcm_util::{FaultMap, FaultPlan, Line512, DATA_BITS, DATA_BYTES};
use proptest::prelude::*;
use std::ops::Range;

fn arb_line() -> impl Strategy<Value = Line512> {
    prop::array::uniform8(any::<u64>()).prop_map(Line512::from_words)
}

/// An arbitrary (possibly empty) bit range within the line.
fn arb_bit_range() -> impl Strategy<Value = Range<usize>> {
    (0..=DATA_BITS, 0..=DATA_BITS).prop_map(|(a, b)| a.min(b)..a.max(b))
}

/// A random fault population of 0..~64 stuck cells.
fn arb_faults() -> impl Strategy<Value = FaultMap> {
    (any::<u64>(), 0u32..64, any::<f64>())
        .prop_map(|(seed, count, frac)| FaultPlan::with_count(seed, count, frac).for_line(0))
}

fn ref_bit_range_mask(range: Range<usize>) -> Line512 {
    Line512::from_fn(|i| range.contains(&i))
}

fn ref_masked(faults: &FaultMap, mask: &Line512) -> FaultMap {
    faults.iter().filter(|f| mask.bit(f.pos as usize)).collect()
}

fn ref_apply(faults: &FaultMap, line: &Line512) -> Line512 {
    let mut out = *line;
    for f in faults.iter() {
        out.set_bit(f.pos as usize, f.value);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The head/tail mask builder produces exactly the bits of the range.
    #[test]
    fn bit_range_mask_matches_per_bit(range in arb_bit_range()) {
        prop_assert_eq!(Line512::bit_range_mask(range.clone()), ref_bit_range_mask(range));
    }

    /// The byte-window mask is the bit mask of the window's bit span.
    #[test]
    fn byte_window_mask_matches_per_bit(
        offset in 0usize..DATA_BYTES,
        raw_len in 1usize..=DATA_BYTES,
    ) {
        let len = raw_len.min(DATA_BYTES - offset);
        let expected = ref_bit_range_mask(offset * 8..(offset + len) * 8);
        prop_assert_eq!(Line512::byte_window_mask(offset, len), expected);
    }

    /// `FaultMap::masked` keeps exactly the faults whose position bit is in
    /// the mask, with stuck values intact.
    #[test]
    fn masked_matches_per_fault_filter(faults in arb_faults(), mask in arb_line()) {
        let fast = faults.masked(mask);
        let slow = ref_masked(&faults, &mask);
        prop_assert_eq!(fast.positions(), slow.positions());
        for f in slow.iter() {
            prop_assert_eq!(fast.stuck_value(f.pos as usize), Some(f.value));
        }
        prop_assert_eq!(fast.count(), slow.count());
    }

    /// The two-mask `apply` agrees with setting each stuck bit one by one.
    #[test]
    fn apply_matches_per_bit_overwrite(faults in arb_faults(), line in arb_line()) {
        prop_assert_eq!(faults.apply(line), ref_apply(&faults, &line));
    }

    /// Byte splicing (`with_bytes_at` / `bytes_at`) round-trips and matches
    /// per-byte editing.
    #[test]
    fn byte_splice_matches_per_byte(
        line in arb_line(),
        offset in 0usize..DATA_BYTES,
        raw_data in prop::collection::vec(any::<u8>(), 0..=DATA_BYTES),
    ) {
        let data = &raw_data[..raw_data.len().min(DATA_BYTES - offset)];
        let fast = line.with_bytes_at(offset, data);
        let mut slow = line;
        for (i, &b) in data.iter().enumerate() {
            slow.set_byte(offset + i, b);
        }
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(fast.bytes_at(offset, data.len()), data.to_vec());
    }
}

#[test]
fn masked_preserves_polarity_both_ways() {
    let faults: FaultMap = [
        StuckAt {
            pos: 3,
            value: true,
        },
        StuckAt {
            pos: 100,
            value: false,
        },
        StuckAt {
            pos: 511,
            value: true,
        },
    ]
    .into_iter()
    .collect();
    let mask = Line512::byte_window_mask(0, 16); // bits 0..128
    let kept = faults.masked(mask);
    assert_eq!(kept.count(), 2);
    assert_eq!(kept.stuck_value(3), Some(true));
    assert_eq!(kept.stuck_value(100), Some(false));
    assert_eq!(kept.stuck_value(511), None);
}
