//! Equivalence suite for the wrapped compression-window kernels.
//!
//! `window_mask`, `place`, `extract`, and the window fault queries built
//! on `window_mask` are implemented with precomputed bit-range masks and
//! word-level splices; the references here walk the wrapped byte indices
//! one at a time (`wrapped_bytes`), which is the definitional layout of a
//! window that wraps at byte 64 (paper §III-B).

use pcm_core::window;
use pcm_util::fault::StuckAt;
use pcm_util::{FaultMap, FaultPlan, Line512, DATA_BITS, DATA_BYTES};
use proptest::prelude::*;

fn arb_line() -> impl Strategy<Value = Line512> {
    prop::array::uniform8(any::<u64>()).prop_map(Line512::from_words)
}

fn arb_window() -> impl Strategy<Value = (usize, usize)> {
    (0usize..DATA_BYTES, 1usize..=DATA_BYTES)
}

fn arb_faults() -> impl Strategy<Value = FaultMap> {
    (any::<u64>(), 0u32..64, any::<f64>())
        .prop_map(|(seed, count, frac)| FaultPlan::with_count(seed, count, frac).for_line(0))
}

/// Byte indices covered by a wrapped window, in window order.
fn wrapped_bytes(offset: usize, len: usize) -> impl Iterator<Item = usize> {
    (0..len).map(move |i| (offset + i) % DATA_BYTES)
}

fn ref_window_mask(offset: usize, len: usize) -> Line512 {
    let mut mask = Line512::zero();
    for byte in wrapped_bytes(offset, len) {
        for bit in byte * 8..(byte + 1) * 8 {
            mask.set_bit(bit, true);
        }
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The (possibly two-piece) precomputed window mask covers exactly the
    /// wrapped byte span.
    #[test]
    fn window_mask_matches_wrapped_bytes(w in arb_window()) {
        let (offset, len) = w;
        prop_assert_eq!(window::window_mask(offset, len), ref_window_mask(offset, len));
    }

    /// The two-splice `place` equals writing payload bytes one at a time
    /// along the wrapped order, and `extract` reads them back.
    #[test]
    fn place_extract_match_per_byte(
        current in arb_line(),
        offset in 0usize..DATA_BYTES,
        payload in prop::collection::vec(any::<u8>(), 1..=DATA_BYTES),
    ) {
        let fast = window::place(&current, offset, &payload);
        let mut slow = current;
        for (i, byte) in wrapped_bytes(offset, payload.len()).enumerate() {
            slow.set_byte(byte, payload[i]);
        }
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(window::extract(&fast, offset, payload.len()), payload);
    }

    /// Window fault queries — the controller's probe lists
    /// `(faults.positions() & window_mask(..)).ones_into(..)`, its encode
    /// takes `faults.masked(window_mask(..))` — agree with filtering every
    /// fault through the wrapped byte span.
    #[test]
    fn fault_queries_match_per_fault_filter(
        faults in arb_faults(),
        w in arb_window(),
    ) {
        let (offset, len) = w;
        let in_window: Vec<StuckAt> = faults
            .iter()
            .filter(|f| wrapped_bytes(offset, len).any(|b| b == f.pos as usize / 8))
            .collect();
        let expected: Vec<u16> = in_window.iter().map(|f| f.pos).collect();
        let mask = window::window_mask(offset, len);

        let mut buf = [0u16; DATA_BITS];
        let positions = (faults.positions() & mask).ones_into(&mut buf);
        prop_assert_eq!(positions, &expected[..], "probe must list positions in bit order");

        let map = faults.masked(mask);
        prop_assert_eq!(map.count() as usize, in_window.len());
        for f in in_window {
            prop_assert_eq!(map.stuck_value(f.pos as usize), Some(f.value));
        }
    }

    /// A window never sees faults outside itself: applying the windowed
    /// fault map perturbs no cell outside the window mask.
    #[test]
    fn windowed_faults_stay_inside_window(
        faults in arb_faults(),
        w in arb_window(),
        line in arb_line(),
    ) {
        let (offset, len) = w;
        let mask = window::window_mask(offset, len);
        let map = faults.masked(mask);
        let changed = line ^ map.apply(line);
        prop_assert!((changed & !mask).is_zero());
    }
}
