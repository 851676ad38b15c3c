//! Wrapped compression-window placement and the fault-dodging search.
//!
//! The compression window is a contiguous run of `len` bytes starting at
//! byte `offset`, **wrapping** around the end of the 64-byte line: with
//! intra-line wear-leveling the start pointer rotates through all 64
//! positions, so a window beginning at byte 60 with 16 bytes of payload
//! occupies bytes 60..64 and 0..12. The chip does not care — the 6-bit
//! start pointer plus the payload length identify the cells.

use pcm_ecc::HardErrorScheme;
use pcm_util::fault::FaultMap;
use pcm_util::{Line512, DATA_BITS, DATA_BYTES};

/// A bit mask of the cells covered by a wrapped window.
///
/// # Panics
///
/// Panics if `offset >= 64` or `len > 64`.
///
/// # Examples
///
/// ```
/// use pcm_core::window::window_mask;
///
/// let m = window_mask(62, 4); // bytes 62, 63, 0, 1
/// assert_eq!(m.count_ones(), 32);
/// assert!(m.bit(0));
/// assert!(m.bit(62 * 8));
/// assert!(!m.bit(2 * 8));
/// ```
pub fn window_mask(offset: usize, len: usize) -> Line512 {
    assert!(offset < DATA_BYTES, "offset must be < 64");
    assert!(len <= DATA_BYTES, "window at most 64 bytes");
    let end = offset + len;
    if end <= DATA_BYTES {
        Line512::bit_range_mask(offset * 8..end * 8)
    } else {
        Line512::bit_range_mask(offset * 8..DATA_BITS)
            | Line512::bit_range_mask(0..(end - DATA_BYTES) * 8)
    }
}

/// Places `payload` into `current` at a wrapped window, leaving all other
/// bytes untouched.
///
/// # Panics
///
/// Panics if `offset >= 64` or the payload exceeds 64 bytes.
pub fn place(current: &Line512, offset: usize, payload: &[u8]) -> Line512 {
    assert!(offset < DATA_BYTES, "offset must be < 64");
    assert!(payload.len() <= DATA_BYTES, "payload at most 64 bytes");
    let mut bytes = current.to_bytes();
    let first = payload.len().min(DATA_BYTES - offset);
    bytes[offset..offset + first].copy_from_slice(&payload[..first]);
    bytes[..payload.len() - first].copy_from_slice(&payload[first..]);
    Line512::from_bytes(&bytes)
}

/// Extracts `len` bytes from a wrapped window.
///
/// # Panics
///
/// Panics if `offset >= 64` or `len > 64`.
pub fn extract(line: &Line512, offset: usize, len: usize) -> Vec<u8> {
    assert!(offset < DATA_BYTES, "offset must be < 64");
    assert!(len <= DATA_BYTES, "window at most 64 bytes");
    let bytes = line.to_bytes();
    let first = len.min(DATA_BYTES - offset);
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&bytes[offset..offset + first]);
    out.extend_from_slice(&bytes[..len - first]);
    out
}

/// The Comp+WF window search (§III-A): finds a start offset at which a
/// `len`-byte payload is storable under `scheme`, trying `preferred` first
/// and then sliding (wrapping) through the line.
///
/// Only offsets that are multiples of `step` (relative to byte 0) are
/// considered, and `preferred` is rounded down to that grid. The paper's
/// 6-bit start pointer is byte-granular (`step = 1`); a coarser grid
/// shrinks the pointer to `6 - log2(step)` bits at the cost of fewer
/// placement choices (the `ablation_window_step` bench quantifies the
/// lifetime cost).
///
/// Returns `None` when the line is dead for this payload size.
///
/// # Panics
///
/// Panics unless `step` is a power of two dividing 64, `preferred < 64`,
/// and `len` is `1..=64`.
///
/// # Examples
///
/// ```
/// use pcm_core::registry::ecc_scheme;
/// use pcm_core::window::find_offset;
/// use pcm_core::EccChoice;
/// use pcm_util::fault::{FaultMap, StuckAt};
///
/// // Ten faults in byte 0..2: a 32-byte window starting at byte 0 fails
/// // ECP-6, but sliding past them succeeds.
/// let faults: FaultMap = (0..10u16).map(|i| StuckAt { pos: i, value: true }).collect();
/// let offset = find_offset(ecc_scheme(EccChoice::Ecp6), &faults, 32, 0, 1).unwrap();
/// assert_ne!(offset, 0);
/// ```
pub fn find_offset(
    scheme: &dyn HardErrorScheme,
    faults: &FaultMap,
    len: usize,
    preferred: usize,
    step: usize,
) -> Option<usize> {
    first_fit(len, preferred, true, step, |offset| {
        scheme.can_store_mask(&(faults.positions() & window_mask(offset, len)))
    })
}

/// The placement order every window search shares: the first offset at
/// which `fits` holds, trying `preferred` (rounded down to the `step`
/// grid) first and, when `slide` is set, then every other grid offset in
/// wrapping byte order — the §III-A slide. `fits(offset)` answers whether
/// the `len`-byte window at `offset` can be stored.
///
/// # Panics
///
/// Panics unless `len` is `1..=64`, `preferred < 64`, and `step` is a
/// power of two dividing 64.
pub(crate) fn first_fit(
    len: usize,
    preferred: usize,
    slide: bool,
    step: usize,
    mut fits: impl FnMut(usize) -> bool,
) -> Option<usize> {
    assert!(
        (1..=DATA_BYTES).contains(&len),
        "window must be 1..=64 bytes"
    );
    assert!(preferred < DATA_BYTES, "preferred offset must be < 64");
    assert!(
        step.is_power_of_two() && DATA_BYTES.is_multiple_of(step),
        "step must be a power of two dividing 64, got {step}"
    );
    let preferred = preferred / step * step;
    let slots = if slide { DATA_BYTES / step } else { 1 };
    (0..slots)
        .map(|slot| (preferred + slot * step) % DATA_BYTES)
        .find(|&offset| fits(offset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_ecc::Ecp;
    use pcm_util::fault::StuckAt;
    use pcm_util::seeded_rng;

    #[test]
    fn place_extract_round_trip_wrapped() {
        let mut rng = seeded_rng(101);
        let base = Line512::random(&mut rng);
        let payload: Vec<u8> = (0..20).map(|i| i as u8 * 3).collect();
        for offset in [0usize, 10, 50, 63] {
            let placed = place(&base, offset, &payload);
            assert_eq!(extract(&placed, offset, 20), payload);
            // Bytes outside the window unchanged.
            let mask = window_mask(offset, 20);
            assert_eq!(placed & !mask, base & !mask);
        }
    }

    #[test]
    fn find_offset_prefers_preferred() {
        let ecp = Ecp::new(6);
        let faults = FaultMap::new();
        assert_eq!(find_offset(&ecp, &faults, 16, 37, 1), Some(37));
    }

    #[test]
    fn find_offset_slides_past_fault_cluster() {
        let ecp = Ecp::new(6);
        // 8 faults in byte 0: infeasible for any window containing byte 0.
        let faults: FaultMap = (0..8u16).map(|pos| StuckAt { pos, value: true }).collect();
        let offset = find_offset(&ecp, &faults, 16, 0, 1).unwrap();
        // The window [offset, offset+16) must not contain byte 0.
        assert!(offset >= 1 && offset <= 48, "offset {offset}");
    }

    #[test]
    fn coarse_step_restricts_offsets() {
        let ecp = Ecp::new(6);
        // 8 faults in byte 0..1 kill any window containing them.
        let faults: FaultMap = (0..8u16).map(|pos| StuckAt { pos, value: true }).collect();
        let fine = find_offset(&ecp, &faults, 16, 0, 1).unwrap();
        let coarse = find_offset(&ecp, &faults, 16, 0, 8).unwrap();
        assert_eq!(
            fine, 1,
            "byte-granular search lands right after the cluster"
        );
        assert_eq!(coarse, 8, "8-byte grid must skip to the next slot");
        assert_eq!(coarse % 8, 0);
    }

    #[test]
    fn coarse_step_rounds_preferred_down() {
        let ecp = Ecp::new(6);
        let faults = FaultMap::new();
        assert_eq!(find_offset(&ecp, &faults, 8, 19, 4), Some(16));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_step() {
        find_offset(&Ecp::new(6), &FaultMap::new(), 8, 0, 3);
    }

    #[test]
    fn find_offset_none_when_line_saturated() {
        let ecp = Ecp::new(6);
        // 7 faults in every 8-byte stretch: any 16-byte window has >6.
        let faults: FaultMap = (0..512u16)
            .step_by(1)
            .take(512)
            .map(|pos| StuckAt { pos, value: false })
            .collect();
        assert_eq!(find_offset(&ecp, &faults, 16, 0, 1), None);
    }

    #[test]
    fn full_line_window_only_depends_on_total() {
        let ecp = Ecp::new(6);
        let few: FaultMap = (0..6u16)
            .map(|i| StuckAt {
                pos: i * 80,
                value: true,
            })
            .collect();
        assert!(find_offset(&ecp, &few, 64, 0, 1).is_some());
        let many: FaultMap = (0..7u16)
            .map(|i| StuckAt {
                pos: i * 70,
                value: true,
            })
            .collect();
        assert_eq!(find_offset(&ecp, &many, 64, 0, 1), None);
    }
}
