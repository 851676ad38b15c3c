//! The common interface of hard-error tolerance schemes.

use pcm_util::fault::FaultMap;
use pcm_util::Line512;
use std::fmt;

/// Error returned when a scheme cannot store data over the given faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EccError {
    /// More faults than the scheme can mask for this data.
    TooManyFaults {
        /// Name of the scheme that gave up.
        scheme: &'static str,
        /// Number of faults it was asked to cover.
        faults: u32,
    },
}

impl fmt::Display for EccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EccError::TooManyFaults { scheme, faults } => {
                write!(f, "{scheme} cannot mask {faults} faulty cells")
            }
        }
    }
}

impl std::error::Error for EccError {}

/// A hard-error tolerance scheme for a 512-bit memory line.
///
/// The central question a scheme answers for the compression-window
/// controller is [`can_store`](Self::can_store): given the faulty cell
/// positions that fall *inside the written region*, can the scheme mask
/// them for **any** data value? (Cells outside the compression window are
/// don't-care: nothing is read from them.)
///
/// Implementations also expose their deterministic guarantee and their
/// metadata footprint in the 64-bit ECC-chip budget.
pub trait HardErrorScheme: Send + Sync {
    /// Human-readable name (e.g. `"ECP-6"`).
    fn name(&self) -> &'static str;

    /// Number of faults the scheme corrects *deterministically*, regardless
    /// of position.
    fn guaranteed(&self) -> u32;

    /// Metadata bits consumed in the per-line 64-bit ECC-chip region.
    fn metadata_bits(&self) -> u32;

    /// Returns `true` if a line whose written region contains faulty cells
    /// at exactly `fault_positions` (bit indices in `0..512`) can store any
    /// data value.
    ///
    /// Positions keep their *physical* indices even when the written region
    /// is a small compression window — partition-based schemes partition
    /// physical positions.
    fn can_store(&self, fault_positions: &[u16]) -> bool;

    /// Payload-transform tag bits this scheme stores per line, *on top of*
    /// [`metadata_bits`](Self::metadata_bits)' correction state. Zero for
    /// plain correction schemes; coset coding spends its spare budget here.
    fn transform_bits(&self) -> u32 {
        0
    }

    /// Transforms the payload before it is written: given the intended
    /// `target` line, the currently `stored` physical line, the active
    /// compression-window `window_mask`, and the line's `faults`, returns
    /// the line to actually store plus a transform tag (must fit
    /// [`transform_bits`](Self::transform_bits)). The default is the
    /// identity transform with tag 0.
    ///
    /// Only bits inside `window_mask` reach the cells; the tag must be
    /// enough to invert the transform on those bits alone.
    fn encode_payload(
        &self,
        target: &Line512,
        stored: &Line512,
        window_mask: &Line512,
        faults: &FaultMap,
    ) -> (Line512, u16) {
        let _ = (stored, window_mask, faults);
        (*target, 0)
    }

    /// Inverts [`encode_payload`](Self::encode_payload) on a corrected
    /// line, recovering the original payload from the stored transform tag.
    fn decode_payload(&self, corrected: &Line512, tag: u16) -> Line512 {
        let _ = tag;
        *corrected
    }
}

impl fmt::Debug for dyn HardErrorScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HardErrorScheme({})", self.name())
    }
}

/// Finds the lowest byte-aligned compression-window offset at which a
/// `window_bytes`-byte payload can be stored despite the line's faults —
/// the *sliding window* search of the paper's Comp+WF design (§III-A).
///
/// `fault_positions` must be sorted ascending (bit indices in `0..512`).
/// Returns the byte offset of the first feasible window, or `None` when the
/// line is dead for this payload size.
///
/// # Examples
///
/// ```
/// use pcm_ecc::{find_window, Ecp};
///
/// // Ten faults packed into the first byte: a 16-byte window must slide
/// // past them.
/// let faults: Vec<u16> = (0..8).collect();
/// let offset = find_window(&Ecp::new(6), &faults, 16).unwrap();
/// assert_eq!(offset, 1);
/// ```
///
/// # Panics
///
/// Panics if `window_bytes` is 0 or greater than 64.
pub fn find_window(
    scheme: &dyn HardErrorScheme,
    fault_positions: &[u16],
    window_bytes: usize,
) -> Option<usize> {
    assert!(
        (1..=pcm_util::DATA_BYTES).contains(&window_bytes),
        "window must be 1..=64 bytes, got {window_bytes}"
    );
    debug_assert!(
        fault_positions.windows(2).all(|w| w[0] <= w[1]),
        "positions must be sorted"
    );
    for offset in 0..=(pcm_util::DATA_BYTES - window_bytes) {
        let lo = (offset * 8) as u16;
        let hi = ((offset + window_bytes) * 8) as u16;
        let start = fault_positions.partition_point(|&p| p < lo);
        let end = fault_positions.partition_point(|&p| p < hi);
        if scheme.can_store(&fault_positions[start..end]) {
            return Some(offset);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = EccError::TooManyFaults {
            scheme: "ECP-6",
            faults: 9,
        };
        assert_eq!(e.to_string(), "ECP-6 cannot mask 9 faulty cells");
    }
}
