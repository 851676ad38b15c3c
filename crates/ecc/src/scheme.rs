//! The common interface of hard-error tolerance schemes.

use pcm_util::fault::FaultMap;
use pcm_util::{Line512, DATA_BITS};
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
    /// of position: [`can_store`](Self::can_store) accepts every set of at
    /// most this many positions, and [`find_window`] skips the call for
    /// such windows.
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
    ///
    /// The answer is a pure function of the position set: it depends on
    /// nothing but `fault_positions` (ascending and distinct when the
    /// controller asks), not on the data, the stuck values or any earlier
    /// call. A line's placement memo relies on this to answer a window it
    /// has already probed without asking again.
    ///
    /// The answer is also subset-closed: if a position set is storable,
    /// so is every subset of it. Five pieces of code rely on this:
    ///
    /// * the window controller: a window that holds a payload holds any
    ///   shorter payload at the same offset, so one resurrection check on
    ///   the smallest payload form answers for every form;
    /// * the line's placement memo: when a fault arrives, a window that
    ///   did not fit still does not, so only the fitting windows over the
    ///   new fault's byte are asked again;
    /// * [`unstorable_suffix`](Self::unstorable_suffix): a failing set
    ///   names one unstorable part of itself, and every superset of that
    ///   part fails too;
    /// * [`find_window`]: after a window fails, it skips every later
    ///   offset whose window still covers that unstorable part;
    /// * the Fig. 9 Monte-Carlo ([`crate::montecarlo::failure_surface`]):
    ///   it scores window sizes narrowest first, starts each wider size's
    ///   search at the narrower size's first fit, and stops at the first
    ///   size with no fit, counting every wider size as failed.
    fn can_store(&self, fault_positions: &[u16]) -> bool;

    /// [`can_store`](Self::can_store) on the positions of the set bits of
    /// `window_faults`: a window's faulty cells as a mask, as the window
    /// controller's placement probes hold them.
    ///
    /// The default lists the positions and calls `can_store`, so a
    /// wrapper that has only `can_store` sees every probe. A scheme whose
    /// answer needs less than the list overrides it: ECP only counts the
    /// faults and SECDED checks at most one per 64-bit word.
    fn can_store_mask(&self, window_faults: &Line512) -> bool {
        let mut buf = [0u16; DATA_BITS];
        self.can_store(window_faults.ones_into(&mut buf))
    }

    /// Returns `None` exactly when [`can_store`](Self::can_store) accepts
    /// `fault_positions`, and otherwise `Some(s)` such that
    /// `fault_positions[s..]` cannot be stored either. The larger `s`, the
    /// shorter that suffix and the further [`find_window`] skips past a
    /// failing window.
    ///
    /// Every in-tree scheme answers with the *shortest* unstorable suffix,
    /// from one scan that runs from the highest fault down and stops as
    /// soon as the faults seen so far cannot be stored. Since the empty
    /// set is storable (it holds at most [`guaranteed`](Self::guaranteed)
    /// faults), `s` is always below `fault_positions.len()`.
    ///
    /// The default, `(!self.can_store(p)).then_some(0)`, names the whole
    /// set. It is exact for any implementor that has only `can_store`,
    /// such as a wrapper that counts `can_store` calls; through it,
    /// [`find_window`] probes the same offsets, in the same order, as a
    /// search that knows only `can_store`.
    fn unstorable_suffix(&self, fault_positions: &[u16]) -> Option<usize> {
        (!self.can_store(fault_positions)).then_some(0)
    }

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
/// the *sliding window* search of the paper's Comp+WF design (§III-A),
/// and the verdict of one Fig. 9 fault injection.
///
/// `fault_positions` must be sorted ascending (bit indices in `0..512`).
/// Returns the byte offset of the first feasible window, or `None` when the
/// line is dead for this payload size.
///
/// A window holding at most [`guaranteed`](HardErrorScheme::guaranteed)
/// faults is feasible by the trait contract (deterministic correction
/// regardless of position), so it is accepted without asking the scheme.
///
/// Any other window's faults go to
/// [`unstorable_suffix`](HardErrorScheme::unstorable_suffix). When it
/// answers `Some(s)`, the window's faults from index `s` on cannot be
/// stored; that suffix is not empty, because the empty set holds at most
/// `guaranteed()` faults. Let `b` be the byte of its first fault. Every
/// later window that starts at or before `b` covers the suffix: it
/// starts at or before `b` and ends after the failed window's end, past
/// the suffix's last fault. So it fails too, by subset closure
/// ([`can_store`](HardErrorScheme::can_store)). The search therefore
/// resumes at byte `b + 1`, and the returned offset is still the one a
/// plain per-offset scan returns.
///
/// # Examples
///
/// ```
/// use pcm_ecc::{find_window, Ecp};
///
/// // Eight faults fill the first byte: a 16-byte window must slide past
/// // them.
/// let faults: Vec<u16> = (0..8).collect();
/// let offset = find_window(&Ecp::new(6), &faults, 16).unwrap();
/// assert_eq!(offset, 1);
/// ```
///
/// # Panics
///
/// Panics if `window_bytes` is 0 or greater than 64.
// pcm-audit: root(hotpath-alloc) — per-injection window search of the Fig. 9 Monte-Carlo; it reads the caller's positions in place
pub fn find_window(
    scheme: &dyn HardErrorScheme,
    fault_positions: &[u16],
    window_bytes: usize,
) -> Option<usize> {
    find_window_from(scheme, fault_positions, window_bytes, 0)
}

/// [`find_window`], skipping the offsets before `from`. It returns what
/// `find_window` returns whenever no window before `from` fits, as for a
/// size wider than one whose first fit is at `from`: the wider window at
/// any offset holds the narrower one at that offset (subset closure).
pub(crate) fn find_window_from(
    scheme: &dyn HardErrorScheme,
    fault_positions: &[u16],
    window_bytes: usize,
    from: usize,
) -> Option<usize> {
    assert!(
        (1..=pcm_util::DATA_BYTES).contains(&window_bytes),
        "window must be 1..=64 bytes, got {window_bytes}"
    );
    debug_assert!(
        fault_positions.windows(2).all(|w| w[0] <= w[1]),
        "positions must be sorted"
    );
    let guaranteed = scheme.guaranteed();
    let mut offset = from;
    while offset + window_bytes <= pcm_util::DATA_BYTES {
        let lo = (offset * 8) as u16;
        let hi = ((offset + window_bytes) * 8) as u16;
        let start = fault_positions.partition_point(|&p| p < lo);
        let end = fault_positions.partition_point(|&p| p < hi);
        if (end - start) as u32 <= guaranteed {
            return Some(offset);
        }
        let Some(s) = scheme.unstorable_suffix(&fault_positions[start..end]) else {
            return Some(offset);
        };
        // The suffix is not empty, so `start + s` indexes its first fault.
        debug_assert!(s < end - start, "an unstorable suffix holds a fault");
        offset = usize::from(fault_positions[start + s] / 8) + 1;
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
