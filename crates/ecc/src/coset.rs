//! Fine-grain restricted coset coding over ECP-6
//! (Seyedzadeh et al., arXiv:1711.08572).
//!
//! Coset coding stores one of several equivalent *candidate vectors* —
//! the payload XORed with a coset mask — and records which mask was used
//! in a small tag. Picking the candidate that (a) flips the fewest cells
//! relative to the line's current contents and (b) agrees with the most
//! stuck cells both extends endurance (fewer flips per write) and eases
//! the correction scheme's job. The *restricted* variant keeps the tag
//! tiny: here 3 bits, exactly the slack ECP-6 leaves in the 64-bit
//! ECC-chip budget (61 + 3 = 64) — the collaborative-budget idea applied
//! to coset selection instead of stronger pointers.
//!
//! The three generators partition the line's eight 64-bit words
//! round-robin (word `w` belongs to generator `w mod 3`); the eight masks
//! are the XOR combinations, so tag 0 is the identity and tag 7 inverts
//! the whole line. Selection scores each candidate on the bits inside the
//! active compression window only — everything outside is never written.

use crate::ecp::{Ecp, EcpCode};
use crate::scheme::{EccError, HardErrorScheme};
use pcm_util::fault::FaultMap;
use pcm_util::Line512;

/// Extra cost charged per stuck cell a candidate disagrees with, in
/// flip-equivalents. High enough that selection steers writes toward
/// agreeing with faulty cells when the flip counts are close.
const MISMATCH_PENALTY: u32 = 16;

/// Restricted coset coding layered over ECP-6.
///
/// # Examples
///
/// ```
/// use pcm_ecc::{Coset, HardErrorScheme};
///
/// let coset = Coset::new();
/// assert_eq!(coset.metadata_bits(), 64); // 61 ECP + 3 tag bits
/// assert_eq!(coset.transform_bits(), 3);
/// assert_eq!(coset.guaranteed(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct Coset {
    inner: Ecp,
    /// The eight coset masks, indexed by tag.
    masks: [Line512; 8],
}

impl Coset {
    /// Creates the restricted coset scheme (3 tag bits over ECP-6).
    pub fn new() -> Self {
        let generators: [Line512; 3] =
            std::array::from_fn(|g| Line512::from_fn(|bit| (bit / 64) % 3 == g));
        let masks = std::array::from_fn(|tag| {
            let mut m = Line512::zero();
            for (g, generator) in generators.iter().enumerate() {
                if tag & (1 << g) != 0 {
                    m = m ^ *generator;
                }
            }
            m
        });
        Coset {
            inner: Ecp::new(6),
            masks,
        }
    }

    /// The coset mask for a tag.
    ///
    /// # Panics
    ///
    /// Panics if `tag >= 8`.
    pub fn mask(&self, tag: u16) -> Line512 {
        self.masks[tag as usize]
    }

    /// The underlying pointer-correction scheme.
    pub fn inner(&self) -> &Ecp {
        &self.inner
    }

    /// Scores candidate `tag` for writing `target` over `stored`:
    /// `flips + MISMATCH_PENALTY × stuck-cell disagreements`, counted
    /// inside the window only.
    fn cost(
        &self,
        tag: u16,
        target: &Line512,
        stored: &Line512,
        window_mask: &Line512,
        faults: &FaultMap,
    ) -> u32 {
        let candidate = *target ^ self.masks[tag as usize];
        let written = faults.apply(candidate);
        let flips = ((written ^ *stored) & *window_mask).count_ones();
        let mismatches = ((written ^ candidate) & *window_mask).count_ones();
        flips + MISMATCH_PENALTY * mismatches
    }

    /// Stores `data` (already coset-transformed) like ECP-6 does.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::TooManyFaults`] when the fault count exceeds
    /// the ECP entry budget.
    pub fn write(&self, data: &Line512, faults: &FaultMap) -> Result<(Line512, EcpCode), EccError> {
        self.inner.write(data, faults)
    }

    /// Reconstructs the transformed line from a physical line and its code
    /// (apply [`decode_payload`](HardErrorScheme::decode_payload) after).
    pub fn read(&self, stored: &Line512, code: &EcpCode) -> Line512 {
        self.inner.read(stored, code)
    }
}

impl Default for Coset {
    fn default() -> Self {
        Coset::new()
    }
}

impl HardErrorScheme for Coset {
    fn name(&self) -> &'static str {
        "Coset-ECP6"
    }

    fn guaranteed(&self) -> u32 {
        self.inner.guaranteed()
    }

    fn metadata_bits(&self) -> u32 {
        self.inner.metadata_bits() + self.transform_bits()
    }

    fn can_store(&self, fault_positions: &[u16]) -> bool {
        self.inner.can_store(fault_positions)
    }

    fn unstorable_suffix(&self, fault_positions: &[u16]) -> Option<usize> {
        self.inner.unstorable_suffix(fault_positions)
    }

    fn transform_bits(&self) -> u32 {
        3
    }

    fn encode_payload(
        &self,
        target: &Line512,
        stored: &Line512,
        window_mask: &Line512,
        faults: &FaultMap,
    ) -> (Line512, u16) {
        let mut best_tag = 0u16;
        let mut best_cost = self.cost(0, target, stored, window_mask, faults);
        for tag in 1..8u16 {
            let cost = self.cost(tag, target, stored, window_mask, faults);
            if cost < best_cost {
                best_cost = cost;
                best_tag = tag;
            }
        }
        (*target ^ self.masks[best_tag as usize], best_tag)
    }

    fn decode_payload(&self, corrected: &Line512, tag: u16) -> Line512 {
        *corrected ^ self.masks[tag as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_util::fault::StuckAt;
    use pcm_util::{seeded_rng, DATA_BYTES};
    use rand::Rng;

    fn full_mask() -> Line512 {
        Line512::byte_window_mask(0, DATA_BYTES)
    }

    #[test]
    fn masks_form_a_group_and_cover_the_line() {
        let c = Coset::new();
        assert!(c.mask(0).is_zero(), "tag 0 is the identity");
        assert_eq!(c.mask(7).count_ones(), 512, "tag 7 inverts everything");
        for a in 0..8u16 {
            for b in 0..8u16 {
                assert_eq!(c.mask(a) ^ c.mask(b), c.mask(a ^ b));
            }
        }
    }

    #[test]
    fn round_trip_through_ecp_and_tag() {
        let c = Coset::new();
        let mut rng = seeded_rng(31);
        for _ in 0..64 {
            let target = Line512::random(&mut rng);
            let stored = Line512::random(&mut rng);
            let faults: FaultMap = (0..5)
                .map(|_| StuckAt {
                    pos: (rng.next_u64() % 512) as u16,
                    value: rng.next_u64() & 1 == 1,
                })
                .collect();
            let (transformed, tag) = c.encode_payload(&target, &stored, &full_mask(), &faults);
            assert!(tag < 8);
            let (phys, code) = c.write(&transformed, &faults).unwrap();
            let corrected = c.read(&phys, &code);
            assert_eq!(c.decode_payload(&corrected, tag), target);
        }
    }

    #[test]
    fn golden_inverted_line_selects_the_full_mask() {
        // Target all-zeros over a stored all-ones line: tag 7 (invert
        // everything) stores the line verbatim with zero flips.
        let c = Coset::new();
        let target = Line512::zero();
        let stored = !Line512::zero();
        let (transformed, tag) = c.encode_payload(&target, &stored, &full_mask(), &FaultMap::new());
        assert_eq!(tag, 7);
        assert_eq!(transformed, stored, "chosen candidate rewrites nothing");
        assert_eq!(c.decode_payload(&transformed, tag), target);
    }

    #[test]
    fn golden_identity_when_nothing_to_gain() {
        // Writing a line over itself: tag 0 has zero cost and wins ties.
        let c = Coset::new();
        let mut rng = seeded_rng(33);
        let target = Line512::random(&mut rng);
        let (transformed, tag) = c.encode_payload(&target, &target, &full_mask(), &FaultMap::new());
        assert_eq!(tag, 0);
        assert_eq!(transformed, target);
    }

    #[test]
    fn golden_stuck_cells_steer_selection_away_from_conflicts() {
        // Window = word 0. Four cells stuck at 0 conflict with the
        // all-ones target: writing it verbatim costs 0 flips but 4
        // conflicts; the inverted candidate (tag 1 on word 0) costs 60
        // flips and no conflicts. With the mismatch penalty the inverted
        // vector wins — selection dodges the faulty cells.
        let c = Coset::new();
        let window = Line512::byte_window_mask(0, 8);
        let faults: FaultMap = (0..4u16).map(|pos| StuckAt { pos, value: false }).collect();
        // Stored state: the previous all-ones write, stuck cells reading 0.
        let stored = faults.apply(!Line512::zero());
        let target = !Line512::zero();
        let (transformed, tag) = c.encode_payload(&target, &stored, &window, &faults);
        assert_eq!(tag, 1, "inverted word-0 candidate avoids the stuck cells");
        // In-window bits are inverted; the candidate agrees with every
        // stuck cell, so nothing is written against a fault.
        for pos in 0..4usize {
            assert!(!transformed.bit(pos), "stuck-at-0 cell written with 1");
        }
        let (phys, code) = c.write(&transformed, &faults).unwrap();
        assert_eq!(
            c.decode_payload(&c.read(&phys, &code), tag),
            target,
            "payload round-trips through the stuck cells"
        );
    }

    #[test]
    fn golden_out_of_window_state_is_ignored() {
        // Tags whose masks only differ outside the window cost the same;
        // the lowest tag must win for deterministic metadata.
        let c = Coset::new();
        let window = Line512::byte_window_mask(0, 8); // word 0 only
        let target = Line512::zero();
        let stored = Line512::zero();
        // Tags 0, 2, 4, 6 are in-window identical (generators 1 and 2
        // do not touch word 0): tag 0 must be chosen.
        let (_, tag) = c.encode_payload(&target, &stored, &window, &FaultMap::new());
        assert_eq!(tag, 0);
    }

    #[test]
    fn metadata_fits_the_ecc_chip_budget_exactly() {
        let c = Coset::new();
        assert_eq!(c.metadata_bits(), 64);
        assert_eq!(c.transform_bits(), 3);
        assert_eq!(c.name(), "Coset-ECP6");
    }
}
