//! Error-Correcting Pointers (Schechter et al., ISCA 2010).
//!
//! ECP keeps, per corrected fault, a 9-bit pointer into the 512-bit line
//! plus one replacement cell that stores the data bit the faulty cell
//! should have held. Correction happens after a read by patching the
//! pointed-to positions. ECP-*n* needs `n × 10 + 1` metadata bits (the +1
//! is the "full" bit); ECP-6's 61 bits fit the 64-bit ECC-chip budget with
//! three bits to spare — the paper uses one of them as the per-line
//! *compressed* flag.

use crate::scheme::{EccError, HardErrorScheme};
use pcm_util::fault::FaultMap;
use pcm_util::Line512;
use serde::{Deserialize, Serialize};

/// The ECP scheme, parameterized by the number of correction entries.
///
/// # Examples
///
/// ```
/// use pcm_ecc::{Ecp, HardErrorScheme};
///
/// let ecp = Ecp::new(6);
/// assert_eq!(ecp.name(), "ECP-6");
/// assert_eq!(ecp.metadata_bits(), 61);
/// assert_eq!(ecp.guaranteed(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ecp {
    entries: u32,
}

/// The per-line ECP correction state: one `(pointer, replacement)` pair per
/// covered fault, held as a mask of the pointed-to cells and the
/// replacement bits at those cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EcpCode {
    pointers: Line512,
    /// Zero outside `pointers`.
    replacements: Line512,
}

impl EcpCode {
    /// The `(position, replacement bit)` pairs in use, in position order.
    pub fn pairs(&self) -> impl Iterator<Item = (u16, bool)> + '_ {
        self.pointers
            .iter_ones()
            .map(|pos| (pos as u16, self.replacements.bit(pos)))
    }

    /// Creates a code from raw pairs (used by the metadata codec); a
    /// repeated position keeps its last replacement bit.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of range.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u16, bool)>) -> Self {
        let mut code = EcpCode::default();
        for (pos, bit) in pairs {
            code.pointers.set_bit(pos.into(), true);
            code.replacements.set_bit(pos.into(), bit);
        }
        code
    }
}

impl Ecp {
    /// Creates an ECP scheme with `entries` correction entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is 0 or more than 51 (the most that fit a 512-bit
    /// metadata budget at 10 bits per entry).
    pub fn new(entries: u32) -> Self {
        assert!(
            (1..=51).contains(&entries),
            "ECP entries must be 1..=51, got {entries}"
        );
        Ecp { entries }
    }

    /// The standard ECP-6 configuration used throughout the paper.
    pub fn ecp6() -> Self {
        Ecp::new(6)
    }

    /// Number of correction entries.
    pub fn entries(&self) -> u32 {
        self.entries
    }

    /// Stores `data` into a line with the given faults.
    ///
    /// Returns the physical line (stuck cells forced to their stuck values)
    /// and the [`EcpCode`] holding the replacement bits.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::TooManyFaults`] when the fault count exceeds the
    /// entry budget.
    pub fn write(&self, data: &Line512, faults: &FaultMap) -> Result<(Line512, EcpCode), EccError> {
        if faults.count() > self.entries {
            return Err(EccError::TooManyFaults {
                scheme: self.name(),
                faults: faults.count(),
            });
        }
        let pointers = faults.positions();
        let code = EcpCode {
            pointers,
            replacements: *data & pointers,
        };
        Ok((faults.apply(*data), code))
    }

    /// Reconstructs the original data from a physical line and its code:
    /// the replacement bits overwrite the pointed-to cells.
    pub fn read(&self, stored: &Line512, code: &EcpCode) -> Line512 {
        #[cfg(feature = "verify-mutations")]
        if crate::mutation::active() == crate::mutation::Mutation::EcpPointerOffByOne {
            let mut out = *stored;
            for (pos, bit) in code.pairs() {
                out.set_bit((usize::from(pos) + 1) % pcm_util::DATA_BITS, bit);
            }
            return out;
        }
        (*stored & !code.pointers) | code.replacements
    }
}

impl HardErrorScheme for Ecp {
    fn name(&self) -> &'static str {
        match self.entries {
            6 => "ECP-6",
            _ => "ECP",
        }
    }

    fn guaranteed(&self) -> u32 {
        self.entries
    }

    fn metadata_bits(&self) -> u32 {
        self.entries * 10 + 1
    }

    fn can_store(&self, fault_positions: &[u16]) -> bool {
        fault_positions.len() as u32 <= self.entries
    }

    fn can_store_mask(&self, window_faults: &Line512) -> bool {
        window_faults.count_ones() <= self.entries
    }

    fn unstorable_suffix(&self, fault_positions: &[u16]) -> Option<usize> {
        // Any `entries + 1` faults overflow the pointers, and no fewer do.
        fault_positions.len().checked_sub(self.entries as usize + 1)
    }
}

impl std::fmt::Display for Ecp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ECP-{}", self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_util::fault::StuckAt;
    use pcm_util::seeded_rng;

    #[test]
    fn write_read_round_trip_with_faults() {
        let mut rng = seeded_rng(21);
        let ecp = Ecp::ecp6();
        for _ in 0..64 {
            let data = Line512::random(&mut rng);
            let faults: FaultMap = [
                StuckAt {
                    pos: 0,
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
            let (stored, code) = ecp.write(&data, &faults).unwrap();
            // Stuck cells hold their stuck value physically.
            assert!(stored.bit(0));
            assert!(!stored.bit(100));
            assert!(stored.bit(511));
            assert_eq!(ecp.read(&stored, &code), data);
        }
    }

    #[test]
    fn rejects_seven_faults() {
        let ecp = Ecp::ecp6();
        let faults: FaultMap = (0..7u16)
            .map(|i| StuckAt {
                pos: i * 10,
                value: true,
            })
            .collect();
        let err = ecp.write(&Line512::zero(), &faults).unwrap_err();
        assert_eq!(
            err,
            EccError::TooManyFaults {
                scheme: "ECP-6",
                faults: 7
            }
        );
        assert!(!ecp.can_store(&[0, 10, 20, 30, 40, 50, 60]));
    }

    #[test]
    fn capacity_is_position_independent() {
        let ecp = Ecp::new(2);
        assert!(ecp.can_store(&[5, 6]));
        assert!(ecp.can_store(&[0, 511]));
        assert!(!ecp.can_store(&[1, 2, 3]));
    }

    #[test]
    fn metadata_budget() {
        assert_eq!(Ecp::ecp6().metadata_bits(), 61);
        assert!(Ecp::ecp6().metadata_bits() <= 64);
        assert_eq!(Ecp::new(12).metadata_bits(), 121);
    }

    #[test]
    #[should_panic(expected = "must be 1..=51")]
    fn rejects_zero_entries() {
        Ecp::new(0);
    }

    #[test]
    fn no_faults_is_identity() {
        let mut rng = seeded_rng(22);
        let data = Line512::random(&mut rng);
        let ecp = Ecp::ecp6();
        let (stored, code) = ecp.write(&data, &FaultMap::new()).unwrap();
        assert_eq!(stored, data);
        assert_eq!(code.pairs().count(), 0);
        assert_eq!(ecp.read(&stored, &code), data);
    }
}
