//! SECDED — Single Error Correction, Double Error Detection — the DRAM
//! incumbent the paper argues *against* for PCM (§II-C).
//!
//! An ECC-DIMM gives 8 check bits per 64 data bits; the classic code is an
//! extended Hamming (72,64): a 7-bit syndrome locates any single flipped
//! bit, an overall parity bit distinguishes single (correctable) from
//! double (detectable only) errors. We implement the full codec and wire
//! it into the [`HardErrorScheme`] interface so lifetime campaigns can
//! quantify the paper's two objections:
//!
//! 1. **SECDED is write-intensive** — every data update rewrites check
//!    bits, so the ECC chip wears as fast as the data chips;
//! 2. **PCM faults accumulate** — SECDED corrects one error per 64-bit
//!    word, so the *second* stuck cell landing in any word kills the line,
//!    whereas ECP-6/SAFER/Aegis keep absorbing faults.
//!
//! For scheme comparability, `write`/`read` here protect the 512 data
//! cells (check bits live on the ninth chip, modelled as healthy — the
//! same assumption the ECP/SAFER/Aegis implementations make about their
//! metadata).

use crate::scheme::{EccError, HardErrorScheme};
use pcm_util::fault::FaultMap;
use pcm_util::Line512;
use serde::{Deserialize, Serialize};

/// Number of 64-bit words per line.
const WORDS: usize = 8;

/// The SECDED scheme over eight (72,64) codewords per line.
///
/// # Examples
///
/// ```
/// use pcm_ecc::{HardErrorScheme, Secded};
///
/// let secded = Secded::new();
/// assert!(secded.can_store(&[0, 64, 128]));   // one fault per word
/// assert!(!secded.can_store(&[0, 1]));        // two faults in word 0
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Secded;

/// The eight 8-bit check words of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecdedCode {
    /// `check[w]` protects data word `w`.
    pub check: [u8; WORDS],
}

impl Secded {
    /// Creates the scheme.
    pub fn new() -> Self {
        Secded
    }

    /// Encodes one 64-bit word into its 8 check bits.
    ///
    /// Codeword positions `1..72` use the extended-Hamming layout: check
    /// bits at powers of two (1, 2, 4, 8, 16, 32, 64), the overall parity
    /// at position 0, data bits filling the rest in order.
    pub fn encode_word(data: u64) -> u8 {
        let mut check = 0u8;
        for (i, &p) in CHECK_POSITIONS.iter().enumerate() {
            let mut parity = false;
            for (idx, &pos) in DATA_POSITIONS.iter().enumerate() {
                if (data >> idx) & 1 == 1 && pos & p != 0 {
                    parity = !parity;
                }
            }
            if parity {
                check |= 1 << i;
            }
        }
        // Overall parity over data + the 7 Hamming bits.
        if (data.count_ones() + (check & 0x7F).count_ones()) & 1 == 1 {
            check |= 0x80;
        }
        check
    }

    /// Decodes one word: corrects a single-bit data error, reports double
    /// errors.
    ///
    /// # Errors
    ///
    /// Returns [`WordError::Uncorrectable`] when the syndrome indicates a
    /// double error.
    pub fn decode_word(stored: u64, check: u8) -> Result<u64, WordError> {
        // Syndrome: recomputed Hamming bits against the *received* ones.
        let recomputed = Secded::encode_word(stored) & 0x7F;
        let syndrome_bits = (recomputed ^ check) & 0x7F;
        // Overall parity of the received codeword (data + check bits +
        // parity bit); even when error-free, odd after any single flip.
        let total = stored.count_ones() + (check & 0x7F).count_ones() + ((check >> 7) & 1) as u32;
        let parity_mismatch = total & 1 == 1;
        // Reconstruct the 7-bit syndrome as a codeword position.
        let mut syndrome = 0usize;
        for (i, &p) in CHECK_POSITIONS.iter().enumerate() {
            if syndrome_bits & (1 << i) != 0 {
                syndrome |= p;
            }
        }
        match (syndrome, parity_mismatch) {
            (0, false) => Ok(stored),
            (0, true) => Ok(stored), // error in the parity bit itself
            (s, true) => {
                // Single error at codeword position s: flip if it is a
                // data position (errors in check bits need no data fix).
                if let Some(bit) = data_index_of_position(s) {
                    Ok(stored ^ (1u64 << bit))
                } else {
                    Ok(stored)
                }
            }
            (_, false) => Err(WordError::Uncorrectable),
        }
    }

    /// Stores a line: stuck cells keep their values, the code remembers
    /// the check bits of the *intended* data.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::TooManyFaults`] if any 64-bit word holds more
    /// than one fault whose stuck value disagrees with the data... in the
    /// worst case; the data-independent guarantee is one fault per word.
    pub fn write(
        &self,
        data: &Line512,
        faults: &FaultMap,
    ) -> Result<(Line512, SecdedCode), EccError> {
        let stored = faults.apply(*data);
        // A word is unreadable only when more than one of its faults
        // *disagrees* with the data (agreeing stuck cells cost nothing);
        // the disagreeing cells are exactly where applying the faults
        // changed the data.
        let mismatch = *data ^ stored;
        if mismatch.words().iter().any(|w| w.count_ones() > 1) {
            return Err(EccError::TooManyFaults {
                scheme: self.name(),
                faults: faults.count(),
            });
        }
        let check = std::array::from_fn(|w| Secded::encode_word(data.words()[w]));
        Ok((stored, SecdedCode { check }))
    }

    /// Reads a line back, correcting one wrong bit per word.
    pub fn read(&self, stored: &Line512, code: &SecdedCode) -> Line512 {
        let mut words = stored.words();
        for (w, word) in words.iter_mut().enumerate() {
            if let Ok(fixed) = Secded::decode_word(*word, code.check[w]) {
                *word = fixed;
            }
        }
        Line512::from_words(words)
    }
}

/// Decode failure of one codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordError {
    /// Two or more flipped bits: detected, not correctable.
    Uncorrectable,
}

impl std::fmt::Display for WordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "secded double error detected")
    }
}

impl std::error::Error for WordError {}

/// Check-bit codeword positions (powers of two).
const CHECK_POSITIONS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Codeword position of each data-bit index: the non-power-of-two
/// positions of `3..72`, in order.
const DATA_POSITIONS: [usize; 64] = build_data_positions();

const fn build_data_positions() -> [usize; 64] {
    let mut table = [0usize; 64];
    let mut idx = 0;
    let mut pos = 3;
    while pos < 72 {
        if !(pos as u64).is_power_of_two() {
            table[idx] = pos;
            idx += 1;
        }
        pos += 1;
    }
    table
}

/// Maps data-bit index (0..64) to codeword position.
#[cfg_attr(not(test), allow(dead_code))]
fn position_of_data_index(index: usize) -> usize {
    DATA_POSITIONS[index]
}

/// Inverse of [`position_of_data_index`] (`None` for check/parity
/// positions).
fn data_index_of_position(pos: usize) -> Option<usize> {
    DATA_POSITIONS.iter().position(|&p| p == pos)
}

impl HardErrorScheme for Secded {
    fn name(&self) -> &'static str {
        "SECDED"
    }

    fn guaranteed(&self) -> u32 {
        // Two faults can land in the same 64-bit word.
        1
    }

    fn metadata_bits(&self) -> u32 {
        64
    }

    fn can_store(&self, fault_positions: &[u16]) -> bool {
        self.unstorable_suffix(fault_positions).is_none()
    }

    fn can_store_mask(&self, window_faults: &Line512) -> bool {
        // One check byte per 64-bit word corrects one fault in it.
        window_faults.words().iter().all(|w| w.count_ones() <= 1)
    }

    fn unstorable_suffix(&self, fault_positions: &[u16]) -> Option<usize> {
        // From the highest fault down, one bit per 64-bit word that
        // already holds a fault: the first fault landing in a marked word
        // starts the shortest suffix with two faults in one word.
        let mut seen = 0u8;
        for (i, &pos) in fault_positions.iter().enumerate().rev() {
            let word = 1u8 << (pos / 64);
            if seen & word != 0 {
                return Some(i);
            }
            seen |= word;
        }
        None
    }
}

impl std::fmt::Display for Secded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SECDED")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_util::fault::StuckAt;
    use pcm_util::seeded_rng;
    use rand::RngExt;

    #[test]
    fn clean_words_decode_clean() {
        let mut rng = seeded_rng(61);
        for _ in 0..200 {
            let data: u64 = rng.random();
            let check = Secded::encode_word(data);
            assert_eq!(Secded::decode_word(data, check), Ok(data));
        }
    }

    #[test]
    fn every_single_bit_error_is_corrected() {
        let mut rng = seeded_rng(62);
        for _ in 0..20 {
            let data: u64 = rng.random();
            let check = Secded::encode_word(data);
            for bit in 0..64 {
                let corrupted = data ^ (1u64 << bit);
                assert_eq!(
                    Secded::decode_word(corrupted, check),
                    Ok(data),
                    "bit {bit} of {data:#x}"
                );
            }
        }
    }

    #[test]
    fn double_bit_errors_are_detected() {
        let mut rng = seeded_rng(63);
        let mut detected = 0;
        let mut trials = 0;
        for _ in 0..20 {
            let data: u64 = rng.random();
            let check = Secded::encode_word(data);
            for (a, b) in [(0usize, 1usize), (5, 40), (62, 63), (10, 33)] {
                let corrupted = data ^ (1u64 << a) ^ (1u64 << b);
                trials += 1;
                if Secded::decode_word(corrupted, check) == Err(WordError::Uncorrectable) {
                    detected += 1;
                }
            }
        }
        assert_eq!(detected, trials, "SECDED must detect all double errors");
    }

    #[test]
    fn position_maps_are_inverse() {
        for idx in 0..64 {
            let pos = position_of_data_index(idx);
            assert_eq!(data_index_of_position(pos), Some(idx));
        }
        assert_eq!(data_index_of_position(1), None);
        assert_eq!(data_index_of_position(64), None);
    }

    #[test]
    fn line_write_read_round_trip_with_one_fault_per_word() {
        let mut rng = seeded_rng(64);
        let secded = Secded::new();
        let faults: FaultMap = (0..8u16)
            .map(|w| StuckAt {
                pos: w * 64 + (w * 7) % 64,
                value: w % 2 == 0,
            })
            .collect();
        for _ in 0..32 {
            let data = Line512::random(&mut rng);
            let (stored, code) = secded.write(&data, &faults).unwrap();
            for f in faults.iter() {
                assert_eq!(stored.bit(f.pos as usize), f.value);
            }
            assert_eq!(secded.read(&stored, &code), data);
        }
    }

    #[test]
    fn second_fault_in_a_word_is_fatal() {
        let secded = Secded::new();
        assert!(!secded.can_store(&[3, 60]));
        // ...unless the data happens to agree with the stuck values.
        let faults: FaultMap = [
            StuckAt {
                pos: 3,
                value: false,
            },
            StuckAt {
                pos: 60,
                value: false,
            },
        ]
        .into_iter()
        .collect();
        assert!(secded.write(&Line512::zero(), &faults).is_ok());
        assert!(secded.write(&Line512::ones(), &faults).is_err());
    }

    #[test]
    fn guarantee_is_one() {
        let s = Secded::new();
        assert_eq!(s.guaranteed(), 1);
        assert_eq!(s.metadata_bits(), 64);
        assert_eq!(s.to_string(), "SECDED");
    }
}
