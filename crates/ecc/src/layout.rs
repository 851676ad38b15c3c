//! Packed metadata codecs: proof that every scheme's per-line state fits
//! the 64-bit ECC-chip budget of an ECC-DIMM (paper §II-A, §III-B).
//!
//! | scheme      | layout                                              | bits |
//! |-------------|-----------------------------------------------------|------|
//! | ECP-6       | 6 × (9-bit pointer + 1 replacement bit) + count     | 61   |
//! | SAFER-32    | 7-bit subset index + 32 inversion bits              | 39   |
//! | Aegis 17×31 | 5-bit partition id + 31 inversion bits              | 36   |
//!
//! ECP-6 leaves three spare bits; the paper dedicates one of them to the
//! per-line *compressed* flag, so compression metadata costs no extra
//! storage on the ECC chip.
//!
//! Each code type is a fixed-size `Copy` value that mirrors its layout, so
//! writing one allocates nothing and packing it is a few shifts:
//! [`AegisCode`] is the partition id and a `u32` of inversion bits,
//! [`SaferCode`] the subset mask and a 256-bit set of inversion bits, and
//! [`EcpCode`] a mask of the pointed-to cells beside their replacement
//! bits.

use crate::aegis::AegisCode;
use crate::ecp::EcpCode;
use crate::safer::SaferCode;

/// Bits used by the packed ECP-6 code.
pub const ECP6_BITS: u32 = 61;
/// Bits used by the packed SAFER-32 code.
pub const SAFER32_BITS: u32 = 39;
/// Bits used by the packed Aegis 17×31 code.
pub const AEGIS_17X31_BITS: u32 = 36;

/// Error returned when unpacking malformed metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnpackError(pub &'static str);

impl std::fmt::Display for UnpackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "metadata unpack failed: {}", self.0)
    }
}

impl std::error::Error for UnpackError {}

/// Packs an ECP-6 code into its 61-bit layout:
/// `count (3 bits) << 60 | entries`, where entry `i` (in position order)
/// sits at bit `i * 10` as a 9-bit pointer above its replacement bit.
///
/// # Errors
///
/// Returns [`UnpackError`] if more than six pairs are present.
pub fn pack_ecp6(code: &EcpCode) -> Result<u64, UnpackError> {
    let count = code.pairs().count();
    if count > 6 {
        return Err(UnpackError("ECP-6 holds at most six entries"));
    }
    Ok(code
        .pairs()
        .enumerate()
        .fold((count as u64) << 60, |word, (i, (pos, bit))| {
            word | (u64::from(pos) << 1 | u64::from(bit)) << (i * 10)
        }))
}

/// Unpacks a 61-bit ECP-6 code.
///
/// # Errors
///
/// Returns [`UnpackError`] if the count field exceeds six.
pub fn unpack_ecp6(word: u64) -> Result<EcpCode, UnpackError> {
    let count = (word >> 60) as usize;
    if count > 6 {
        return Err(UnpackError("ECP-6 count field exceeds six"));
    }
    Ok(EcpCode::from_pairs((0..count).map(|i| {
        let entry = word >> (i * 10);
        ((entry >> 1 & 0x1FF) as u16, entry & 1 == 1)
    })))
}

/// Packs a SAFER-32 code: subset index (7 bits, an index into the canonical
/// ordering of the 126 subsets) then 32 inversion bits.
///
/// # Errors
///
/// Returns [`UnpackError`] if the subset mask is not a valid 5-of-9 mask or
/// an inversion bit lies past group 31.
pub fn pack_safer32(code: &SaferCode) -> Result<u64, UnpackError> {
    let [low, high @ ..] = code.inversions;
    if low >> 32 != 0 || high != [0; 3] {
        return Err(UnpackError("SAFER-32 inverts only groups 0..32"));
    }
    let index = subset_index(code.subset_mask).ok_or(UnpackError("invalid SAFER subset mask"))?;
    Ok(index as u64 | low << 7)
}

/// Unpacks a 39-bit SAFER-32 code.
///
/// # Errors
///
/// Returns [`UnpackError`] if the subset index is out of range.
pub fn unpack_safer32(word: u64) -> Result<SaferCode, UnpackError> {
    let index = (word & 0x7F) as usize;
    let mask = subset_from_index(index).ok_or(UnpackError("SAFER subset index out of range"))?;
    Ok(SaferCode {
        subset_mask: mask,
        inversions: [word >> 7 & 0xFFFF_FFFF, 0, 0, 0],
    })
}

/// Packs an Aegis 17×31 code: partition id (5 bits) then 31 inversion bits.
///
/// # Errors
///
/// Returns [`UnpackError`] if the partition id exceeds 17 or an inversion
/// bit lies past group 30.
pub fn pack_aegis_17x31(code: &AegisCode) -> Result<u64, UnpackError> {
    if code.partition > 17 {
        return Err(UnpackError("Aegis 17x31 partition id exceeds 17"));
    }
    if code.inversions >> 31 != 0 {
        return Err(UnpackError("Aegis 17x31 inverts only groups 0..31"));
    }
    Ok(u64::from(code.partition) | u64::from(code.inversions) << 5)
}

/// Unpacks a 36-bit Aegis 17×31 code.
///
/// # Errors
///
/// Returns [`UnpackError`] if the partition id exceeds 17.
pub fn unpack_aegis_17x31(word: u64) -> Result<AegisCode, UnpackError> {
    let partition = (word & 0x1F) as u32;
    if partition > 17 {
        return Err(UnpackError("Aegis 17x31 partition id exceeds 17"));
    }
    Ok(AegisCode {
        partition,
        inversions: (word >> 5 & 0x7FFF_FFFF) as u32,
    })
}

/// Canonical index of a 5-of-9 subset mask (ascending mask order).
fn subset_index(mask: u16) -> Option<usize> {
    (mask < 1 << 9 && mask.count_ones() == 5)
        .then(|| (0..mask).filter(|m| m.count_ones() == 5).count())
}

/// Inverse of [`subset_index`].
fn subset_from_index(index: usize) -> Option<u16> {
    (0u16..1 << 9).filter(|m| m.count_ones() == 5).nth(index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecp6_round_trip() {
        let code = EcpCode::from_pairs([(0, true), (511, false), (256, true)]);
        let word = pack_ecp6(&code).unwrap();
        assert!(word >> ECP6_BITS <= 0b111, "fits 61+3 bits");
        assert_eq!(unpack_ecp6(word).unwrap(), code);
    }

    #[test]
    fn ecp6_empty_and_full() {
        let empty = EcpCode::default();
        assert_eq!(unpack_ecp6(pack_ecp6(&empty).unwrap()).unwrap(), empty);
        let full = EcpCode::from_pairs((0..6).map(|i| (i * 85, i % 2 == 0)));
        assert_eq!(unpack_ecp6(pack_ecp6(&full).unwrap()).unwrap(), full);
    }

    #[test]
    fn ecp6_rejects_seven() {
        let code = EcpCode::from_pairs((0..7).map(|i| (i, true)));
        assert!(pack_ecp6(&code).is_err());
    }

    #[test]
    fn safer32_round_trip() {
        let mask = 0b0_0001_1111; // lowest five bits: a valid 5-of-9 subset
        let code = SaferCode {
            subset_mask: mask,
            inversions: [0x4924_9249, 0, 0, 0], // every third group
        };
        let word = pack_safer32(&code).unwrap();
        assert!(word < 1 << SAFER32_BITS);
        assert_eq!(unpack_safer32(word).unwrap(), code);
    }

    #[test]
    fn safer32_all_subsets_round_trip() {
        let mut count = 0;
        for mask in 0u16..1 << 9 {
            if mask.count_ones() == 5 {
                let idx = subset_index(mask).unwrap();
                assert_eq!(subset_from_index(idx), Some(mask));
                count += 1;
            }
        }
        assert_eq!(count, 126);
        assert_eq!(subset_from_index(126), None);
    }

    #[test]
    fn safer32_rejects_bad_mask() {
        let code = SaferCode {
            subset_mask: 0b11,
            inversions: [0; 4],
        };
        assert!(pack_safer32(&code).is_err());
    }

    #[test]
    fn aegis_round_trip() {
        for partition in [0u32, 5, 17] {
            let code = AegisCode {
                partition,
                inversions: 0x2AAA_AAAA, // the odd groups
            };
            let word = pack_aegis_17x31(&code).unwrap();
            assert!(word < 1 << AEGIS_17X31_BITS);
            assert_eq!(unpack_aegis_17x31(word).unwrap(), code);
        }
    }

    #[test]
    fn aegis_rejects_bad_partition() {
        let code = AegisCode {
            partition: 18,
            inversions: 0,
        };
        assert!(pack_aegis_17x31(&code).is_err());
        assert!(unpack_aegis_17x31(18).is_err());
    }

    #[test]
    fn budgets_fit_ecc_chip() {
        assert!(ECP6_BITS <= 64);
        assert!(SAFER32_BITS <= 64);
        assert!(AEGIS_17X31_BITS <= 64);
        // ECP-6 spare bits host the compressed flag (paper §III-B).
        assert!(64 - ECP6_BITS >= 1);
    }
}
