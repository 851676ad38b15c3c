//! Base-Delta-Immediate (BDI) compression (Pekhimenko et al., PACT 2012).
//!
//! BDI exploits low *value dynamism*: the words of a block usually lie close
//! to a common base, so the block can be stored as one base plus narrow
//! per-word deltas. We implement the single-base variant whose compressed
//! sizes match the canonical BDI table (and the 1–40-byte range in the
//! paper's Table I):
//!
//! | encoding | element | delta | size (bytes) |
//! |----------|---------|-------|--------------|
//! | Zeros    | —       | —     | 1            |
//! | Rep8     | 8 B     | —     | 8            |
//! | B8D1     | 8 B     | 1 B   | 16           |
//! | B4D1     | 4 B     | 1 B   | 20           |
//! | B8D2     | 8 B     | 2 B   | 24           |
//! | B2D1     | 2 B     | 1 B   | 34           |
//! | B4D2     | 4 B     | 2 B   | 36           |
//! | B8D4     | 8 B     | 4 B   | 40           |

use pcm_util::{Line512, DATA_BYTES};
use serde::{Deserialize, Serialize};

/// Decompression latency of BDI in CPU cycles (paper Table I).
pub(crate) const BDI_DECOMPRESSION_CYCLES: u64 = 1;

/// Largest possible BDI payload (the B8D4 encoding, paper Table I).
const BDI_MAX_BYTES: usize = 40;

/// The eight BDI encodings, ordered by compressed size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BdiEncoding {
    /// All 64 bytes are zero; stored as a single zero byte.
    Zeros,
    /// One 8-byte value repeated eight times.
    Rep8,
    /// 8-byte elements, 1-byte deltas.
    B8D1,
    /// 4-byte elements, 1-byte deltas.
    B4D1,
    /// 8-byte elements, 2-byte deltas.
    B8D2,
    /// 2-byte elements, 1-byte deltas.
    B2D1,
    /// 4-byte elements, 2-byte deltas.
    B4D2,
    /// 8-byte elements, 4-byte deltas.
    B8D4,
}

/// All encodings in the order compression attempts them (smallest first).
pub const ALL_ENCODINGS: [BdiEncoding; 8] = [
    BdiEncoding::Zeros,
    BdiEncoding::Rep8,
    BdiEncoding::B8D1,
    BdiEncoding::B4D1,
    BdiEncoding::B8D2,
    BdiEncoding::B2D1,
    BdiEncoding::B4D2,
    BdiEncoding::B8D4,
];

impl BdiEncoding {
    /// Compressed size in bytes for a 64-byte input.
    pub fn compressed_size(&self) -> usize {
        match self {
            BdiEncoding::Zeros => 1,
            BdiEncoding::Rep8 => 8,
            BdiEncoding::B8D1 => 16,
            BdiEncoding::B4D1 => 20,
            BdiEncoding::B8D2 => 24,
            BdiEncoding::B2D1 => 34,
            BdiEncoding::B4D2 => 36,
            BdiEncoding::B8D4 => 40,
        }
    }

    /// `(element_bytes, delta_bytes)` for base-delta encodings, `None` for
    /// the `Zeros` and `Rep8` special cases.
    pub fn geometry(&self) -> Option<(usize, usize)> {
        match self {
            BdiEncoding::Zeros | BdiEncoding::Rep8 => None,
            BdiEncoding::B8D1 => Some((8, 1)),
            BdiEncoding::B4D1 => Some((4, 1)),
            BdiEncoding::B8D2 => Some((8, 2)),
            BdiEncoding::B2D1 => Some((2, 1)),
            BdiEncoding::B4D2 => Some((4, 2)),
            BdiEncoding::B8D4 => Some((8, 4)),
        }
    }

    /// A stable small integer id (0..8) used in metadata encodings.
    pub fn id(&self) -> u8 {
        match self {
            BdiEncoding::Zeros => 0,
            BdiEncoding::Rep8 => 1,
            BdiEncoding::B8D1 => 2,
            BdiEncoding::B4D1 => 3,
            BdiEncoding::B8D2 => 4,
            BdiEncoding::B2D1 => 5,
            BdiEncoding::B4D2 => 6,
            BdiEncoding::B8D4 => 7,
        }
    }

    /// Inverse of [`id`](Self::id).
    pub fn from_id(id: u8) -> Option<BdiEncoding> {
        ALL_ENCODINGS.iter().copied().find(|e| e.id() == id)
    }
}

impl std::fmt::Display for BdiEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A successfully BDI-compressed line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BdiCompressed {
    encoding: BdiEncoding,
    data: Vec<u8>,
}

impl BdiCompressed {
    /// The encoding used.
    pub fn encoding(&self) -> BdiEncoding {
        self.encoding
    }

    /// The compressed payload bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Compressed size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }
}

/// Error returned when decompression is handed malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeBdiError {
    expected: usize,
    got: usize,
}

impl std::fmt::Display for DecodeBdiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bdi payload length {} does not match encoding (expected {})",
            self.got, self.expected
        )
    }
}

impl std::error::Error for DecodeBdiError {}

/// Sign-extends the low `bits` bits of `v`.
fn sign_extend(v: u64, bits: usize) -> i64 {
    debug_assert!(bits <= 64);
    let shift = 64 - bits;
    ((v << shift) as i64) >> shift
}

/// The bits the deltas need at 8-byte elements: the OR, over every word,
/// of its wrapping delta from word 0 folded onto its magnitude bits
/// (`d ^ (d >> 63)`, so -128 and 127 both fold to 0x7F). Deltas of `d`
/// bytes fit iff no bit at or above `8d - 1` is set. The pass stops once
/// the OR rules out the widest deltas (4 bytes), since every encoding at
/// this width is then out.
fn span8(words: &[u64; 8]) -> u64 {
    let mut acc = 0;
    for &w in words {
        let d = w.wrapping_sub(words[0]) as i64;
        acc |= (d ^ (d >> 63)) as u64;
        if acc >> 31 != 0 {
            break;
        }
    }
    acc
}

/// [`span8`] at 4-byte elements: each word holds two, low half first, a
/// delta wraps and sign-extends at 32 bits, and the widest deltas are 2
/// bytes.
fn span4(words: &[u64; 8]) -> u64 {
    let base = words[0] as u32;
    let mut acc = 0u32;
    for &w in words {
        for shift in [0, 32] {
            let d = ((w >> shift) as u32).wrapping_sub(base) as i32;
            acc |= (d ^ (d >> 31)) as u32;
        }
        if acc >> 15 != 0 {
            break;
        }
    }
    u64::from(acc)
}

/// [`span8`] at 2-byte elements: four per word, wrapping at 16 bits, with
/// 1-byte deltas only.
fn span2(words: &[u64; 8]) -> u64 {
    let base = words[0] as u16;
    let mut acc = 0u16;
    for &w in words {
        for shift in [0, 16, 32, 48] {
            let d = ((w >> shift) as u16).wrapping_sub(base) as i16;
            acc |= (d ^ (d >> 15)) as u16;
        }
        if acc >> 7 != 0 {
            break;
        }
    }
    u64::from(acc)
}

/// The smallest BDI encoding that holds `words`, decided from the words
/// alone: one delta pass per element width, then the first geometry in
/// [`ALL_ENCODINGS`] order whose deltas fit.
#[inline]
pub(crate) fn encoding_of(words: &[u64; 8]) -> Option<BdiEncoding> {
    if words.iter().all(|&w| w == words[0]) {
        return Some(if words[0] == 0 {
            BdiEncoding::Zeros
        } else {
            BdiEncoding::Rep8
        });
    }
    // Each width's pass runs the first time an encoding asks for it.
    let mut spans = [None; 3];
    ALL_ENCODINGS.into_iter().find(|enc| {
        enc.geometry().is_some_and(|(k, d)| {
            let span = *spans[(8 / k).ilog2() as usize].get_or_insert_with(|| match k {
                8 => span8(words),
                4 => span4(words),
                _ => span2(words),
            });
            span >> (8 * d - 1) == 0
        })
    })
}

/// Writes the low `n` bytes of `v` little-endian at `out[at..]`, for `n`
/// of 1, 2, 4 or 8 (fixed-size stores, not a byte loop).
fn put(out: &mut [u8], at: usize, v: u64, n: usize) {
    match n {
        1 => out[at] = v as u8,
        2 => out[at..at + 2].copy_from_slice(&(v as u16).to_le_bytes()),
        4 => out[at..at + 4].copy_from_slice(&(v as u32).to_le_bytes()),
        _ => out[at..at + 8].copy_from_slice(&v.to_le_bytes()),
    }
}

/// Writes the payload of `enc` (which must hold `words`; see
/// [`encoding_of`]) into `out` and returns its length: the base element,
/// then each element's delta from it, `d` bytes little-endian apiece.
#[inline]
pub(crate) fn emit(words: &[u64; 8], enc: BdiEncoding, out: &mut [u8]) -> usize {
    let Some((k, d)) = enc.geometry() else {
        // Zeros stores one zero byte, Rep8 the repeated word.
        let len = enc.compressed_size();
        put(out, 0, words[0], len);
        return len;
    };
    let per_word = 8 / k;
    let element = |i: usize| words[i / per_word] >> (8 * k * (i % per_word));
    let base = element(0);
    put(out, 0, base, k);
    for i in 0..DATA_BYTES / k {
        put(out, k + i * d, element(i).wrapping_sub(base), d);
    }
    k + DATA_BYTES / k * d
}

/// Compresses a line with the smallest applicable BDI encoding into a
/// [`BdiCompressed`].
///
/// Returns `None` when no encoding applies (the line must then be stored
/// uncompressed or handed to FPC).
///
/// # Examples
///
/// ```
/// use pcm_compress::bdi;
/// use pcm_util::Line512;
///
/// let zeros = Line512::zero();
/// let c = bdi::compress(&zeros).expect("zero line compresses");
/// assert_eq!(c.encoding(), bdi::BdiEncoding::Zeros);
/// assert_eq!(c.size(), 1);
/// ```
pub fn compress(line: &Line512) -> Option<BdiCompressed> {
    let words = line.words();
    let encoding = encoding_of(&words)?;
    let mut buf = [0u8; BDI_MAX_BYTES];
    let len = emit(&words, encoding, &mut buf);
    Some(BdiCompressed {
        encoding,
        data: buf[..len].to_vec(),
    })
}

/// Decompresses a BDI payload back into the original line.
///
/// # Errors
///
/// Returns [`DecodeBdiError`] if `data` has the wrong length for `encoding`.
///
/// # Examples
///
/// ```
/// use pcm_compress::bdi;
/// use pcm_util::Line512;
///
/// let mut bytes = [7u8; 64];
/// bytes[0] = 9;
/// let line = Line512::from_bytes(&bytes);
/// let c = bdi::compress(&line).unwrap();
/// assert_eq!(bdi::decompress(c.encoding(), c.data()).unwrap(), line);
/// ```
pub fn decompress(encoding: BdiEncoding, data: &[u8]) -> Result<Line512, DecodeBdiError> {
    let expected = encoding.compressed_size();
    if data.len() != expected {
        return Err(DecodeBdiError {
            expected,
            got: data.len(),
        });
    }
    match encoding {
        BdiEncoding::Zeros => Ok(Line512::zero()),
        BdiEncoding::Rep8 => {
            let w = u64::from_le_bytes(data.try_into().expect("8 bytes"));
            Ok(Line512::from_words([w; 8]))
        }
        _ => {
            let (k, d) = encoding.geometry().expect("base-delta encoding");
            let n = DATA_BYTES / k;
            let mut base = 0u64;
            for (b, &byte) in data.iter().enumerate().take(k) {
                base |= (byte as u64) << (8 * b);
            }
            let mut out = [0u8; DATA_BYTES];
            let mask = if k == 8 {
                u64::MAX
            } else {
                (1u64 << (k * 8)) - 1
            };
            for i in 0..n {
                let mut raw = 0u64;
                for b in 0..d {
                    raw |= (data[k + i * d + b] as u64) << (8 * b);
                }
                let delta = sign_extend(raw, d * 8);
                let e = base.wrapping_add(delta as u64) & mask;
                out[i * k..i * k + k].copy_from_slice(&e.to_le_bytes()[..k]);
            }
            Ok(Line512::from_bytes(&out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_of_words(words: [u64; 8]) -> Line512 {
        Line512::from_words(words)
    }

    #[test]
    fn zeros_encoding() {
        let c = compress(&Line512::zero()).unwrap();
        assert_eq!(c.encoding(), BdiEncoding::Zeros);
        assert_eq!(c.size(), 1);
        assert_eq!(decompress(c.encoding(), c.data()).unwrap(), Line512::zero());
    }

    #[test]
    fn repeated_value_encoding() {
        let line = line_of_words([0xDEAD_BEEF_CAFE_F00D; 8]);
        let c = compress(&line).unwrap();
        assert_eq!(c.encoding(), BdiEncoding::Rep8);
        assert_eq!(c.size(), 8);
        assert_eq!(decompress(c.encoding(), c.data()).unwrap(), line);
    }

    #[test]
    fn b8d1_small_deltas() {
        let base = 0x1000_0000_0000u64;
        let line = line_of_words([
            base,
            base + 1,
            base + 127,
            base.wrapping_sub(128),
            base,
            base + 2,
            base + 3,
            base + 4,
        ]);
        let c = compress(&line).unwrap();
        assert_eq!(c.encoding(), BdiEncoding::B8D1);
        assert_eq!(c.size(), 16);
        assert_eq!(decompress(c.encoding(), c.data()).unwrap(), line);
    }

    #[test]
    fn b8d2_when_deltas_exceed_byte() {
        let base = 0x55u64 << 32;
        let line = line_of_words([
            base,
            base + 200,
            base + 30000,
            base - 30000,
            base,
            base,
            base,
            base + 129,
        ]);
        let c = compress(&line).unwrap();
        assert_eq!(c.encoding(), BdiEncoding::B8D2);
        assert_eq!(decompress(c.encoding(), c.data()).unwrap(), line);
    }

    #[test]
    fn b8d4_wide_deltas() {
        let base = 1u64 << 60;
        let line = line_of_words([
            base,
            base + 1_000_000,
            base.wrapping_sub(2_000_000_000),
            base + 2_000_000_000,
            base,
            base + 70_000,
            base,
            base + 5,
        ]);
        let c = compress(&line).unwrap();
        assert_eq!(c.encoding(), BdiEncoding::B8D4);
        assert_eq!(c.size(), 40);
        assert_eq!(decompress(c.encoding(), c.data()).unwrap(), line);
    }

    #[test]
    fn b4d1_four_byte_elements() {
        // 4-byte elements clustered near a base, but 8-byte pairs far apart
        // (forces element size 4). Element i = base4 + i.
        let mut bytes = [0u8; 64];
        let base4: u32 = 0xABCD_1200;
        for i in 0..16 {
            let v = base4 + i as u32;
            bytes[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        let line = Line512::from_bytes(&bytes);
        let c = compress(&line).unwrap();
        // B8D1 can't hold the alternating high words; B4D1 can.
        assert_eq!(c.encoding(), BdiEncoding::B4D1);
        assert_eq!(c.size(), 20);
        assert_eq!(decompress(c.encoding(), c.data()).unwrap(), line);
    }

    #[test]
    fn b2d1_two_byte_elements() {
        let mut bytes = [0u8; 64];
        let base2: u16 = 0x7F00;
        for i in 0..32 {
            let v = base2.wrapping_add((i % 5) as u16);
            bytes[i * 2..i * 2 + 2].copy_from_slice(&v.to_le_bytes());
        }
        // Perturb so 4-byte views have wide deltas: alternate high byte.
        bytes[1] = 0x7F;
        let line = Line512::from_bytes(&bytes);
        if let Some(c) = compress(&line) {
            assert_eq!(decompress(c.encoding(), c.data()).unwrap(), line);
        }
    }

    #[test]
    fn incompressible_returns_none() {
        let mut rng = pcm_util::seeded_rng(1234);
        // Random lines are essentially never BDI-compressible.
        let mut none_count = 0;
        for _ in 0..64 {
            if compress(&Line512::random(&mut rng)).is_none() {
                none_count += 1;
            }
        }
        assert!(
            none_count >= 60,
            "random data should rarely compress, got {none_count}/64 none"
        );
    }

    #[test]
    fn wrapping_deltas_round_trip() {
        // Deltas that wrap around the element width must still round-trip.
        let base = u64::MAX - 3;
        let line = line_of_words([
            base,
            base.wrapping_add(5),
            base,
            base,
            base,
            base,
            base,
            base,
        ]);
        let c = compress(&line).unwrap();
        assert_eq!(decompress(c.encoding(), c.data()).unwrap(), line);
    }

    #[test]
    fn decode_rejects_wrong_length() {
        let err = decompress(BdiEncoding::B8D1, &[0u8; 5]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bdi payload length 5 does not match encoding (expected 16)"
        );
    }

    #[test]
    fn encoding_ids_round_trip() {
        for enc in ALL_ENCODINGS {
            assert_eq!(BdiEncoding::from_id(enc.id()), Some(enc));
        }
        assert_eq!(BdiEncoding::from_id(200), None);
    }

    #[test]
    fn sizes_are_within_paper_range() {
        for enc in ALL_ENCODINGS {
            let s = enc.compressed_size();
            assert!((1..=40).contains(&s), "{enc}: {s}");
        }
    }
}
