//! Frequent Pattern Compression (FPC) (Alameldeen & Wood, ISCA 2004).
//!
//! FPC scans a 64-byte block as sixteen 4-byte words and emits, per word, a
//! 3-bit prefix plus a variable payload:
//!
//! | prefix | pattern                                  | payload bits |
//! |--------|------------------------------------------|--------------|
//! | 000    | run of 1–8 zero words                    | 3            |
//! | 001    | 4-bit sign-extended                      | 4            |
//! | 010    | 8-bit sign-extended                      | 8            |
//! | 011    | 16-bit sign-extended                     | 16           |
//! | 100    | low halfword zero (high half stored)     | 16           |
//! | 101    | two halfwords, each a sign-extended byte | 16           |
//! | 110    | word of four repeated bytes              | 8            |
//! | 111    | uncompressed word                        | 32           |
//!
//! The compressed size of an incompressible block *exceeds* 64 bytes
//! (16 × 35 bits = 70 bytes); the [best-of selector](crate::best) falls back
//! to uncompressed storage in that case.

use crate::bits::{BitReader, OutOfBits};
use pcm_util::Line512;
use serde::{Deserialize, Serialize};

/// Decompression latency of FPC in CPU cycles (paper Table I).
pub(crate) const FPC_DECOMPRESSION_CYCLES: u64 = 5;

/// Largest possible FPC output: sixteen raw words at 35 bits each, packed
/// into 70 bytes.
pub const FPC_MAX_BYTES: usize = 70;

const WORDS: usize = 16;

const P_ZERO_RUN: u64 = 0b000;
const P_SIGN4: u64 = 0b001;
const P_SIGN8: u64 = 0b010;
const P_SIGN16: u64 = 0b011;
const P_LOW_ZERO: u64 = 0b100;
const P_TWO_BYTES: u64 = 0b101;
const P_REP_BYTE: u64 = 0b110;
const P_RAW: u64 = 0b111;

/// An FPC-compressed line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FpcCompressed {
    data: Vec<u8>,
    bit_len: usize,
}

impl FpcCompressed {
    /// The packed payload bytes (final byte zero-padded).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Compressed size in whole bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Exact compressed size in bits.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }
}

/// Error returned when an FPC payload cannot be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeFpcError {
    /// The bit stream ended before sixteen words were reconstructed.
    Truncated,
    /// A zero-run overran the sixteen-word block.
    RunOverflow,
}

impl std::fmt::Display for DecodeFpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeFpcError::Truncated => write!(f, "fpc payload truncated"),
            DecodeFpcError::RunOverflow => write!(f, "fpc zero run exceeds block"),
        }
    }
}

impl std::error::Error for DecodeFpcError {}

impl From<OutOfBits> for DecodeFpcError {
    fn from(_: OutOfBits) -> Self {
        DecodeFpcError::Truncated
    }
}

/// The word is a sign-extended value of `bits` bits (prefixes 001–011).
fn fits_signed(word: u32, bits: u32) -> bool {
    word.wrapping_add(1 << (bits - 1)) >> bits == 0
}

/// Both halfwords are sign-extended bytes (prefix 101).
fn is_two_sign_extended_bytes(word: u32) -> bool {
    (word as u16).wrapping_add(0x80) < 0x100 && ((word >> 16) as u16).wrapping_add(0x80) < 0x100
}

/// The word is one byte repeated four times (prefix 110).
fn is_repeated_byte(word: u32) -> bool {
    word == word.rotate_left(8)
}

/// The sixteen 4-byte words of a line, the low half of each 8-byte word
/// first.
fn split(words: &[u64; 8]) -> [u32; WORDS] {
    std::array::from_fn(|i| (words[i / 2] >> (32 * (i % 2))) as u32)
}

/// Bit `i` is set when word `i` is zero.
fn zero_mask(words: &[u32; WORDS]) -> u32 {
    (0..WORDS).fold(0, |m, i| m | u32::from(words[i] == 0) << i)
}

/// The code of a nonzero word and its length in bits: the first pattern in
/// prefix order that holds the word. The prefix sits in the low three
/// bits and the payload above it, which is the order an LSB-first stream
/// sends them in.
fn word_code(word: u32) -> (u64, u32) {
    let w = u64::from(word);
    if fits_signed(word, 4) {
        (P_SIGN4 | (w & 0xF) << 3, 7)
    } else if fits_signed(word, 8) {
        (P_SIGN8 | (w & 0xFF) << 3, 11)
    } else if fits_signed(word, 16) {
        (P_SIGN16 | (w & 0xFFFF) << 3, 19)
    } else if word & 0xFFFF == 0 {
        (P_LOW_ZERO | (w >> 16) << 3, 19)
    } else if is_two_sign_extended_bytes(word) {
        (P_TWO_BYTES | (w & 0xFF) << 3 | (w >> 16 & 0xFF) << 11, 19)
    } else if is_repeated_byte(word) {
        (P_REP_BYTE | (w & 0xFF) << 3, 11)
    } else {
        (P_RAW | w << 3, 35)
    }
}

/// The length of [`word_code`]'s code for a nonzero word. The checks run
/// from the last pattern in prefix order to the first, each overriding
/// the ones before it, so the sizing pass over all sixteen words compiles
/// to selects instead of branches.
fn code_len(word: u32) -> u32 {
    let mut len = 35;
    if is_repeated_byte(word) {
        len = 11;
    }
    if fits_signed(word, 16) || word & 0xFFFF == 0 || is_two_sign_extended_bytes(word) {
        len = 19;
    }
    if fits_signed(word, 8) {
        len = 11;
    }
    if fits_signed(word, 4) {
        len = 7;
    }
    len
}

/// The exact length in bits of a line's FPC stream, from its words alone,
/// or `None` when it passes `max_bits`.
///
/// A zero word costs nothing on its own; each run of zero words costs one
/// 6-bit code per eight words, and sixteen words hold at most one run
/// longer than eight, found as nine zero words in a row. The sixteen code
/// lengths are summed in one pass with no early exit, which compiles to
/// vector code and beats stopping at the cap.
pub(crate) fn stream_bits(words: &[u64; 8], max_bits: usize) -> Option<usize> {
    let words = split(words);
    let coded: u32 = words
        .iter()
        .map(|&w| if w == 0 { 0 } else { code_len(w) })
        .sum();
    let zeros = zero_mask(&words);
    let runs = (zeros & !(zeros << 1)).count_ones();
    let long = (1..=8).fold(zeros, |m, s| m & zeros >> s) != 0;
    let bits = (coded + 6 * (runs + u32::from(long))) as usize;
    (bits <= max_bits).then_some(bits)
}

/// Writes a line's FPC stream LSB-first into `out` through a 64-bit
/// accumulator, zero-padding the last byte, and returns its length in
/// bytes. `out` must hold [`stream_bits`] rounded up to whole bytes.
pub(crate) fn pack(words: &[u64; 8], out: &mut [u8]) -> usize {
    let words = split(words);
    let zeros = zero_mask(&words);
    let (mut acc, mut held, mut at) = (0u64, 0u32, 0usize);
    let mut i = 0;
    while i < WORDS {
        let (code, len) = if words[i] == 0 {
            let run = (zeros >> i).trailing_ones().min(8);
            i += run as usize;
            (P_ZERO_RUN | u64::from(run - 1) << 3, 6)
        } else {
            i += 1;
            word_code(words[i - 1])
        };
        acc |= code << held;
        held += len;
        if held >= 64 {
            out[at..at + 8].copy_from_slice(&acc.to_le_bytes());
            at += 8;
            held -= 64;
            // The code's top `held` bits did not fit; when it fit exactly,
            // the shift by its whole length leaves nothing.
            acc = code >> (len - held);
        }
    }
    let tail = held.div_ceil(8) as usize;
    out[at..at + tail].copy_from_slice(&acc.to_le_bytes()[..tail]);
    at + tail
}

/// Compresses a line with FPC. Always succeeds; the result may be larger
/// than 64 bytes for incompressible content.
///
/// # Examples
///
/// ```
/// use pcm_compress::fpc;
/// use pcm_util::Line512;
///
/// // An all-zero block is two zero-run codes: 12 bits, packed into 2 bytes.
/// let c = fpc::compress(&Line512::zero());
/// assert_eq!(c.bit_len(), 12);
/// assert_eq!(c.size(), 2);
/// ```
pub fn compress(line: &Line512) -> FpcCompressed {
    compress_bounded(line, usize::MAX).expect("unbounded compression always succeeds")
}

/// [`compress`], or `None` when the stream would exceed `max_bits`.
///
/// The stream is sized from the line's words before anything is packed,
/// so a line over the cap packs nothing.
///
/// # Examples
///
/// ```
/// use pcm_compress::fpc;
/// use pcm_util::Line512;
///
/// assert!(fpc::compress_bounded(&Line512::zero(), 12).is_some());
/// assert!(fpc::compress_bounded(&Line512::zero(), 11).is_none());
/// ```
pub fn compress_bounded(line: &Line512, max_bits: usize) -> Option<FpcCompressed> {
    let mut buf = [0u8; FPC_MAX_BYTES];
    let bit_len = compress_bounded_into(line, max_bits, &mut buf)?;
    Some(FpcCompressed {
        data: buf[..bit_len.div_ceil(8)].to_vec(),
        bit_len,
    })
}

/// Packs the stream into `out` (which must hold at least
/// [`FPC_MAX_BYTES`]) and returns the exact bit length; the payload
/// occupies the first `bit_len.div_ceil(8)` bytes, and `out` is untouched
/// when the stream passes `max_bits`.
fn compress_bounded_into(line: &Line512, max_bits: usize, out: &mut [u8]) -> Option<usize> {
    assert!(out.len() >= FPC_MAX_BYTES, "output buffer too small");
    let words = line.words();
    let bits = stream_bits(&words, max_bits)?;
    pack(&words, out);
    Some(bits)
}

/// Decompresses an FPC payload back into the original line.
///
/// # Errors
///
/// Returns [`DecodeFpcError`] if the payload is truncated or malformed.
///
/// # Examples
///
/// ```
/// use pcm_compress::fpc;
/// use pcm_util::Line512;
///
/// let mut bytes = [0u8; 64];
/// bytes[0] = 42;
/// let line = Line512::from_bytes(&bytes);
/// let c = fpc::compress(&line);
/// assert_eq!(fpc::decompress(c.data()).unwrap(), line);
/// ```
pub fn decompress(data: &[u8]) -> Result<Line512, DecodeFpcError> {
    let mut r = BitReader::new(data);
    let mut words = [0u32; WORDS];
    let mut i = 0;
    while i < WORDS {
        let prefix = r.pull(3)?;
        match prefix {
            P_ZERO_RUN => {
                let run = r.pull(3)? as usize + 1;
                if i + run > WORDS {
                    return Err(DecodeFpcError::RunOverflow);
                }
                i += run;
            }
            P_SIGN4 => {
                let v = r.pull(4)? as u32;
                words[i] = ((v << 28) as i32 >> 28) as u32;
                i += 1;
            }
            P_SIGN8 => {
                let v = r.pull(8)? as u32;
                words[i] = ((v << 24) as i32 >> 24) as u32;
                i += 1;
            }
            P_SIGN16 => {
                let v = r.pull(16)? as u32;
                words[i] = ((v << 16) as i32 >> 16) as u32;
                i += 1;
            }
            P_LOW_ZERO => {
                let v = r.pull(16)? as u32;
                words[i] = v << 16;
                i += 1;
            }
            P_TWO_BYTES => {
                let lo = r.pull(8)? as u32;
                let hi = r.pull(8)? as u32;
                let lo16 = ((lo << 24) as i32 >> 24) as u32 & 0xFFFF;
                let hi16 = ((hi << 24) as i32 >> 24) as u32 & 0xFFFF;
                words[i] = lo16 | (hi16 << 16);
                i += 1;
            }
            P_REP_BYTE => {
                let b = r.pull(8)? as u32;
                words[i] = b | (b << 8) | (b << 16) | (b << 24);
                i += 1;
            }
            // `pull(3)` yields at most 0b111 == P_RAW, so the raw arm is
            // the exhaustive remainder of the 3-bit prefix space.
            _ => {
                debug_assert_eq!(prefix, P_RAW);
                words[i] = r.pull(32)? as u32;
                i += 1;
            }
        }
    }
    let mut bytes = [0u8; 64];
    for (j, word) in words.iter().enumerate() {
        bytes[j * 4..j * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    Ok(Line512::from_bytes(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(bytes: [u8; 64]) -> (FpcCompressed, Line512) {
        let line = Line512::from_bytes(&bytes);
        let c = compress(&line);
        assert_eq!(decompress(c.data()).unwrap(), line);
        (c, line)
    }

    #[test]
    fn all_zero_block_is_two_runs() {
        let (c, _) = round_trip([0u8; 64]);
        // 16 zero words = two runs of 8 = 2 * 6 bits = 12 bits = 2 bytes.
        assert_eq!(c.bit_len(), 12);
        assert_eq!(c.size(), 2);
    }

    #[test]
    fn sign_extended_nibbles() {
        let mut bytes = [0u8; 64];
        // word 0 = 7 (fits 4-bit), word 1 = -2 (0xFFFFFFFE, fits 4-bit).
        bytes[0] = 7;
        bytes[4..8].copy_from_slice(&(-2i32).to_le_bytes());
        let (c, _) = round_trip(bytes);
        // 2 * (3+4) + zero runs: words 2..16 = 14 zeros = run(8) + run(6) = 12 bits.
        assert_eq!(c.bit_len(), 14 + 12);
    }

    #[test]
    fn sign_extended_bytes_and_halfwords() {
        let mut bytes = [0u8; 64];
        bytes[0..4].copy_from_slice(&100i32.to_le_bytes()); // 8-bit
        bytes[4..8].copy_from_slice(&(-100i32).to_le_bytes()); // 8-bit
        bytes[8..12].copy_from_slice(&30000i32.to_le_bytes()); // 16-bit
        bytes[12..16].copy_from_slice(&(-30000i32).to_le_bytes()); // 16-bit
        round_trip(bytes);
    }

    #[test]
    fn low_zero_halfword() {
        let mut bytes = [0u8; 64];
        bytes[0..4].copy_from_slice(&0xABCD_0000u32.to_le_bytes());
        let (c, _) = round_trip(bytes);
        assert_eq!(c.bit_len(), 3 + 16 + 12);
    }

    #[test]
    fn two_sign_extended_halfword_bytes() {
        let mut bytes = [0u8; 64];
        // low half = -5 (0xFFFB), high half = 100 (0x0064).
        bytes[0..4].copy_from_slice(&0x0064_FFFBu32.to_le_bytes());
        let (c, _) = round_trip(bytes);
        assert_eq!(c.bit_len(), 3 + 16 + 12);
    }

    #[test]
    fn repeated_byte_word() {
        let mut bytes = [0u8; 64];
        bytes[0..4].copy_from_slice(&0x5A5A_5A5Au32.to_le_bytes());
        let (c, _) = round_trip(bytes);
        assert_eq!(c.bit_len(), 3 + 8 + 12);
    }

    #[test]
    fn raw_words() {
        let mut bytes = [0u8; 64];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i * 37 + 101) as u8;
        }
        let (c, _) = round_trip(bytes);
        assert!(
            c.size() > 64,
            "incompressible block must exceed 64 bytes, got {}",
            c.size()
        );
    }

    #[test]
    fn zero_run_capped_at_eight() {
        let mut bytes = [0u8; 64];
        bytes[60] = 1; // word 15 nonzero, words 0..15 zero
        let (c, _) = round_trip(bytes);
        // run(8) + run(7) + sign4 = 6 + 6 + 7 = 19 bits.
        assert_eq!(c.bit_len(), 19);
    }

    #[test]
    fn decode_truncated_fails() {
        let line = Line512::from_bytes(&{
            let mut b = [0u8; 64];
            b[0] = 0x12;
            b[1] = 0x34;
            b[2] = 0x56;
            b[3] = 0x78;
            b
        });
        let c = compress(&line);
        let err = decompress(&c.data()[..c.size() - 1]).unwrap_err();
        assert_eq!(err, DecodeFpcError::Truncated);
    }

    #[test]
    fn mixed_patterns_exercise_every_prefix() {
        let mut bytes = [0u8; 64];
        let words: [u32; 16] = [
            0,           // zero run
            3,           // sign4
            200, // raw? 200 fits i8? 200 > 127, as i32=200 doesn't fit i8... fits i16 -> sign16
            0x7FFF, // sign16
            0xFFFF_0000, // low-zero? as i32 = -65536, fits sign16? -65536 < -32768 no; low half zero -> P_LOW_ZERO
            0x0042_0099, // hmm low=0x0099=153 as i16=153 fits i8? 153>127 no -> not two-bytes; raw
            0x7777_7777, // repeated byte
            0xDEAD_BEEF, // raw
            0,
            0,
            0,           // zero run
            0x00FF_00FE, // low=0x00FE=254>127 -> raw
            1,           // sign4
            0xFFFF_FFFF, // -1 sign4
            0x0001_0001, // lo=1 hi=1 -> two-bytes
            0x8000_0000, // low zero -> P_LOW_ZERO
        ];
        for (i, word) in words.iter().enumerate() {
            bytes[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        round_trip(bytes);
    }
}
