//! The 512-bit memory line: the unit of all PCM operations in this workspace.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// Number of data bits in a memory line (64 bytes, one LLC block).
pub const DATA_BITS: usize = 512;
/// Number of data bytes in a memory line.
pub const DATA_BYTES: usize = 64;

/// A 512-bit memory line stored as eight little-endian `u64` words.
///
/// `Line512` is used both for *data* (the content of a 64-byte block) and
/// for *masks* (e.g. the set of faulty cell positions, or the set of bits a
/// differential write flips). Bit `i` corresponds to byte `i / 8`, bit
/// `i % 8` within that byte — i.e. the same numbering as
/// `from_bytes(..).bit(i)` reading byte `i/8` of the original slice.
///
/// # Examples
///
/// ```
/// use pcm_util::Line512;
///
/// let a = Line512::from_fn(|i| i % 2 == 0);
/// let b = !a;
/// assert_eq!((a ^ b).count_ones(), 512);
/// assert_eq!((a & b).count_ones(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Line512 {
    words: [u64; 8],
}

impl Line512 {
    /// Returns an all-zero line.
    ///
    /// # Examples
    ///
    /// ```
    /// assert_eq!(pcm_util::Line512::zero().count_ones(), 0);
    /// ```
    pub const fn zero() -> Self {
        Line512 { words: [0; 8] }
    }

    /// Returns an all-ones line.
    pub const fn ones() -> Self {
        Line512 {
            words: [u64::MAX; 8],
        }
    }

    /// Creates a line from its eight little-endian `u64` words.
    pub const fn from_words(words: [u64; 8]) -> Self {
        Line512 { words }
    }

    /// Returns the underlying words.
    pub const fn words(&self) -> [u64; 8] {
        self.words
    }

    /// Creates a line from 64 bytes.
    #[inline]
    pub fn from_bytes(bytes: &[u8; DATA_BYTES]) -> Self {
        let mut words = [0u64; 8];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            words[i] = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
        }
        Line512 { words }
    }

    /// Returns the 64 bytes of this line.
    #[inline]
    pub fn to_bytes(&self) -> [u8; DATA_BYTES] {
        let mut out = [0u8; DATA_BYTES];
        for (i, w) in self.words.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Builds a line bit-by-bit from a predicate over bit positions `0..512`.
    pub fn from_fn<F: FnMut(usize) -> bool>(mut f: F) -> Self {
        let mut line = Line512::zero();
        for i in 0..DATA_BITS {
            if f(i) {
                line.set_bit(i, true);
            }
        }
        line
    }

    /// Fills a line with uniformly random bits.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut words = [0u64; 8];
        for w in &mut words {
            *w = rng.random();
        }
        Line512 { words }
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 512`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < DATA_BITS, "bit index {i} out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 512`.
    #[inline]
    pub fn set_bit(&mut self, i: usize, value: bool) {
        assert!(i < DATA_BITS, "bit index {i} out of range");
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 512`.
    #[inline]
    pub fn flip_bit(&mut self, i: usize) {
        assert!(i < DATA_BITS, "bit index {i} out of range");
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Returns byte `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[inline]
    pub fn byte(&self, i: usize) -> u8 {
        assert!(i < DATA_BYTES, "byte index {i} out of range");
        (self.words[i / 8] >> ((i % 8) * 8)) as u8
    }

    /// Sets byte `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[inline]
    pub fn set_byte(&mut self, i: usize, value: u8) {
        assert!(i < DATA_BYTES, "byte index {i} out of range");
        let shift = (i % 8) * 8;
        let w = &mut self.words[i / 8];
        *w = (*w & !(0xFFu64 << shift)) | ((value as u64) << shift);
    }

    /// Number of set bits in the line.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        crate::simd::popcount512(&self.words)
    }

    /// Returns `true` if no bit is set.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Hamming distance to `other` — the number of bit flips a differential
    /// write of `other` over `self` performs.
    ///
    /// # Examples
    ///
    /// ```
    /// use pcm_util::Line512;
    /// let a = Line512::zero();
    /// let b = Line512::ones();
    /// assert_eq!(a.hamming_distance(&b), 512);
    /// ```
    #[inline]
    pub fn hamming_distance(&self, other: &Line512) -> u32 {
        (*self ^ *other).count_ones()
    }

    /// Iterates over the positions of set bits in ascending order as an
    /// [`IterOnes`].
    ///
    /// # Examples
    ///
    /// ```
    /// use pcm_util::Line512;
    /// let mut l = Line512::zero();
    /// l.set_bit(5, true);
    /// l.set_bit(300, true);
    /// assert_eq!(l.iter_ones().collect::<Vec<_>>(), vec![5, 300]);
    /// ```
    pub fn iter_ones(&self) -> IterOnes {
        IterOnes {
            line: *self,
            word: 0,
            bits: self.words[0],
        }
    }

    /// The set-bit positions in ascending order, written into a stack
    /// buffer (a line has at most [`DATA_BITS`] set bits); returns the
    /// filled prefix. Per-write callers list fault positions this way
    /// instead of collecting a `Vec`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pcm_util::{Line512, DATA_BITS};
    /// let mut l = Line512::zero();
    /// l.set_bit(5, true);
    /// l.set_bit(300, true);
    /// let mut buf = [0u16; DATA_BITS];
    /// assert_eq!(l.ones_into(&mut buf), &[5, 300]);
    /// ```
    #[inline]
    pub fn ones_into<'a>(&self, buf: &'a mut [u16; DATA_BITS]) -> &'a [u16] {
        let mut n = 0;
        for p in self.iter_ones() {
            buf[n] = p as u16;
            n += 1;
        }
        &buf[..n]
    }

    /// Copies `data` into the line starting at byte offset `offset`,
    /// leaving all other bytes untouched, and returns the result.
    ///
    /// This models writing a compressed payload into its compression window.
    ///
    /// # Panics
    ///
    /// Panics if `offset + data.len() > 64`.
    pub fn with_bytes_at(&self, offset: usize, data: &[u8]) -> Line512 {
        assert!(
            offset + data.len() <= DATA_BYTES,
            "window [{offset}, {}) exceeds line",
            offset + data.len()
        );
        let mut bytes = self.to_bytes();
        bytes[offset..offset + data.len()].copy_from_slice(data);
        Line512::from_bytes(&bytes)
    }

    /// Extracts `len` bytes starting at byte offset `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len > 64`.
    pub fn bytes_at(&self, offset: usize, len: usize) -> Vec<u8> {
        assert!(offset + len <= DATA_BYTES, "window out of bounds");
        self.to_bytes()[offset..offset + len].to_vec()
    }

    /// Returns a mask with bits set exactly in the bit range `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > 512`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pcm_util::Line512;
    /// let m = Line512::bit_range_mask(60..70);
    /// assert_eq!(m.count_ones(), 10);
    /// assert!(m.bit(60) && m.bit(69));
    /// assert!(!m.bit(59) && !m.bit(70));
    /// ```
    #[inline]
    pub fn bit_range_mask(range: std::ops::Range<usize>) -> Line512 {
        assert!(range.end <= DATA_BITS, "range end out of bounds");
        if range.start >= range.end {
            return Line512::zero();
        }
        let last = range.end - 1;
        let (ws, we) = (range.start / 64, last / 64);
        let head = u64::MAX << (range.start % 64);
        let tail = u64::MAX >> (63 - last % 64);
        let mut words = [0u64; 8];
        if ws == we {
            words[ws] = head & tail;
        } else {
            words[ws] = head;
            for w in &mut words[ws + 1..we] {
                *w = u64::MAX;
            }
            words[we] = tail;
        }
        Line512 { words }
    }

    /// Returns a mask with bits set exactly in the byte range
    /// `[offset, offset + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len > 64`.
    pub fn byte_window_mask(offset: usize, len: usize) -> Line512 {
        assert!(offset + len <= DATA_BYTES, "window out of bounds");
        Line512::bit_range_mask(offset * 8..(offset + len) * 8)
    }
}

/// Iterator over set-bit positions of a [`Line512`].
#[derive(Debug, Clone)]
pub struct IterOnes {
    line: Line512,
    word: usize,
    bits: u64,
}

impl Iterator for IterOnes {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word * 64 + tz);
            }
            self.word += 1;
            if self.word >= 8 {
                return None;
            }
            self.bits = self.line.words[self.word];
        }
    }
}

impl BitXor for Line512 {
    type Output = Line512;
    #[inline]
    fn bitxor(self, rhs: Line512) -> Line512 {
        let mut words = self.words;
        for (a, b) in words.iter_mut().zip(rhs.words.iter()) {
            *a ^= *b;
        }
        Line512 { words }
    }
}

impl BitAnd for Line512 {
    type Output = Line512;
    #[inline]
    fn bitand(self, rhs: Line512) -> Line512 {
        let mut words = self.words;
        for (a, b) in words.iter_mut().zip(rhs.words.iter()) {
            *a &= *b;
        }
        Line512 { words }
    }
}

impl BitOr for Line512 {
    type Output = Line512;
    #[inline]
    fn bitor(self, rhs: Line512) -> Line512 {
        let mut words = self.words;
        for (a, b) in words.iter_mut().zip(rhs.words.iter()) {
            *a |= *b;
        }
        Line512 { words }
    }
}

impl Not for Line512 {
    type Output = Line512;
    fn not(self) -> Line512 {
        let mut words = self.words;
        for w in &mut words {
            *w = !*w;
        }
        Line512 { words }
    }
}

impl fmt::Debug for Line512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Line512(")?;
        for w in self.words.iter().rev() {
            write!(f, "{w:016x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Line512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<[u8; DATA_BYTES]> for Line512 {
    fn from(bytes: [u8; DATA_BYTES]) -> Self {
        Line512::from_bytes(&bytes)
    }
}

impl From<Line512> for [u8; DATA_BYTES] {
    fn from(line: Line512) -> Self {
        line.to_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip() {
        let mut bytes = [0u8; DATA_BYTES];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
        let line = Line512::from_bytes(&bytes);
        assert_eq!(line.to_bytes(), bytes);
        for (i, b) in bytes.iter().enumerate() {
            assert_eq!(line.byte(i), *b);
        }
    }

    #[test]
    fn bit_and_byte_numbering_agree() {
        let mut bytes = [0u8; DATA_BYTES];
        bytes[5] = 0b0000_0100; // bit 2 of byte 5 => global bit 42
        let line = Line512::from_bytes(&bytes);
        assert!(line.bit(5 * 8 + 2));
        assert_eq!(line.count_ones(), 1);
    }

    #[test]
    fn set_and_flip() {
        let mut l = Line512::zero();
        l.set_bit(511, true);
        assert!(l.bit(511));
        l.flip_bit(511);
        assert!(!l.bit(511));
        l.set_byte(63, 0xF0);
        assert_eq!(l.byte(63), 0xF0);
        assert_eq!(l.count_ones(), 4);
    }

    #[test]
    fn hamming_distance_matches_xor_popcount() {
        let mut rng = crate::seeded_rng(11);
        for _ in 0..32 {
            let a = Line512::random(&mut rng);
            let b = Line512::random(&mut rng);
            assert_eq!(a.hamming_distance(&b), (a ^ b).count_ones());
        }
    }

    #[test]
    fn iter_ones_round_trip() {
        let mut rng = crate::seeded_rng(12);
        let l = Line512::random(&mut rng);
        let rebuilt = {
            let mut out = Line512::zero();
            for i in l.iter_ones() {
                out.set_bit(i, true);
            }
            out
        };
        assert_eq!(l, rebuilt);
    }

    #[test]
    fn window_write_and_read() {
        let base = Line512::ones();
        let payload = [0u8, 1, 2, 3];
        let written = base.with_bytes_at(10, &payload);
        assert_eq!(written.bytes_at(10, 4), payload);
        assert_eq!(written.byte(9), 0xFF);
        assert_eq!(written.byte(14), 0xFF);
    }

    #[test]
    fn window_mask_counts() {
        let m = Line512::byte_window_mask(4, 8);
        assert_eq!(m.count_ones(), 64);
        assert!(m.bit(4 * 8));
        assert!(m.bit(12 * 8 - 1));
        assert!(!m.bit(12 * 8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        Line512::zero().bit(512);
    }

    #[test]
    #[should_panic(expected = "exceeds line")]
    fn window_overflow_panics() {
        Line512::zero().with_bytes_at(60, &[0; 5]);
    }

    #[test]
    fn operators() {
        let mut rng = crate::seeded_rng(14);
        let a = Line512::random(&mut rng);
        assert_eq!(a ^ a, Line512::zero());
        assert_eq!(a & a, a);
        assert_eq!(a | a, a);
        assert_eq!(!(!a), a);
        assert_eq!((a & !a), Line512::zero());
        assert_eq!((a | !a), Line512::ones());
    }
}
