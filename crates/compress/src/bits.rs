//! Bit-granular writer/reader: FVC writes and reads through them, FPC
//! reads (its encoder packs through a 64-bit accumulator in the same
//! LSB-first order).

/// Appends values of arbitrary bit width (≤ 64) to a caller-provided byte
/// buffer, LSB-first within each byte, without allocating.
///
/// # Examples
///
/// ```
/// use pcm_compress::bits::{BitReader, FixedBitWriter};
///
/// let mut buf = [0u8; 2];
/// let mut w = FixedBitWriter::new(&mut buf);
/// w.put(0b101, 3);
/// w.put(0xFF, 8);
/// assert_eq!(w.bit_len(), 11);
///
/// let mut r = BitReader::new(&buf);
/// assert_eq!(r.pull(3).unwrap(), 0b101);
/// assert_eq!(r.pull(8).unwrap(), 0xFF);
/// ```
#[derive(Debug)]
pub struct FixedBitWriter<'a> {
    bytes: &'a mut [u8],
    /// Bytes in use (the last one possibly partial).
    len: usize,
    /// Number of valid bits in the last byte (0 means the last byte is full
    /// or the buffer is empty).
    partial: u32,
}

impl<'a> FixedBitWriter<'a> {
    /// Creates a writer over `bytes`, starting empty.
    pub fn new(bytes: &'a mut [u8]) -> Self {
        FixedBitWriter {
            bytes,
            len: 0,
            partial: 0,
        }
    }

    /// Appends the low `width` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64, if `value` has bits set
    /// above `width`, or if the buffer is full.
    pub fn put(&mut self, value: u64, width: u32) {
        assert!(
            (1..=64).contains(&width),
            "width must be 1..=64, got {width}"
        );
        assert!(
            width == 64 || value >> width == 0,
            "value {value:#x} wider than {width} bits"
        );
        let mut remaining = width;
        let mut v = value;
        while remaining > 0 {
            if self.partial == 0 {
                self.bytes[self.len] = 0;
                self.len += 1;
            }
            let free = 8 - self.partial;
            let take = free.min(remaining);
            let chunk = (v & ((1u64 << take) - 1)) as u8;
            self.bytes[self.len - 1] |= chunk << self.partial;
            self.partial = (self.partial + take) % 8;
            v >>= take;
            remaining -= take;
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.partial == 0 {
            self.len * 8
        } else {
            (self.len - 1) * 8 + self.partial as usize
        }
    }
}

/// Error returned when a [`BitReader`] runs past the end of its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBits;

impl std::fmt::Display for OutOfBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bit stream exhausted")
    }
}

impl std::error::Error for OutOfBits {}

/// Reads values of arbitrary bit width (≤ 64) from a byte buffer written by
/// [`FixedBitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads the next `width` bits.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBits`] if fewer than `width` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn pull(&mut self, width: u32) -> Result<u64, OutOfBits> {
        assert!(
            (1..=64).contains(&width),
            "width must be 1..=64, got {width}"
        );
        if self.pos + width as usize > self.bytes.len() * 8 {
            return Err(OutOfBits);
        }
        let mut out = 0u64;
        let mut got = 0u32;
        while got < width {
            let byte = self.bytes[self.pos / 8];
            let off = (self.pos % 8) as u32;
            let avail = 8 - off;
            let take = avail.min(width - got);
            let chunk = ((byte >> off) & ((1u16 << take) - 1) as u8) as u64;
            out |= chunk << got;
            got += take;
            self.pos += take as usize;
        }
        Ok(out)
    }

    /// Current bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Number of bits remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits() {
        let mut buf = [0u8; 2];
        let mut w = FixedBitWriter::new(&mut buf);
        for i in 0..16 {
            w.put((i % 2) as u64, 1);
        }
        assert_eq!(w.bit_len(), 16);
        let mut r = BitReader::new(&buf);
        for i in 0..16 {
            assert_eq!(r.pull(1).unwrap(), (i % 2) as u64);
        }
        assert!(r.pull(1).is_err());
    }

    #[test]
    fn mixed_widths_round_trip() {
        let values: &[(u64, u32)] = &[
            (0b101, 3),
            (0xDEAD, 16),
            (0x1F, 5),
            (u64::MAX, 64),
            (0, 7),
            (0x3FFFF, 18),
            (1, 1),
        ];
        let mut buf = [0u8; 32];
        let mut w = FixedBitWriter::new(&mut buf);
        for &(v, width) in values {
            w.put(v, width);
        }
        let bit_len = w.bit_len();
        let total: u32 = values.iter().map(|&(_, w)| w).sum();
        assert_eq!(bit_len, total as usize);
        assert_eq!(bit_len, 114); // packed into 15 bytes
        let bytes = &buf[..bit_len.div_ceil(8)];
        assert_eq!(bytes.len(), 15);
        let mut r = BitReader::new(bytes);
        for &(v, width) in values {
            assert_eq!(r.pull(width).unwrap(), v, "width {width}");
        }
        assert_eq!(r.remaining(), 6, "the last byte's zero padding");
    }

    #[test]
    fn crossing_byte_boundaries() {
        let mut buf = [0xFFu8; 2];
        let mut w = FixedBitWriter::new(&mut buf);
        w.put(0b11, 2);
        w.put(0x1FF, 9); // crosses a byte boundary
        assert_eq!(w.bit_len(), 11);
        let mut r = BitReader::new(&buf);
        assert_eq!(r.pull(2).unwrap(), 0b11);
        assert_eq!(r.pull(9).unwrap(), 0x1FF);
        assert_eq!(r.pull(5).unwrap(), 0, "stale buffer bits are cleared");
    }

    #[test]
    fn out_of_bits_error() {
        let bytes = [0xAAu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.pull(8).unwrap(), 0xAA);
        assert_eq!(r.pull(1), Err(OutOfBits));
        assert_eq!(OutOfBits.to_string(), "bit stream exhausted");
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn fixed_put_rejects_overwide_value() {
        let mut buf = [0u8; 4];
        FixedBitWriter::new(&mut buf).put(0b100, 2);
    }

    #[test]
    fn remaining_and_pos_track() {
        let bytes = [0u8; 4];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining(), 32);
        r.pull(5).unwrap();
        assert_eq!(r.bit_pos(), 5);
        assert_eq!(r.remaining(), 27);
    }
}
