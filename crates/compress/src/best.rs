//! The memory controller's best-of compression selector (paper §III).
//!
//! The controller has separate BDI and FPC units that work *in parallel* on
//! every write-back; it stores whichever output is smaller, or the original
//! 64 bytes when neither compressor wins. The chosen method is recorded in a
//! 5-bit encoding field of the per-line metadata (paper §III-B).

use crate::bdi::{self, BdiEncoding};
use crate::fpc;
use pcm_util::{Line512, DATA_BYTES};
use serde::{Deserialize, Serialize};

/// How a line is stored in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// BDI-compressed with the given encoding.
    Bdi(BdiEncoding),
    /// FPC-compressed.
    Fpc,
    /// Stored verbatim (neither compressor produced < 64 bytes, or the
    /// controller's heuristic chose uncompressed).
    Uncompressed,
}

impl Method {
    /// Encodes the method into the 5-bit metadata field.
    ///
    /// # Examples
    ///
    /// ```
    /// use pcm_compress::Method;
    /// let m = Method::Fpc;
    /// assert_eq!(Method::decode_5bit(m.encode_5bit()), Some(m));
    /// ```
    pub fn encode_5bit(&self) -> u8 {
        match self {
            Method::Bdi(enc) => enc.id(),
            Method::Fpc => 8,
            Method::Uncompressed => 9,
        }
    }

    /// Decodes a 5-bit metadata field; returns `None` for unused code
    /// points.
    pub fn decode_5bit(bits: u8) -> Option<Method> {
        match bits {
            0..=7 => BdiEncoding::from_id(bits).map(Method::Bdi),
            8 => Some(Method::Fpc),
            9 => Some(Method::Uncompressed),
            _ => None,
        }
    }

    /// Decompression latency in CPU cycles (paper Table I; uncompressed
    /// lines need no decompression).
    pub fn decompression_cycles(&self) -> u64 {
        match self {
            Method::Bdi(_) => bdi::BDI_DECOMPRESSION_CYCLES,
            Method::Fpc => fpc::FPC_DECOMPRESSION_CYCLES,
            Method::Uncompressed => 0,
        }
    }

    /// Returns `true` when the method stores compressed data.
    pub fn is_compressed(&self) -> bool {
        !matches!(self, Method::Uncompressed)
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Method::Bdi(enc) => write!(f, "BDI/{enc}"),
            Method::Fpc => write!(f, "FPC"),
            Method::Uncompressed => write!(f, "uncompressed"),
        }
    }
}

/// A write-back after compression: the method plus the payload bytes that
/// will occupy the compression window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompressedWrite {
    method: Method,
    bytes: Vec<u8>,
}

/// Error returned by [`CompressedWrite::from_parts`] for inconsistent input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidWriteError(String);

impl std::fmt::Display for InvalidWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid compressed write: {}", self.0)
    }
}

impl std::error::Error for InvalidWriteError {}

impl CompressedWrite {
    /// Reassembles a `CompressedWrite` from stored metadata and payload
    /// (e.g. when replaying a recorded trace).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidWriteError`] if the payload length is inconsistent
    /// with the method or the payload does not decode.
    pub fn from_parts(method: Method, bytes: Vec<u8>) -> Result<Self, InvalidWriteError> {
        match method {
            Method::Uncompressed => {
                if bytes.len() != DATA_BYTES {
                    return Err(InvalidWriteError(format!(
                        "uncompressed payload must be 64 bytes, got {}",
                        bytes.len()
                    )));
                }
            }
            Method::Bdi(enc) => {
                bdi::decompress(enc, &bytes).map_err(|e| InvalidWriteError(e.to_string()))?;
            }
            Method::Fpc => {
                fpc::decompress(&bytes).map_err(|e| InvalidWriteError(e.to_string()))?;
                if bytes.len() >= DATA_BYTES {
                    return Err(InvalidWriteError(format!(
                        "fpc payload of {} bytes should have been stored uncompressed",
                        bytes.len()
                    )));
                }
            }
        }
        Ok(CompressedWrite { method, bytes })
    }

    /// The storage method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The payload that occupies the compression window.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Size of the compression window in bytes (64 for uncompressed).
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Compression ratio: compressed size / 64.
    pub fn ratio(&self) -> f64 {
        self.size() as f64 / DATA_BYTES as f64
    }
}

/// Compresses a line with both BDI and FPC and keeps the smaller result
/// (paper §III, "BEST"). Falls back to [`Method::Uncompressed`] when neither
/// compressor beats 64 bytes. Ties prefer BDI (1-cycle decompression).
///
/// # Examples
///
/// ```
/// use pcm_compress::{compress_best, Method};
/// use pcm_util::Line512;
///
/// let c = compress_best(&Line512::zero());
/// assert_eq!(c.size(), 1); // BDI zeros encoding wins
/// ```
pub fn compress_best(line: &Line512) -> CompressedWrite {
    let mut buf = [0u8; DATA_BYTES];
    let (method, len) = compress_best_into(line, &mut buf);
    CompressedWrite {
        method,
        bytes: buf[..len].to_vec(),
    }
}

/// Allocation-free [`compress_best`]: writes the winning payload into `out`
/// and returns the method plus payload length (64 for uncompressed). This
/// is the hot-path entry point — `compress_best` delegates here, so the two
/// can never disagree on method, size, or bytes.
///
/// Both codecs size the line from its eight words before anything is
/// written, and only the winner's payload is emitted.
// pcm-audit: root(hotpath-alloc) — allocation-free compression entry point; the docstring promises it
pub fn compress_best_into(line: &Line512, out: &mut [u8; DATA_BYTES]) -> (Method, usize) {
    let words = line.words();
    let bdi = bdi::encoding_of(&words);
    // FPC wins only when strictly smaller than both the BDI result and the
    // raw line; ties prefer BDI's 1-cycle decompression. It cannot beat
    // Zeros or Rep8: a repeated nonzero 8-byte word costs it at least 13
    // bits per 8 bytes (two 7-bit codes, or a zero-run code and one).
    let beat = bdi.map_or(DATA_BYTES, |enc| enc.compressed_size());
    if beat > BdiEncoding::Rep8.compressed_size()
        && fpc::stream_bits(&words, (beat - 1) * 8).is_some()
    {
        (Method::Fpc, fpc::pack(&words, out))
    } else if let Some(enc) = bdi {
        (Method::Bdi(enc), bdi::emit(&words, enc, out))
    } else {
        out.copy_from_slice(&line.to_bytes());
        (Method::Uncompressed, DATA_BYTES)
    }
}

/// Decompresses a [`CompressedWrite`] back into the original line.
///
/// # Examples
///
/// ```
/// use pcm_compress::{compress_best, decompress};
/// use pcm_util::Line512;
///
/// let mut rng = pcm_util::seeded_rng(9);
/// let line = Line512::random(&mut rng);
/// assert_eq!(decompress(&compress_best(&line)), line);
/// ```
pub fn decompress(write: &CompressedWrite) -> Line512 {
    match write.method {
        Method::Bdi(enc) => {
            bdi::decompress(enc, &write.bytes).expect("CompressedWrite payload is self-consistent")
        }
        Method::Fpc => {
            fpc::decompress(&write.bytes).expect("CompressedWrite payload is self-consistent")
        }
        Method::Uncompressed => {
            let arr: [u8; DATA_BYTES] = write
                .bytes
                .as_slice()
                .try_into()
                .expect("uncompressed payload is 64 bytes");
            Line512::from_bytes(&arr)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_line_prefers_bdi() {
        let c = compress_best(&Line512::zero());
        assert_eq!(c.method(), Method::Bdi(BdiEncoding::Zeros));
        assert_eq!(c.size(), 1);
        assert!((c.ratio() - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn fpc_wins_on_fpc_friendly_content() {
        // Independent small 4-byte values with no common 8-byte base
        // structure: BDI's pairs differ too much, FPC nibbles win.
        let mut bytes = [0u8; 64];
        let words: [i32; 16] = [5, -3, 7, 1, -8, 2, 6, -1, 4, 0, 3, -6, 7, 2, -4, 1];
        for (i, w) in words.iter().enumerate() {
            bytes[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        let line = Line512::from_bytes(&bytes);
        let c = compress_best(&line);
        // sizes: BDI B8D* cannot hold alternating sign words cheaply; FPC is
        // 16 * 7 = 112 bits = 14 bytes at most.
        assert_eq!(c.method(), Method::Fpc);
        assert!(c.size() <= 14, "fpc size {}", c.size());
        assert_eq!(decompress(&c), line);
    }

    #[test]
    fn random_line_is_uncompressed() {
        let mut rng = pcm_util::seeded_rng(77);
        let line = Line512::random(&mut rng);
        let c = compress_best(&line);
        assert_eq!(c.method(), Method::Uncompressed);
        assert_eq!(c.size(), 64);
        assert_eq!(decompress(&c), line);
    }

    #[test]
    fn five_bit_codes_are_unique_and_reversible() {
        let mut seen = std::collections::HashSet::new();
        for bits in 0u8..32 {
            if let Some(m) = Method::decode_5bit(bits) {
                assert_eq!(m.encode_5bit(), bits);
                assert!(seen.insert(bits));
            }
        }
        assert_eq!(seen.len(), 10); // 8 BDI + FPC + uncompressed
    }

    #[test]
    fn decompression_cycles_match_table1() {
        assert_eq!(Method::Bdi(BdiEncoding::B8D1).decompression_cycles(), 1);
        assert_eq!(Method::Fpc.decompression_cycles(), 5);
        assert_eq!(Method::Uncompressed.decompression_cycles(), 0);
    }

    #[test]
    fn from_parts_validates() {
        assert!(CompressedWrite::from_parts(Method::Uncompressed, vec![0; 64]).is_ok());
        assert!(CompressedWrite::from_parts(Method::Uncompressed, vec![0; 63]).is_err());
        assert!(CompressedWrite::from_parts(Method::Bdi(BdiEncoding::Zeros), vec![0]).is_ok());
        assert!(CompressedWrite::from_parts(Method::Bdi(BdiEncoding::B8D1), vec![0; 3]).is_err());
        let fpc_payload = crate::fpc::compress(&Line512::zero()).data().to_vec();
        assert!(CompressedWrite::from_parts(Method::Fpc, fpc_payload).is_ok());
    }

    #[test]
    fn display_strings() {
        assert_eq!(Method::Fpc.to_string(), "FPC");
        assert_eq!(Method::Uncompressed.to_string(), "uncompressed");
        assert_eq!(Method::Bdi(BdiEncoding::B8D2).to_string(), "BDI/B8D2");
    }
}
