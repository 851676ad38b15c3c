//! Frequent Value Compression (Yang & Gupta, MICRO 2000) — the paper's
//! reference \[14\].
//!
//! FVC exploits *value locality*: a small set of 32-bit values (0, 1, -1,
//! small constants, common pointers) accounts for a large share of memory
//! words. A dictionary of the `N` most frequent values is trained offline
//! (or per epoch in hardware); each word is then stored as a
//! `1 + log2(N)`-bit dictionary hit or a 33-bit literal miss.
//!
//! The DSN'17 controller uses BDI+FPC; FVC is provided as a third,
//! pluggable compressor so the selector choice can be evaluated — its
//! dictionary state makes it costlier to deploy (the dictionary must be
//! persisted and versioned with the data), which is exactly why the paper
//! prefers stateless codecs.

use crate::bits::{BitReader, FixedBitWriter};
use pcm_util::Line512;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A trained FVC dictionary of 32-bit values.
///
/// # Examples
///
/// ```
/// use pcm_compress::fvc::FvcDictionary;
/// use pcm_util::Line512;
///
/// // Train on a stream dominated by zeros and a magic constant.
/// let mut samples = vec![Line512::zero(); 10];
/// let mut magic = [0u8; 64];
/// for w in 0..16 { magic[w * 4..w * 4 + 4].copy_from_slice(&0xCAFEu32.to_le_bytes()); }
/// samples.push(Line512::from_bytes(&magic));
///
/// let dict = FvcDictionary::train(samples.iter(), 8);
/// let c = dict.compress(&samples[10]);
/// assert!(c.size_bytes() < 64);
/// assert_eq!(dict.decompress(c.data()).unwrap(), samples[10]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FvcDictionary {
    values: Vec<u32>,
    index_bits: u32,
}

/// An FVC-compressed line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FvcCompressed {
    data: Vec<u8>,
    bit_len: usize,
}

impl FvcCompressed {
    /// The packed payload bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Compressed size in whole bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// Exact compressed size in bits.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }
}

/// Error returned when an FVC payload cannot be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeFvcError;

impl std::fmt::Display for DecodeFvcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fvc payload truncated")
    }
}

impl std::error::Error for DecodeFvcError {}

impl FvcDictionary {
    /// Trains a dictionary of the `entries` most frequent 32-bit words in
    /// the sample lines (ties broken by value for determinism).
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two in `2..=256`.
    pub fn train<'a, I: IntoIterator<Item = &'a Line512>>(samples: I, entries: usize) -> Self {
        assert!(
            entries.is_power_of_two() && (2..=256).contains(&entries),
            "dictionary size must be a power of two in 2..=256, got {entries}"
        );
        // BTreeMap keeps the ranking deterministic by construction: the
        // stable sort below then only reorders by frequency, with the
        // value-ascending map order as the built-in tie-break.
        let mut freq: BTreeMap<u32, u64> = BTreeMap::new();
        for line in samples {
            for chunk in line.to_bytes().chunks_exact(4) {
                let v = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
                *freq.entry(v).or_default() += 1;
            }
        }
        let mut ranked: Vec<(u32, u64)> = freq.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let values: Vec<u32> = ranked.into_iter().take(entries).map(|(v, _)| v).collect();
        let index_bits = entries.trailing_zeros();
        FvcDictionary { values, index_bits }
    }

    /// The dictionary contents, most frequent first.
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// Bits per dictionary index.
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Compresses a line into an [`FvcCompressed`]: per 32-bit word, a 1-bit
    /// hit flag then either the dictionary index or the 32-bit literal.
    pub fn compress(&self, line: &Line512) -> FvcCompressed {
        // At most 16 literal misses of 1 + 32 bits.
        let mut buf = [0u8; 66];
        let mut w = FixedBitWriter::new(&mut buf);
        for chunk in line.to_bytes().chunks_exact(4) {
            let v = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
            match self.values.iter().position(|&d| d == v) {
                Some(idx) => {
                    w.put(1, 1);
                    if self.index_bits > 0 {
                        w.put(idx as u64, self.index_bits);
                    }
                }
                None => {
                    w.put(0, 1);
                    w.put(v as u64, 32);
                }
            }
        }
        let bit_len = w.bit_len();
        FvcCompressed {
            data: buf[..bit_len.div_ceil(8)].to_vec(),
            bit_len,
        }
    }

    /// Decompresses an FVC payload.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeFvcError`] on a truncated payload or an index
    /// beyond the trained dictionary.
    pub fn decompress(&self, data: &[u8]) -> Result<Line512, DecodeFvcError> {
        let mut r = BitReader::new(data);
        let mut bytes = [0u8; 64];
        for word in 0..16 {
            let hit = r.pull(1).map_err(|_| DecodeFvcError)?;
            let v = if hit == 1 {
                let idx = if self.index_bits > 0 {
                    r.pull(self.index_bits).map_err(|_| DecodeFvcError)? as usize
                } else {
                    0
                };
                *self.values.get(idx).ok_or(DecodeFvcError)?
            } else {
                r.pull(32).map_err(|_| DecodeFvcError)? as u32
            };
            bytes[word * 4..word * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        Ok(Line512::from_bytes(&bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_util::seeded_rng;

    fn zero_heavy_line(nonzero_words: &[(usize, u32)]) -> Line512 {
        let mut bytes = [0u8; 64];
        for &(w, v) in nonzero_words {
            bytes[w * 4..w * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        Line512::from_bytes(&bytes)
    }

    #[test]
    fn train_ranks_by_frequency() {
        let lines = vec![
            zero_heavy_line(&[(0, 7), (1, 7), (2, 9)]),
            zero_heavy_line(&[(0, 7)]),
        ];
        let dict = FvcDictionary::train(lines.iter(), 4);
        assert_eq!(dict.values()[0], 0, "zero dominates");
        assert_eq!(dict.values()[1], 7);
        assert_eq!(dict.values()[2], 9);
        assert_eq!(dict.index_bits(), 2);
    }

    #[test]
    fn hit_heavy_line_compresses_hard() {
        let lines = vec![Line512::zero(); 4];
        let dict = FvcDictionary::train(lines.iter(), 8);
        let c = dict.compress(&Line512::zero());
        // 16 words × (1 + 3) bits = 64 bits = 8 bytes.
        assert_eq!(c.bit_len(), 16 * 4);
        assert_eq!(dict.decompress(c.data()).unwrap(), Line512::zero());
    }

    #[test]
    fn misses_round_trip() {
        let mut rng = seeded_rng(3);
        let dict = FvcDictionary::train(std::iter::once(&Line512::zero()), 4);
        for _ in 0..32 {
            let line = Line512::random(&mut rng);
            let c = dict.compress(&line);
            assert_eq!(dict.decompress(c.data()).unwrap(), line);
            // All misses: 16 × 33 bits, worse than raw — as expected for
            // incompressible content.
            assert!(c.bit_len() <= 16 * 33);
        }
    }

    #[test]
    fn truncated_payload_rejected() {
        let dict = FvcDictionary::train(std::iter::once(&Line512::zero()), 4);
        let mut rng = seeded_rng(4);
        let c = dict.compress(&Line512::random(&mut rng));
        assert_eq!(
            dict.decompress(&c.data()[..c.size_bytes() - 2]),
            Err(DecodeFvcError)
        );
    }

    #[test]
    fn mixed_hits_and_misses() {
        let training = vec![
            zero_heavy_line(&[(0, 0xAAAA), (1, 0xAAAA), (5, 0xBBBB)]),
            zero_heavy_line(&[(2, 0xAAAA)]),
        ];
        let dict = FvcDictionary::train(training.iter(), 4);
        let line = zero_heavy_line(&[(0, 0xAAAA), (3, 0xDEAD_BEEF)]);
        let c = dict.compress(&line);
        assert_eq!(dict.decompress(c.data()).unwrap(), line);
        // 15 hits × (1 + 2 index bits) + 1 miss × (1 + 32) = 78 bits.
        assert_eq!(c.bit_len(), 15 * 3 + 33);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_dictionary_size() {
        FvcDictionary::train(std::iter::once(&Line512::zero()), 3);
    }
}
