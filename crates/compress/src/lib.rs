//! Cache-line compression for PCM memories: BDI, FPC, and a best-of selector.
//!
//! This crate implements the two compression schemes the DSN'17 paper's
//! memory controller runs in parallel on every LLC write-back (paper §III,
//! Table I):
//!
//! * [`bdi`] — **Base-Delta-Immediate** (Pekhimenko et al., PACT 2012):
//!   stores one base word plus narrow deltas. Compresses a 64-byte block to
//!   1–40 bytes; decompression costs 1 CPU cycle.
//! * [`fpc`] — **Frequent Pattern Compression** (Alameldeen & Wood,
//!   ISCA 2004): per-4-byte-word prefix codes for frequent patterns
//!   (zero runs, sign-extended narrow values, repeated bytes);
//!   decompression costs 5 CPU cycles.
//! * [`best`] — the controller's selector: runs both, stores whichever is
//!   smaller, falls back to uncompressed when neither wins.
//!
//! Compression here is *lossless and exact*: every compressor has a
//! decompressor and round-trip is property-tested.
//!
//! # Examples
//!
//! ```
//! use pcm_compress::{compress_best, decompress, Method};
//! use pcm_util::Line512;
//!
//! // A line of small 64-bit integers compresses extremely well.
//! let mut bytes = [0u8; 64];
//! for i in 0..8 { bytes[i * 8] = i as u8; }
//! let line = Line512::from_bytes(&bytes);
//!
//! let c = compress_best(&line);
//! assert!(c.size() < 64);
//! assert_ne!(c.method(), Method::Uncompressed);
//! assert_eq!(decompress(&c), line);
//! ```

#![forbid(unsafe_code)]

pub mod bdi;
pub mod best;
pub mod bits;
pub mod fpc;
pub mod fvc;

pub use bdi::BdiEncoding;
pub use best::{compress_best, compress_best_into, decompress, CompressedWrite, Method};
pub use fvc::FvcDictionary;

#[cfg(test)]
mod proptests {
    use super::*;
    use pcm_util::Line512;
    use proptest::prelude::*;

    fn arb_line() -> impl Strategy<Value = Line512> {
        prop::array::uniform8(any::<u64>()).prop_map(Line512::from_words)
    }

    /// A line biased toward compressible content: one base plus narrow deltas.
    fn arb_compressible_line() -> impl Strategy<Value = Line512> {
        (any::<u64>(), prop::collection::vec(-128i64..128, 8)).prop_map(|(base, deltas)| {
            let mut words = [0u64; 8];
            for (w, d) in words.iter_mut().zip(deltas) {
                *w = base.wrapping_add(d as u64);
            }
            Line512::from_words(words)
        })
    }

    proptest! {
        #[test]
        fn best_round_trips_random(line in arb_line()) {
            let c = compress_best(&line);
            prop_assert_eq!(decompress(&c), line);
            prop_assert!(c.size() <= 64);
        }

        #[test]
        fn best_round_trips_compressible(line in arb_compressible_line()) {
            let c = compress_best(&line);
            prop_assert_eq!(decompress(&c), line);
            prop_assert!(c.size() <= 40, "base-delta content must compress, got {}", c.size());
        }

        #[test]
        fn bdi_round_trips(line in arb_line()) {
            if let Some(c) = bdi::compress(&line) {
                prop_assert_eq!(bdi::decompress(c.encoding(), c.data()).unwrap(), line);
            }
        }

        #[test]
        fn fpc_round_trips(line in arb_line()) {
            let c = fpc::compress(&line);
            prop_assert_eq!(fpc::decompress(c.data()).unwrap(), line);
        }

        #[test]
        fn metadata_round_trips(line in arb_line()) {
            let c = compress_best(&line);
            let bits = c.method().encode_5bit();
            prop_assert_eq!(Method::decode_5bit(bits).unwrap(), c.method());
        }
    }
}
