//! Differential oracle for the compression codecs.
//!
//! `bdi`, `fpc` and `compress_best_into` size a line from its eight words
//! and emit only the winning payload. The reference below is the byte-level
//! encoder they replaced, kept verbatim in behaviour: BDI gathers each
//! element byte by byte and writes each geometry's deltas while it checks
//! them, FPC packs every code through `FixedBitWriter` and aborts once it
//! passes its cap, and BEST runs both and keeps the smaller. The two must
//! agree on the method, the length, every byte and every bit length, on
//! random lines and on a seeded corpus of lines built to sit on the
//! codecs' range edges.

use pcm_compress::bdi;
use pcm_compress::{compress_best_into, fpc};
use pcm_util::{seeded_rng, Line512, DATA_BYTES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngExt};

/// The byte-level encoders, as they were before the word-level rewrite.
mod reference {
    use pcm_compress::bdi::{BdiEncoding, ALL_ENCODINGS};
    use pcm_compress::bits::FixedBitWriter;
    use pcm_compress::Method;
    use pcm_util::{Line512, DATA_BYTES};

    fn element(bytes: &[u8; DATA_BYTES], k: usize, i: usize) -> u64 {
        let mut v = 0u64;
        for b in 0..k {
            v |= (bytes[i * k + b] as u64) << (8 * b);
        }
        v
    }

    fn sign_extend(v: u64, bits: usize) -> i64 {
        let shift = 64 - bits;
        ((v << shift) as i64) >> shift
    }

    fn try_base_delta(bytes: &[u8; DATA_BYTES], k: usize, d: usize) -> Option<Vec<u8>> {
        let base = element(bytes, k, 0);
        let lo = -(1i64 << (d * 8 - 1));
        let hi = (1i64 << (d * 8 - 1)) - 1;
        let mut out = base.to_le_bytes()[..k].to_vec();
        for i in 0..DATA_BYTES / k {
            let delta = sign_extend(element(bytes, k, i).wrapping_sub(base), k * 8);
            if delta < lo || delta > hi {
                return None;
            }
            out.extend_from_slice(&(delta as u64).to_le_bytes()[..d]);
        }
        Some(out)
    }

    /// Smallest-first BDI cascade.
    pub fn bdi(line: &Line512) -> Option<(BdiEncoding, Vec<u8>)> {
        if line.is_zero() {
            return Some((BdiEncoding::Zeros, vec![0]));
        }
        let words = line.words();
        if words.iter().all(|&w| w == words[0]) {
            return Some((BdiEncoding::Rep8, words[0].to_le_bytes().to_vec()));
        }
        let bytes = line.to_bytes();
        ALL_ENCODINGS.into_iter().find_map(|enc| {
            let (k, d) = enc.geometry()?;
            try_base_delta(&bytes, k, d).map(|data| (enc, data))
        })
    }

    fn fits_signed(v: u32, bits: u32) -> bool {
        let x = v as i32 as i64;
        x >= -(1i64 << (bits - 1)) && x < 1i64 << (bits - 1)
    }

    fn is_two_sign_extended_bytes(word: u32) -> bool {
        let lo = (word & 0xFFFF) as u16 as i16;
        let hi = (word >> 16) as u16 as i16;
        (-128..=127).contains(&lo) && (-128..=127).contains(&hi)
    }

    fn is_repeated_byte(word: u32) -> bool {
        let b = word & 0xFF;
        word == b | (b << 8) | (b << 16) | (b << 24)
    }

    /// FPC, aborting once the stream passes `max_bits`: the bit length and
    /// the packed bytes.
    pub fn fpc(line: &Line512, max_bits: usize) -> Option<(usize, Vec<u8>)> {
        let bytes = line.to_bytes();
        let words: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        let mut buf = [0u8; 70];
        let mut w = FixedBitWriter::new(&mut buf);
        let mut i = 0;
        while i < 16 {
            if w.bit_len() > max_bits {
                return None;
            }
            let word = words[i];
            if word == 0 {
                let mut run = 1;
                while run < 8 && i + run < 16 && words[i + run] == 0 {
                    run += 1;
                }
                w.put(0b000, 3);
                w.put((run - 1) as u64, 3);
                i += run;
                continue;
            }
            if fits_signed(word, 4) {
                w.put(0b001, 3);
                w.put((word & 0xF) as u64, 4);
            } else if fits_signed(word, 8) {
                w.put(0b010, 3);
                w.put((word & 0xFF) as u64, 8);
            } else if fits_signed(word, 16) {
                w.put(0b011, 3);
                w.put((word & 0xFFFF) as u64, 16);
            } else if word & 0xFFFF == 0 {
                w.put(0b100, 3);
                w.put((word >> 16) as u64, 16);
            } else if is_two_sign_extended_bytes(word) {
                w.put(0b101, 3);
                w.put((word & 0xFF) as u64, 8);
                w.put(((word >> 16) & 0xFF) as u64, 8);
            } else if is_repeated_byte(word) {
                w.put(0b110, 3);
                w.put((word & 0xFF) as u64, 8);
            } else {
                w.put(0b111, 3);
                w.put(word as u64, 32);
            }
            i += 1;
        }
        let bits = w.bit_len();
        if bits > max_bits {
            return None;
        }
        Some((bits, buf[..bits.div_ceil(8)].to_vec()))
    }

    /// BEST: FPC only when strictly smaller than BDI and the raw line.
    pub fn best(line: &Line512) -> (Method, Vec<u8>) {
        let bdi = bdi(line);
        let budget = bdi
            .as_ref()
            .map_or(usize::MAX, |(_, d)| d.len())
            .min(DATA_BYTES)
            - 1;
        let fpc = if budget < 2 {
            None
        } else {
            fpc(line, budget * 8)
        };
        match (fpc, bdi) {
            (Some((_, data)), _) => (Method::Fpc, data),
            (None, Some((enc, data))) => (Method::Bdi(enc), data),
            (None, None) => (Method::Uncompressed, line.to_bytes().to_vec()),
        }
    }
}

fn hex(line: &Line512) -> String {
    line.to_bytes().iter().map(|b| format!("{b:02x}")).collect()
}

/// Checks every entry point against the reference on one line: BEST, BDI,
/// and bounded FPC at every cap in `caps` plus the caps on either side of
/// the line's own stream length.
fn check(line: &Line512, caps: impl IntoIterator<Item = usize>) {
    let mut out = [0u8; DATA_BYTES];
    let (method, len) = compress_best_into(line, &mut out);
    let (want_method, want) = reference::best(line);
    assert_eq!(
        (method, &out[..len]),
        (want_method, &want[..]),
        "compress_best_into differs on {}",
        hex(line)
    );

    let got = bdi::compress(line).map(|c| (c.encoding(), c.data().to_vec()));
    assert_eq!(
        got,
        reference::bdi(line),
        "bdi::compress differs on {}",
        hex(line)
    );

    // The reference agrees at one cap below the stream's length and at the
    // length itself only if the two lengths are equal.
    let bits = fpc::compress(line).bit_len();
    for cap in caps.into_iter().chain([bits - 1, bits]) {
        let got = fpc::compress_bounded(line, cap).map(|c| (c.bit_len(), c.data().to_vec()));
        assert_eq!(
            got,
            reference::fpc(line, cap),
            "fpc::compress_bounded at cap {cap} differs on {}",
            hex(line)
        );
    }
}

/// Every cap an FPC stream can meet: 0 up to sixteen raw words.
fn every_cap() -> std::ops::RangeInclusive<usize> {
    0..=fpc::FPC_MAX_BYTES * 8
}

/// Delta magnitudes at each BDI range edge: 1, 2 and 4 bytes, and one past.
const DELTA_EDGES: [i64; 6] = [127, 128, 32_767, 32_768, (1 << 31) - 1, 1 << 31];

/// FPC words at and beside every prefix boundary, plus the repeated-byte
/// words that also read as sign-extended values.
const WORD_EDGES: [u32; 30] = [
    0x0000_0001,
    0x0000_0007,
    0x0000_0008,
    0xFFFF_FFF8,
    0xFFFF_FFF7,
    0x0000_007F,
    0x0000_0080,
    0xFFFF_FF80,
    0xFFFF_FF7F,
    0x0000_7FFF,
    0x0000_8000,
    0xFFFF_8000,
    0xFFFF_7FFF,
    0x0001_0000,
    0x7FFF_0000,
    0x8000_0000,
    0xFFFF_0000,
    0x007F_007F,
    0x0080_007F,
    0x007F_0080,
    0xFF80_FF80,
    0xFF7F_FF80,
    0xFF80_FF7F,
    0x0080_0080,
    0x8080_8080,
    0xFFFF_FFFF,
    0x7F7F_7F7F,
    0x0101_0101,
    0x0101_0100,
    0xFEFF_FFFF,
];

fn line_of_u32s(words: [u32; 16]) -> Line512 {
    Line512::from_words(std::array::from_fn(|i| {
        u64::from(words[2 * i]) | u64::from(words[2 * i + 1]) << 32
    }))
}

/// A base plus deltas at element width 8, 4 or 2 bytes, drawn up to one
/// of the range edges and sometimes exactly on it or one past it.
fn base_delta_line(rng: &mut StdRng) -> Line512 {
    let k = [8usize, 4, 2][rng.random_range(0..3usize)];
    let m = DELTA_EDGES[rng.random_range(0..DELTA_EDGES.len())];
    let base = match rng.random_range(0..4u32) {
        0 => 0,
        1 => u64::MAX,
        2 => 1 << 63,
        _ => rng.next_u64(),
    };
    let mask = if k == 8 { u64::MAX } else { (1 << (8 * k)) - 1 };
    let mut bytes = [0u8; DATA_BYTES];
    for i in 0..DATA_BYTES / k {
        let delta = match (i, rng.random_range(0..8u32)) {
            (0, _) => 0,
            (_, 0) => m,
            (_, 1) => -m - 1,
            (_, 2) => -m,
            _ => rng.random_range(-m..m),
        };
        let e = base.wrapping_add(delta as u64) & mask;
        bytes[i * k..i * k + k].copy_from_slice(&e.to_le_bytes()[..k]);
    }
    Line512::from_bytes(&bytes)
}

/// One 4-byte word of a random FPC class, or a boundary word.
fn fpc_word(rng: &mut StdRng) -> u32 {
    let sext = |b: u32| b as u8 as i8 as i16 as u16 as u32;
    let r = rng.next_u64() as u32;
    match rng.random_range(0..9u32) {
        0 => 0,
        1 => (r as i32 >> 28) as u32,
        2 => (r as i32 >> 24) as u32,
        3 => (r as i32 >> 16) as u32,
        4 => r << 16,
        5 => sext(r) | sext(r >> 8) << 16,
        6 => (r & 0xFF) * 0x0101_0101,
        7 => r,
        _ => WORD_EDGES[rng.random_range(0..WORD_EDGES.len())],
    }
}

/// FPC-class words with one run of zero words: 1–16 long, often 8 or 9,
/// often leading or trailing.
fn zero_run_line(rng: &mut StdRng) -> Line512 {
    let mut words: [u32; 16] = std::array::from_fn(|_| fpc_word(rng));
    let len = match rng.random_range(0..4u32) {
        0 => 8,
        1 => 9,
        _ => rng.random_range(1..=16usize),
    };
    let start = match rng.random_range(0..3u32) {
        0 => 0,
        1 => 16 - len,
        _ => rng.random_range(0..=16 - len),
    };
    words[start..start + len].fill(0);
    line_of_u32s(words)
}

/// Repeated-byte words, leaning on 0x80 and 0xFF, with a few others.
fn repeated_byte_line(rng: &mut StdRng) -> Line512 {
    line_of_u32s(std::array::from_fn(|_| match rng.random_range(0..6u32) {
        0 => 0x8080_8080,
        1 => 0xFFFF_FFFF,
        2 => fpc_word(rng),
        _ => (rng.next_u64() as u32 & 0xFF) * 0x0101_0101,
    }))
}

/// One line of the seeded corpus.
fn structured_line(rng: &mut StdRng) -> Line512 {
    match rng.random_range(0..7u32) {
        0 => base_delta_line(rng),
        1 => line_of_u32s(std::array::from_fn(|_| {
            WORD_EDGES[rng.random_range(0..WORD_EDGES.len())]
        })),
        2 => zero_run_line(rng),
        3 => repeated_byte_line(rng),
        4 => line_of_u32s(std::array::from_fn(|_| fpc_word(rng))),
        5 => {
            let half = u64::from(fpc_word(rng));
            Line512::from_words([half | u64::from(fpc_word(rng)) << 32; 8])
        }
        _ => Line512::from_words(std::array::from_fn(|_| rng.next_u64())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_lines_match_the_reference_at_every_cap(
        words in prop::array::uniform8(any::<u64>()),
    ) {
        check(&Line512::from_words(words), every_cap());
    }

    #[test]
    fn structured_lines_match_the_reference_at_every_cap(seed in any::<u64>()) {
        check(&structured_line(&mut seeded_rng(seed)), every_cap());
    }
}

#[test]
fn a_million_structured_lines_match_the_reference() {
    let mut rng = seeded_rng(0x5EED);
    let mut methods = std::collections::BTreeSet::new();
    for i in 0..1_000_000 {
        let line = structured_line(&mut rng);
        methods.insert(
            compress_best_into(&line, &mut [0; DATA_BYTES])
                .0
                .encode_5bit(),
        );
        // Every cap on one line in 4096; the caps on either side of its
        // own stream length on the rest.
        if i % 4096 == 0 {
            check(&line, every_cap());
        } else {
            check(&line, []);
        }
    }
    // The corpus reaches every method the selector can pick.
    assert_eq!(methods.len(), 10, "methods seen: {methods:?}");
}
