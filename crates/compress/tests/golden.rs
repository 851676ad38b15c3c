//! Golden-vector lock on the compression wire format.
//!
//! Round-trip property tests (`tests/props.rs`) prove `decompress ∘ compress`
//! is the identity, but they would happily accept an optimized encoder that
//! silently changed the *bytes on the wire* — a different-but-still-decodable
//! BDI base choice, an FPC prefix reordering, a changed tie-break in
//! `compress_best`. Any such change invalidates every stored-size, flip-count
//! and lifetime number in the repo, so the format is pinned byte-for-byte
//! here: ~40 crafted 512-bit lines with the exact expected BDI variant id,
//! FPC prefix stream, and best-of selector outcome.
//!
//! The `EXPECTED` table was captured from the pre-optimization encoders
//! (PR 2). If a change to these strings is ever *intentional*, regenerate
//! with:
//!
//! ```text
//! cargo test -p pcm-compress --test golden -- --ignored regenerate --nocapture
//! ```
//!
//! and justify the format break in the PR description.

use pcm_compress::{bdi, compress_best, decompress, fpc};
use pcm_util::{seeded_rng, Line512};
use rand::Rng;

fn line_of_words(words: [u64; 8]) -> Line512 {
    Line512::from_words(words)
}

fn line_of_u32s(words: [u32; 16]) -> Line512 {
    let mut bytes = [0u8; 64];
    for (i, w) in words.iter().enumerate() {
        bytes[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
    }
    Line512::from_bytes(&bytes)
}

/// The crafted corpus. Every vector is a pure function of constants or a
/// fixed seed, so the inputs themselves are as reproducible as the outputs.
fn corpus() -> Vec<(&'static str, Line512)> {
    let mut v: Vec<(&'static str, Line512)> = Vec::new();

    // --- BDI special cases ---------------------------------------------
    v.push(("zeros", Line512::zero()));
    v.push(("rep8-deadbeef", line_of_words([0xDEAD_BEEF_CAFE_F00D; 8])));
    v.push(("rep8-all-ones", line_of_words([u64::MAX; 8])));

    // --- BDI base-delta geometries -------------------------------------
    let b = 0x1000_0000_0000u64;
    v.push((
        "b8d1-small-deltas",
        line_of_words([
            b,
            b + 1,
            b + 127,
            b.wrapping_sub(128),
            b,
            b + 2,
            b + 3,
            b + 4,
        ]),
    ));
    let m = u64::MAX - 3;
    v.push((
        "b8d1-wrapping",
        line_of_words([m, m.wrapping_add(5), m, m, m, m, m, m]),
    ));
    {
        // 4-byte elements near a common base; 8-byte pairs far apart.
        let mut bytes = [0u8; 64];
        let base4: u32 = 0xABCD_1200;
        for i in 0..16 {
            let e = base4 + i as u32;
            bytes[i * 4..i * 4 + 4].copy_from_slice(&e.to_le_bytes());
        }
        v.push(("b4d1-stride", Line512::from_bytes(&bytes)));
    }
    let b = 0x55u64 << 32;
    v.push((
        "b8d2-wide-deltas",
        line_of_words([b, b + 200, b + 30000, b - 30000, b, b, b, b + 129]),
    ));
    {
        // 2-byte elements with tiny deltas; the i%5 stride makes every
        // wider view (4- and 8-byte elements) have out-of-range deltas.
        let mut bytes = [0u8; 64];
        let base2: u16 = 0x7F00;
        for i in 0..32 {
            let e = base2.wrapping_add((i % 5) as u16);
            bytes[i * 2..i * 2 + 2].copy_from_slice(&e.to_le_bytes());
        }
        v.push(("b2d1-stride", Line512::from_bytes(&bytes)));
    }
    {
        // 4-byte elements, 2-byte deltas; per-element stride breaks both
        // the 1-byte-delta and all 8-byte-element geometries.
        let mut bytes = [0u8; 64];
        let base4: u32 = 0x4000_0000;
        for i in 0..16 {
            let e = base4.wrapping_add((i as u32 * 1000).wrapping_sub(7000));
            bytes[i * 4..i * 4 + 4].copy_from_slice(&e.to_le_bytes());
        }
        v.push(("b4d2-stride", Line512::from_bytes(&bytes)));
    }
    let b = 1u64 << 60;
    v.push((
        "b8d4-wide-deltas",
        line_of_words([
            b,
            b + 1_000_000,
            b.wrapping_sub(2_000_000_000),
            b + 2_000_000_000,
            b,
            b + 70_000,
            b,
            b + 5,
        ]),
    ));
    let b = 0x0123_4567_89AB_CDEFu64;
    v.push((
        "b8d1-delta-extremes",
        line_of_words([
            b,
            b + 127,
            b.wrapping_sub(128),
            b,
            b + 127,
            b.wrapping_sub(128),
            b,
            b,
        ]),
    ));
    let b = 0x00FF_FFFF_FFFF_FF80u64;
    v.push((
        "b8d1-carry-across-bytes",
        line_of_words([b, b + 127, b + 64, b + 32, b, b + 1, b + 2, b + 3]),
    ));

    // --- FPC prefix coverage -------------------------------------------
    v.push((
        "fpc-sign4",
        line_of_u32s([7, (-2i32) as u32, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ));
    v.push((
        "fpc-sign8",
        line_of_u32s([
            100,
            (-100i32) as u32,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
        ]),
    ));
    v.push((
        "fpc-sign16",
        line_of_u32s([
            30_000,
            (-30_000i32) as u32,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
        ]),
    ));
    v.push((
        "fpc-low-zero",
        line_of_u32s([0xABCD_0000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ));
    v.push((
        "fpc-two-bytes",
        line_of_u32s([0x0064_FFFB, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ));
    v.push((
        "fpc-rep-byte",
        line_of_u32s([0x5A5A_5A5A, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ));
    v.push((
        "fpc-trailing-word",
        line_of_u32s([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
    ));
    v.push((
        "fpc-all-prefixes",
        line_of_u32s([
            0,
            3,
            200,
            0x7FFF,
            0xFFFF_0000,
            0x0042_0099,
            0x7777_7777,
            0xDEAD_BEEF,
            0,
            0,
            0,
            0x00FF_00FE,
            1,
            0xFFFF_FFFF,
            0x0001_0001,
            0x8000_0000,
        ]),
    ));
    v.push((
        "fpc-small-mixed-signs",
        line_of_u32s([
            5,
            (-3i32) as u32,
            7,
            1,
            (-8i32) as u32,
            2,
            6,
            (-1i32) as u32,
            4,
            0,
            3,
            (-6i32) as u32,
            7,
            2,
            (-4i32) as u32,
            1,
        ]),
    ));
    v.push((
        "fpc-zero-run-cap",
        line_of_u32s([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0]),
    ));
    v.push((
        "fpc-rep-bytes-varied",
        line_of_u32s([
            0x1111_1111,
            0x2222_2222,
            0xEEEE_EEEE,
            0x5A5A_5A5A,
            0,
            0,
            0x8080_8080,
            0xFFFF_FFFF,
            0x0101_0101,
            0,
            0,
            0,
            0x4242_4242,
            0x9999_9999,
            0x7F7F_7F7F,
            0xA5A5_A5A5,
        ]),
    ));

    // --- best-of selector edges ----------------------------------------
    {
        // 8 raw words + 8 zero words: BDI fails, FPC ≈ 37 bytes < 64.
        let mut rng = seeded_rng(0xF1);
        let mut u = [0u32; 16];
        for w in u.iter_mut().take(8) {
            *w = (rng.next_u64() as u32) | 0x0101_0000; // keep raw-ish
        }
        v.push(("best-half-raw-half-zero", line_of_u32s(u)));
    }
    {
        // All 16 words raw: FPC exceeds 64 bytes, BDI fails → uncompressed.
        let mut rng = seeded_rng(0xF2);
        let mut u = [0u32; 16];
        for w in u.iter_mut() {
            *w = (rng.next_u64() as u32) | 0x0301_0080;
        }
        v.push(("best-all-raw", line_of_u32s(u)));
    }
    v.push(("best-random-77", Line512::random(&mut seeded_rng(77))));
    v.push(("best-random-1234", Line512::random(&mut seeded_rng(1234))));
    v.push(("best-random-9", Line512::random(&mut seeded_rng(9))));

    // --- seeded structured families ------------------------------------
    // Near-base 8-byte elements: random base, random small deltas.
    for (name, seed, spread) in [
        ("rand-b8d1-s11", 11u64, 1u64 << 7),
        ("rand-b8d2-s12", 12, 1 << 15),
        ("rand-b8d4-s13", 13, 1 << 31),
        ("rand-b8d1-s14", 14, 1 << 6),
        ("rand-b8d4-s15", 15, 1 << 29),
    ] {
        let mut rng = seeded_rng(seed);
        let base = rng.next_u64();
        let mut words = [0u64; 8];
        for w in words.iter_mut() {
            let delta = (rng.next_u64() % spread) as i64 - (spread / 2) as i64;
            *w = base.wrapping_add(delta as u64);
        }
        v.push((name, line_of_words(words)));
    }
    // Small-magnitude 4-byte words: FPC territory.
    for (name, seed) in [
        ("rand-fpc-s21", 21u64),
        ("rand-fpc-s22", 22),
        ("rand-fpc-s23", 23),
    ] {
        let mut rng = seeded_rng(seed);
        let mut u = [0u32; 16];
        for w in u.iter_mut() {
            let x = (rng.next_u64() % 512) as i64 - 256;
            *w = x as i32 as u32;
        }
        v.push((name, line_of_u32s(u)));
    }
    // Sparse lines: mostly zero with a few random words.
    for (name, seed) in [("rand-sparse-s31", 31u64), ("rand-sparse-s32", 32)] {
        let mut rng = seeded_rng(seed);
        let mut u = [0u32; 16];
        for _ in 0..3 {
            let slot = (rng.next_u64() % 16) as usize;
            u[slot] = rng.next_u64() as u32;
        }
        v.push((name, line_of_u32s(u)));
    }
    // Pointer-like: shared high 32 bits, varying low words.
    for (name, seed) in [("rand-pointers-s41", 41u64), ("rand-pointers-s42", 42)] {
        let mut rng = seeded_rng(seed);
        let hi = rng.next_u64() & 0xFFFF_FFFF_0000_0000;
        let mut words = [0u64; 8];
        for w in words.iter_mut() {
            *w = hi | (rng.next_u64() & 0xFFFF_FFFF);
        }
        v.push((name, line_of_words(words)));
    }
    // Repeated-halfword texture.
    {
        let mut rng = seeded_rng(51);
        let h = (rng.next_u64() & 0xFFFF) as u32;
        let word = h | (h << 16);
        v.push(("rand-halfword-texture", line_of_u32s([word; 16])));
    }

    v
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One canonical row per vector:
/// `best=<5-bit code>:<payload hex> bdi=<id>:<hex>|none fpc=<bit_len>:<hex>`.
fn observed_row(line: &Line512) -> String {
    let best = compress_best(line);
    let bdi_part = match bdi::compress(line) {
        Some(c) => format!("{}:{}", c.encoding().id(), hex(c.data())),
        None => "none".to_string(),
    };
    let f = fpc::compress(line);
    format!(
        "best={}:{} bdi={} fpc={}:{}",
        best.method().encode_5bit(),
        hex(best.bytes()),
        bdi_part,
        f.bit_len(),
        hex(f.data()),
    )
}

#[test]
fn golden_vectors_lock_wire_format() {
    let corpus = corpus();
    assert_eq!(
        corpus.len(),
        EXPECTED.len(),
        "corpus and EXPECTED table out of sync"
    );
    for ((name, line), (exp_name, exp_row)) in corpus.iter().zip(EXPECTED) {
        assert_eq!(name, exp_name, "corpus order drifted from EXPECTED table");
        let row = observed_row(line);
        assert_eq!(
            row,
            *exp_row,
            "wire format changed for vector `{name}`\n input: {}",
            hex(&line.to_bytes())
        );
        // The locked bytes must also still decode to the input.
        assert_eq!(
            decompress(&compress_best(line)),
            *line,
            "round-trip broke for `{name}`"
        );
    }
}

#[test]
fn golden_corpus_covers_every_method() {
    // Guards the corpus itself: all 8 BDI encodings, FPC, and uncompressed
    // must each be exercised, so a regression in any branch is caught.
    let mut seen = std::collections::HashSet::new();
    for (_, line) in corpus() {
        seen.insert(compress_best(&line).method().encode_5bit());
        if let Some(c) = bdi::compress(&line) {
            seen.insert(c.encoding().id());
        }
    }
    for code in 0u8..10 {
        assert!(
            seen.contains(&code),
            "no corpus vector exercises method code {code}"
        );
    }
}

/// Prints the `EXPECTED` table source. Run only to *intentionally* re-pin
/// the wire format after a justified change:
/// `cargo test -p pcm-compress --test golden -- --ignored regenerate --nocapture`
#[test]
#[ignore = "regenerates the golden table; run only for an intentional format change"]
fn regenerate() {
    println!("const EXPECTED: &[(&str, &str)] = &[");
    for (name, line) in corpus() {
        println!("    (\"{name}\", \"{}\"),", observed_row(&line));
    }
    println!("];");
}

const EXPECTED: &[(&str, &str)] = &[
    ("zeros", "best=0:00 bdi=0:00 fpc=12:380e"),
    ("rep8-deadbeef", "best=1:0df0fecaefbeadde bdi=1:0df0fecaefbeadde fpc=560:6f80f757febb6fabf71be0fd95ffeedbeafd06787fe5bffbb67abf01de5ff9efbeadde6f80f757febb6fabf71be0fd95ffeedbeafd06787fe5bffbb67abf01de5ff9efbeadde"),
    ("rep8-all-ones", "best=1:ffffffffffffffff bdi=1:ffffffffffffffff fpc=112:f97c3e9fcfe7f3f97c3e9fcfe7f3"),
    ("b8d1-small-deltas", "best=2:000000000010000000017f8000020304 bdi=2:000000000010000000017f8000020304 fpc=214:c00020120380d0df002004b8ff07600010910140640600111a0004"),
    ("b8d1-wrapping", "best=8:e17c0208e7c3f9703e9c0fe7c379 bdi=2:fcffffffffffffff0005000000000000 fpc=111:e17c0208e7c3f9703e9c0fe7c379"),
    ("b4d1-stride", "best=3:0012cdab000102030405060708090a0b0c0d0e0f bdi=3:0012cdab000102030405060708090a0b0c0d0e0f fpc=560:0790685e7d8044f3ea05249a573f20d1bc7a0289e6d5174834afde40a279f50712cdab4790685e7d8244f3ea15249a57bf20d1bc7a0689e6d5374834afde41a279f50f12cdab"),
    ("b8d2-wide-deltas", "best=4:00000000550000000000c8003075d08a0000000000008100 bdi=4:00000000550000000000c8003075d08a0000000000008100 fpc=188:80aa860ca0aac1d4a96ad08aa2025405a80a50d502015405"),
    ("b2d1-stride", "best=5:007f0001020304000102030400010203040001020304000102030400010203040001 bdi=5:007f0001020304000102030400010203040001020304000102030400010203040001 fpc=560:07f80bf8bbc0dfc0df09fe00fe1ef027f0f7813f82bf03fc05fc5de06fe0ef047f007f0ff813f8fbc01fc1df01fe02fe2ef037f077823f80bf07fc09fc7de08fe0ef007f017f"),
    ("b4d2-stride", "best=6:a8e4ff3f0000e803d007b80ba00f88137017581b401f28231027f82ae02ec832b036983a bdi=6:a8e4ff3f0000e803d007b80ba00f88137017581b401f28231027f82ae02ec832b036983a fpc=544:4725ffff3924faffcff1d8ff7f0e06ffff7324faff9fc3e0ffff1c83ffff870040471f00003af40100d0711700800efa000074c40900a0c35d00001d6b0300e8401f0040"),
    ("b8d4-wide-deltas", "best=7:00000000000000100000000040420f00006cca880094357700000000701101000000000005000000 bdi=7:00000000000000100000000040420f00006cca880094357700000000701101000000000005000000 fpc=333:0001200e24f40040008803b02923feffffffe100943577048000080071b8880000024000048048110002"),
    ("b8d1-delta-extremes", "best=2:efcdab8967452301007f80007f800000 bdi=2:efcdab8967452301007f80007f800000 fpc=560:7f6f5e4dfc59d148c0dd9c57137f563412f0b7e6d5c49f158d04fcbd7935f16745230177735e4dfc59d148c0df9a57137f563412f0f7e6d5c49f158d04fcbd7935f167452301"),
    ("b8d1-carry-across-bytes", "best=2:80ffffffffffff00007f402000010203 bdi=2:80ffffffffffff00007f402000010203 fpc=364:02fcffff3f40feffffff0002feffff3f8040ffffff0f20c0ffffff0328f0ffffff0012fcffff3f8006ffffff0f00"),
    ("fpc-sign4", "best=8:b9388e02 bdi=3:0700000000f7f9f9f9f9f9f9f9f9f9f9f9f9f9f9 fpc=26:b9388e02"),
    ("fpc-sign8", "best=8:2213278e02 bdi=6:64000000000038ff9cff9cff9cff9cff9cff9cff9cff9cff9cff9cff9cff9cff9cff9cff fpc=34:2213278e02"),
    ("fpc-sign16", "best=8:83a91bb4228e02 bdi=none fpc=50:83a91bb4228e02"),
    ("fpc-low-zero", "best=8:6c5ec561 bdi=none fpc=31:6c5ec561"),
    ("fpc-two-bytes", "best=8:dd27c361 bdi=5:fbff0069050505050505050505050505050505050505050505050505050505050505 fpc=31:dd27c361"),
    ("fpc-rep-byte", "best=8:d6c261 bdi=7:5a5a5a5a0000000000000000a6a5a5a5a6a5a5a5a6a5a5a5a6a5a5a5a6a5a5a5a6a5a5a5a6a5a5a5 fpc=23:d6c261"),
    ("fpc-trailing-word", "best=8:389c00 bdi=3:0000000000000000000000000000000000000001 fpc=19:389c00"),
    ("fpc-all-prefixes", "best=8:4066c800fbffe3ffff330184007cf777df566fe8fe00ff00897c0302080008 bdi=none fpc=244:4066c800fbffe3ffff330184007cf777df566fe8fe00ff00897c0302080008"),
    ("fpc-small-mixed-signs", "best=8:a9742e118cc4f2212013cd45c209 bdi=3:0500000000f802fcf3fd01fafffbfef502fdf7fc fpc=111:a9742e118cc4f2212013cd45c209"),
    ("fpc-zero-run-cap", "best=8:38920301 bdi=2:00000000000000000000000000070000 fpc=25:38920301"),
    ("fpc-rep-bytes-varied", "best=8:8eb088ddad851830ef00c842cef49f4b01 bdi=none fpc=129:8eb088ddad851830ef00c842cef49f4b01"),
    ("best-half-raw-half-zero", "best=8:1fbd7c9aff8afc64cabbb3d6e2ae7354b0788ac3b7a2bbc1a4b5be392968ff2176af9138 bdi=none fpc=286:1fbd7c9aff8afc64cabbb3d6e2ae7354b0788ac3b7a2bbc1a4b5be392968ff2176af9138"),
    ("best-all-raw", "best=9:fedb214face137439a797773b850e1cfc5fc933bb961ed7bb8e461cfac44cb77cba4efd3d297b1f3b0ca3783b33bad33bd3a05dfd0da6b5bf8a9793fbe8a79df bdi=none fpc=560:f7df0e793a6bf8cdd035f3eee68e0b15fefc62fec99de786b5ef1d973cecf9ac44cb775f267d9fbef465ecfc61956f063fbbd33af35e9d82ef436baf6d1d3f35efe7be8a79df"),
    ("best-random-77", "best=9:be526a9a0d5d4b5e52baf11ff8eef0b14d58f1fc0befe1e45014f0afe99553375f8d1f03626c8a089ade69812a228a7eac69669482199fe6d308219935d7e241 bdi=none fpc=560:f79552d37c43d792d7a574e33f8eef0e1ffb26ac78fe2fbc87931f8a02fef5e9955337ff6afc18b8189b22c235bdd302af22a2e877d63433ca0b667c9a7f1a2124f335d7e241"),
    ("best-random-1234", "best=9:77d41cb679eacdc1d57f76088e3f9f6c3dc1c8cef9332ef45419ad1f9047b901bf86eb9ccefa60b6a71d67610eddc95bb646db12a9d45642bf23d953fa9873ea bdi=none fpc=560:bfa3e6b07d9e7a73f0abffec10eef8f3c9f69e6064e7e7cfb8d09f2aa3f5e39047b901ff355ce7bcb33e98ed4f3bcec2eed09dbc755ba36d89a7525b09fd77247beafa9873ea"),
    ("best-random-9", "best=9:d32cac20df235a9930c0aaeb6c34036ef728b31101b7da32cb942b70a68541e221393d29f5b0a811dac5a567a72e4922a30d53ff5a05916b61f7be91a5cd3437 bdi=none fpc=560:9f666105f9f78856e6618055d7cf4633e0f67b94d98807dc6acb7c997205eea68541e20fc9e949793d2c6ac4b58b4bcf7eea9224f2d186a9ff6b1544ae3decde37f2a5cd3437"),
    ("rand-b8d1-s11", "best=2:5542696accbb1adc0024f8fd0b476065 bdi=2:5542696accbb1adc0024f8fd0b476065 fpc=560:af124a533bf3ae06f7f384d2d4cebcabc1fd26a134b533ef6a705f4a284dedccbb1adc07134a533bf3ae06f73985d2d4cebcabc1fd5aa134b533ef6a705f57284dedccbb1adc"),
    ("rand-b8d2-s12", "best=4:af6b1c00795cd5930000a8384e436451953862015de73eef bdi=4:af6b1c00795cd5930000a8384e436451953862015de73eef fpc=560:7f5de300781e57f5e4af4839009ec7553df97e570e80e771554f7ea29703e0795cd5932722e500781e57f5e423da38009ec7553d7986290e80e771554fbe5d8b03e0795cd593"),
    ("rand-b8d4-s13", "best=7:ccfb2f8719065e030000000027bff7ff75c7064f16229f36b29c9a0b0f0afa5a1edf08f74e65e850 bdi=7:ccfb2f8719065e030000000027bff7ff75c7064f16229f36b29c9a0b0f0afa5a1edf08f74e65e850 fpc=560:67de7f397c8681d7c0e7754f0e9f61e035f0a0611beb6718780d5cbce3b9f719065e03f7c354967c8681d7c0b70b54c49f61e03570756d1cbf6718780d5c230c03fb19065e03"),
    ("rand-b8d1-s14", "best=2:22bce59daee670d9001618050015fe19 bdi=2:22bce59daee670d9001618050015fe19 fpc=560:17e12defbcab395cf67178cb3bef6a0e977d1ddef2cebb9ac365ff84b7bcf3aee670d917e12defbcab395cf66f78cb3bef6a0e977d10def2cebb9ac3657f87b7bcf3aee670d9"),
    ("rand-b8d4-s15", "best=7:23a7fd53de07e310000000000664e6f78c3b70fe1e007a045ce90cf65a2ce9f33cd585099ce4c6f3 bdi=7:23a7fd53de07e310000000000664e6f78c3b70fe1e007a045ce90cf65a2ce9f33cd585099ce4c6f3 fpc=560:1f39ed9fbaf7c138c45316c897ee7d300ef157f136a97b1f8c433ce8f40eebde07e310ff835450baf7c138c4fba6cd8fee7d300ef12fbec1ae7b1f8c43fc7791f8e8de07e310"),
    ("rand-fpc-s21", "best=8:729ac5bfcad70f2096ad032c1e6007ff3304d83ec0c60174b982ff11026c1640d9 bdi=6:4e0000000000c8fe97ffaf00deff9d00a300b9fe3800ad00950049ffb7fe360065008bff fpc=264:729ac5bfcad70f2096ad032c1e6007ff3304d83ec0c60174b982ff11026c1640d9"),
    ("rand-fpc-s22", "best=8:fb04d097cce60db0afff9903ec1a6082003bf817d874fe55262dfd89410f bdi=6:9f0000000000c0ffc7ff3f00c0fe47003800e3ff68fec1ff9bfec6ffbbffe0ff6dff70ff fpc=240:fb04d097cce60db0afff9903ec1a6082003bf817d874fe55262dfd89410f"),
    ("rand-fpc-s23", "best=8:f219c2bf4897f1bfa17fd16d124025ea192f00307380f5032ceb7f13ff53fa07 bdi=6:3e0000000000cafe66ffdbfe05ff36005500e7ffffff7e00c2ffa800bf001bffd5fe0cff fpc=251:f219c2bf4897f1bfa17fd16d124025ea192f00307380f5032ceb7f13ff53fa07"),
    ("rand-sparse-s31", "best=8:8feece10c49127d4418662 bdi=none fpc=88:8feece10c49127d4418662"),
    ("rand-sparse-s32", "best=8:c0252d559890572f954e4017b5e8c78701 bdi=none fpc=129:c0252d559890572f954e4017b5e8c78701"),
    ("rand-pointers-s41", "best=9:e4967e2d7a378c8732ea4fc67a378c873a340e147a378c87448c53da7a378c8707db783f7a378c87d2cbbde47a378c87f186cc827a378c87394bc3677a378c87 bdi=none fpc=560:27b7f46bb9de0de3e165d49f8caf77c378781d1a078aebdd301e9e88714afb7a378c873fd8c6fbb9de0de3e1a5977bc9af77c378f8784366c1ebdd301e3e6769f8ec7a378c87"),
    ("rand-pointers-s42", "best=9:91376f574f4d76d08ced240c4f4d76d0b835d80c4f4d76d0736a84744f4d76d07dde504e4f4d76d056351a224f4d76d046cbd80e4f4d76d0c7cc95f04f4d76d0 bdi=none fpc=560:8fbc79bbfa53931df419db4918fed464077ddc1a6c863f35d9417f4e8d90ee4f4d76d0eff38672fa53931df4ad6a3444fed464077da3656c873f35d941ff98b912fe4f4d76d0"),
    ("rand-halfword-texture", "best=1:0d930d930d930d93 bdi=1:0d930d930d930d93 fpc=560:6f986c987cc364c3e41b261b26df30d930f986c986c9374c364cbe61b261f20d930d936f986c987cc364c3e41b261b26df30d930f986c986c9374c364cbe61b261f20d930d93"),
];
