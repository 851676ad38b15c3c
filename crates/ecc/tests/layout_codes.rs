//! The packed ECC-chip layouts hold real codes: for ECP-6, SAFER-32 and
//! Aegis 17×31, the code a `write` returns over random storable faults
//! packs into its budget, unpacks to the same value, and still reads the
//! data back. Pack refuses inversion bits past the scheme's group count.

use pcm_ecc::aegis::AegisCode;
use pcm_ecc::layout::{
    pack_aegis_17x31, pack_ecp6, pack_safer32, unpack_aegis_17x31, unpack_ecp6, unpack_safer32,
    AEGIS_17X31_BITS, ECP6_BITS, SAFER32_BITS,
};
use pcm_ecc::safer::SaferCode;
use pcm_ecc::{Aegis, Ecp, HardErrorScheme, Safer};
use pcm_util::fault::{FaultMap, StuckAt};
use pcm_util::{seeded_rng, Line512, DATA_BITS};
use rand::seq::SliceRandom;
use rand::RngExt;

/// Calls `check` on 200 random fault maps of up to `max` faults that
/// `scheme` can store, each with random data.
fn storable_cases(
    scheme: &dyn HardErrorScheme,
    max: usize,
    seed: u64,
    mut check: impl FnMut(&Line512, &FaultMap),
) {
    let mut rng = seeded_rng(seed);
    let mut all: Vec<u16> = (0..DATA_BITS as u16).collect();
    let mut cases = 0;
    while cases < 200 {
        all.shuffle(&mut rng);
        let n = rng.random_range(0..=max);
        let mut positions = all[..n].to_vec();
        positions.sort_unstable();
        if !scheme.can_store(&positions) {
            continue;
        }
        let faults: FaultMap = positions
            .iter()
            .map(|&pos| StuckAt {
                pos,
                value: rng.random(),
            })
            .collect();
        check(&Line512::random(&mut rng), &faults);
        cases += 1;
    }
}

#[test]
fn ecp6_layout_holds_real_codes() {
    let ecp = Ecp::ecp6();
    storable_cases(&ecp, 6, 81, |data, faults| {
        let (stored, code) = ecp.write(data, faults).unwrap();
        let word = pack_ecp6(&code).unwrap();
        assert!(word >> ECP6_BITS <= 0b111, "count field fits");
        let back = unpack_ecp6(word).unwrap();
        assert_eq!(back, code);
        assert_eq!(ecp.read(&stored, &back), *data);
    });
}

#[test]
fn safer32_layout_holds_real_codes() {
    let safer = Safer::new(32);
    storable_cases(&safer, 16, 82, |data, faults| {
        let (stored, code) = safer.write(data, faults).unwrap();
        let word = pack_safer32(&code).unwrap();
        assert!(word < 1 << SAFER32_BITS);
        let back = unpack_safer32(word).unwrap();
        assert_eq!(back, code);
        assert_eq!(safer.read(&stored, &back), *data);
    });
}

#[test]
fn aegis_17x31_layout_holds_real_codes() {
    let aegis = Aegis::aegis_17x31();
    storable_cases(&aegis, 16, 83, |data, faults| {
        let (stored, code) = aegis.write(data, faults).unwrap();
        let word = pack_aegis_17x31(&code).unwrap();
        assert!(word < 1 << AEGIS_17X31_BITS);
        let back = unpack_aegis_17x31(word).unwrap();
        assert_eq!(back, code);
        assert_eq!(aegis.read(&stored, &back), *data);
    });
}

#[test]
fn pack_rejects_inversion_bits_past_the_group_count() {
    let subset_mask = 0b0_0001_1111;
    for inversions in [[1 << 32, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1 << 63]] {
        let code = SaferCode {
            subset_mask,
            inversions,
        };
        assert!(pack_safer32(&code).is_err(), "{inversions:x?}");
    }
    let top = SaferCode {
        subset_mask,
        inversions: [u64::from(u32::MAX), 0, 0, 0],
    };
    assert!(pack_safer32(&top).is_ok(), "group 31 is SAFER-32's last");

    let past = AegisCode {
        partition: 0,
        inversions: 1 << 31,
    };
    assert!(pack_aegis_17x31(&past).is_err());
    let top = AegisCode {
        partition: 17,
        inversions: u32::MAX >> 1,
    };
    assert!(pack_aegis_17x31(&top).is_ok(), "group 30 is 17x31's last");
}
