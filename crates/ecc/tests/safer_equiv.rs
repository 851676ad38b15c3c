//! Equivalence suite for SAFER's accelerated partition search.
//!
//! `Safer::find_partition` intersects precomputed pairwise-separator
//! bitsets; the reference here is the definitional algorithm: scan the
//! `C(9, k)` index-bit subsets in ascending mask order and return the
//! first one that places every fault in its own group (software-PEXT
//! group extraction, dense seen-group bitmap). The two must agree on the
//! exact chosen mask, not merely on feasibility. `Safer::write` is checked
//! the same way against a per-fault reference encode, and the group masks
//! `Safer::new` builds from index-bit planes against the per-bit grouping.

use pcm_ecc::safer::SaferCode;
use pcm_ecc::{EccError, HardErrorScheme, Safer};
use pcm_util::fault::{FaultMap, StuckAt};
use pcm_util::Line512;
use proptest::prelude::*;

const INDEX_BITS: u32 = 9;

fn extract_group(pos: u16, mask: u16) -> usize {
    let mut out = 0usize;
    let mut out_bit = 0;
    for b in 0..INDEX_BITS {
        if mask >> b & 1 == 1 {
            out |= (((pos >> b) & 1) as usize) << out_bit;
            out_bit += 1;
        }
    }
    out
}

/// The original first-match subset scan.
fn ref_find_partition(groups: u32, fault_positions: &[u16]) -> Option<u16> {
    if fault_positions.len() as u32 > groups {
        return None;
    }
    let k = groups.trailing_zeros();
    let subsets: Vec<u16> = (0u16..1 << INDEX_BITS)
        .filter(|m| m.count_ones() == k)
        .collect();
    if fault_positions.is_empty() {
        return subsets.first().copied();
    }
    'subset: for &mask in &subsets {
        let mut seen = [0u64; 4];
        for &pos in fault_positions {
            let g = extract_group(pos, mask);
            let (word, bit) = (g / 64, g % 64);
            if seen[word] >> bit & 1 == 1 {
                continue 'subset;
            }
            seen[word] |= 1 << bit;
        }
        return Some(mask);
    }
    None
}

/// The subset `write` must pick and its inversion set: the first subset
/// that separates the faults, else the first whose faults sharing a group
/// all need the same inversion for `data`; bit `g` of the set is on
/// exactly when a fault in group `g` disagrees with `data`.
fn ref_write(groups: u32, faults: &FaultMap, data: &Line512) -> Option<(u16, [u64; 4])> {
    let positions: Vec<u16> = faults.iter().map(|f| f.pos).collect();
    let inversions = |mask: u16| {
        let mut needed = vec![None; groups as usize];
        let mut set = [0u64; 4];
        for f in faults.iter() {
            let (g, want) = (
                extract_group(f.pos, mask),
                data.bit(f.pos as usize) != f.value,
            );
            if *needed[g].get_or_insert(want) != want {
                return None;
            }
            set[g / 64] |= u64::from(want) << (g % 64);
        }
        Some(set)
    };
    let mask = ref_find_partition(groups, &positions).or_else(|| {
        (0u16..1 << INDEX_BITS)
            .filter(|m| m.count_ones() == groups.trailing_zeros())
            .find(|&m| inversions(m).is_some())
    })?;
    Some((mask, inversions(mask).expect("the chosen subset agrees")))
}

/// Distinct fault positions, biased toward clustered (hard-to-separate)
/// layouts as well as uniform spreads.
fn arb_positions() -> impl Strategy<Value = Vec<u16>> {
    let uniform = prop::collection::btree_set(0u16..512, 0..40)
        .prop_map(|s| s.into_iter().collect::<Vec<u16>>());
    let clustered =
        (0u16..64, prop::collection::btree_set(0u16..64, 0..33)).prop_map(|(base, offsets)| {
            offsets
                .into_iter()
                .map(|o| (base * 8 + o) % 512)
                .collect::<std::collections::BTreeSet<u16>>()
                .into_iter()
                .collect::<Vec<u16>>()
        });
    prop_oneof![uniform, clustered]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SAFER-32: the accelerated search picks exactly the subset the
    /// definitional scan picks (or agrees nothing separates the faults).
    #[test]
    fn safer32_partition_matches_reference(positions in arb_positions()) {
        let safer = Safer::new(32);
        prop_assert_eq!(safer.find_partition(&positions), ref_find_partition(32, &positions));
    }

    /// Same equivalence across the other group counts.
    #[test]
    fn all_group_counts_match_reference(
        groups in prop::sample::select(vec![2u32, 4, 8, 16, 64, 128, 256]),
        positions in arb_positions(),
    ) {
        let safer = Safer::new(groups);
        prop_assert_eq!(
            safer.find_partition(&positions),
            ref_find_partition(groups, &positions)
        );
    }

    /// `write` stores with the reference's subset and inversion set, or
    /// refuses exactly when the reference finds no subset, and `read`
    /// returns the data. Group counts below the fault count reach the
    /// data-dependent agreement fallback.
    #[test]
    fn write_matches_reference_encode(
        groups in prop::sample::select(vec![2u32, 4, 8, 32, 256]),
        positions in arb_positions(),
        values in any::<u64>(),
        words in prop::array::uniform8(any::<u64>()),
    ) {
        let safer = Safer::new(groups);
        let data = Line512::from_words(words);
        let faults: FaultMap = positions
            .iter()
            .enumerate()
            .map(|(i, &pos)| StuckAt { pos, value: values >> (i % 64) & 1 == 1 })
            .collect();
        match (safer.write(&data, &faults), ref_write(groups, &faults, &data)) {
            (Ok((stored, code)), Some((mask, inversions))) => {
                prop_assert_eq!(code.subset_mask, mask);
                prop_assert_eq!(code.inversions, inversions);
                prop_assert_eq!(faults.apply(stored), stored);
                prop_assert_eq!(safer.read(&stored, &code), data);
            }
            (Err(err), None) => prop_assert_eq!(
                err,
                EccError::TooManyFaults { scheme: safer.name(), faults: faults.count() }
            ),
            (got, want) => prop_assert!(false, "write {:?}, reference {:?}", got.map(|(_, c)| c), want),
        }
    }

    /// `can_store` is exactly partition feasibility.
    #[test]
    fn can_store_is_partition_feasibility(positions in arb_positions()) {
        let safer = Safer::new(32);
        prop_assert_eq!(
            safer.can_store(&positions),
            ref_find_partition(32, &positions).is_some()
        );
    }
}

#[test]
fn guarantee_still_holds_after_acceleration() {
    // Any k+1 = 6 faults must be separable by SAFER-32 (MICRO'10 theorem);
    // spot-check structured worst cases the random suite may miss.
    let safer = Safer::new(32);
    assert!(safer.can_store(&[]));
    assert!(safer.can_store(&[7]));
    assert!(safer.can_store(&[0, 1, 2, 3, 4, 5]));
    assert!(safer.can_store(&[0, 64, 128, 192, 256, 320]));
    assert!(safer.can_store(&[511, 510, 509, 508, 507, 506]));
    // Duplicate positions can never be separated.
    assert!(!safer.can_store(&[9, 9]));
}

/// Every group mask of every subset, for every group count: inverting only
/// group `g` of an all-zero line yields exactly the positions whose
/// selected index bits pack to `g`.
#[test]
fn group_masks_match_the_per_bit_definition() {
    for k in 1..=8u32 {
        let groups = 1usize << k;
        let safer = Safer::new(groups as u32);
        for mask in (0u16..1 << INDEX_BITS).filter(|m| m.count_ones() == k) {
            let mut want = vec![Line512::zero(); groups];
            for pos in 0..512 {
                want[extract_group(pos as u16, mask)].set_bit(pos, true);
            }
            for (g, want) in want.iter().enumerate() {
                let mut inversions = [0u64; 4];
                inversions[g / 64] |= 1 << (g % 64);
                let code = SaferCode {
                    subset_mask: mask,
                    inversions,
                };
                assert_eq!(
                    safer.read(&Line512::zero(), &code),
                    *want,
                    "SAFER-{groups}, subset {mask:#011b}, group {g}"
                );
            }
        }
    }
}
