//! Equivalence suite for Aegis's lane-parallel partition search.
//!
//! `Aegis::find_partition` ORs each fault's precomputed row of per-partition
//! group bits into occupancy words and tests all `t + 1` partitions in one
//! pass over the faults; the reference here is the definitional pairwise
//! first-match probe: for `k = 0..=t`, compare every fault's grid group
//! with every earlier fault's and return the first `k` without a match.
//! The two must agree on the exact partition, not merely on feasibility:
//! `write` stores the id, so it shows up in stored bits and wear.

use pcm_ecc::aegis::AegisCode;
use pcm_ecc::{Aegis, HardErrorScheme};
use pcm_util::fault::{FaultMap, StuckAt};
use pcm_util::{seeded_rng, Line512, DATA_BITS};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::RngExt;

/// The grids checked: the paper's 17×31, the square 23×23, and 31×31,
/// whose 32 partitions fill every lane.
const GRIDS: [(u32, u32); 3] = [(17, 31), (23, 23), (31, 31)];

/// Group of `pos` under partition `k` on a `t × u` grid: `(x + k·y) mod u`
/// for slope `k < t`, the row `y` for the horizontal partition `k == t`.
fn ref_group(t: u32, u: u32, pos: u16, k: u32) -> u32 {
    let (x, y) = (pos as u32 % u, pos as u32 / u);
    if k < t {
        (x + k * y) % u
    } else {
        y
    }
}

/// The original pairwise first-match probe.
fn ref_find_partition(t: u32, u: u32, fault_positions: &[u16]) -> Option<u32> {
    if fault_positions.len() as u32 > u {
        return None;
    }
    'part: for k in 0..=t {
        for (i, &pos) in fault_positions.iter().enumerate() {
            let g = ref_group(t, u, pos, k);
            for &prior in &fault_positions[..i] {
                if ref_group(t, u, prior, k) == g {
                    continue 'part;
                }
            }
        }
        return Some(k);
    }
    None
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

fn arb_grid() -> impl Strategy<Value = (u32, u32)> {
    prop::sample::select(GRIDS.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lane search picks exactly the partition the pairwise probe
    /// picks (or agrees nothing separates the faults).
    #[test]
    fn partition_matches_reference(grid in arb_grid(), positions in arb_positions()) {
        let (t, u) = grid;
        let aegis = Aegis::new(t, u);
        prop_assert_eq!(aegis.find_partition(&positions), ref_find_partition(t, u, &positions));
    }

    /// Fault order and repeated positions do not matter to the lane search:
    /// unsorted draws with replacement still match the reference.
    #[test]
    fn unsorted_draws_with_repeats_match_reference(
        grid in arb_grid(),
        positions in prop::collection::vec(0u16..512, 0..40),
    ) {
        let (t, u) = grid;
        let aegis = Aegis::new(t, u);
        prop_assert_eq!(aegis.find_partition(&positions), ref_find_partition(t, u, &positions));
    }

    /// `can_store` is exactly partition feasibility.
    #[test]
    fn can_store_is_partition_feasibility(grid in arb_grid(), positions in arb_positions()) {
        let (t, u) = grid;
        let aegis = Aegis::new(t, u);
        prop_assert_eq!(
            aegis.can_store(&positions),
            ref_find_partition(t, u, &positions).is_some()
        );
    }
}

#[test]
fn unsorted_set_and_duplicate_match_reference() {
    let unsorted = [400u16, 3, 311, 77, 31, 62, 500, 0, 250, 128, 129, 93];
    let duplicated = [5u16, 200, 317, 200];
    for (t, u) in GRIDS {
        let aegis = Aegis::new(t, u);
        assert_eq!(
            aegis.find_partition(&unsorted),
            ref_find_partition(t, u, &unsorted),
            "{t}x{u} unsorted"
        );
        // A repeated position collides with itself in every partition.
        assert_eq!(aegis.find_partition(&duplicated), None, "{t}x{u} duplicate");
        assert_eq!(ref_find_partition(t, u, &duplicated), None);
    }
}

/// One fault per grid row: the horizontal partition always separates
/// them, and it is chosen only when every slope has a colliding pair —
/// a case random fault sets almost never reach.
#[test]
fn horizontal_partition_matches_reference_when_every_slope_collides() {
    let mut rng = seeded_rng(46);
    for (t, u) in GRIDS {
        let aegis = Aegis::new(t, u);
        let rows = (DATA_BITS as u32).div_ceil(u);
        let mut horizontal = 0;
        for _ in 0..200 {
            let positions: Vec<u16> = (0..rows)
                .map(|y| {
                    let width = u.min(DATA_BITS as u32 - y * u);
                    (y * u + rng.random_range(0..width)) as u16
                })
                .collect();
            let expected = ref_find_partition(t, u, &positions);
            assert!(expected.is_some(), "{t}x{u}: rows {positions:?}");
            assert_eq!(aegis.find_partition(&positions), expected, "{t}x{u}");
            horizontal += usize::from(expected == Some(t));
        }
        assert!(
            horizontal >= 20,
            "{t}x{u}: only {horizontal} horizontal picks"
        );
    }
}

/// The `group_masks` table, read back through the public decoder:
/// un-inverting a zero line with only group `g` inverted yields that
/// group's cell mask. Every cell lies in exactly one group of every
/// partition, and that group is the grid definition's.
#[test]
fn group_masks_tile_the_line_by_grid_definition() {
    for (t, u) in GRIDS {
        let aegis = Aegis::new(t, u);
        assert_eq!(aegis.partitions(), t + 1);
        for k in 0..=t {
            let mut covered = Line512::zero();
            let mut cells = 0;
            for g in 0..u {
                let mut inversions = vec![false; u as usize];
                inversions[g as usize] = true;
                let code = AegisCode {
                    partition: k,
                    inversions,
                };
                let mask = aegis.read(&Line512::zero(), &code);
                for pos in mask.iter_ones() {
                    assert_eq!(ref_group(t, u, pos as u16, k), g, "{t}x{u} k {k} pos {pos}");
                }
                covered = covered | mask;
                cells += mask.count_ones();
            }
            assert_eq!(cells as usize, DATA_BITS, "{t}x{u} k {k}: groups overlap");
            assert_eq!(
                covered,
                Line512::ones(),
                "{t}x{u} k {k}: a cell has no group"
            );
        }
    }
}

/// Round trips past the 6-fault guarantee: for 7–20-fault sets the
/// reference can separate, `write` uses the reference's partition, every
/// stuck cell holds its stuck value, and `read` returns the data.
#[test]
fn round_trip_beyond_guarantee_on_separable_sets() {
    let aegis = Aegis::aegis_17x31();
    let mut rng = seeded_rng(45);
    let mut all: Vec<u16> = (0..DATA_BITS as u16).collect();
    for n in 7..=20 {
        let mut checked = 0;
        for _ in 0..4000 {
            if checked == 8 {
                break;
            }
            all.shuffle(&mut rng);
            let positions = &all[..n];
            let Some(k) = ref_find_partition(17, 31, positions) else {
                continue;
            };
            let faults: FaultMap = positions
                .iter()
                .map(|&pos| StuckAt {
                    pos,
                    value: rng.random(),
                })
                .collect();
            for _ in 0..4 {
                let data = Line512::random(&mut rng);
                let (stored, code) = aegis.write(&data, &faults).unwrap();
                assert_eq!(code.partition, k, "{n} faults {positions:?}");
                for f in faults.iter() {
                    assert_eq!(stored.bit(f.pos as usize), f.value);
                }
                assert_eq!(aegis.read(&stored, &code), data);
            }
            checked += 1;
        }
        assert_eq!(checked, 8, "too few separable {n}-fault sets");
    }
}
