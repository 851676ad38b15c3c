//! Equivalence suite for Aegis's lane-parallel partition search.
//!
//! `Aegis::find_partition` ORs each fault's precomputed row of per-partition
//! group bits into occupancy words and tests all `t + 1` partitions in one
//! pass over the faults; the reference here is the definitional pairwise
//! first-match probe: for `k = 0..=t`, compare every fault's grid group
//! with every earlier fault's and return the first `k` without a match.
//! The two must agree on the exact partition, not merely on feasibility:
//! `write` stores the id, so it shows up in stored bits and wear.
//!
//! `Aegis::write` reads its partition off the fault mask and ORs the
//! chosen groups of the disagreeing faults into one inversion word; the
//! reference here lists the faults, falls back to the first partition
//! whose shared groups agree, and sets one bit per disagreeing fault.

use pcm_ecc::aegis::AegisCode;
use pcm_ecc::{Aegis, EccError, HardErrorScheme};
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

/// The partition `write` must pick: the first that separates the faults,
/// else the first whose faults sharing a group all need the same
/// inversion for `data`.
fn ref_write_partition(t: u32, u: u32, faults: &FaultMap, data: &Line512) -> Option<u32> {
    let positions: Vec<u16> = faults.iter().map(|f| f.pos).collect();
    ref_find_partition(t, u, &positions).or_else(|| {
        (0..=t).find(|&k| {
            let mut needed = vec![None; u as usize];
            faults.iter().all(|f| {
                let want = data.bit(f.pos as usize) != f.value;
                let slot = &mut needed[ref_group(t, u, f.pos, k) as usize];
                *slot.get_or_insert(want) == want
            })
        })
    })
}

/// The reference inversion set: bit `g` is set exactly when a fault in
/// group `g` of partition `k` disagrees with `data`.
fn ref_inversions(t: u32, u: u32, faults: &FaultMap, data: &Line512, k: u32) -> u32 {
    faults
        .iter()
        .filter(|f| data.bit(f.pos as usize) != f.value)
        .fold(0, |acc, f| acc | 1 << ref_group(t, u, f.pos, k))
}

/// Writes `data` over `faults` and checks the result against the
/// reference: the same partition (or the same refusal), the reference
/// inversion word with no bit at or above `u`, stuck cells at their stuck
/// values, and `read` returning the data. Returns whether it stored.
fn check_write(aegis: &Aegis, (t, u): (u32, u32), faults: &FaultMap, data: &Line512) -> bool {
    let expected = ref_write_partition(t, u, faults, data);
    match aegis.write(data, faults) {
        Ok((stored, code)) => {
            assert_eq!(Some(code.partition), expected, "{t}x{u}");
            let inversions = ref_inversions(t, u, faults, data, code.partition);
            assert_eq!(code.inversions, inversions, "{t}x{u} k {}", code.partition);
            assert_eq!(code.inversions >> u, 0, "{t}x{u}: bit past group {}", u - 1);
            assert_eq!(faults.apply(stored), stored, "{t}x{u}: stuck cells");
            assert_eq!(aegis.read(&stored, &code), *data, "{t}x{u}");
            true
        }
        Err(err) => {
            assert_eq!(expected, None, "{t}x{u}");
            assert_eq!(
                err,
                EccError::TooManyFaults {
                    scheme: aegis.name(),
                    faults: faults.count()
                }
            );
            false
        }
    }
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

    /// `write` picks the reference's partition and inversion word for
    /// random data over random stuck values.
    #[test]
    fn write_matches_reference_encode(
        grid in arb_grid(),
        positions in arb_positions(),
        values in any::<u64>(),
        words in prop::array::uniform8(any::<u64>()),
    ) {
        let aegis = Aegis::new(grid.0, grid.1);
        let faults: FaultMap = positions
            .iter()
            .enumerate()
            .map(|(i, &pos)| StuckAt { pos, value: values >> (i % 64) & 1 == 1 })
            .collect();
        check_write(&aegis, grid, &faults, &Line512::from_words(words));
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
                let code = AegisCode {
                    partition: k,
                    inversions: 1 << g,
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

/// The data-dependent fallback. Forty faults outnumber every grid's `u`
/// groups, so no partition separates them; their stuck values are set so
/// that the faults sharing a group of one partition `k*` all need the same
/// inversion. `write` then stores with the first agreeing partition (at
/// most `k*`) and round-trips. Flipping one stuck value in a shared group
/// of `k*` makes the faults disagree there, and once no partition agrees,
/// `write` refuses with `TooManyFaults`.
#[test]
fn agreement_fallback_stores_with_first_agreeing_partition() {
    let mut rng = seeded_rng(47);
    let mut all: Vec<u16> = (0..DATA_BITS as u16).collect();
    for (t, u) in GRIDS {
        let aegis = Aegis::new(t, u);
        let mut refused = 0;
        for trial in 0..64 {
            all.shuffle(&mut rng);
            let positions = &all[..40];
            assert_eq!(aegis.find_partition(positions), None, "{t}x{u}");
            let data = Line512::random(&mut rng);
            let target = trial % (t + 1);
            let flip: u32 = rng.random();
            let value =
                |pos: u16| data.bit(pos as usize) ^ (flip >> ref_group(t, u, pos, target) & 1 == 1);
            let mut faults: FaultMap = positions
                .iter()
                .map(|&pos| StuckAt {
                    pos,
                    value: value(pos),
                })
                .collect();
            let picked = ref_write_partition(t, u, &faults, &data);
            assert!(picked.is_some_and(|k| k <= target), "{t}x{u} k* {target}");
            assert!(check_write(&aegis, (t, u), &faults, &data));

            // The first fault whose group under k* holds another fault.
            let shared = positions
                .iter()
                .copied()
                .find(|&p| {
                    positions.iter().any(|&q| {
                        q != p && ref_group(t, u, q, target) == ref_group(t, u, p, target)
                    })
                })
                .expect("40 faults share a group");
            faults.insert(StuckAt {
                pos: shared,
                value: !value(shared),
            });
            refused += usize::from(!check_write(&aegis, (t, u), &faults, &data));
        }
        assert!(
            refused >= 48,
            "{t}x{u}: only {refused}/64 disagreeing sets refused"
        );
    }
}
