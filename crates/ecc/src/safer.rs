//! SAFER: Stuck-At-Fault Error Recovery (Seong et al., MICRO 2010).
//!
//! SAFER exploits the fact that stuck-at faults are *readable*: if a group
//! of cells contains at most one faulty cell, storing the group either
//! as-is or inverted can always make the stuck cell agree with the data.
//! SAFER-*n* partitions the 512 cell positions into `n` groups by selecting
//! `log2(n)` of the 9 position-index bits; the partition is re-chosen
//! dynamically as faults accumulate. SAFER-32 deterministically corrects 6
//! faults and up to 32 probabilistically (paper §II-C).
//!
//! `can_store` performs the oracle feasibility check — *does any of the
//! C(9, k) index-bit subsets isolate every fault in its own group?* — which
//! is what the paper's Monte-Carlo experiment (Fig. 9b) measures.
//!
//! [`Safer::find_partition`], `can_store` and `unstorable_suffix` run one
//! partition search. A subset isolates every fault iff it separates every
//! pair, so the search intersects precomputed per-pair separator sets,
//! one row of pairs per fault, from the highest fault down. It stops at
//! the first row that leaves no subset: the faults from that row on are
//! the shortest unstorable suffix, which `unstorable_suffix` hands to
//! [`find_window`](crate::find_window) so it can skip past them. The
//! surviving subsets after all rows do not depend on the order the pairs
//! come in, so the lowest one, which [`Safer::write`] stores in
//! [`SaferCode`], is still the subset a first-match scan over the subset
//! list picks.

use crate::scheme::{EccError, HardErrorScheme};
use pcm_util::fault::FaultMap;
use pcm_util::{Line512, DATA_BITS};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

const INDEX_BITS: u32 = 9; // 512 positions

/// The SAFER scheme, parameterized by its group count (a power of two).
///
/// # Examples
///
/// ```
/// use pcm_ecc::{Safer, HardErrorScheme};
///
/// let safer = Safer::new(32);
/// assert_eq!(safer.name(), "SAFER-32");
/// // Any six faults are deterministically separable.
/// assert!(safer.can_store(&[0, 1, 2, 3, 4, 5]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Safer {
    groups: u32,
    /// All `C(9, k)` index-bit subsets, as 9-bit masks.
    subsets: Vec<u16>,
    /// The mask of line positions in each group, `groups` entries per
    /// subset in subset-list order (precomputed so a write's inversion
    /// pass is a handful of XORs).
    group_masks: Vec<Line512>,
}

/// The per-line SAFER state: the chosen index-bit subset and the per-group
/// inversion bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SaferCode {
    /// 9-bit mask selecting the partition's index bits.
    pub subset_mask: u16,
    /// Bit `g % 64` of word `g / 64` inverts group `g` (at most 256
    /// groups); no bit is set at or above the group count.
    pub inversions: [u64; 4],
}

/// Extracts the bits of `pos` selected by `mask`, packed densely
/// (a software PEXT).
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

fn subsets_of_size(k: u32) -> Vec<u16> {
    (0u16..1 << INDEX_BITS)
        .filter(|m| m.count_ones() == k)
        .collect()
}

/// Partition-search acceleration tables for one subset size `k`, shared by
/// every `Safer` instance with the same group count (the tables depend only
/// on `subsets_of_size(k)`, which is deterministic).
struct SubsetTables {
    /// For every 9-bit XOR value `v`: the bitset (over the subset list, in
    /// order) of subsets with `mask & v != 0` — i.e. the subsets that put a
    /// pair of positions differing by `v` into *different* groups. At most
    /// `C(9, 4) = 126` subsets exist, so two words suffice.
    separators: Vec<[u64; 2]>,
    /// Maps a subset mask back to its index in the subset list.
    index_of: [u8; 1 << INDEX_BITS],
}

fn subset_tables(k: u32) -> &'static SubsetTables {
    static TABLES: [OnceLock<SubsetTables>; 9] = [const { OnceLock::new() }; 9];
    TABLES[k as usize].get_or_init(|| {
        let subsets = subsets_of_size(k);
        let mut index_of = [0u8; 1 << INDEX_BITS];
        for (i, &mask) in subsets.iter().enumerate() {
            index_of[mask as usize] = i as u8;
        }
        let separators = (0..1u16 << INDEX_BITS)
            .map(|v| {
                let mut bits = [0u64; 2];
                for (i, &mask) in subsets.iter().enumerate() {
                    if mask & v != 0 {
                        bits[i / 64] |= 1 << (i % 64);
                    }
                }
                bits
            })
            .collect();
        SubsetTables {
            separators,
            index_of,
        }
    })
}

impl Safer {
    /// Creates a SAFER scheme with `groups` groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is not a power of two in `2..=256`.
    pub fn new(groups: u32) -> Self {
        assert!(
            groups.is_power_of_two() && (2..=256).contains(&groups),
            "SAFER group count must be a power of two in 2..=256, got {groups}"
        );
        let subsets = subsets_of_size(groups.trailing_zeros());
        // Plane `b` holds the positions whose index bit `b` is set. A
        // subset's groups start as one all-ones mask, and each selected
        // bit, lowest first, splits every group so far in two: off the
        // plane stays group `g`, on it becomes `g` plus the bit's place in
        // the group number (the order `extract_group` packs bits in).
        let planes: [Line512; INDEX_BITS as usize] =
            std::array::from_fn(|b| Line512::from_fn(|pos| pos >> b & 1 == 1));
        let mut group_masks = vec![Line512::ones(); subsets.len() * groups as usize];
        for (table, &mask) in group_masks.chunks_exact_mut(groups as usize).zip(&subsets) {
            let mut split = 1;
            for (b, plane) in planes.iter().enumerate() {
                if mask >> b & 1 == 1 {
                    for g in 0..split {
                        let m = table[g];
                        table[g] = m & !*plane;
                        table[g + split] = m & *plane;
                    }
                    split *= 2;
                }
            }
        }
        Safer {
            groups,
            subsets,
            group_masks,
        }
    }

    /// Number of groups.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Finds an index-bit subset that puts every fault in its own group.
    ///
    /// Returns the lowest such subset mask in the subset list, or `None`
    /// if no partition isolates all faults.
    pub fn find_partition(&self, fault_positions: &[u16]) -> Option<u16> {
        let alive = self.scan_down(fault_positions).ok()?;
        let idx = if alive[0] != 0 {
            alive[0].trailing_zeros() as usize
        } else {
            64 + alive[1].trailing_zeros() as usize
        };
        // In range by construction: with at least one pair, `alive` is a
        // subset of a separator entry (no bits past the subset count); with
        // none, it is all-ones and `idx` is 0.
        self.subsets.get(idx).copied()
    }

    /// The one partition search, from the highest fault down.
    ///
    /// Two positions land in the same group exactly when the subset
    /// selects none of the bits where they differ: `(a ^ b) & mask == 0`.
    /// So a subset isolates every fault iff it separates every *pair*. Row
    /// `i` intersects the separator sets of the pairs of fault `i` with
    /// each later fault, so after row `i` the survivors are the subsets
    /// that separate `fault_positions[i..]`. Returns `Err(i)` at the first
    /// row that leaves none (the shortest unstorable suffix), or `Ok` with
    /// the survivors over all faults.
    fn scan_down(&self, fault_positions: &[u16]) -> Result<[u64; 2], usize> {
        let tables = subset_tables(self.groups.trailing_zeros());
        let mut alive = [u64::MAX; 2];
        for (i, &a) in fault_positions.iter().enumerate().rev() {
            for &b in &fault_positions[i + 1..] {
                let sep = &tables.separators[(a ^ b) as usize];
                alive[0] &= sep[0];
                alive[1] &= sep[1];
            }
            if alive == [0, 0] {
                return Err(i);
            }
        }
        Ok(alive)
    }

    /// Stores `data` into a line with the given faults.
    ///
    /// Chooses a partition isolating every fault (falling back to any
    /// partition whose same-group faults happen to *agree* on the required
    /// inversion for this data, which lets SAFER opportunistically survive
    /// beyond its guarantee), computes the per-group inversion bits, and
    /// returns the physical line plus the [`SaferCode`].
    ///
    /// # Errors
    ///
    /// Returns [`EccError::TooManyFaults`] when no partition works for this
    /// data.
    pub fn write(
        &self,
        data: &Line512,
        faults: &FaultMap,
    ) -> Result<(Line512, SaferCode), EccError> {
        let mut buf = [0u16; DATA_BITS];
        // Prefer a deterministic partition; otherwise try data-dependent
        // agreement.
        let chosen = self
            .find_partition(faults.positions().ones_into(&mut buf))
            .or_else(|| self.find_agreeing_partition(data, faults));
        let Some(mask) = chosen else {
            return Err(EccError::TooManyFaults {
                scheme: self.name(),
                faults: faults.count(),
            });
        };
        // Invert the groups of the faults whose stuck value differs from
        // the data.
        let code = SaferCode {
            subset_mask: mask,
            inversions: groups(&(faults.apply(*data) ^ *data), mask),
        };
        Ok((faults.apply(self.transform(data, &code)), code))
    }

    /// Reconstructs the original data from a physical line and its code.
    pub fn read(&self, stored: &Line512, code: &SaferCode) -> Line512 {
        #[cfg(feature = "verify-mutations")]
        if crate::mutation::active() == crate::mutation::Mutation::SaferPartitionMisMap {
            // Un-invert with the *next* subset in the table: cells land in
            // the wrong groups whenever any group is inverted.
            let idx = self
                .subsets
                .iter()
                .position(|&m| m == code.subset_mask)
                .expect("mask comes from this scheme's subset list");
            let wrong = SaferCode {
                subset_mask: self.subsets[(idx + 1) % self.subsets.len()],
                ..*code
            };
            return self.transform(stored, &wrong);
        }
        // Inversion is an involution: applying the same per-group flips
        // recovers the data, and stuck cells were made to agree at write.
        self.transform(stored, code)
    }

    /// Applies per-group inversions to a line (a XOR per inverted group).
    fn transform(&self, line: &Line512, code: &SaferCode) -> Line512 {
        debug_assert!(
            self.subsets.contains(&code.subset_mask),
            "mask comes from this scheme's subset list"
        );
        let tables = subset_tables(self.groups.trailing_zeros());
        let groups = self.groups as usize;
        let first = tables.index_of[code.subset_mask as usize] as usize * groups;
        let masks = &self.group_masks[first..first + groups];
        let mut out = *line;
        for (w, &word) in code.inversions.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out = out ^ masks[w * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
        }
        out
    }

    /// The first subset whose shared groups hold only faults that agree on
    /// their inversion for this data.
    fn find_agreeing_partition(&self, data: &Line512, faults: &FaultMap) -> Option<u16> {
        let disagree = faults.apply(*data) ^ *data;
        let agree = faults.positions() & !disagree;
        self.subsets.iter().copied().find(|&mask| {
            let (a, d) = (groups(&agree, mask), groups(&disagree, mask));
            (0..4).all(|w| a[w] & d[w] == 0)
        })
    }
}

/// The groups of the partition `mask` that hold a cell of `cells`.
fn groups(cells: &Line512, mask: u16) -> [u64; 4] {
    let mut set = [0u64; 4];
    for pos in cells.iter_ones() {
        let g = extract_group(pos as u16, mask);
        set[g / 64] |= 1 << (g % 64);
    }
    set
}

impl HardErrorScheme for Safer {
    fn name(&self) -> &'static str {
        match self.groups {
            32 => "SAFER-32",
            _ => "SAFER",
        }
    }

    fn guaranteed(&self) -> u32 {
        // SAFER-32's deterministic guarantee (MICRO'10): 6 faults.
        // More generally k+1 for 2^k groups.
        self.groups.trailing_zeros() + 1
    }

    fn metadata_bits(&self) -> u32 {
        // Group inversion bits + partition selector (log2 C(9,k) rounded up).
        let choices = self.subsets.len() as u32;
        let selector = 32 - (choices - 1).leading_zeros();
        self.groups + selector
    }

    fn can_store(&self, fault_positions: &[u16]) -> bool {
        self.scan_down(fault_positions).is_ok()
    }

    fn unstorable_suffix(&self, fault_positions: &[u16]) -> Option<usize> {
        self.scan_down(fault_positions).err()
    }
}

impl std::fmt::Display for Safer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SAFER-{}", self.groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_util::fault::StuckAt;
    use pcm_util::seeded_rng;
    use rand::seq::SliceRandom;

    #[test]
    fn six_faults_always_separable() {
        // MICRO'10 guarantee: any 6 faults are separable by some subset.
        let mut rng = seeded_rng(31);
        let safer = Safer::new(32);
        let mut all: Vec<u16> = (0..512).collect();
        for _ in 0..200 {
            all.shuffle(&mut rng);
            let faults = &all[..6];
            assert!(safer.can_store(faults), "faults {faults:?} not separable");
        }
    }

    #[test]
    fn more_than_32_faults_never_fit() {
        let safer = Safer::new(32);
        let faults: Vec<u16> = (0..33).collect();
        assert!(!safer.can_store(&faults));
    }

    #[test]
    fn adversarial_faults_can_defeat_safer() {
        // 16 faults that share the low 4 index bits pairwise collide in many
        // partitions; two positions differing in *no* selectable way must
        // fail. Positions that agree on every subset of 5 bits can't exist
        // (they'd be equal), but clustered positions sharing 8 of 9 bits
        // stress the search. Verify the checker at least degrades:
        let safer = Safer::new(32);
        // Positions 0..16 all share bits 4..9 = 0; separability requires the
        // subset to include enough low bits.
        let close: Vec<u16> = (0..16).collect();
        // With 5 selectable bits and 16 faults in a 16-position cube, the
        // subset must cover all 4 low bits; C(5 of 9) includes such subsets,
        // so this *is* separable.
        assert!(safer.can_store(&close));
        // But 17 faults inside a 16-position cube are pigeonhole-infeasible
        // for any 4-bit-distinguishing subset... position 16 differs in bit 4.
        let mut seventeen = close.clone();
        seventeen.push(16);
        // Can't assert infeasible a priori; just exercise the search.
        let _ = safer.can_store(&seventeen);
    }

    #[test]
    fn write_read_round_trip_beyond_ecp_capacity() {
        let mut rng = seeded_rng(32);
        let safer = Safer::new(32);
        // 20 spread-out faults: deterministically separable positions
        // (distinct high bits).
        let faults: FaultMap = (0..20u16)
            .map(|i| StuckAt {
                pos: i * 25,
                value: i % 2 == 0,
            })
            .collect();
        let positions: Vec<u16> = faults.iter().map(|f| f.pos).collect();
        if safer.can_store(&positions) {
            for _ in 0..16 {
                let data = Line512::random(&mut rng);
                let (stored, code) = safer.write(&data, &faults).unwrap();
                for f in faults.iter() {
                    assert_eq!(stored.bit(f.pos as usize), f.value, "stuck cell respected");
                }
                assert_eq!(safer.read(&stored, &code), data);
            }
        } else {
            panic!("20 spread faults should be separable");
        }
    }

    #[test]
    fn group_extraction_is_dense() {
        // mask with bits 0 and 8 selected: pos 0b1_0000_0001 -> group 0b11.
        assert_eq!(extract_group(0b1_0000_0001, 0b1_0000_0001), 0b11);
        assert_eq!(extract_group(0b1_0000_0000, 0b1_0000_0001), 0b10);
        assert_eq!(extract_group(0b0_0000_0001, 0b1_0000_0001), 0b01);
    }

    #[test]
    fn subset_count_matches_binomial() {
        let safer = Safer::new(32);
        assert_eq!(safer.subsets.len(), 126); // C(9,5)
        let safer4 = Safer::new(4);
        assert_eq!(safer4.subsets.len(), 36); // C(9,2)
    }

    #[test]
    fn metadata_fits_ecc_chip() {
        let safer = Safer::new(32);
        assert!(
            safer.metadata_bits() <= 64,
            "{} bits",
            safer.metadata_bits()
        );
    }

    #[test]
    fn opportunistic_agreement_beyond_guarantee() {
        // Two faults forced into the same group for every partition choice
        // can still work when their required inversions agree. Build a case:
        // all-zero data, two stuck-at-0 cells anywhere — inversion false
        // works for every group, so write must succeed even if inseparable.
        let safer = Safer::new(2); // 1 index bit: easy to collide
        let faults: FaultMap = [
            StuckAt {
                pos: 0,
                value: false,
            },
            StuckAt {
                pos: 2,
                value: false,
            }, // same bit-0 parity as pos 0
            StuckAt {
                pos: 4,
                value: false,
            },
        ]
        .into_iter()
        .collect();
        let data = Line512::zero();
        let (stored, code) = safer.write(&data, &faults).unwrap();
        assert_eq!(safer.read(&stored, &code), data);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        Safer::new(12);
    }
}
