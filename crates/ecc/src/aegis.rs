//! Aegis: grid-based partitioning for stuck-at fault recovery
//! (Fan et al., MICRO 2013).
//!
//! Aegis maps the 512 cell positions onto a `t × u` grid (17×31 for 64-byte
//! lines: position `p` sits at column `x = p mod u`, row `y = p div u`) and
//! partitions the cells along *lines* of the grid: for slope
//! `s ∈ {0, …, t-1}` the group of `p` is `(x + s·y) mod u`, and one extra
//! "horizontal" partition groups by row. Because `u` is prime, any two
//! distinct cells collide in **at most one** slope partition — so `t + 1`
//! partitions separate many more faults than SAFER manages with far more
//! stored subsets, using only a `⌈log2(t+1)⌉`-bit partition id plus `u`
//! inversion bits.
//!
//! Like SAFER, each group carries an inversion bit that makes its (single)
//! stuck cell agree with the data.
//!
//! The partition search tests every partition in one pass over the faults,
//! and [`Aegis::find_partition`], `can_store` and `unstorable_suffix` all
//! run that one pass. Each cell has a table row of 32 lane words, one per
//! partition: lane `k ≤ t` is `1 << g` for the cell's group `g` under
//! partition `k`, and the lanes past `t` are padding, always 0. The pass
//! runs from the highest fault down. Each fault first sets bit `k` of a
//! one-word clash mask wherever lane `k`'s occupancy word already holds
//! its group, then ORs its row into the occupancy words; the loop over a
//! row has a fixed width and no branch, so the compiler vectorizes it for
//! the baseline target. The pass stops at the first fault that leaves all
//! `t + 1` bits set: no partition separates the faults seen so far, and
//! they are the shortest unstorable suffix, which `unstorable_suffix`
//! hands to [`find_window`](crate::find_window) so it can skip past them.
//! Padding lanes never collide, so the mask never has a bit past `t`.
//!
//! The search returns the *lowest* partition without a collision:
//! [`Aegis::write`] stores that id in [`AegisCode`], so the choice shows in
//! stored bits, cell flips and wear, and it must stay the partition a
//! first-match scan over `0..=t` picks. It does: a partition clashes
//! exactly when two of the faults share one of its groups, which does not
//! depend on the order the faults come in, so the clash mask after every
//! fault is the same as a forward pass's. `write` and `can_store_mask`
//! therefore run the per-fault step straight over the window's fault
//! mask, in ascending order, and list no positions.

use crate::scheme::{EccError, HardErrorScheme};
use pcm_util::fault::FaultMap;
use pcm_util::{Line512, DATA_BITS};
use serde::{Deserialize, Serialize};

/// Lane words per cell row: one per partition, padded to a fixed width.
/// One `u32` occupancy word per lane caps the group count at 32 and the
/// partition count at `LANES`, so grids need `u ≤ 31`.
const LANES: usize = 32;

/// The Aegis scheme over a `t × u` grid (`u` prime, `t * u >= 512`).
///
/// # Examples
///
/// ```
/// use pcm_ecc::{Aegis, HardErrorScheme};
///
/// let aegis = Aegis::new(17, 31);
/// assert_eq!(aegis.name(), "Aegis 17x31");
/// assert!(aegis.can_store(&[0, 1, 2, 3, 4, 5]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Aegis {
    t: u32,
    u: u32,
    /// Per partition, per group: mask of line positions in that group.
    group_masks: Vec<Vec<Line512>>,
    /// Per cell position: lane `k` is `1 << group` of the cell under
    /// partition `k` for `k ≤ t`, 0 in the padding lanes (64 KiB).
    lanes: Vec<[u32; LANES]>,
}

/// The per-line Aegis state: the chosen partition and per-group inversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AegisCode {
    /// Partition id: `0..t` are slopes, `t` is the horizontal partition.
    pub partition: u32,
    /// Bit `g` inverts group `g`; no bit is set at or above `u`.
    pub inversions: u32,
}

fn is_prime(n: u32) -> bool {
    n >= 2
        && (2..)
            .take_while(|d| d * d <= n)
            .all(|d| !n.is_multiple_of(d))
}

impl Aegis {
    /// Creates an Aegis scheme over a `t × u` grid.
    ///
    /// # Panics
    ///
    /// Panics unless `u` is a prime of at most 31, `t <= u`, and the grid
    /// covers 512 cells. The bound on `u` keeps every group in one bit of a
    /// `u32` occupancy word and the `t + 1` partitions within 32 lanes;
    /// the grids it admits include 17×31, 23×23 and 31×31.
    pub fn new(t: u32, u: u32) -> Self {
        assert!(is_prime(u), "u must be prime, got {u}");
        assert!(u < LANES as u32, "u must be at most {}, got {u}", LANES - 1);
        assert!(t >= 2 && t <= u, "need 2 <= t <= u, got t={t} u={u}");
        assert!(
            t * u >= DATA_BITS as u32,
            "grid {t}x{u} too small for 512 cells"
        );
        let slopes = t as usize;
        let mut group_masks = vec![vec![Line512::zero(); u as usize]; slopes + 1];
        let mut lanes = vec![[0u32; LANES]; DATA_BITS];
        // One pass over the grid in position order (`pos = y·u + x`), with
        // no division: slope k's group `(x + k·y) mod u` steps by `y < u`
        // from one slope to the next.
        let (mut x, mut y) = (0u32, 0u32);
        for (pos, row) in lanes.iter_mut().enumerate() {
            let mut g = x;
            for (k, lane) in row[..slopes].iter_mut().enumerate() {
                *lane = 1 << g;
                group_masks[k][g as usize].set_bit(pos, true);
                g += y;
                if g >= u {
                    g -= u;
                }
            }
            row[slopes] = 1 << y;
            group_masks[slopes][y as usize].set_bit(pos, true);
            x += 1;
            if x == u {
                x = 0;
                y += 1;
            }
        }
        Aegis {
            t,
            u,
            group_masks,
            lanes,
        }
    }

    /// The 17×31 configuration evaluated in the paper.
    pub fn aegis_17x31() -> Self {
        Aegis::new(17, 31)
    }

    /// Number of partitions (`t` slopes + horizontal).
    pub fn partitions(&self) -> u32 {
        self.t + 1
    }

    /// Finds the lowest partition that puts every fault in its own group.
    pub fn find_partition(&self, fault_positions: &[u16]) -> Option<u32> {
        // `Ok` leaves a bit at or below t clear, and the padding bits
        // above t are never set, so the lowest clear bit is a partition.
        let clashed = self.scan_down(fault_positions).ok()?;
        Some((!clashed).trailing_zeros())
    }

    /// The one partition search, from the highest fault down.
    ///
    /// Each fault's [`occupy`](Self::occupy) step marks the partitions
    /// that already hold its group, so after fault `i`, `clashed` holds
    /// the partitions with two of `fault_positions[i..]` in one group.
    /// Returns `Err(i)` at the first fault that leaves all `t + 1` bits set
    /// (the shortest unstorable suffix), or `Ok(clashed)` over all faults.
    fn scan_down(&self, fault_positions: &[u16]) -> Result<u32, usize> {
        let mut seen = [0u32; LANES];
        let mut clashed = 0u32;
        for (i, &pos) in fault_positions.iter().enumerate().rev() {
            if self.occupy(&mut seen, &mut clashed, pos.into()) {
                return Err(i);
            }
        }
        Ok(clashed)
    }

    /// [`scan_down`](Self::scan_down) read straight off a fault mask, in
    /// ascending order: the clash mask over all faults, or `None` when
    /// every partition clashes.
    fn clash_mask(&self, faults: &Line512) -> Option<u32> {
        let mut seen = [0u32; LANES];
        let mut clashed = 0u32;
        for pos in faults.iter_ones() {
            if self.occupy(&mut seen, &mut clashed, pos) {
                return None;
            }
        }
        Some(clashed)
    }

    /// One fault's step of the search (see the module docs): marks its
    /// clashes, then ORs its row into `seen`. Returns whether every
    /// partition now clashes.
    #[inline(always)]
    fn occupy(&self, seen: &mut [u32; LANES], clashed: &mut u32, pos: usize) -> bool {
        let row = &self.lanes[pos];
        for k in 0..LANES {
            *clashed |= u32::from(seen[k] & row[k] != 0) << k;
            seen[k] |= row[k];
        }
        // t + 1 low bits; t = 31 fills the word, so no `1 << (t + 1)`.
        *clashed == u32::MAX >> (31 - self.t)
    }

    /// The groups of partition `k` that hold a cell of `cells`.
    fn groups(&self, cells: &Line512, k: u32) -> u32 {
        cells
            .iter_ones()
            .fold(0, |acc, pos| acc | self.lanes[pos][k as usize])
    }

    /// Stores `data` into a line with the given faults; see
    /// [`Safer::write`](crate::Safer::write) for the shared semantics
    /// (deterministic partition first, data-dependent agreement as a
    /// fallback).
    ///
    /// # Errors
    ///
    /// Returns [`EccError::TooManyFaults`] when no partition works for this
    /// data.
    pub fn write(
        &self,
        data: &Line512,
        faults: &FaultMap,
    ) -> Result<(Line512, AegisCode), EccError> {
        // The faults whose stuck value differs from the data: their
        // groups are the ones to invert.
        let disagree = faults.apply(*data) ^ *data;
        let chosen = match self.clash_mask(&faults.positions()) {
            // The padding bits above t never clash, so the lowest clear
            // bit is a partition that separates the faults.
            Some(clashed) => Some((!clashed).trailing_zeros()),
            // Failing that, a partition whose shared groups hold only
            // faults that agree on their inversion still stores this data.
            None => {
                let agree = faults.positions() & !disagree;
                (0..=self.t).find(|&k| self.groups(&agree, k) & self.groups(&disagree, k) == 0)
            }
        };
        let Some(partition) = chosen else {
            return Err(EccError::TooManyFaults {
                scheme: self.name(),
                faults: faults.count(),
            });
        };
        let code = AegisCode {
            partition,
            inversions: self.groups(&disagree, partition),
        };
        Ok((faults.apply(self.transform(data, &code)), code))
    }

    /// Reconstructs the original data from a physical line and its code.
    pub fn read(&self, stored: &Line512, code: &AegisCode) -> Line512 {
        self.transform(stored, code)
    }

    /// XORs the mask of every group `code` inverts into `line`.
    fn transform(&self, line: &Line512, code: &AegisCode) -> Line512 {
        let masks = &self.group_masks[code.partition as usize];
        let mut out = *line;
        let mut bits = code.inversions;
        while bits != 0 {
            out = out ^ masks[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        out
    }
}

impl HardErrorScheme for Aegis {
    fn name(&self) -> &'static str {
        if self.t == 17 && self.u == 31 {
            "Aegis 17x31"
        } else {
            "Aegis"
        }
    }

    fn guaranteed(&self) -> u32 {
        // Any pair of faults invalidates at most ONE partition: a same-row
        // pair collides only in the horizontal partition, a different-row
        // pair collides in exactly one slope k* ∈ Z_u (u prime) — and only
        // if k* < t. So f faults invalidate at most f(f-1)/2 of the t+1
        // partitions, and are always separable while f(f-1)/2 < t + 1.
        let parts = self.partitions();
        let mut f = 1;
        while f * (f + 1) / 2 < parts {
            f += 1;
        }
        f
    }

    fn metadata_bits(&self) -> u32 {
        // ⌈log2(t+1)⌉ bits name one of the t+1 partitions.
        let selector = 32 - (self.partitions() - 1).leading_zeros();
        self.u + selector
    }

    fn can_store(&self, fault_positions: &[u16]) -> bool {
        self.scan_down(fault_positions).is_ok()
    }

    fn can_store_mask(&self, window_faults: &Line512) -> bool {
        self.clash_mask(window_faults).is_some()
    }

    fn unstorable_suffix(&self, fault_positions: &[u16]) -> Option<usize> {
        self.scan_down(fault_positions).err()
    }
}

impl std::fmt::Display for Aegis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Aegis {}x{}", self.t, self.u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_util::fault::StuckAt;
    use pcm_util::seeded_rng;
    use rand::seq::SliceRandom;

    /// The grid definition of a cell's group: `(x + k·y) mod u` for slope
    /// `k < t`, the row `y` for the horizontal partition `k == t`.
    fn grid_group(aegis: &Aegis, pos: u16, k: u32) -> u32 {
        let (x, y) = (pos as u32 % aegis.u, pos as u32 / aegis.u);
        if k < aegis.t {
            (x + k * y) % aegis.u
        } else {
            y
        }
    }

    #[test]
    fn lane_table_matches_grid_definition() {
        for (t, u) in [(17, 31), (23, 23), (31, 31)] {
            let aegis = Aegis::new(t, u);
            for pos in 0..DATA_BITS as u16 {
                let row = &aegis.lanes[pos as usize];
                for k in 0..=t {
                    let g = grid_group(&aegis, pos, k);
                    assert_eq!(row[k as usize], 1 << g, "{t}x{u} pos {pos} k {k}");
                }
                assert!(row[t as usize + 1..].iter().all(|&lane| lane == 0));
            }
        }
    }

    #[test]
    fn pairwise_collision_at_most_one_slope() {
        let aegis = Aegis::aegis_17x31();
        let mut rng = seeded_rng(41);
        let mut all: Vec<u16> = (0..512).collect();
        for _ in 0..100 {
            all.shuffle(&mut rng);
            let (p, q) = (all[0], all[1]);
            let collisions = (0..aegis.t)
                .filter(|&k| grid_group(&aegis, p, k) == grid_group(&aegis, q, k))
                .count();
            assert!(
                collisions <= 1,
                "positions {p},{q} collide in {collisions} slopes"
            );
        }
    }

    #[test]
    fn guaranteed_matches_partition_count() {
        let aegis = Aegis::aegis_17x31();
        // 18 partitions: f(f-1)/2 < 18 holds through f = 6 (15 < 18).
        assert_eq!(aegis.guaranteed(), 6);
    }

    #[test]
    fn guarantee_holds_empirically() {
        let aegis = Aegis::aegis_17x31();
        let mut rng = seeded_rng(42);
        let mut all: Vec<u16> = (0..512).collect();
        for _ in 0..300 {
            all.shuffle(&mut rng);
            let faults = &all[..aegis.guaranteed() as usize];
            assert!(aegis.can_store(faults), "faults {faults:?} not separable");
        }
    }

    #[test]
    fn separates_many_random_faults_probabilistically() {
        // Aegis should typically separate far more than its guarantee.
        let aegis = Aegis::aegis_17x31();
        let mut rng = seeded_rng(43);
        let mut all: Vec<u16> = (0..512).collect();
        let mut successes = 0;
        for _ in 0..100 {
            all.shuffle(&mut rng);
            if aegis.can_store(&all[..12]) {
                successes += 1;
            }
        }
        assert!(
            successes >= 50,
            "only {successes}/100 of 12-fault sets separable"
        );
    }

    #[test]
    fn write_read_round_trip() {
        let aegis = Aegis::aegis_17x31();
        let mut rng = seeded_rng(44);
        let faults: FaultMap = [
            StuckAt {
                pos: 3,
                value: true,
            },
            StuckAt {
                pos: 77,
                value: false,
            },
            StuckAt {
                pos: 200,
                value: true,
            },
            StuckAt {
                pos: 317,
                value: false,
            },
            StuckAt {
                pos: 450,
                value: true,
            },
        ]
        .into_iter()
        .collect();
        for _ in 0..32 {
            let data = Line512::random(&mut rng);
            let (stored, code) = aegis.write(&data, &faults).unwrap();
            for f in faults.iter() {
                assert_eq!(stored.bit(f.pos as usize), f.value);
            }
            assert_eq!(aegis.read(&stored, &code), data);
        }
    }

    #[test]
    fn metadata_fits_ecc_chip() {
        let aegis = Aegis::aegis_17x31();
        assert_eq!(aegis.metadata_bits(), 31 + 5);
        assert!(aegis.metadata_bits() <= 64);
        // 32 partitions (ids 0..=31) need 5 selector bits, not 6.
        assert_eq!(Aegis::new(31, 31).metadata_bits(), 31 + 5);
        assert_eq!(Aegis::new(23, 23).metadata_bits(), 23 + 5);
    }

    #[test]
    fn horizontal_partition_rescues_same_column() {
        let aegis = Aegis::aegis_17x31();
        // Same column (x equal), distinct rows: slope partitions may
        // separate them; pile up many to force horizontal relevance.
        let faults: Vec<u16> = (0..10).map(|y| (y * 31) as u16).collect(); // x = 0, y = 0..10
                                                                           // Same x, distinct y: slope k groups are (0 + k*y) mod 31 — distinct
                                                                           // for k >= 1; slope 0 groups all into x=0. Must be separable.
        assert!(aegis.can_store(&faults));
    }

    #[test]
    #[should_panic(expected = "prime")]
    fn rejects_composite_u() {
        Aegis::new(17, 30);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_small_grid() {
        Aegis::new(3, 5);
    }

    #[test]
    #[should_panic(expected = "at most 31")]
    fn rejects_u_past_one_occupancy_word() {
        Aegis::new(17, 37);
    }
}
