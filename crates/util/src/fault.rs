//! Stuck-at fault bookkeeping for a 512-bit memory line.

use crate::line::{Line512, DATA_BITS};
use serde::{Deserialize, Serialize};

/// A single stuck-at fault: a cell position and the value it is stuck at.
///
/// PCM cells fail *stuck-at*: after endurance exhaustion the cell keeps its
/// last value forever (stuck-at-RESET from heater detachment, stuck-at-SET
/// from crystalline degradation). Stuck-at faults are read-detectable, so
/// the memory controller knows both the position and the stuck value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StuckAt {
    /// Bit position within the 512-bit line.
    pub pos: u16,
    /// The value the cell is stuck at.
    pub value: bool,
}

/// The set of stuck-at faults in one 512-bit line, stored as two bitmasks.
///
/// # Examples
///
/// ```
/// use pcm_util::fault::{FaultMap, StuckAt};
///
/// let mut faults = FaultMap::new();
/// faults.insert(StuckAt { pos: 100, value: true });
/// assert_eq!(faults.count(), 1);
/// assert!(faults.is_faulty(100));
/// assert_eq!(faults.stuck_value(100), Some(true));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultMap {
    positions: Line512,
    values: Line512,
}

impl FaultMap {
    /// Creates an empty fault map.
    #[inline]
    pub fn new() -> Self {
        FaultMap::default()
    }

    /// Adds a fault. Re-inserting an existing position updates its stuck
    /// value (the physical cell can only be stuck at one value; this keeps
    /// the map consistent with the latest observation).
    ///
    /// # Panics
    ///
    /// Panics if `fault.pos >= 512`.
    #[inline]
    pub fn insert(&mut self, fault: StuckAt) {
        let pos = fault.pos as usize;
        assert!(pos < DATA_BITS, "fault position {pos} out of range");
        self.positions.set_bit(pos, true);
        self.values.set_bit(pos, fault.value);
    }

    /// Returns `true` if the cell at `pos` is faulty.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 512`.
    #[inline]
    pub fn is_faulty(&self, pos: usize) -> bool {
        self.positions.bit(pos)
    }

    /// Returns the stuck value at `pos`, or `None` if the cell is healthy.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 512`.
    pub fn stuck_value(&self, pos: usize) -> Option<bool> {
        if self.positions.bit(pos) {
            Some(self.values.bit(pos))
        } else {
            None
        }
    }

    /// Total number of faulty cells.
    #[inline]
    pub fn count(&self) -> u32 {
        self.positions.count_ones()
    }

    /// Returns `true` when the line has no faults.
    pub fn is_empty(&self) -> bool {
        self.positions.is_zero()
    }

    /// Iterates over all faults in position order.
    pub fn iter(&self) -> impl Iterator<Item = StuckAt> + '_ {
        self.positions.iter_ones().map(move |pos| StuckAt {
            pos: pos as u16,
            value: self.values.bit(pos),
        })
    }

    /// The positions mask (bit set = faulty cell).
    pub fn positions(&self) -> Line512 {
        self.positions
    }

    /// Restricts the map to the positions selected by `mask`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pcm_util::fault::{FaultMap, StuckAt};
    /// use pcm_util::Line512;
    ///
    /// let map: FaultMap = [
    ///     StuckAt { pos: 3, value: true },
    ///     StuckAt { pos: 100, value: false },
    /// ].into_iter().collect();
    /// let sub = map.masked(Line512::bit_range_mask(0..64));
    /// assert_eq!(sub.count(), 1);
    /// assert!(sub.is_faulty(3));
    /// ```
    #[inline]
    pub fn masked(&self, mask: Line512) -> FaultMap {
        FaultMap {
            positions: self.positions & mask,
            values: self.values & mask,
        }
    }

    /// Forces `line` to respect the stuck cells: every faulty position is
    /// overwritten with its stuck value. This is what physically happens
    /// when data is written to a line with worn-out cells.
    ///
    /// # Examples
    ///
    /// ```
    /// use pcm_util::fault::{FaultMap, StuckAt};
    /// use pcm_util::Line512;
    ///
    /// let mut faults = FaultMap::new();
    /// faults.insert(StuckAt { pos: 0, value: true });
    /// let written = faults.apply(Line512::zero());
    /// assert!(written.bit(0));
    /// ```
    #[inline]
    pub fn apply(&self, line: Line512) -> Line512 {
        (line & !self.positions) | (self.values & self.positions)
    }
}

/// How a [`FaultPlan`] chooses fault positions and polarities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum FaultSpec {
    /// The same explicit fault set for every line.
    Exact(Vec<StuckAt>),
    /// Each cell is independently faulty with probability `density`.
    Density { density: f64, sa1_fraction: f64 },
    /// Exactly `count` faults at distinct uniform positions.
    Count { count: u32, sa1_fraction: f64 },
}

/// A deterministic, seeded recipe for stuck-at fault injection.
///
/// The verification harness needs to place faults *by position* (exact
/// regression scenarios), *by density* (endurance-scale realism), and with
/// controlled SA-0/SA-1 *polarity* — and to regenerate the identical fault
/// set for any line from `(seed, line_index)` alone, so a failure report
/// is reproducible from two numbers.
///
/// # Examples
///
/// ```
/// use pcm_util::fault::{FaultPlan, StuckAt};
///
/// // Exact: the same three faults on every line.
/// let plan = FaultPlan::exact(vec![
///     StuckAt { pos: 3, value: true },
///     StuckAt { pos: 100, value: false },
///     StuckAt { pos: 511, value: true },
/// ]);
/// assert_eq!(plan.for_line(0).count(), 3);
///
/// // Seeded: 10 faults per line, 70% stuck-at-1, different per line,
/// // identical across calls.
/// let plan = FaultPlan::with_count(42, 10, 0.7);
/// assert_eq!(plan.for_line(5), plan.for_line(5));
/// assert_ne!(plan.for_line(5), plan.for_line(6));
/// assert_eq!(plan.for_line(5).count(), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
}

impl FaultPlan {
    /// A plan injecting exactly these faults into every line.
    ///
    /// # Panics
    ///
    /// Panics if any position is ≥ 512.
    pub fn exact(faults: Vec<StuckAt>) -> Self {
        assert!(
            faults.iter().all(|f| (f.pos as usize) < DATA_BITS),
            "fault positions must be < 512"
        );
        FaultPlan {
            seed: 0,
            spec: FaultSpec::Exact(faults),
        }
    }

    /// A plan where each cell fails independently with probability
    /// `density`, stuck at 1 with probability `sa1_fraction`.
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are in `0.0..=1.0`.
    pub fn density(seed: u64, density: f64, sa1_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in 0..=1");
        assert!(
            (0.0..=1.0).contains(&sa1_fraction),
            "sa1_fraction must be in 0..=1"
        );
        FaultPlan {
            seed,
            spec: FaultSpec::Density {
                density,
                sa1_fraction,
            },
        }
    }

    /// A plan with exactly `count` faults per line at distinct seeded
    /// positions, stuck at 1 with probability `sa1_fraction`.
    ///
    /// # Panics
    ///
    /// Panics if `count > 512` or `sa1_fraction` is outside `0.0..=1.0`.
    pub fn with_count(seed: u64, count: u32, sa1_fraction: f64) -> Self {
        assert!(count as usize <= DATA_BITS, "at most 512 faults fit a line");
        assert!(
            (0.0..=1.0).contains(&sa1_fraction),
            "sa1_fraction must be in 0..=1"
        );
        FaultPlan {
            seed,
            spec: FaultSpec::Count {
                count,
                sa1_fraction,
            },
        }
    }

    /// The plan's seed (0 for exact plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Materializes the fault set of one line. Deterministic: the same
    /// `(plan, line)` always yields the same map.
    pub fn for_line(&self, line: u64) -> FaultMap {
        use crate::{child_seed, seeded_rng};
        use rand::RngExt;
        match &self.spec {
            FaultSpec::Exact(faults) => faults.iter().copied().collect(),
            FaultSpec::Density {
                density,
                sa1_fraction,
            } => {
                let mut rng = seeded_rng(child_seed(self.seed, line));
                let mut map = FaultMap::new();
                for pos in 0..DATA_BITS as u16 {
                    if rng.random_bool(*density) {
                        map.insert(StuckAt {
                            pos,
                            value: rng.random_bool(*sa1_fraction),
                        });
                    }
                }
                map
            }
            FaultSpec::Count {
                count,
                sa1_fraction,
            } => {
                let mut rng = seeded_rng(child_seed(self.seed, line));
                // Partial Fisher–Yates over the 512 positions.
                let mut positions: Vec<u16> = (0..DATA_BITS as u16).collect();
                (0..*count as usize)
                    .map(|i| {
                        let j = rng.random_range(i..DATA_BITS);
                        positions.swap(i, j);
                        StuckAt {
                            pos: positions[i],
                            value: rng.random_bool(*sa1_fraction),
                        }
                    })
                    .collect()
            }
        }
    }
}

impl FromIterator<StuckAt> for FaultMap {
    fn from_iter<T: IntoIterator<Item = StuckAt>>(iter: T) -> Self {
        let mut map = FaultMap::new();
        for f in iter {
            map.insert(f);
        }
        map
    }
}

impl Extend<StuckAt> for FaultMap {
    fn extend<T: IntoIterator<Item = StuckAt>>(&mut self, iter: T) {
        for f in iter {
            self.insert(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut m = FaultMap::new();
        assert!(m.is_empty());
        m.insert(StuckAt {
            pos: 0,
            value: false,
        });
        m.insert(StuckAt {
            pos: 511,
            value: true,
        });
        assert_eq!(m.count(), 2);
        assert_eq!(m.stuck_value(0), Some(false));
        assert_eq!(m.stuck_value(511), Some(true));
        assert_eq!(m.stuck_value(5), None);
    }

    #[test]
    fn reinsert_updates_value() {
        let mut m = FaultMap::new();
        m.insert(StuckAt {
            pos: 9,
            value: false,
        });
        m.insert(StuckAt {
            pos: 9,
            value: true,
        });
        assert_eq!(m.count(), 1);
        assert_eq!(m.stuck_value(9), Some(true));
    }

    #[test]
    fn apply_forces_stuck_values() {
        let mut m = FaultMap::new();
        m.insert(StuckAt {
            pos: 3,
            value: true,
        });
        m.insert(StuckAt {
            pos: 4,
            value: false,
        });
        let mut data = Line512::zero();
        data.set_bit(4, true);
        let written = m.apply(data);
        assert!(written.bit(3), "stuck-at-1 forces 1");
        assert!(!written.bit(4), "stuck-at-0 forces 0");
        // Healthy bits unchanged.
        assert!(!written.bit(5));
    }

    #[test]
    fn plan_exact_is_line_independent() {
        let plan = FaultPlan::exact(vec![
            StuckAt {
                pos: 1,
                value: true,
            },
            StuckAt {
                pos: 2,
                value: false,
            },
        ]);
        assert_eq!(plan.for_line(0), plan.for_line(99));
        assert_eq!(plan.for_line(0).count(), 2);
        assert_eq!(plan.for_line(0).stuck_value(1), Some(true));
        assert_eq!(plan.for_line(0).stuck_value(2), Some(false));
    }

    #[test]
    fn plan_count_exact_cardinality_and_determinism() {
        let plan = FaultPlan::with_count(7, 33, 0.5);
        for line in 0..8 {
            let m = plan.for_line(line);
            assert_eq!(m.count(), 33);
            assert_eq!(m, plan.for_line(line), "same (plan, line) must reproduce");
        }
        assert_ne!(
            plan.for_line(0),
            plan.for_line(1),
            "lines draw distinct sets"
        );
        assert_ne!(
            plan.for_line(0),
            FaultPlan::with_count(8, 33, 0.5).for_line(0),
            "seed changes the draw"
        );
    }

    #[test]
    fn plan_polarity_extremes() {
        let all_ones = FaultPlan::with_count(3, 64, 1.0).for_line(0);
        assert!(
            all_ones.iter().all(|f| f.value),
            "sa1_fraction=1 -> all stuck-at-1"
        );
        let all_zeros = FaultPlan::with_count(3, 64, 0.0).for_line(0);
        assert!(
            all_zeros.iter().all(|f| !f.value),
            "sa1_fraction=0 -> all stuck-at-0"
        );
    }

    #[test]
    fn plan_density_tracks_probability() {
        let plan = FaultPlan::density(11, 0.1, 0.5);
        let total: u32 = (0..64).map(|l| plan.for_line(l).count()).sum();
        // 64 lines x 512 cells at 10%: expect ~3277, allow wide slack.
        assert!((2000..5000).contains(&total), "got {total} faults");
        assert_eq!(FaultPlan::density(11, 0.0, 0.5).for_line(0).count(), 0);
        assert_eq!(FaultPlan::density(11, 1.0, 0.5).for_line(0).count(), 512);
    }

    #[test]
    fn iter_round_trip() {
        let faults = [
            StuckAt {
                pos: 1,
                value: true,
            },
            StuckAt {
                pos: 64,
                value: false,
            },
            StuckAt {
                pos: 200,
                value: true,
            },
        ];
        let m: FaultMap = faults.iter().copied().collect();
        let out: Vec<StuckAt> = m.iter().collect();
        assert_eq!(out, faults);
    }
}
