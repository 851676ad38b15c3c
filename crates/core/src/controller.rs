//! The functional whole-memory model.
//!
//! [`PcmMemory`] interleaves logical lines over a vector of [`BankCtl`]s —
//! each bank owns its complete controller state (inter-line wear-leveling
//! scheme, rotation counter, compression pipeline, ECC, resurrection
//! bookkeeping; see [`crate::bank`]) and the memory performs only the
//! logical→bank routing
//! and statistic aggregation. It simulates every write cell-accurately —
//! use it for correctness tests, examples, and to cross-validate the
//! accelerated lifetime engine; use [`crate::lifetime`] for
//! endurance-scale campaigns. Services that need the banks themselves
//! (the `pcm-serve` daemon shards banks over workers) construct
//! [`BankCtl`]s directly instead.

use crate::bank::BankCtl;
use crate::line::LineWriteReport;
use crate::system::SystemConfig;
use pcm_util::{seeded_rng, Line512};
use serde::{Deserialize, Serialize};

/// Cumulative statistics of a [`PcmMemory`] (or one [`BankCtl`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MemoryStats {
    /// Demand write-backs served.
    pub demand_writes: u64,
    /// Inter-line wear-leveling events (Start-Gap gap movements, swap
    /// events; each costs one or two extra line writes).
    pub gap_moves: u64,
    /// Total programmed cells.
    pub total_flips: u64,
    /// Cells that became stuck.
    pub new_faults: u64,
    /// Writes stored compressed.
    pub compressed_writes: u64,
    /// Lines revived by dead-block resurrection.
    pub resurrections: u64,
    /// Relocations that could not place their data (data parked until the
    /// next successful write).
    pub relocation_failures: u64,
    /// Uncorrectable line failures (death events, demand or relocation).
    pub deaths: u64,
    /// Sum of per-line fault counts at each death event (so
    /// `death_fault_cells / deaths` is the Fig. 12 faults-at-death mean).
    pub death_fault_cells: u64,
}

impl MemoryStats {
    /// Accumulates another statistics block into this one (used to merge
    /// per-bank counters into whole-memory totals).
    pub fn absorb(&mut self, other: &MemoryStats) {
        self.demand_writes += other.demand_writes;
        self.gap_moves += other.gap_moves;
        self.total_flips += other.total_flips;
        self.new_faults += other.new_faults;
        self.compressed_writes += other.compressed_writes;
        self.resurrections += other.resurrections;
        self.relocation_failures += other.relocation_failures;
        self.deaths += other.deaths;
        self.death_fault_cells += other.death_fault_cells;
    }
}

/// Report of one successful demand write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteReport {
    /// The line-level outcome ([`LineWriteReport`]).
    pub line: LineWriteReport,
    /// Whether the payload was stored compressed.
    pub compressed: bool,
    /// Whether this write triggered an inter-line wear-leveling event
    /// (named after Start-Gap's gap move, the default scheme's event).
    pub gap_moved: bool,
}

/// Error returned by [`PcmMemory::write`] / [`PcmMemory::read`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteError {
    /// The target line cannot store this payload: an uncorrectable error.
    LineDead {
        /// Faulty cells in the failed line.
        faults: u32,
    },
    /// The logical address is out of range.
    BadAddress,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::LineDead { faults } => {
                write!(
                    f,
                    "uncorrectable error: line dead with {faults} faulty cells"
                )
            }
            WriteError::BadAddress => write!(f, "logical address out of range"),
        }
    }
}

impl std::error::Error for WriteError {}

/// A functional PCM main memory under one of the four evaluated systems.
///
/// Logical lines interleave over banks; each bank has `lines_per_bank`
/// logical lines over the physical lines its configured wear scheme asks
/// for (`lines_per_bank + 1` under the default Start-Gap).
///
/// # Examples
///
/// ```
/// use pcm_core::{PcmMemory, SystemConfig, SystemKind};
/// use pcm_util::Line512;
///
/// let cfg = SystemConfig::new(SystemKind::Comp).with_endurance_mean(1e6);
/// let mut mem = PcmMemory::new(cfg, 64, 1);
/// mem.write(0, Line512::ones()).unwrap();
/// assert_eq!(mem.read(0).unwrap(), Line512::ones());
/// ```
#[derive(Debug)]
pub struct PcmMemory {
    cfg: SystemConfig,
    banks: Vec<BankCtl>,
    lines_per_bank: u64,
}

impl PcmMemory {
    /// Creates a memory with `logical_lines` lines (split over 8 banks when
    /// divisible, else one bank).
    ///
    /// # Panics
    ///
    /// Panics if `logical_lines < 2`.
    pub fn new(cfg: SystemConfig, logical_lines: u64, seed: u64) -> Self {
        assert!(logical_lines >= 2, "need at least two logical lines");
        // Eight banks when each bank gets at least two lines (the wear
        // scheme needs a region), otherwise a single bank.
        let banks = Self::banks_for(logical_lines);
        let lines_per_bank = logical_lines / banks as u64;
        // One RNG threaded through every bank, in bank order: the
        // whole-memory endurance draw is byte-identical to the historical
        // single-vector construction.
        let mut rng = seeded_rng(seed);
        let banks = (0..banks)
            .map(|_| BankCtl::sample(cfg, lines_per_bank, &mut rng))
            .collect();
        PcmMemory {
            cfg,
            banks,
            lines_per_bank,
        }
    }

    /// Number of logical lines.
    pub fn logical_lines(&self) -> u64 {
        self.lines_per_bank * self.banks.len() as u64
    }

    // Eight banks when each bank gets at least two lines (Start-Gap needs
    // a region), otherwise a single bank.
    fn banks_for(logical_lines: u64) -> usize {
        if logical_lines % 8 == 0 && logical_lines >= 16 {
            8
        } else {
            1
        }
    }

    /// Physical lines backing `logical_lines` logical ones under the
    /// default Start-Gap wear scheme: one spare per bank on top of the
    /// logical capacity. Wear (and the 50%-capacity failure criterion) is
    /// spread over this count, so per-line write budgets comparable with
    /// the accelerated engine's clock divide by it, not by the logical
    /// count. (Other wear schemes change the spare count; query the banks
    /// of a constructed memory for exact geometry.)
    pub fn physical_lines(logical_lines: u64) -> u64 {
        logical_lines + Self::banks_for(logical_lines) as u64
    }

    /// Cumulative statistics, aggregated over every bank.
    pub fn stats(&self) -> MemoryStats {
        let mut total = MemoryStats::default();
        for bank in &self.banks {
            total.absorb(&bank.stats());
        }
        total
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The per-bank controllers, in interleave order.
    pub fn banks(&self) -> &[BankCtl] {
        &self.banks
    }

    /// Fraction of physical lines currently dead.
    pub fn dead_fraction(&self) -> f64 {
        let dead: usize = self.banks.iter().map(|b| b.dead_lines()).sum();
        let phys: usize = self.banks.iter().map(|b| b.physical_line_count()).sum();
        dead as f64 / phys as f64
    }

    /// The paper's failure criterion: 50% of capacity worn out.
    pub fn is_failed(&self) -> bool {
        self.dead_fraction() >= 0.5
    }

    fn locate(&self, logical: u64) -> (usize, u64) {
        let bank = (logical % self.banks.len() as u64) as usize;
        let idx = logical / self.banks.len() as u64;
        (bank, idx)
    }

    /// Serves one LLC write-back.
    ///
    /// # Errors
    ///
    /// Returns a [`WriteReport`] on success, [`WriteError::LineDead`] on an
    /// uncorrectable error (the line cannot hold the payload), and
    /// [`WriteError::BadAddress`] for an out-of-range address.
    pub fn write(&mut self, logical: u64, data: Line512) -> Result<WriteReport, WriteError> {
        if logical >= self.logical_lines() {
            return Err(WriteError::BadAddress);
        }
        let (bank, idx) = self.locate(logical);
        self.banks[bank].write(idx, data)
    }

    /// Reads one line back, decompressing as needed.
    ///
    /// # Errors
    ///
    /// Returns [`WriteError::BadAddress`] out of range,
    /// [`WriteError::LineDead`] when the data was lost to an uncorrectable
    /// error or a failed relocation.
    pub fn read(&self, logical: u64) -> Result<Line512, WriteError> {
        if logical >= self.logical_lines() {
            return Err(WriteError::BadAddress);
        }
        let (bank, idx) = self.locate(logical);
        self.banks[bank].read(idx)
    }

    /// Decompression latency (CPU cycles) a demand read of this line pays.
    pub fn read_decompression_cycles(&self, logical: u64) -> u64 {
        let (bank, idx) = self.locate(logical);
        self.banks[bank].read_decompression_cycles(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemKind;
    use pcm_trace::{BlockStream, SpecApp};
    use pcm_util::seeded_rng;
    use rand::RngExt;

    fn cfg(kind: SystemKind) -> SystemConfig {
        SystemConfig::new(kind).with_endurance_mean(1e9)
    }

    #[test]
    fn write_read_round_trip_all_systems() {
        let mut rng = seeded_rng(121);
        for kind in SystemKind::ALL {
            let mut mem = PcmMemory::new(cfg(kind), 32, 7);
            let lines: Vec<(u64, Line512)> =
                (0..32).map(|l| (l, Line512::random(&mut rng))).collect();
            for &(l, d) in &lines {
                mem.write(l, d).unwrap();
            }
            for &(l, d) in &lines {
                assert_eq!(mem.read(l).unwrap(), d, "{kind}");
            }
        }
    }

    #[test]
    fn round_trip_survives_start_gap_churn() {
        let mut base = SystemConfig::new(SystemKind::CompWF).with_endurance_mean(1e9);
        base.start_gap_psi = 3; // aggressive gap movement
        let mut mem = PcmMemory::new(base, 16, 9);
        let mut rng = seeded_rng(122);
        let mut expected = std::collections::HashMap::new();
        for step in 0..2000u64 {
            let l = rng.random_range(0..16);
            let d = Line512::random(&mut rng);
            mem.write(l, d).unwrap();
            expected.insert(l, d);
            if step % 97 == 0 {
                for (&l, &d) in &expected {
                    assert_eq!(mem.read(l).unwrap(), d, "step {step} line {l}");
                }
            }
        }
        assert!(mem.stats().gap_moves > 500);
    }

    #[test]
    fn round_trip_survives_rival_scheme_churn() {
        // Every registered ECC × wear stack runs through the same
        // controller loop — nothing here branches on the scheme.
        use crate::system::{EccChoice, WearChoice};
        for wear in WearChoice::ALL {
            for ecc in [EccChoice::Ecp6, EccChoice::Coset] {
                let mut base = SystemConfig::new(SystemKind::CompWF)
                    .with_endurance_mean(1e9)
                    .with_ecc(ecc)
                    .with_wear(wear);
                base.start_gap_psi = 3; // aggressive wear-leveling churn
                let mut mem = PcmMemory::new(base, 16, 9);
                let mut rng = seeded_rng(123);
                let mut expected = std::collections::HashMap::new();
                for step in 0..600u64 {
                    let l = rng.random_range(0..16);
                    let d = Line512::random(&mut rng);
                    mem.write(l, d).unwrap();
                    expected.insert(l, d);
                    if step % 97 == 0 {
                        for (&l, &d) in &expected {
                            assert_eq!(mem.read(l).unwrap(), d, "{ecc}/{wear} step {step}");
                        }
                    }
                }
                assert!(mem.stats().gap_moves > 100, "{ecc}/{wear} must churn");
            }
        }
    }

    #[test]
    fn compression_statistics_flow() {
        let mut mem = PcmMemory::new(cfg(SystemKind::Comp), 8, 3);
        // Highly compressible data compresses.
        for l in 0..8 {
            mem.write(l, Line512::zero()).unwrap();
        }
        let s = mem.stats();
        assert_eq!(s.demand_writes, 8);
        assert_eq!(s.compressed_writes, 8);
    }

    #[test]
    fn baseline_never_compresses() {
        let mut mem = PcmMemory::new(cfg(SystemKind::Baseline), 8, 3);
        for l in 0..8 {
            mem.write(l, Line512::zero()).unwrap();
        }
        assert_eq!(mem.stats().compressed_writes, 0);
    }

    #[test]
    fn weak_cells_kill_baseline_faster_than_compwf() {
        // Same seed -> same endurance draw; CompWF's sliding window must
        // survive at least as many writes as Baseline on a weak line.
        let survive = |kind: SystemKind| -> u64 {
            let cfg = SystemConfig::new(kind).with_endurance_mean(60.0);
            let mut mem = PcmMemory::new(cfg, 2, 5);
            let mut rng = seeded_rng(321);
            let mut writes = 0u64;
            loop {
                let d = if kind.compresses() {
                    // compressible content
                    let mut b = [0u8; 64];
                    b[0] = rng.random();
                    Line512::from_bytes(&b)
                } else {
                    Line512::random(&mut rng)
                };
                if mem.write(0, d).is_err() {
                    return writes;
                }
                writes += 1;
                if writes > 2_000_000 {
                    return writes;
                }
            }
        };
        let base = survive(SystemKind::Baseline);
        let wf = survive(SystemKind::CompWF);
        assert!(
            wf > base * 2,
            "CompWF ({wf} writes) should far outlast Baseline ({base} writes)"
        );
    }

    #[test]
    fn coarse_window_step_keeps_every_write_on_the_grid() {
        let cfg = SystemConfig::new(SystemKind::CompWF)
            .with_endurance_mean(400.0)
            .with_window_step(4);
        let mut mem = PcmMemory::new(cfg, 16, 11);
        let mut rng = seeded_rng(11);
        let mut block = BlockStream::new(SpecApp::Milc.profile(), 11);
        let (mut stored, mut slid, mut off_grid) = (0u32, 0u32, 0u32);
        for _ in 0..40_000 {
            if let Ok(r) = mem.write(rng.random_range(0..16), block.next_data()) {
                stored += 1;
                slid += r.line.slid as u32;
                off_grid += (r.line.offset % 4 != 0) as u32;
            }
        }
        assert_eq!(off_grid, 0, "{off_grid} of {stored} writes off the grid");
        assert!(stored > 10_000 && slid > 0, "{stored} stored, {slid} slid");
        assert!(mem.stats().deaths > 0, "endurance 400 must wear lines out");
    }

    #[test]
    fn bad_address_rejected() {
        let mut mem = PcmMemory::new(cfg(SystemKind::Baseline), 8, 3);
        assert_eq!(mem.write(8, Line512::zero()), Err(WriteError::BadAddress));
        assert_eq!(mem.read(8).unwrap_err(), WriteError::BadAddress);
    }

    #[test]
    fn unwritten_line_reads_as_dead() {
        let mem = PcmMemory::new(cfg(SystemKind::Comp), 8, 3);
        assert!(matches!(mem.read(0), Err(WriteError::LineDead { .. })));
    }

    #[test]
    fn decompression_cycles_reflect_method() {
        let mut mem = PcmMemory::new(cfg(SystemKind::Comp), 8, 3);
        mem.write(0, Line512::zero()).unwrap(); // BDI zeros
        assert_eq!(mem.read_decompression_cycles(0), 1);
        let mut rng = seeded_rng(8);
        mem.write(1, Line512::random(&mut rng)).unwrap(); // uncompressed
        assert_eq!(mem.read_decompression_cycles(1), 0);
    }

    #[test]
    fn per_bank_stats_sum_to_memory_stats() {
        let mut mem = PcmMemory::new(cfg(SystemKind::CompWF), 32, 13);
        let mut rng = seeded_rng(99);
        for _ in 0..300u32 {
            let l = rng.random_range(0..32);
            mem.write(l, Line512::random(&mut rng)).unwrap();
        }
        let mut summed = MemoryStats::default();
        for bank in mem.banks() {
            summed.absorb(&bank.stats());
        }
        assert_eq!(summed, mem.stats());
        assert_eq!(mem.banks().len(), 8);
    }
}
