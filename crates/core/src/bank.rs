//! One PCM bank's controller state, owned by value.
//!
//! [`BankCtl`] is the unit of ownership in every deployment of the
//! controller: [`crate::PcmMemory`] interleaves logical lines over a vector
//! of banks, and the `pcm-serve` daemon hands each bank to exactly one
//! shard — no shared mutable state, so shard scheduling can never change a
//! result. Everything the paper's architecture does per bank lives here:
//! inter-line wear-leveling through the pluggable
//! [`WearScheme`](pcm_wear::WearScheme) trait (migration writes are real
//! writes), the intra-line rotation counter, and the controller's storage
//! step (`payload::store`): compression with the Fig. 8 heuristic, window
//! placement, ECC encode, and dead-block resurrection on any write to a
//! dead line, demand or migration.

use crate::controller::{MemoryStats, WriteError, WriteReport};
use crate::line::{LineWriteReport, ManagedLine};
use crate::payload::{revivable, store, HostMeta, PayloadBufs};
use crate::system::SystemConfig;
use pcm_compress::{decompress, CompressedWrite};
use pcm_util::{seeded_rng, Line512};
use pcm_wear::{IntraLineLeveler, WearEvent, WearScheme};
use rand::Rng;

/// One bank of a PCM main memory: `lines` logical lines over the physical
/// lines its wear scheme asks for (Start-Gap's one spare, WoLFRaM's spare
/// pool, …), with all per-bank bookkeeping.
///
/// Addresses passed to [`write`](Self::write) / [`read`](Self::read) are
/// **bank-relative** (`0..lines`); the owner performs the logical→bank
/// routing.
///
/// # Examples
///
/// ```
/// use pcm_core::{BankCtl, SystemConfig, SystemKind};
/// use pcm_util::Line512;
///
/// let cfg = SystemConfig::new(SystemKind::CompWF).with_endurance_mean(1e6);
/// let mut bank = BankCtl::new(cfg, 8, 17);
/// bank.write(3, Line512::ones()).unwrap();
/// assert_eq!(bank.read(3).unwrap(), Line512::ones());
/// ```
#[derive(Debug)]
pub struct BankCtl {
    cfg: SystemConfig,
    lines: u64,
    phys: Vec<ManagedLine>,
    scheme: Box<dyn WearScheme>,
    leveler: IntraLineLeveler,
    shadow: Vec<Option<Line512>>,
    parked: Vec<bool>,
    meta: Vec<HostMeta>,
    stats: MemoryStats,
}

impl BankCtl {
    /// Creates a bank with `lines` logical lines, sampling cell endurance
    /// from its own RNG stream seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `lines < 2` (the wear scheme needs a region to rotate).
    pub fn new(cfg: SystemConfig, lines: u64, seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        Self::sample(cfg, lines, &mut rng)
    }

    /// Creates a bank sampling its physical lines from a caller-owned RNG.
    ///
    /// [`crate::PcmMemory`] threads one RNG through all of its banks so the
    /// whole-memory endurance draw is identical to the historical
    /// single-vector construction.
    ///
    /// # Panics
    ///
    /// Panics if `lines < 2`.
    pub fn sample<R: Rng + ?Sized>(cfg: SystemConfig, lines: u64, rng: &mut R) -> Self {
        assert!(lines >= 2, "a bank needs at least two logical lines");
        // Endurance is sampled before the wear scheme is built, and
        // Start-Gap draws no scheme seed: the default configuration's
        // construction RNG stream is identical to the pre-trait layout.
        let phys = (0..cfg.wear.physical_lines(lines))
            .map(|_| ManagedLine::sample_with_tech(&cfg.endurance, cfg.tech, rng))
            .collect();
        let scheme = cfg.wear.build(lines, cfg.start_gap_psi, rng);
        BankCtl {
            cfg,
            lines,
            phys,
            scheme,
            leveler: IntraLineLeveler::new(cfg.bank_counter_period, 1),
            shadow: vec![None; lines as usize],
            parked: vec![false; lines as usize],
            meta: vec![HostMeta::default(); lines as usize],
            stats: MemoryStats::default(),
        }
    }

    /// Logical lines in this bank.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Physical lines (logical capacity plus the wear scheme's spares).
    pub(crate) fn physical_line_count(&self) -> usize {
        self.phys.len()
    }

    /// Physical lines currently dead.
    pub fn dead_lines(&self) -> usize {
        self.phys.iter().filter(|l| l.is_dead()).count()
    }

    /// Cumulative statistics of this bank.
    pub fn stats(&self) -> MemoryStats {
        self.stats
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    fn phys_index(&self, idx: u64) -> usize {
        self.scheme.map(idx) as usize
    }

    /// Serves one LLC write-back to bank-relative line `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`WriteError::LineDead`] on an uncorrectable error (the line
    /// cannot hold the payload) and [`WriteError::BadAddress`] for an
    /// out-of-range address.
    pub fn write(&mut self, idx: u64, data: Line512) -> Result<WriteReport, WriteError> {
        if idx >= self.lines {
            return Err(WriteError::BadAddress);
        }
        // A scheme with spare capacity may retire a dead physical line and
        // redirect the write (WoLFRaM); schemes without decline and the
        // death propagates exactly as before.
        let mut phys = self.phys_index(idx);
        let report = loop {
            match self.write_to_phys(phys, idx, data) {
                Ok(r) => break r,
                Err(e) => match self.scheme.retire_line(phys as u64) {
                    Some(spare) => phys = spare as usize,
                    None => return Err(e),
                },
            }
        };
        self.stats.demand_writes += 1;

        // Bank bookkeeping: rotation counter and inter-line wear-leveling.
        self.leveler.note_write();
        let gap_moved = if let Some(ev) = self.scheme.on_write(idx) {
            self.apply_wear_event(ev);
            true
        } else {
            false
        };
        Ok(WriteReport {
            line: report.0,
            compressed: report.1,
            gap_moved,
        })
    }

    /// Reads bank-relative line `idx` back, decompressing as needed.
    ///
    /// # Errors
    ///
    /// Returns [`WriteError::BadAddress`] out of range,
    /// [`WriteError::LineDead`] when the line was never written or its data
    /// was lost to an uncorrectable error or a failed relocation.
    pub fn read(&self, idx: u64) -> Result<Line512, WriteError> {
        if idx >= self.lines {
            return Err(WriteError::BadAddress);
        }
        let phys = self.phys_index(idx);
        let line = &self.phys[phys];
        // A line with no acknowledged write holds nothing of its own: its
        // slot may still carry the previous occupant's valid copy after a
        // wear-leveling move.
        if self.shadow[idx as usize].is_none() || self.parked[idx as usize] || !line.is_valid() {
            return Err(WriteError::LineDead {
                faults: line.faults().count(),
            });
        }
        let (method, bytes) = line.read(self.cfg.ecc).expect("valid line reads");
        let c =
            CompressedWrite::from_parts(method, bytes).expect("stored payload is self-consistent");
        Ok(decompress(&c))
    }

    /// Decompression latency (CPU cycles) a demand read of this line pays.
    pub fn read_decompression_cycles(&self, idx: u64) -> u64 {
        let phys = self.phys_index(idx);
        self.phys[phys].method().decompression_cycles()
    }

    /// Folds this bank's wear state into a seed-stable FNV-1a digest:
    /// per-cell wear, fault count, and liveness of every physical line,
    /// the wear scheme's [`digest_words`](WearScheme::digest_words), and
    /// the cumulative statistics. Two banks with the same digest took the
    /// same write history (up to hash collision); `pcm-serve` replay tests
    /// compare these across shard counts.
    pub fn wear_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for w in self.scheme.digest_words() {
            h = fnv1a(h, w);
        }
        for line in &self.phys {
            h = fnv1a(h, line.faults().count() as u64);
            h = fnv1a(h, line.is_dead() as u64);
            let wear = line.wear();
            for pos in 0..pcm_util::DATA_BITS {
                h = fnv1a(h, wear.wear_of(pos) as u64);
            }
        }
        for v in [
            self.stats.demand_writes,
            self.stats.gap_moves,
            self.stats.total_flips,
            self.stats.new_faults,
            self.stats.compressed_writes,
            self.stats.resurrections,
            self.stats.relocation_failures,
            self.stats.deaths,
            self.stats.death_fault_cells,
        ] {
            h = fnv1a(h, v);
        }
        h
    }

    /// One write of `data` for bank-relative line `idx` into physical line
    /// `phys`, demand or migration: a dead line must pass the resurrection
    /// check first, then the storage step runs (see `crate::payload`).
    fn write_to_phys(
        &mut self,
        phys: usize,
        idx: u64,
        data: Line512,
    ) -> Result<(LineWriteReport, bool), WriteError> {
        let i = idx as usize;
        let rotation = self.leveler.offset();
        let line = &mut self.phys[phys];
        // One stack-resident buffer pair per write: the storage step never
        // heap-allocates.
        let mut bufs = PayloadBufs::new();
        if line.is_dead() {
            if !revivable(line, &self.cfg, &data, rotation, &mut bufs) {
                return Err(WriteError::LineDead {
                    faults: line.faults().count(),
                });
            }
            line.revive();
            self.stats.resurrections += 1;
        }
        match store(line, &self.cfg, self.meta[i], &data, rotation, &mut bufs) {
            Ok(s) => {
                let compressed = s.method.is_compressed();
                self.shadow[i] = Some(data);
                self.parked[i] = false;
                self.meta[i] = s.meta;
                self.stats.total_flips += s.report.flips as u64;
                self.stats.new_faults += s.report.new_faults as u64;
                self.stats.compressed_writes += compressed as u64;
                Ok((s.report, compressed))
            }
            Err(e) => {
                self.parked[i] = true;
                self.stats.deaths += 1;
                self.stats.death_fault_cells += e.faults as u64;
                Err(WriteError::LineDead { faults: e.faults })
            }
        }
    }

    /// Performs the migration writes a wear-leveling event demands. The
    /// scheme's map already reflects the new positions; this copies the
    /// hosted data into its new slots (a swap is two migration writes).
    fn apply_wear_event(&mut self, ev: WearEvent) {
        self.stats.gap_moves += 1;
        match ev {
            WearEvent::Move { to } => self.migrate_into(to),
            WearEvent::Swap { a, b } => {
                if a != b {
                    self.migrate_into(a);
                    self.migrate_into(b);
                }
            }
        }
    }

    /// One relocation write into physical slot `to`, including the
    /// Comp+WF resurrection check.
    fn migrate_into(&mut self, to: u64) {
        // Which logical (bank-relative) line now maps to `to`?
        let idx = (0..self.lines).find(|&i| self.scheme.map(i) == to);
        let Some(idx) = idx else {
            return; // `to` is a spare/gap slot after the event: nothing to copy.
        };
        let Some(data) = self.shadow[idx as usize] else {
            return; // never written: nothing to relocate
        };
        match self.write_to_phys(to as usize, idx, data) {
            Ok(_) => {}
            Err(_) => {
                self.stats.relocation_failures += 1;
                self.parked[idx as usize] = true;
            }
        }
    }
}

/// One FNV-1a fold step over a `u64` value's eight little-endian bytes.
fn fnv1a(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemKind;
    use pcm_util::seeded_rng;
    use rand::RngExt;

    fn cfg(kind: SystemKind) -> SystemConfig {
        SystemConfig::new(kind).with_endurance_mean(1e9)
    }

    #[test]
    fn bank_round_trips_all_systems() {
        let mut rng = seeded_rng(55);
        for kind in SystemKind::ALL {
            let mut bank = BankCtl::new(cfg(kind), 16, 3);
            let lines: Vec<(u64, Line512)> =
                (0..16).map(|l| (l, Line512::random(&mut rng))).collect();
            for &(l, d) in &lines {
                bank.write(l, d).unwrap();
            }
            for &(l, d) in &lines {
                assert_eq!(bank.read(l).unwrap(), d, "{kind}");
            }
        }
    }

    #[test]
    fn bank_rejects_out_of_range() {
        let mut bank = BankCtl::new(cfg(SystemKind::Comp), 8, 3);
        assert_eq!(bank.write(8, Line512::zero()), Err(WriteError::BadAddress));
        assert_eq!(bank.read(8).unwrap_err(), WriteError::BadAddress);
    }

    #[test]
    fn never_written_line_reads_as_dead_after_a_gap_move() {
        // Two Start-Gap moves (ψ = 100) leave line 3's earlier copy in
        // the slot that never-written line 2 now maps to.
        let mut bank = BankCtl::new(cfg(SystemKind::Comp), 4, 1);
        for _ in 0..250 {
            bank.write(3, Line512::ones()).unwrap();
        }
        assert_eq!(bank.stats().gap_moves, 2);
        assert!(matches!(bank.read(2), Err(WriteError::LineDead { .. })));
        assert_eq!(bank.read(3).unwrap(), Line512::ones());
    }

    #[test]
    fn wear_digest_tracks_history_not_construction() {
        let mut a = BankCtl::new(cfg(SystemKind::CompWF), 8, 9);
        let mut b = BankCtl::new(cfg(SystemKind::CompWF), 8, 9);
        assert_eq!(a.wear_digest(), b.wear_digest(), "same seed, same digest");
        a.write(1, Line512::ones()).unwrap();
        assert_ne!(a.wear_digest(), b.wear_digest(), "write changes digest");
        b.write(1, Line512::ones()).unwrap();
        assert_eq!(a.wear_digest(), b.wear_digest(), "same history converges");
    }

    #[test]
    fn digest_is_replay_stable() {
        let run = || {
            let mut bank = BankCtl::new(cfg(SystemKind::Comp), 8, 21);
            let mut rng = seeded_rng(77);
            for _ in 0..500u32 {
                let l = rng.random_range(0..8);
                let _ = bank.write(l, Line512::random(&mut rng));
            }
            bank.wear_digest()
        };
        assert_eq!(run(), run());
    }
}
