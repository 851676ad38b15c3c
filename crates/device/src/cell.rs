//! Per-cell endurance, wear accumulation, and stuck-at failure.
//!
//! Every PCM cell endures a finite number of programming events before its
//! heater detaches (stuck-at-RESET) or its GST loses crystallinity
//! (stuck-at-SET). The paper's fault model (§IV): endurance is drawn per
//! cell from a normal distribution with mean `10^7` and CoV 0.15 (0.25 for
//! the §V.C process-variation study); a failed cell is stuck at the value
//! it held when it failed, and — crucially for every scheme in the paper —
//! stuck-at faults are *detected* at write time by the verify step, so the
//! controller always knows the fault positions and stuck values.

use pcm_util::dist::Normal;
use pcm_util::fault::{FaultMap, StuckAt};
use pcm_util::{simd, Line512, DATA_BITS};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The endurance distribution of PCM cells.
///
/// # Examples
///
/// ```
/// use pcm_device::EnduranceModel;
///
/// let paper = EnduranceModel::paper();
/// assert_eq!(paper.mean(), 1e7);
/// assert_eq!(paper.cov(), 0.15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnduranceModel {
    mean: f64,
    cov: f64,
}

impl EnduranceModel {
    /// Creates an endurance model with the given mean write count and
    /// coefficient of variation.
    ///
    /// # Panics
    ///
    /// Panics if `mean < 1` or `cov` is negative.
    pub fn new(mean: f64, cov: f64) -> Self {
        assert!(mean >= 1.0, "endurance mean must be at least 1, got {mean}");
        assert!(cov >= 0.0, "CoV must be non-negative");
        EnduranceModel { mean, cov }
    }

    /// The paper's default: mean `10^7`, CoV 0.15 (Table II).
    pub fn paper() -> Self {
        EnduranceModel::new(1e7, 0.15)
    }

    /// Mean endurance.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Coefficient of variation.
    pub fn cov(&self) -> f64 {
        self.cov
    }

    /// Samples one cell's endurance (clamped to at least 1 write).
    pub fn sample_cell<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let n = Normal::from_cov(self.mean, self.cov);
        n.sample_clamped(rng, 1.0).round().min(u32::MAX as f64) as u32
    }
}

/// PCM cell technology: bits stored per physical cell.
///
/// MLC doubles density by storing two bits per cell at the cost of much
/// lower endurance (10^5–10^6 per the paper's footnote) and slower access.
/// In the MLC model, a programming event wears the *cell*; when it sticks,
/// both of its bits freeze.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellTech {
    /// One bit per cell (the paper's baseline).
    Slc,
    /// Two bits per cell.
    Mlc2,
}

impl CellTech {
    /// Bits stored per cell.
    pub(crate) fn bits_per_cell(&self) -> usize {
        match self {
            CellTech::Slc => 1,
            CellTech::Mlc2 => 2,
        }
    }

    /// Physical cells backing a 512-bit line.
    pub fn cells_per_line(&self) -> usize {
        DATA_BITS / self.bits_per_cell()
    }

    /// A representative endurance model for this technology: the paper's
    /// 10^7 for SLC, 10^6 (ITRS/Kang et al. band) for MLC.
    pub fn default_endurance(&self) -> EnduranceModel {
        match self {
            CellTech::Slc => EnduranceModel::paper(),
            CellTech::Mlc2 => EnduranceModel::new(1e6, 0.15),
        }
    }
}

impl std::fmt::Display for CellTech {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellTech::Slc => write!(f, "SLC"),
            CellTech::Mlc2 => write!(f, "MLC-2"),
        }
    }
}

/// The result of one physical line write.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteOutcome {
    /// Number of cells the RMW circuit attempted to program (bit flips
    /// under differential writes) — the paper's wear/energy metric.
    pub flips: u32,
    /// Mask of the cells that were programmed.
    pub flip_mask: Line512,
    /// Cells that failed *during this write* and are now stuck.
    pub new_faults: Vec<StuckAt>,
}

/// The wear state of one 512-bit line: per-cell endurance, accumulated
/// programming counts, current stored values, and the stuck-at fault map.
///
/// Writes are differential: only differing cells are programmed, each
/// programming event consumes one endurance unit, and a cell whose budget
/// is exhausted sticks at the value it currently holds (the new value fails
/// to program).
///
/// # Examples
///
/// ```
/// use pcm_device::{EnduranceModel, LineWear};
/// use pcm_util::Line512;
///
/// let mut rng = pcm_util::seeded_rng(3);
/// let mut line = LineWear::sample(&EnduranceModel::new(100.0, 0.0), &mut rng);
/// let outcome = line.write(&Line512::ones());
/// assert_eq!(outcome.flips, 512);
/// assert!(outcome.new_faults.is_empty());
/// assert_eq!(line.stored(), Line512::ones());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LineWear {
    tech: CellTech,
    endurance: Vec<u32>,
    wear: Vec<u32>,
    stored: Line512,
    faults: FaultMap,
    /// Death-free write budget: a lower bound on `endurance - wear` over
    /// every healthy cell. While positive, a differential write cannot
    /// kill any cell (each write programs a cell at most once), so the
    /// SLC hot path skips the per-cell death check entirely and just
    /// decrements the bound. Pure cache: 0 is always safe (the next
    /// write runs the full check and recomputes), so it is excluded from
    /// equality.
    slack: u32,
    /// Whether the next computation of `slack` must rescan every cell: on
    /// a fresh line, and after a death that no rescan followed, when
    /// `slack_min` no longer describes the healthy set. The bound only
    /// *rises* when a dying cell leaves the healthy set, so the full write
    /// path recomputes it exactly then instead of on every slow-path write.
    slack_stale: bool,
    /// The exact `min(endurance - wear)` over the healthy cells when
    /// `slack` was last computed.
    slack_min: u32,
    /// The cells whose wear changed since `slack` was last computed. With
    /// no death in between, every other healthy cell still has at least
    /// `slack_min` left, so the minimum over these cells and `slack_min`
    /// is the exact bound (see [`Self::fast_forward`]).
    slack_changed: Line512,
}

impl PartialEq for LineWear {
    fn eq(&self, other: &Self) -> bool {
        // The slack fields are a conservative cache, not state: two lines
        // that took different code paths to identical wear may hold
        // different bounds.
        self.tech == other.tech
            && self.endurance == other.endurance
            && self.wear == other.wear
            && self.stored == other.stored
            && self.faults == other.faults
    }
}

impl Eq for LineWear {}

impl LineWear {
    /// Samples a fresh SLC line from an endurance model. Cells start at
    /// zero (RESET) with no wear.
    pub fn sample<R: Rng + ?Sized>(model: &EnduranceModel, rng: &mut R) -> Self {
        LineWear::sample_with_tech(model, CellTech::Slc, rng)
    }

    /// Samples a fresh line with the given cell technology.
    pub fn sample_with_tech<R: Rng + ?Sized>(
        model: &EnduranceModel,
        tech: CellTech,
        rng: &mut R,
    ) -> Self {
        let cells = tech.cells_per_line();
        let endurance = (0..cells).map(|_| model.sample_cell(rng)).collect();
        LineWear {
            tech,
            endurance,
            wear: vec![0; cells],
            stored: Line512::zero(),
            faults: FaultMap::new(),
            slack: 0,
            slack_stale: true,
            slack_min: 0,
            slack_changed: Line512::zero(),
        }
    }

    /// Creates an SLC line with explicit per-cell endurance (for tests).
    ///
    /// # Panics
    ///
    /// Panics unless exactly 512 values are given.
    pub fn with_endurance(endurance: Vec<u32>) -> Self {
        assert_eq!(endurance.len(), DATA_BITS, "need one endurance per cell");
        LineWear {
            tech: CellTech::Slc,
            endurance,
            wear: vec![0; DATA_BITS],
            stored: Line512::zero(),
            faults: FaultMap::new(),
            slack: 0,
            slack_stale: true,
            slack_min: 0,
            slack_changed: Line512::zero(),
        }
    }

    /// Creates an SLC line with infinite-endurance healthy cells and the
    /// given pre-existing stuck-at faults (stored values start at each
    /// fault's stuck value, zero elsewhere).
    ///
    /// This is the fault-injection entry point of the verification
    /// harness: it realizes a planned fault set *exactly* — position and
    /// stuck polarity — where wearing cells out through writes would leave
    /// the stuck value dependent on the data stream.
    pub fn with_faults(faults: &FaultMap) -> Self {
        let mut endurance = vec![u32::MAX; DATA_BITS];
        let mut wear = vec![0; DATA_BITS];
        for f in faults.iter() {
            endurance[f.pos as usize] = 0;
            wear[f.pos as usize] = 0;
        }
        LineWear {
            tech: CellTech::Slc,
            endurance,
            wear,
            stored: faults.apply(Line512::zero()),
            faults: *faults,
            slack: 0,
            slack_stale: true,
            slack_min: 0,
            slack_changed: Line512::zero(),
        }
    }

    /// The cell technology of this line.
    pub fn tech(&self) -> CellTech {
        self.tech
    }

    /// Physical cell index backing bit `pos`.
    fn cell_of(&self, pos: usize) -> usize {
        pos / self.tech.bits_per_cell()
    }

    /// The values physically held by the cells right now.
    pub fn stored(&self) -> Line512 {
        self.stored
    }

    /// The stuck-at faults accumulated so far. Faults only accumulate:
    /// nothing removes a position once it is stuck, so the fault count
    /// names the set.
    pub fn faults(&self) -> &FaultMap {
        &self.faults
    }

    /// Remaining endurance of cell `pos` (0 when stuck).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 512`.
    pub fn remaining(&self, pos: usize) -> u32 {
        let c = self.cell_of(pos);
        self.endurance[c].saturating_sub(self.wear[c])
    }

    /// Sampled endurance of the cell backing bit `pos`.
    pub fn endurance_of(&self, pos: usize) -> u32 {
        self.endurance[self.cell_of(pos)]
    }

    /// Accumulated programming events of the cell backing bit `pos`.
    pub fn wear_of(&self, pos: usize) -> u32 {
        self.wear[self.cell_of(pos)]
    }

    /// Performs a differential write of `target` over the stored values.
    ///
    /// Only differing cells are programmed. A cell that exhausts its
    /// endurance during this write keeps its *old* value and becomes stuck
    /// there; the failure is reported in the [`WriteOutcome`] (write-verify), so the
    /// caller can immediately re-encode around it.
    #[inline]
    pub fn write(&mut self, target: &Line512) -> WriteOutcome {
        let diff = self.stored ^ *target;
        if self.tech == CellTech::Slc {
            return self.write_slc(diff);
        }
        self.write_per_bit(diff)
    }

    /// SLC fast path: with one bit per cell, every differing cell is
    /// independent, so the per-bit loop collapses into whole-line lane
    /// kernels — program the non-stuck diff bits, step their wear lanes,
    /// and materialize stuck-at faults for the lanes that just died. The
    /// per-bit loop below ([`Self::write_per_bit`]) is the reference
    /// semantic; the differential rig in `tests/wear_model_equiv.rs` pins
    /// the equivalence against an independent model.
    #[inline]
    fn write_slc(&mut self, diff: Line512) -> WriteOutcome {
        let flips = diff.count_ones();
        let program = diff & !self.faults.positions();
        // Death-free fast path: while the slack bound is positive, no
        // programmed cell can exhaust its endurance on this write (each
        // write programs a cell at most once), so the death scan, fault
        // materialization, and bound recomputation are all skipped.
        if self.slack > 0 {
            if !program.is_zero() {
                self.slack -= 1;
                simd::mask_accumulate(&mut self.wear, &program.words());
                self.stored = self.stored ^ program;
                self.slack_changed = self.slack_changed | program;
            }
            return WriteOutcome {
                flips,
                flip_mask: diff,
                // pcm-audit: allow(hotpath-alloc) — Vec::new does not allocate; the fast path returns an empty fault list
                new_faults: Vec::new(),
            };
        }
        let died_words = if program.is_zero() {
            [0u64; 8]
        } else {
            simd::wear_step(&mut self.wear, &self.endurance, &program.words())
        };
        let died = Line512::from_words(died_words);
        // Programmed cells that survived take the new value; dead cells
        // keep the value they held (stuck at the old value).
        self.stored = self.stored ^ (program & !died);
        // pcm-audit: allow(hotpath-alloc) — allocation deferred to the first cell death, a once-per-cell event
        let mut new_faults = Vec::new();
        if !died.is_zero() {
            for pos in died.iter_ones() {
                let fault = StuckAt {
                    pos: pos as u16,
                    value: self.stored.bit(pos),
                };
                self.faults.insert(fault);
                // pcm-audit: allow(hotpath-alloc) — pushes only when a cell dies, a once-per-cell event
                new_faults.push(fault);
            }
        }
        self.slack_changed = self.slack_changed | program;
        // Re-arm the fast path only when the bound can have risen: a death
        // removed the weakest cell from the healthy set, or it was never
        // computed. While a healthy cell sits at zero remaining the bound
        // stays zero, and rescanning every write would cost more than the
        // death check it is meant to avoid.
        if self.slack_stale || !new_faults.is_empty() {
            self.rescan_slack();
        }
        WriteOutcome {
            flips,
            flip_mask: diff,
            new_faults,
        }
    }

    /// Reference per-bit write loop; the only live path for MLC, where
    /// bits share cells (one wear event per cell per write, cell death
    /// freezes every bit of the cell).
    fn write_per_bit(&mut self, diff: Line512) -> WriteOutcome {
        // The per-bit path never maintains the slack bound (MLC wear is
        // per-cell, not per-bit); drop it so SLC fast-path assumptions
        // cannot leak across a tech boundary.
        self.slack = 0;
        // pcm-audit: allow(hotpath-alloc) — allocation deferred to the first cell death, a once-per-cell event
        let mut new_faults = Vec::new();
        let mut flips = 0u32;
        let bpc = self.tech.bits_per_cell();
        let mut last_worn_cell = usize::MAX;
        for pos in diff.iter_ones() {
            flips += 1;
            // (every differing cell receives a programming pulse, stuck or
            // not — `diff` doubles as the flip mask below)
            if self.faults.is_faulty(pos) {
                // Programming pulse hits a stuck cell: no effect.
                continue;
            }
            let cell = self.cell_of(pos);
            // One programming event per *cell* per write, even when both
            // of an MLC cell's bits change.
            if cell != last_worn_cell {
                self.wear[cell] += 1;
                last_worn_cell = cell;
            }
            if self.wear[cell] > self.endurance[cell] {
                // The whole cell sticks: every bit it backs freezes at its
                // current value.
                for bit in cell * bpc..(cell + 1) * bpc {
                    if !self.faults.is_faulty(bit) {
                        let fault = StuckAt {
                            pos: bit as u16,
                            value: self.stored.bit(bit),
                        };
                        self.faults.insert(fault);
                        // pcm-audit: allow(hotpath-alloc) — pushes only when a cell dies, a once-per-cell event
                        new_faults.push(fault);
                    }
                }
            } else {
                self.stored.flip_bit(pos);
            }
        }
        WriteOutcome {
            flips,
            flip_mask: diff,
            new_faults,
        }
    }

    /// Fast-forwards wear on a cell by `events` programming events without
    /// changing its stored value, returning the fault if it fails.
    ///
    /// The accelerated lifetime engine uses this to skip millions of
    /// identical trace passes.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 512`.
    pub fn add_wear(&mut self, pos: usize, events: u32) -> Option<StuckAt> {
        if self.faults.is_faulty(pos) {
            return None;
        }
        // One cell absorbing `events` can lower the line-wide minimum by
        // at most `events`; shrinking the bound keeps it conservative.
        self.slack = self.slack.saturating_sub(events);
        self.slack_changed.set_bit(pos, true);
        let cell = self.cell_of(pos);
        self.wear[cell] = self.wear[cell].saturating_add(events);
        if self.wear[cell] > self.endurance[cell] {
            self.slack_stale = true;
            let bpc = self.tech.bits_per_cell();
            let mut first = None;
            for bit in cell * bpc..(cell + 1) * bpc {
                if !self.faults.is_faulty(bit) {
                    let fault = StuckAt {
                        pos: bit as u16,
                        value: self.stored.bit(bit),
                    };
                    self.faults.insert(fault);
                    first.get_or_insert(fault);
                }
            }
            first
        } else {
            None
        }
    }

    /// Fast-forwards the rest of a sampled segment in one pass over the
    /// cells its sampled writes flipped.
    ///
    /// The accelerated lifetime engine observes per-bit flip `counts`
    /// over `done` sampled writes, `touched` being the union of their
    /// flip masks (so `counts` is zero outside it), and replays `extra`
    /// further writes in proportion: bit `pos` is charged
    /// `round(counts[pos] * extra / done)` programming events. First,
    /// `extra` is tightened to the earliest write at which a healthy
    /// touched cell is projected to exceed its endurance, so the replay
    /// never overshoots a death: at `c` events per `done` writes, a cell
    /// with `r` events left fails on write `ceil((r + 1) * done / c)`.
    /// Then each healthy touched bit takes its grant, exactly as
    /// [`Self::add_wear`] would position by position in ascending order:
    /// grants that round to 0 and stuck bits are skipped, and a cell
    /// pushed past its endurance sticks at its current stored value. On
    /// SLC one exact slack-bound recomputation at the end replaces the
    /// per-grant decrements: over every healthy cell after a death, else
    /// over the cells whose wear changed since the last one. MLC, whose
    /// bits share cells, keeps the per-bit `add_wear` semantics. Returns
    /// the tightened `extra`, the writes actually replayed.
    ///
    /// # Panics
    ///
    /// Panics if `done` is zero (there is no flip profile to scale).
    #[inline]
    pub fn fast_forward(
        &mut self,
        counts: &[u32; DATA_BITS],
        touched: &Line512,
        done: u64,
        extra: u64,
    ) -> u64 {
        assert!(done > 0, "cannot project wear from zero sampled writes");
        if extra == 0 {
            return 0;
        }
        let live = *touched & !self.faults.positions();
        let slc = self.tech == CellTech::Slc;
        let mut extra = extra;
        for pos in live.iter_ones() {
            let c = counts[pos] as u64;
            if c == 0 {
                continue;
            }
            let cell = if slc { pos } else { self.cell_of(pos) };
            let remaining = self.endurance[cell].saturating_sub(self.wear[cell]);
            // Divide only on strict improvements of the running bound (it
            // is monotone, so that is a handful of divisions per call).
            let scaled_events = (remaining as u64 + 1).saturating_mul(done);
            if scaled_events <= (extra - 1).saturating_mul(c) {
                extra = scaled_events.div_ceil(c);
            }
        }
        // The grant depends only on the flip count `c`, which never
        // exceeds `done` (a write flips a cell at most once), so a small
        // table replaces the per-cell f64 divide for counts up to 64. A
        // failure granted here lands exactly on the tightened boundary;
        // the next sampled write discovers and re-handles it.
        let scale = |c: u32| ((c as u64 * extra) as f64 / done as f64).round() as u32;
        let mut table: [Option<u32>; 65] = [None; 65];
        let mut grant = |c: u32| match table.get_mut(c as usize) {
            Some(slot) => *slot.get_or_insert_with(|| scale(c)),
            None => scale(c),
        };
        let mut died = false;
        for pos in live.iter_ones() {
            let g = grant(counts[pos]);
            if g == 0 {
                continue;
            }
            if !slc {
                // A dying cell freezes its other bit, which `add_wear`
                // then skips.
                let _ = self.add_wear(pos, g);
                continue;
            }
            self.wear[pos] = self.wear[pos].saturating_add(g);
            if self.wear[pos] > self.endurance[pos] {
                died = true;
                self.faults.insert(StuckAt {
                    pos: pos as u16,
                    value: self.stored.bit(pos),
                });
            }
        }
        if slc {
            if died || self.slack_stale {
                self.rescan_slack();
            } else {
                // No cell died since the last computation: a cell whose
                // wear did not change still has at least `slack_min` left,
                // and if every cell at that minimum changed, one of them
                // is now at or below it. So the minimum over the changed
                // cells and `slack_min` is the full rescan's answer.
                let changed = (self.slack_changed | live) & !self.faults.positions();
                let min = simd::min_remaining(&self.wear, &self.endurance, &changed.words());
                self.slack = self.slack_min.min(min);
                self.slack_min = self.slack;
                self.slack_changed = Line512::zero();
            }
        }
        extra
    }

    /// Recomputes the slack bound over every healthy cell.
    fn rescan_slack(&mut self) {
        let healthy = !self.faults.positions();
        self.slack = simd::min_remaining(&self.wear, &self.endurance, &healthy.words());
        self.slack_min = self.slack;
        self.slack_changed = Line512::zero();
        self.slack_stale = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_util::seeded_rng;
    use rand::RngExt;

    #[test]
    fn with_faults_realizes_positions_and_polarity() {
        let faults: FaultMap = [
            StuckAt {
                pos: 0,
                value: true,
            },
            StuckAt {
                pos: 77,
                value: false,
            },
            StuckAt {
                pos: 511,
                value: true,
            },
        ]
        .into_iter()
        .collect();
        let mut line = LineWear::with_faults(&faults);
        assert_eq!(*line.faults(), faults);
        assert!(line.stored().bit(0) && line.stored().bit(511));
        assert!(!line.stored().bit(77));
        // Writing against the stuck values programs but does not change them,
        // and healthy cells have effectively infinite endurance.
        let outcome = line.write(&Line512::zero());
        assert!(outcome.new_faults.is_empty());
        assert!(!line.stored().bit(77));
        assert!(line.stored().bit(0), "stuck-at-1 survives a zero write");
        // Healthy cells were not programmed (the diff only covered the two
        // stuck-at-1 positions), so their endurance budget is untouched.
        assert_eq!(line.remaining(100), u32::MAX);
        assert_eq!(line.remaining(0), 0, "stuck cell has no budget left");
    }

    #[test]
    fn endurance_sampling_matches_model() {
        let model = EnduranceModel::new(1000.0, 0.1);
        let mut rng = seeded_rng(61);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| model.sample_cell(&mut rng) as f64)
            .collect();
        let mean = pcm_util::stats::mean(&samples);
        let sd = pcm_util::stats::std_dev(&samples);
        assert!((mean - 1000.0).abs() < 5.0, "mean {mean}");
        assert!((sd - 100.0).abs() < 5.0, "sd {sd}");
    }

    #[test]
    fn zero_cov_is_deterministic() {
        let model = EnduranceModel::new(50.0, 0.0);
        let mut rng = seeded_rng(62);
        for _ in 0..100 {
            assert_eq!(model.sample_cell(&mut rng), 50);
        }
    }

    #[test]
    fn differential_write_only_programs_diff() {
        let mut line = LineWear::with_endurance(vec![100; 512]);
        let mut target = Line512::zero();
        target.set_byte(0, 0xFF);
        let o1 = line.write(&target);
        assert_eq!(o1.flips, 8);
        // Re-writing identical data programs nothing.
        let o2 = line.write(&target);
        assert_eq!(o2.flips, 0);
        assert_eq!(line.wear_of(0), 1);
        assert_eq!(line.wear_of(8), 0);
    }

    #[test]
    fn cell_sticks_at_old_value_when_exhausted() {
        // Cell 0 endures exactly 2 programming events.
        let mut endurance = vec![1000u32; 512];
        endurance[0] = 2;
        let mut line = LineWear::with_endurance(endurance);
        let mut one = Line512::zero();
        one.set_bit(0, true);
        let zero = Line512::zero();

        assert!(line.write(&one).new_faults.is_empty()); // wear 1
        assert!(line.write(&zero).new_faults.is_empty()); // wear 2
        let outcome = line.write(&one); // wear 3 > 2: fails
        assert_eq!(
            outcome.new_faults,
            vec![StuckAt {
                pos: 0,
                value: false
            }]
        );
        assert!(!line.stored().bit(0), "stuck at old value 0");
        assert_eq!(line.remaining(0), 0);

        // Further writes to the stuck cell change nothing and report no new
        // faults.
        let again = line.write(&one);
        assert_eq!(again.flips, 1);
        assert!(again.new_faults.is_empty());
        assert!(!line.stored().bit(0));
    }

    #[test]
    fn add_wear_fast_forward_matches_write_loop() {
        let mut endurance = vec![u32::MAX; 512];
        endurance[7] = 10;
        let mut by_writes = LineWear::with_endurance(endurance.clone());
        let mut by_ff = LineWear::with_endurance(endurance);

        // Toggle bit 7 ten times: ten programming events, no failure.
        let mut flip = Line512::zero();
        for i in 0..10 {
            flip.set_bit(7, i % 2 == 0);
            assert!(by_writes.write(&flip).new_faults.is_empty());
        }
        assert!(by_ff.add_wear(7, 10).is_none());
        assert_eq!(by_writes.wear_of(7), by_ff.wear_of(7));

        // The 11th event kills the cell in both models.
        flip.set_bit(7, true);
        assert_eq!(by_writes.write(&flip).new_faults.len(), 1);
        assert!(by_ff.add_wear(7, 1).is_some());
    }

    #[test]
    fn faults_respected_on_later_writes() {
        let mut endurance = vec![u32::MAX; 512];
        endurance[100] = 0; // dies on first programming
        let mut line = LineWear::with_endurance(endurance);
        let mut target = Line512::zero();
        target.set_bit(100, true);
        let o = line.write(&target);
        assert_eq!(o.new_faults.len(), 1);
        assert_eq!(line.faults().count(), 1);
        assert_eq!(line.faults().stuck_value(100), Some(false));
    }

    #[test]
    fn mlc_cell_failure_freezes_both_bits() {
        let model = EnduranceModel::new(2.0, 0.0);
        let mut rng = seeded_rng(65);
        let mut line = LineWear::sample_with_tech(&model, CellTech::Mlc2, &mut rng);
        assert_eq!(line.tech(), CellTech::Mlc2);
        // Toggle bit 0 (cell 0) until the cell dies; bit 1 must freeze too.
        let mut flip = Line512::zero();
        flip.set_bit(0, true);
        assert!(line.write(&flip).new_faults.is_empty()); // wear 1
        flip.set_bit(0, false);
        assert!(line.write(&flip).new_faults.is_empty()); // wear 2
        flip.set_bit(0, true);
        let out = line.write(&flip); // wear 3 > 2: cell 0 dies
        assert_eq!(out.new_faults.len(), 2, "both bits of the cell stick");
        assert!(line.faults().is_faulty(0));
        assert!(line.faults().is_faulty(1));
        assert!(!line.faults().is_faulty(2), "cell 1 unaffected");
    }

    #[test]
    fn mlc_double_bit_change_is_one_programming_event() {
        let model = EnduranceModel::new(100.0, 0.0);
        let mut rng = seeded_rng(66);
        let mut line = LineWear::sample_with_tech(&model, CellTech::Mlc2, &mut rng);
        // Flip both bits of cell 0 in one write: one wear event.
        let mut target = Line512::zero();
        target.set_bit(0, true);
        target.set_bit(1, true);
        let out = line.write(&target);
        assert_eq!(out.flips, 2, "two bit flips");
        assert_eq!(line.wear_of(0), 1, "one cell programming event");
        assert_eq!(line.wear_of(1), 1, "same cell");
        assert_eq!(line.wear_of(2), 0);
    }

    #[test]
    fn cell_tech_geometry() {
        assert_eq!(CellTech::Slc.cells_per_line(), 512);
        assert_eq!(CellTech::Mlc2.cells_per_line(), 256);
        assert_eq!(CellTech::Mlc2.default_endurance().mean(), 1e6);
        assert_eq!(CellTech::Mlc2.to_string(), "MLC-2");
    }

    #[test]
    fn mlc_add_wear_maps_bits_to_cells() {
        let model = EnduranceModel::new(10.0, 0.0);
        let mut rng = seeded_rng(67);
        let mut line = LineWear::sample_with_tech(&model, CellTech::Mlc2, &mut rng);
        assert!(line.add_wear(5, 10).is_none()); // cell 2 at its limit
        let fault = line.add_wear(4, 1); // same cell, one more event: dies
        assert!(fault.is_some());
        assert!(line.faults().is_faulty(4));
        assert!(line.faults().is_faulty(5));
    }

    /// The minimum remaining endurance over every healthy cell, computed
    /// afresh.
    fn rescanned(line: &LineWear) -> u32 {
        let healthy = !line.faults.positions();
        simd::min_remaining(&line.wear, &line.endurance, &healthy.words())
    }

    /// The slack bound never exceeds the least budget left in a healthy
    /// cell, and every SLC fast-forward leaves it exactly there, whether
    /// it rescanned all cells (after a death) or only the changed ones.
    #[test]
    fn slack_bound_equals_a_full_rescan_after_every_fast_forward() {
        let mut rng = seeded_rng(68);
        let (mut write_deaths, mut forward_deaths, mut incremental) = (0, 0, 0);
        for _ in 0..48 {
            // Low, spread-out endurance: cells die both under writes and
            // under fast-forwards.
            let model = EnduranceModel::new(40.0, 0.5);
            let mut line = LineWear::sample(&model, &mut rng);
            for _ in 0..120 {
                let before = line.faults.count();
                match rng.random_range(0..8u32) {
                    0..=4 => {
                        // Sparse targets keep most writes on the fast path.
                        let flips = Line512::random(&mut rng) & Line512::random(&mut rng);
                        let target = line.stored() ^ (flips & Line512::random(&mut rng));
                        line.write(&target);
                        write_deaths += (line.faults.count() > before) as u32;
                        assert!(line.slack <= rescanned(&line), "after a write");
                    }
                    5 => {
                        // Half the time at the weakest healthy cell; the
                        // events exhaust the cell, kill it, or are few.
                        let pos = if rng.random_bool(0.5) {
                            (0..DATA_BITS)
                                .filter(|&pos| !line.faults.is_faulty(pos))
                                .min_by_key(|&pos| line.remaining(pos))
                                .unwrap_or(0)
                        } else {
                            rng.random_range(0..DATA_BITS)
                        };
                        let left = line.remaining(pos);
                        let events =
                            [left, left + 1, rng.random_range(0..4)][rng.random_range(0..3usize)];
                        line.add_wear(pos, events);
                        assert!(line.slack <= rescanned(&line), "after add_wear");
                    }
                    _ => {
                        let done = rng.random_range(1..=20u64);
                        let mut counts = [0u32; DATA_BITS];
                        let mut touched = Line512::zero();
                        for _ in 0..rng.random_range(0..96) {
                            let pos = rng.random_range(0..DATA_BITS);
                            counts[pos] = rng.random_range(1..=done as u32);
                            touched.set_bit(pos, true);
                        }
                        // Mostly short spans, so most cells survive them.
                        let extra = if rng.random_bool(0.2) { 60 } else { 4 };
                        let stale = line.slack_stale;
                        line.fast_forward(&counts, &touched, done, rng.random_range(1..=extra));
                        let died = line.faults.count() > before;
                        forward_deaths += died as u32;
                        incremental += (!died && !stale) as u32;
                        assert_eq!(line.slack, rescanned(&line), "after a fast-forward");
                    }
                }
            }
        }
        assert!(
            write_deaths >= 50,
            "only {write_deaths} writes killed a cell"
        );
        assert!(
            forward_deaths >= 50,
            "only {forward_deaths} fast-forwards killed a cell"
        );
        assert!(
            incremental >= 500,
            "only {incremental} bounds came from the changed cells"
        );

        // MLC never arms the bound; it must only stay at or below the
        // minimum remaining budget of any healthy cell.
        let model = EnduranceModel::new(30.0, 0.5);
        let mut line = LineWear::sample_with_tech(&model, CellTech::Mlc2, &mut rng);
        for _ in 0..400 {
            if rng.random_bool(0.7) {
                line.write(&Line512::random(&mut rng));
            } else {
                line.add_wear(rng.random_range(0..DATA_BITS), rng.random_range(0..4));
            }
            let least = (0..DATA_BITS)
                .filter(|&pos| !line.faults.is_faulty(pos))
                .map(|pos| line.remaining(pos))
                .min()
                .unwrap_or(u32::MAX);
            assert!(line.slack <= least, "MLC bound above the minimum");
        }
        assert!(line.faults.count() > 0, "no MLC cell died");
    }
}
