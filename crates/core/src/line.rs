//! One physical line under the compression-window controller.
//!
//! [`ManagedLine`] ties every mechanism of the paper together for a single
//! 512-cell line: the compressed payload is placed in a (possibly wrapped)
//! window, the hard-error scheme encodes around the stuck cells inside that
//! window, the differential-write cell model programs only changed cells,
//! and the write-verify step catches cells that die *during* the write and
//! re-encodes (or slides the window) until the payload is stored — or the
//! line is declared dead.

use crate::registry::{self, EccCode};
use crate::system::EccChoice;
use crate::window;
use pcm_compress::Method;
use pcm_device::{CellTech, EnduranceModel, LineWear};
use pcm_util::fault::FaultMap;
use pcm_util::{Line512, DATA_BITS, DATA_BYTES};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The payload handed to a line write: method plus window bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payload<'a> {
    /// How the bytes are encoded.
    pub method: Method,
    /// The bytes that occupy the compression window.
    pub bytes: &'a [u8],
}

/// The report of one successful line write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineWriteReport {
    /// Window start byte actually used.
    pub offset: usize,
    /// Total cells programmed (over all verify-retry attempts).
    pub flips: u32,
    /// Mask of cells programmed by this write (union over attempts).
    pub flip_mask: Line512,
    /// Cells that became stuck during this write.
    pub new_faults: u32,
    /// Encode/program attempts (1 = clean write).
    pub attempts: u32,
    /// `true` when the window had to slide away from the preferred offset
    /// (rounded down to the placement grid).
    pub slid: bool,
}

/// Error returned when a line cannot store the payload: it is (now) dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineDead {
    /// Faulty cells in the line at the time of death.
    pub faults: u32,
}

impl std::fmt::Display for LineDead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line is dead ({} faulty cells)", self.faults)
    }
}

impl std::error::Error for LineDead {}

/// Per-line metadata update counters (paper §III-B: metadata cells wear
/// far slower than data cells because their fields change rarely).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetaUpdateCounts {
    /// Writes served by the line.
    pub writes: u64,
    /// Times the 6-bit start pointer changed (rotation or slide).
    pub start_pointer: u64,
    /// Times the 5-bit encoding field changed (compression method).
    pub encoding: u64,
    /// Times the payload size changed (a proxy for coding-bit churn).
    pub size: u64,
}

/// One physical line: cells, ECC state, and window metadata.
#[derive(Debug, Clone)]
pub struct ManagedLine {
    wear: LineWear,
    code: EccCode,
    method: Method,
    offset: usize,
    size: usize,
    dead: bool,
    valid: bool,
    meta_updates: MetaUpdateCounts,
    placements: PlacementMemo,
}

/// The window probes already answered for the line's current fault set
/// (DESIGN.md §13 "Placement memo"): bit `offset` of word `len - 1`
/// records whether the `len`-byte window at byte `offset` was probed and
/// whether it fits.
///
/// `can_store` is a pure function of the window's fault positions, so the
/// scheme and the fault mask the answers were given under name them
/// exactly. It is also subset-closed, and a line's faults only
/// accumulate: when the mask grows, a window that did not fit still does
/// not, and one that fit still does unless it covers a byte with a new
/// fault. Only those windows are forgotten. Any other change of key
/// empties the memo; an empty memo is valid under any key.
#[derive(Debug, Clone)]
struct PlacementMemo {
    choice: EccChoice,
    faults: Line512,
    probed: [u64; DATA_BYTES],
    fits: [u64; DATA_BYTES],
    /// Probes answered by the scheme rather than the bitmaps.
    #[cfg(test)]
    computed: u64,
}

impl PlacementMemo {
    const EMPTY: PlacementMemo = PlacementMemo {
        choice: EccChoice::Ecp6,
        faults: Line512::zero(),
        probed: [0; DATA_BYTES],
        fits: [0; DATA_BYTES],
        #[cfg(test)]
        computed: 0,
    };

    /// The memo for `choice` over the fault mask `faults`: kept whole
    /// when the key is unchanged, stripped of the fitting windows that
    /// cover a newly faulty byte when `faults` grew, emptied otherwise.
    fn keyed(&mut self, choice: EccChoice, faults: Line512) -> &mut Self {
        if choice != self.choice || !(self.faults & !faults).is_zero() {
            self.probed = [0; DATA_BYTES];
            self.fits = [0; DATA_BYTES];
        } else if faults != self.faults {
            // Bit `b` of `fresh`: byte `b` holds a new fault. The
            // `len`-byte windows covering byte `b` start at
            // `b - len + 1 ..= b` (wrapping), so each length adds one
            // rotation to the cover.
            let fresh = faults & !self.faults;
            let fresh = (0..DATA_BYTES)
                .filter(|&b| fresh.byte(b) != 0)
                .fold(0u64, |m, b| m | 1 << b);
            let mut cover = 0u64;
            for (len, (probed, fits)) in self.probed.iter_mut().zip(&mut self.fits).enumerate() {
                cover |= fresh.rotate_right(len as u32);
                let stale = *fits & cover;
                *probed &= !stale;
                *fits &= !stale;
            }
        }
        self.choice = choice;
        self.faults = faults;
        self
    }

    /// Whether the `len`-byte window at `offset` fits: `probe` answers on
    /// the window's first probe under the current key, the bitmaps after
    /// that.
    fn fits(&mut self, len: usize, offset: usize, probe: impl FnOnce() -> bool) -> bool {
        let (word, bit) = (len - 1, 1u64 << offset);
        if self.probed[word] & bit == 0 {
            self.probed[word] |= bit;
            #[cfg(test)]
            {
                self.computed += 1;
            }
            if probe() {
                self.fits[word] |= bit;
            }
        }
        self.fits[word] & bit != 0
    }
}

impl ManagedLine {
    /// Samples a fresh line with the given cell technology.
    pub fn sample_with_tech<R: Rng + ?Sized>(
        model: &EnduranceModel,
        tech: CellTech,
        rng: &mut R,
    ) -> Self {
        ManagedLine {
            wear: LineWear::sample_with_tech(model, tech, rng),
            code: EccCode::None,
            method: Method::Uncompressed,
            offset: 0,
            size: 0,
            dead: false,
            valid: false,
            meta_updates: MetaUpdateCounts::default(),
            placements: PlacementMemo::EMPTY,
        }
    }

    /// Creates a line with explicit per-cell endurance (tests).
    ///
    /// # Panics
    ///
    /// Panics unless exactly 512 values are given.
    pub fn with_endurance(endurance: Vec<u32>) -> Self {
        ManagedLine {
            wear: LineWear::with_endurance(endurance),
            code: EccCode::None,
            method: Method::Uncompressed,
            offset: 0,
            size: 0,
            dead: false,
            valid: false,
            meta_updates: MetaUpdateCounts::default(),
            placements: PlacementMemo::EMPTY,
        }
    }

    /// Creates a healthy-except-for-`faults` line (infinite endurance
    /// elsewhere); see [`LineWear::with_faults`]. Used by the verification
    /// harness to realize a seeded fault plan exactly.
    pub fn with_faults(faults: &FaultMap) -> Self {
        ManagedLine {
            wear: LineWear::with_faults(faults),
            code: EccCode::None,
            method: Method::Uncompressed,
            offset: 0,
            size: 0,
            dead: false,
            valid: false,
            meta_updates: MetaUpdateCounts::default(),
            placements: PlacementMemo::EMPTY,
        }
    }

    /// The line's stuck-at faults. Faults only accumulate: no write,
    /// wear grant or revival ever removes one.
    pub fn faults(&self) -> &FaultMap {
        self.wear.faults()
    }

    /// `true` once a write has failed and the line was marked dead.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// `true` when the line holds a readable payload.
    pub fn is_valid(&self) -> bool {
        self.valid && !self.dead
    }

    /// Window start byte of the stored payload.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Stored payload size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Storage method of the current payload.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Direct access to the cell wear state.
    pub fn wear(&self) -> &LineWear {
        &self.wear
    }

    /// Metadata-field update counters ([`MetaUpdateCounts`], paper §III-B).
    pub fn meta_updates(&self) -> MetaUpdateCounts {
        self.meta_updates
    }

    /// Fast-forwards the rest of a sampled segment and returns the writes
    /// it replayed; see [`LineWear::fast_forward`].
    pub fn fast_forward(
        &mut self,
        counts: &[u32; DATA_BITS],
        touched: &Line512,
        done: u64,
        extra: u64,
    ) -> u64 {
        self.wear.fast_forward(counts, touched, done, extra)
    }

    /// The offset at which [`write`](Self::write) would place a payload
    /// of `len` bytes under the hard-error scheme `ecc`, or `None` when
    /// the line cannot host that size (the dead-block resurrection check
    /// asks this). Each window probe is answered from the line's placement
    /// memo when this fault set has met it before.
    ///
    /// # Panics
    ///
    /// Panics unless `len` is `1..=64`, `preferred < 64`, and `step` is a
    /// power of two dividing 64.
    pub fn can_host(
        &mut self,
        ecc: EccChoice,
        len: usize,
        preferred: usize,
        slide: bool,
        step: usize,
    ) -> Option<usize> {
        let faults = self.wear.faults().positions();
        let memo = self.placements.keyed(ecc, faults);
        let scheme = registry::ecc_scheme(ecc);
        window::first_fit(len, preferred, slide, step, |offset| {
            memo.fits(len, offset, || {
                scheme.can_store_mask(&(faults & window::window_mask(offset, len)))
            })
        })
    }

    /// Clears the dead flag after a successful resurrection check; the
    /// next write must succeed or the line dies again.
    pub fn revive(&mut self) {
        self.dead = false;
        self.valid = false;
    }

    /// Writes a payload at (or near) `preferred` window offset under the
    /// hard-error scheme `ecc`, placing the window only at multiples of
    /// `step` bytes (`preferred` is rounded down to that grid; see
    /// [`window::find_offset`]).
    ///
    /// `slide = true` enables the Comp+WF fault-dodging search; otherwise
    /// the payload must fit at the grid-rounded `preferred` exactly.
    ///
    /// # Errors
    ///
    /// Returns [`LineDead`] (and marks the line dead) when no feasible
    /// window exists on the grid. The paper's Comp/Comp+W mark the block
    /// permanently dead at this point; Comp+WF may later
    /// [`revive`](Self::revive) it.
    ///
    /// # Panics
    ///
    /// Panics if the payload is empty or exceeds 64 bytes, `preferred >=
    /// 64`, or `step` is not a power of two dividing 64.
    pub fn write(
        &mut self,
        ecc: EccChoice,
        payload: Payload<'_>,
        preferred: usize,
        slide: bool,
        step: usize,
    ) -> Result<LineWriteReport, LineDead> {
        let len = payload.bytes.len();
        let mut report = LineWriteReport {
            offset: preferred,
            flips: 0,
            flip_mask: Line512::zero(),
            new_faults: 0,
            attempts: 0,
            slid: false,
        };
        // Verify-and-retry: each iteration either succeeds or adds at least
        // one newly-stuck cell, so 512 iterations bound the loop.
        loop {
            report.attempts += 1;
            let offset = match self.can_host(ecc, len, preferred, slide, step) {
                Some(o) => o,
                None => {
                    self.dead = true;
                    self.valid = false;
                    return Err(LineDead {
                        faults: self.faults().count(),
                    });
                }
            };
            report.slid |= offset != preferred / step * step;
            report.offset = offset;

            let stored_now = self.wear.stored();
            let target = window::place(&stored_now, offset, payload.bytes);
            // Program only the window cells; everything outside keeps its
            // current physical value (don't-care, zero flips).
            let mask = window::window_mask(offset, len);
            let window_faults = self.faults().masked(mask);
            let (encoded, code) =
                match registry::encode(ecc, &target, &stored_now, &mask, &window_faults) {
                    Ok(v) => v,
                    // can_store passed but the data-dependent encode failed
                    // (cannot happen for the schemes here, as the registry's
                    // `can_store_implies_lossless_encode` property checks;
                    // guarded anyway).
                    Err(_) => {
                        self.dead = true;
                        self.valid = false;
                        return Err(LineDead {
                            faults: self.faults().count(),
                        });
                    }
                };
            let stored_target = (encoded & mask) | (stored_now & !mask);
            let outcome = self.wear.write(&stored_target);
            report.flips += outcome.flips;
            report.flip_mask = report.flip_mask | outcome.flip_mask;
            report.new_faults += outcome.new_faults.len() as u32;

            let fresh_in_window = outcome.new_faults.iter().any(|f| mask.bit(f.pos as usize));
            if !fresh_in_window {
                self.meta_updates.writes += 1;
                if self.valid {
                    self.meta_updates.start_pointer += (self.offset != offset) as u64;
                    self.meta_updates.encoding += (self.method != payload.method) as u64;
                    self.meta_updates.size += (self.size != len) as u64;
                }
                self.code = code;
                self.method = payload.method;
                self.offset = offset;
                self.size = len;
                self.valid = true;
                self.dead = false;
                return Ok(report);
            }
            // A cell died under the write: the stored data is corrupt;
            // re-encode around the enlarged fault set (possibly sliding).
        }
    }

    /// Reads back the stored payload (method + bytes) through the scheme
    /// `ecc` that wrote it, or `None` when the line holds no valid data.
    pub fn read(&self, ecc: EccChoice) -> Option<(Method, Vec<u8>)> {
        if !self.is_valid() {
            return None;
        }
        let corrected = registry::decode(ecc, &self.wear.stored(), &self.code);
        Some((
            self.method,
            window::extract(&corrected, self.offset, self.size),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_compress::{compress_best, decompress, CompressedWrite};
    use pcm_util::seeded_rng;
    use rand::RngExt;

    fn payload_of(c: &CompressedWrite) -> Payload<'_> {
        Payload {
            method: c.method(),
            bytes: c.bytes(),
        }
    }

    #[test]
    fn healthy_line_write_read_round_trip() {
        let mut rng = seeded_rng(111);
        let e = EccChoice::Ecp6;
        let mut line = ManagedLine::with_endurance(vec![u32::MAX; 512]);
        for offset in [0usize, 17, 60] {
            let data = Line512::random(&mut rng);
            let c = compress_best(&data);
            let r = line.write(e, payload_of(&c), offset, false, 1).unwrap();
            assert_eq!(r.offset, offset);
            assert_eq!(r.attempts, 1);
            let (method, bytes) = line.read(e).unwrap();
            let back = decompress(&CompressedWrite::from_parts(method, bytes).unwrap());
            assert_eq!(back, data);
        }
    }

    #[test]
    fn compressed_write_only_touches_window() {
        let e = EccChoice::Ecp6;
        let mut line = ManagedLine::with_endurance(vec![u32::MAX; 512]);
        // First fill the line with ones (uncompressed write).
        let ones = Line512::ones();
        let c0 =
            CompressedWrite::from_parts(Method::Uncompressed, ones.to_bytes().to_vec()).unwrap();
        line.write(e, payload_of(&c0), 0, false, 1).unwrap();
        // Now write a 1-byte zero payload at offset 5.
        let zeros = compress_best(&Line512::zero());
        assert_eq!(zeros.size(), 1);
        let r = line.write(e, payload_of(&zeros), 5, false, 1).unwrap();
        assert_eq!(r.flips, 8, "only the window byte is programmed");
        // Cells outside the window still hold ones.
        assert_eq!(line.wear().stored().byte(4), 0xFF);
        assert_eq!(line.wear().stored().byte(6), 0xFF);
    }

    #[test]
    fn write_survives_faults_within_capacity() {
        let mut rng = seeded_rng(112);
        let e = EccChoice::Ecp6;
        // Six cells with zero endurance die on first touch.
        let mut endurance = vec![u32::MAX; 512];
        for pos in [3usize, 50, 100, 200, 300, 400] {
            endurance[pos] = 0;
        }
        let mut line = ManagedLine::with_endurance(endurance);
        for _ in 0..16 {
            let data = Line512::random(&mut rng);
            let c = compress_best(&data);
            line.write(e, payload_of(&c), 0, false, 1).unwrap();
            let (method, bytes) = line.read(e).unwrap();
            let back = decompress(&CompressedWrite::from_parts(method, bytes).unwrap());
            assert_eq!(back, data, "ECP must mask the stuck cells");
        }
        assert!(line.faults().count() <= 6);
    }

    #[test]
    fn seven_clustered_faults_kill_non_sliding_line() {
        let e = EccChoice::Ecp6;
        let mut endurance = vec![u32::MAX; 512];
        for pos in 0..7 {
            endurance[pos] = 0;
        }
        let mut line = ManagedLine::with_endurance(endurance);
        let data = Line512::ones();
        let c =
            CompressedWrite::from_parts(Method::Uncompressed, data.to_bytes().to_vec()).unwrap();
        let err = line.write(e, payload_of(&c), 0, false, 1).unwrap_err();
        assert_eq!(err.faults, 7);
        assert!(line.is_dead());
        assert!(line.read(e).is_none());
    }

    #[test]
    fn sliding_window_dodges_fault_cluster() {
        let e = EccChoice::Ecp6;
        let mut endurance = vec![u32::MAX; 512];
        for pos in 0..16 {
            endurance[pos] = 0; // all of bytes 0-1 die on first touch
        }
        let mut line = ManagedLine::with_endurance(endurance);
        // A 16-byte compressible payload with slide: must succeed by
        // dodging the dead bytes (possibly after verify-retry).
        let mut narrow = [0u8; 64];
        for i in 0..8 {
            narrow[i * 8] = i as u8;
        }
        let data = Line512::from_bytes(&narrow);
        let c = compress_best(&data);
        assert!(c.size() <= 16);
        let r = line.write(e, payload_of(&c), 0, true, 1).unwrap();
        let (method, bytes) = line.read(e).unwrap();
        let back = decompress(&CompressedWrite::from_parts(method, bytes).unwrap());
        assert_eq!(back, data);
        // After the initial failures the window settles past the cluster.
        assert!(r.slid || r.offset == 0);
        assert!(!line.is_dead());
    }

    #[test]
    fn verify_retry_reencodes_midwrite_failures() {
        let e = EccChoice::Ecp6;
        // Cell 8 survives exactly one programming event, then sticks.
        let mut endurance = vec![u32::MAX; 512];
        endurance[8] = 1;
        let mut line = ManagedLine::with_endurance(endurance);
        // Write all-ones (uncompressed): programs cell 8 once (0 -> 1).
        let ones =
            CompressedWrite::from_parts(Method::Uncompressed, Line512::ones().to_bytes().to_vec())
                .unwrap();
        line.write(e, payload_of(&ones), 0, false, 1).unwrap();
        // Write all-zeros: cell 8's second programming fails; the write
        // must verify-retry and cover it with ECP.
        let zeros =
            CompressedWrite::from_parts(Method::Uncompressed, Line512::zero().to_bytes().to_vec())
                .unwrap();
        let r = line.write(e, payload_of(&zeros), 0, false, 1).unwrap();
        assert!(r.attempts >= 2, "mid-write failure forces a retry");
        assert_eq!(r.new_faults, 1);
        let (method, bytes) = line.read(e).unwrap();
        let back = decompress(&CompressedWrite::from_parts(method, bytes).unwrap());
        assert_eq!(back, Line512::zero());
    }

    #[test]
    fn resurrection_flow() {
        let e = EccChoice::Ecp6;
        let mut endurance = vec![u32::MAX; 512];
        for pos in 0..60 {
            endurance[pos] = 0; // bytes 0..7 mostly dead
        }
        let mut line = ManagedLine::with_endurance(endurance);
        let big =
            CompressedWrite::from_parts(Method::Uncompressed, Line512::ones().to_bytes().to_vec())
                .unwrap();
        assert!(line.write(e, payload_of(&big), 0, true, 1).is_err());
        assert!(line.is_dead());
        // A 1-byte payload fits in the healthy tail: resurrection check.
        let offset = line
            .can_host(e, 1, 0, true, 1)
            .expect("healthy bytes remain");
        line.revive();
        let tiny = compress_best(&Line512::zero());
        line.write(e, payload_of(&tiny), offset, true, 1).unwrap();
        assert!(line.is_valid());
    }

    /// Checks every placement answer of `line` against a fresh search over
    /// its current faults, through each of `choices` in turn.
    fn assert_placements_match_search(line: &mut ManagedLine, choices: &[EccChoice]) {
        let faults = *line.faults();
        let mut buf = [0u16; DATA_BITS];
        for &e in choices {
            let scheme = registry::ecc_scheme(e);
            for step in [1, 2, 8] {
                for len in 1..=DATA_BYTES {
                    for preferred in [0, 13, 42, 63] {
                        let at = (e, faults.count(), step, len, preferred);
                        let slid = window::find_offset(scheme, &faults, len, preferred, step);
                        assert_eq!(
                            line.can_host(e, len, preferred, true, step),
                            slid,
                            "slide {at:?}"
                        );
                        let grid = preferred / step * step;
                        let window = faults.masked(window::window_mask(grid, len)).positions();
                        let fixed = scheme.can_store(window.ones_into(&mut buf)).then_some(grid);
                        assert_eq!(
                            line.can_host(e, len, preferred, false, step),
                            fixed,
                            "fixed {at:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn placement_memo_matches_fresh_search_as_faults_grow() {
        let mut rng = seeded_rng(115);
        // A quarter of the cells die within their first six programmings.
        let endurance = (0..DATA_BITS)
            .map(|_| {
                if rng.random_range(0..4u32) == 0 {
                    rng.random_range(0..6u32)
                } else {
                    u32::MAX
                }
            })
            .collect();
        let mut line = ManagedLine::with_endurance(endurance);
        // Each check starts and ends on the writing scheme: a memo that a
        // write's new faults failed to clear would then answer the next
        // check from the old fault set. The scheme changes in between
        // catch a memo that ignores which scheme filled it.
        let writer = EccChoice::Aegis17x31;
        let choices: Vec<EccChoice> = [writer]
            .into_iter()
            .chain(EccChoice::ALL)
            .chain([EccChoice::EcpN(8), writer])
            .collect();
        // Faults arrive through writes and, every other round, through a
        // fast-forward of the cells a few made-up sampled writes flipped.
        let (mut grown, mut forwarded) = (0, 0);
        for w in 0..16 {
            assert_placements_match_search(&mut line, &choices);
            let before = line.faults().count();
            let bytes: Vec<u8> = (0..4 + (w * 5) % 24).map(|_| rng.random()).collect();
            let payload = Payload {
                method: Method::Uncompressed,
                bytes: &bytes,
            };
            let _ = line.write(writer, payload, (w * 11) % DATA_BYTES, true, 1);
            grown += (line.faults().count() > before) as u32;
            if w % 2 == 1 {
                assert_placements_match_search(&mut line, &choices);
                let before = line.faults().count();
                let done = rng.random_range(1..=8u64);
                let mut counts = [0u32; DATA_BITS];
                let mut touched = Line512::zero();
                for _ in 0..24 {
                    let pos = rng.random_range(0..DATA_BITS);
                    counts[pos] = rng.random_range(1..=done as u32);
                    touched.set_bit(pos, true);
                }
                line.fast_forward(&counts, &touched, done, rng.random_range(1..=12));
                forwarded += (line.faults().count() > before) as u32;
            }
        }
        assert_placements_match_search(&mut line, &choices);
        assert!(grown >= 8, "only {grown} writes added faults");
        assert!(
            forwarded >= 3,
            "only {forwarded} fast-forwards added faults"
        );
    }

    /// Kills the cell at `pos` (endurance 0 and still healthy) through a
    /// fast-forward that charges it one programming event.
    fn kill(line: &mut ManagedLine, pos: usize) {
        let mut counts = [0u32; DATA_BITS];
        counts[pos] = 1;
        let mut touched = Line512::zero();
        touched.set_bit(pos, true);
        line.fast_forward(&counts, &touched, 1, 1);
        assert!(line.faults().is_faulty(pos), "cell {pos} must die");
    }

    #[test]
    fn placement_memo_recomputes_only_fitting_windows_over_a_new_fault() {
        // 32 faults fill bytes 10..14, six more sit alone in bytes 30..50,
        // and the cell at bit 364 (byte 45) dies between two sweeps.
        let cluster = 80..112;
        let scattered = [241usize, 266, 290, 323, 355, 402];
        let victim = 364;
        for choice in [EccChoice::Ecp6, EccChoice::Aegis17x31] {
            let mut endurance = vec![u32::MAX; DATA_BITS];
            for pos in cluster.clone().chain(scattered).chain([victim]) {
                endurance[pos] = 0;
            }
            let mut line = ManagedLine::with_endurance(endurance);
            for pos in cluster.clone().chain(scattered) {
                kill(&mut line, pos);
            }
            let scheme = registry::ecc_scheme(choice);
            // Probes every window once (each as the first probe of its own
            // preferred offset) and checks every answer against a fresh
            // search; returns the probes the scheme had to answer.
            let sweep = |line: &mut ManagedLine| {
                let before = line.placements.computed;
                let faults = *line.faults();
                for len in 1..=DATA_BYTES {
                    for preferred in 0..DATA_BYTES {
                        assert_eq!(
                            line.can_host(choice, len, preferred, true, 1),
                            window::find_offset(scheme, &faults, len, preferred, 1),
                            "{choice} len {len} preferred {preferred}"
                        );
                    }
                }
                line.placements.computed - before
            };
            assert_eq!(sweep(&mut line), (DATA_BYTES * DATA_BYTES) as u64);
            assert_eq!(sweep(&mut line), 0, "{choice}: an unchanged line");
            let faults = line.faults().positions();
            let mut buf = [0u16; DATA_BITS];
            let stale = (1..=DATA_BYTES)
                .flat_map(|len| (0..DATA_BYTES).map(move |offset| (len, offset)))
                .filter(|&(len, offset)| {
                    let mask = window::window_mask(offset, len);
                    mask.bit(victim) && scheme.can_store((faults & mask).ones_into(&mut buf))
                })
                .count() as u64;
            kill(&mut line, victim);
            // Some windows over the victim's byte fit before it died and
            // some did not; only the former are asked again.
            let covering = (DATA_BYTES * (DATA_BYTES + 1) / 2) as u64;
            assert!(stale > 0 && stale < covering, "{choice}: {stale} stale");
            assert_eq!(sweep(&mut line), stale, "{choice}: windows recomputed");
        }
    }

    #[test]
    #[should_panic(expected = "window must be 1..=64 bytes")]
    fn fixed_placement_rejects_empty_payload() {
        ManagedLine::with_endurance(vec![u32::MAX; 512]).can_host(EccChoice::Ecp6, 0, 5, false, 1);
    }

    #[test]
    #[should_panic(expected = "preferred offset must be < 64")]
    fn fixed_placement_rejects_offset_past_line() {
        ManagedLine::with_endurance(vec![u32::MAX; 512]).can_host(EccChoice::Ecp6, 8, 64, false, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fixed_placement_rejects_off_grid_step() {
        ManagedLine::with_endurance(vec![u32::MAX; 512]).can_host(EccChoice::Ecp6, 8, 0, false, 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fixed_placement_rejects_zero_step() {
        ManagedLine::with_endurance(vec![u32::MAX; 512]).can_host(EccChoice::Ecp6, 8, 0, false, 0);
    }

    #[test]
    fn safer_and_aegis_engines_round_trip() {
        let mut rng = seeded_rng(113);
        for choice in [EccChoice::Safer32, EccChoice::Aegis17x31] {
            let e = choice;
            let mut endurance = vec![u32::MAX; 512];
            for pos in [9usize, 120, 333] {
                endurance[pos] = 0;
            }
            let mut line = ManagedLine::with_endurance(endurance);
            for _ in 0..8 {
                let data = Line512::random(&mut rng);
                let c = compress_best(&data);
                line.write(e, payload_of(&c), 0, true, 1).unwrap();
                let (method, bytes) = line.read(e).unwrap();
                let back = decompress(&CompressedWrite::from_parts(method, bytes).unwrap());
                assert_eq!(back, data, "{choice:?}");
            }
        }
    }

    #[test]
    fn coset_engine_round_trips_through_stuck_cells() {
        let mut rng = seeded_rng(114);
        let e = EccChoice::Coset;
        let mut endurance = vec![u32::MAX; 512];
        for pos in [9usize, 120, 333] {
            endurance[pos] = 0;
        }
        let mut line = ManagedLine::with_endurance(endurance);
        for _ in 0..8 {
            let data = Line512::random(&mut rng);
            let c = compress_best(&data);
            line.write(e, payload_of(&c), 0, true, 1).unwrap();
            let (method, bytes) = line.read(e).unwrap();
            let back = decompress(&CompressedWrite::from_parts(method, bytes).unwrap());
            assert_eq!(back, data);
        }
    }

    #[test]
    fn coset_transform_cuts_flips_on_inverting_writes() {
        // Alternating all-ones / all-zeros uncompressed writes: a plain
        // scheme flips all 512 cells every write; coset's tag-7 candidate
        // rewrites the line in place.
        let plain = EccChoice::Ecp6;
        let coset = EccChoice::Coset;
        let mut flips = [0u32; 2];
        for (i, e) in [plain, coset].into_iter().enumerate() {
            let mut line = ManagedLine::with_endurance(vec![u32::MAX; 512]);
            for round in 0..8 {
                let data = if round % 2 == 0 {
                    Line512::ones()
                } else {
                    Line512::zero()
                };
                let c = CompressedWrite::from_parts(Method::Uncompressed, data.to_bytes().to_vec())
                    .unwrap();
                flips[i] += line.write(e, payload_of(&c), 0, false, 1).unwrap().flips;
                let (_, bytes) = line.read(e).unwrap();
                assert_eq!(Line512::from_bytes(&bytes.try_into().unwrap()), data);
            }
        }
        assert!(
            flips[1] < flips[0] / 2,
            "coset ({}) must beat plain ECP ({}) on inverting traffic",
            flips[1],
            flips[0]
        );
    }
}
