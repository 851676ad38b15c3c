//! Write/read churn under planned fault injection.
//!
//! Three layers of checking, all deterministic from `(plan, seed)`:
//!
//! 1. **Line churn** — a [`ManagedLine`] seeded with a [`FaultPlan`]'s
//!    exact faults serves a stream of compressible/random write-backs
//!    through the controller's storage step (`payload::store`: BEST,
//!    the Fig. 8 heuristic and its fallback revert, window placement);
//!    every write is immediately read back through the full
//!    decode/decompress path and compared bit-for-bit.
//! 2. **Window-slide correctness** — whenever a write lands away from its
//!    preferred offset (`slid`), the harness additionally asserts the
//!    slide was *necessary* (the preferred grid offset really could not
//!    host the payload) and still landed on the window-step grid.
//! 3. **Memory churn** — a whole [`PcmMemory`] under low endurance runs a
//!    random write stream against a shadow model; read-after-write
//!    integrity, grid placement, dead-line read behavior, and resurrection
//!    accounting (`resurrections`/`deaths` statistics vs. observed
//!    transitions) are checked at every step.

use crate::controller::{PcmMemory, WriteError};
use crate::line::ManagedLine;
use crate::payload::{preferred_offset, store, HostMeta, PayloadBufs};
use crate::system::SystemConfig;
use pcm_compress::{decompress, CompressedWrite};
use pcm_trace::BlockStream;
use pcm_util::{child_seed, seeded_rng, FaultPlan, Line512, DATA_BYTES};
use rand::{Rng, RngExt};

/// What write-back payloads a line churn feeds the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnData {
    /// Workload-shaped blocks interleaved with fully random (usually
    /// incompressible) lines — the realistic default. Incompressible
    /// payloads need the whole 512-cell window, so dense fault plans can
    /// legitimately kill lines even under sliding systems.
    Mixed,
    /// Only payloads that BDI-compress to a sub-line window, so a sliding
    /// system must always be able to dodge a planned fault cluster.
    Compressible,
}

/// A base-8 delta-1 pattern: always compresses to a 16-byte window.
fn compressible_line<R: Rng + ?Sized>(rng: &mut R) -> Line512 {
    let base: u64 = rng.random();
    let mut bytes = [0u8; 64];
    for w in 0..8 {
        let v = base.wrapping_add(rng.random_range(0..128u64));
        bytes[w * 8..w * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }
    Line512::from_bytes(&bytes)
}

/// What one churn run did (all counters are assertions' witnesses: a run
/// that exercised nothing proves nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Successful line writes checked by read-after-write.
    pub writes_checked: u64,
    /// Writes that slid away from the preferred offset.
    pub slides: u64,
    /// Writes that survived at least one verify-retry.
    pub retries: u64,
    /// Dead-line write rejections observed.
    pub deaths: u64,
    /// Lines revived by resurrection (memory churn).
    pub resurrections: u64,
}

impl ChurnStats {
    /// The counters of two churn runs added together.
    pub(crate) fn plus(&self, other: &ChurnStats) -> ChurnStats {
        ChurnStats {
            writes_checked: self.writes_checked + other.writes_checked,
            slides: self.slides + other.slides,
            retries: self.retries + other.retries,
            deaths: self.deaths + other.deaths,
            resurrections: self.resurrections + other.resurrections,
        }
    }
}

/// A churn failure: what diverged, where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnError {
    /// Human-readable description with reproduction coordinates.
    pub message: String,
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ChurnError {}

macro_rules! churn_check {
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(ChurnError { message: format!($($fmt)+) });
        }
    };
}

/// Churns `lines` fault-planned [`ManagedLine`]s with `writes` write-backs
/// each, checking read-after-write integrity and window-slide correctness
/// on every write.
///
/// # Errors
///
/// Returns [`ChurnStats`] on agreement and the first divergence as a
/// [`ChurnError`] naming the line, write index, and seed.
pub fn churn_lines(
    sys: &SystemConfig,
    plan: &FaultPlan,
    data_mix: ChurnData,
    lines: u64,
    writes: u32,
    seed: u64,
) -> Result<ChurnStats, ChurnError> {
    let mut bufs = PayloadBufs::new();
    let mut stats = ChurnStats::default();
    for line_idx in 0..lines {
        let faults = plan.for_line(line_idx);
        let mut line = ManagedLine::with_faults(&faults);
        let mut block = BlockStream::new(
            pcm_trace::SpecApp::Milc.profile(),
            child_seed(seed, line_idx),
        );
        let mut rng = seeded_rng(child_seed(seed ^ 0x5EED, line_idx));
        let mut meta = HostMeta::default();
        for w in 0..writes {
            let data = match data_mix {
                ChurnData::Compressible => compressible_line(&mut rng),
                ChurnData::Mixed if w % 3 == 0 => Line512::random(&mut rng),
                ChurnData::Mixed => block.next_data(),
            };
            let rotation = (w as usize * 7) % DATA_BYTES;
            let stored = match store(&mut line, sys, meta, &data, rotation, &mut bufs) {
                Ok(s) => s,
                Err(_) => {
                    // The plan may be dense enough to kill the line. The
                    // death must be honest: a dead line must refuse reads.
                    stats.deaths += 1;
                    churn_check!(
                        line.read(sys.ecc).is_none(),
                        "line {line_idx} ({}, {}): dead line still serves reads (seed {seed})",
                        sys.kind,
                        sys.ecc
                    );
                    break;
                }
            };
            let (report, method, bytes) = (stored.report, stored.method, stored.bytes);
            meta = stored.meta;

            // Read-after-write: full decode + decompress round trip.
            let (r_method, r_bytes) = line.read(sys.ecc).ok_or_else(|| ChurnError {
                message: format!(
                    "line {line_idx} write {w} ({}, {}): valid line returned no data (seed {seed})",
                    sys.kind, sys.ecc
                ),
            })?;
            churn_check!(
                r_method == method && r_bytes == bytes,
                "line {line_idx} write {w} ({}, {}): read-after-write mismatch \
                 (method {method:?} -> {r_method:?}, seed {seed}, faults {})",
                sys.kind,
                sys.ecc,
                faults.count()
            );
            let back = decompress(
                &CompressedWrite::from_parts(r_method, r_bytes).map_err(|e| ChurnError {
                    message: format!(
                        "line {line_idx} write {w} ({}, {}): stored payload invalid: {e} (seed {seed})",
                        sys.kind, sys.ecc
                    ),
                })?,
            );
            churn_check!(
                back == data,
                "line {line_idx} write {w} ({}, {}): decompressed data mismatch (seed {seed})",
                sys.kind,
                sys.ecc
            );

            // Window-slide correctness.
            churn_check!(
                report.offset % sys.window_step == 0,
                "line {line_idx} write {w} ({}): offset {} off the step-{} grid (seed {seed})",
                sys.kind,
                report.offset,
                sys.window_step
            );
            if report.slid {
                churn_check!(
                    sys.kind.slides(),
                    "line {line_idx} write {w} ({}): non-sliding system slid (seed {seed})",
                    sys.kind
                );
                // The slide must have been necessary: the preferred grid
                // offset cannot host this payload against the *current*
                // fault set (faults only grow, so checking now is sound).
                let step = sys.window_step;
                let grid_preferred = preferred_offset(sys, rotation) / step * step;
                churn_check!(
                    line.can_host(sys.ecc, bytes.len(), grid_preferred, false, step)
                        .is_none(),
                    "line {line_idx} write {w} ({}, {}): slid from hostable offset \
                     {grid_preferred} to {} (seed {seed})",
                    sys.kind,
                    sys.ecc,
                    report.offset
                );
                stats.slides += 1;
            }
            if report.attempts > 1 {
                stats.retries += 1;
            }
            stats.writes_checked += 1;
        }
    }
    Ok(stats)
}

/// Churns a whole [`PcmMemory`] against a shadow model: `writes` random
/// write-backs over `logical_lines` lines at churn-scale endurance,
/// checking integrity and resurrection/death accounting after every write.
///
/// # Errors
///
/// Returns the first divergence, naming the step and seed.
pub fn churn_memory(
    sys: &SystemConfig,
    logical_lines: u64,
    writes: u64,
    seed: u64,
) -> Result<ChurnStats, ChurnError> {
    let mut mem = PcmMemory::new(*sys, logical_lines, seed);
    let mut rng = seeded_rng(child_seed(seed, 0xC0FFEE));
    let mut block = BlockStream::new(pcm_trace::SpecApp::Gcc.profile(), child_seed(seed, 7));
    let mut shadow: Vec<Option<Line512>> = vec![None; logical_lines as usize];
    let mut stats = ChurnStats::default();

    for step in 0..writes {
        let l = rng.random_range(0..logical_lines);
        let data = if step % 4 == 0 {
            Line512::random(&mut rng)
        } else {
            block.next_data()
        };
        let before = mem.stats();
        match mem.write(l, data) {
            Ok(report) => {
                churn_check!(
                    report.line.offset % sys.window_step == 0,
                    "step {step} line {l} ({}): offset {} off the step-{} grid (seed {seed})",
                    sys.kind,
                    report.line.offset,
                    sys.window_step
                );
                shadow[l as usize] = Some(data);
                stats.writes_checked += 1;
                stats.slides += report.line.slid as u64;
                stats.retries += (report.line.attempts > 1) as u64;
                match mem.read(l) {
                    Ok(read) => {
                        churn_check!(
                            read == data,
                            "step {step} line {l} ({}, {}): read-after-write mismatch (seed {seed})",
                            sys.kind,
                            sys.ecc
                        );
                    }
                    // A Start-Gap move piggybacked on this write may have
                    // relocated the just-written line onto a dead slot and
                    // parked it — data loss by design, but only when a gap
                    // move actually happened.
                    Err(WriteError::LineDead { .. }) if report.gap_moved => {}
                    Err(e) => {
                        return Err(ChurnError {
                            message: format!(
                                "step {step} ({}, {}): write acknowledged but read failed: {e} (seed {seed})",
                                sys.kind, sys.ecc
                            ),
                        });
                    }
                }
            }
            Err(WriteError::LineDead { .. }) => {
                stats.deaths += 1;
                churn_check!(
                    mem.read(l).is_err(),
                    "step {step} line {l} ({}, {}): failed write but line still reads (seed {seed})",
                    sys.kind,
                    sys.ecc
                );
            }
            Err(e) => {
                return Err(ChurnError {
                    message: format!("step {step}: unexpected write error {e} (seed {seed})"),
                });
            }
        }
        let after = mem.stats();

        // Resurrection accounting: only Comp+WF revives, never more than
        // once per write, and a revival implies this write succeeded into
        // a previously-dead line.
        let revived = after.resurrections - before.resurrections;
        if revived > 0 {
            churn_check!(
                sys.kind.slides(),
                "step {step} ({}): resurrection on a non-sliding system (seed {seed})",
                sys.kind
            );
            stats.resurrections += revived;
        }
        churn_check!(
            after.deaths >= before.deaths,
            "step {step}: death counter went backwards (seed {seed})"
        );

        // Spot-check a few shadowed lines every 64 steps (full sweeps at
        // every step would dominate runtime).
        if step % 64 == 63 {
            for (i, expect) in shadow.iter().enumerate() {
                let Some(expect) = expect else { continue };
                match mem.read(i as u64) {
                    Ok(got) => {
                        churn_check!(
                            got == *expect,
                            "step {step} sweep line {i} ({}, {}): stored data corrupted (seed {seed})",
                            sys.kind,
                            sys.ecc
                        );
                    }
                    // A line may be legitimately lost to a failed write or
                    // relocation since its last successful write.
                    Err(WriteError::LineDead { .. }) => {}
                    Err(e) => {
                        return Err(ChurnError {
                            message: format!("step {step} sweep line {i}: {e} (seed {seed})"),
                        });
                    }
                }
            }
        }
    }

    let final_stats = mem.stats();
    churn_check!(
        sys.kind.slides() || final_stats.resurrections == 0,
        "({}) non-sliding system reported {} resurrections (seed {seed})",
        sys.kind,
        final_stats.resurrections
    );
    stats.resurrections = final_stats.resurrections;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{EccChoice, SystemKind};
    use pcm_util::StuckAt;

    #[test]
    fn clean_lines_churn_clean() {
        let sys = SystemConfig::new(SystemKind::CompWF).with_endurance_mean(1e9);
        let plan = FaultPlan::exact(vec![]);
        let stats = churn_lines(&sys, &plan, ChurnData::Mixed, 2, 64, 1).unwrap();
        assert_eq!(stats.writes_checked, 128);
        assert_eq!(stats.deaths, 0);
    }

    #[test]
    fn planned_faults_force_slides_and_survive() {
        // A cluster filling bytes 0..2 defeats ECP-6 at offset 0; Comp+WF
        // must slide and still round-trip.
        let sys = SystemConfig::new(SystemKind::CompWF).with_endurance_mean(1e9);
        let faults: Vec<StuckAt> = (0..16)
            .map(|i| StuckAt {
                pos: i,
                value: i % 2 == 0,
            })
            .collect();
        let plan = FaultPlan::exact(faults);
        let stats = churn_lines(&sys, &plan, ChurnData::Compressible, 1, 128, 2).unwrap();
        assert!(
            stats.slides > 0,
            "cluster must force window slides: {stats:?}"
        );
        assert_eq!(stats.deaths, 0);
    }

    #[test]
    fn dense_plans_kill_nonsliding_lines_honestly() {
        let sys = SystemConfig::new(SystemKind::Comp).with_endurance_mean(1e9);
        let plan = FaultPlan::with_count(3, 40, 0.5);
        let stats = churn_lines(&sys, &plan, ChurnData::Mixed, 4, 64, 3).unwrap();
        assert!(
            stats.deaths > 0,
            "40 faults should defeat ECP-6 without sliding"
        );
    }

    #[test]
    fn memory_churn_all_systems() {
        for kind in SystemKind::ALL {
            let sys = SystemConfig::new(kind).with_endurance_mean(400.0);
            let stats = churn_memory(&sys, 16, 4_000, 11).unwrap();
            assert!(stats.writes_checked > 1_000, "{kind}: {stats:?}");
        }
    }

    #[test]
    fn safer_memory_churn() {
        let sys = SystemConfig::new(SystemKind::CompWF)
            .with_endurance_mean(300.0)
            .with_ecc(EccChoice::Safer32);
        churn_memory(&sys, 16, 2_000, 5).unwrap();
    }
}
