//! The accelerated per-line lifetime simulation.

use crate::line::ManagedLine;
use crate::payload::{revivable, store, HostMeta, PayloadBufs};
use crate::system::SystemConfig;
use pcm_trace::{BlockStream, WorkloadProfile};
use pcm_util::{child_seed, seeded_rng, simd, Line512, DATA_BITS, DATA_BYTES};
use serde::{Deserialize, Serialize};

/// Configuration of one accelerated line simulation.
#[derive(Debug, Clone)]
pub struct LineSimConfig {
    /// The system under evaluation.
    pub system: SystemConfig,
    /// The workload whose blocks the line hosts.
    pub profile: WorkloadProfile,
    /// Real writes simulated per segment before fast-forwarding (the
    /// sampling ratio is `sample_writes / segment length`); at least 1.
    pub sample_writes: u32,
    /// Horizon: stop after this many per-line demand writes.
    pub max_writes: u64,
}

impl LineSimConfig {
    /// A configuration with sensible campaign defaults: 16 sampled writes
    /// per segment and a horizon of `120 ×` the mean endurance.
    pub fn new(system: SystemConfig, profile: WorkloadProfile) -> Self {
        let horizon = (system.endurance.mean() * 120.0) as u64;
        LineSimConfig {
            system,
            profile,
            sample_writes: 16,
            max_writes: horizon,
        }
    }
}

/// The life story of one simulated line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineRecord {
    /// Per-line write time of the first uncorrectable failure.
    pub first_death: Option<u64>,
    /// Alternating death/revival timestamps: `events[0]` = first death,
    /// `events[1]` = first revival, … (odd length = still dead at the
    /// horizon).
    pub events: Vec<u64>,
    /// Faulty cells when the line last died (paper Fig. 12), if it died.
    pub faults_at_death: Option<u32>,
    /// Faulty cells at every death event, in order (Fig. 12 averages over
    /// these failure events).
    pub death_fault_counts: Vec<u32>,
    /// Total faulty cells at the end of simulation.
    pub final_faults: u32,
    /// Mean programmed cells per demand write (sampled writes only).
    pub mean_flips_per_write: f64,
    /// Total demand writes simulated (sampled + fast-forwarded); the
    /// work metric behind the `pcm-bench-hotpath` writes/sec throughput.
    pub demand_writes: u64,
    /// Horizon used.
    pub horizon: u64,
}

impl LineRecord {
    /// `true` if the line is dead at per-line write time `t`.
    pub fn dead_at(&self, t: u64) -> bool {
        // events alternate death, revival, death, ...
        let idx = self.events.partition_point(|&e| e <= t);
        idx % 2 == 1
    }
}

/// Reusable per-worker scratch for [`simulate_line_with`]: the payload
/// buffer pair and the event logs are allocated once and shared across
/// every line the worker simulates, so the per-write hot path never
/// touches the heap.
#[derive(Debug, Default)]
pub struct LineScratch {
    bufs: PayloadBufs,
    /// The running line's [`LineRecord::events`]; its record gets a copy
    /// of exactly the logged entries.
    events: Vec<u64>,
    /// The running line's [`LineRecord::death_fault_counts`], likewise.
    death_fault_counts: Vec<u32>,
}

impl LineScratch {
    /// Creates fresh scratch buffers.
    pub fn new() -> Self {
        LineScratch::default()
    }
}

/// Demand writes a line receives between two inter-line wear-leveling
/// relocations of its hosted block (Start-Gap region rotation).
const RESIDENCY_WRITES: u64 = 4096;

/// Simulates one line to its horizon under the accelerated model.
///
/// The line alternates through *residencies* (a hosted block between two
/// inter-line relocations). Each residency is split into segments bounded
/// by intra-line rotations; per segment, `sample_writes` real writes
/// establish the per-cell flip rates, and the rest of the segment is
/// fast-forwarded onto the wear counters.
///
/// # Panics
///
/// As [`simulate_line_with`].
pub fn simulate_line(cfg: &LineSimConfig, seed: u64) -> LineRecord {
    simulate_line_with(cfg, seed, &mut LineScratch::new())
}

/// [`simulate_line`] with caller-owned scratch buffers, reusable across
/// lines (the campaign runner hands each pool worker one [`LineScratch`]).
///
/// # Panics
///
/// Panics if `cfg.sample_writes` is 0: a segment with no sampled write
/// has no flip rates to fast-forward, so the line would never advance.
// pcm-audit: root(hotpath-alloc) — per-line inner loop of the campaign runner; scratch buffers exist so this chain never allocates
pub fn simulate_line_with(cfg: &LineSimConfig, seed: u64, scratch: &mut LineScratch) -> LineRecord {
    assert!(
        cfg.sample_writes >= 1,
        "need at least one sampled write per segment"
    );
    let sys = &cfg.system;
    let mut rng = seeded_rng(child_seed(seed, 0));
    // pcm-audit: allow(hotpath-alloc) — one-time per-line endurance sampling, outside the write loop
    let mut line = ManagedLine::sample_with_tech(&sys.endurance, sys.tech, &mut rng);
    // pcm-audit: allow(hotpath-alloc) — profile clone happens once per residency, amortized over RESIDENCY_WRITES writes
    let mut block = BlockStream::new(cfg.profile.clone(), child_seed(seed, 1));
    let mut meta = HostMeta::default();

    let mut writes: u64 = 0;
    let mut rotation: usize = 0;
    let mut residency_left: u64 = RESIDENCY_WRITES;
    let mut block_counter: u64 = 2;

    // Death/revival events only happen at residency boundaries (a dead
    // line waits for the next relocation), so the horizon bounds how many
    // can occur; reserving that much in the worker's scratch replaces
    // regrowth in the loop, and after the first line it allocates nothing.
    let max_events = if sys.kind.slides() {
        ((cfg.max_writes / RESIDENCY_WRITES).min(512) as usize + 1) * 2
    } else {
        1
    };
    let LineScratch {
        bufs,
        events,
        death_fault_counts,
    } = scratch;
    events.clear();
    events.reserve(max_events);
    death_fault_counts.clear();
    death_fault_counts.reserve(max_events / 2 + 1);
    let mut first_death = None;
    let mut faults_at_death = None;
    let mut flip_sum: u64 = 0;
    let mut sampled: u64 = 0;

    let rotation_period = if sys.kind.rotates() {
        sys.rotation_period
    } else {
        u64::MAX
    };

    while writes < cfg.max_writes {
        if line.is_dead() {
            // Dead lines receive no traffic until the next relocation
            // offers a fresh block (and, for Comp+WF, a resurrection
            // check). Other systems never revive: finish early.
            if !sys.kind.slides() {
                break;
            }
            writes += residency_left;
            if writes >= cfg.max_writes {
                break;
            }
            // pcm-audit: allow(hotpath-alloc) — per-residency block refresh, amortized over RESIDENCY_WRITES writes
            block = BlockStream::new(cfg.profile.clone(), child_seed(seed, block_counter));
            block_counter += 1;
            meta = HostMeta::default();
            residency_left = RESIDENCY_WRITES;
            // Resurrection check against the incoming block.
            if revivable(&mut line, sys, &block.current(), rotation, bufs) {
                line.revive();
                // pcm-audit: allow(hotpath-alloc) — stays within the reservation made at entry
                events.push(writes);
            }
            continue;
        }

        // Segment length: bounded by the rotation boundary, the residency,
        // and the horizon.
        let to_rotation = if rotation_period == u64::MAX {
            u64::MAX
        } else {
            rotation_period - (writes % rotation_period)
        };
        let seg = residency_left
            .min(to_rotation)
            .min(cfg.max_writes - writes)
            .max(1);
        let k = (cfg.sample_writes as u64).min(seg);

        // Real writes: establish the flip pattern of this segment. Each
        // flip mask adds one to the count of every cell it programs; the
        // masks' union names the cells the fast-forward visits.
        let mut counts = [0u32; DATA_BITS];
        let mut touched = Line512::zero();
        let mut done: u64 = 0;
        let mut died = false;
        for _ in 0..k {
            let data = block.next_data();
            done += 1;
            match store(&mut line, sys, meta, &data, rotation, bufs) {
                Ok(s) => {
                    flip_sum += s.report.flips as u64;
                    sampled += 1;
                    simd::mask_accumulate(&mut counts, &s.report.flip_mask.words());
                    touched = touched | s.report.flip_mask;
                    meta = s.meta;
                }
                Err(_) => {
                    died = true;
                    break;
                }
            }
        }
        writes += done;
        residency_left = residency_left.saturating_sub(done);

        if died {
            if first_death.is_none() {
                first_death = Some(writes);
            }
            faults_at_death = Some(line.faults().count());
            // pcm-audit: allow(hotpath-alloc) — stays within the reservation made at entry
            death_fault_counts.push(line.faults().count());
            // pcm-audit: allow(hotpath-alloc) — stays within the reservation made at entry
            events.push(writes);
            continue;
        }

        // Fast-forward the rest of the segment analytically, stopping at
        // the first projected cell failure so fault counts at death stay
        // write-accurate (no multi-fault overshoot within a segment).
        let extra = seg - done;
        if extra > 0 {
            let extra = line.fast_forward(&counts, &touched, done, extra);
            writes += extra;
            residency_left = residency_left.saturating_sub(extra);
        }

        // Rotation boundary?
        if sys.kind.rotates() && writes % rotation_period == 0 {
            rotation = (rotation + 1) % DATA_BYTES;
        }

        // Relocation: a fresh block arrives.
        if residency_left == 0 {
            // pcm-audit: allow(hotpath-alloc) — per-residency block refresh, amortized over RESIDENCY_WRITES writes
            block = BlockStream::new(cfg.profile.clone(), child_seed(seed, block_counter));
            block_counter += 1;
            meta = HostMeta::default();
            residency_left = RESIDENCY_WRITES;
        }
    }

    LineRecord {
        first_death,
        events: events.to_vec(),
        faults_at_death,
        death_fault_counts: death_fault_counts.to_vec(),
        final_faults: line.faults().count(),
        mean_flips_per_write: if sampled > 0 {
            flip_sum as f64 / sampled as f64
        } else {
            0.0
        },
        demand_writes: writes,
        horizon: cfg.max_writes,
    }
}

/// Simulates one batch of lines (at most [`pcm_util::BATCH_LANES`] seeds)
/// through a shared scratch, returning records in seed order.
///
/// Campaigns do not use it (each of their lines is its own pool job); it
/// is the unit the benchmarks time. Record `i` is exactly
/// `simulate_line_with(cfg, seeds[i], ..)`.
///
/// # Panics
///
/// Panics if more than [`pcm_util::BATCH_LANES`] seeds are passed, or as
/// [`simulate_line_with`].
pub fn simulate_line_batch(
    cfg: &LineSimConfig,
    seeds: &[u64],
    scratch: &mut LineScratch,
) -> Vec<LineRecord> {
    assert!(
        seeds.len() <= pcm_util::BATCH_LANES,
        "a batch holds at most {} lines, got {}",
        pcm_util::BATCH_LANES,
        seeds.len()
    );
    seeds
        .iter()
        .map(|&seed| simulate_line_with(cfg, seed, scratch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemKind;
    use pcm_trace::SpecApp;

    fn quick_cfg(kind: SystemKind, mean: f64, app: SpecApp) -> LineSimConfig {
        let system = SystemConfig::new(kind).with_endurance_mean(mean);
        let mut cfg = LineSimConfig::new(system, app.profile());
        cfg.sample_writes = 8;
        cfg
    }

    #[test]
    fn baseline_line_dies_within_expected_scale() {
        // Random-ish content flips each cell ~every other write, so a
        // baseline line should die within a few multiples of endurance.
        let cfg = quick_cfg(SystemKind::Baseline, 2_000.0, SpecApp::Lbm);
        let rec = simulate_line(&cfg, 5);
        let death = rec.first_death.expect("baseline line must die");
        assert!(death > 1_000, "death {death} suspiciously early");
        assert!(death < 60_000, "death {death} suspiciously late");
        assert!(rec.final_faults >= 7, "ECP-6 exhaustion requires 7+ faults");
    }

    #[test]
    fn compwf_outlives_baseline_on_compressible_workload() {
        let base = simulate_line(&quick_cfg(SystemKind::Baseline, 2_000.0, SpecApp::Milc), 9);
        let wf = simulate_line(&quick_cfg(SystemKind::CompWF, 2_000.0, SpecApp::Milc), 9);
        let bd = base.first_death.expect("baseline dies");
        match wf.first_death {
            None => {} // outlived the horizon entirely
            Some(wd) => assert!(
                wd > bd * 2,
                "Comp+WF first death {wd} should far exceed baseline {bd}"
            ),
        }
    }

    #[test]
    fn dead_at_tracks_events() {
        let rec = LineRecord {
            first_death: Some(100),
            events: vec![100, 200, 300],
            faults_at_death: Some(9),
            death_fault_counts: vec![9, 9],
            final_faults: 9,
            mean_flips_per_write: 10.0,
            demand_writes: 1000,
            horizon: 1000,
        };
        assert!(!rec.dead_at(50));
        assert!(rec.dead_at(150));
        assert!(!rec.dead_at(250));
        assert!(rec.dead_at(400));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = quick_cfg(SystemKind::CompW, 1_000.0, SpecApp::Gcc);
        let a = simulate_line(&cfg, 77);
        let b = simulate_line(&cfg, 77);
        assert_eq!(a, b);
    }

    #[test]
    fn compwf_records_revivals_on_highly_compressible_workload() {
        // With sjeng (tiny payloads) a dead line should usually revive.
        let mut cfg = quick_cfg(SystemKind::CompWF, 500.0, SpecApp::Sjeng);
        cfg.max_writes = 2_000_000;
        let rec = simulate_line(&cfg, 3);
        if rec.events.len() >= 2 {
            assert!(rec.events.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "at least one sampled write")]
    fn zero_sampled_writes_is_refused() {
        // With no sampled write a segment never advances the line, so the
        // simulation would spin forever instead of reaching its horizon.
        let mut cfg = quick_cfg(SystemKind::Baseline, 100.0, SpecApp::Milc);
        cfg.sample_writes = 0;
        simulate_line(&cfg, 1);
    }
}
