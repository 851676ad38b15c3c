//! Lifetime campaigns: Comp+WF over Start-Gap with a chosen hard-error
//! scheme, at `pcm-lab` full scale.

use crate::clock::{fnv64, now, percentile, secs_since};
use crate::report::Report;
use pcm_core::lifetime::campaign::summarize;
use pcm_core::lifetime::{
    run_campaign_on, simulate_line_batch, CampaignConfig, LifetimeResult, LineRecord, LineScratch,
    LineSimConfig,
};
use pcm_core::{EccChoice, SystemConfig, SystemKind};
use pcm_trace::SpecApp;
use pcm_util::{child_seed, Pool, BATCH_LANES};

/// Pool width of every campaign (two workers, so 128 lines give each one
/// whole 64-line batch).
pub const THREADS: usize = 2;

/// Campaign size and fidelity.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Lines per campaign (a multiple of 128).
    pub lines: usize,
    /// Mean cell endurance.
    pub endurance: f64,
    /// Sampled writes per segment.
    pub sample_writes: u32,
}

/// `pcm-lab` full scale: endurance 2e4, 16 sampled writes per segment,
/// 128 lines.
pub const FULL: Scale = Scale {
    lines: 128,
    endurance: 2e4,
    sample_writes: 16,
};

/// A short campaign for the traced runs of workloads that do not simulate
/// lifetimes themselves.
pub const PROBE: Scale = Scale {
    lines: 128,
    endurance: 4e3,
    sample_writes: 8,
};

/// One campaign per app, Comp+WF with `ecc`, seeded from `seed`.
pub fn campaigns(ecc: EccChoice, apps: &[SpecApp], seed: u64, scale: Scale) -> Vec<CampaignConfig> {
    apps.iter()
        .enumerate()
        .map(|(i, app)| {
            let system = SystemConfig::new(SystemKind::CompWF)
                .with_endurance_mean(scale.endurance)
                .with_ecc(ecc);
            let mut line = LineSimConfig::new(system, app.profile());
            line.sample_writes = scale.sample_writes;
            let mut cfg = CampaignConfig::new(line, child_seed(seed, i as u64));
            cfg.lines = scale.lines;
            cfg.threads = THREADS;
            cfg
        })
        .collect()
}

/// Simulated demand writes a set of campaigns covers: every Comp+WF line
/// runs to its horizon.
pub fn horizon_writes(results: &[LifetimeResult]) -> f64 {
    results
        .iter()
        .map(|r| r.lines as f64 * r.horizon as f64)
        .sum()
}

/// Stable digest of campaign results.
pub fn digest(results: &[LifetimeResult]) -> u64 {
    fnv64(format!("{results:?}").as_bytes())
}

/// Structural invariants every campaign result must satisfy.
pub fn plausible(r: &LifetimeResult, cfg: &CampaignConfig) -> bool {
    let frac = |f: f64| (0.0..=1.0).contains(&f);
    r.lines == cfg.lines
        && r.horizon == cfg.line.max_writes
        && frac(r.lines_died)
        && frac(r.lines_revived)
        && r.mean_flips_per_write > 0.0
        && r.writes_to_half_capacity.is_none_or(|t| t <= r.horizon)
        && r.half_capacity_ci.is_some() == r.writes_to_half_capacity.is_some()
}

/// The untraced unit of work: every campaign through `run_campaign_on`.
pub fn run_all(pool: &Pool, cfgs: &[CampaignConfig]) -> Vec<LifetimeResult> {
    cfgs.iter().map(|c| run_campaign_on(pool, c)).collect()
}

/// What the traced rebuild of a campaign measured.
#[derive(Debug, Default)]
pub struct CampaignTrace {
    /// Host seconds of each `simulate_line_batch` call.
    pub batch_s: Vec<f64>,
    /// Host seconds in `summarize`.
    pub summarize_s: f64,
    /// Wall seconds of the pool maps, times the pool width.
    pub capacity_s: f64,
    /// Σ `LineRecord::demand_writes`.
    pub demand_writes: u64,
    /// Death events.
    pub deaths: u64,
    /// Revival events.
    pub revivals: u64,
    /// Σ faulty cells over every death event.
    pub faults_at_death: u64,
}

/// `run_campaign_on` rebuilt from its public parts — `Pool`,
/// `simulate_line_batch` and `summarize` — with a timer around each part.
/// Its result must equal `run_campaign_on`'s.
pub fn rebuilt_campaign(
    pool: &Pool,
    cfg: &CampaignConfig,
    trace: &mut CampaignTrace,
) -> LifetimeResult {
    let batches = cfg.lines.div_ceil(BATCH_LANES);
    let start = now();
    let timed: Vec<(Vec<LineRecord>, f64)> =
        pool.map_indexed_with(batches, 1, LineScratch::new, |scratch, b| {
            let lo = b * BATCH_LANES;
            let hi = (lo + BATCH_LANES).min(cfg.lines);
            let seeds: Vec<u64> = (lo..hi).map(|i| child_seed(cfg.seed, i as u64)).collect();
            let t = now();
            let records = simulate_line_batch(&cfg.line, &seeds, scratch);
            (records, secs_since(t))
        });
    trace.capacity_s += secs_since(start) * pool.threads().min(batches) as f64;
    let mut records = Vec::with_capacity(cfg.lines);
    for (batch, secs) in timed {
        trace.batch_s.push(secs);
        records.extend(batch);
    }
    for r in &records {
        trace.demand_writes += r.demand_writes;
        trace.deaths += r.death_fault_counts.len() as u64;
        trace.revivals += (r.events.len() / 2) as u64;
        trace.faults_at_death += r
            .death_fault_counts
            .iter()
            .map(|&f| u64::from(f))
            .sum::<u64>();
    }
    let t = now();
    let result = summarize(&records, cfg.line.max_writes);
    trace.summarize_s += secs_since(t);
    result
}

/// The traced lifetime layers: rebuilds every campaign, checks each
/// against `reference` (the untraced results of the same configs), and
/// records the `pool.*`, `lifetime.*` and `device.*` metrics. Returns the
/// traced wall seconds.
pub fn traced(
    pool: &Pool,
    cfgs: &[CampaignConfig],
    reference: &[LifetimeResult],
    report: &mut Report,
) -> f64 {
    let mut trace = CampaignTrace::default();
    let start = now();
    let rebuilt: Vec<LifetimeResult> = cfgs
        .iter()
        .map(|c| rebuilt_campaign(pool, c, &mut trace))
        .collect();
    let wall = secs_since(start);
    for (i, (got, want)) in rebuilt.iter().zip(reference).enumerate() {
        report.check(got == want, || {
            format!("rebuilt campaign {i} differs from run_campaign_on: {got:?} vs {want:?}")
        });
    }
    let busy: f64 = trace.batch_s.iter().sum();
    report.metric("pool.busy_s", busy, "s");
    report.metric("pool.idle_frac", 1.0 - busy / trace.capacity_s, "frac");
    report.metric("pool.jobs", trace.batch_s.len() as f64, "count");
    report.metric("lifetime.batch_s_p50", percentile(&trace.batch_s, 0.5), "s");
    report.metric("lifetime.batch_s_max", percentile(&trace.batch_s, 1.0), "s");
    report.metric("lifetime.summarize_s", trace.summarize_s, "s");
    report.metric(
        "lifetime.demand_writes",
        trace.demand_writes as f64,
        "count",
    );
    report.metric("lifetime.deaths", trace.deaths as f64, "count");
    report.metric("lifetime.revivals", trace.revivals as f64, "count");
    report.metric(
        "lifetime.faults_at_death",
        trace.faults_at_death as f64,
        "count",
    );
    let flips: f64 =
        rebuilt.iter().map(|r| r.mean_flips_per_write).sum::<f64>() / rebuilt.len() as f64;
    report.metric("device.flips_per_write", flips, "cells");
    wall
}
