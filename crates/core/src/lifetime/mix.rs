//! Multiprogrammed workload mixes.
//!
//! The paper runs the *same* program on all 16 cores (§IV), so every line
//! hosts blocks of one workload. Real consolidated machines interleave
//! programs; under Start-Gap any physical line then hosts blocks from
//! *different* programs over its life. This module extends the campaign to
//! weighted workload mixes, approximately: each simulated line draws one
//! profile from the mix and keeps it for its whole life, every relocation
//! bringing a fresh block of that profile. With many lines the population
//! of lines matches the mix, but no single line alternates between (say)
//! milc's tiny payloads and lbm's incompressible ones.

use super::campaign::{summarize, LifetimeResult};
use super::linesim::{simulate_line, LineRecord, LineSimConfig};
use crate::system::SystemConfig;
use pcm_trace::WorkloadProfile;
use pcm_util::{child_seed, seeded_rng};
use rand::RngExt;

/// A weighted mix of workload profiles.
///
/// # Examples
///
/// ```
/// use pcm_core::lifetime::WorkloadMix;
/// use pcm_trace::SpecApp;
///
/// let mix = WorkloadMix::new(vec![
///     (SpecApp::Milc.profile(), 3.0),
///     (SpecApp::Lbm.profile(), 1.0),
/// ]);
/// assert_eq!(mix.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    entries: Vec<(WorkloadProfile, f64)>,
}

impl WorkloadMix {
    /// Creates a mix from `(profile, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty or any weight is non-positive.
    pub fn new(entries: Vec<(WorkloadProfile, f64)>) -> Self {
        assert!(!entries.is_empty(), "mix needs at least one workload");
        assert!(
            entries.iter().all(|(_, w)| *w > 0.0),
            "weights must be positive"
        );
        WorkloadMix { entries }
    }

    /// Number of constituent workloads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the mix has no entries (construction forbids
    /// it; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The weighted-average WPKI of the mix (for months conversions).
    pub fn wpki(&self) -> f64 {
        let total: f64 = self.entries.iter().map(|(_, w)| w).sum();
        self.entries.iter().map(|(p, w)| p.wpki * w).sum::<f64>() / total
    }

    /// Samples one profile from the mix.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> &WorkloadProfile {
        let total: f64 = self.entries.iter().map(|(_, w)| w).sum();
        let mut u = rng.random::<f64>() * total;
        for (p, w) in &self.entries {
            if u < *w {
                return p;
            }
            u -= w;
        }
        &self.entries[self.entries.len() - 1].0
    }
}

/// Runs a lifetime campaign over a workload mix: each simulated line hosts
/// a profile drawn from the mix.
///
/// This approximates consolidated-machine behaviour where the approximation
/// error is per-residency (a line's profile is fixed for the whole
/// simulation rather than redrawn at each relocation): with many lines the
/// population-level mixture is exact.
///
/// # Panics
///
/// Panics if `lines == 0`.
pub fn run_mixed_campaign(
    system: SystemConfig,
    mix: &WorkloadMix,
    lines: usize,
    sample_writes: u32,
    seed: u64,
) -> LifetimeResult {
    assert!(lines > 0, "need at least one line");
    let mut rng = seeded_rng(child_seed(seed, 0x33));
    let mut cfg = LineSimConfig::new(system, mix.entries[0].0.clone());
    cfg.sample_writes = sample_writes;
    let records: Vec<LineRecord> = (0..lines)
        .map(|i| {
            cfg.profile = mix.sample(&mut rng).clone();
            simulate_line(&cfg, child_seed(seed, i as u64))
        })
        .collect();
    summarize(&records, cfg.max_writes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemKind;
    use pcm_trace::SpecApp;

    fn mix_of(a: SpecApp, b: SpecApp) -> WorkloadMix {
        WorkloadMix::new(vec![(a.profile(), 1.0), (b.profile(), 1.0)])
    }

    #[test]
    fn mixed_campaign_lands_between_pure_campaigns() {
        let system = SystemConfig::new(SystemKind::CompWF).with_endurance_mean(4_000.0);
        let pure = |app: SpecApp| {
            let mix = WorkloadMix::new(vec![(app.profile(), 1.0)]);
            run_mixed_campaign(system, &mix, 24, 8, 5).lifetime_writes()
        };
        let lo_app = pure(SpecApp::Lbm);
        let hi_app = pure(SpecApp::Zeusmp);
        let mixed = run_mixed_campaign(system, &mix_of(SpecApp::Lbm, SpecApp::Zeusmp), 24, 8, 5)
            .lifetime_writes();
        assert!(
            mixed >= lo_app.min(hi_app) && mixed <= hi_app.max(lo_app),
            "mixed {mixed} outside [{lo_app}, {hi_app}]"
        );
    }

    #[test]
    fn wpki_is_weighted() {
        let mix = WorkloadMix::new(vec![
            (SpecApp::Astar.profile(), 1.0), // 1.04
            (SpecApp::Lbm.profile(), 1.0),   // 15.6
        ]);
        assert!((mix.wpki() - (1.04 + 15.6) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_respects_weights() {
        let mix = WorkloadMix::new(vec![
            (SpecApp::Milc.profile(), 9.0),
            (SpecApp::Gcc.profile(), 1.0),
        ]);
        let mut rng = seeded_rng(8);
        let milc = (0..5_000)
            .filter(|_| mix.sample(&mut rng).app == SpecApp::Milc)
            .count();
        let frac = milc as f64 / 5_000.0;
        assert!((frac - 0.9).abs() < 0.03, "milc fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_weight() {
        WorkloadMix::new(vec![(SpecApp::Milc.profile(), 0.0)]);
    }
}
