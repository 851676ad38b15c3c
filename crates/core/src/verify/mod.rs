//! Deterministic fault-injection and differential verification harness.
//!
//! Everything here is reproducible from a single `u64` seed:
//!
//! - [`churn`] drives seeded write/read churn through fault-planned lines
//!   and whole memories, asserting read-after-write integrity, window-slide
//!   correctness, and death/resurrection accounting on every step.
//! - [`oracle`] replays the same seeded workload through the functional
//!   [`PcmMemory`](crate::PcmMemory) and the accelerated lifetime engine
//!   and diffs their statistics under per-statistic tolerances.
//! - [`run_all`] sweeps both checks over every
//!   [`SystemKind`] × hard-error-scheme combination, and Comp+WF/ECP-6 on
//!   a 4-byte window grid, at two endurance settings, then churns every
//!   registered inter-line wear scheme through the whole-memory harness —
//!   the matrix the `pcm-verify` binary (and the `verify` stage of
//!   `scripts_run_all.sh`) runs.
//!
//! Fault plans come from [`pcm_util::FaultPlan`]: position-exact,
//! density-driven, or count-driven stuck-at sets with a chosen SA-0/SA-1
//! polarity mix, derived per line from the plan seed.
//!
//! The harness checks itself: with `--features verify-mutations` the
//! hard-error schemes can be deliberately mis-wired (ECP pointer
//! off-by-one, SAFER partition mis-map) and the mutation tests in this
//! module assert the churn checks *fail* under each corruption.

pub mod churn;
pub mod oracle;

pub use churn::{churn_lines, churn_memory, ChurnData, ChurnError, ChurnStats};
pub use oracle::{run_oracle, OracleConfig, OracleDiff, OracleReport, OracleTolerances, RatioBand};

use crate::system::{EccChoice, SystemConfig, SystemKind, WearChoice};
use pcm_trace::SpecApp;
use pcm_util::FaultPlan;

/// Configuration of the full verification sweep.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Master seed; every sub-check derives its own child seed.
    pub seed: u64,
    /// The two endurance settings the differential oracle runs at.
    pub endurance_means: [f64; 2],
    /// Hard-error schemes to cross with every [`SystemKind`].
    pub eccs: Vec<EccChoice>,
    /// Inter-line wear schemes each given a whole-memory churn pass.
    pub wears: Vec<WearChoice>,
    /// Workload profile for churn and oracle runs.
    pub app: SpecApp,
    /// Fault-planned lines churned per combination.
    pub churn_lines: u64,
    /// Write-backs per churned line.
    pub churn_writes: u32,
    /// Write-backs through each whole-memory churn.
    pub memory_writes: u64,
    /// Skip the (slow) differential oracle, running churn only.
    pub churn_only: bool,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            seed: 0x5EED_F00D,
            endurance_means: [250.0, 400.0],
            eccs: EccChoice::ALL.to_vec(),
            wears: WearChoice::ALL.to_vec(),
            app: SpecApp::Milc,
            churn_lines: 4,
            churn_writes: 96,
            memory_writes: 20_000,
            churn_only: false,
        }
    }
}

/// The outcome of one [`SystemKind`] × [`EccChoice`] × [`WearChoice`] ×
/// window-step combination.
#[derive(Debug, Clone)]
pub struct VerifyEntry {
    /// The system evaluated.
    pub kind: SystemKind,
    /// The hard-error scheme evaluated.
    pub ecc: EccChoice,
    /// The inter-line wear scheme evaluated.
    pub wear: WearChoice,
    /// The window placement granularity in bytes.
    pub window_step: usize,
    /// Combined line + memory churn outcome.
    pub churn: Result<ChurnStats, ChurnError>,
    /// One oracle report per endurance setting.
    pub oracles: Vec<OracleReport>,
}

impl VerifyEntry {
    /// `true` when churn and every oracle run agreed.
    pub fn passed(&self) -> bool {
        self.churn.is_ok() && self.oracles.iter().all(|o| o.passed())
    }
}

/// The outcome of the full sweep.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// One entry per combination, in sweep order.
    pub entries: Vec<VerifyEntry>,
}

impl VerifyReport {
    /// `true` when every combination passed.
    pub fn passed(&self) -> bool {
        self.entries.iter().all(|e| e.passed())
    }

    /// Human-readable descriptions of every failing combination.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for e in &self.entries {
            if let Err(err) = &e.churn {
                out.push(format!(
                    "{} / {} / {} / step {}: churn: {err}",
                    e.kind, e.ecc, e.wear, e.window_step
                ));
            }
            for o in &e.oracles {
                if !o.passed() {
                    out.push(format!("oracle: {}", o.describe()));
                }
            }
        }
        out
    }
}

/// Runs churn (and, unless `churn_only`, the differential oracle) for
/// every [`SystemKind`] × [`EccChoice`] combination in the config, plus
/// Comp+WF/ECP-6 on a 4-byte window grid.
///
/// Returns a [`VerifyReport`] whose [`VerifyEntry`] rows name each
/// combination.
///
/// Determinism: the sweep derives each sub-check's seed from
/// `cfg.seed` and the combination's index, so a single failing
/// combination can be reproduced in isolation with the seed printed in
/// its error message.
pub fn run_all(cfg: &VerifyConfig) -> VerifyReport {
    let mut entries = Vec::new();
    for (ki, kind) in SystemKind::ALL.into_iter().enumerate() {
        for (ei, &ecc) in cfg.eccs.iter().enumerate() {
            let combo_seed = pcm_util::child_seed(cfg.seed, (ki * 16 + ei) as u64);
            let sys = SystemConfig::new(kind).with_ecc(ecc);
            entries.push(check_stack(cfg, sys, combo_seed));
        }
    }
    // A coarse placement grid: the slide, the fallback revert and
    // resurrection must all keep the window on it, in both engines.
    let coarse = SystemConfig::new(SystemKind::CompWF).with_window_step(4);
    entries.push(check_stack(
        cfg,
        coarse,
        pcm_util::child_seed(cfg.seed, 0x57E9_0004),
    ));
    // Wear-scheme sweep: every registered inter-line scheme gets a
    // whole-memory churn pass under the full Comp+WF stack (16 lines → 8
    // power-of-two banks, so Security Refresh's constraint is met). The
    // differential oracle is skipped here: the accelerated engine's
    // per-line write budget assumes Start-Gap's one-spare geometry.
    for (wi, &wear) in cfg.wears.iter().enumerate() {
        let combo_seed = pcm_util::child_seed(cfg.seed, 0x77EA_0000 + wi as u64);
        let msys = SystemConfig::new(SystemKind::CompWF)
            .with_endurance_mean(60.0)
            .with_wear(wear);
        let churn = churn_memory(&msys, 16, cfg.memory_writes, combo_seed);
        entries.push(VerifyEntry {
            kind: SystemKind::CompWF,
            ecc: EccChoice::Ecp6,
            wear,
            window_step: msys.window_step,
            churn,
            oracles: Vec::new(),
        });
    }
    VerifyReport { entries }
}

/// Churns one Start-Gap stack (`sys` names kind, scheme and window step;
/// each check sets its own endurance) and, unless `churn_only`, runs the
/// oracle at both endurance settings.
fn check_stack(cfg: &VerifyConfig, sys: SystemConfig, combo_seed: u64) -> VerifyEntry {
    let kind = sys.kind;
    let lsys = sys.with_endurance_mean(1e9);
    // Plans: a polarity-mixed sparse plan every scheme must absorb,
    // driven by workload-shaped data.
    let plan = FaultPlan::with_count(combo_seed, sparse_fault_budget(sys.ecc), 0.5);
    let churn = churn_lines(
        &lsys,
        &plan,
        ChurnData::Mixed,
        cfg.churn_lines,
        cfg.churn_writes,
        combo_seed,
    )
    .and_then(|line_stats| {
        // Sliding systems additionally face a fault cluster that
        // defeats the preferred offset but not the line, under
        // always-compressible payloads: every write must dodge.
        if kind.slides() {
            let cluster = FaultPlan::with_count(combo_seed ^ 0xC1_05, 16, 0.5);
            churn_lines(
                &lsys,
                &cluster,
                ChurnData::Compressible,
                cfg.churn_lines,
                cfg.churn_writes,
                combo_seed ^ 0x51_1D,
            )
            .map(|s| line_stats.plus(&s))
        } else {
            Ok(line_stats)
        }
    })
    .and_then(|line_stats| {
        // Low enough endurance that lines die (and, under Comp+WF,
        // revive) within the churn budget — the whole point is to
        // exercise the death/resurrection accounting.
        let msys = sys.with_endurance_mean(60.0);
        churn_memory(&msys, 16, cfg.memory_writes, combo_seed ^ 0x4D45_4D00)
            .map(|mem_stats| line_stats.plus(&mem_stats))
    });
    let oracles = if cfg.churn_only {
        Vec::new()
    } else {
        cfg.endurance_means
            .iter()
            .map(|&mean| {
                let osys = sys.with_endurance_mean(mean);
                run_oracle(&OracleConfig::new(osys, cfg.app, combo_seed))
            })
            .collect()
    };
    VerifyEntry {
        kind,
        ecc: sys.ecc,
        wear: sys.wear,
        window_step: sys.window_step,
        churn,
        oracles,
    }
}

/// A stuck-at budget every scheme can absorb in a full-line window:
/// SECDED only guarantees one correctable error per 64-bit word, so it
/// gets a single fault; the dedicated schemes get a handful.
fn sparse_fault_budget(ecc: EccChoice) -> u32 {
    match ecc {
        EccChoice::Secded => 1,
        EccChoice::EcpN(n) => (n as u32).min(4),
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_sweep_all_combinations() {
        let cfg = VerifyConfig {
            churn_only: true,
            memory_writes: 1_500,
            ..Default::default()
        };
        let report = run_all(&cfg);
        assert_eq!(
            report.entries.len(),
            SystemKind::ALL.len() * EccChoice::ALL.len() + 1 + WearChoice::ALL.len(),
            "4 systems x 5 ECC schemes + the step-4 grid + 3 wear schemes"
        );
        assert!(
            report.passed(),
            "failures:\n{}",
            report.failures().join("\n")
        );
        for e in &report.entries {
            let stats = e.churn.as_ref().unwrap();
            assert!(
                stats.writes_checked > 0,
                "{} / {} / {} / step {} exercised nothing",
                e.kind,
                e.ecc,
                e.wear,
                e.window_step
            );
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = VerifyConfig {
            churn_only: true,
            memory_writes: 500,
            ..Default::default()
        };
        let a = run_all(&cfg);
        let b = run_all(&cfg);
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.churn.as_ref().unwrap(), y.churn.as_ref().unwrap());
        }
    }
}

// The harness must be able to detect a mis-wired hard-error scheme, or
// its green runs mean nothing. With `--features verify-mutations` the
// schemes can be deliberately corrupted; these tests assert the churn
// checks catch each corruption.
#[cfg(all(test, feature = "verify-mutations"))]
mod mutation_tests {
    use super::*;
    use pcm_ecc::mutation::{with_mutation, Mutation};

    fn ecp_churn() -> Result<ChurnStats, ChurnError> {
        let sys = SystemConfig::new(SystemKind::Comp).with_endurance_mean(1e9);
        let plan = FaultPlan::with_count(0xEC9, 4, 0.5);
        churn_lines(&sys, &plan, ChurnData::Mixed, 2, 96, 17)
    }

    fn safer_churn() -> Result<ChurnStats, ChurnError> {
        let sys = SystemConfig::new(SystemKind::Comp)
            .with_endurance_mean(1e9)
            .with_ecc(EccChoice::Safer32);
        let plan = FaultPlan::with_count(0x5AF, 4, 0.5);
        churn_lines(&sys, &plan, ChurnData::Mixed, 2, 96, 18)
    }

    #[test]
    fn harness_catches_ecp_pointer_off_by_one() {
        assert!(ecp_churn().is_ok(), "un-mutated churn must be green");
        let res = with_mutation(Mutation::EcpPointerOffByOne, ecp_churn);
        assert!(res.is_err(), "off-by-one ECP pointer must be detected");
    }

    #[test]
    fn harness_catches_safer_partition_mismap() {
        assert!(safer_churn().is_ok(), "un-mutated churn must be green");
        let res = with_mutation(Mutation::SaferPartitionMisMap, safer_churn);
        assert!(res.is_err(), "mis-mapped SAFER partition must be detected");
    }

    #[test]
    fn mutations_do_not_leak_between_scopes() {
        let _ = with_mutation(Mutation::EcpPointerOffByOne, ecp_churn);
        assert!(ecp_churn().is_ok(), "mutation must be scope-local");
    }
}
