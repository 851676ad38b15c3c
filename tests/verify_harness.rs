//! The deterministic fault-injection + differential verification harness,
//! end to end (DESIGN.md "Verification").
//!
//! The full two-endurance oracle matrix runs in the `verify` stage of
//! `scripts_run_all.sh` (`pcm-verify`); this suite keeps a fast
//! representative slice in the tier-1 tests: the churn matrix over every
//! SystemKind × EccChoice plus a 4-byte window grid, fault-plan
//! realization through the functional stack, resurrection accounting, and
//! a two-endurance oracle sample.

use collab_pcm::core::verify::{
    churn_lines, churn_memory, run_all, run_oracle, ChurnData, OracleConfig, VerifyConfig,
};
use collab_pcm::core::{EccChoice, SystemConfig, SystemKind, WearChoice};
use collab_pcm::trace::SpecApp;
use collab_pcm::util::FaultPlan;

/// Every SystemKind × EccChoice combination survives fault-planned line
/// churn and low-endurance whole-memory churn with all integrity and
/// accounting assertions on.
#[test]
fn churn_matrix_is_green() {
    let cfg = VerifyConfig {
        churn_only: true,
        memory_writes: 2_000,
        ..Default::default()
    };
    let report = run_all(&cfg);
    assert_eq!(
        report.entries.len(),
        24,
        "4 systems x 5 ECC schemes + the step-4 grid + 3 wear schemes"
    );
    assert!(
        report.passed(),
        "failures:\n{}",
        report.failures().join("\n")
    );
}

/// Every registered wear scheme survives whole-memory churn under every
/// system kind, including the death/resurrection bookkeeping.
#[test]
fn wear_matrix_is_green() {
    for wear in WearChoice::ALL {
        for kind in [SystemKind::Comp, SystemKind::CompWF] {
            let sys = SystemConfig::new(kind)
                .with_endurance_mean(300.0)
                .with_wear(wear);
            let stats = churn_memory(&sys, 16, 3_000, 13).unwrap();
            assert!(stats.writes_checked > 1_000, "{kind}/{wear}: {stats:?}");
        }
    }
}

/// A seeded fault plan is realized exactly: position, count, and stuck-at
/// polarity all flow through `ManagedLine::with_faults` into reads.
#[test]
fn fault_plans_realize_position_density_and_polarity() {
    // SA-1 faults force ones into a zero line; SA-0 faults are invisible
    // on a zero line. Either way the ECC must mask them on read-back.
    for sa1 in [0.0, 1.0] {
        let plan = FaultPlan::with_count(99, 5, sa1);
        let sys = SystemConfig::new(SystemKind::CompWF).with_endurance_mean(1e9);
        let stats = churn_lines(&sys, &plan, ChurnData::Mixed, 3, 48, 4).unwrap();
        assert_eq!(
            stats.deaths, 0,
            "5 faults are within ECP-6 capacity (sa1={sa1})"
        );
        assert!(stats.writes_checked >= 3 * 48);
    }
    // Determinism: the same plan yields the same per-line maps.
    let p = FaultPlan::density(7, 0.02, 0.5);
    for line in 0..4 {
        assert_eq!(p.for_line(line), p.for_line(line));
    }
}

/// Dead-block resurrection accounting: only Comp+WF revives lines, and at
/// churn endurance it demonstrably does.
#[test]
fn resurrection_accounting_by_system() {
    let wf = SystemConfig::new(SystemKind::CompWF).with_endurance_mean(60.0);
    let stats = churn_memory(&wf, 16, 12_000, 31).unwrap();
    assert!(
        stats.deaths > 0,
        "churn endurance must kill lines: {stats:?}"
    );
    assert!(
        stats.resurrections > 0,
        "Comp+WF must revive some: {stats:?}"
    );

    for kind in [SystemKind::Baseline, SystemKind::Comp, SystemKind::CompW] {
        let sys = SystemConfig::new(kind).with_endurance_mean(60.0);
        let stats = churn_memory(&sys, 16, 6_000, 31).unwrap();
        assert_eq!(stats.resurrections, 0, "{kind} must never resurrect");
    }
}

/// The differential oracle sample: one sliding and one non-sliding system
/// at both verification endurance settings, non-default ECC and a coarse
/// window grid included.
#[test]
fn oracle_sample_two_endurance_settings() {
    for mean in [250.0, 400.0] {
        for (kind, ecc, step) in [
            (SystemKind::CompWF, EccChoice::Ecp6, 1),
            (SystemKind::Baseline, EccChoice::Safer32, 1),
            (SystemKind::CompWF, EccChoice::Ecp6, 4),
        ] {
            let sys = SystemConfig::new(kind)
                .with_endurance_mean(mean)
                .with_ecc(ecc)
                .with_window_step(step);
            let report = run_oracle(&OracleConfig::new(sys, SpecApp::Milc, 77));
            assert!(report.passed(), "oracle mismatch:\n{}", report.describe());
        }
    }
}
