//! Fixture-pair coverage: the `dirty` mini-workspace must trip every rule
//! id in the table, the `clean` near-miss workspace must report nothing,
//! and the rendered report must be byte-identical across runs and `--jobs`.
//!
//! Fixture sources are lexed by the scanner, never compiled — they live
//! under `tests/fixtures/`, which is not a cargo target directory and is
//! skipped by the real-workspace walk.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn rendered(root: &Path, jobs: usize) -> String {
    let report = pcm_audit::scan(root, jobs).expect("fixture scan");
    let applied = pcm_audit::baseline::apply(report.findings.clone(), &[]);
    pcm_audit::render(&report, &applied)
}

#[test]
fn dirty_fixture_trips_every_rule() {
    let report = pcm_audit::scan(&fixture("dirty"), 1).expect("fixture scan");
    let fired: BTreeSet<&str> = report.findings.iter().map(|f| f.rule).collect();
    for rule in pcm_audit::RULES {
        assert!(
            fired.contains(rule.id),
            "rule `{}` did not fire on the dirty fixture; findings:\n{:#?}",
            rule.id,
            report.findings
        );
    }
}

#[test]
fn dirty_fixture_specific_sites() {
    let report = pcm_audit::scan(&fixture("dirty"), 1).expect("fixture scan");
    let has = |rule: &str, file: &str, needle: &str| {
        report
            .findings
            .iter()
            .any(|f| f.rule == rule && f.file == file && f.message.contains(needle))
    };
    let lib = "crates/core/src/lib.rs";
    assert!(has("wallclock", lib, "Instant::now"));
    assert!(has("wallclock", lib, "SystemTime"));
    assert!(has("map-order", lib, "HashMap"));
    assert!(has("rng-source", lib, "seed_from_u64"));
    assert!(has("thread-spawn", lib, "`thread::scope`"));
    assert!(has("thread-spawn", lib, "`thread::spawn`"));
    assert!(has("pragma", lib, "made-up-rule"));
    assert!(has("pragma", lib, "needs a reason"));
    // Malformed pragmas suppress nothing: the annotated sites still fire.
    assert!(has("panic-unwrap", lib, "bare unwrap()"));
    assert!(has("panic-macro", lib, "`panic!`"));
    assert!(has("unsafe-block", lib, "SAFETY"));
    assert!(has("serve-ownership", lib, "`Arc<Mutex>`"));
    assert!(has("serve-ownership", lib, "`Arc<RwLock>`"));
    assert!(has("registry-dep", "Cargo.toml", "`serde`"));
    assert!(has("registry-dep", "Cargo.toml", "`rand`"));
    assert!(has("gate-stages", "scripts_run_all.sh", "== audit =="));
    assert!(has("gate-stages", "scripts_run_all.sh", "pcm-audit"));
    // artifact-sync, all four directions.
    assert!(has("artifact-sync", "results/fig_fake.json", "no tracked"));
    assert!(has(
        "artifact-sync",
        "EXPERIMENTS.md",
        "no EXPERIMENTS.md row"
    ));
    assert!(has(
        "artifact-sync",
        "results/stray_artifact.json",
        "matches no"
    ));
    assert!(has("artifact-sync", "EXPERIMENTS.md", "`ghost_study`"));
}

#[test]
fn clean_fixture_reports_nothing() {
    let report = pcm_audit::scan(&fixture("clean"), 1).expect("fixture scan");
    assert!(
        report.findings.is_empty(),
        "near-miss fixture produced findings:\n{:#?}",
        report.findings
    );
    // The SAFETY-commented unsafe site lands in the inventory, not a finding.
    assert_eq!(
        report.unsafe_inventory.len(),
        1,
        "inventory: {:?}",
        report.unsafe_inventory
    );
    assert!(report.unsafe_inventory[0].starts_with("crates/util/src/simd.rs:"));
}

#[test]
fn reports_are_byte_identical_across_runs_and_jobs() {
    for root in [fixture("dirty"), fixture("clean")] {
        let baseline_run = rendered(&root, 1);
        assert_eq!(baseline_run, rendered(&root, 1), "{}", root.display());
        for jobs in [2, 4, 7] {
            assert_eq!(
                baseline_run,
                rendered(&root, jobs),
                "{} differs at --jobs {jobs}",
                root.display()
            );
        }
    }
}
