//! Self-check: `pcm-audit` run over the real workspace with the
//! checked-in `audit-baseline.toml` must come back clean, and the report
//! must not depend on the worker count. This is the library-level twin of
//! the `== audit ==` gate stage in `scripts_run_all.sh`.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn real_workspace_is_clean_under_checked_in_baseline() {
    let root = workspace_root();
    let report = pcm_audit::scan(&root, 2).expect("workspace scan");
    let text = std::fs::read_to_string(root.join("audit-baseline.toml"))
        .expect("checked-in audit-baseline.toml");
    let entries = pcm_audit::baseline::parse(&text).expect("baseline parses");
    let applied = pcm_audit::baseline::apply(report.findings.clone(), &entries);
    assert!(
        applied.visible.is_empty(),
        "unbaselined findings:\n{}",
        applied
            .visible
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        applied.exceeded.is_empty(),
        "baseline groups over their count:\n{:?}",
        applied.exceeded
    );
    // Every pcm-* library crate root forbids `unsafe_code`, so the
    // workspace has no unsafe site to inventory (DESIGN.md §11).
    assert!(
        report.unsafe_inventory.is_empty(),
        "unsafe sites in the workspace: {:?}",
        report.unsafe_inventory
    );
}

#[test]
fn workspace_report_is_byte_identical_across_jobs() {
    let root = workspace_root();
    let mut renders = Vec::new();
    for jobs in [1usize, 4] {
        let report = pcm_audit::scan(&root, jobs).expect("workspace scan");
        let applied = pcm_audit::baseline::apply(report.findings.clone(), &[]);
        renders.push(pcm_audit::render(&report, &applied));
    }
    assert_eq!(renders[0], renders[1], "report depends on --jobs");
}
