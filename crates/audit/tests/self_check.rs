//! Self-check: `pcm-audit` run over the real workspace must come back
//! clean, and the report must not depend on the worker count. This is the
//! library-level twin of the `== audit ==` gate stage in
//! `scripts_run_all.sh`.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn real_workspace_is_clean() {
    let report = pcm_audit::scan(&workspace_root(), 2).expect("workspace scan");
    assert!(
        report.findings.is_empty(),
        "findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_report_is_byte_identical_across_jobs() {
    let root = workspace_root();
    let renders: Vec<String> = [1usize, 4]
        .iter()
        .map(|&jobs| pcm_audit::render(&pcm_audit::scan(&root, jobs).expect("workspace scan")))
        .collect();
    assert_eq!(renders[0], renders[1], "report depends on --jobs");
}
