//! `pcm-bench-hotpath` input errors: a tracked report it cannot use is
//! reported on one `error:` line that names the path, with exit code 2,
//! before any benchmark runs.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pcm_hotpath_errors_{}_{tag}.json",
        std::process::id()
    ))
}

/// Runs a smoke ratchet against `tracked` and checks that it fails as an
/// input error.
fn assert_input_error(tracked: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_pcm-bench-hotpath"))
        .args(["--smoke", "--ratchet"])
        .arg(tracked)
        .arg("--out")
        .arg(temp_path("out"))
        .output()
        .expect("bench binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(&*tracked.to_string_lossy()),
        "stderr must name the tracked report: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        !stdout.contains("bench:"),
        "no benchmark may run before the tracked report is read: {stdout}"
    );
}

#[test]
fn missing_tracked_report_exits_2() {
    assert_input_error(&temp_path("missing"));
}

#[test]
fn malformed_tracked_report_exits_2() {
    let path = temp_path("malformed");
    std::fs::write(&path, "{}").expect("temp file is writable");
    assert_input_error(&path);
    let _ = std::fs::remove_file(&path);
}
