//! `pcm-bench-hotpath` input errors: a tracked report it cannot use, or
//! an output path it cannot write, is reported on one `error:` line that
//! names the path, with exit code 2, before any benchmark runs.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pcm_hotpath_errors_{}_{tag}.json",
        std::process::id()
    ))
}

/// Runs a smoke bench with `args` and checks that it fails as an input
/// error naming `path`.
fn assert_input_error(args: &[&std::ffi::OsStr], path: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_pcm-bench-hotpath"))
        .arg("--smoke")
        .args(args)
        .output()
        .expect("bench binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: ")
            && stderr.lines().count() == 1
            && stderr.contains(&*path.to_string_lossy()),
        "stderr must be one line naming {}: {stderr}",
        path.display()
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        !stdout.contains("bench:"),
        "no benchmark may run before the inputs are checked: {stdout}"
    );
}

/// Runs a smoke ratchet against `tracked` and checks that it fails as an
/// input error.
fn assert_tracked_error(tracked: &Path) {
    let out = temp_path("out");
    assert_input_error(
        &[
            "--ratchet".as_ref(),
            tracked.as_os_str(),
            "--out".as_ref(),
            out.as_os_str(),
        ],
        tracked,
    );
}

#[test]
fn missing_tracked_report_exits_2() {
    assert_tracked_error(&temp_path("missing"));
}

#[test]
fn malformed_tracked_report_exits_2() {
    let path = temp_path("malformed");
    std::fs::write(&path, "{}").expect("temp file is writable");
    assert_tracked_error(&path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unwritable_output_exits_2_before_any_bench() {
    let dir = std::env::temp_dir().join(format!(
        "pcm_hotpath_errors_{}_missing-dir",
        std::process::id()
    ));
    let out = dir.join("x.json");
    assert_input_error(&["--out".as_ref(), out.as_os_str()], &out);
    assert!(!dir.exists(), "nothing is created on the way out");
}
