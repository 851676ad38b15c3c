//! `pcm-verify` writing to a stdout that is already closed exits 2 with
//! one `pcm-verify:` line on stderr, the status it gives any I/O error,
//! instead of panicking.

use std::process::Command;

#[test]
fn help_to_a_closed_stdout_exits_2_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_pcm-verify"))
        .arg("--help")
        .stdout(writer)
        .output()
        .expect("pcm-verify runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("pcm-verify: "), "{stderr}");
}
