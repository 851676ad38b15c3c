//! The `pcm-audit` binary's own output. A stdout that is closed before it
//! writes is an I/O error: exit 2 and one `pcm-audit:` line on stderr,
//! never a panic. The `--list-rules` table aligns its scope column after
//! the longest rule id.

use std::path::Path;
use std::process::{Command, Output, Stdio};

fn pcm_audit(args: &[&str], stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pcm-audit"))
        .args(args)
        .stdout(stdout)
        .output()
        .expect("pcm-audit runs")
}

/// The write end of a pipe whose read end is already closed.
fn closed_pipe() -> Stdio {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    writer.into()
}

#[test]
fn closed_stdout_exits_2_without_a_panic() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clean");
    let root = fixture.to_str().expect("UTF-8 path");
    let cases: [&[&str]; 4] = [
        &["--help"],
        &["--list-rules"],
        &["--root", root],
        &["--root", root, "--json"],
    ];
    for args in cases {
        let out = pcm_audit(args, closed_pipe());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("pcm-audit: "), "{args:?}: {stderr}");
    }
}

#[test]
fn rule_table_scope_column_is_aligned() {
    let out = pcm_audit(&["--list-rules"], Stdio::piped());
    assert_eq!(out.status.code(), Some(0));
    let table = String::from_utf8(out.stdout).expect("UTF-8 table");
    let offsets: Vec<usize> = table
        .lines()
        .map(|row| {
            let id = row.split(' ').next().unwrap_or_default();
            id.len() + row[id.len()..].len() - row[id.len()..].trim_start().len()
        })
        .collect();
    let longest = pcm_audit::RULES.iter().map(|r| r.id.len()).max();
    assert_eq!(offsets.len(), pcm_audit::RULES.len() + 1, "{table}");
    assert!(
        offsets.iter().all(|&o| o == offsets[0]),
        "scope column offsets {offsets:?}:\n{table}"
    );
    assert_eq!(Some(offsets[0]), longest.map(|n| n + 1), "{table}");
}
