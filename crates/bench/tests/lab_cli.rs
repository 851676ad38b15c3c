//! `pcm-lab run` through the binary: a removed flag is a usage error, and
//! a JSON report on stdout parses back into a [`Report`].

use pcm_bench::Report;
use std::process::{Command, Output};

fn pcm_lab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pcm-lab"))
        .args(args)
        .output()
        .expect("pcm-lab runs")
}

#[test]
fn seeds_is_an_unknown_flag() {
    let out = pcm_lab(&["run", "fig06_size_change_prob", "--seeds", "2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error: ") && l.contains("--seeds")),
        "an error line must name --seeds: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no report may be printed");
}

#[test]
fn run_prints_a_json_report_that_parses() {
    let out = pcm_lab(&[
        "run",
        "fig06_size_change_prob",
        "--quick",
        "--format",
        "json",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 report");
    let report = Report::from_json(&stdout).expect("stdout is one pcm-lab report");
    assert_eq!(report.manifest.experiment, "fig06_size_change_prob");
    assert!(report.manifest.quick);
    assert!(!report.tables.is_empty(), "the report carries its tables");
}
