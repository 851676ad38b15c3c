//! `pcm-sim` treats an out-of-range number as a usage error: exit 2 with
//! the flag named on stderr, never a library panic (exit 101) or a run
//! that does not end.

use std::process::{Command, Output};

fn pcm_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pcm-sim"))
        .args(args)
        .output()
        .expect("pcm-sim runs")
}

#[test]
fn out_of_range_values_are_usage_errors() {
    let cases: [(&[&str], &str); 10] = [
        (&["montecarlo", "--window", "0"], "--window"),
        (&["montecarlo", "--window", "65"], "--window"),
        (&["montecarlo", "--errors", "600"], "--errors"),
        (&["montecarlo", "--injections", "0"], "--injections"),
        (&["lifetime", "--app", "milc", "--lines", "0"], "--lines"),
        (
            &["lifetime", "--app", "milc", "--endurance", "-5"],
            "--endurance",
        ),
        (
            &["lifetime", "--app", "milc", "--samples", "0"],
            "--samples",
        ),
        (&["compress", "--app", "gcc", "--writes", "0"], "--writes"),
        (&["stress", "--app", "milc", "--lines", "0"], "--lines"),
        (&["stress", "--app", "milc", "--lines", "1"], "--lines"),
    ];
    for (args, flag) in cases {
        let out = pcm_sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        // The usage text lists every flag, so look at the error line.
        let error = stderr.lines().next().unwrap_or_default();
        assert!(
            error.starts_with("error:") && error.contains(flag),
            "{args:?}: first stderr line does not name {flag}: {error}"
        );
    }
}

#[test]
fn small_montecarlo_run_succeeds() {
    let out = pcm_sim(&[
        "montecarlo",
        "--ecc",
        "ecp6",
        "--window",
        "64",
        "--errors",
        "6",
        "--injections",
        "200",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("failure_probability\t0.0000"),
        "six faults never defeat ECP-6: {stdout}"
    );
}
