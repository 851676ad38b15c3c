//! Determinism regression tests for the hot-path benchmark harness.
//!
//! The harness exists to compare numbers across commits, which only works
//! if everything except the timing fields is a pure function of the seed:
//! same seed → identical corpora, identical simulation results, identical
//! checksums; and campaign statistics must not depend on how the lines
//! were sharded across worker threads.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pcm-bench-hotpath")
}

fn out_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pcm_determinism_{}_{tag}.json", std::process::id()))
}

/// Runs the bench binary in smoke mode and returns the report JSON.
fn run_smoke(tag: &str, extra: &[&str]) -> String {
    let out = out_path(tag);
    let status = Command::new(bin())
        .args(["--smoke", "--out"])
        .arg(&out)
        .args(extra)
        .status()
        .expect("bench binary runs");
    assert!(status.success(), "bench binary exited with {status}");
    let json = std::fs::read_to_string(&out).expect("report written");
    let _ = std::fs::remove_file(&out);
    json
}

/// Drops the fields that legitimately vary between runs: measured timings
/// and the thread-count echo. Everything left (ids, seeds, units, result
/// checksums, campaign statistics) must be bit-stable.
fn strip_timing(json: &str) -> String {
    const TIMING_KEYS: [&str; 6] = [
        "\"batches\":",
        "\"iters\":",
        "\"median_ns\":",
        "\"mad_ns\":",
        "\"per_second\":",
        "\"wall_ms\":",
    ];
    json.lines()
        .filter(|line| {
            let t = line.trim_start();
            !TIMING_KEYS.iter().any(|k| t.starts_with(k)) && !t.starts_with("\"threads\":")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn smoke_runs_are_identical_modulo_timing() {
    let a = run_smoke("rep1", &["--seed", "41"]);
    let b = run_smoke("rep2", &["--seed", "41"]);
    let (sa, sb) = (strip_timing(&a), strip_timing(&b));
    assert!(
        sa.contains("\"checksum\":"),
        "stripped report keeps checksums:\n{sa}"
    );
    assert!(
        sa.contains("\"stats\":"),
        "stripped report keeps campaign stats:\n{sa}"
    );
    assert_eq!(sa, sb, "same seed must reproduce every non-timing field");
}

#[test]
fn default_smoke_run_matches_the_tracked_report() {
    // The gate's ratchet compares against the same file, but only behind
    // its noisy throughput floors; this pins the checksums, the bench
    // list and the campaign statistics on every test run.
    let tracked = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_hotpath_smoke.json"
    ))
    .expect("tracked smoke report is readable");
    let fresh = run_smoke("tracked", &[]);
    assert_eq!(
        strip_timing(&fresh),
        strip_timing(&tracked),
        "a default smoke run must reproduce results/BENCH_hotpath_smoke.json"
    );
}

#[test]
fn different_seeds_change_results() {
    // Guards against the comparison above passing vacuously (e.g. the
    // harness ignoring --seed): a different seed must change at least one
    // result checksum.
    let a = run_smoke("seed41", &["--seed", "41"]);
    let b = run_smoke("seed42", &["--seed", "42"]);
    assert_ne!(
        strip_timing(&a),
        strip_timing(&b),
        "--seed must steer the corpora"
    );
}

#[test]
fn campaign_stats_are_thread_invariant() {
    let one = run_smoke("t1", &["--seed", "41", "--threads", "1"]);
    let two = run_smoke("t2", &["--seed", "41", "--threads", "2"]);
    let auto = run_smoke("tauto", &["--seed", "41", "--threads", "auto"]);
    let (s1, s2, sa) = (strip_timing(&one), strip_timing(&two), strip_timing(&auto));
    assert_eq!(
        s1, s2,
        "1 vs 2 worker threads must not change campaign statistics"
    );
    assert_eq!(
        s1, sa,
        "1 vs auto worker threads must not change campaign statistics"
    );
}
