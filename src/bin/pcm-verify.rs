//! `pcm-verify` — the deterministic verification sweep.
//!
//! Runs the fault-injection churn harness and the replay-vs-engine
//! differential oracle over every `SystemKind` × hard-error-scheme
//! combination, and Comp+WF/ECP-6 on a 4-byte window grid, at two
//! endurance settings, plus a whole-memory churn pass
//! per registered inter-line wear scheme (see DESIGN.md "Verification"),
//! printing one block per combination — the `verify` stage of
//! `scripts_run_all.sh`. Exit status: 0 when every check passes, 1 on any
//! mismatch, 2 on usage or I/O errors, a closed stdout included.
//!
//! ```text
//! pcm-verify [--seed N] [--churn-only] [--quiet]
//! ```

use collab_pcm::core::verify::{run_all, VerifyConfig};
use std::io::{self, Write};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = VerifyConfig::default();
    let mut quiet = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--churn-only" => cfg.churn_only = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                emit(|out| writeln!(out, "usage: pcm-verify [--seed N] [--churn-only] [--quiet]"));
                return;
            }
            other => die(&format!("unknown option '{other}'")),
        }
        i += 1;
    }

    // pcm-audit: allow(wallclock) — progress reporting only, never a Report
    let start = std::time::Instant::now();
    let report = run_all(&cfg);
    let failures = report.failures().len();
    emit(|out| {
        for entry in &report.entries {
            let verdict = if entry.passed() { "ok" } else { "FAIL" };
            match &entry.churn {
                Ok(s) => {
                    if !quiet {
                        writeln!(
                            out,
                            "{:8} / {:11} / {:9} / step {} churn: {} writes, {} slides, {} deaths, {} revived [{verdict}]",
                            entry.kind.to_string(),
                            entry.ecc.to_string(),
                            entry.wear.to_string(),
                            entry.window_step,
                            s.writes_checked,
                            s.slides,
                            s.deaths,
                            s.resurrections,
                        )?;
                    }
                }
                Err(e) => writeln!(
                    out,
                    "{:8} / {:11} / {:9} / step {} churn FAIL: {e}",
                    entry.kind.to_string(),
                    entry.ecc.to_string(),
                    entry.wear.to_string(),
                    entry.window_step
                )?,
            }
            for o in &entry.oracles {
                if !quiet || !o.passed() {
                    writeln!(out, "{}", o.describe())?;
                }
            }
        }
        writeln!(
            out,
            "verify: {} combinations, {failures} failures, {:.1}s (seed {})",
            report.entries.len(),
            start.elapsed().as_secs_f64(),
            cfg.seed
        )
    });
    if failures > 0 {
        exit(1);
    }
}

/// Runs `write` against stdout; a failed write (a closed pipe, a full
/// disk) exits 2 like any other I/O error instead of panicking.
fn emit(write: impl FnOnce(&mut io::StdoutLock<'static>) -> io::Result<()>) {
    let mut out = io::stdout().lock();
    write(&mut out)
        .and_then(|()| out.flush())
        .unwrap_or_else(|e| die(&format!("cannot write to stdout: {e}")));
}

fn die(msg: &str) -> ! {
    eprintln!("pcm-verify: {msg}");
    exit(2)
}
