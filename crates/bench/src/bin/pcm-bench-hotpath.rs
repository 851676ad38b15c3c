//! Hot-path benchmark harness: measures `compress_best`, the `Line512`
//! kernels, `simulate_line`, and end-to-end campaigns, then writes
//! `BENCH_hotpath.json` (DESIGN.md §9). With `--ratchet TRACKED.json` the
//! fresh run is compared against a tracked report: checksum drift fails
//! immediately, while a benchmark below its throughput floor is
//! re-measured up to [`MAX_RERUNS`](pcm_bench::ratchet::MAX_RERUNS) more
//! times (best reading wins) before the slowdown fails the process — the
//! gate runs on shared machines, and a noisy reading deserves a second
//! look where a changed result never does.
//!
//! A tracked report that cannot be read or parsed, or an `--out` path
//! that cannot be opened for writing, prints one `error:` line and exits
//! 2, like a bad flag, before any benchmark runs.

use pcm_bench::hotpath::{run, HotpathOptions};
use pcm_bench::ratchet::{check_with_reruns, RatchetOutcome, TrackedReport};
use std::fs::OpenOptions;
use std::io::Write;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let opts = HotpathOptions::from_args();
    // Read the tracked report up front: `--ratchet` may point at the same
    // path as `--out` (ratchet against the committed report, then refresh
    // it), so the old contents must be captured before the write below.
    let tracked = opts.ratchet.as_ref().map(|path| {
        let tracked_json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read tracked report {path}: {e}")));
        TrackedReport::parse(&tracked_json)
            .unwrap_or_else(|e| fail(&format!("cannot parse tracked report {path}: {e}")))
    });
    // Open the output before the first bench, so an unwritable path fails
    // in a moment rather than after the whole suite. It is not truncated
    // until the report is ready: it may be the tracked report read above.
    let mut out = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(&opts.out)
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", opts.out)));
    let mut report = run(&opts);
    let outcome: Option<RatchetOutcome> = tracked.as_ref().map(|tracked| {
        check_with_reruns(&mut report, tracked, |slow| {
            println!(
                "ratchet: re-measuring {} below-floor bench(es): {}",
                slow.len(),
                slow.join(", ")
            );
            run(&opts)
        })
    });
    // Written after the retry loop so the refreshed report carries the
    // best reading per bench, not the noisy first attempt.
    let json = report.to_json(true);
    out.set_len(0)
        .and_then(|()| out.write_all(json.as_bytes()))
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", opts.out)));
    println!(
        "wrote {} ({} benches, {} campaigns)",
        opts.out,
        report.benches.len(),
        report.campaign_count()
    );
    if let (Some(path), Some(outcome)) = (&opts.ratchet, &outcome) {
        for line in &outcome.lines {
            println!("{line}");
        }
        if !outcome.passed() {
            eprintln!(
                "ratchet FAILED against {path}: {} of {} checks",
                outcome.failures.len(),
                outcome.lines.len()
            );
            std::process::exit(1);
        }
        println!("ratchet ok against {path}");
    }
}
