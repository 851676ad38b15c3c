//! Throughput regression ratchet for `pcm-bench-hotpath`.
//!
//! The bench harness has always pinned *correctness* across commits (the
//! determinism test diffs every non-timing field), but a kernel rewrite
//! can silently regress *speed* without tripping anything. The ratchet
//! closes that hole: `pcm-bench-hotpath --ratchet PATH` compares the run
//! it just produced against a tracked report (`BENCH_hotpath.json` or the
//! smoke-mode twin) and fails when a ratcheted benchmark falls below
//! `--ratchet-min` (default 0.5) of its tracked throughput, or when any
//! checksum drifts — a perf floor may move, a result never may.
//!
//! Only the kernel-shaped groups are ratcheted ([`RATCHET_PREFIXES`]):
//! `scheduler/*` and `compress_best/*` wobble with container load and the
//! campaign wall-clock entries are not micro-benchmarks. The
//! `campaign/lockstep` and `serve/bank_batch` micro-benchmarks *are*
//! ratcheted — they pin one campaign pool job and the serve engine's
//! per-bank write path. The floor factor is deliberately
//! loose — the gate runs on shared, noisy machines — so it catches
//! "accidentally deoptimized the hot loop 3×", not a 10% wobble.

use crate::hotpath::HotpathReport;

/// Benchmark id prefixes the ratchet enforces a throughput floor on.
pub const RATCHET_PREFIXES: [&str; 4] = ["linesim/", "kernels/", "campaign/", "serve/"];

/// Default throughput floor: current must reach half the tracked rate.
pub const DEFAULT_MIN_RATIO: f64 = 0.5;

/// Maximum fresh readings [`check_with_reruns`] takes for a benchmark
/// that came in below its throughput floor.
pub const MAX_RERUNS: usize = 2;

/// One benchmark entry parsed back out of a tracked report.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedBench {
    /// Benchmark id, `group/name`.
    pub id: String,
    /// Seed-stable result checksum.
    pub checksum: u64,
    /// Tracked throughput, if the report carried timing fields.
    pub per_second: Option<f64>,
}

/// The subset of a tracked `BENCH_hotpath.json` the ratchet needs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedReport {
    /// Whether the tracked report was a `--smoke` run.
    pub smoke: bool,
    /// Benchmark entries in file order.
    pub benches: Vec<TrackedBench>,
}

impl TrackedReport {
    /// Parses the fields the ratchet needs from a report produced by
    /// `HotpathReport::to_json`. The format is line-oriented (one field
    /// per line), so this is a line scanner, not a general JSON parser:
    /// it keys off the `"id"` / `"per_second"` / `"checksum"` lines of
    /// the `benches` array and ignores the campaign entries (which carry
    /// `"label"` instead of `"id"`).
    pub fn parse(json: &str) -> Result<TrackedReport, String> {
        let mut smoke = None;
        let mut benches = Vec::new();
        let mut pending_id: Option<String> = None;
        let mut pending_per_second: Option<f64> = None;
        for (lineno, raw) in json.lines().enumerate() {
            let line = raw.trim();
            let err = |msg: &str| format!("line {}: {msg}: {line}", lineno + 1);
            if let Some(rest) = line.strip_prefix("\"smoke\": ") {
                smoke = Some(match rest.trim_end_matches(',') {
                    "true" => true,
                    "false" => false,
                    _ => return Err(err("\"smoke\" is not a bool")),
                });
            } else if let Some(rest) = line.strip_prefix("\"id\": \"") {
                let id = rest
                    .strip_suffix("\",")
                    .or_else(|| rest.strip_suffix('"'))
                    .ok_or_else(|| err("unterminated \"id\" string"))?;
                pending_id = Some(id.to_string());
                pending_per_second = None;
            } else if let Some(rest) = line.strip_prefix("\"per_second\": ") {
                let v = rest.trim_end_matches(',');
                pending_per_second = if v == "null" {
                    None
                } else {
                    Some(v.parse().map_err(|_| err("bad \"per_second\" value"))?)
                };
            } else if let Some(rest) = line.strip_prefix("\"checksum\": ") {
                // Campaign checksums arrive with no pending id; skip them.
                if let Some(id) = pending_id.take() {
                    let checksum = rest
                        .trim_end_matches(',')
                        .parse()
                        .map_err(|_| err("bad \"checksum\" value"))?;
                    benches.push(TrackedBench {
                        id,
                        checksum,
                        per_second: pending_per_second.take(),
                    });
                }
            } else if line.starts_with("\"label\": ") {
                pending_id = None;
            }
        }
        let smoke = smoke.ok_or("tracked report has no \"smoke\" field")?;
        if benches.is_empty() {
            return Err("tracked report has no benchmark entries".into());
        }
        Ok(TrackedReport { smoke, benches })
    }
}

/// Result of a ratchet comparison: human-readable per-benchmark lines
/// plus the subset that constitutes failures.
#[derive(Debug, Clone, Default)]
pub struct RatchetOutcome {
    /// One line per ratcheted benchmark (pass or fail).
    pub lines: Vec<String>,
    /// Failure messages; empty means the ratchet passed.
    pub failures: Vec<String>,
    /// Ids of benchmarks that failed only on throughput — the retryable
    /// subset of [`failures`](Self::failures).
    pub slowdowns: Vec<String>,
}

impl RatchetOutcome {
    /// `true` when no ratcheted benchmark failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// `true` when every failure is a below-floor throughput reading —
    /// the only kind a rerun can legitimately fix. Checksum drift, a
    /// smoke-mode mismatch, or a missing benchmark means results (not
    /// noise) changed, so retrying would just mask the bug.
    pub fn retryable(&self) -> bool {
        !self.failures.is_empty() && self.failures.len() == self.slowdowns.len()
    }
}

fn ratcheted(id: &str) -> bool {
    RATCHET_PREFIXES.iter().any(|p| id.starts_with(p))
}

/// Compares a fresh report against a tracked one.
///
/// * smoke-mode flags must match (a smoke run against the full-scale
///   floor would pass or fail meaninglessly),
/// * every ratcheted benchmark present in both must keep its checksum
///   bit-identical and reach `min_ratio ×` the tracked throughput,
/// * a ratcheted benchmark that disappeared from the current run fails
///   (deleting a benchmark must move the tracked file, not skip the
///   floor); a new benchmark with no tracked floor is reported but
///   passes.
pub fn check(current: &HotpathReport, tracked: &TrackedReport, min_ratio: f64) -> RatchetOutcome {
    let mut out = RatchetOutcome::default();
    if current.smoke != tracked.smoke {
        out.failures.push(format!(
            "smoke-mode mismatch: current run smoke={}, tracked report smoke={}",
            current.smoke, tracked.smoke
        ));
        return out;
    }
    for b in current.benches.iter().filter(|b| ratcheted(&b.id)) {
        let Some(t) = tracked.benches.iter().find(|t| t.id == b.id) else {
            out.lines
                .push(format!("ratchet: {:<28} new benchmark, no floor yet", b.id));
            continue;
        };
        if b.checksum != t.checksum {
            let msg = format!(
                "ratchet: {:<28} CHECKSUM DRIFT {} != tracked {}",
                b.id, b.checksum, t.checksum
            );
            out.lines.push(msg.clone());
            out.failures.push(msg);
            continue;
        }
        match (b.per_second, t.per_second) {
            (Some(cur), Some(floor)) if floor > 0.0 => {
                let ratio = cur / floor;
                if ratio < min_ratio {
                    let msg = format!(
                        "ratchet: {:<28} SLOWDOWN {:.2}x of tracked ({:.3e}/s vs {:.3e}/s, floor {:.2}x)",
                        b.id, ratio, cur, floor, min_ratio
                    );
                    out.lines.push(msg.clone());
                    out.failures.push(msg);
                    out.slowdowns.push(b.id.clone());
                } else {
                    out.lines.push(format!(
                        "ratchet: {:<28} ok {:.2}x of tracked ({:.3e}/s)",
                        b.id, ratio, cur
                    ));
                }
            }
            _ => out.lines.push(format!(
                "ratchet: {:<28} checksum ok, no throughput to compare",
                b.id
            )),
        }
    }
    for t in tracked.benches.iter().filter(|t| ratcheted(&t.id)) {
        if !current.benches.iter().any(|b| b.id == t.id) {
            let msg = format!(
                "ratchet: {:<28} tracked benchmark missing from current run",
                t.id
            );
            out.lines.push(msg.clone());
            out.failures.push(msg);
        }
    }
    out
}

/// [`check`] with slowdown retries: a benchmark below its throughput
/// floor gets up to `max_reruns` fresh readings, keeping the best
/// `per_second` per bench, before the slowdown counts as a failure.
///
/// `rerun` re-measures the suite and is handed the below-floor ids (for
/// progress reporting; the measurement itself is a full fresh report so
/// the retried benches run under the same conditions as the first
/// attempt). `current` is updated in place with the best readings, so
/// the caller writes the merged report.
///
/// Two hard-fail cases skip the retry loop entirely:
///
/// * a first-attempt outcome that is not [`retryable`]
///   (`RatchetOutcome::retryable`) — checksum drift, smoke mismatch, or
///   a missing benchmark is a result change, not measurement noise;
/// * a rerun whose checksum disagrees with the first attempt's — that is
///   nondeterminism *within* one commit, strictly worse than drift
///   against the tracked report.
pub fn check_with_reruns<F>(
    current: &mut HotpathReport,
    tracked: &TrackedReport,
    min_ratio: f64,
    max_reruns: usize,
    mut rerun: F,
) -> RatchetOutcome
where
    F: FnMut(&[String]) -> HotpathReport,
{
    let mut outcome = check(current, tracked, min_ratio);
    for attempt in 1..=max_reruns {
        if outcome.passed() || !outcome.retryable() {
            break;
        }
        let slow = std::mem::take(&mut outcome.slowdowns);
        let fresh = rerun(&slow);
        for id in &slow {
            let cur = current.benches.iter_mut().find(|b| b.id == *id);
            let new = fresh.benches.iter().find(|b| b.id == *id);
            let (Some(cur), Some(new)) = (cur, new) else {
                continue;
            };
            if new.checksum != cur.checksum {
                let msg = format!(
                    "ratchet: {:<28} RERUN CHECKSUM DRIFT {} != first attempt {}",
                    id, new.checksum, cur.checksum
                );
                outcome.lines.push(msg.clone());
                outcome.failures.push(msg);
                return outcome;
            }
            if new.per_second > cur.per_second {
                *cur = new.clone();
            }
        }
        outcome = check(current, tracked, min_ratio);
        outcome.lines.push(format!(
            "ratchet: rerun {attempt}/{max_reruns} re-measured {} below-floor bench(es)",
            slow.len()
        ));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotpath::BenchEntry;

    fn entry(id: &str, checksum: u64, per_second: f64) -> BenchEntry {
        BenchEntry {
            id: id.into(),
            unit: "ops",
            checksum,
            iters: 1,
            median_ns: 1.0,
            mad_ns: 0.0,
            per_second: Some(per_second),
        }
    }

    fn report(smoke: bool, benches: Vec<BenchEntry>) -> HotpathReport {
        HotpathReport {
            seed: 2017,
            smoke,
            threads: 0,
            batches: 1,
            benches,
            campaigns: Vec::new(),
        }
    }

    #[test]
    fn parse_round_trips_own_format() {
        let rep = report(
            true,
            vec![entry("kernels/a", 7, 100.0), entry("linesim/b", 9, 5.5)],
        );
        let tracked = TrackedReport::parse(&rep.to_json(true)).unwrap();
        assert!(tracked.smoke);
        assert_eq!(
            tracked.benches,
            vec![
                TrackedBench {
                    id: "kernels/a".into(),
                    checksum: 7,
                    per_second: Some(100.0),
                },
                TrackedBench {
                    id: "linesim/b".into(),
                    checksum: 9,
                    per_second: Some(5.5),
                },
            ]
        );
        // Timing-stripped reports parse too (no throughput floors).
        let no_timing = TrackedReport::parse(&rep.to_json(false)).unwrap();
        assert_eq!(no_timing.benches[0].per_second, None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TrackedReport::parse("").is_err());
        assert!(TrackedReport::parse("{\n  \"smoke\": maybe,\n}\n").is_err());
        let no_benches = "{\n  \"smoke\": true,\n  \"benches\": []\n}\n";
        assert!(TrackedReport::parse(no_benches).is_err());
    }

    #[test]
    fn checksum_drift_fails_regardless_of_speed() {
        let cur = report(false, vec![entry("kernels/a", 1, 1e9)]);
        let tracked = TrackedReport {
            smoke: false,
            benches: vec![TrackedBench {
                id: "kernels/a".into(),
                checksum: 2,
                per_second: Some(1.0),
            }],
        };
        let out = check(&cur, &tracked, DEFAULT_MIN_RATIO);
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("CHECKSUM DRIFT"), "{out:?}");
    }

    #[test]
    fn slowdown_below_floor_fails_and_above_passes() {
        let tracked = TrackedReport {
            smoke: false,
            benches: vec![TrackedBench {
                id: "linesim/x".into(),
                checksum: 3,
                per_second: Some(100.0),
            }],
        };
        let slow = report(false, vec![entry("linesim/x", 3, 49.0)]);
        assert!(!check(&slow, &tracked, 0.5).passed());
        let fine = report(false, vec![entry("linesim/x", 3, 51.0)]);
        assert!(check(&fine, &tracked, 0.5).passed());
    }

    #[test]
    fn unratcheted_groups_are_ignored() {
        let cur = report(false, vec![entry("scheduler/balanced/t1", 1, 1.0)]);
        let tracked = TrackedReport {
            smoke: false,
            benches: vec![TrackedBench {
                id: "scheduler/balanced/t1".into(),
                checksum: 99,
                per_second: Some(1e9),
            }],
        };
        let out = check(&cur, &tracked, DEFAULT_MIN_RATIO);
        assert!(out.passed(), "{out:?}");
        assert!(out.lines.is_empty());
    }

    fn tracked_one(id: &str, checksum: u64, per_second: f64) -> TrackedReport {
        TrackedReport {
            smoke: false,
            benches: vec![TrackedBench {
                id: id.into(),
                checksum,
                per_second: Some(per_second),
            }],
        }
    }

    #[test]
    fn rerun_recovers_a_noisy_slowdown() {
        let tracked = tracked_one("kernels/a", 7, 100.0);
        let mut cur = report(false, vec![entry("kernels/a", 7, 10.0)]);
        let mut calls = 0;
        let out = check_with_reruns(&mut cur, &tracked, 0.5, MAX_RERUNS, |slow| {
            calls += 1;
            assert_eq!(slow, ["kernels/a".to_string()]);
            report(false, vec![entry("kernels/a", 7, 90.0)])
        });
        assert!(out.passed(), "{out:?}");
        assert_eq!(calls, 1, "passing rerun must stop the retry loop");
        assert_eq!(cur.benches[0].per_second, Some(90.0), "best reading kept");
    }

    #[test]
    fn reruns_keep_the_best_reading_and_cap_at_max() {
        let tracked = tracked_one("kernels/a", 7, 100.0);
        let mut cur = report(false, vec![entry("kernels/a", 7, 10.0)]);
        let mut calls = 0;
        let readings = [20.0, 15.0]; // both still below the 50.0 floor
        let out = check_with_reruns(&mut cur, &tracked, 0.5, MAX_RERUNS, |_| {
            calls += 1;
            report(false, vec![entry("kernels/a", 7, readings[calls - 1])])
        });
        assert!(!out.passed());
        assert_eq!(calls, MAX_RERUNS);
        assert_eq!(cur.benches[0].per_second, Some(20.0), "best of 3 kept");
        assert!(out.failures[0].contains("SLOWDOWN"), "{out:?}");
    }

    #[test]
    fn checksum_drift_is_never_retried() {
        let tracked = tracked_one("kernels/a", 7, 100.0);
        // Drift AND a slowdown: the drift makes the outcome non-retryable.
        let mut cur = report(false, vec![entry("kernels/a", 8, 10.0)]);
        let out = check_with_reruns(&mut cur, &tracked, 0.5, MAX_RERUNS, |_| {
            panic!("drift must hard-fail without a rerun")
        });
        assert!(!out.passed());
        assert!(out.failures[0].contains("CHECKSUM DRIFT"), "{out:?}");
    }

    #[test]
    fn rerun_checksum_drift_hard_fails() {
        let tracked = tracked_one("kernels/a", 7, 100.0);
        let mut cur = report(false, vec![entry("kernels/a", 7, 10.0)]);
        let mut calls = 0;
        let out = check_with_reruns(&mut cur, &tracked, 0.5, MAX_RERUNS, |_| {
            calls += 1;
            report(false, vec![entry("kernels/a", 9, 90.0)])
        });
        assert!(!out.passed());
        assert_eq!(calls, 1, "intra-commit drift must stop the loop");
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("RERUN CHECKSUM DRIFT")),
            "{out:?}"
        );
        assert_eq!(
            cur.benches[0].per_second,
            Some(10.0),
            "a drifting reading must not be merged"
        );
    }

    #[test]
    fn smoke_mismatch_and_missing_bench_fail() {
        let tracked = TrackedReport {
            smoke: false,
            benches: vec![TrackedBench {
                id: "kernels/a".into(),
                checksum: 1,
                per_second: Some(1.0),
            }],
        };
        let smoke_run = report(true, vec![entry("kernels/a", 1, 1.0)]);
        assert!(!check(&smoke_run, &tracked, DEFAULT_MIN_RATIO).passed());
        let dropped = report(false, vec![]);
        let out = check(&dropped, &tracked, DEFAULT_MIN_RATIO);
        assert!(!out.passed());
        assert!(out.failures[0].contains("missing"), "{out:?}");
    }
}
