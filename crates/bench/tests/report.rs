//! Report-layer integration tests: emitter round-trips on real experiment
//! output, a golden snapshot at a fixed seed, and the diff gate's failure
//! mode on out-of-tolerance drift.

use pcm_bench::report::{diff_reports, DiffFinding, Report, ReportDiff, Value};
use pcm_bench::{find, run_timed, Options};
use pcm_trace::SpecApp;

fn small_opts() -> Options {
    Options {
        quick: true,
        seed: 2017,
        apps: vec![SpecApp::Milc],
    }
}

#[test]
fn real_report_round_trips_byte_identical() {
    // Emit → parse → re-emit must be byte-identical for a real report of
    // every shape ingredient (table, series, note).
    for name in ["fig01_dw_randomness", "fig03_compressed_size"] {
        let mut report = run_timed(find(name).unwrap(), &small_opts());
        let json = report.to_json();
        let parsed = Report::from_json(&json).expect("emitted JSON must parse");
        assert_eq!(parsed.to_json(), json, "{name}: emit∘parse∘emit drifted");
        // wall_ms is rounded during emission; everything else is lossless.
        report.manifest.wall_ms = parsed.manifest.wall_ms;
        assert_eq!(parsed.manifest, report.manifest);
        assert_eq!(parsed.notes, report.notes);
    }
}

#[test]
fn golden_snapshot_fig01_quick_seed2017() {
    // The full artifact a fixed-seed run produces, wall-clock zeroed.
    // Regenerate with:
    //   cargo run -p pcm-bench --bin pcm-lab -- run fig01_dw_randomness \
    //     --quick --apps milc --format json   (then zero wall_ms)
    let mut fresh = find("fig01_dw_randomness").unwrap().run(&small_opts());
    fresh.manifest.wall_ms = 0.0;
    let golden = include_str!("golden/fig01_quick.json");
    assert_eq!(
        fresh.to_json(),
        golden,
        "fig01 at seed 2017 no longer matches tests/golden/fig01_quick.json; \
         if the change is intentional, regenerate the golden file"
    );
    let tracked = Report::from_json(golden).expect("golden must parse");
    let diff = diff_reports(&tracked, &fresh);
    assert!(diff.passed(), "{}", diff.describe());
}

#[test]
fn diff_rejects_out_of_tolerance_drift() {
    let exp = find("fig03_compressed_size").unwrap();
    let tracked = run_timed(exp, &small_opts());
    let mut fresh = tracked.clone();

    // Within the CR column's abs:0.02 band: accepted.
    let cr = &mut fresh.tables[0].rows[0].values[3];
    let Value::Num(v, p) = *cr else {
        panic!("CR cell must be numeric")
    };
    *cr = Value::Num(v + 0.01, p);
    assert!(diff_reports(&tracked, &fresh).passed());

    // Outside it: the diff must fail and name the statistic.
    fresh.tables[0].rows[0].values[3] = Value::Num(v + 0.2, p);
    let diff: ReportDiff = diff_reports(&tracked, &fresh);
    assert!(!diff.passed());
    assert_eq!(diff.findings.len(), 1);
    let DiffFinding {
        location,
        tolerance,
        ..
    } = &diff.findings[0];
    assert!(location.contains("col 'CR'"));
    // describe() must name both the statistic and the band that rejected it.
    assert!(diff.describe().contains(location.as_str()), "{diff:?}");
    assert!(diff.describe().contains(tolerance.as_str()), "{diff:?}");

    // Shape drift (a lost row) must also fail.
    let mut fresh = tracked.clone();
    fresh.tables[0].rows.pop();
    assert!(!diff_reports(&tracked, &fresh).passed());
}
