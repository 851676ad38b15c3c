//! Gate-wiring test: `scripts_run_all.sh` must run the static-analysis
//! stage (`pcm-audit`) ahead of every build/run stage, and nothing may
//! gate it behind a flag like `--quick`. The audit crate's own
//! `gate-stages` rule checks the marker set; this test pins the ordering
//! from the outside so the two cannot drift together unnoticed. It also
//! pins that the repository benchmark (`perfbench/`) builds with the root
//! manifest's release profile.

fn gate_script() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scripts_run_all.sh");
    std::fs::read_to_string(path).expect("scripts_run_all.sh exists")
}

#[test]
fn audit_stage_is_present_and_ordered_before_builds() {
    let script = gate_script();
    let audit = script
        .find("== audit ==")
        .expect("audit stage marker present");
    assert!(
        script.contains("-p pcm-audit"),
        "audit stage must invoke the pcm-audit binary"
    );
    let fmt = script
        .find("== fmt check ==")
        .expect("fmt stage marker present");
    let build = script
        .find("cargo build")
        .expect("gate builds the workspace");
    let verify = script.find("== verify ==").expect("verify stage present");
    assert!(fmt < audit, "fmt check should stay first");
    assert!(
        audit < build,
        "audit must run before the first cargo build so hygiene failures \
         abort the gate cheaply"
    );
    assert!(audit < verify, "audit must run before the verify sweep");
}

#[test]
fn serve_stage_is_present_ordered_and_checked() {
    let script = gate_script();
    let serve = script
        .find("== serve ==")
        .expect("serve stage marker present");
    assert!(
        script.contains("-p pcm-serve"),
        "serve stage must invoke the pcm-serve binary"
    );
    let stage_end = script
        .find("== experiments ==")
        .expect("experiments stage present");
    assert!(
        serve < stage_end,
        "serve smoke runs before the experiment matrix"
    );
    let audit = script.find("== audit ==").expect("audit stage present");
    assert!(audit < serve, "audit still gates the serve smoke");
    let stage = &script[serve..stage_end];
    for flag in ["--seed", "--shards", "--duration"] {
        assert!(
            stage.contains(flag),
            "serve smoke must pin {flag} for a reproducible run"
        );
    }
    assert!(
        stage.contains("pcm-serve telemetry @ cycle") && stage.contains("wear_digests "),
        "serve smoke must sanity-check the telemetry output"
    );
    assert!(
        stage.contains("exit 1"),
        "serve smoke failures must abort the gate non-zero"
    );
    assert!(
        !stage.contains("if [ \"$"),
        "serve stage must not be gated on a script flag:\n{stage}"
    );
}

#[test]
fn audit_stage_is_unconditional() {
    let script = gate_script();
    // The audit invocation must not sit behind any flag variable the way
    // the bench smoke toggle does: from the stage marker to the first
    // cargo build there is no `if [ "$...` guard.
    let audit = script.find("== audit ==").expect("audit stage present");
    let build = script.find("cargo build").expect("build present");
    let stage = &script[audit..build];
    assert!(
        !stage.contains("if [ \"$"),
        "audit stage must not be gated on a script flag:\n{stage}"
    );
    assert!(
        stage.contains("exit 1"),
        "audit failures must abort the gate non-zero"
    );
}

#[test]
fn audit_stage_emits_the_json_twin() {
    let script = gate_script();
    // The audit stage runs the scan twice: once for the human-readable
    // results/audit.txt, once as `--json` for results/audit.json — the
    // machine-readable artifact artifact-sync diffs against the tree.
    let audit = script.find("== audit ==").expect("audit stage present");
    let build = script.find("cargo build").expect("build present");
    let stage = &script[audit..build];
    assert!(
        stage.contains("--json > results/audit.json"),
        "audit stage must emit the JSON report into results/:\n{stage}"
    );
    assert!(
        stage.matches("exit 1").count() >= 2,
        "both audit invocations must abort the gate non-zero:\n{stage}"
    );
    let text = stage
        .find("results/audit.txt")
        .expect("text report present");
    let json = stage
        .find("--json > results/audit.json")
        .expect("json report present");
    assert!(
        text < json,
        "human-readable report runs first so its tail lands in gate logs"
    );
}

#[test]
fn verify_stage_runs_the_harness_self_check() {
    let script = gate_script();
    // `verify::mutation_tests` prove the churn checks catch a mis-wired
    // scheme (DESIGN.md §8); tier-1 builds without the feature, so the
    // gate is where they run.
    let verify = script.find("== verify ==").expect("verify stage present");
    let examples = script
        .find("== examples ==")
        .expect("examples stage present");
    let stage = &script[verify..examples];
    let at = stage
        .find("-p pcm-core")
        .expect("verify stage must test pcm-core with its mutation switches");
    let check = &stage[at..];
    assert!(
        check.contains("--features verify-mutations mutation_tests"),
        "verify stage must run the verify-mutations self-check:\n{stage}"
    );
    assert!(
        check.contains(">> results/verify.txt"),
        "the self-check appends to the verify artifact, adding no new stem:\n{stage}"
    );
    assert!(
        check.contains("exit 1") && !stage.contains("if [ \"$"),
        "self-check failures must abort the gate, unconditionally:\n{stage}"
    );
}

#[test]
fn rivals_stage_is_present_ordered_and_unconditional() {
    let script = gate_script();
    let rivals = script
        .find("== rivals ==")
        .expect("rivals stage marker present");
    let serve = script.find("== serve ==").expect("serve stage present");
    let experiments = script
        .find("== experiments ==")
        .expect("experiments stage present");
    assert!(
        serve < rivals && rivals < experiments,
        "rival-stack gate runs between the serve smoke and the full matrix"
    );
    let stage = &script[rivals..experiments];
    assert!(
        stage.contains("run rival_lifetime --quick"),
        "rivals stage must drive the rival_lifetime grid through pcm-lab"
    );
    assert!(
        stage.contains("results/rivals.txt"),
        "rivals stage must leave its artifact in results/"
    );
    assert!(
        stage.contains("exit 1"),
        "rival-grid failures must abort the gate non-zero"
    );
    assert!(
        !stage.contains("if [ \"$"),
        "rivals stage must not be gated on a script flag:\n{stage}"
    );
}

#[test]
fn bench_stage_is_ratcheted_against_the_committed_reports() {
    let script = gate_script();
    let bench = script
        .find("== bench hotpath ==")
        .expect("bench stage present");
    let next = script.find("== serve ==").expect("serve stage present");
    let stage = &script[bench..next];
    assert!(
        stage.contains("--ratchet results/BENCH_hotpath_smoke.json"),
        "smoke bench must ratchet against the committed smoke report"
    );
    assert!(
        stage.contains("--ratchet BENCH_hotpath.json"),
        "full bench must ratchet against the committed calibrated report"
    );
}

#[test]
fn perfbench_stage_tests_the_benchmark_package_before_the_benches() {
    let script = gate_script();
    let perfbench = script
        .find("== perfbench ==")
        .expect("perfbench stage present");
    let examples = script
        .find("== examples ==")
        .expect("examples stage present");
    let bench = script
        .find("== bench hotpath ==")
        .expect("bench stage present");
    assert!(
        examples < perfbench && perfbench < bench,
        "the benchmark package is tested after the examples, before the benches"
    );
    let stage = &script[perfbench..bench];
    assert!(
        stage.contains("CARGO_TARGET_DIR=target")
            && stage.contains("cargo test --release --offline")
            && stage.contains("--manifest-path perfbench/Cargo.toml"),
        "perfbench stage must test the benchmark's own workspace:\n{stage}"
    );
    assert!(
        stage.contains("exit 1") && !stage.contains("if [ \"$"),
        "perfbench failures must abort the gate, unconditionally:\n{stage}"
    );
}

/// The `[profile.release]` settings of a manifest (and of its
/// `[profile.release.*]` sub-tables), one `table: key = value` entry
/// each, with comments and layout stripped.
fn release_profile(manifest: &str) -> Vec<String> {
    let path = format!("{}/{manifest}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut table = String::new();
    let mut entries = Vec::new();
    for line in text.lines() {
        let mut in_string = false;
        let code = line
            .split(|c: char| {
                in_string ^= c == '"';
                c == '#' && !in_string
            })
            .next()
            .unwrap_or_default()
            .trim();
        if let Some(header) = code.strip_prefix('[') {
            table = header.trim_end_matches(']').trim().to_string();
        } else if let Some((key, value)) = code.split_once('=') {
            if table == "profile.release" || table.starts_with("profile.release.") {
                entries.push(format!("{table}: {} = {}", key.trim(), value.trim()));
            }
        }
    }
    entries.sort();
    entries
}

#[test]
fn benchmark_builds_with_the_repository_release_profile() {
    // perfbench is a workspace of its own, so the root manifest's profile
    // does not reach it: its manifest repeats the table, and the
    // benchmark measures the shipped code only while the two agree.
    let root = release_profile("Cargo.toml");
    let bench = release_profile("perfbench/Cargo.toml");
    assert!(!root.is_empty(), "the root manifest sets a release profile");
    assert_eq!(
        root, bench,
        "Cargo.toml and perfbench/Cargo.toml must carry the same [profile.release]"
    );
}
