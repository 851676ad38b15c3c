//! `pcm-audit` — workspace-wide determinism & hygiene lints.
//!
//! Every number this reproduction reports is only trustworthy because the
//! pipeline is deterministic under a pinned seed. The runtime harnesses
//! (`pcm-verify`, `pcm-lab diff`, the thread-invariance tests) check that
//! property *after the fact*; this crate enforces it *by construction*
//! with a static pass over every `.rs` file, `Cargo.toml`, and the gate
//! script. See DESIGN.md §11 for the rule table and policy.
//!
//! The crate is fully self-contained: a minimal Rust lexer ([`lexer`]),
//! a total recursive-descent item parser ([`parser`]), a workspace
//! symbol index ([`index`]) feeding a conservative call graph
//! ([`graph`]), and a table-driven rule engine ([`rules`]) — no external
//! dependencies, so it builds first and fast in the offline container.
//! An inline `// pcm-audit: allow(<rule>) — <reason>` pragma is the only
//! way to silence a finding.
//!
//! # Examples
//!
//! ```no_run
//! use std::path::Path;
//!
//! let report = pcm_audit::scan(Path::new("."), 1).expect("workspace scan");
//! println!("{}", pcm_audit::render(&report));
//! println!("{}", pcm_audit::render_json(&report));
//! ```

#![forbid(unsafe_code)]

pub mod graph;
pub mod index;
pub mod lexer;
pub mod parser;
pub mod rules;

pub use rules::{Finding, RuleInfo, RULES};

use rules::WorkspaceCtx;
use std::path::{Path, PathBuf};

/// Directory subtrees the walker never descends into, relative to root.
const SKIP_DIRS: &[&str] = &["target", ".git", "crates/audit/tests/fixtures"];

/// Everything one scan produced.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Source files scanned (`.rs` + manifests + script + docs).
    pub files_scanned: usize,
    /// Findings no pragma covers, sorted by (file, line, rule, message).
    pub findings: Vec<Finding>,
}

/// Walks the workspace at `root` and runs every rule, fanning file checks
/// out over `jobs` threads. Output is independent of `jobs`: per-file
/// results are merged and re-sorted by path before the symbol index is
/// built, so the call-graph pass and the final report see the same world
/// regardless of scheduling.
///
/// # Errors
///
/// Returns a message if the workspace cannot be read.
pub fn scan(root: &Path, jobs: usize) -> Result<ScanReport, String> {
    let mut rs_files = Vec::new();
    let mut manifests = Vec::new();
    walk(root, root, &mut rs_files, &mut manifests)?;
    rs_files.sort();
    manifests.sort();

    let mut report = ScanReport {
        files_scanned: rs_files.len() + manifests.len(),
        ..Default::default()
    };

    // File-scoped rules, optionally in parallel. Chunked round-robin so a
    // directory of heavy files spreads across workers; determinism comes
    // from the sort below, not the schedule.
    let jobs = jobs.max(1).min(rs_files.len().max(1));
    let mut per_file: Vec<PerFile> = if jobs == 1 {
        rs_files
            .iter()
            .map(|p| process_rs(root, p))
            .collect::<Result<_, _>>()?
    } else {
        let chunks: Vec<Vec<&PathBuf>> = (0..jobs)
            .map(|w| rs_files.iter().skip(w).step_by(jobs).collect())
            .collect();
        let results: Vec<Result<Vec<_>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| scope.spawn(|| chunk.iter().map(|p| process_rs(root, p)).collect()))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(_) => Err("audit worker thread panicked".to_string()),
                })
                .collect()
        });
        let mut merged = Vec::new();
        for r in results {
            merged.extend(r?);
        }
        merged
    };
    // Parallel chunks interleave; restore path order so node ids (and
    // with them every downstream sort) are schedule-independent.
    per_file.sort_by(|a, b| a.unit.rel.cmp(&b.unit.rel));

    let mut registry_sources: Vec<(String, String)> = Vec::new();
    let mut units: Vec<index::Unit> = Vec::new();
    for pf in per_file {
        report.findings.extend(pf.findings);
        registry_sources.extend(pf.registry);
        units.push(pf.unit);
    }

    // Workspace context (manifests feed both the registry-dep rule and
    // the symbol index's crate-dependency closure).
    let mut ctx = WorkspaceCtx::default();
    for m in &manifests {
        ctx.manifests.push((rel_path(root, m), read(m)?));
    }
    let script = root.join("scripts_run_all.sh");
    if script.is_file() {
        report.files_scanned += 1;
        ctx.gate_script = Some(read(&script)?);
    }
    let md = root.join("EXPERIMENTS.md");
    if md.is_file() {
        report.files_scanned += 1;
        ctx.experiments_md = Some(read(&md)?);
    }
    registry_sources.sort();
    ctx.registry_names = registry_sources.into_iter().map(|(_, n)| n).collect();
    ctx.results_files = list_results(&root.join("results"))?;

    // Inter-procedural rules: symbol index → call graph → reachability.
    let idx = index::SymbolIndex::build(&units, &ctx.manifests);
    report.findings.extend(graph::check(&units, &idx));
    report.findings.extend(rules::check_workspace(&ctx));

    // The one suppression filter: a finding goes when a pragma in its own
    // file covers it, whichever rule or pass produced it. Units are in
    // path order, so the file lookup is a binary search.
    report.findings.retain(|f| {
        !units
            .binary_search_by(|u| u.rel.as_str().cmp(&f.file))
            .is_ok_and(|i| units[i].pragmas.iter().any(|p| p.covers(f)))
    });
    report.findings.sort();
    report.findings.dedup();
    Ok(report)
}

/// Per-file scan output: the analysis unit plus its file-scoped findings.
struct PerFile {
    unit: index::Unit,
    findings: Vec<Finding>,
    registry: Vec<(String, String)>,
}

/// Lexes, checks, and parses one `.rs` file, reading its `pcm-audit:`
/// comments once; experiment sources also yield their registry names,
/// keyed by path so parallel scheduling cannot reorder them (the caller
/// sorts by path before extracting).
fn process_rs(root: &Path, path: &Path) -> Result<PerFile, String> {
    let rel = rel_path(root, path);
    let lexed = lexer::lex(&read(path)?);
    let rules::Directives {
        pragmas,
        roots,
        mut findings,
    } = rules::directives(&rel, &lexed.comments);
    findings.extend(rules::check_file(&rel, &lexed));
    let registry = if rel.starts_with("crates/bench/src/experiments/") {
        rules::registry_names_in(&lexed)
            .into_iter()
            .map(|name| (rel.clone(), name))
            .collect()
    } else {
        Vec::new()
    };
    let parsed = parser::parse(&lexed);
    Ok(PerFile {
        unit: index::Unit {
            rel,
            lexed,
            parsed,
            pragmas,
            roots,
        },
        findings,
        registry,
    })
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn walk(
    root: &Path,
    dir: &Path,
    rs: &mut Vec<PathBuf>,
    manifests: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let rel = rel_path(root, &path);
        if path.is_dir() {
            if SKIP_DIRS.contains(&rel.as_str()) {
                continue;
            }
            walk(root, &path, rs, manifests)?;
        } else if rel.ends_with(".rs") {
            rs.push(path);
        } else if path.file_name().is_some_and(|n| n == "Cargo.toml") {
            manifests.push(path);
        }
    }
    Ok(())
}

fn list_results(dir: &Path) -> Result<Vec<String>, String> {
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut files = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        if entry.path().is_file() {
            files.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    files.sort();
    Ok(files)
}

/// Renders the deterministic findings report. Contains no timestamps or
/// machine state, so two clean runs are byte-identical — the property the
/// self-check test pins. A clean report is the header plus `result: ok`.
pub fn render(report: &ScanReport) -> String {
    let n = report.findings.len();
    let mut out = format!(
        "pcm-audit: {} files scanned, {} rules, {n} finding(s)\n",
        report.files_scanned,
        RULES.len(),
    );
    for f in &report.findings {
        out.push_str(&f.render());
        out.push('\n');
    }
    if n == 0 {
        out.push_str("result: ok\n");
    } else {
        // Repeat the count: the gate prints only the report's tail.
        out.push_str(&format!("result: FAIL ({n} finding(s))\n"));
    }
    out
}

/// Renders the report as machine-readable JSON (the `--json` CLI output,
/// written to `results/audit.json` by the gate). Same determinism
/// contract as [`render`]: byte-identical across runs and `--jobs`.
pub fn render_json(report: &ScanReport) -> String {
    let mut out = format!(
        "{{\n  \"files_scanned\": {},\n  \"rules\": {},\n  \"findings\": [",
        report.files_scanned,
        RULES.len()
    );
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            json_str(&f.file),
            f.line,
            json_str(f.rule),
            json_str(&f.message)
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    let result = if report.findings.is_empty() {
        "ok"
    } else {
        "fail"
    };
    out.push_str(&format!("],\n  \"result\": {}\n}}\n", json_str(result)));
    out
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
