//! The audit rule table and rule implementations.
//!
//! Every rule has an id, a scope, and a one-line summary; `--list-rules`
//! prints this table and DESIGN.md §11 documents it. Adding a rule means
//! adding one [`RuleInfo`] row plus its check body here — the engine,
//! pragma filter, baseline, and CLI all key off the table.

use crate::lexer::{Comment, Kind, Lexed};

/// Where a rule runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Once per `.rs` file.
    File,
    /// Once per workspace (manifests, gate script, artifacts).
    Workspace,
}

/// One row of the rule table.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule id, used in pragmas and the baseline.
    pub id: &'static str,
    /// Scope the rule runs at.
    pub scope: Scope,
    /// One-line summary for `--list-rules` and docs.
    pub summary: &'static str,
}

/// Every rule the auditor knows, in presentation order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wallclock",
        scope: Scope::File,
        summary: "Instant::now/SystemTime outside the timing allowlist breaks replayability",
    },
    RuleInfo {
        id: "map-order",
        scope: Scope::File,
        summary: "default-hasher HashMap/HashSet in result-path crates (core/trace/bench); \
                  use BTreeMap/BTreeSet or sort before folding",
    },
    RuleInfo {
        id: "rng-source",
        scope: Scope::File,
        summary: "RNG constructed outside pcm_util::seeded_rng/split_seed plumbing",
    },
    RuleInfo {
        id: "thread-spawn",
        scope: Scope::File,
        summary: "thread::spawn/scope outside pcm_util::pool; ad-hoc parallelism can \
                  reintroduce scheduling-dependent results",
    },
    RuleInfo {
        id: "panic-unwrap",
        scope: Scope::File,
        summary: "bare unwrap() in library code; return Result or expect() with a message",
    },
    RuleInfo {
        id: "panic-macro",
        scope: Scope::File,
        summary: "panic!/unreachable!/todo!/unimplemented! in library code",
    },
    RuleInfo {
        id: "unsafe-block",
        scope: Scope::File,
        summary: "unsafe without an adjacent `// SAFETY:` comment; commented sites land \
                  in the inventory",
    },
    RuleInfo {
        id: "serve-ownership",
        scope: Scope::File,
        summary: "Arc<Mutex/RwLock> in serve/core library code; bank state is owned by \
                  value and handed out as &mut through the pool, never shared",
    },
    RuleInfo {
        id: "pragma",
        scope: Scope::File,
        summary: "malformed pcm-audit pragma (unknown rule id, missing reason, or a \
                  root() mark that attaches to no fn)",
    },
    RuleInfo {
        id: "hotpath-alloc",
        scope: Scope::File,
        summary: "allocating call (Vec::new/Box::new/push/clone/to_string/format!/vec!) \
                  reachable from a `root(hotpath-alloc)`-annotated hot-path fn",
    },
    RuleInfo {
        id: "panic-reach",
        scope: Scope::File,
        summary: "panic!/unwrap (everywhere) or expect/slice-indexing (serve crate) \
                  reachable from a `root(panic-reach)`-annotated connection handler",
    },
    RuleInfo {
        id: "pub-dead",
        scope: Scope::File,
        summary: "pub item in library code never referenced outside its defining crate \
                  (tests/bins/doctests count as outside)",
    },
    RuleInfo {
        id: "registry-dep",
        scope: Scope::Workspace,
        summary: "Cargo.toml dependency that is not a path/workspace dep (offline build)",
    },
    RuleInfo {
        id: "gate-stages",
        scope: Scope::Workspace,
        summary: "scripts_run_all.sh is missing a required gate stage",
    },
    RuleInfo {
        id: "artifact-sync",
        scope: Scope::Workspace,
        summary: "REGISTRY names, results/*.json, and EXPERIMENTS.md rows out of sync",
    },
];

/// Rules that accept `// pcm-audit: root(<rule>)` entry-point marks.
pub const ROOT_RULES: &[&str] = &["hotpath-alloc", "panic-reach"];

/// Looks a rule up by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// One audit finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line, or 0 for whole-file/workspace findings.
    pub line: u32,
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl Finding {
    /// Renders as `file:line: [rule] message` (no `:line` when 0).
    pub fn render(&self) -> String {
        if self.line == 0 {
            format!("{}: [{}] {}", self.file, self.rule, self.message)
        } else {
            format!(
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        }
    }
}

// ---------------------------------------------------------------- scoping

/// Files whose whole point is measuring wall-clock time.
const WALLCLOCK_ALLOW: &[&str] = &[
    "crates/bench/src/hotpath.rs",
    "crates/bench/src/registry.rs",
    "crates/bench/src/bin/pcm-lab.rs",
];

/// Crates whose outputs feed Report tables/series (the determinism
/// surface the `map-order` rule protects).
const MAP_ORDER_SCOPE: &[&str] = &["crates/core/src", "crates/trace/src", "crates/bench/src"];

/// The sanctioned home of RNG construction.
const RNG_ALLOW: &[&str] = &["crates/util/", "crates/rand/", "crates/proptest/"];

/// The sanctioned homes of thread creation: the deterministic job pool and
/// the auditor's own file walker (which never touches simulation results).
const THREAD_ALLOW: &[&str] = &["crates/util/src/pool.rs", "crates/audit/"];

/// Crates holding controller/bank state, where shared-ownership wrappers
/// would defeat the strict per-bank ownership the serve design rests on.
const SERVE_OWNERSHIP_SCOPE: &[&str] = &["crates/serve/src", "crates/core/src"];

/// Stage markers the gate script must keep, in order of appearance.
pub const GATE_STAGES: &[&str] = &[
    "== fmt check ==",
    "== audit ==",
    "== verify ==",
    "== examples ==",
    "== perfbench ==",
    "== bench hotpath ==",
    "== experiments ==",
    "== serve ==",
    "== rivals ==",
];

/// Non-experiment artifact stems the gate script itself writes.
const ARTIFACT_STEM_ALLOW: &[&str] = &[
    "audit",
    "bench_hotpath",
    "fmt",
    "perfbench",
    "rivals",
    "serve",
    "verify",
];

/// Non-experiment artifact stem prefixes (bench harness, example smoke).
const ARTIFACT_PREFIX_ALLOW: &[&str] = &["BENCH_", "example_"];

/// True for library code: under a crate's `src/` (or the root `src/`)
/// and not a binary target. Tests, benches, and examples live outside
/// `src/` and are excluded by construction.
pub fn is_lib_code(rel: &str) -> bool {
    let in_src = rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"));
    in_src && !rel.contains("src/bin/") && !rel.ends_with("src/main.rs")
}

fn path_allowed(rel: &str, allow: &[&str]) -> bool {
    allow.iter().any(|a| rel == *a || rel.starts_with(a))
}

// ---------------------------------------------------------------- pragmas

/// A parsed allow pragma: the `pcm-audit:` marker, a rule id in
/// parentheses, and a mandatory reason.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Line the pragma comment starts on; it covers this line and the next.
    pub line: u32,
    /// Rule id being allowed.
    pub rule: String,
    /// Justification text (must be non-empty).
    pub reason: String,
}

/// Extracts pragmas from a file's comments; malformed ones become
/// findings under the `pragma` rule.
pub fn collect_pragmas(
    rel: &str,
    comments: &[Comment],
    findings: &mut Vec<Finding>,
) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for c in comments {
        // Doc comments describe the syntax; only plain comments suppress.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = c.text.find("pcm-audit:") else {
            continue;
        };
        // Only `pcm-audit:` immediately followed by `allow(` is a pragma;
        // prose that merely mentions the tool is left alone.
        let rest = c.text[at + "pcm-audit:".len()..].trim_start();
        if !rest.starts_with("allow(") {
            continue;
        }
        let bad = |findings: &mut Vec<Finding>, msg: &str| {
            findings.push(Finding {
                file: rel.to_string(),
                line: c.line,
                rule: "pragma",
                message: msg.to_string(),
            });
        };
        let Some(close) = rest.find(')') else {
            bad(
                findings,
                "pragma is missing the closing ')' after the rule id",
            );
            continue;
        };
        let id = rest["allow(".len()..close].trim();
        if rule(id).is_none() {
            bad(findings, &format!("pragma names unknown rule '{id}'"));
            continue;
        }
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\t', '-', '—', ':', '–'])
            .trim();
        if reason.is_empty() {
            bad(
                findings,
                &format!("pragma allow({id}) needs a reason after the rule id"),
            );
            continue;
        }
        pragmas.push(Pragma {
            line: c.line,
            rule: id.to_string(),
            reason: reason.to_string(),
        });
    }
    pragmas
}

/// A `root(<rule>)` mark declaring the next fn item an analysis entry
/// point for one of the [`ROOT_RULES`].
#[derive(Debug, Clone)]
pub struct RootMark {
    /// Line the mark comment starts on; it annotates the next fn item.
    pub line: u32,
    /// The rule whose reachability analysis starts here.
    pub rule: &'static str,
}

/// Extracts `root(<rule>)` marks from a file's comments; malformed ones
/// (unknown rule, non-root rule, missing reason) become `pragma`
/// findings.
pub fn collect_root_marks(
    rel: &str,
    comments: &[Comment],
    findings: &mut Vec<Finding>,
) -> Vec<RootMark> {
    let mut marks = Vec::new();
    for c in comments {
        // Doc comments describe the syntax; only plain comments carry marks.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = c.text.find("pcm-audit:") else {
            continue;
        };
        let rest = c.text[at + "pcm-audit:".len()..].trim_start();
        if !rest.starts_with("root(") {
            continue;
        }
        let bad = |findings: &mut Vec<Finding>, msg: String| {
            findings.push(Finding {
                file: rel.to_string(),
                line: c.line,
                rule: "pragma",
                message: msg,
            });
        };
        let Some(close) = rest.find(')') else {
            bad(
                findings,
                "root mark is missing the closing ')' after the rule id".to_string(),
            );
            continue;
        };
        let id = rest["root(".len()..close].trim();
        let Some(info) = rule(id) else {
            bad(findings, format!("root mark names unknown rule '{id}'"));
            continue;
        };
        if !ROOT_RULES.contains(&info.id) {
            bad(
                findings,
                format!("rule '{id}' does not take root() marks (only {ROOT_RULES:?} do)"),
            );
            continue;
        }
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\t', '-', '—', ':', '–'])
            .trim();
        if reason.is_empty() {
            bad(
                findings,
                format!("root({id}) needs a reason describing the hot-path contract"),
            );
            continue;
        }
        marks.push(RootMark {
            line: c.line,
            rule: info.id,
        });
    }
    marks
}

/// Drops findings covered by a pragma on the same or preceding line.
pub fn apply_pragmas(findings: Vec<Finding>, pragmas: &[Pragma]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            !pragmas
                .iter()
                .any(|p| p.rule == f.rule && (f.line == p.line || f.line == p.line + 1))
        })
        .collect()
}

// ---------------------------------------------------------------- file rules

// `#[cfg(test)]` region marking moved to the item parser, which shares it
// with the symbol index.
pub use crate::parser::test_region_flags;

/// Output of the per-file checks.
#[derive(Debug, Default)]
pub struct FileOutput {
    /// Findings (pragmas already applied).
    pub findings: Vec<Finding>,
    /// `file:line` entries for `unsafe` sites carrying a SAFETY comment.
    pub unsafe_inventory: Vec<String>,
}

/// Runs every file-scoped rule over one lexed `.rs` file.
pub fn check_file(rel: &str, lexed: &Lexed) -> FileOutput {
    let mut out = FileOutput::default();
    let mut findings = Vec::new();
    let pragmas = collect_pragmas(rel, &lexed.comments, &mut findings);
    let in_test = test_region_flags(&lexed.tokens);
    let lib = is_lib_code(rel);
    let toks = &lexed.tokens;

    let ident = |i: usize| toks.get(i).filter(|t| t.kind == Kind::Ident);
    let punct = |i: usize, c: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == Kind::Punct && t.text == c)
    };

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != Kind::Ident {
            continue;
        }

        // wallclock: ambient time sources outside the timing allowlist.
        if !path_allowed(rel, WALLCLOCK_ALLOW) {
            let instant_now = t.text == "Instant"
                && punct(i + 1, ":")
                && punct(i + 2, ":")
                && ident(i + 3).is_some_and(|n| n.text == "now");
            if instant_now || t.text == "SystemTime" {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: "wallclock",
                    message: format!(
                        "ambient time source `{}` outside the timing allowlist; \
                         thread timing through a parameter or move it to an allowlisted file",
                        if instant_now {
                            "Instant::now"
                        } else {
                            "SystemTime"
                        }
                    ),
                });
            }
        }

        // map-order: default-hasher maps in result-path crates.
        if !in_test[i]
            && path_allowed(rel, MAP_ORDER_SCOPE)
            && (t.text == "HashMap" || t.text == "HashSet")
        {
            findings.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: "map-order",
                message: format!(
                    "`{}` in a result-path crate: iteration order is nondeterministic; \
                     use BTreeMap/BTreeSet, sort before folding, or pragma-annotate \
                     a genuinely order-free use",
                    t.text
                ),
            });
        }

        // rng-source: RNG construction outside the seeded plumbing.
        if !path_allowed(rel, RNG_ALLOW)
            && matches!(
                t.text.as_str(),
                "seed_from_u64" | "SeedableRng" | "from_entropy" | "thread_rng"
            )
        {
            findings.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: "rng-source",
                message: format!(
                    "`{}` outside pcm-util: derive RNGs via pcm_util::seeded_rng / split_seed \
                     so every stream is pinned to an experiment seed",
                    t.text
                ),
            });
        }

        // thread-spawn: ad-hoc thread creation outside the job pool.
        if !in_test[i]
            && !path_allowed(rel, THREAD_ALLOW)
            && t.text == "thread"
            && punct(i + 1, ":")
            && punct(i + 2, ":")
        {
            if let Some(entry) = ident(i + 3).filter(|n| n.text == "spawn" || n.text == "scope") {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: "thread-spawn",
                    message: format!(
                        "`thread::{}` outside pcm_util::pool: route parallel work through \
                         the shared Pool so results stay scheduling-invariant",
                        entry.text
                    ),
                });
            }
        }

        // panic-unwrap / panic-macro: library code only, tests excluded.
        if lib && !in_test[i] {
            if t.text == "unwrap" && punct(i + 1, "(") && punct(i + 2, ")") {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: "panic-unwrap",
                    message: "bare unwrap() in library code: return a Result, or use \
                              expect() with an invariant message, or pragma-annotate"
                        .to_string(),
                });
            }
            if matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) && punct(i + 1, "!")
            {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: "panic-macro",
                    message: format!(
                        "`{}!` in library code: return an error or pragma-annotate the invariant",
                        t.text
                    ),
                });
            }
        }

        // serve-ownership: Arc<Mutex/RwLock> around bank/controller state.
        if !in_test[i]
            && path_allowed(rel, SERVE_OWNERSHIP_SCOPE)
            && t.text == "Arc"
            && punct(i + 1, "<")
        {
            // The wrapped type may be a path (`std::sync::Mutex`): walk
            // `ident (:: ident)*` until the path ends.
            let mut j = i + 2;
            while let Some(tok) = toks.get(j) {
                match tok.kind {
                    Kind::Ident => {
                        if tok.text == "Mutex" || tok.text == "RwLock" {
                            findings.push(Finding {
                                file: rel.to_string(),
                                line: t.line,
                                rule: "serve-ownership",
                                message: format!(
                                    "`Arc<{}>` shared state in an ownership-critical crate: \
                                     bank/controller state must be owned by value and handed \
                                     out as &mut (Pool::map_each_mut), never lock-shared",
                                    tok.text
                                ),
                            });
                            break;
                        }
                        j += 1;
                    }
                    Kind::Punct if tok.text == ":" => j += 1,
                    _ => break,
                }
            }
        }

        // unsafe-block: inventory with SAFETY comment, finding without.
        if t.text == "unsafe" {
            let has_safety = lexed
                .comments
                .iter()
                .any(|c| c.text.contains("SAFETY:") && c.line + 3 >= t.line && c.line <= t.line);
            if has_safety {
                out.unsafe_inventory.push(format!("{rel}:{}", t.line));
            } else {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: "unsafe-block",
                    message: "`unsafe` without an adjacent `// SAFETY:` comment; the workspace \
                              is unsafe-free by policy"
                        .to_string(),
                });
            }
        }
    }

    out.findings = apply_pragmas(findings, &pragmas);
    out.findings.sort();
    out.findings.dedup();
    out
}

// ------------------------------------------------------------ workspace rules

/// Inputs for the workspace-scoped rules, gathered by the walker.
#[derive(Debug, Default)]
pub struct WorkspaceCtx {
    /// `(rel path, content)` of every Cargo.toml.
    pub manifests: Vec<(String, String)>,
    /// Content of `scripts_run_all.sh`, if present.
    pub gate_script: Option<String>,
    /// Experiment names extracted from `crates/bench/src/experiments/*.rs`.
    pub registry_names: Vec<String>,
    /// File names (not paths) under `results/`.
    pub results_files: Vec<String>,
    /// Content of `EXPERIMENTS.md`, if present.
    pub experiments_md: Option<String>,
}

/// Extracts registry names from a lexed experiments source file: the
/// first string literal following each `fn name` item header.
pub fn registry_names_in(lexed: &Lexed) -> Vec<String> {
    let toks = &lexed.tokens;
    let mut names = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind == Kind::Ident
            && toks[i].text == "fn"
            && toks.get(i + 1).is_some_and(|t| t.text == "name")
        {
            for t in toks.iter().skip(i + 2).take(16) {
                if t.kind == Kind::Str {
                    names.push(t.text.clone());
                    break;
                }
                if t.text == "}" || t.text == ";" {
                    break;
                }
            }
        }
    }
    names
}

/// Runs every workspace-scoped rule.
pub fn check_workspace(ctx: &WorkspaceCtx) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_registry_deps(ctx, &mut findings);
    check_gate_stages(ctx, &mut findings);
    check_artifact_sync(ctx, &mut findings);
    findings.sort();
    findings.dedup();
    findings
}

/// Offline hygiene: every dependency must resolve inside the workspace.
fn check_registry_deps(ctx: &WorkspaceCtx, findings: &mut Vec<Finding>) {
    for (rel, text) in &ctx.manifests {
        let mut section = String::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.starts_with('[') {
                section = line.trim_matches(['[', ']']).to_string();
                continue;
            }
            let dep_section = matches!(
                section.as_str(),
                "dependencies"
                    | "dev-dependencies"
                    | "build-dependencies"
                    | "workspace.dependencies"
            );
            if !dep_section || line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((name, value)) = line.split_once('=') else {
                continue;
            };
            let (name, value) = (name.trim(), value.trim());
            // `foo.workspace = true` inherits the workspace (path) dep;
            // `foo = { path = … }` / `{ workspace = true }` are inline.
            if name.ends_with(".workspace") || value.contains("path") || value.contains("workspace")
            {
                continue;
            }
            findings.push(Finding {
                file: rel.clone(),
                line: lineno as u32 + 1,
                rule: "registry-dep",
                message: format!(
                    "dependency `{}` is not a path/workspace dep; registry deps cannot \
                     resolve in the offline container",
                    name.trim()
                ),
            });
        }
    }
}

/// The gate script must keep every stage (and the drivers they invoke).
fn check_gate_stages(ctx: &WorkspaceCtx, findings: &mut Vec<Finding>) {
    let Some(script) = &ctx.gate_script else {
        return;
    };
    for marker in GATE_STAGES {
        if !script.contains(marker) {
            findings.push(Finding {
                file: "scripts_run_all.sh".to_string(),
                line: 0,
                rule: "gate-stages",
                message: format!("required stage marker `{marker}` is missing"),
            });
        }
    }
    for driver in ["pcm-audit", "pcm-lab", "pcm-verify", "pcm-serve"] {
        if !script.contains(driver) {
            findings.push(Finding {
                file: "scripts_run_all.sh".to_string(),
                line: 0,
                rule: "gate-stages",
                message: format!("gate script no longer invokes `{driver}`"),
            });
        }
    }
}

fn stem_allowed(stem: &str, names: &[String]) -> bool {
    names.iter().any(|n| n == stem)
        || ARTIFACT_STEM_ALLOW.contains(&stem)
        || ARTIFACT_PREFIX_ALLOW.iter().any(|p| stem.starts_with(p))
}

/// Registry names ↔ tracked results ↔ EXPERIMENTS.md rows, both ways.
fn check_artifact_sync(ctx: &WorkspaceCtx, findings: &mut Vec<Finding>) {
    let mut push = |file: String, message: String| {
        findings.push(Finding {
            file,
            line: 0,
            rule: "artifact-sync",
            message,
        });
    };
    // The audit gate's machine-readable artifact: whenever a results/
    // tree is tracked, `results/audit.json` and the gate script's
    // `--json` emission must appear together or not at all.
    if !ctx.results_files.is_empty() {
        if let Some(script) = &ctx.gate_script {
            let script_writes = script.contains("results/audit.json");
            let tracked = ctx.results_files.iter().any(|f| f == "audit.json");
            if script_writes && !tracked {
                push(
                    "results/audit.json".to_string(),
                    "the gate script writes results/audit.json but no such artifact \
                     is tracked"
                        .to_string(),
                );
            }
            if tracked && !script_writes {
                push(
                    "results/audit.json".to_string(),
                    "tracked results/audit.json is not regenerated by the gate script \
                     (the audit stage's --json emission is missing)"
                        .to_string(),
                );
            }
        }
    }
    let names = &ctx.registry_names;
    if names.is_empty() {
        return;
    }
    for name in names {
        if !ctx
            .results_files
            .iter()
            .any(|f| f == &format!("{name}.json"))
        {
            push(
                format!("results/{name}.json"),
                format!("registry experiment `{name}` has no tracked results/{name}.json"),
            );
        }
        if let Some(md) = &ctx.experiments_md {
            if !md.contains(name.as_str()) {
                push(
                    "EXPERIMENTS.md".to_string(),
                    format!("registry experiment `{name}` has no EXPERIMENTS.md row"),
                );
            }
        }
    }
    for f in &ctx.results_files {
        let Some((stem, ext)) = f.rsplit_once('.') else {
            continue;
        };
        if matches!(ext, "json" | "txt") && !stem_allowed(stem, names) {
            push(
                format!("results/{f}"),
                format!("tracked artifact `{f}` matches no registry experiment"),
            );
        }
    }
    if let Some(md) = &ctx.experiments_md {
        for stem in referenced_stems(md) {
            if !stem_allowed(&stem, names) {
                push(
                    "EXPERIMENTS.md".to_string(),
                    format!(
                        "EXPERIMENTS.md references `{stem}`, which is not a registry experiment"
                    ),
                );
            }
        }
    }
}

/// Stems of `<word>.txt` / `<word>.json` references in a markdown file.
fn referenced_stems(md: &str) -> Vec<String> {
    let mut stems = Vec::new();
    let bytes = md.as_bytes();
    for ext in [".txt", ".json"] {
        let mut from = 0;
        while let Some(at) = md[from..].find(ext) {
            let end = from + at;
            let mut start = end;
            while start > 0
                && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_')
            {
                start -= 1;
            }
            if start < end {
                stems.push(md[start..end].to_string());
            }
            from = end + ext.len();
        }
    }
    stems.sort();
    stems.dedup();
    stems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn rule_ids_are_unique() {
        let mut ids: Vec<_> = RULES.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(n, ids.len());
        assert!(rule("wallclock").is_some());
        assert!(rule("nope").is_none());
    }

    #[test]
    fn cfg_test_region_is_skipped() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.expect(\"set\") }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        let out = check_file("crates/core/src/x.rs", &lex(src));
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn unwrap_in_lib_code_is_flagged_not_in_bins() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(
            check_file("crates/core/src/x.rs", &lex(src)).findings.len(),
            1
        );
        assert!(check_file("crates/core/src/bin/x.rs", &lex(src))
            .findings
            .is_empty());
        assert!(check_file("crates/core/tests/x.rs", &lex(src))
            .findings
            .is_empty());
    }

    #[test]
    fn pragma_suppresses_and_requires_reason() {
        let good = "// pcm-audit: allow(panic-unwrap) — trusted input, fuzzed in tests\n\
                    pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(check_file("crates/core/src/x.rs", &lex(good))
            .findings
            .is_empty());
        let bare = "// pcm-audit: allow(panic-unwrap)\n\
                    pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let out = check_file("crates/core/src/x.rs", &lex(bare));
        assert!(out.findings.iter().any(|f| f.rule == "pragma"));
        assert!(out.findings.iter().any(|f| f.rule == "panic-unwrap"));
    }

    #[test]
    fn registry_name_extraction() {
        let src = "impl Experiment for A { fn name(&self) -> &'static str { \"fig10\" } }\n\
                   impl Experiment for B { fn name(&self) -> &'static str { \"tbl4\" } }\n";
        assert_eq!(registry_names_in(&lex(src)), vec!["fig10", "tbl4"]);
    }

    #[test]
    fn referenced_stem_extraction() {
        let md = "see results/fig10_lifetime.txt and `BENCH_hotpath.json`, not file.rs";
        assert_eq!(
            referenced_stems(md),
            vec!["BENCH_hotpath".to_string(), "fig10_lifetime".to_string()]
        );
    }
}
