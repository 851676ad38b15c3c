//! Call-graph engine coverage: edge cases of the conservative resolver
//! (dependency-closure fan-out, external type-qualified paths, pragma
//! subtree pruning, root-mark attachment) plus the `pub-dead` keep-alive
//! policies, exercised over in-memory units and throwaway workspaces.

use pcm_audit::index::{FnNode, SymbolIndex, Unit};
use pcm_audit::{graph, lexer, parser, rules, Finding};
use std::fs;
use std::path::PathBuf;

/// Builds one analysis unit the same way the scanner does.
fn unit(rel: &str, src: &str) -> Unit {
    let lexed = lexer::lex(src);
    let rules::Directives {
        pragmas,
        roots,
        findings,
    } = rules::directives(rel, &lexed.comments);
    assert!(
        findings.is_empty(),
        "fixture source has malformed pragmas: {findings:?}"
    );
    let parsed = parser::parse(&lexed);
    Unit {
        rel: rel.to_string(),
        lexed,
        parsed,
        pragmas,
        roots,
    }
}

fn graph_findings(units: Vec<Unit>, manifests: &[(String, String)]) -> Vec<Finding> {
    let idx = SymbolIndex::build(&units, manifests);
    graph::check(&units, &idx)
}

fn manifest(rel: &str, name: &str, deps: &[&str]) -> (String, String) {
    let mut text = format!("[package]\nname = \"{name}\"\n[dependencies]\n");
    for d in deps {
        text.push_str(&format!("{d} = {{ path = \"../{d}\" }}\n"));
    }
    (rel.to_string(), text)
}

const HOT_ROOT: &str = "// pcm-audit: root(hotpath-alloc) — test hot loop\n";

#[test]
fn method_fanout_is_restricted_to_the_dependency_closure() {
    // `a` depends on `b` but not on `c`; both define `fn refresh` with an
    // allocation. The conservative fan-out must reach b's and skip c's.
    let units = vec![
        unit(
            "crates/a/src/lib.rs",
            &format!("{HOT_ROOT}pub fn hot_loop(x: &S) {{ x.refresh(); }}\n"),
        ),
        unit(
            "crates/b/src/lib.rs",
            "pub fn refresh() { let v = vec![1]; drop(v); }\n",
        ),
        unit(
            "crates/c/src/lib.rs",
            "pub fn refresh() { let v = vec![2]; drop(v); }\n",
        ),
    ];
    let manifests = [
        manifest("crates/a/Cargo.toml", "a", &["b"]),
        manifest("crates/b/Cargo.toml", "b", &[]),
        manifest("crates/c/Cargo.toml", "c", &[]),
    ];
    let findings = graph_findings(units, &manifests);
    let alloc: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "hotpath-alloc")
        .collect();
    assert_eq!(alloc.len(), 1, "{findings:#?}");
    assert_eq!(alloc[0].file, "crates/b/src/lib.rs");
}

#[test]
fn uppercase_owner_paths_outside_the_workspace_stay_external() {
    // `Scratch::make` matches no workspace impl: it must be treated as an
    // external associated fn, NOT fanned out to the free `fn make` below.
    let units = vec![unit(
        "crates/a/src/lib.rs",
        &format!(
            "{HOT_ROOT}pub fn hot_loop() -> u64 {{ Scratch::make(1) }}\n\
             pub fn make(x: u64) -> u64 {{ let v = vec![x]; v[0] }}\n"
        ),
    )];
    let manifests = [manifest("crates/a/Cargo.toml", "a", &[])];
    let findings = graph_findings(units, &manifests);
    assert!(
        findings.iter().all(|f| f.rule != "hotpath-alloc"),
        "{findings:#?}"
    );
}

#[test]
fn lowercase_module_paths_still_fan_out_by_name() {
    // A snake-case path head is a module, not an external type: the final
    // segment resolves by name inside the closure.
    let units = vec![
        unit(
            "crates/a/src/lib.rs",
            &format!("{HOT_ROOT}pub fn hot_loop() {{ scratch::make(1); }}\n"),
        ),
        unit(
            "crates/a/src/scratch.rs",
            "pub fn make(x: u64) -> u64 { let v = vec![x]; v[0] }\n",
        ),
    ];
    let manifests = [manifest("crates/a/Cargo.toml", "a", &[])];
    let findings = graph_findings(units, &manifests);
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == "hotpath-alloc")
            .count(),
        1,
        "{findings:#?}"
    );
}

#[test]
fn allow_pragma_on_a_call_line_prunes_the_callee_subtree() {
    let caller =
        |pragma: &str| format!("{HOT_ROOT}pub fn hot_loop() {{\n{pragma}    setup();\n}}\n");
    let callee = "pub fn setup() { let v = vec![0]; drop(v); }\n";
    let manifests = [manifest("crates/a/Cargo.toml", "a", &[])];

    let unpruned = graph_findings(
        vec![
            unit("crates/a/src/lib.rs", &caller("")),
            unit("crates/a/src/setup.rs", callee),
        ],
        &manifests,
    );
    assert_eq!(
        unpruned
            .iter()
            .filter(|f| f.rule == "hotpath-alloc")
            .count(),
        1,
        "{unpruned:#?}"
    );

    let pruned = graph_findings(
        vec![
            unit(
                "crates/a/src/lib.rs",
                &caller("    // pcm-audit: allow(hotpath-alloc) — one-time setup, vetted\n"),
            ),
            unit("crates/a/src/setup.rs", callee),
        ],
        &manifests,
    );
    assert!(
        pruned.iter().all(|f| f.rule != "hotpath-alloc"),
        "{pruned:#?}"
    );
}

#[test]
fn root_mark_attaching_to_nothing_is_reported() {
    let units = vec![unit(
        "crates/a/src/lib.rs",
        "// pcm-audit: root(hotpath-alloc) — floats at end of file\n\n\n\n\
         const X: u64 = 1;\n",
    )];
    let idx = SymbolIndex::build(&units, &[]);
    let findings = graph::check(&units, &idx);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "pragma" && f.message.contains("attaches to no fn")),
        "{findings:#?}"
    );
}

#[test]
fn doc_comments_describing_the_mark_syntax_are_inert() {
    let src = "\
/// Annotate entry points with `// pcm-audit: root(hotpath-alloc) — why`.\n\
/// Suppress a vetted call with `// pcm-audit: allow(panic-reach) — why`.\n\
pub fn document_the_scheme() {}\n";
    let d = rules::directives("crates/a/src/lib.rs", &lexer::lex(src).comments);
    assert!(
        d.findings.is_empty(),
        "doc comments produced findings: {:?}",
        d.findings
    );
    assert!(d.pragmas.is_empty());
    assert!(d.roots.is_empty());
}

#[test]
fn pub_dead_keep_alive_policies() {
    // Four pub fns: an orphan (fires), one kept by its own file's test
    // region, one kept by a doc-comment word in another file, one kept by
    // a bin target in the same crate.
    let units = vec![
        unit(
            "crates/a/src/lib.rs",
            "pub fn orphan() {}\n\
             pub fn test_kept() {}\n\
             pub fn doc_kept() {}\n\
             pub fn bin_kept() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() { super::test_kept(); }\n\
             }\n",
        ),
        unit(
            "crates/a/src/other.rs",
            "/// See [`doc_kept`] for the shared contract.\npub(crate) fn shim() {}\n",
        ),
        unit("crates/a/src/bin/tool.rs", "fn main() { bin_kept(); }\n"),
    ];
    let manifests = [manifest("crates/a/Cargo.toml", "a", &[])];
    let findings = graph_findings(units, &manifests);
    let dead: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule == "pub-dead")
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(dead.len(), 1, "{findings:#?}");
    assert!(dead[0].contains("orphan"));
}

#[test]
fn scan_of_a_throwaway_workspace_matches_the_unit_level_walk() {
    // End-to-end: the same chain as the fixture, driven through the real
    // directory scanner into a ScanReport.
    let root = temp_workspace(
        "endtoend",
        &[
            (
                "Cargo.toml",
                "[package]\nname = \"tmp\"\n[dependencies]\na = { path = \"crates/a\" }\n",
            ),
            (
                "crates/a/src/lib.rs",
                "//! Tiny workspace for the scanner walk.\n\n\
                 // pcm-audit: root(hotpath-alloc) — test hot loop\n\
                 pub fn hot_loop(xs: &mut Vec<u64>) { grow(xs); }\n\n\
                 fn grow(xs: &mut Vec<u64>) { xs.push(1); }\n",
            ),
            (
                "tests/smoke.rs",
                "#[test]\nfn smoke() { hot_loop(&mut Vec::new()); }\n",
            ),
        ],
    );
    let report: pcm_audit::ScanReport = pcm_audit::scan(&root, 1).expect("scan");
    let _ = fs::remove_dir_all(&root);
    let alloc: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| f.rule == "hotpath-alloc")
        .collect();
    assert_eq!(alloc.len(), 1, "{:#?}", report.findings);
    assert_eq!(alloc[0].file, "crates/a/src/lib.rs");
    assert!(report.findings.iter().all(|f| f.rule != "pub-dead"));
}

#[test]
fn unit_level_api_round_trip() {
    // The pieces the scanner composes — lexer, parser, per-file rules,
    // directives, resolver — each hold up on their own.
    let src = "/// Doc.\npub fn visible() {}\n\
               #[cfg(test)]\nmod tests { #[test] fn t() { super::visible(); } }\n";
    let lexed = lexer::lex(src);
    let toks: &[lexer::Tok] = &lexed.tokens;
    assert!(!toks.is_empty());
    let comments: &[lexer::Comment] = &lexed.comments;
    assert_eq!(comments.len(), 1);

    assert!(parser::is_keyword("fn"));
    assert!(!parser::is_keyword("visible"));
    let flags = parser::test_region_flags(&lexed.tokens);
    assert_eq!(flags.len(), lexed.tokens.len());
    assert!(flags.iter().any(|f| *f), "cfg(test) region not marked");
    let parsed = parser::parse(&lexed);
    let items: &[parser::PubItem] = &parsed.pub_items;
    assert!(items.iter().any(|i| i.name == "visible" && !i.in_test));

    assert!(rules::is_lib_code("crates/core/src/lib.rs"));
    assert!(!rules::is_lib_code("crates/core/tests/smoke.rs"));
    assert!(rules::GATE_STAGES.contains(&"== audit =="));

    assert!(rules::check_file("crates/x/src/lib.rs", &lexed).is_empty());

    let d: rules::Directives = rules::directives("crates/x/src/lib.rs", &lexed.comments);
    let pragmas: &[rules::Pragma] = &d.pragmas;
    let marks: &[rules::RootMark] = &d.roots;
    assert!(pragmas.is_empty() && marks.is_empty() && d.findings.is_empty());

    let ctx = rules::WorkspaceCtx::default();
    assert!(rules::check_workspace(&ctx).is_empty());

    let units = vec![unit("crates/a/src/lib.rs", src)];
    let idx = SymbolIndex::build(&units, &[]);
    let nodes: &[FnNode] = &idx.nodes;
    assert!(nodes.iter().any(|n| n.name == "visible"));
    let _resolver = graph::Graph::new(&units, &idx);
}

fn temp_workspace(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("pcm-audit-graph-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for (rel, text) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, text).expect("write");
    }
    root
}
