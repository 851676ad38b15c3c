//! Workspace symbol index: every function-like item in every scanned
//! file, keyed for the conservative call-graph resolution in
//! [`crate::graph`].
//!
//! The index is built once per scan from the per-file parser output
//! ([`crate::parser`]) plus the workspace manifests. All maps are
//! `BTreeMap`s and all id vectors are sorted, so iteration order — and
//! therefore the final report — is independent of `--jobs` scheduling.

use crate::lexer::Lexed;
use crate::parser::ParsedFile;
use crate::rules::{self, Pragma, RootMark};
use std::collections::{BTreeMap, BTreeSet};

/// Everything one scanned `.rs` file contributes to the workspace pass:
/// its tokens, parsed items, pragmas, and hot-path root annotations.
#[derive(Debug)]
pub struct Unit {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    /// Lexed token stream (bodies are analyzed straight off the tokens).
    pub lexed: Lexed,
    /// Parsed item structure.
    pub parsed: ParsedFile,
    /// Allow pragmas: the scan filters every finding in this file through
    /// them, and the call-graph walk prunes the calls they cover.
    pub pragmas: Vec<Pragma>,
    /// `root(<rule>)` annotations marking analysis entry points.
    pub roots: Vec<RootMark>,
}

/// One function-like node in the workspace graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index of the defining file in the unit list.
    pub file: usize,
    /// Index of the item within that file's `parsed.fns`.
    pub fn_idx: usize,
    /// Crate key (directory name under `crates/`, or `__root`).
    pub krate: String,
    /// Item name.
    pub name: String,
    /// 1-based line of the header.
    pub line: u32,
    /// `impl`/`trait` self type, when the item is a method.
    pub owner: Option<String>,
    /// Half-open token range of the body.
    pub body: (usize, usize),
    /// `macro_rules!` pseudo-function.
    pub is_macro: bool,
    /// Resolvable callee: library code, outside `#[cfg(test)]`, not a
    /// macro. Non-targets (bins, tests) still act as callers when rooted.
    pub is_target: bool,
}

/// The workspace-wide symbol index.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    /// All function-like nodes, in (file, declaration) order.
    pub nodes: Vec<FnNode>,
    /// name → target node ids (call-graph callees only).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// (owner, name) → target node ids, for `Type::method` paths.
    pub by_owner: BTreeMap<(String, String), Vec<usize>>,
    /// file index → all node ids declared in that file.
    pub by_file: Vec<Vec<usize>>,
    /// name → macro pseudo-fn node ids.
    pub macros: BTreeMap<String, Vec<usize>>,
    /// crate key → transitive dependency closure (including itself).
    /// Crates without a manifest (fixture trees) get the all-crates set.
    pub deps: BTreeMap<String, BTreeSet<String>>,
    /// Path-head identifier → crate key (`pcm_util` → `util`).
    pub crate_idents: BTreeMap<String, String>,
    /// Every crate key seen in the scan.
    pub all_crates: BTreeSet<String>,
}

/// Crate key for a repo-relative path: the directory name under
/// `crates/`, or `__root` for root `src/`, `tests/`, etc.
pub fn crate_of(rel: &str) -> String {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_string();
        }
    }
    "__root".to_string()
}

impl SymbolIndex {
    /// Builds the index over `units` (already sorted by path) and the
    /// workspace manifests (`(rel, content)` pairs).
    pub fn build(units: &[Unit], manifests: &[(String, String)]) -> SymbolIndex {
        let mut idx = SymbolIndex {
            by_file: vec![Vec::new(); units.len()],
            ..Default::default()
        };
        for (file, unit) in units.iter().enumerate() {
            let krate = crate_of(&unit.rel);
            idx.all_crates.insert(krate.clone());
            let lib = rules::is_lib_code(&unit.rel);
            for (fn_idx, f) in unit.parsed.fns.iter().enumerate() {
                let id = idx.nodes.len();
                let is_target = lib && !f.in_test && !f.is_macro;
                if is_target {
                    idx.by_name.entry(f.name.clone()).or_default().push(id);
                    if let Some(owner) = &f.owner {
                        idx.by_owner
                            .entry((owner.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                    }
                }
                if f.is_macro && lib && !f.in_test {
                    idx.macros.entry(f.name.clone()).or_default().push(id);
                }
                idx.by_file[file].push(id);
                idx.nodes.push(FnNode {
                    file,
                    fn_idx,
                    krate: krate.clone(),
                    name: f.name.clone(),
                    line: f.line,
                    owner: f.owner.clone(),
                    body: f.body,
                    is_macro: f.is_macro,
                    is_target,
                });
            }
        }
        idx.build_crate_maps(manifests);
        idx
    }

    /// Parses package names and `[dependencies]` sections out of the
    /// manifests, registers path-head identifiers, and closes the
    /// dependency relation transitively.
    fn build_crate_maps(&mut self, manifests: &[(String, String)]) {
        // First pass: package name → crate key, and path-head idents.
        let mut pkg_to_key: BTreeMap<String, String> = BTreeMap::new();
        for (rel, text) in manifests {
            let key = manifest_crate(rel);
            if let Some(pkg) = package_name(text) {
                pkg_to_key.insert(pkg.clone(), key.clone());
                self.crate_idents.insert(pkg.replace('-', "_"), key.clone());
            }
        }
        for key in &self.all_crates {
            // `core` would shadow the std `core::…` paths; every pcm crate
            // is addressed by its `pcm_…` package ident anyway.
            if !matches!(key.as_str(), "core" | "std" | "alloc" | "__root") {
                self.crate_idents.insert(key.clone(), key.clone());
            }
            self.crate_idents.insert(format!("pcm_{key}"), key.clone());
        }
        // Second pass: direct [dependencies] edges (dev-dependencies are
        // excluded: test-only edges must not widen hot-path reachability).
        let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (rel, text) in manifests {
            let key = manifest_crate(rel);
            let entry = direct.entry(key).or_default();
            let mut section = String::new();
            for raw in text.lines() {
                let line = raw.trim();
                if line.starts_with('[') {
                    section = line.trim_matches(['[', ']']).to_string();
                    continue;
                }
                if section != "dependencies" || line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let Some((name, _)) = line.split_once('=') else {
                    continue;
                };
                let name = name.trim().trim_end_matches(".workspace").trim();
                let dep_key = pkg_to_key
                    .get(name)
                    .cloned()
                    .or_else(|| name.strip_prefix("pcm-").map(str::to_string))
                    .unwrap_or_else(|| name.replace('-', "_"));
                if self.all_crates.contains(&dep_key) {
                    entry.insert(dep_key);
                }
            }
        }
        // Transitive closure, self always included.
        for key in &self.all_crates {
            let mut closure: BTreeSet<String> = BTreeSet::new();
            if let Some(seed) = direct.get(key) {
                closure.insert(key.clone());
                let mut frontier: Vec<String> = seed.iter().cloned().collect();
                while let Some(k) = frontier.pop() {
                    if closure.insert(k.clone()) {
                        if let Some(next) = direct.get(&k) {
                            frontier.extend(next.iter().cloned());
                        }
                    }
                }
            } else {
                // No manifest for this crate (fixture tree): conservative
                // fallback, every crate is reachable.
                closure = self.all_crates.clone();
            }
            self.deps.insert(key.clone(), closure);
        }
    }

    /// Dependency closure of a crate (always contains the crate itself).
    pub fn closure(&self, krate: &str) -> &BTreeSet<String> {
        static EMPTY: BTreeSet<String> = BTreeSet::new();
        self.deps.get(krate).unwrap_or(&EMPTY)
    }

    /// Node ids of the local-fn children of `node` (used to carve nested
    /// bodies out of a parent's site scan).
    pub fn children(&self, units: &[Unit], node: usize) -> Vec<usize> {
        let n = &self.nodes[node];
        self.by_file[n.file]
            .iter()
            .copied()
            .filter(|&c| {
                units[self.nodes[c].file].parsed.fns[self.nodes[c].fn_idx].parent == Some(n.fn_idx)
            })
            .collect()
    }
}

/// Crate key owning a manifest path.
fn manifest_crate(rel: &str) -> String {
    if rel == "Cargo.toml" {
        "__root".to_string()
    } else {
        crate_of(rel)
    }
}

/// `name = "…"` out of the `[package]` section.
fn package_name(text: &str) -> Option<String> {
    let mut in_package = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if !in_package {
            continue;
        }
        if let Some((k, v)) = line.split_once('=') {
            if k.trim() == "name" {
                return Some(v.trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn unit(rel: &str, src: &str) -> Unit {
        let lexed = lex(src);
        let parsed = parse(&lexed);
        Unit {
            rel: rel.to_string(),
            lexed,
            parsed,
            pragmas: Vec::new(),
            roots: Vec::new(),
        }
    }

    #[test]
    fn crate_keys() {
        assert_eq!(crate_of("crates/core/src/lib.rs"), "core");
        assert_eq!(crate_of("crates/serve/tests/replay.rs"), "serve");
        assert_eq!(crate_of("src/bin/pcm-verify.rs"), "__root");
        assert_eq!(crate_of("tests/audit_gate.rs"), "__root");
    }

    #[test]
    fn targets_exclude_tests_and_bins() {
        let units = vec![
            unit(
                "crates/core/src/lib.rs",
                "pub fn api() {}\n#[cfg(test)]\nmod t { fn inner() {} }\n",
            ),
            unit("crates/core/src/bin/tool.rs", "fn main() {}\n"),
            unit("crates/core/tests/smoke.rs", "fn probe() {}\n"),
        ];
        let idx = SymbolIndex::build(&units, &[]);
        assert_eq!(idx.by_name.get("api").map(Vec::len), Some(1));
        assert!(idx.by_name.get("main").is_none());
        assert!(idx.by_name.get("probe").is_none());
        assert!(idx.by_name.get("inner").is_none());
        // Non-targets still exist as nodes (callers), just not callees.
        assert_eq!(idx.nodes.len(), 4);
    }

    #[test]
    fn owner_map_keys_methods() {
        let units = vec![unit(
            "crates/serve/src/engine.rs",
            "pub struct Engine;\nimpl Engine { pub fn write(&mut self) {} }\n",
        )];
        let idx = SymbolIndex::build(&units, &[]);
        assert_eq!(
            idx.by_owner
                .get(&("Engine".to_string(), "write".to_string()))
                .map(Vec::len),
            Some(1)
        );
    }

    #[test]
    fn dep_closure_is_transitive_and_reflexive() {
        let manifests = vec![
            (
                "crates/serve/Cargo.toml".to_string(),
                "[package]\nname = \"pcm-serve\"\n[dependencies]\npcm-core.workspace = true\n"
                    .to_string(),
            ),
            (
                "crates/core/Cargo.toml".to_string(),
                "[package]\nname = \"pcm-core\"\n[dependencies]\npcm-util = { path = \"../util\" }\n[dev-dependencies]\nproptest.workspace = true\n"
                    .to_string(),
            ),
            (
                "crates/util/Cargo.toml".to_string(),
                "[package]\nname = \"pcm-util\"\n[dependencies]\n".to_string(),
            ),
        ];
        let units = vec![
            unit("crates/serve/src/lib.rs", "pub fn s() {}\n"),
            unit("crates/core/src/lib.rs", "pub fn c() {}\n"),
            unit("crates/util/src/lib.rs", "pub fn u() {}\n"),
        ];
        let idx = SymbolIndex::build(&units, &manifests);
        let serve = idx.closure("serve");
        assert!(serve.contains("serve") && serve.contains("core") && serve.contains("util"));
        let util = idx.closure("util");
        assert_eq!(util.len(), 1, "leaf crate only reaches itself: {util:?}");
        assert_eq!(
            idx.crate_idents.get("pcm_core").map(String::as_str),
            Some("core")
        );
        // `core` alone must NOT map to the pcm crate — it would shadow
        // std's `core::…` paths.
        assert!(!idx.crate_idents.contains_key("core") || idx.crate_idents["core"] != "core");
    }

    #[test]
    fn missing_manifest_falls_back_to_all_crates() {
        let units = vec![
            unit("crates/core/src/lib.rs", "pub fn c() {}\n"),
            unit("crates/serve/src/lib.rs", "pub fn s() {}\n"),
        ];
        let idx = SymbolIndex::build(&units, &[]);
        assert_eq!(idx.closure("core").len(), 2);
    }
}
