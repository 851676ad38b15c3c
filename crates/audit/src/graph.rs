//! Conservative call graph + the inter-procedural rules built on it:
//! `hotpath-alloc`, `panic-reach`, and `pub-dead`.
//!
//! # Resolution policy (DESIGN.md §11)
//!
//! The graph never under-approximates on purpose: when a call cannot be
//! resolved precisely, it resolves to *every* plausible target rather
//! than none, so "no banned call is reachable" remains a sound claim.
//!
//! * **Bare calls** `f(…)` resolve through the scopes a reader would
//!   check: innermost enclosing local fn, then file top-level fns, then
//!   `use` aliases, then glob imports, then any same-crate fn named `f`.
//! * **Path calls** `a::b::f(…)` expand `use` aliases on the head
//!   segment, map crate idents (`pcm_util` → `crates/util`), then try an
//!   `(owner, name)` method lookup before falling back to a name lookup
//!   inside the target crate (or the caller's dependency closure when
//!   the head is a local module the parser cannot see across files).
//!   `std`/`core`/`alloc` paths are external and resolve to nothing —
//!   the *banned-call* checks catch `Vec::new` etc. at the call site
//!   itself, not through resolution.
//! * **Method calls** `x.m(…)` and UFCS tails `<T as Tr>::m(…)` resolve
//!   to every library fn named `m` in the caller crate's transitive
//!   dependency closure — conservative trait-object dispatch: all impls
//!   are possible receivers.
//! * **Macro calls** `m!(…)` resolve to `macro_rules!` pseudo-fns, whose
//!   bodies are scanned like any other body.
//!
//! Reachability is a BFS from the `// pcm-audit: root(<rule>)`-annotated
//! fns, roots processed in (file, line) order so every finding is
//! attributed to the first root that reaches it and reports are
//! byte-identical across runs and `--jobs` counts.

use crate::index::{crate_of, FnNode, SymbolIndex, Unit};
use crate::lexer::{Kind, Tok};
use crate::parser::is_keyword;
use crate::rules::{self, Finding, ROOT_RULES};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Method names that allocate (ban set for `hotpath-alloc`).
const ALLOC_METHODS: &[&str] = &["clone", "push", "to_string"];
/// `Type::fn` paths that allocate.
const ALLOC_PATHS: &[(&str, &str)] = &[("Vec", "new"), ("Box", "new")];
/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];
/// Macros that panic (kept in sync with the `panic-macro` rule).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Vendored dependency shims: their pub surface mirrors the upstream
/// crates and is exempt from `pub-dead`.
const SHIM_CRATES: &[&str] = &["rand", "serde", "serde_derive", "proptest"];

/// One call site inside a fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `f(…)` — plain identifier call.
    Bare(String),
    /// `a::b::f(…)` — path call, segments in order.
    Path(Vec<String>),
    /// `x.m(…)` — method call.
    Method(String),
    /// `<T as Tr>::m(…)` / `Ty::<A>::m(…)` — UFCS tail; resolved like a
    /// method call (all impls).
    Ufcs(String),
    /// `m!(…)` — macro invocation.
    Macro(String),
}

/// All analyzable sites of one fn body.
#[derive(Debug, Default)]
pub struct BodySites {
    /// Calls, in source order.
    pub calls: Vec<(Callee, u32)>,
    /// Lines with slice-indexing expressions (`x[i]`, `buf[a..b]`).
    pub index_lines: Vec<u32>,
}

/// Extracts call and indexing sites from `toks[range)`, skipping the
/// `skip` sub-ranges (nested local fns own their sites).
pub fn body_sites(toks: &[Tok], range: (usize, usize), skip: &[(usize, usize)]) -> BodySites {
    let mut out = BodySites::default();
    let (start, end) = range;
    let end = end.min(toks.len());
    let text = |i: usize| toks.get(i).map_or("", |t: &Tok| t.text.as_str());
    let mut i = start;
    'scan: while i < end {
        for &(s, e) in skip {
            if i >= s && i < e {
                i = e;
                continue 'scan;
            }
        }
        let t = &toks[i];
        // Macro invocation: `name ! (` / `[` / `{`.
        if t.kind == Kind::Ident
            && !is_keyword(&t.text)
            && text(i + 1) == "!"
            && matches!(text(i + 2), "(" | "[" | "{")
        {
            out.calls.push((Callee::Macro(t.text.clone()), t.line));
            i += 2;
            continue;
        }
        // Indexing: `[` after a value-ending token.
        if t.text == "[" && i > start {
            let p = &toks[i - 1];
            let value_end =
                (p.kind == Kind::Ident && !is_keyword(&p.text)) || p.text == ")" || p.text == "]";
            if value_end {
                out.index_lines.push(t.line);
            }
        }
        // Call: `(` after a callee path.
        if t.text == "(" && i > start {
            if let Some(site) = callee_before(toks, start, i) {
                out.calls.push(site);
            }
        }
        i += 1;
    }
    out
}

/// Reconstructs the callee ending just before the `(` at `open`, if the
/// preceding tokens form one. Returns `None` for definitions (`fn f(`),
/// grouping parens, and tuple expressions.
fn callee_before(toks: &[Tok], start: usize, open: usize) -> Option<(Callee, u32)> {
    let text = |i: usize| toks.get(i).map_or("", |t: &Tok| t.text.as_str());
    let mut j = open.checked_sub(1)?;
    // Skip a turbofish `::<…>` between the path and the parens.
    if text(j) == ">" {
        let mut depth = 0usize;
        let mut k = j;
        loop {
            match text(k) {
                ">" => depth += 1,
                "<" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if k == start || k == 0 {
                return None;
            }
            k -= 1;
        }
        if k < 2 || text(k - 1) != ":" || text(k - 2) != ":" {
            return None;
        }
        j = k.checked_sub(3)?;
    }
    let tail = toks.get(j)?;
    if tail.kind != Kind::Ident || is_keyword(&tail.text) {
        return None;
    }
    // `fn name(` is a definition, not a call.
    if j >= 1 && text(j - 1) == "fn" {
        return None;
    }
    // Walk the `ident :: ident :: …` path backwards.
    let mut segs = vec![tail.text.clone()];
    let mut head = j;
    let mut ufcs = false;
    while head >= 3 && text(head - 1) == ":" && text(head - 2) == ":" {
        let prev = &toks[head - 3];
        if prev.kind == Kind::Ident {
            let is_path_seg = !is_keyword(&prev.text)
                || matches!(prev.text.as_str(), "crate" | "self" | "Self" | "super");
            if !is_path_seg {
                break;
            }
            segs.push(prev.text.clone());
            head -= 3;
            if matches!(prev.text.as_str(), "crate" | "self" | "super") {
                break; // path heads; nothing precedes them
            }
        } else if prev.text == ">" {
            // `<T as Tr>::m(` / `Ty::<A>::m(`: conservative dispatch.
            ufcs = true;
            break;
        } else {
            break;
        }
    }
    segs.reverse();
    let line = tail.line;
    if ufcs {
        return Some((Callee::Ufcs(segs.pop()?), line));
    }
    if segs.len() == 1 {
        if head >= 1 && text(head - 1) == "." {
            return Some((Callee::Method(segs.pop()?), line));
        }
        return Some((Callee::Bare(segs.pop()?), line));
    }
    // A path preceded by `.` cannot occur in valid Rust; treat the whole
    // thing as a path call either way.
    Some((Callee::Path(segs), line))
}

/// The resolver: index + units, with small helpers for scope lookups.
pub struct Graph<'a> {
    units: &'a [Unit],
    index: &'a SymbolIndex,
    /// Memoized per-node site extraction.
    sites: BTreeMap<usize, BodySites>,
}

impl<'a> Graph<'a> {
    /// Builds the resolver over an index.
    pub fn new(units: &'a [Unit], index: &'a SymbolIndex) -> Graph<'a> {
        Graph {
            units,
            index,
            sites: BTreeMap::new(),
        }
    }

    fn node(&self, id: usize) -> &FnNode {
        &self.index.nodes[id]
    }

    /// Sites of a node's own body (children carved out), memoized.
    fn sites_of(&mut self, id: usize) -> &BodySites {
        if !self.sites.contains_key(&id) {
            let n = self.node(id);
            let unit = &self.units[n.file];
            let skip: Vec<(usize, usize)> = self
                .index
                .children(self.units, id)
                .into_iter()
                .map(|c| self.index.nodes[c].body)
                .collect();
            let sites = body_sites(&unit.lexed.tokens, n.body, &skip);
            self.sites.insert(id, sites);
        }
        &self.sites[&id]
    }

    /// All node ids a call site may reach, sorted and deduped.
    pub fn resolve(&self, site: &Callee, caller: usize) -> Vec<usize> {
        let mut out = match site {
            Callee::Bare(name) => self.resolve_bare(name, caller),
            Callee::Path(segs) => self.resolve_path(segs, caller),
            Callee::Method(name) | Callee::Ufcs(name) => self.resolve_by_name(name, caller),
            Callee::Macro(name) => self.resolve_macro(name, caller),
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    fn resolve_bare(&self, name: &str, caller: usize) -> Vec<usize> {
        let c = self.node(caller);
        let unit = &self.units[c.file];
        // 1. Local fns, innermost scope first (shadowing).
        let mut scope = Some(c.fn_idx);
        loop {
            let parent = scope;
            let hits: Vec<usize> = self.index.by_file[c.file]
                .iter()
                .copied()
                .filter(|&id| {
                    let n = self.node(id);
                    n.name == name && unit.parsed.fns[n.fn_idx].parent == parent && !n.is_macro
                })
                .collect();
            if !hits.is_empty() {
                return hits;
            }
            match parent {
                Some(p) => scope = unit.parsed.fns[p].parent,
                None => break, // just checked file top level
            }
        }
        // 2. `use` alias.
        for b in &unit.parsed.uses {
            if !b.glob && b.name == name {
                let hits = self.resolve_abs(&b.path, caller);
                if !hits.is_empty() {
                    return hits;
                }
            }
        }
        // 3. Glob imports.
        let mut glob_hits = Vec::new();
        for b in &unit.parsed.uses {
            if b.glob {
                let mut path = b.path.clone();
                path.push(name.to_string());
                glob_hits.extend(self.resolve_abs(&path, caller));
            }
        }
        if !glob_hits.is_empty() {
            return glob_hits;
        }
        // 4. Same-crate fallback (cross-module `crate::…` re-exports and
        // sibling modules the file-level parse cannot see).
        self.named_in_crates(name, std::iter::once(c.krate.as_str()))
    }

    fn resolve_path(&self, segs: &[String], caller: usize) -> Vec<usize> {
        let c = self.node(caller);
        let unit = &self.units[c.file];
        // Expand a `use` alias on the head segment (`use pcm_compress::bdi;`
        // makes `bdi::compress_into(…)` a `pcm_compress::bdi::…` call).
        if let Some(head) = segs.first() {
            for b in &unit.parsed.uses {
                if !b.glob && &b.name == head {
                    let mut full = b.path.clone();
                    full.extend_from_slice(&segs[1..]);
                    let hits = self.resolve_abs(&full, caller);
                    if !hits.is_empty() {
                        return hits;
                    }
                }
            }
        }
        self.resolve_abs(segs, caller)
    }

    /// Resolves an absolute-ish path after alias expansion.
    fn resolve_abs(&self, segs: &[String], caller: usize) -> Vec<usize> {
        let c = self.node(caller);
        let Some(head) = segs.first() else {
            return Vec::new();
        };
        let Some(last) = segs.last() else {
            return Vec::new();
        };
        // External std-family paths: not ours to resolve.
        if matches!(head.as_str(), "std" | "core" | "alloc") {
            return Vec::new();
        }
        // `Self::helper()` → the caller's own impl block.
        if head == "Self" {
            if let Some(owner) = &c.owner {
                if let Some(ids) = self.index.by_owner.get(&(owner.clone(), last.clone())) {
                    let hits: Vec<usize> = ids
                        .iter()
                        .copied()
                        .filter(|&id| self.node(id).krate == c.krate)
                        .collect();
                    if !hits.is_empty() {
                        return hits;
                    }
                }
            }
            return self.named_in_crates(last, std::iter::once(c.krate.as_str()));
        }
        // Crate-qualified path: `pcm_util::simd::f`, `crate::engine::f`.
        let target_crate = if matches!(head.as_str(), "crate" | "self" | "super") {
            Some(c.krate.clone())
        } else {
            self.index.crate_idents.get(head).cloned()
        };
        if let Some(tk) = target_crate {
            let rest = &segs[1..];
            if rest.is_empty() {
                return Vec::new();
            }
            if rest.len() >= 2 {
                if let Some(ids) = self
                    .index
                    .by_owner
                    .get(&(rest[rest.len() - 2].clone(), last.clone()))
                {
                    let hits: Vec<usize> = ids
                        .iter()
                        .copied()
                        .filter(|&id| self.node(id).krate == tk)
                        .collect();
                    if !hits.is_empty() {
                        return hits;
                    }
                }
            }
            return self.named_in_crates(last, std::iter::once(tk.as_str()));
        }
        // Unknown head: a local module or a type. Try `(owner, name)`
        // across the caller's dependency closure, then fall back to a
        // conservative name lookup in the closure.
        if segs.len() >= 2 {
            let owner = &segs[segs.len() - 2];
            if let Some(ids) = self.index.by_owner.get(&(owner.clone(), last.clone())) {
                let closure = self.index.closure(&c.krate);
                let hits: Vec<usize> = ids
                    .iter()
                    .copied()
                    .filter(|&id| closure.contains(&self.node(id).krate))
                    .collect();
                if !hits.is_empty() {
                    return hits;
                }
            }
            // A type-qualified call (`Vec::new`, `String::from`) whose owner
            // matches no workspace impl is an external type's associated fn:
            // fanning out by bare name would drag in every workspace `new`.
            if owner.starts_with(|ch: char| ch.is_ascii_uppercase()) {
                return Vec::new();
            }
        }
        self.resolve_by_name(last, caller)
    }

    /// All target fns named `name` in the caller's dependency closure.
    fn resolve_by_name(&self, name: &str, caller: usize) -> Vec<usize> {
        let closure = self.index.closure(&self.node(caller).krate);
        self.named_in_crates(name, closure.iter().map(String::as_str))
    }

    fn named_in_crates<'s>(&self, name: &str, crates: impl Iterator<Item = &'s str>) -> Vec<usize> {
        let crates: BTreeSet<&str> = crates.collect();
        self.index
            .by_name
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| crates.contains(self.node(id).krate.as_str()))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn resolve_macro(&self, name: &str, caller: usize) -> Vec<usize> {
        let closure = self.index.closure(&self.node(caller).krate);
        self.index
            .macros
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| closure.contains(&self.node(id).krate))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// One annotated analysis root.
#[derive(Debug)]
struct Root {
    node: usize,
    rule: &'static str,
}

/// Runs the inter-procedural rules; findings come back un-pragma'd (the
/// caller applies each file's pragmas).
pub fn check(units: &[Unit], index: &SymbolIndex) -> Vec<Finding> {
    let mut graph = Graph::new(units, index);
    let mut findings = Vec::new();
    let roots = collect_roots(units, index, &mut findings);
    for rule in ROOT_RULES {
        let rule_roots: Vec<&Root> = roots.iter().filter(|r| r.rule == *rule).collect();
        check_reachability(&mut graph, rule, &rule_roots, &mut findings);
    }
    check_pub_dead(units, &mut findings);
    findings.sort();
    findings.dedup();
    findings
}

/// Matches `root(<rule>)` marks to the fn item they annotate: the first
/// fn whose header starts within 3 lines below the mark (attributes may
/// sit between). A mark that attaches to nothing is itself a finding.
fn collect_roots(units: &[Unit], index: &SymbolIndex, findings: &mut Vec<Finding>) -> Vec<Root> {
    let mut roots = Vec::new();
    for (file, unit) in units.iter().enumerate() {
        for mark in &unit.roots {
            let target = index.by_file[file]
                .iter()
                .copied()
                .filter(|&id| {
                    let n = &index.nodes[id];
                    !n.is_macro && n.line > mark.line && n.line <= mark.line + 3
                })
                .min_by_key(|&id| index.nodes[id].line);
            match target {
                Some(node) => roots.push(Root {
                    node,
                    rule: mark.rule,
                }),
                None => findings.push(Finding {
                    file: unit.rel.clone(),
                    line: mark.line,
                    rule: "pragma",
                    message: format!(
                        "root({}) pragma attaches to no fn item within 3 lines",
                        mark.rule
                    ),
                }),
            }
        }
    }
    // (file, line) order → deterministic first-root attribution.
    roots.sort_by_key(|r| {
        (
            units[index.nodes[r.node].file].rel.clone(),
            index.nodes[r.node].line,
        )
    });
    roots
}

/// BFS from each root in order; every node first reached by an earlier
/// root keeps that attribution. Each reached node's own body is scanned
/// for the rule's banned sites.
/// True when a call at `line` inside `node` is covered by an
/// `allow(rule)` pragma (same line or the line below the pragma comment).
fn call_pruned(graph: &Graph, node: usize, rule: &str, line: u32) -> bool {
    let unit = &graph.units[graph.index.nodes[node].file];
    unit.pragmas.iter().any(|p| p.rule == rule && p.spans(line))
}

fn check_reachability(
    graph: &mut Graph,
    rule: &'static str,
    roots: &[&Root],
    findings: &mut Vec<Finding>,
) {
    // visited: node → (root node, predecessor on the BFS path).
    let mut visited: BTreeMap<usize, (usize, Option<usize>)> = BTreeMap::new();
    for root in roots {
        if visited.contains_key(&root.node) {
            continue;
        }
        visited.insert(root.node, (root.node, None));
        let mut queue = VecDeque::from([root.node]);
        while let Some(id) = queue.pop_front() {
            let calls: Vec<(Callee, u32)> = graph.sites_of(id).calls.clone();
            for (callee, line) in &calls {
                // An `allow(<rule>)` pragma on a call line vets the call as
                // out-of-band (e.g. one-time setup): the site is suppressed
                // AND the callee's subtree is pruned from this rule's walk.
                if call_pruned(graph, id, rule, *line) {
                    continue;
                }
                for next in graph.resolve(callee, id) {
                    if let std::collections::btree_map::Entry::Vacant(e) = visited.entry(next) {
                        e.insert((root.node, Some(id)));
                        queue.push_back(next);
                    }
                }
            }
        }
    }
    // Deterministic site scan: visited is a BTreeMap keyed by node id,
    // and node ids follow (file, declaration) order.
    for (&id, &(root, _)) in &visited {
        let n = &graph.index.nodes[id];
        let rel = graph.units[n.file].rel.clone();
        let root_name = graph.index.nodes[root].name.clone();
        let chain = chain_string(graph, &visited, id);
        let sites = graph.sites_of(id);
        match rule {
            "hotpath-alloc" => {
                for (callee, line) in &sites.calls {
                    let what = match callee {
                        Callee::Method(m) | Callee::Ufcs(m)
                            if ALLOC_METHODS.contains(&m.as_str()) =>
                        {
                            Some(format!(".{m}()"))
                        }
                        Callee::Path(segs) if segs.len() >= 2 => {
                            let pair =
                                (segs[segs.len() - 2].as_str(), segs[segs.len() - 1].as_str());
                            ALLOC_PATHS
                                .contains(&pair)
                                .then(|| format!("{}::{}", pair.0, pair.1))
                        }
                        Callee::Macro(m) if ALLOC_MACROS.contains(&m.as_str()) => {
                            Some(format!("{m}!"))
                        }
                        _ => None,
                    };
                    if let Some(what) = what {
                        findings.push(Finding {
                            file: rel.clone(),
                            line: *line,
                            rule: "hotpath-alloc",
                            message: format!(
                                "`{what}` allocates on a hot path: reachable from root \
                                 `{root_name}` via {chain}; reuse caller-owned scratch \
                                 buffers instead"
                            ),
                        });
                    }
                }
            }
            "panic-reach" => {
                // Panic macros and bare unwrap anywhere reachable; expect
                // and slice indexing only inside the serve crate, where
                // graceful degradation of the wire loop is the invariant
                // (DESIGN.md §11 documents this scoping).
                let in_serve = rel.starts_with("crates/serve/src");
                for (callee, line) in &sites.calls {
                    let what = match callee {
                        Callee::Macro(m) if PANIC_MACROS.contains(&m.as_str()) => {
                            Some(format!("{m}!"))
                        }
                        Callee::Method(m) if m == "unwrap" => Some(".unwrap()".to_string()),
                        Callee::Method(m) if m == "expect" && in_serve => {
                            Some(".expect()".to_string())
                        }
                        _ => None,
                    };
                    if let Some(what) = what {
                        findings.push(Finding {
                            file: rel.clone(),
                            line: *line,
                            rule: "panic-reach",
                            message: format!(
                                "`{what}` reachable from connection-handler root \
                                 `{root_name}` via {chain}: the serve loop must degrade \
                                 gracefully — return a typed error instead"
                            ),
                        });
                    }
                }
                if in_serve {
                    for line in &sites.index_lines {
                        findings.push(Finding {
                            file: rel.clone(),
                            line: *line,
                            rule: "panic-reach",
                            message: format!(
                                "slice indexing reachable from connection-handler root \
                                 `{root_name}` via {chain}: index with .get() and return \
                                 a typed error on short input"
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

/// `root -> … -> node` fn-name chain for a finding message.
fn chain_string(
    graph: &Graph,
    visited: &BTreeMap<usize, (usize, Option<usize>)>,
    id: usize,
) -> String {
    let mut names = vec![graph.index.nodes[id].name.clone()];
    let mut cur = id;
    while let Some(&(_, Some(prev))) = visited.get(&cur) {
        names.push(graph.index.nodes[prev].name.clone());
        cur = prev;
        if names.len() > 12 {
            names.push("…".to_string());
            break;
        }
    }
    names.reverse();
    names.join(" -> ")
}

/// `pub-dead`: plain-`pub` items in library code that nothing outside
/// the defining crate references. References are identifier tokens in
/// any file outside the crate's library tree (other crates, and the
/// crate's own tests/bins/benches, which link as external users) plus
/// word matches in doc comments anywhere (doctests compile as external
/// crates, so rustdoc examples legitimately keep an item alive).
fn check_pub_dead(units: &[Unit], findings: &mut Vec<Finding>) {
    // Per-unit ident sets and doc-comment word sets.
    let idents: Vec<BTreeSet<&str>> = units
        .iter()
        .map(|u| {
            u.lexed
                .tokens
                .iter()
                .filter(|t| t.kind == Kind::Ident)
                .map(|t| t.text.as_str())
                .collect()
        })
        .collect();
    // Idents inside #[cfg(test)] regions: a unit test exercising an item is a
    // consumer even when it lives in the defining crate (or the same file).
    let test_idents: Vec<BTreeSet<&str>> = units
        .iter()
        .map(|u| {
            let flags = crate::parser::test_region_flags(&u.lexed.tokens);
            u.lexed
                .tokens
                .iter()
                .zip(flags)
                .filter(|(t, in_test)| *in_test && t.kind == Kind::Ident)
                .map(|(t, _)| t.text.as_str())
                .collect()
        })
        .collect();
    let mut doc_words: BTreeSet<String> = BTreeSet::new();
    for u in units {
        for c in &u.lexed.comments {
            let is_doc = c.text.starts_with("///")
                || c.text.starts_with("//!")
                || c.text.starts_with("/**")
                || c.text.starts_with("/*!");
            if !is_doc {
                continue;
            }
            let mut word = String::new();
            for ch in c.text.chars().chain(std::iter::once(' ')) {
                if ch.is_ascii_alphanumeric() || ch == '_' {
                    word.push(ch);
                } else if !word.is_empty() {
                    doc_words.insert(std::mem::take(&mut word));
                }
            }
        }
    }
    for (ui, unit) in units.iter().enumerate() {
        if !rules::is_lib_code(&unit.rel) {
            continue;
        }
        let krate = crate_of(&unit.rel);
        if SHIM_CRATES.contains(&krate.as_str()) {
            continue;
        }
        for item in &unit.parsed.pub_items {
            if item.in_test {
                continue;
            }
            let referenced = doc_words.contains(&item.name)
                || units.iter().enumerate().any(|(vi, v)| {
                    if vi == ui {
                        return test_idents[vi].contains(item.name.as_str());
                    }
                    let outside = crate_of(&v.rel) != krate || !rules::is_lib_code(&v.rel);
                    if outside {
                        idents[vi].contains(item.name.as_str())
                    } else {
                        test_idents[vi].contains(item.name.as_str())
                    }
                });
            if !referenced {
                findings.push(Finding {
                    file: unit.rel.clone(),
                    line: item.line,
                    rule: "pub-dead",
                    message: format!(
                        "pub {} `{}` is never referenced outside crate `{}`: delete it, \
                         narrow it to pub(crate), or pragma-annotate a deliberate API \
                         surface",
                        item.kind, item.name, krate
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn unit(rel: &str, src: &str) -> Unit {
        let lexed = lex(src);
        let parsed = parse(&lexed);
        let rules::Directives { pragmas, roots, .. } = rules::directives(rel, &lexed.comments);
        Unit {
            rel: rel.to_string(),
            lexed,
            parsed,
            pragmas,
            roots,
        }
    }

    fn run(units: Vec<Unit>) -> Vec<Finding> {
        let index = SymbolIndex::build(&units, &[]);
        check(&units, &index)
    }

    fn sites(src: &str) -> BodySites {
        let lexed = lex(src);
        body_sites(&lexed.tokens, (0, lexed.tokens.len()), &[])
    }

    #[test]
    fn call_site_extraction_kinds() {
        let s = sites("helper(1); x.push(2); pcm_util::simd::fold(3); vec![4]; Vec::new();");
        assert!(s.calls.contains(&(Callee::Bare("helper".into()), 1)));
        assert!(s.calls.contains(&(Callee::Method("push".into()), 1)));
        assert!(s.calls.contains(&(
            Callee::Path(vec!["pcm_util".into(), "simd".into(), "fold".into()]),
            1
        )));
        assert!(s.calls.contains(&(Callee::Macro("vec".into()), 1)));
        assert!(s
            .calls
            .contains(&(Callee::Path(vec!["Vec".into(), "new".into()]), 1)));
    }

    #[test]
    fn ufcs_and_turbofish() {
        let s = sites(
            "<Engine as Scheme>::map(x); collect::<Vec<u64>>(); Vec::<u8>::with_capacity(4);",
        );
        assert!(s.calls.contains(&(Callee::Ufcs("map".into()), 1)));
        assert!(s.calls.contains(&(Callee::Bare("collect".into()), 1)));
        assert!(s.calls.contains(&(Callee::Ufcs("with_capacity".into()), 1)));
    }

    #[test]
    fn indexing_detection() {
        let s = sites("let a = buf[0]; let b = f()[1]; let c: [u64; 4] = [0; 4]; #[test] vec![x];");
        assert_eq!(s.index_lines, vec![1, 1], "buf[0] and f()[1] only");
    }

    #[test]
    fn hotpath_alloc_trips_through_a_chain() {
        let units = vec![unit(
            "crates/core/src/hot.rs",
            "// pcm-audit: root(hotpath-alloc) — test root\n\
             pub fn hot_loop(xs: &mut Vec<u64>) { stage(xs); }\n\
             fn stage(xs: &mut Vec<u64>) { xs.push(1); }\n\
             fn cold() -> String { format!(\"unreachable\") }\n",
        )];
        let f = run(units);
        let hits: Vec<_> = f.iter().filter(|f| f.rule == "hotpath-alloc").collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3);
        assert!(
            hits[0].message.contains("hot_loop -> stage"),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn panic_reach_scopes_indexing_to_serve() {
        let handler = "use pcm_core::helper;\n\
                       // pcm-audit: root(panic-reach) — test handler\n\
                       pub fn serve_stream(b: &[u8]) -> u64 { decode(b) }\n\
                       fn decode(b: &[u8]) -> u64 { helper(b) }\n";
        let serve = unit("crates/serve/src/daemon.rs", handler);
        let core = unit(
            "crates/core/src/lib.rs",
            "pub fn helper(b: &[u8]) -> u64 { b[0] as u64 }\n",
        );
        let f = run(vec![core, serve]);
        // Indexing outside crates/serve/src is policy-exempt…
        assert!(
            !f.iter().any(|f| f.rule == "panic-reach"),
            "indexing in core must not fire: {f:?}"
        );
        // …but a panic macro there still is.
        let serve = unit("crates/serve/src/daemon.rs", handler);
        let core = unit(
            "crates/core/src/lib.rs",
            "pub fn helper(b: &[u8]) -> u64 { panic!(\"boom\") }\n",
        );
        let f = run(vec![core, serve]);
        assert_eq!(
            f.iter().filter(|f| f.rule == "panic-reach").count(),
            1,
            "{f:?}"
        );
    }

    #[test]
    fn method_calls_dispatch_to_all_impls() {
        let units = vec![
            unit(
                "crates/serve/src/daemon.rs",
                "// pcm-audit: root(panic-reach) — test handler\n\
                 pub fn serve_stream(s: &dyn Scheme) { s.remap(1); }\n",
            ),
            unit(
                "crates/wear/src/lib.rs",
                "pub struct A; impl Scheme for A { fn remap(&self, x: u64) -> u64 { x } }\n\
                 pub struct B; impl Scheme for B { fn remap(&self, x: u64) -> u64 { todo!() } }\n",
            ),
        ];
        let f = run(units);
        assert_eq!(
            f.iter().filter(|f| f.rule == "panic-reach").count(),
            1,
            "conservative dispatch must reach impl B's todo!: {f:?}"
        );
    }

    #[test]
    fn shadowed_local_fn_wins_over_top_level() {
        let units = vec![unit(
            "crates/core/src/hot.rs",
            "// pcm-audit: root(hotpath-alloc) — test root\n\
             pub fn hot_loop() {\n\
                 fn stage() {}\n\
                 stage();\n\
             }\n\
             fn stage() { vec![1]; }\n",
        )];
        let f = run(units);
        assert!(
            !f.iter().any(|f| f.rule == "hotpath-alloc"),
            "local stage() shadows the allocating top-level one: {f:?}"
        );
    }

    #[test]
    fn use_alias_resolves_cross_crate() {
        let units = vec![
            unit(
                "crates/core/src/hot.rs",
                "use pcm_util::mix as fold;\n\
                 // pcm-audit: root(hotpath-alloc) — test root\n\
                 pub fn hot_loop() { fold(1); }\n",
            ),
            unit(
                "crates/util/src/lib.rs",
                "pub fn mix(x: u64) -> u64 { x.to_string(); x }\n",
            ),
        ];
        let f = run(units);
        assert_eq!(
            f.iter().filter(|f| f.rule == "hotpath-alloc").count(),
            1,
            "aliased cross-crate call must be followed: {f:?}"
        );
    }

    #[test]
    fn macro_bodies_are_traversed() {
        let units = vec![unit(
            "crates/core/src/hot.rs",
            "macro_rules! fire { ($x:expr) => { stage($x) }; }\n\
             // pcm-audit: root(hotpath-alloc) — test root\n\
             pub fn hot_loop() { fire!(1); }\n\
             fn stage(x: u64) -> Vec<u64> { vec![x] }\n",
        )];
        let f = run(units);
        assert_eq!(
            f.iter().filter(|f| f.rule == "hotpath-alloc").count(),
            1,
            "macro body call must be followed into stage: {f:?}"
        );
    }

    #[test]
    fn pub_dead_finds_the_orphan_only() {
        let units = vec![
            unit(
                "crates/core/src/lib.rs",
                "pub fn used() {}\npub fn orphan() {}\npub(crate) fn scoped() {}\n",
            ),
            unit("crates/serve/src/lib.rs", "pub fn caller() { used(); }\n"),
            unit("tests/smoke.rs", "fn t() { caller(); }\n"),
        ];
        let f = run(units);
        let dead: Vec<_> = f.iter().filter(|f| f.rule == "pub-dead").collect();
        assert_eq!(dead.len(), 1, "{dead:?}");
        assert!(dead[0].message.contains("`orphan`"));
    }

    #[test]
    fn doc_comment_reference_keeps_an_item_alive() {
        let units = vec![unit(
            "crates/core/src/lib.rs",
            "/// Call [`documented`] from a doctest.\npub fn documented() {}\n",
        )];
        let f = run(units);
        assert!(!f.iter().any(|f| f.rule == "pub-dead"), "{f:?}");
    }

    #[test]
    fn root_pragma_must_attach() {
        let units = vec![unit(
            "crates/core/src/lib.rs",
            "// pcm-audit: root(hotpath-alloc) — floats in space\n\nconst X: u64 = 1;\n",
        )];
        let f = run(units);
        assert!(
            f.iter()
                .any(|f| f.rule == "pragma" && f.message.contains("attaches to no fn")),
            "{f:?}"
        );
    }
}
