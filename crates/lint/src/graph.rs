//! Workspace dependency graphs and the structural G/C004 rules.
//!
//! Two graphs are built from the per-file [`crate::parser::FileItems`]:
//!
//! * the **crate graph** — one node per workspace crate, one edge per
//!   `pixel_*` reference in non-test code — checked against the
//!   documented layering (G001 cycles, G002 layering, G003 leaves) and
//!   rendered as the `reproduce archgraph` artifact;
//! * the **module graph** — one node per source file, edges from `use`
//!   paths, path-qualified calls and `mod` declarations, resolved by
//!   longest-module-path prefix — used for transitive backend
//!   isolation (G004), for lifting D002 from path heuristics to
//!   use-graph reachability (C004), and for target reachability
//!   (G005): every library module must be reached from a bin, test,
//!   bench or example.
//!
//! Everything here is deterministic: files arrive sorted, adjacency is
//! kept in `BTree` collections, and the artifact text depends only on
//! crate-level edges (not line numbers), so it changes only when a
//! cross-crate dependency changes.

use crate::diag::Finding;
use crate::parser::FileItems;
use crate::rules::{is_test_context, D002_FILES, D002_PREFIXES};
use std::collections::{BTreeMap, BTreeSet};

/// The documented layering: every crate edge must point to a strictly
/// lower layer. Layer 0 crates are leaves (G003). Mirrors DESIGN.md §14
/// — extend this table when a new crate joins the workspace.
pub const LAYERS: [(&str, u8); 11] = [
    ("pixel_units", 0),
    ("pixel_obs", 0),
    ("pixel_lint", 0),
    ("pixel_photonics", 1),
    ("pixel_electronics", 1),
    ("pixel_dnn", 1),
    ("pixel_core", 2),
    ("pixel_serve", 3),
    ("pixel_fleet", 4),
    ("pixel_bench", 5),
    ("pixel", 5),
];

/// The `crates/core` backend modules that must stay mutually isolated.
const BACKEND_DIRS: [&str; 2] = ["crates/core/src/model/", "crates/core/src/omac/"];
const BACKEND_STEMS: [&str; 3] = ["ee", "oe", "oo"];

/// Layer rank of a crate, if documented.
#[must_use]
pub fn layer_of(krate: &str) -> Option<u8> {
    LAYERS
        .iter()
        .find(|(name, _)| *name == krate)
        .map(|(_, l)| *l)
}

/// The workspace crate a file belongs to (`pixel_core` for
/// `crates/core/src/...`, `pixel` for the root `src/`), or `None` for
/// files outside any crate source tree.
#[must_use]
pub fn crate_of(rel: &str) -> Option<String> {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let dir = rest.split('/').next()?;
        if rest[dir.len()..].starts_with("/src/") {
            return Some(format!("pixel_{dir}"));
        }
        return None; // crate tests/ benches/ do not define library deps
    }
    if rel.starts_with("src/") {
        return Some("pixel".to_owned());
    }
    None
}

/// Module path of a file within its crate (`crates/core/src/model/ee.rs`
/// → `["model", "ee"]`; `lib.rs`/`main.rs` → root; `src/bin/x.rs` gets
/// its own `["bin", "x"]` root so nothing resolves into it).
fn module_path(rel: &str) -> Vec<String> {
    let rest = if let Some(r) = rel.strip_prefix("crates/") {
        match r.find("/src/") {
            Some(at) => &r[at + 5..],
            None => return Vec::new(),
        }
    } else if let Some(r) = rel.strip_prefix("src/") {
        r
    } else {
        return Vec::new();
    };
    let trimmed = rest.strip_suffix(".rs").unwrap_or(rest);
    let mut segs: Vec<String> = trimmed.split('/').map(str::to_owned).collect();
    if segs
        .last()
        .is_some_and(|s| s == "lib" || s == "main" || s == "mod")
    {
        segs.pop();
    }
    segs
}

/// True for target files: bins (`src/bin/*`, `main.rs`), `tests/`,
/// `benches/` and `examples/`. They feed reference edges, but nothing
/// resolves into them.
pub(crate) fn is_target(rel: &str) -> bool {
    is_test_context(rel)
        || rel.starts_with("src/bin/")
        || rel.contains("/src/bin/")
        || rel == "src/main.rs"
        || rel.ends_with("/src/main.rs")
}

/// One analyzed source file, as the graph layer sees it.
pub struct GraphFile<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Parsed items.
    pub items: &'a FileItems,
}

/// One crate-level dependency edge with its first witness site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CrateEdge {
    /// Referencing crate.
    pub from: String,
    /// Referenced crate.
    pub to: String,
    /// First file that witnesses the edge (sorted-walk order).
    pub file: String,
    /// Line of the first witness.
    pub line: u32,
}

/// The workspace architecture graph plus the structural findings.
pub struct ArchGraph {
    /// Crates present in the workspace, sorted.
    pub crates: Vec<String>,
    /// Deduplicated crate edges, sorted by (from, to).
    pub edges: Vec<CrateEdge>,
    /// G001–G005 and C004 findings.
    pub findings: Vec<Finding>,
    /// Number of backend files checked by G004.
    pub backend_files: usize,
}

struct ModuleGraph {
    /// Per crate: module path → file index, for longest-prefix lookup.
    modules: BTreeMap<String, Vec<(Vec<String>, usize)>>,
    /// Per file: crate key.
    crates: Vec<Option<String>>,
    /// Per file: module path.
    paths: Vec<Vec<String>>,
    /// Per file: bare path heads that name a module path — a child
    /// `mod x;` stands for `self::x`, and the last segment of a `use`
    /// stands for the whole `use` path.
    heads: Vec<BTreeMap<String, Vec<String>>>,
}

/// The bare heads file `f` brings into scope (see [`ModuleGraph::heads`]).
fn scope_heads(f: &GraphFile<'_>) -> BTreeMap<String, Vec<String>> {
    let mut heads: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for m in f.items.mods.iter().filter(|m| !m.inline) {
        heads.insert(m.name.clone(), vec!["self".to_owned(), m.name.clone()]);
    }
    for u in &f.items.uses {
        let mut path = u.segments.clone();
        if path.last().is_some_and(|s| s == "self") {
            path.pop(); // `use a::b::{self}` imports `b`
        }
        let Some(name) = path.last().filter(|s| *s != "*").cloned() else {
            continue;
        };
        if path.len() < 2 || heads.contains_key(&name) {
            continue;
        }
        // A use may start at a name already in scope (`mod ee; use ee::EeMac;`).
        if let Some(prefix) = heads.get(&path[0]) {
            path.splice(..1, prefix.clone());
        }
        heads.insert(name, path);
    }
    heads
}

impl ModuleGraph {
    fn build(files: &[GraphFile<'_>]) -> Self {
        let mut modules: BTreeMap<String, Vec<(Vec<String>, usize)>> = BTreeMap::new();
        let mut crates = Vec::with_capacity(files.len());
        let mut paths = Vec::with_capacity(files.len());
        for (i, f) in files.iter().enumerate() {
            let krate = crate_of(f.rel);
            let mpath = module_path(f.rel);
            if let Some(k) = &krate {
                // Targets are separate crate roots: nothing resolves
                // into them, so they don't join the module table.
                if !is_target(f.rel) {
                    modules
                        .entry(k.clone())
                        .or_default()
                        .push((mpath.clone(), i));
                }
            }
            crates.push(krate);
            paths.push(mpath);
        }
        for v in modules.values_mut() {
            // Longest paths first so prefix search can take the first hit.
            v.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
        }
        Self {
            modules,
            crates,
            paths,
            heads: files.iter().map(scope_heads).collect(),
        }
    }

    /// Resolves a path (from a `use` or a qualified call) seen in file
    /// `from` to a workspace file, or `None` for external paths. A bare
    /// head that names a child `mod` or an imported name is expanded
    /// first; `pixel::<name>::…` means `pixel_<name>::…` whenever that
    /// crate exists.
    fn resolve(&self, from: usize, segments: &[String]) -> Option<usize> {
        let expanded: Vec<String>;
        let segments = match segments.split_first() {
            Some((head, rest)) if self.heads[from].contains_key(head) => {
                expanded = [&self.heads[from][head][..], rest].concat();
                &expanded[..]
            }
            _ => segments,
        };
        let (krate, abs): (String, Vec<String>) = match segments.first().map(String::as_str) {
            None | Some("std" | "core" | "alloc" | "*") => return None,
            Some("crate") => (self.crates[from].clone()?, segments[1..].to_vec()),
            Some("self") => {
                let mut p = self.paths[from].clone();
                p.extend_from_slice(&segments[1..]);
                (self.crates[from].clone()?, p)
            }
            Some("super") => {
                let mut p = self.paths[from].clone();
                let mut rest = segments;
                while rest.first().is_some_and(|s| s == "super") {
                    p.pop();
                    rest = &rest[1..];
                }
                p.extend_from_slice(rest);
                (self.crates[from].clone()?, p)
            }
            Some("pixel")
                if segments
                    .get(1)
                    .is_some_and(|s| self.modules.contains_key(&format!("pixel_{s}"))) =>
            {
                (format!("pixel_{}", segments[1]), segments[2..].to_vec())
            }
            Some(head) if head == "pixel" || head.starts_with("pixel_") => {
                if !self.modules.contains_key(head) {
                    return None;
                }
                (head.to_owned(), segments[1..].to_vec())
            }
            Some(_) => return None, // bare head: an item in scope, not a module path
        };
        let table = self.modules.get(&krate)?;
        for (mpath, idx) in table {
            if mpath.len() <= abs.len() && abs[..mpath.len()] == mpath[..] && *idx != from {
                return Some(*idx);
            }
        }
        None
    }
}

/// Per-file outgoing reference edges (use paths + qualified calls),
/// resolved within the workspace. Target files get edges too (nothing
/// resolves into them, so only G005 walks out of them). `#[cfg(test)]`
/// spans are excluded — test-only imports must not shape the
/// architecture graph. Deterministic: sorted, deduplicated.
fn reference_edges(
    files: &[GraphFile<'_>],
    scans: &[&crate::lexer::Scan],
    graph: &ModuleGraph,
) -> Vec<BTreeSet<usize>> {
    let mut out = vec![BTreeSet::new(); files.len()];
    for (i, f) in files.iter().enumerate() {
        for u in &f.items.uses {
            if !scans[i].is_test_line(u.line) {
                if let Some(t) = graph.resolve(i, &u.segments) {
                    out[i].insert(t);
                }
            }
        }
        for c in &f.items.calls {
            if c.segments.len() >= 2 && !scans[i].is_test_line(c.line) {
                if let Some(t) = graph.resolve(i, &c.segments) {
                    out[i].insert(t);
                }
            }
        }
    }
    out
}

/// `mod` declaration edges (a file owns the submodules it declares).
fn mod_decl_edges(files: &[GraphFile<'_>], graph: &ModuleGraph) -> Vec<BTreeSet<usize>> {
    let mut out = vec![BTreeSet::new(); files.len()];
    for (i, f) in files.iter().enumerate() {
        let Some(krate) = &graph.crates[i] else {
            continue;
        };
        let Some(table) = graph.modules.get(krate) else {
            continue;
        };
        for m in &f.items.mods {
            if m.inline {
                continue;
            }
            let mut child = graph.paths[i].clone();
            child.push(m.name.clone());
            for (mpath, idx) in table {
                if *mpath == child && *idx != i {
                    out[i].insert(*idx);
                }
            }
        }
    }
    out
}

/// Builds the crate-level graph and runs G001–G003.
fn crate_rules(
    files: &[GraphFile<'_>],
    scans: &[&crate::lexer::Scan],
    graph: &ModuleGraph,
) -> (Vec<String>, Vec<CrateEdge>, Vec<Finding>) {
    let mut present: BTreeSet<String> = BTreeSet::new();
    for k in graph.crates.iter().flatten() {
        present.insert(k.clone());
    }
    // Edges: first witness wins; files are pre-sorted so this is stable.
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for (i, f) in files.iter().enumerate() {
        let Some(from) = graph.crates[i].clone() else {
            continue;
        };
        if is_test_context(f.rel) {
            continue;
        }
        let mut witness = |to: &str, line: u32| {
            if to != from {
                edges
                    .entry((from.clone(), to.to_owned()))
                    .or_insert_with(|| (f.rel.to_owned(), line));
            }
        };
        for u in &f.items.uses {
            if let Some(head) = u.segments.first() {
                if present.contains(head) && !scans[i].is_test_line(u.line) {
                    witness(head, u.line);
                }
            }
        }
        for c in &f.items.calls {
            if let Some(head) = c.segments.first() {
                if c.segments.len() >= 2 && present.contains(head) && !scans[i].is_test_line(c.line)
                {
                    witness(head, c.line);
                }
            }
        }
    }
    let edges: Vec<CrateEdge> = edges
        .into_iter()
        .map(|((from, to), (file, line))| CrateEdge {
            from,
            to,
            file,
            line,
        })
        .collect();

    let mut findings = Vec::new();

    // G001 — cycles. DFS over sorted adjacency; report each cycle once.
    let adj: BTreeMap<&str, Vec<&CrateEdge>> = {
        let mut m: BTreeMap<&str, Vec<&CrateEdge>> = BTreeMap::new();
        for e in &edges {
            m.entry(e.from.as_str()).or_default().push(e);
        }
        m
    };
    let mut state: BTreeMap<&str, u8> = BTreeMap::new(); // 1 = on stack, 2 = done
    let mut stack: Vec<&str> = Vec::new();
    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a CrateEdge>>,
        state: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a str>,
        findings: &mut Vec<Finding>,
    ) {
        state.insert(node, 1);
        stack.push(node);
        for e in adj.get(node).map(Vec::as_slice).unwrap_or_default() {
            match state.get(e.to.as_str()) {
                Some(1) => {
                    let from = stack.iter().position(|n| *n == e.to).unwrap_or(0);
                    let mut cycle: Vec<&str> = stack[from..].to_vec();
                    cycle.push(e.to.as_str());
                    findings.push(Finding {
                        file: e.file.clone(),
                        line: e.line,
                        rule: "G001",
                        message: format!("crate dependency cycle: {}", cycle.join(" -> ")),
                    });
                }
                Some(_) => {}
                None => dfs(e.to.as_str(), adj, state, stack, findings),
            }
        }
        stack.pop();
        state.insert(node, 2);
    }
    for k in &present {
        if !state.contains_key(k.as_str()) {
            dfs(k, &adj, &mut state, &mut stack, &mut findings);
        }
    }

    // G002 / G003 — layering and leaf isolation.
    for e in &edges {
        if layer_of(&e.from) == Some(0) {
            findings.push(Finding {
                file: e.file.clone(),
                line: e.line,
                rule: "G003",
                message: format!(
                    "leaf crate `{}` references workspace crate `{}`; layer-0 crates must stay dependency-free",
                    e.from, e.to
                ),
            });
            continue;
        }
        match (layer_of(&e.from), layer_of(&e.to)) {
            (Some(a), Some(b)) if b < a => {}
            (Some(a), Some(b)) => findings.push(Finding {
                file: e.file.clone(),
                line: e.line,
                rule: "G002",
                message: format!(
                    "layering violation: `{}` (layer {a}) -> `{}` (layer {b}); edges must point to a strictly lower layer",
                    e.from, e.to
                ),
            }),
            _ => findings.push(Finding {
                file: e.file.clone(),
                line: e.line,
                rule: "G002",
                message: format!(
                    "crate edge `{}` -> `{}` involves a crate missing from the documented layering; add it to LAYERS and DESIGN.md §14",
                    e.from, e.to
                ),
            }),
        }
    }
    (present.into_iter().collect(), edges, findings)
}

/// G004 — transitive backend isolation: from each `ee`/`oe`/`oo`
/// backend file, no use/call path may reach a sibling backend, even
/// through intermediate modules. The registry `mod.rs` files that
/// legitimately name every backend are excluded from the walk, and
/// direct references stay A002's job (paths here need an intermediate).
fn backend_isolation(
    files: &[GraphFile<'_>],
    refs: &[BTreeSet<usize>],
    findings: &mut Vec<Finding>,
) -> usize {
    let backend_stem = |rel: &str| -> Option<&'static str> {
        BACKEND_DIRS.iter().find_map(|dir| {
            BACKEND_STEMS
                .iter()
                .find(|stem| rel == format!("{dir}{stem}.rs"))
                .copied()
        })
    };
    let registry: Vec<usize> = files
        .iter()
        .enumerate()
        .filter(|(_, f)| BACKEND_DIRS.iter().any(|d| f.rel == format!("{d}mod.rs")))
        .map(|(i, _)| i)
        .collect();
    let mut checked = 0usize;
    for (start, f) in files.iter().enumerate() {
        let Some(stem) = backend_stem(f.rel) else {
            continue;
        };
        checked += 1;
        // BFS with parent pointers for a witness path.
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: Vec<usize> = vec![start];
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        seen.insert(start);
        while let Some(node) = queue.pop() {
            for &next in &refs[node] {
                if seen.contains(&next) || registry.contains(&next) {
                    continue;
                }
                seen.insert(next);
                parent.insert(next, node);
                if let Some(other) = backend_stem(files[next].rel) {
                    if other != stem && node != start {
                        let mut path = vec![files[next].rel.to_owned()];
                        let mut at = node;
                        while at != start {
                            path.push(files[at].rel.to_owned());
                            at = parent[&at];
                        }
                        path.push(f.rel.to_owned());
                        path.reverse();
                        findings.push(Finding {
                            file: f.rel.to_owned(),
                            line: 1,
                            rule: "G004",
                            message: format!(
                                "backend `{stem}` transitively reaches sibling backend `{other}`: {}",
                                path.join(" -> ")
                            ),
                        });
                        continue;
                    }
                }
                queue.push(next);
            }
        }
    }
    findings.sort();
    checked
}

/// C004 — D002 lifted to reachability: any file the artifact/report
/// paths transitively pull in (via use, qualified-call, or `mod`
/// edges) must not use `HashMap`/`HashSet` outside tests, even if its
/// path is not under the D002 prefixes.
fn hash_reachability(
    files: &[GraphFile<'_>],
    scans: &[&crate::lexer::Scan],
    refs: &[BTreeSet<usize>],
    mods: &[BTreeSet<usize>],
    findings: &mut Vec<Finding>,
) {
    let under_d002 =
        |rel: &str| D002_PREFIXES.iter().any(|p| rel.starts_with(p)) || D002_FILES.contains(&rel);
    let mut reachable: BTreeSet<usize> = BTreeSet::new();
    let mut queue: Vec<usize> = Vec::new();
    for (i, f) in files.iter().enumerate() {
        if under_d002(f.rel) && !is_test_context(f.rel) {
            reachable.insert(i);
            queue.push(i);
        }
    }
    while let Some(node) = queue.pop() {
        for &next in refs[node].iter().chain(mods[node].iter()) {
            if reachable.insert(next) {
                queue.push(next);
            }
        }
    }
    for &i in &reachable {
        let rel = files[i].rel;
        if under_d002(rel) || is_test_context(rel) {
            continue; // D002 already has jurisdiction
        }
        let hit = scans[i].tokens.iter().find(|t| {
            t.kind == crate::lexer::TokenKind::Ident
                && (t.text == "HashMap" || t.text == "HashSet")
                && !scans[i].is_test_line(t.line)
        });
        if let Some(t) = hit {
            findings.push(Finding {
                file: rel.to_owned(),
                line: t.line,
                rule: "C004",
                message: format!(
                    "{} in a file reachable from the artifact/report paths; iteration order may leak into output — use BTreeMap/BTreeSet or suppress with the reason it cannot",
                    t.text
                ),
            });
        }
    }
}

/// G005 — every library module is reachable from a target: a search
/// from the bins, tests, benches and examples over use/call edges (not
/// `mod` ownership, since every crate root declares every module) must
/// reach each non-root file under `crates/*/src` or `src/`. Runs only
/// when the tree contains a target.
fn target_reachability(
    files: &[GraphFile<'_>],
    graph: &ModuleGraph,
    refs: &[BTreeSet<usize>],
    findings: &mut Vec<Finding>,
) {
    let mut queue: Vec<usize> = (0..files.len())
        .filter(|&i| is_target(files[i].rel))
        .collect();
    let mut reached: BTreeSet<usize> = queue.iter().copied().collect();
    while let Some(node) = queue.pop() {
        for &next in &refs[node] {
            if reached.insert(next) {
                queue.push(next);
            }
        }
    }
    if reached.is_empty() {
        return;
    }
    for (i, f) in files.iter().enumerate() {
        let Some(krate) = &graph.crates[i] else {
            continue;
        };
        let path = &graph.paths[i];
        if path.is_empty() || is_target(f.rel) || reached.contains(&i) {
            continue;
        }
        findings.push(Finding {
            file: f.rel.to_owned(),
            line: 1,
            rule: "G005",
            message: format!(
                "library module `{krate}::{}` is reached by no bin, test, bench or example; delete it or reach it from one",
                path.join("::")
            ),
        });
    }
}

/// Builds both graphs, runs G001–G005 and C004, and returns the
/// [`ArchGraph`]. `files` must be sorted by `rel` (the walk order) and
/// `scans[i]` must correspond to `files[i]`.
#[must_use]
pub fn analyze(files: &[GraphFile<'_>], scans: &[&crate::lexer::Scan]) -> ArchGraph {
    let graph = ModuleGraph::build(files);
    let refs = reference_edges(files, scans, &graph);
    let mods = mod_decl_edges(files, &graph);
    let (crates, edges, mut findings) = crate_rules(files, scans, &graph);
    let backend_files = backend_isolation(files, &refs, &mut findings);
    hash_reachability(files, scans, &refs, &mods, &mut findings);
    target_reachability(files, &graph, &refs, &mut findings);
    findings.sort();
    ArchGraph {
        crates,
        edges,
        findings,
        backend_files,
    }
}

/// Renders the deterministic `reproduce archgraph` artifact: the crate
/// table, the deduplicated edges with one witness file each, the
/// G-rule verdicts, and a DOT digraph. Intentionally free of line
/// numbers and per-fn counts so it only changes when the cross-crate
/// structure changes.
#[must_use]
pub fn render_archgraph(g: &ArchGraph) -> String {
    let mut out = String::new();
    out.push_str("== PIXEL workspace architecture graph ==\n\n");
    out.push_str(&format!("crates ({}):\n", g.crates.len()));
    for k in &g.crates {
        let layer = layer_of(k).map_or("?".to_owned(), |l| l.to_string());
        out.push_str(&format!("  {k:<18} layer {layer}\n"));
    }
    out.push_str(&format!("\nedges ({}):\n", g.edges.len()));
    for e in &g.edges {
        out.push_str(&format!("  {:<18} -> {:<18} ({})\n", e.from, e.to, e.file));
    }
    let by_rule = |rule: &str| g.findings.iter().filter(|f| f.rule == rule).count();
    out.push_str("\nverdicts:\n");
    for (rule, label) in [
        ("G001", "cycles"),
        ("G002", "layering"),
        ("G003", "leaf isolation"),
        ("G004", "backend isolation"),
        ("C004", "hash reachability"),
    ] {
        let n = by_rule(rule);
        let verdict = if n == 0 {
            "ok".to_owned()
        } else {
            format!("{n} violation(s)")
        };
        out.push_str(&format!("  {rule} {label:<18} {verdict}\n"));
    }
    out.push_str(&format!(
        "  backend files checked by G004: {}\n",
        g.backend_files
    ));
    out.push_str("\ndigraph pixel_workspace {\n");
    for k in &g.crates {
        out.push_str(&format!("  \"{k}\";\n"));
    }
    for e in &g.edges {
        out.push_str(&format!("  \"{}\" -> \"{}\";\n", e.from, e.to));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::parser::parse;

    fn analyze_src(sources: &[(&str, &str)]) -> ArchGraph {
        let scans: Vec<_> = sources.iter().map(|(_, s)| scan(s)).collect();
        let items: Vec<_> = scans.iter().map(parse).collect();
        let files: Vec<GraphFile<'_>> = sources
            .iter()
            .zip(items.iter())
            .map(|((rel, _), items)| GraphFile { rel, items })
            .collect();
        let scan_refs: Vec<_> = scans.iter().collect();
        analyze(&files, &scan_refs)
    }

    #[test]
    fn crate_and_module_paths() {
        assert_eq!(
            crate_of("crates/core/src/model/ee.rs").as_deref(),
            Some("pixel_core")
        );
        assert_eq!(crate_of("src/lib.rs").as_deref(), Some("pixel"));
        assert_eq!(crate_of("crates/core/tests/x.rs"), None);
        assert_eq!(module_path("crates/core/src/model/ee.rs"), ["model", "ee"]);
        assert_eq!(module_path("crates/core/src/model/mod.rs"), ["model"]);
        assert!(module_path("crates/core/src/lib.rs").is_empty());
    }

    #[test]
    fn layering_violation_is_g002() {
        let g = analyze_src(&[
            ("crates/units/src/lib.rs", ""),
            (
                "crates/core/src/lib.rs",
                "use pixel_serve::machine::ServeMachine;\n",
            ),
            ("crates/serve/src/lib.rs", "use pixel_units::Energy;\n"),
        ]);
        assert!(g.findings.iter().any(|f| f.rule == "G002"
            && f.file == "crates/core/src/lib.rs"
            && f.message.contains("pixel_serve")));
    }

    #[test]
    fn leaf_reference_is_g003_not_g002() {
        let g = analyze_src(&[
            (
                "crates/units/src/lib.rs",
                "use pixel_core::config::Design;\n",
            ),
            ("crates/core/src/lib.rs", ""),
        ]);
        assert!(g.findings.iter().any(|f| f.rule == "G003"));
        assert!(!g.findings.iter().any(|f| f.rule == "G002"));
    }

    #[test]
    fn cycle_is_g001() {
        let g = analyze_src(&[
            ("crates/core/src/lib.rs", "use pixel_dnn::zoo;\n"),
            ("crates/dnn/src/lib.rs", "use pixel_core::config::Design;\n"),
        ]);
        assert!(g
            .findings
            .iter()
            .any(|f| f.rule == "G001" && f.message.contains("->")));
    }

    #[test]
    fn transitive_backend_reach_is_g004_but_registry_is_not() {
        let g = analyze_src(&[
            (
                "crates/core/src/model/ee.rs",
                "use crate::model::shared::helper;\nfn f() { helper(); }\n",
            ),
            (
                "crates/core/src/model/shared.rs",
                "use crate::model::oe::OeModel;\npub fn helper() {}\n",
            ),
            ("crates/core/src/model/oe.rs", "pub struct OeModel;\n"),
            (
                "crates/core/src/model/mod.rs",
                "mod ee;\nmod oe;\nmod shared;\nuse self::ee::*;\nuse self::oe::*;\n",
            ),
            ("crates/core/src/lib.rs", "mod model;\n"),
        ]);
        let g004: Vec<_> = g.findings.iter().filter(|f| f.rule == "G004").collect();
        assert_eq!(g004.len(), 1, "{:?}", g.findings);
        assert!(g004[0].message.contains("shared.rs"));
        assert_eq!(g004[0].file, "crates/core/src/model/ee.rs");
    }

    #[test]
    fn direct_sibling_reference_is_left_to_a002() {
        let g = analyze_src(&[
            (
                "crates/core/src/model/ee.rs",
                "use crate::model::oe::OeModel;\n",
            ),
            ("crates/core/src/model/oe.rs", "pub struct OeModel;\n"),
            ("crates/core/src/model/mod.rs", "mod ee;\nmod oe;\n"),
            ("crates/core/src/lib.rs", "mod model;\n"),
        ]);
        assert!(!g.findings.iter().any(|f| f.rule == "G004"));
    }

    #[test]
    fn hash_in_reachable_file_is_c004() {
        let g = analyze_src(&[
            (
                "crates/bench/src/lib.rs",
                "use pixel_core::helper::thing;\n",
            ),
            (
                "crates/core/src/helper.rs",
                "use std::collections::HashMap;\npub fn thing() {}\n",
            ),
            ("crates/core/src/lib.rs", "pub mod helper;\n"),
        ]);
        assert!(g
            .findings
            .iter()
            .any(|f| f.rule == "C004" && f.file == "crates/core/src/helper.rs" && f.line == 1));
    }

    #[test]
    fn hash_in_unreachable_file_is_clean() {
        let g = analyze_src(&[
            ("crates/bench/src/lib.rs", ""),
            (
                "crates/core/src/island.rs",
                "use std::collections::HashMap;\n",
            ),
            ("crates/core/src/lib.rs", ""),
        ]);
        assert!(!g.findings.iter().any(|f| f.rule == "C004"));
    }

    #[test]
    fn archgraph_rendering_is_stable_and_complete() {
        let g = analyze_src(&[
            ("crates/core/src/lib.rs", "use pixel_units::Energy;\n"),
            ("crates/units/src/lib.rs", ""),
        ]);
        let text = render_archgraph(&g);
        assert!(text.contains("pixel_core"));
        assert!(text.contains("\"pixel_core\" -> \"pixel_units\";"));
        assert!(text.contains("G001 cycles"));
        assert_eq!(text, render_archgraph(&g));
    }
}
