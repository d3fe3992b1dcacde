//! Name-resolved workspace call graph, the P1xx transitive panic-path
//! rules, and G006 (`pub` fns no target reaches).
//!
//! Where P001–P003 flag lexical panic sites, P101–P104 flag panic
//! sites *reachable* from the artifact entry points: every fn in a
//! `src/bin/` or `src/main.rs` target plus the documented library
//! surfaces (`reproduce` artifact renderers, `ServeMachine`, the fleet
//! event loops). Resolution is by function name within a crate and its
//! dependency crates — deliberately over-approximate (no type
//! information), so it errs toward reporting reachability; a justified
//! `lint:allow(P001)`-family suppression at the panic site covers the
//! matching transitive rule too (see `rules::suppression_covers`).
//!
//! G006 walks the same edges from G005's targets instead: a `pub fn`
//! is reached if a bin, `tests/` or `examples/` file, a trait impl, an
//! item outside every fn body, or `#[cfg(test)]` code in *another* file
//! names it, directly or through fns so reached. Test code and targets
//! resolve names in every workspace crate (dev-dependencies leave no
//! crate edge), so the walk errs toward "reached".

use crate::diag::Finding;
use crate::graph::{crate_of, is_target, CrateEdge};
use crate::parser::{FileItems, PanicKind};
use crate::rules::is_library_src;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Library files whose `pub fn`s are artifact entry points even though
/// they are not bin targets: artifact renderers, the serving state
/// machine, and the fleet event loops. Extend alongside DESIGN.md §14.
pub const ENTRY_LIB_FILES: [&str; 5] = [
    "crates/bench/src/lib.rs",
    "crates/bench/src/perf.rs",
    "crates/serve/src/machine.rs",
    "crates/fleet/src/sim.rs",
    "crates/fleet/src/sweep.rs",
];

/// True for files whose every fn is an entry root (bin targets).
fn is_bin_target(rel: &str) -> bool {
    rel.ends_with("/main.rs") || rel == "src/main.rs" || rel.contains("/src/bin/")
}

struct FnNode {
    /// Index into the `files` slice.
    file: usize,
    /// Index into that file's `fns`.
    item: usize,
    /// Entry root?
    entry: bool,
}

/// One analyzed file, as the call-graph layer sees it.
pub struct CgFile<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Parsed items.
    pub items: &'a FileItems,
    /// Token scan (for `#[cfg(test)]` span filtering).
    pub scan: &'a crate::lexer::Scan,
}

/// Fn nodes of non-test library code and the name-resolved edges
/// between them.
struct CallGraph<'a> {
    files: &'a [CgFile<'a>],
    /// Nodes in deterministic (file, line) order.
    nodes: Vec<FnNode>,
    /// Nodes by (crate, fn name).
    by_name: BTreeMap<(String, &'a str), Vec<usize>>,
    /// Workspace crate of each file.
    crate_keys: Vec<Option<String>>,
    /// Every workspace crate with a library file.
    crates: BTreeSet<String>,
    /// Crates each crate depends on, transitively.
    deps: BTreeMap<String, BTreeSet<String>>,
    /// Callee nodes of each node.
    adjacency: Vec<BTreeSet<usize>>,
}

impl<'a> CallGraph<'a> {
    fn build(files: &'a [CgFile<'a>], edges: &[CrateEdge]) -> Self {
        let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for e in edges {
            deps.entry(e.from.clone()).or_default().insert(e.to.clone());
        }
        // Method calls reach items of crates a caller never names
        // (`report.total_energy().pj()`), so the cone is transitive.
        loop {
            let before: usize = deps.values().map(BTreeSet::len).sum();
            for from in deps.keys().cloned().collect::<Vec<_>>() {
                let reach: BTreeSet<String> = deps[&from]
                    .iter()
                    .flat_map(|d| deps.get(d).into_iter().flatten().cloned())
                    .collect();
                deps.entry(from).or_default().extend(reach);
            }
            if deps.values().map(BTreeSet::len).sum::<usize>() == before {
                break;
            }
        }

        let mut nodes: Vec<FnNode> = Vec::new();
        let mut by_name: BTreeMap<(String, &str), Vec<usize>> = BTreeMap::new();
        let mut node_of: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let crate_keys: Vec<Option<String>> = files.iter().map(|f| crate_of(f.rel)).collect();
        for (fi, f) in files.iter().enumerate() {
            let Some(krate) = &crate_keys[fi] else {
                continue;
            };
            if !is_library_src(f.rel) {
                continue;
            }
            let entry_file = is_bin_target(f.rel);
            let entry_lib = ENTRY_LIB_FILES.contains(&f.rel);
            for (ii, item) in f.items.fns.iter().enumerate() {
                if f.scan.is_test_line(item.line) {
                    continue;
                }
                let id = nodes.len();
                nodes.push(FnNode {
                    file: fi,
                    item: ii,
                    entry: entry_file || (entry_lib && item.is_pub),
                });
                node_of.insert((fi, ii), id);
                by_name
                    .entry((krate.clone(), item.name.as_str()))
                    .or_default()
                    .push(id);
            }
        }
        let mut graph = Self {
            files,
            adjacency: vec![BTreeSet::new(); nodes.len()],
            nodes,
            by_name,
            crates: crate_keys.iter().flatten().cloned().collect(),
            crate_keys,
            deps,
        };
        for (fi, f) in files.iter().enumerate() {
            for c in f.items.calls.iter().chain(&f.items.refs) {
                let Some(&from) = c.caller.and_then(|ii| node_of.get(&(fi, ii))) else {
                    continue;
                };
                if f.scan.is_test_line(c.line) {
                    continue;
                }
                for to in graph.resolve(graph.crate_keys[fi].as_deref(), &c.segments) {
                    if to != from {
                        graph.adjacency[from].insert(to);
                    }
                }
            }
        }
        graph
    }

    /// Candidate nodes for a name used by code of crate `scope` (`None`:
    /// test code or a target, which may name any workspace crate). A
    /// `pixel_x::…` or `pixel::x::…` head pins the crate.
    fn resolve(&self, scope: Option<&str>, segments: &[String]) -> Vec<usize> {
        let Some(name) = segments.last() else {
            return Vec::new();
        };
        let head = segments.first().map(String::as_str).unwrap_or_default();
        let pinned = match segments {
            [h, krate, _, ..] if h == "pixel" => Some(format!("pixel_{krate}")),
            [_, _, ..] if head == "pixel" || head.starts_with("pixel_") => Some(head.to_owned()),
            _ => None,
        };
        let found = |krate: &str| {
            self.by_name
                .get(&(krate.to_owned(), name.as_str()))
                .into_iter()
                .flatten()
                .copied()
        };
        match (pinned, scope) {
            (Some(krate), _) => found(&krate).collect(),
            (None, Some(own)) => found(own)
                .chain(
                    self.deps
                        .get(own)
                        .into_iter()
                        .flatten()
                        .flat_map(|d| found(d)),
                )
                .collect(),
            (None, None) => self.crates.iter().flat_map(|k| found(k)).collect(),
        }
    }

    fn name(&self, id: usize) -> &'a str {
        let n = &self.nodes[id];
        self.files[n.file].items.fns[n.item].name.as_str()
    }
}
/// Walks the call graph from the entry roots and returns P101–P104
/// findings for every reachable panic site in non-test library code,
/// then G006 findings for `pub` fns no target reaches. `files` must be
/// sorted by `rel`; `edges` is the crate graph from
/// [`crate::graph::analyze`], used to bound name resolution to a
/// crate's dependency cone.
#[must_use]
pub fn analyze(files: &[CgFile<'_>], edges: &[CrateEdge]) -> Vec<Finding> {
    let graph = CallGraph::build(files, edges);
    let mut findings = panic_paths(&graph);
    findings.extend(unreached_pub_fns(&graph));
    findings.sort();
    findings
}

/// P101–P104: panic sites reachable from the entry roots, each with a
/// witness path.
fn panic_paths(graph: &CallGraph<'_>) -> Vec<Finding> {
    let nodes = &graph.nodes;
    // BFS from the entry roots, keeping the first-discovered parent so
    // every finding can cite a concrete witness path.
    let mut dist: Vec<Option<u32>> = vec![None; nodes.len()];
    let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (id, n) in nodes.iter().enumerate() {
        if n.entry {
            dist[id] = Some(0);
            queue.push_back(id);
        }
    }
    while let Some(at) = queue.pop_front() {
        for &next in &graph.adjacency[at] {
            if dist[next].is_none() {
                dist[next] = dist[at].map(|d| d + 1);
                parent[next] = Some(at);
                queue.push_back(next);
            }
        }
    }

    let node_at = |fi: usize, ii: usize| {
        nodes
            .binary_search_by_key(&(fi, ii), |n| (n.file, n.item))
            .ok()
    };
    let mut findings = Vec::new();
    for (fi, f) in graph.files.iter().enumerate() {
        for p in &f.items.panics {
            let Some(node) = node_at(fi, p.caller) else {
                continue;
            };
            let Some(d) = dist[node] else {
                continue;
            };
            if f.scan.is_test_line(p.line) {
                continue;
            }
            // Witness path: entry -> ... -> enclosing fn (≤ 4 hops shown).
            let mut path = vec![node];
            let mut at = node;
            while let Some(par) = parent[at] {
                path.push(par);
                at = par;
            }
            path.reverse();
            let entry_node = path[0];
            let entry_file = graph.files[nodes[entry_node].file].rel;
            let shown: Vec<&str> = if path.len() > 4 {
                vec![
                    graph.name(path[0]),
                    graph.name(path[1]),
                    "...",
                    graph.name(node),
                ]
            } else {
                path.iter().map(|&id| graph.name(id)).collect()
            };
            let (rule, what) = match p.kind {
                PanicKind::Unwrap => ("P101", "unwrap()"),
                PanicKind::Expect => ("P102", "expect()"),
                PanicKind::Panic => ("P103", "panic!"),
                PanicKind::Index => ("P104", "arithmetic slice index"),
            };
            findings.push(Finding {
                file: f.rel.to_owned(),
                line: p.line,
                rule,
                message: format!(
                    "{what} reachable from artifact entry `{}` ({entry_file}) in {d} call(s): {}",
                    graph.name(entry_node),
                    shown.join(" -> ")
                ),
            });
        }
    }
    findings
}

/// G006: `pub fn`s in library files that no target reaches. The walk
/// starts at the bins' fns, at trait-impl fns (called without their
/// names), and at what targets, item-level code and test code name —
/// except test code naming its own file's fns. Runs only when the tree
/// contains a target, as G005 does.
fn unreached_pub_fns(graph: &CallGraph<'_>) -> Vec<Finding> {
    let files = graph.files;
    if !files.iter().any(|f| is_target(f.rel)) {
        return Vec::new();
    }
    let nodes = &graph.nodes;
    let mut reached = vec![false; nodes.len()];
    let mut queue: Vec<usize> = Vec::new();
    let mut seed = |id: usize, queue: &mut Vec<usize>| {
        if !reached[id] {
            reached[id] = true;
            queue.push(id);
        }
    };
    for (id, n) in nodes.iter().enumerate() {
        if is_bin_target(files[n.file].rel) || files[n.file].items.fns[n.item].trait_impl {
            seed(id, &mut queue);
        }
    }
    for (fi, f) in files.iter().enumerate() {
        let sites = f.items.calls.iter().chain(&f.items.refs);
        for c in sites {
            let test = is_target(f.rel) || f.scan.is_test_line(c.line);
            let scope = graph.crate_keys[fi].as_deref().filter(|_| !test);
            if !test && c.caller.is_some() {
                continue; // an ordinary edge, walked below
            }
            for to in graph.resolve(scope, &c.segments) {
                if !(test && nodes[to].file == fi) {
                    seed(to, &mut queue);
                }
            }
        }
    }
    while let Some(at) = queue.pop() {
        for &next in &graph.adjacency[at] {
            seed(next, &mut queue);
        }
    }

    let mut findings = Vec::new();
    for (id, n) in nodes.iter().enumerate() {
        let f = &files[n.file];
        let item = &f.items.fns[n.item];
        if reached[id] || !item.is_pub || item.trait_impl || is_bin_target(f.rel) {
            continue;
        }
        findings.push(Finding {
            file: f.rel.to_owned(),
            line: item.line,
            rule: "G006",
            message: format!(
                "pub fn `{}` is reached by no bin, test or example (its own file's tests do not count); delete it or reach it from one",
                item.name
            ),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphFile;
    use crate::lexer::scan;
    use crate::parser::parse;

    fn analyze_src(sources: &[(&str, &str)]) -> Vec<Finding> {
        let scans: Vec<_> = sources.iter().map(|(_, s)| scan(s)).collect();
        let items: Vec<_> = scans.iter().map(parse).collect();
        let gfiles: Vec<GraphFile<'_>> = sources
            .iter()
            .zip(items.iter())
            .map(|((rel, _), items)| GraphFile { rel, items })
            .collect();
        let scan_refs: Vec<_> = scans.iter().collect();
        let arch = crate::graph::analyze(&gfiles, &scan_refs);
        let cfiles: Vec<CgFile<'_>> = sources
            .iter()
            .zip(items.iter())
            .zip(scans.iter())
            .map(|(((rel, _), items), scan)| CgFile { rel, items, scan })
            .collect();
        analyze(&cfiles, &arch.edges)
    }

    #[test]
    fn unwrap_reachable_from_bin_is_p101() {
        let f = analyze_src(&[
            (
                "crates/bench/src/bin/reproduce.rs",
                "fn main() { pixel_core::helper::risky(); }\n",
            ),
            (
                "crates/core/src/helper.rs",
                "pub fn risky() { std::fs::read(\"x\").unwrap(); }\n",
            ),
            ("crates/core/src/lib.rs", "pub mod helper;\n"),
        ]);
        let p101: Vec<_> = f.iter().filter(|f| f.rule == "P101").collect();
        assert_eq!(p101.len(), 1, "{f:?}");
        assert_eq!(p101[0].file, "crates/core/src/helper.rs");
        assert!(p101[0].message.contains("main"), "{}", p101[0].message);
        assert!(p101[0].message.contains("1 call(s)"));
    }

    #[test]
    fn unreachable_panic_is_not_flagged() {
        let f = analyze_src(&[
            ("crates/bench/src/bin/reproduce.rs", "fn main() {}\n"),
            (
                "crates/core/src/helper.rs",
                "pub fn island() { panic!(\"never called\"); }\n",
            ),
            ("crates/core/src/lib.rs", "pub mod helper;\n"),
        ]);
        assert!(
            !f.iter().any(|f| f.rule == "P103"),
            "island fn must not be reachable: {f:?}"
        );
    }

    #[test]
    fn entry_lib_pub_fns_are_roots() {
        let f = analyze_src(&[
            (
                "crates/bench/src/lib.rs",
                "pub fn table1() -> String { inner() }\nfn inner() -> String { opt().expect(\"set\") }\nfn opt() -> Option<String> { None }\n",
            ),
        ]);
        let p102: Vec<_> = f.iter().filter(|f| f.rule == "P102").collect();
        assert_eq!(p102.len(), 1, "{f:?}");
        assert!(p102[0].message.contains("table1"));
    }

    #[test]
    fn private_fns_in_entry_lib_are_not_roots() {
        let f = analyze_src(&[(
            "crates/bench/src/lib.rs",
            "fn dead() { never().unwrap(); }\nfn never() -> Option<u32> { None }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn arithmetic_index_is_p104() {
        let f = analyze_src(&[(
            "crates/fleet/src/sim.rs",
            "pub fn run(v: &[u32], i: usize) -> u32 { v[i + 1] }\n",
        )]);
        let p104: Vec<_> = f.iter().filter(|f| f.rule == "P104").collect();
        assert_eq!(p104.len(), 1, "{f:?}");
        assert!(p104[0].message.contains("0 call(s)"));
    }

    #[test]
    fn reachability_respects_the_dependency_cone() {
        // `helper` exists in two crates; serve depends only on core, so
        // the unwrap in the unrelated crate must not become reachable.
        let f = analyze_src(&[
            (
                "crates/serve/src/machine.rs",
                "use pixel_core::util::helper;\npub fn step() { helper(); }\n",
            ),
            ("crates/core/src/util.rs", "pub fn helper() {}\n"),
            ("crates/core/src/lib.rs", "pub mod util;\n"),
            (
                "crates/fleet/src/other.rs",
                "pub fn helper() { fail().unwrap(); }\nfn fail() -> Option<u32> { None }\n",
            ),
            ("crates/fleet/src/lib.rs", "pub mod other;\n"),
        ]);
        assert!(
            !f.iter().any(|f| f.file.contains("fleet")),
            "fleet is not in serve's cone: {f:?}"
        );
    }
}
