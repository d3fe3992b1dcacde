//! Span-tree aggregation: parent/child nesting, self-vs-total time, and
//! a collapsed-stack (flamegraph) export.
//!
//! Span paths are slash-separated (`"reproduce/fig7"`), built by nested
//! RAII [`SpanGuard`](crate::span::SpanGuard)s. This module folds a
//! [`Snapshot`]'s flat path→stats map back into the call tree: each
//! [`SpanNode`] carries its own [`SpanStats`] plus a **self time** —
//! total time minus the time attributed to its children — so hot
//! *leaves* are distinguishable from hot *subtrees*. Parents that never
//! completed a span of their own (e.g. a path recorded only as
//! `"a/b"`) appear as implicit zero-count nodes.
//!
//! [`SpanNode::collapsed_stacks`] renders the tree in the collapsed
//! stack-line format consumed by flamegraph tooling (`inferno`,
//! `flamegraph.pl`): one `seg;seg;seg weight` line per node, weighted by
//! self time in microseconds.

use crate::registry::{Snapshot, SpanStats};
use std::fmt::Write as _;
use std::time::Duration;

/// One node of the reconstructed span call tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Last path segment (empty for the root).
    pub name: String,
    /// Full slash-separated path (empty for the root).
    pub path: String,
    /// Aggregated stats recorded at exactly this path (zeroed for
    /// implicit intermediate nodes).
    pub stats: SpanStats,
    /// Total time minus time spent in child spans (saturating: clock
    /// skew between overlapping guards never yields negative time).
    pub self_time: Duration,
    /// Child nodes, in deterministic (lexicographic segment) order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn empty(name: &str, path: &str) -> Self {
        Self {
            name: name.to_owned(),
            path: path.to_owned(),
            stats: SpanStats::default(),
            self_time: Duration::ZERO,
            children: Vec::new(),
        }
    }

    /// Builds the span tree of a snapshot. The returned root is a
    /// synthetic node (empty name) holding every top-level span.
    #[must_use]
    pub fn build(snapshot: &Snapshot) -> Self {
        let mut root = Self::empty("", "");
        for (path, stats) in &snapshot.spans {
            root.insert(path, *stats);
        }
        root.finalize();
        root
    }

    fn insert(&mut self, path: &str, stats: SpanStats) {
        let mut node = self;
        let mut prefix = String::new();
        for segment in path.split('/') {
            if !prefix.is_empty() {
                prefix.push('/');
            }
            prefix.push_str(segment);
            let at = match node.children.iter().position(|c| c.name == segment) {
                Some(at) => at,
                None => {
                    node.children.push(Self::empty(segment, &prefix));
                    node.children.len() - 1
                }
            };
            node = &mut node.children[at];
        }
        node.stats = stats;
    }

    /// Computes self times bottom-up.
    fn finalize(&mut self) {
        let mut in_children = Duration::ZERO;
        for child in &mut self.children {
            child.finalize();
            in_children += child.stats.total;
        }
        self.self_time = self.stats.total.saturating_sub(in_children);
    }

    /// Depth-first walk over the real tree nodes (root excluded),
    /// yielding `(depth, node)` with depth 0 for top-level spans.
    fn walk<'a>(&'a self, depth: usize, f: &mut impl FnMut(usize, &'a Self)) {
        for child in &self.children {
            f(depth, child);
            child.walk(depth + 1, f);
        }
    }

    /// Renders the tree as collapsed stack lines (`a;b;c weight`), one
    /// per node, weighted by **self time in microseconds**. Nodes whose
    /// self time rounds to zero microseconds are kept (weight 0) so the
    /// tree shape survives; feed the output directly to
    /// `inferno-flamegraph` or `flamegraph.pl`.
    #[must_use]
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        self.walk(0, &mut |_, node| {
            let _ = writeln!(
                out,
                "{} {}",
                node.path.replace('/', ";"),
                node.self_time.as_micros()
            );
        });
        out
    }
}

/// Renders the span section of the profile table as an indented tree
/// with a self-time column (used by
/// [`profile_table`](crate::profile::profile_table)).
#[must_use]
pub fn render_span_tree(
    snapshot: &Snapshot,
    format_duration: impl Fn(Duration) -> String,
) -> String {
    let root = SpanNode::build(snapshot);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<40} | {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "total", "self", "max"
    );
    root.walk(0, &mut |depth, node| {
        let label = format!("{}{}", "  ".repeat(depth), node.name);
        let _ = writeln!(
            out,
            "{label:<40} | {:>8} {:>12} {:>12} {:>12}",
            node.stats.count,
            format_duration(node.stats.total),
            format_duration(node.self_time),
            format_duration(node.stats.max),
        );
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.enable();
        r.record_span("app", Duration::from_micros(1000));
        r.record_span("app/load", Duration::from_micros(300));
        r.record_span("app/solve", Duration::from_micros(500));
        r.record_span("app/solve/inner", Duration::from_micros(200));
        // An orphan path whose parent never completed a span.
        r.record_span("other/leaf", Duration::from_micros(40));
        r
    }

    #[test]
    fn tree_reconstructs_nesting_and_self_time() {
        let root = SpanNode::build(&sample_registry().snapshot());
        assert_eq!(root.children.len(), 2);
        let app = &root.children[0];
        assert_eq!(app.path, "app");
        assert_eq!(app.children.len(), 2);
        assert_eq!(app.self_time, Duration::from_micros(200));
        let solve = &app.children[1];
        assert_eq!(solve.name, "solve");
        assert_eq!(solve.self_time, Duration::from_micros(300));
        assert_eq!(solve.children[0].self_time, Duration::from_micros(200));
        // Implicit parent: zero stats, zero self time.
        let other = &root.children[1];
        assert_eq!(other.name, "other");
        assert_eq!(other.stats.count, 0);
        assert_eq!(other.self_time, Duration::ZERO);
        assert_eq!(other.children[0].path, "other/leaf");
    }

    #[test]
    fn self_time_saturates_on_overlap() {
        let r = Registry::new();
        r.enable();
        // Children report more time than the parent (overlapping guards
        // on racing threads can do this): self time clamps at zero.
        r.record_span("p", Duration::from_micros(10));
        r.record_span("p/a", Duration::from_micros(8));
        r.record_span("p/b", Duration::from_micros(7));
        let root = SpanNode::build(&r.snapshot());
        assert_eq!(root.children[0].self_time, Duration::ZERO);
    }

    #[test]
    fn collapsed_stacks_use_semicolons_and_self_micros() {
        let root = SpanNode::build(&sample_registry().snapshot());
        let stacks = root.collapsed_stacks();
        let lines: Vec<&str> = stacks.lines().collect();
        assert!(lines.contains(&"app 200"));
        assert!(lines.contains(&"app;solve 300"));
        assert!(lines.contains(&"app;solve;inner 200"));
        assert!(lines.contains(&"other 0"));
        assert!(lines.contains(&"other;leaf 40"));
        // Total self time equals total recorded root time.
        let total: u64 = lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 1040);
    }

    #[test]
    fn render_indents_children_by_depth() {
        let text = render_span_tree(&sample_registry().snapshot(), |d| {
            format!("{}us", d.as_micros())
        });
        assert!(text.contains("\napp "));
        assert!(text.contains("\n  load "));
        assert!(text.contains("\n    inner "));
        let header = text.lines().next().unwrap();
        assert!(header.contains("self"));
    }

    #[test]
    fn empty_snapshot_builds_bare_root() {
        let root = SpanNode::build(&Snapshot::default());
        assert!(root.children.is_empty());
        assert!(root.collapsed_stacks().is_empty());
    }
}
