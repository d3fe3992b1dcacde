//! Findings, the rule registry, and the human / JSON output formats.

use std::fmt;

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Stable rule ID (`D001`, `A002`, ...).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Static description of one rule, for `--list-rules` and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable ID.
    pub id: &'static str,
    /// One-line summary of what the rule enforces.
    pub summary: &'static str,
}

/// Every rule the analyzer knows, in report order.
pub const RULES: [RuleInfo; 28] = [
    RuleInfo {
        id: "D001",
        summary: "no SystemTime / Instant::now outside crates/obs and crates/bench/src/timing.rs",
    },
    RuleInfo {
        id: "D002",
        summary: "no HashMap/HashSet in artifact/report/serve paths (iteration order reaches output); use BTreeMap or a sorted collection",
    },
    RuleInfo {
        id: "D003",
        summary: "no float == / != against float literals outside tests",
    },
    RuleInfo {
        id: "D004",
        summary: "no std::env reads outside the sanctioned sweep/CLI entry points",
    },
    RuleInfo {
        id: "A001",
        summary: "no match on Design outside the crates/core model/ and omac/ backend modules",
    },
    RuleInfo {
        id: "A002",
        summary: "no cross-backend reference (ee.rs must not name oe:: or oo::, etc.)",
    },
    RuleInfo {
        id: "G001",
        summary: "no cycles in the workspace crate dependency graph",
    },
    RuleInfo {
        id: "G002",
        summary: "crate edges must point to a strictly lower layer of the documented layering (units/obs/lint -> photonics/electronics/dnn -> core -> serve -> fleet -> bench)",
    },
    RuleInfo {
        id: "G003",
        summary: "layer-0 leaf crates (pixel-units, pixel-obs, pixel-lint) must not reference any workspace crate",
    },
    RuleInfo {
        id: "G004",
        summary: "no transitive reference between ee/oe/oo backend files through intermediate modules (A002 lifted to the module graph)",
    },
    RuleInfo {
        id: "G005",
        summary: "every non-root library module must be reachable over use/call edges from a bin, test, bench or example (checked when the tree has a target)",
    },
    RuleInfo {
        id: "G006",
        summary: "every pub fn in a library file must be reached over call edges from a bin, test, example, trait impl or another file's tests (checked when the tree has a target)",
    },
    RuleInfo {
        id: "U001",
        summary: "public fns in core/electronics/photonics with quantity-named params or returns must use pixel-units types, not bare f64",
    },
    RuleInfo {
        id: "O001",
        summary: "metric names passed to pixel_obs::{add,gauge,observe} must be lowercase dot-namespaced (crate.subsystem.metric)",
    },
    RuleInfo {
        id: "P001",
        summary: "no .unwrap() in non-test library code without a lint:allow suppression",
    },
    RuleInfo {
        id: "P002",
        summary: "no .expect() in non-test library code without a lint:allow suppression",
    },
    RuleInfo {
        id: "P003",
        summary: "no panic! in non-test library code without a lint:allow suppression",
    },
    RuleInfo {
        id: "P101",
        summary: "no .unwrap() reachable from an artifact entry point via the workspace call graph (covered by a P001 suppression at the site)",
    },
    RuleInfo {
        id: "P102",
        summary: "no .expect() reachable from an artifact entry point via the workspace call graph (covered by a P002 suppression at the site)",
    },
    RuleInfo {
        id: "P103",
        summary: "no panic! reachable from an artifact entry point via the workspace call graph (covered by a P003 suppression at the site)",
    },
    RuleInfo {
        id: "P104",
        summary: "no arithmetic slice indexing (v[i + 1]) reachable from an artifact entry point; use get(), split_at, or suppress with the bound argument",
    },
    RuleInfo {
        id: "C001",
        summary: "no thread spawns outside the sanctioned parallel modules (pixel_core::sweep, the functional fabric, the serve I/O layer, the lint walk)",
    },
    RuleInfo {
        id: "C002",
        summary: "no static mut anywhere and no interior-mutable statics outside crates/obs and the documented process-wide knobs",
    },
    RuleInfo {
        id: "C003",
        summary: "no compound-assign accumulation of join() results inside thread::scope (completion-order merges are nondeterministic; fold handles in spawn order)",
    },
    RuleInfo {
        id: "C004",
        summary: "no HashMap/HashSet in files reachable from the artifact/report paths via the use graph (D002 lifted to reachability)",
    },
    RuleInfo {
        id: "S001",
        summary: "the implemented rule set and the DESIGN.md catalogue must match exactly, both directions",
    },
    RuleInfo {
        id: "X001",
        summary: "every lint:allow marker must list known rule IDs and carry a reason",
    },
    RuleInfo {
        id: "X002",
        summary: "no stale lint:allow markers: a suppression that suppresses nothing must be removed (checked under --unused-suppressions)",
    },
];

/// True if `id` names a known rule.
#[must_use]
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Renders findings in the human `file:line: RULE: message` format.
#[must_use]
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    if findings.is_empty() {
        out.push_str("pixel-lint: no findings\n");
    } else {
        out.push_str(&format!("pixel-lint: {} finding(s)\n", findings.len()));
    }
    out
}

/// Escapes a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders findings as a stable JSON document:
///
/// ```json
/// {"version":1,"total":1,"findings":[
///   {"rule":"P001","file":"crates/x/src/y.rs","line":12,"message":"..."}]}
/// ```
#[must_use]
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"version\":1,\"total\":{},\"findings\":[",
        findings.len()
    ));
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            f.rule,
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            file: "crates/x/src/y.rs".to_owned(),
            line: 3,
            rule: "P001",
            message: "say \"no\"".to_owned(),
        }
    }

    #[test]
    fn human_format_is_clickable() {
        let text = render_human(&[sample()]);
        assert!(text.starts_with("crates/x/src/y.rs:3: P001: "));
        assert!(text.contains("1 finding(s)"));
    }

    #[test]
    fn json_escapes_quotes() {
        let json = render_json(&[sample()]);
        assert!(json.contains("\\\"no\\\""));
        assert!(json.contains("\"total\":1"));
    }

    #[test]
    fn rule_ids_are_unique_and_known() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(is_known_rule(r.id));
            assert!(!RULES[..i].iter().any(|p| p.id == r.id), "dup {}", r.id);
        }
        assert!(!is_known_rule("Z999"));
    }
}
