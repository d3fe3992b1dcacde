//! A lightweight item parser over the flat token stream.
//!
//! The structural rule families (G-rules over the dependency graph,
//! P1xx transitive panic-path rules, the reachability-lifted C004) need
//! more than per-line tokens but far less than `syn`: which modules a
//! file `use`s, which `fn` items it defines, which calls each body
//! makes, and where the panic-capable expressions sit. This module
//! extracts exactly that, by brace matching over [`crate::lexer::scan`]
//! output — no type information, no macro expansion.
//!
//! Known, deliberate limits (documented in DESIGN.md §14):
//!
//! * names, not items: call sites resolve by function *name* within a
//!   crate and its dependencies, an over-approximation that errs toward
//!   reporting reachability;
//! * macro bodies are scanned as plain token runs (calls inside
//!   `format!` arguments are still seen; macro-*generated* code is not);
//! * closures belong to their enclosing `fn`, so work handed to
//!   `thread::scope` workers stays on the caller's panic path.

use crate::lexer::{Scan, Token, TokenKind};

/// One flattened `use` path (groups expanded, `as` renames dropped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsePath {
    /// 1-based line of the `use` keyword (or path head for inline paths).
    pub line: u32,
    /// Path segments; `crate`/`super`/`self` heads are preserved.
    pub segments: Vec<String>,
}

/// A `mod name;` or `mod name { ... }` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModDecl {
    /// 1-based line of the `mod` keyword.
    pub line: u32,
    /// Declared module name.
    pub name: String,
    /// True for `mod name { ... }` (body in this file).
    pub inline: bool,
}

/// One `fn` item with its body's token extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// True for `pub fn` (not `pub(crate)` / `pub(super)`).
    pub is_pub: bool,
    /// True inside an `impl Trait for Type` block, whose methods are
    /// called through the trait (operators, `Display`, `Drop`, ...)
    /// without their names appearing at the call site.
    pub trait_impl: bool,
    /// Token index range `[start, end)` of the body including braces;
    /// empty for bodiless trait-method declarations.
    pub body: (usize, usize),
}

/// A call site, or another place that names a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// 1-based line.
    pub line: u32,
    /// Path segments ending in the callee name (`["report", "render"]`
    /// for `report::render(...)`, `["render"]` for a bare or method
    /// call).
    pub segments: Vec<String>,
    /// Index into [`FileItems::fns`] of the innermost enclosing fn;
    /// `None` outside every fn body (a `const` initializer, a
    /// `macro_rules!` body), which only [`FileItems::refs`] records.
    pub caller: Option<usize>,
}

/// The lexical class of a panic-capable expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(...)`.
    Expect,
    /// `panic!(...)`.
    Panic,
    /// Slice/array indexing with an arithmetic index expression
    /// (`v[i + 1]`); range slicing and plain-identifier/literal indices
    /// are out of scope to bound noise.
    Index,
}

/// One panic-capable expression inside some function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// 1-based line.
    pub line: u32,
    /// What can panic here.
    pub kind: PanicKind,
    /// Index into [`FileItems::fns`] of the innermost enclosing fn.
    pub caller: usize,
}

/// Everything the structural rules need from one source file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// Flattened `use` paths.
    pub uses: Vec<UsePath>,
    /// `mod` declarations.
    pub mods: Vec<ModDecl>,
    /// `fn` items in source order.
    pub fns: Vec<FnItem>,
    /// Call sites, each attributed to its enclosing fn.
    pub calls: Vec<CallSite>,
    /// Names that are not calls inside a fn body: a fn passed as a
    /// value (`.map(Tensor::data)`, `sort_by_key(key)`) and calls
    /// outside every fn body. Kept apart from `calls` so the
    /// architecture graph sees only calls; the call graph walks both.
    pub refs: Vec<CallSite>,
    /// Panic-capable expressions, each attributed to its enclosing fn.
    pub panics: Vec<PanicSite>,
}

/// Rust keywords that look like `ident (` but are never calls.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "as", "where", "move",
    "mut", "ref",
];

fn text(tokens: &[Token], idx: usize) -> &str {
    tokens.get(idx).map_or("", |t| t.text.as_str())
}

fn owned_text(tokens: &[Token], idx: usize) -> String {
    tokens.get(idx).map_or_else(String::new, |t| t.text.clone())
}

fn line_of(tokens: &[Token], idx: usize) -> u32 {
    tokens.get(idx).map_or(0, |t| t.line)
}

fn is_ident(tokens: &[Token], idx: usize) -> bool {
    tokens.get(idx).is_some_and(|t| t.kind == TokenKind::Ident)
}

/// Expands one `use` statement starting at the token after `use`,
/// returning the flattened paths and the index just past the `;`.
fn expand_use(tokens: &[Token], start: usize, line: u32, out: &mut Vec<UsePath>) -> usize {
    // Find the statement extent first: up to the matching `;` at zero
    // brace depth (use statements contain `{ }` groups but no bodies).
    let mut end = start;
    let mut depth = 0i32;
    while end < tokens.len() {
        match text(tokens, end) {
            "{" => depth += 1,
            "}" => depth -= 1,
            ";" if depth == 0 => break,
            _ => {}
        }
        end += 1;
    }
    expand_group(tokens, start, end, &[], line, out);
    end + 1
}

/// Recursively expands `prefix::{a, b::c, d::{e, f}}` within
/// `[start, end)`.
fn expand_group(
    tokens: &[Token],
    start: usize,
    end: usize,
    prefix: &[String],
    line: u32,
    out: &mut Vec<UsePath>,
) {
    let mut segs: Vec<String> = prefix.to_vec();
    let mut i = start;
    while i < end {
        let t = text(tokens, i);
        if t == "{" {
            // Split the group body on top-level commas; recurse.
            let mut depth = 1i32;
            let mut item_start = i + 1;
            let mut j = i + 1;
            while j < end && depth > 0 {
                match text(tokens, j) {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 && item_start < j {
                            expand_group(tokens, item_start, j, &segs, line, out);
                        }
                    }
                    "," if depth == 1 => {
                        if item_start < j {
                            expand_group(tokens, item_start, j, &segs, line, out);
                        }
                        item_start = j + 1;
                    }
                    _ => {}
                }
                j += 1;
            }
            return; // a group terminates this path
        }
        if t == "as" {
            // `path as alias`: the path is complete; skip the alias.
            break;
        }
        if t == "*" {
            segs.push("*".to_owned());
            break;
        }
        if is_ident(tokens, i) {
            segs.push(t.to_owned());
        } else if t != "::" {
            break; // something unexpected: keep what we have
        }
        i += 1;
    }
    if segs.len() > prefix.len() {
        out.push(UsePath {
            line,
            segments: segs,
        });
    }
}

/// True if the token at `idx` opens an expression-position index
/// bracket (preceded by an identifier, `)`, or `]`).
fn is_index_bracket(tokens: &[Token], idx: usize) -> bool {
    let Some(prev) = idx.checked_sub(1).and_then(|j| tokens.get(j)) else {
        return false;
    };
    prev.kind == TokenKind::Ident && !NON_CALL_KEYWORDS.contains(&prev.text.as_str())
        || prev.text == ")"
        || prev.text == "]"
}

/// True if the bracketed index expression `[open+1, close)` is
/// arithmetic: a top-level `+` or `-` with no `..` range.
fn is_arithmetic_index(tokens: &[Token], open: usize, close: usize) -> bool {
    let mut depth = 0i32;
    let mut arithmetic = false;
    for idx in open + 1..close {
        match text(tokens, idx) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ".." if depth == 0 => return false, // range slicing is out of scope
            "+" | "-" if depth == 0 => arithmetic = true,
            _ => {}
        }
    }
    arithmetic
}

/// True for a name that is used as a value, between `prev` and `next`:
/// the last segment of a path that is not called (`Tensor::data` in
/// `.map(Tensor::data)`), or a bare name alone in an argument, an array,
/// a field, a match arm, a closure or block tail, or on the right of `=`
/// (`sort_by_key(key)`, `[a, b]`, `S { f: a }`, `_ => a`, `{ a }`,
/// `let f = helper;`). A type or a field name in the same spot counts
/// too; a false edge only marks more fns reached.
fn is_value_name(prev: &str, next: &str) -> bool {
    let path_end = prev == "::" && !matches!(next, "(" | "::" | "!" | "<");
    let alone = matches!(prev, "(" | "," | "=" | "[" | ":" | "=>" | "{" | "|" | "||")
        && matches!(next, ")" | "," | ";" | "]" | "}");
    path_end || alone
}

/// Walks back from the callee name at `name_idx`, collecting `a::b::`
/// path qualifiers into `segments` (callee name last).
fn call_segments(tokens: &[Token], name_idx: usize) -> Vec<String> {
    let mut rev = vec![owned_text(tokens, name_idx)];
    let mut i = name_idx;
    while i >= 2 && text(tokens, i - 1) == "::" && is_ident(tokens, i - 2) {
        rev.push(owned_text(tokens, i - 2));
        i -= 2;
    }
    rev.reverse();
    rev
}

/// Index of the `}` closing the `{` at `open` (`tokens.len()` if unclosed).
fn block_end(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

/// The body `[open, close]` of an `impl Trait for Type { ... }` block
/// whose `impl` keyword is at `at`, or `None` for an inherent impl or
/// an `impl Trait` in type position (`-> impl Iterator`).
fn trait_impl_body(tokens: &[Token], at: usize) -> Option<(usize, usize)> {
    let item_start = at == 0 || matches!(text(tokens, at - 1), "}" | ";" | "{" | "]" | "unsafe");
    if !item_start {
        return None;
    }
    let mut j = at + 1;
    let mut has_for = false;
    while j < tokens.len() && !matches!(text(tokens, j), "{" | ";") {
        // `for<'a>` is a higher-ranked bound, not the implemented type.
        has_for |= text(tokens, j) == "for" && text(tokens, j + 1) != "<";
        j += 1;
    }
    (has_for && text(tokens, j) == "{").then(|| (j, block_end(tokens, j)))
}

/// Parses one scanned file into its items.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn parse(scan: &Scan) -> FileItems {
    let tokens = &scan.tokens;
    let n = tokens.len();
    let mut items = FileItems::default();

    // Pass 1: `use` statements, `mod` declarations, `fn` items, and
    // the bodies of trait impls.
    let mut trait_impls: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < n {
        let t = text(tokens, i);
        if t == "use" && is_ident(tokens, i) {
            let line = tokens[i].line;
            i = expand_use(tokens, i + 1, line, &mut items.uses);
            continue;
        }
        if t == "impl" && is_ident(tokens, i) {
            trait_impls.extend(trait_impl_body(tokens, i));
        }
        if t == "mod" && is_ident(tokens, i) && is_ident(tokens, i + 1) {
            let name = owned_text(tokens, i + 1);
            let after = text(tokens, i + 2);
            if after == ";" || after == "{" {
                items.mods.push(ModDecl {
                    line: tokens[i].line,
                    name,
                    inline: after == "{",
                });
            }
            i += 2;
            continue;
        }
        if t == "fn" && is_ident(tokens, i) && is_ident(tokens, i + 1) {
            let name = owned_text(tokens, i + 1);
            let line = line_of(tokens, i + 1);
            // Visibility: walk back over fn qualifiers to a `pub` that
            // is not followed by a restriction parenthesis.
            let mut back = i;
            while back > 0 && matches!(text(tokens, back - 1), "const" | "async" | "unsafe") {
                back -= 1;
            }
            let is_pub = back > 0 && text(tokens, back - 1) == "pub" && text(tokens, back) != "(";
            // Parameter list: first `(` after the name (generics with
            // `Fn(...)` bounds are a known approximation).
            let mut j = i + 2;
            while j < n && text(tokens, j) != "(" {
                j += 1;
            }
            let mut depth = 0i32;
            while j < n {
                match text(tokens, j) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            // Body: next `{` or terminating `;` (trait declaration).
            let mut k = j + 1;
            while k < n && text(tokens, k) != "{" && text(tokens, k) != ";" {
                k += 1;
            }
            let body = if k < n && text(tokens, k) == "{" {
                (k, (block_end(tokens, k) + 1).min(n))
            } else {
                (0, 0)
            };
            items.fns.push(FnItem {
                name,
                line,
                is_pub,
                trait_impl: trait_impls.iter().any(|&(a, b)| i > a && i < b),
                body,
            });
            // Continue scanning *inside* the body too: nested fns are
            // found on the same pass (the enclosing-fn attribution below
            // picks the innermost).
            i += 2;
            continue;
        }
        i += 1;
    }

    // Pass 2: call and panic sites, attributed to the innermost fn.
    let enclosing = |idx: usize| -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut best_len = usize::MAX;
        for (f, item) in items.fns.iter().enumerate() {
            let (a, b) = item.body;
            if a < b && idx >= a && idx < b && b - a < best_len {
                best = Some(f);
                best_len = b - a;
            }
        }
        best
    };
    let mut i = 0usize;
    while i < n {
        let t = &tokens[i];
        // Attribute groups `#[...]` are not expressions: skip them.
        if t.text == "#" && text(tokens, i + 1) == "[" {
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < n {
                match text(tokens, j) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        if t.kind == TokenKind::Ident && t.text == "use" {
            // An import names items without using them.
            while i < n && text(tokens, i) != ";" {
                i += 1;
            }
            continue;
        }
        let caller = enclosing(i);
        if t.kind == TokenKind::Ident {
            let prev = text(tokens, i.wrapping_sub(1));
            let next = text(tokens, i + 1);
            let method = next == "(" && prev == ".";
            if t.text == "panic" && next == "!" {
                if let Some(caller) = caller {
                    items.panics.push(PanicSite {
                        line: t.line,
                        kind: PanicKind::Panic,
                        caller,
                    });
                }
            } else if method
                || next == "(" && !NON_CALL_KEYWORDS.contains(&t.text.as_str()) && prev != "fn"
            {
                let kind = match t.text.as_str() {
                    "unwrap" if method => Some(PanicKind::Unwrap),
                    "expect" if method => Some(PanicKind::Expect),
                    _ => None,
                };
                if let (Some(kind), Some(caller)) = (kind, caller) {
                    items.panics.push(PanicSite {
                        line: t.line,
                        kind,
                        caller,
                    });
                }
                let site = CallSite {
                    line: t.line,
                    segments: if method {
                        vec![t.text.clone()]
                    } else {
                        call_segments(tokens, i)
                    },
                    caller,
                };
                if caller.is_some() {
                    items.calls.push(site);
                } else {
                    items.refs.push(site);
                }
            } else if is_value_name(prev, next) {
                items.refs.push(CallSite {
                    line: t.line,
                    segments: call_segments(tokens, i),
                    caller,
                });
            }
        } else if let Some(caller) = caller.filter(|_| t.text == "[" && is_index_bracket(tokens, i))
        {
            let mut depth = 0i32;
            let mut j = i;
            while j < n {
                match text(tokens, j) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if is_arithmetic_index(tokens, i, j) {
                items.panics.push(PanicSite {
                    line: t.line,
                    kind: PanicKind::Index,
                    caller,
                });
            }
        }
        i += 1;
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn parse_src(src: &str) -> FileItems {
        parse(&scan(src))
    }

    #[test]
    fn expands_use_groups() {
        let p = parse_src("use std::collections::{HashMap, HashSet};\nuse pixel_core::model::EvalContext;\nuse super::*;\n");
        let paths: Vec<String> = p.uses.iter().map(|u| u.segments.join("::")).collect();
        assert_eq!(
            paths,
            [
                "std::collections::HashMap",
                "std::collections::HashSet",
                "pixel_core::model::EvalContext",
                "super::*",
            ]
        );
    }

    #[test]
    fn expands_nested_groups_and_renames() {
        let p = parse_src("use pixel_core::{sweep, model::{ee, oe as other}};\n");
        let paths: Vec<String> = p.uses.iter().map(|u| u.segments.join("::")).collect();
        assert_eq!(
            paths,
            [
                "pixel_core::sweep",
                "pixel_core::model::ee",
                "pixel_core::model::oe",
            ]
        );
    }

    #[test]
    fn finds_fn_items_with_visibility_and_bodies() {
        let p = parse_src(
            "pub fn outer() { inner(); }\nfn inner() {}\npub(crate) fn hidden() {}\npub const fn k() -> u32 { 1 }\n",
        );
        let names: Vec<(&str, bool)> = p.fns.iter().map(|f| (f.name.as_str(), f.is_pub)).collect();
        assert_eq!(
            names,
            [
                ("outer", true),
                ("inner", false),
                ("hidden", false),
                ("k", true)
            ]
        );
    }

    #[test]
    fn attributes_calls_to_the_innermost_fn() {
        let p = parse_src("fn a() { helper(); fn b() { nested_call(); } tail(); }\n");
        let by_caller: Vec<(String, &str)> = p
            .calls
            .iter()
            .map(|c| {
                (
                    c.segments.join("::"),
                    c.caller.map_or("", |f| p.fns[f].name.as_str()),
                )
            })
            .collect();
        assert!(by_caller.contains(&("helper".to_owned(), "a")));
        assert!(by_caller.contains(&("nested_call".to_owned(), "b")));
        assert!(by_caller.contains(&("tail".to_owned(), "a")));
    }

    #[test]
    fn collects_path_qualified_and_method_calls() {
        let p = parse_src(
            "fn f() { report::render(1); x.finish(); pixel_core::sweep::default_jobs(); }\n",
        );
        let paths: Vec<String> = p.calls.iter().map(|c| c.segments.join("::")).collect();
        assert!(paths.contains(&"report::render".to_owned()));
        assert!(paths.contains(&"finish".to_owned()));
        assert!(paths.contains(&"pixel_core::sweep::default_jobs".to_owned()));
    }

    #[test]
    fn closures_belong_to_the_enclosing_fn() {
        let p = parse_src("fn f() { run(|| { helper() }); }\n");
        for c in &p.calls {
            assert_eq!(c.caller, Some(0));
        }
    }

    #[test]
    fn panic_sites_are_classified() {
        let p = parse_src(
            "fn f(x: Option<u32>, v: &[u32], i: usize) -> u32 {\n    let a = v[i + 1];\n    let b = v[i];\n    let c = &v[..i - 1];\n    x.expect(\"set\") + a + b + c.len() as u32\n}\nfn g() { panic!(\"boom\") }\n",
        );
        let kinds: Vec<PanicKind> = p.panics.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [PanicKind::Index, PanicKind::Expect, PanicKind::Panic]
        );
        assert_eq!(p.panics[0].line, 2);
    }

    #[test]
    fn mod_decls_are_recorded() {
        let p = parse_src("mod sub;\npub mod inline_mod { fn f() {} }\n");
        assert_eq!(p.mods.len(), 2);
        assert_eq!(p.mods[0].name, "sub");
        assert!(!p.mods[0].inline);
        assert!(p.mods[1].inline);
    }

    #[test]
    fn attributes_are_not_index_brackets() {
        let p =
            parse_src("fn f() {\n    #[allow(clippy::x)]\n    let v = [1 + 2];\n    drop(v);\n}\n");
        assert!(p.panics.is_empty(), "{:?}", p.panics);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let p = parse_src("fn f(cb: fn(u32) -> u32) -> u32 { cb(1) }\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "f");
    }
}
