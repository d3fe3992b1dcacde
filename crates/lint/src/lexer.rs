//! A lightweight, comment- and string-aware Rust token scanner.
//!
//! `pixel-lint` deliberately avoids a full parser (the build environment
//! has no registry, so `syn` is off the table) and instead lexes each
//! source file into a flat token stream. The scanner understands exactly
//! enough Rust to make token-level rules sound:
//!
//! * line comments, nested block comments and doc comments are stripped
//!   (so an `unwrap()` mentioned in prose never fires a rule), but
//!   `lint:allow(...)` suppression markers inside them are collected;
//! * plain `"..."` string literals become [`TokenKind::Str`] tokens
//!   whose text keeps the surrounding quotes (so they can never collide
//!   with ident/punct matching); raw, byte and byte-raw strings and char
//!   literals are skipped, with lifetimes disambiguated from char
//!   literals;
//! * numbers keep enough shape to know whether they are float literals;
//! * the multi-char operators rules care about (`::`, `==`, `!=`, `->`,
//!   `=>`, `..`, the compound assignments `+=` `-=` `*=` `/=`, ...) are
//!   single tokens.
//!
//! [`Scan::test_spans`] additionally resolves `#[cfg(test)]` items by
//! brace matching, so rules can exempt test code inside library files.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal.
    Int,
    /// Float literal (`1.0`, `1e9`, `2f64`, ...).
    Float,
    /// Punctuation / operator (possibly multi-char, e.g. `::`).
    Punct,
    /// A lifetime such as `'a` (kept distinct so type scans stay simple).
    Lifetime,
    /// A plain `"..."` string literal. The token text **includes** the
    /// surrounding quotes, so a `Str` can never be mistaken for an
    /// identifier or operator by text equality. Raw/byte strings do not
    /// produce tokens.
    Str,
}

/// One scanned token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: u32,
    /// Token text (comments/strings never produce tokens).
    pub text: String,
    /// Lexeme class.
    pub kind: TokenKind,
}

/// A `// lint:allow(RULE, ...) reason` marker found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// 1-based line of the comment carrying the marker.
    pub line: u32,
    /// Rule IDs listed inside the parentheses.
    pub rules: Vec<String>,
    /// Free-text justification following the closing parenthesis.
    pub reason: String,
}

/// The result of scanning one source file.
#[derive(Debug, Default)]
pub struct Scan {
    /// All code tokens in source order.
    pub tokens: Vec<Token>,
    /// All suppression markers found in comments.
    pub suppressions: Vec<Suppression>,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    pub test_spans: Vec<(u32, u32)>,
}

impl Scan {
    /// True if `line` falls inside a `#[cfg(test)]` item.
    #[must_use]
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| line >= a && line <= b)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Extracts `lint:allow(...)` markers from one comment's text.
fn scan_suppression(text: &str, line: u32, out: &mut Vec<Suppression>) {
    let Some(at) = text.find("lint:allow(") else {
        return;
    };
    let rest = &text[at + "lint:allow(".len()..];
    let Some(close) = rest.find(')') else {
        // Malformed marker: record it with no rules so the meta rule
        // (X001) can reject it.
        out.push(Suppression {
            line,
            rules: Vec::new(),
            reason: String::new(),
        });
        return;
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .collect();
    let reason = rest[close + 1..].trim().to_owned();
    out.push(Suppression {
        line,
        rules,
        reason,
    });
}

/// Scans `src` into tokens, suppressions and test spans.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn scan(src: &str) -> Scan {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut tokens = Vec::new();
    let mut suppressions = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    let at = |idx: usize| -> char {
        if idx < n {
            chars[idx]
        } else {
            '\0'
        }
    };

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && at(i + 1) == '/' {
            let start = i;
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            // Doc comments are prose: a marker only counts in a plain
            // `//` comment, so documentation may *mention* the syntax.
            if !text.starts_with("///") && !text.starts_with("//!") {
                scan_suppression(&text, line, &mut suppressions);
            }
        } else if c == '/' && at(i + 1) == '*' {
            let start_line = line;
            let start = i;
            i += 2;
            let mut depth = 1u32;
            while i < n && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            let text: String = chars[start..i.min(n)].iter().collect();
            if !text.starts_with("/**") && !text.starts_with("/*!") {
                scan_suppression(&text, start_line, &mut suppressions);
            }
        } else if c == '"' {
            let start = i;
            let start_line = line;
            i = skip_string(&chars, i, &mut line);
            tokens.push(Token {
                line: start_line,
                text: chars[start..i.min(n)].iter().collect(),
                kind: TokenKind::Str,
            });
        } else if c == '\'' {
            // Char literal or lifetime.
            if at(i + 1) == '\\' {
                // Escaped char literal: skip to the closing quote.
                i += 2;
                while i < n && chars[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if at(i + 2) == '\'' {
                // Plain char literal like 'x'.
                i += 3;
            } else {
                // Lifetime: 'ident.
                let start = i;
                i += 1;
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    line,
                    text: chars[start..i].iter().collect(),
                    kind: TokenKind::Lifetime,
                });
            }
        } else if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            // Raw / byte string prefixes introduce string literals.
            let next = at(i);
            if matches!(text.as_str(), "r" | "b" | "br" | "rb") && (next == '"' || next == '#') {
                if text == "b" && next == '"' {
                    i = skip_string(&chars, i, &mut line);
                } else {
                    i = skip_raw_string(&chars, i, &mut line);
                }
            } else {
                tokens.push(Token {
                    line,
                    text,
                    kind: TokenKind::Ident,
                });
            }
        } else if c.is_ascii_digit() {
            let start = i;
            let mut float = false;
            if c == '0' && matches!(at(i + 1), 'x' | 'o' | 'b') {
                i += 2;
                while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            } else {
                while i < n && (chars[i].is_ascii_digit() || chars[i] == '_') {
                    i += 1;
                }
                if at(i) == '.' && at(i + 1).is_ascii_digit() {
                    float = true;
                    i += 1;
                    while i < n && (chars[i].is_ascii_digit() || chars[i] == '_') {
                        i += 1;
                    }
                }
                if matches!(at(i), 'e' | 'E')
                    && (at(i + 1).is_ascii_digit()
                        || (matches!(at(i + 1), '+' | '-') && at(i + 2).is_ascii_digit()))
                {
                    float = true;
                    i += 1;
                    if matches!(at(i), '+' | '-') {
                        i += 1;
                    }
                    while i < n && (chars[i].is_ascii_digit() || chars[i] == '_') {
                        i += 1;
                    }
                }
                // Type suffix (u32, f64, ...).
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
            }
            let text: String = chars[start..i].iter().collect();
            if text.ends_with("f32") || text.ends_with("f64") {
                float = true;
            }
            tokens.push(Token {
                line,
                text,
                kind: if float {
                    TokenKind::Float
                } else {
                    TokenKind::Int
                },
            });
        } else {
            // Punctuation; join the two-char operators the rules rely on.
            const TWO: [&str; 16] = [
                "::", "==", "!=", "->", "=>", "..", "&&", "||", "<=", ">=", "<<", ">>", "+=", "-=",
                "*=", "/=",
            ];
            let pair: String = [c, at(i + 1)].iter().collect();
            if TWO.contains(&pair.as_str()) {
                tokens.push(Token {
                    line,
                    text: pair,
                    kind: TokenKind::Punct,
                });
                i += 2;
            } else {
                tokens.push(Token {
                    line,
                    text: c.to_string(),
                    kind: TokenKind::Punct,
                });
                i += 1;
            }
        }
    }

    let test_spans = find_test_spans(&tokens);
    Scan {
        tokens,
        suppressions,
        test_spans,
    }
}

/// Skips a `"..."` string literal starting at the opening quote (or at
/// the `b` prefix's quote), returning the index just past the close.
fn skip_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = chars.len();
    debug_assert_eq!(chars[i], '"');
    i += 1;
    while i < n {
        match chars[i] {
            '\\' => i += 2,
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string literal; `i` points at the first `#` or `"` after
/// the `r`/`br` prefix.
fn skip_raw_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = chars.len();
    let mut hashes = 0usize;
    while i < n && chars[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i >= n || chars[i] != '"' {
        return i;
    }
    i += 1;
    while i < n {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
        } else if chars[i] == '"' {
            let mut k = 0usize;
            while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Finds the inclusive line spans of items annotated `#[cfg(test)]`.
fn find_test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let text = |idx: usize| tokens.get(idx).map_or("", |t| t.text.as_str());
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        let is_cfg_test = text(i) == "#"
            && text(i + 1) == "["
            && text(i + 2) == "cfg"
            && text(i + 3) == "("
            && text(i + 4) == "test"
            && text(i + 5) == ")"
            && text(i + 6) == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        let mut j = i + 7;
        // Skip any further attributes between the cfg and the item.
        while text(j) == "#" && text(j + 1) == "[" {
            let mut depth = 0usize;
            j += 1;
            while j < tokens.len() {
                if text(j) == "[" {
                    depth += 1;
                } else if text(j) == "]" {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Scan forward to the item body (`{`) or terminator (`;`).
        while j < tokens.len() && text(j) != "{" && text(j) != ";" {
            j += 1;
        }
        if j >= tokens.len() {
            spans.push((start_line, tokens.last().map_or(start_line, |t| t.line)));
            break;
        }
        if text(j) == ";" {
            spans.push((start_line, tokens[j].line));
            i = j + 1;
            continue;
        }
        let mut depth = 0usize;
        while j < tokens.len() {
            if text(j) == "{" {
                depth += 1;
            } else if text(j) == "}" {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let end_line = tokens
            .get(j)
            .or(tokens.last())
            .map_or(start_line, |t| t.line);
        spans.push((start_line, end_line));
        i = j + 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        scan(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strips_comments_and_strings() {
        // Strings survive as single quoted `Str` tokens; comments (and
        // the unwrap() they mention) vanish entirely.
        let src = "let x = \"unwrap()\"; // unwrap()\n/* unwrap() */ let y = 1;";
        let t = texts(src);
        assert!(!t.contains(&"unwrap".to_owned()), "{t:?}");
        assert_eq!(
            t,
            [
                "let",
                "x",
                "=",
                "\"unwrap()\"",
                ";",
                "let",
                "y",
                "=",
                "1",
                ";"
            ]
        );
        let s = scan(src);
        let lit = s.tokens.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert_eq!(lit.text, "\"unwrap()\"");
        assert_eq!(lit.line, 1);
    }

    #[test]
    fn raw_and_byte_strings_are_skipped() {
        let t = texts("let a = r#\"x.unwrap()\"#; let b = b\"panic!\"; let c = br\"bad\";");
        assert!(!t
            .iter()
            .any(|s| s == "unwrap" || s == "panic" || s == "bad"));
        assert!(t.contains(&"a".to_owned()) && t.contains(&"c".to_owned()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let t = texts("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(t.contains(&"'a".to_owned()));
        assert!(!t.contains(&"x'".to_owned()));
    }

    #[test]
    fn float_literals_are_classified() {
        let s = scan("a == 1.0; b != 2e9; c == 3; d == 0x1e5; e == 4f64;");
        let kind = |txt: &str| s.tokens.iter().find(|t| t.text == txt).map(|t| t.kind);
        assert_eq!(kind("1.0"), Some(TokenKind::Float));
        assert_eq!(kind("2e9"), Some(TokenKind::Float));
        assert_eq!(kind("3"), Some(TokenKind::Int));
        assert_eq!(kind("0x1e5"), Some(TokenKind::Int));
        assert_eq!(kind("4f64"), Some(TokenKind::Float));
    }

    #[test]
    fn multichar_operators_are_single_tokens() {
        let t = texts("a::b == c != d -> e => f .. g");
        for op in ["::", "==", "!=", "->", "=>", ".."] {
            assert!(t.contains(&op.to_owned()), "{op}");
        }
    }

    #[test]
    fn suppressions_are_collected_with_reasons() {
        let s = scan("x(); // lint:allow(P001, D003) zero is a sentinel\ny();");
        assert_eq!(s.suppressions.len(), 1);
        assert_eq!(s.suppressions[0].rules, ["P001", "D003"]);
        assert_eq!(s.suppressions[0].reason, "zero is a sentinel");
        assert_eq!(s.suppressions[0].line, 1);
    }

    #[test]
    fn cfg_test_mod_span_covers_the_body() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\nfn tail() {}";
        let s = scan(src);
        assert!(!s.is_test_line(1));
        assert!(s.is_test_line(2));
        assert!(s.is_test_line(4));
        assert!(s.is_test_line(5));
        assert!(!s.is_test_line(6));
    }

    #[test]
    fn cfg_test_with_following_attribute() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() {} }\nfn lib() {}";
        let s = scan(src);
        assert!(s.is_test_line(3));
        assert!(!s.is_test_line(4));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let t = texts("/* outer /* inner */ still comment */ let z = 2;");
        assert_eq!(t, ["let", "z", "=", "2", ";"]);
    }
}
