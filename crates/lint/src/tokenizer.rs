//! A lightweight, panic-free Rust tokenizer for lint rules.
//!
//! Rules must never fire on text inside string literals, char literals,
//! or comments ("call `unwrap` here" in a doc comment is not a
//! violation), so the tokenizer understands exactly enough Rust lexical
//! structure to classify every byte: line and block comments (nested),
//! plain/raw/byte string literals, char literals vs. lifetimes,
//! identifiers, numbers and punctuation.
//!
//! It is deliberately forgiving: unterminated literals or comments
//! consume to end of input instead of erroring, and any byte sequence —
//! valid Rust or not — tokenizes without panicking (a propcheck property
//! in `tests/lint.rs` drives arbitrary inputs through it).

/// What a token is, as far as lint rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unwrap`, `fn`, `unsafe`, ...).
    Ident,
    /// A lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// A numeric literal.
    Number,
    /// A string, raw string, byte string or char literal.
    Literal,
    /// A single punctuation character (`.`, `:`, `!`, `{`, ...).
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// The token text (for literals, including delimiters).
    pub text: String,
    /// 1-based line number where the token starts.
    pub line: usize,
}

/// One `//` comment with its 1-based line and text (after the slashes).
#[derive(Debug, Clone)]
pub struct LineComment {
    /// 1-based line the comment appears on.
    pub line: usize,
    /// Comment body, excluding the leading `//` (and `/`/`!` of doc
    /// comments).
    pub text: String,
}

/// Token stream plus the line comments, which carry `lint:allow(...)`
/// suppressions.
#[derive(Debug, Default)]
pub struct Tokenized {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All `//` comments in source order.
    pub comments: Vec<LineComment>,
}

/// Tokenizes `source`. Never panics, for any input.
pub fn tokenize(source: &str) -> Tokenized {
    let chars: Vec<char> = source.chars().collect();
    let mut out = Tokenized::default();
    let mut i = 0usize;
    let mut line = 1usize;
    let n = chars.len();

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                // Line comment (includes /// and //! doc comments).
                let start = i + 2;
                let mut j = start;
                while j < n && chars[j] != '\n' {
                    j += 1;
                }
                let mut text: String = chars[start..j].iter().collect();
                // Strip the extra doc-comment marker so `///x` and `//!x`
                // read as `x`-ish bodies.
                if let Some(rest) = text.strip_prefix('/') {
                    text = rest.to_string();
                } else if let Some(rest) = text.strip_prefix('!') {
                    text = rest.to_string();
                }
                out.comments.push(LineComment { line, text });
                i = j;
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                // Block comment, possibly nested.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    if chars[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
            }
            '"' => {
                let (j, lines) = scan_string(&chars, i);
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: chars[i..j.min(n)].iter().collect(),
                    line,
                });
                line += lines;
                i = j;
            }
            '\'' => {
                // Lifetime (`'a`) or char literal (`'a'`, `'\n'`).
                if i + 1 < n && (chars[i + 1].is_alphabetic() || chars[i + 1] == '_') {
                    // `'static`, `'a` — a lifetime unless closed by a
                    // quote right after one identifier char (`'a'`).
                    let mut j = i + 1;
                    while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                        j += 1;
                    }
                    if j < n && chars[j] == '\'' && j == i + 2 {
                        out.tokens.push(Token {
                            kind: TokenKind::Literal,
                            text: chars[i..=j].iter().collect(),
                            line,
                        });
                        i = j + 1;
                    } else {
                        out.tokens.push(Token {
                            kind: TokenKind::Lifetime,
                            text: chars[i..j].iter().collect(),
                            line,
                        });
                        i = j;
                    }
                } else {
                    // Escaped or punctuation char literal: scan to the
                    // closing quote, honoring backslash escapes.
                    let mut j = i + 1;
                    while j < n {
                        if chars[j] == '\\' {
                            j += 2;
                        } else if chars[j] == '\'' || chars[j] == '\n' {
                            break;
                        } else {
                            j += 1;
                        }
                    }
                    // An unterminated literal stops *before* the newline
                    // so the main loop still counts it — otherwise every
                    // diagnostic line number after it would drift by one.
                    let end = if j < n && chars[j] == '\'' {
                        j + 1
                    } else {
                        j.min(n)
                    };
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: chars[i..end.min(n)].iter().collect(),
                        line,
                    });
                    i = end;
                }
            }
            'r' | 'b' if is_literal_prefix(&chars, i) => {
                let (j, lines) = scan_prefixed_literal(&chars, i);
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: chars[i..j.min(n)].iter().collect(),
                    line,
                });
                line += lines;
                i = j;
            }
            'r' if i + 2 < n
                && chars[i + 1] == '#'
                && (chars[i + 2].is_alphabetic() || chars[i + 2] == '_') =>
            {
                // Raw identifier `r#type`, `r#fn`: one Ident token whose
                // text is the part after `r#`. Tokenizing it as `r`, `#`,
                // `fn` would inject a phantom keyword into the stream and
                // poison fn-definition extraction.
                let mut j = i + 3;
                while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: chars[i + 2..j].iter().collect(),
                    line,
                });
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: chars[i..j].iter().collect(),
                    line,
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < n {
                    let d = chars[j];
                    if d.is_alphanumeric() || d == '_' {
                        j += 1;
                    } else if d == '.'
                        && j + 1 < n
                        && chars[j + 1].is_ascii_digit()
                        && !chars[i..j].contains(&'.')
                    {
                        // One decimal point, only when followed by a
                        // digit — keeps `0..5` as two numbers.
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    kind: TokenKind::Number,
                    text: chars[i..j].iter().collect(),
                    line,
                });
                i = j;
            }
            _ => {
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// True when the `r`/`b` at `i` starts a raw/byte literal (`r"`, `r#"`,
/// `b"`, `b'`, `br"`, `br#"`).
fn is_literal_prefix(chars: &[char], i: usize) -> bool {
    let n = chars.len();
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if j < n && (chars[j] == '"' || chars[j] == '\'') {
            return true;
        }
    }
    if j < n && chars[j] == 'r' {
        j += 1;
        while j < n && chars[j] == '#' {
            j += 1;
        }
        return j < n && chars[j] == '"';
    }
    false
}

/// Scans a plain string literal starting at the `"` in position `i`.
/// Returns (index one past the closing quote, newlines consumed).
fn scan_string(chars: &[char], i: usize) -> (usize, usize) {
    let n = chars.len();
    let mut j = i + 1;
    let mut lines = 0;
    while j < n {
        match chars[j] {
            // An escape may hide a newline (`\` line continuation);
            // keep the line count honest either way.
            '\\' => {
                if chars.get(j + 1) == Some(&'\n') {
                    lines += 1;
                }
                j += 2;
            }
            '"' => return (j + 1, lines),
            '\n' => {
                lines += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (n, lines)
}

/// Scans a raw/byte literal starting at its `r`/`b` prefix.
fn scan_prefixed_literal(chars: &[char], i: usize) -> (usize, usize) {
    let n = chars.len();
    let mut j = i;
    if j < n && chars[j] == 'b' {
        j += 1;
    }
    if j < n && chars[j] == '\'' {
        // Byte char literal b'x' / b'\n'.
        let mut k = j + 1;
        while k < n {
            if chars[k] == '\\' {
                k += 2;
            } else if chars[k] == '\'' || chars[k] == '\n' {
                break;
            } else {
                k += 1;
            }
        }
        // Stop before an unterminated literal's newline so the caller's
        // line counter stays honest (same rule as plain char literals).
        if k < n && chars[k] == '\'' {
            return (k + 1, 0);
        }
        return (k.min(n), 0);
    }
    if j < n && chars[j] == 'r' {
        j += 1;
        let mut hashes = 0usize;
        while j < n && chars[j] == '#' {
            hashes += 1;
            j += 1;
        }
        if j < n && chars[j] == '"' {
            // Raw string: ends at `"` followed by `hashes` hashes.
            let mut k = j + 1;
            let mut lines = 0;
            while k < n {
                if chars[k] == '\n' {
                    lines += 1;
                    k += 1;
                    continue;
                }
                if chars[k] == '"' {
                    let mut h = 0usize;
                    while k + 1 + h < n && chars[k + 1 + h] == '#' && h < hashes {
                        h += 1;
                    }
                    if h == hashes {
                        return (k + 1 + hashes, lines);
                    }
                }
                k += 1;
            }
            return (n, lines);
        }
        return (j, 0);
    }
    if j < n && chars[j] == '"' {
        // Byte string b"...": same escape rules as a plain string.
        let (end, lines) = scan_string(chars, j);
        return (end, lines);
    }
    (j.max(i + 1), 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn words_in_strings_and_comments_are_not_idents() {
        let src = r##"
            // calling unwrap here would panic!
            /* block: unwrap() */
            let s = "x.unwrap()";
            let r = r#"panic!()"#;
            let real = value.unwrap();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|t| *t == "unwrap").count(), 1);
        assert!(!ids.contains(&"panic".to_string()));
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let t = tokenize("let a = 1; // lint:allow(x): reason\n// second");
        assert_eq!(t.comments.len(), 2);
        assert_eq!(t.comments[0].line, 1);
        assert!(t.comments[0].text.contains("lint:allow(x)"));
        assert_eq!(t.comments[1].line, 2);
    }

    #[test]
    fn doc_comment_markers_are_stripped() {
        let t = tokenize("/// outer doc unwrap()\n//! inner doc\n");
        assert!(t.comments[0].text.starts_with(" outer"));
        assert!(t.comments[1].text.starts_with(" inner"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let t = tokenize("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes: Vec<_> = t
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let literals: Vec<_> = t
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .collect();
        assert_eq!(literals.len(), 2);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "/* a\nb */\nlet x = \"s\ns\";\ny";
        let t = tokenize(src);
        let y = t.tokens.last().expect("token y");
        assert_eq!(y.text, "y");
        assert_eq!(y.line, 5);
    }

    #[test]
    fn escaped_newline_in_string_still_counts_a_line() {
        // `\` at end of line is a string continuation; the newline it
        // swallows must still advance the line counter.
        let src = "let x = \"a \\\n   b\";\ny";
        let t = tokenize(src);
        let y = t.tokens.last().expect("token y");
        assert_eq!(y.text, "y");
        assert_eq!(y.line, 3);
    }

    #[test]
    fn nested_block_comments_terminate() {
        let t = tokenize("/* outer /* inner */ still comment */ after");
        assert_eq!(t.tokens.len(), 1);
        assert_eq!(t.tokens[0].text, "after");
    }

    #[test]
    fn ranges_do_not_swallow_method_calls() {
        let t = tokenize("for i in 0..5 { x.0.lock(); }");
        assert!(t.tokens.iter().any(|tok| tok.text == "lock"));
        let nums: Vec<_> = t
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0", "5", "0"]);
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "/* never closed", "r#\"raw", "'x", "b\"bytes", "r###"] {
            let _ = tokenize(src);
        }
    }

    #[test]
    fn unterminated_char_literal_does_not_drift_line_numbers() {
        // The stray `'x` never closes; the newline after it must still
        // count so `after` lands on line 2.
        let t = tokenize("let bad = 'x\nafter");
        let after = t.tokens.last().expect("token after");
        assert_eq!(after.text, "after");
        assert_eq!(after.line, 2);
        let t = tokenize("let bad = b'x\nafter");
        let after = t.tokens.last().expect("token after");
        assert_eq!(after.text, "after");
        assert_eq!(after.line, 2);
    }

    #[test]
    fn raw_identifiers_are_single_idents() {
        let t = tokenize("let r#fn = r#type.r#match();");
        let ids = idents("let r#fn = r#type.r#match();");
        assert_eq!(ids, vec!["let", "fn", "type", "match"]);
        // No stray `r` ident and no `#` punct from the raw-ident prefix.
        assert!(!t.tokens.iter().any(|tok| tok.text == "r"));
        assert!(!t.tokens.iter().any(|tok| tok.text == "#"));
    }

    #[test]
    fn raw_strings_with_hashes_close_correctly() {
        let t = tokenize(r##"let s = r#"contains "quotes" and unwrap()"# ; next"##);
        assert!(t.tokens.iter().any(|tok| tok.text == "next"));
        assert!(!t.tokens.iter().any(|tok| tok.text == "unwrap"));
    }
}
