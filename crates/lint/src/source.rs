//! A parsed source file: raw lines, tokens, comments, and a
//! line-granular mask of test regions (rules exempt test code).

use crate::tokenizer::{tokenize, Token, TokenKind, Tokenized};
use crate::Diagnostic;

/// One source file prepared for linting.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Raw source lines (1-indexed via `line - 1`).
    pub lines: Vec<String>,
    /// Token stream and comments.
    pub tokens: Tokenized,
    /// `test_mask[line - 1]` is true when the line sits inside a
    /// `#[test]` function or `#[cfg(test)]` item.
    test_mask: Vec<bool>,
}

impl SourceFile {
    /// Tokenizes `text` and computes the test-region mask.
    pub fn new(rel_path: &str, text: &str) -> SourceFile {
        let tokens = tokenize(text);
        let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        let test_mask = test_line_mask(&tokens.tokens, lines.len());
        SourceFile {
            rel_path: rel_path.to_string(),
            lines,
            tokens,
            test_mask,
        }
    }

    /// True when `line` (1-indexed) is inside a test item.
    pub fn is_test_line(&self, line: usize) -> bool {
        line >= 1 && self.test_mask.get(line - 1).copied().unwrap_or(false)
    }

    /// True when the raw text of `line` contains any of the markers.
    pub fn line_has_any(&self, line: usize, markers: &[String]) -> bool {
        self.lines
            .get(line.wrapping_sub(1))
            .is_some_and(|l| markers.iter().any(|m| l.contains(m.as_str())))
    }

    /// Builds a diagnostic anchored to this file.
    pub fn diagnostic(&self, rule: &'static str, line: usize, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            path: self.rel_path.clone(),
            line,
            message,
            witness: Vec::new(),
        }
    }
}

/// Index of the `}` matching the `{` at `open` (or the last token if
/// the file is unbalanced — the mask degrades gracefully, it never
/// panics).
pub fn match_brace(tokens: &[Token], open: usize) -> usize {
    match_bracket(tokens, open, "{", "}")
}

/// Index of the `)` matching the `(` at `open`, degrading like
/// [`match_brace`].
pub fn match_paren(tokens: &[Token], open: usize) -> usize {
    match_bracket(tokens, open, "(", ")")
}

/// Index of the `close` token matching the `opening` one at `open`.
fn match_bracket(tokens: &[Token], open: usize, opening: &str, close: &str) -> usize {
    let mut depth = 0usize;
    for (j, tok) in tokens.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            t if t == opening => depth += 1,
            t if t == close => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Marks every line covered by a `#[test]` or `#[cfg(test)]` item.
///
/// The scan finds `#[...]` attribute groups whose contents mention the
/// ident `test` (covers `#[test]`, `#[cfg(test)]`, `#[cfg(all(test,
/// ...))]`), then extends the mask to the end of the annotated item:
/// the matching `}` of its body brace, or the terminating `;`.
fn test_line_mask(tokens: &[Token], total_lines: usize) -> Vec<bool> {
    let mut mask = vec![false; total_lines];
    let mut i = 0;
    while i + 1 < tokens.len() {
        if tokens[i].text != "#" || tokens[i + 1].text != "[" {
            i += 1;
            continue;
        }
        // Find the matching `]` of the attribute group.
        let mut depth = 0usize;
        let mut end_bracket = None;
        for (j, tok) in tokens.iter().enumerate().skip(i + 1) {
            match tok.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        end_bracket = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(end_bracket) = end_bracket else {
            break;
        };
        let mentions_test = tokens[i + 1..end_bracket]
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "test");
        if !mentions_test {
            i = end_bracket + 1;
            continue;
        }
        // Extend to the end of the annotated item.
        let item_end = tokens[end_bracket + 1..]
            .iter()
            .position(|t| t.text == "{" || t.text == ";")
            .map(|off| end_bracket + 1 + off);
        let last_line = match item_end {
            Some(k) if tokens[k].text == "{" => tokens[match_brace(tokens, k)].line,
            Some(k) => tokens[k].line,
            None => tokens.last().map(|t| t.line).unwrap_or(0),
        };
        let first_line = tokens[i].line;
        for line in first_line..=last_line {
            if line >= 1 && line <= total_lines {
                mask[line - 1] = true;
            }
        }
        i = end_bracket + 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_fn_is_masked() {
        let src = "fn hot() { x.lock(); }\n\
                   #[test]\n\
                   fn check() {\n\
                       hot();\n\
                   }\n\
                   fn also_hot() {}\n";
        let f = SourceFile::new("a.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_test_module_is_masked() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use super::*;\n\
                       fn helper() { panic!() }\n\
                   }\n\
                   fn tail() {}\n";
        let f = SourceFile::new("a.rs", src);
        assert!(!f.is_test_line(1));
        for line in 2..=6 {
            assert!(f.is_test_line(line), "line {line}");
        }
        assert!(!f.is_test_line(7));
    }

    #[test]
    fn other_attributes_do_not_mask() {
        let src = "#[derive(Debug)]\nstruct S;\n#[cfg(feature = \"x\")]\nfn f() {}\n";
        let f = SourceFile::new("a.rs", src);
        for line in 1..=4 {
            assert!(!f.is_test_line(line), "line {line}");
        }
    }
}
