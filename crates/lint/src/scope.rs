//! Function extraction and a brace-scoped guard-lifetime model.
//!
//! The flow-aware rules (`nested-lock`, `no-blocking-under-lock`)
//! need to know which lock guards are *live* at each point of a
//! function body, not merely which acquisitions appear earlier in token
//! order. This module provides:
//!
//! * [`functions`] — every `fn` item in a token stream with its body
//!   brace range (nested `fn` items get their own entry).
//! * [`walk_guards`] — a single forward pass over one body that
//!   maintains the set of live guards and reports two kinds of events
//!   to a visitor: each lock acquisition (with the guards live at that
//!   moment) and each potentially-blocking call (likewise).
//!
//! The lifetime model is deliberately simple and errs conservative:
//!
//! * `let [mut] NAME = recv.lock();` (chain ending exactly at the
//!   call, `;` right after) births a **named** guard that dies at
//!   `drop(NAME)` or at the end of the enclosing brace block; so does
//!   `let [mut] NAME = Some(recv.lock());`, a guard kept in an
//!   `Option`. Shadowing does not kill the shadowed guard — Rust drops
//!   it at scope end, so both stay live. A guard reached any other way
//!   (moved into another binding, taken back out with `Option::take`,
//!   bound by a `match`) is not followed: hold a guard under one name
//!   from its `let` to its `drop`.
//! * Any other `.lock()` / `.read()` / `.write()` births a
//!   **temporary** guard that dies at the next `;`. For
//!   `if let Some(x) = m.lock().pop()` scrutinees this is a
//!   conservative approximation (the real temporary lives to the end
//!   of the `if let` in old editions); the first `;` inside the block
//!   is where the approximation lands, which only ever *extends* the
//!   modeled lifetime relative to a plain statement.

use crate::source::{match_brace, match_paren};
use crate::tokenizer::{Token, TokenKind};

/// One `fn` item with its body token range.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index of the `fn` keyword.
    pub start: usize,
    /// Token index of the body `{`.
    pub open: usize,
    /// Token index of the matching `}`.
    pub close: usize,
}

/// Extracts every `fn` item that has a body. Trait-method declarations
/// (ending in `;`) are skipped. Scanning resumes *inside* each body, so
/// nested `fn` items are extracted too.
pub fn functions(tokens: &[Token]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind != TokenKind::Ident || tokens[i].text != "fn" {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        // The body `{` is the first brace after the signature; a `;`
        // first means a bodyless declaration. A `;` inside brackets is
        // an array type's (`b: &[u8; 4]`), not the end of a declaration.
        let mut brackets = 0usize;
        let Some(open) = (i + 2..tokens.len()).find(|&j| match tokens[j].text.as_str() {
            "[" => {
                brackets += 1;
                false
            }
            "]" => {
                brackets = brackets.saturating_sub(1);
                false
            }
            ";" => brackets == 0,
            t => t == "{",
        }) else {
            break;
        };
        if tokens[open].text == ";" {
            i = open + 1;
            continue;
        }
        out.push(FnItem {
            name: name_tok.text.clone(),
            line: tokens[i].line,
            start: i,
            open,
            close: match_brace(tokens, open),
        });
        i = open + 1;
    }
    out
}

/// A guard that is live at some point of the walk.
#[derive(Debug, Clone)]
pub struct LiveGuard {
    /// Binding name (`None` for a temporary).
    pub name: Option<String>,
    /// Receiver field identifier (`free`, `entries`, `ring`, ...).
    pub receiver: String,
    /// 1-based line of the acquisition.
    pub line: usize,
}

/// One event reported to the [`walk_guards`] visitor.
pub enum GuardEvent<'a> {
    /// A `.lock()`/`.read()`/`.write()` acquisition. `live` is the set
    /// of guards held *before* this one; the new guard itself is
    /// described by `guard`.
    Acquire {
        guard: &'a LiveGuard,
        live: &'a [LiveGuard],
    },
    /// A call that can block (`callee` is the called identifier).
    /// `args` are the token indices of the call's argument list
    /// (exclusive of the parens) so visitors can detect condvar-style
    /// calls that atomically release one of the live guards.
    Blocking {
        callee: &'a str,
        line: usize,
        args: (usize, usize),
        live: &'a [LiveGuard],
    },
}

/// From `k`, the last token of one receiver chain segment, steps back
/// over a trailing `[...]` index group to the indexed token:
/// `shards [ i + 1 ]` from the final `]` lands on `shards`.
fn skip_index(tokens: &[Token], mut k: usize) -> Option<usize> {
    if tokens[k].text != "]" {
        return Some(k);
    }
    let mut depth = 0usize;
    loop {
        match tokens[k].text.as_str() {
            "]" => depth += 1,
            "[" => {
                depth -= 1;
                if depth == 0 {
                    return k.checked_sub(1);
                }
            }
            _ => {}
        }
        k = k.checked_sub(1)?;
    }
}

/// Walks backwards from `k` (the last token of a receiver chain
/// segment) to the chain-head identifier, stepping over `[...]` index
/// groups: `self . shards [ 2 ]` from the final `]` lands on `self`.
fn chain_head(tokens: &[Token], mut k: usize) -> Option<usize> {
    loop {
        k = skip_index(tokens, k)?;
        if tokens[k].kind != TokenKind::Ident {
            return None;
        }
        if k >= 2 && tokens[k - 1].text == "." {
            k -= 2;
            continue;
        }
        return Some(k);
    }
}

/// Receiver of the acquisition whose `lock/read/write` ident sits at
/// `j`: `recv.lock()` and an indexed `recv[i].lock()`, whatever the
/// index expression, both yield `recv`.
fn receiver_of(tokens: &[Token], j: usize) -> Option<String> {
    let recv = &tokens[skip_index(tokens, j.checked_sub(2)?)?];
    (recv.kind == TokenKind::Ident).then(|| recv.text.clone())
}

/// True when the acquisition whose `lock/read/write` ident sits at `j`
/// is the whole right-hand side of a `let` binding, bare or wrapped in
/// `Some(..)`: the call's `()` is followed by `;` (or by `) ;` closing
/// the `Some`), and the receiver chain is preceded by `let [mut] NAME =`
/// (or `let [mut] NAME = Some (`). Returns the binding name.
fn binding_name(tokens: &[Token], j: usize) -> Option<String> {
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str());
    // Walk the receiver chain backwards: ident ([...])? (. ident ([...])?)*.
    let k = chain_head(tokens, j.checked_sub(2)?)?;
    // `recv . lock ( ) ;` — the `;` must immediately follow the call —
    // or `Some ( recv . lock ( ) ) ;`.
    let eq = match text(j + 3)? {
        ";" => k.checked_sub(1)?,
        ")" if text(j + 4) == Some(";")
            && text(k.checked_sub(1)?) == Some("(")
            && text(k.checked_sub(2)?) == Some("Some") =>
        {
            k.checked_sub(3)?
        }
        _ => return None,
    };
    if tokens[eq].text != "=" {
        return None;
    }
    let name = eq.checked_sub(1)?;
    if tokens[name].kind != TokenKind::Ident {
        return None;
    }
    let before = name.checked_sub(1)?;
    let is_let = tokens[before].text == "let"
        || (tokens[before].text == "mut"
            && before >= 1
            && tokens[before - 1].text == "let");
    if is_let {
        Some(tokens[name].text.clone())
    } else {
        None
    }
}

/// Walks the body token range `[open, close]` of one function,
/// maintaining guard lifetimes, and calls `visit` at every acquisition
/// and every potentially-blocking call.
///
/// `is_blocking(callee, receiver)` decides whether a call can block —
/// `receiver` is the ident before a `.` for method calls, `None` for
/// bare/path calls. Lines for which `skip_line` returns true (test
/// code) produce no events and no guards.
pub fn walk_guards(
    tokens: &[Token],
    open: usize,
    close: usize,
    skip_line: &dyn Fn(usize) -> bool,
    is_blocking: &dyn Fn(&str, Option<&str>) -> bool,
    visit: &mut dyn FnMut(GuardEvent<'_>),
) {
    let mut live: Vec<LiveGuard> = Vec::new();
    // Per-guard birth scope depth, parallel to `live`.
    let mut born_at: Vec<usize> = Vec::new();
    let mut temp: Vec<bool> = Vec::new();
    let mut depth = 0usize;
    let mut j = open;
    while j <= close && j < tokens.len() {
        let t = &tokens[j];
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                // Kill every guard born in the closing scope.
                let mut k = 0;
                while k < live.len() {
                    if born_at[k] >= depth {
                        live.remove(k);
                        born_at.remove(k);
                        temp.remove(k);
                    } else {
                        k += 1;
                    }
                }
                depth = depth.saturating_sub(1);
            }
            ";" => {
                // Temporaries die at the end of their statement.
                let mut k = 0;
                while k < live.len() {
                    if temp[k] {
                        live.remove(k);
                        born_at.remove(k);
                        temp.remove(k);
                    } else {
                        k += 1;
                    }
                }
            }
            _ => {}
        }
        // Skip nested fn bodies: their guards are a separate frame.
        if t.kind == TokenKind::Ident && t.text == "fn" && j > open {
            if let Some(inner_open) =
                (j + 1..close).find(|&k| matches!(tokens[k].text.as_str(), "{" | ";"))
            {
                if tokens[inner_open].text == "{" {
                    j = match_brace(tokens, inner_open) + 1;
                    continue;
                }
            }
        }
        if t.kind != TokenKind::Ident || skip_line(t.line) {
            j += 1;
            continue;
        }
        // `drop(NAME)` kills the most recent guard bound to NAME.
        if t.text == "drop"
            && tokens.get(j + 1).map(|x| x.text.as_str()) == Some("(")
            && tokens.get(j + 3).map(|x| x.text.as_str()) == Some(")")
        {
            if let Some(arg) = tokens.get(j + 2).filter(|x| x.kind == TokenKind::Ident) {
                if let Some(k) = live
                    .iter()
                    .rposition(|g| g.name.as_deref() == Some(arg.text.as_str()))
                {
                    live.remove(k);
                    born_at.remove(k);
                    temp.remove(k);
                }
            }
            j += 1;
            continue;
        }
        let calls = tokens.get(j + 1).map(|x| x.text.as_str()) == Some("(");
        let receiver_dot = j >= 1 && tokens[j - 1].text == ".";
        // Acquisition: `recv.lock()` / `.read()` / `.write()`.
        if calls
            && receiver_dot
            && matches!(t.text.as_str(), "lock" | "read" | "write")
            && tokens.get(j + 2).map(|x| x.text.as_str()) == Some(")")
        {
            let Some(receiver) = receiver_of(tokens, j) else {
                j += 1;
                continue;
            };
            let name = binding_name(tokens, j);
            let guard = LiveGuard {
                name: name.clone(),
                receiver,
                line: t.line,
            };
            visit(GuardEvent::Acquire {
                guard: &guard,
                live: &live,
            });
            temp.push(name.is_none());
            born_at.push(depth);
            live.push(guard);
            j += 3; // past `( )`
            continue;
        }
        // Blocking call: method (`x.recv(`) or bare/path (`park(`).
        if calls && tokens.get(j.wrapping_sub(1)).map(|x| x.text.as_str()) != Some("fn") {
            let receiver = if receiver_dot {
                tokens
                    .get(j.wrapping_sub(2))
                    .filter(|r| r.kind == TokenKind::Ident && j >= 2)
                    .map(|r| r.text.as_str())
            } else {
                None
            };
            if is_blocking(&t.text, receiver) {
                let close_paren = match_paren(tokens, j + 1);
                visit(GuardEvent::Blocking {
                    callee: &t.text,
                    line: t.line,
                    args: (j + 2, close_paren),
                    live: &live,
                });
            }
        }
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn body_events(src: &str) -> Vec<(String, Vec<Option<String>>)> {
        let toks = tokenize(src).tokens;
        let fns = functions(&toks);
        assert_eq!(fns.len(), 1, "expected one fn in {src}");
        let mut out = Vec::new();
        walk_guards(
            &toks,
            fns[0].open,
            fns[0].close,
            &|_| false,
            &|callee, _| callee == "recv",
            &mut |ev| match ev {
                GuardEvent::Acquire { guard, live } => out.push((
                    format!("acquire:{}", guard.receiver),
                    live.iter().map(|g| g.name.clone()).collect(),
                )),
                GuardEvent::Blocking { callee, live, .. } => out.push((
                    format!("block:{callee}"),
                    live.iter().map(|g| g.name.clone()).collect(),
                )),
            },
        );
        out
    }

    #[test]
    fn named_guard_lives_to_scope_end() {
        let ev = body_events(
            "fn f() { let g = self.free.lock(); { let h = t.entries.lock(); } q.recv(); }",
        );
        assert_eq!(ev[0].0, "acquire:free");
        assert!(ev[0].1.is_empty());
        assert_eq!(ev[1].0, "acquire:entries");
        assert_eq!(ev[1].1, vec![Some("g".to_string())]);
        // After the inner block closes only `g` survives.
        assert_eq!(ev[2].0, "block:recv");
        assert_eq!(ev[2].1, vec![Some("g".to_string())]);
    }

    #[test]
    fn drop_kills_a_named_guard() {
        let ev = body_events("fn f() { let g = x.free.lock(); drop(g); q.recv(); }");
        assert_eq!(ev[1].0, "block:recv");
        assert!(ev[1].1.is_empty());
    }

    #[test]
    fn temporaries_die_at_the_statement_end() {
        let ev = body_events("fn f() { self.entries.lock().insert(k, v); q.recv(); }");
        assert_eq!(ev[0].0, "acquire:entries");
        assert_eq!(ev[1].0, "block:recv");
        assert!(ev[1].1.is_empty(), "{ev:?}");
    }

    #[test]
    fn chained_call_is_a_temporary_not_a_binding() {
        // `.take()` after `.lock()` means the guard is a temporary even
        // though a `let` is present.
        let ev = body_events("fn f() { let h = self.demux.lock().take(); q.recv(); }");
        assert_eq!(ev[0].0, "acquire:demux");
        assert_eq!(ev[1].0, "block:recv");
        assert!(ev[1].1.is_empty());
    }

    #[test]
    fn a_guard_kept_in_an_option_is_named() {
        let ev = body_events("fn f() { let mut held = Some(x.state.lock()); q.recv(); }");
        assert_eq!(ev[1].0, "block:recv");
        assert_eq!(ev[1].1, vec![Some("held".to_string())]);
        // A value computed under the lock is not a guard.
        let ev = body_events("fn f() { let n = Some(x.state.lock().len()); q.recv(); }");
        assert!(ev[1].1.is_empty(), "{ev:?}");
    }

    #[test]
    fn indexed_acquisition_resolves_to_the_receiver() {
        let ev = body_events(
            "fn f() { self.shards[0].lock(); shards[i].lock(); shards[i + 1].lock(); }",
        );
        let acquired: Vec<&str> = ev.iter().map(|(e, _)| e.as_str()).collect();
        assert_eq!(acquired, ["acquire:shards"; 3]);
    }

    #[test]
    fn indexed_named_guard_lives_to_scope_end() {
        // binding_name must walk back over the `[0]` group to find the
        // `let`; the guard then survives to the blocking call.
        let ev = body_events("fn f() { let g = self.shards[0].lock(); q.recv(); }");
        assert_eq!(ev[0].0, "acquire:shards");
        assert_eq!(ev[1].0, "block:recv");
        assert_eq!(ev[1].1, vec![Some("g".to_string())]);
    }

    #[test]
    fn loop_iteration_scope_ends_the_guard() {
        let ev = body_events("fn f() { loop { let g = p.free.lock(); } q.recv(); }");
        assert_eq!(ev[1].0, "block:recv");
        assert!(ev[1].1.is_empty());
    }

    #[test]
    fn nested_fn_bodies_are_skipped() {
        let src = "fn outer() { let g = x.free.lock(); fn inner() { q.recv(); } }";
        let toks = tokenize(src).tokens;
        let fns = functions(&toks);
        assert_eq!(fns.len(), 2);
        let mut events = 0;
        walk_guards(
            &toks,
            fns[0].open,
            fns[0].close,
            &|_| false,
            &|callee, _| callee == "recv",
            &mut |ev| {
                if let GuardEvent::Blocking { .. } = ev {
                    events += 1;
                }
            },
        );
        assert_eq!(events, 0, "inner fn's recv must not count against outer");
    }

    #[test]
    fn functions_skip_bodyless_declarations() {
        let toks = tokenize("trait T { fn a(&self); fn b(&self) { } }").tokens;
        let fns = functions(&toks);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "b");
    }

    #[test]
    fn an_array_type_in_a_signature_does_not_end_it() {
        let toks = tokenize("fn a(b: &[u8; 4]) -> [u8; 2] { } fn c(&self);").tokens;
        let fns = functions(&toks);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "a");
    }
}
