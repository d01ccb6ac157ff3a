//! Function extraction and the one walk over a function body.
//!
//! Every rule that reads a function body reads it through [`walk`]: a
//! single forward pass that keeps the live lock guards, the loop
//! context and the function's own bindings, and reports each fact it
//! meets as an [`Event`] — a call site, a lock acquisition, a blocking
//! call, a condvar wait or notify, an atomic access with an `Ordering`
//! tag. `rules::check_source` extracts a file's [`functions`] once and
//! hands each body's events to the guard rules, the dataflow facts and
//! the call graph, so each syntactic fact has one reading.
//!
//! The guard-lifetime model is deliberately simple and errs conservative:
//!
//! * `let [mut] NAME = recv.lock();` (chain ending exactly at the
//!   call, `;` right after) births a **named** guard that dies at
//!   `drop(NAME)` or at the end of the enclosing brace block; so does
//!   `let [mut] NAME = Some(recv.lock());`, a guard kept in an
//!   `Option`. Shadowing does not kill the shadowed guard — Rust drops
//!   it at scope end, so both stay live. `NAME = recv.lock();` on a
//!   name so bound re-takes the guard: it lives to the end of the
//!   `let`'s scope, and the guard it replaces (if not dropped already)
//!   dies once the new one is taken. A guard reached any other way
//!   (moved into another binding, taken back out with `Option::take`,
//!   bound by a `match`) is not followed: hold a guard under one name
//!   from its `let` to its `drop`, re-taking it only into that name.
//! * Any other `.lock()` / `.read()` / `.write()` births a
//!   **temporary** guard that dies at the next `;`. For
//!   `if let Some(x) = m.lock().pop()` scrutinees this is a
//!   conservative approximation (the real temporary lives to the end
//!   of the `if let` in old editions); the first `;` inside the block
//!   is where the approximation lands, which only ever *extends* the
//!   modeled lifetime relative to a plain statement.
//!
//! A nested `fn` item is a function of its own: the walk of the
//! enclosing body steps over it, so its calls, locks and waits belong
//! to it alone.
//!
//! Everything degrades conservatively on token streams that are not
//! valid Rust: unknown shapes produce no events, never a panic — the
//! propcheck totality property in `crates/lint/tests/rules.rs` holds
//! the per-file pass to that on arbitrary token soup.

use std::collections::{BTreeMap, BTreeSet};

use crate::source::{match_brace, match_paren};
use crate::tokenizer::{Token, TokenKind};

/// Condvar waits; each atomically releases the guard it is handed.
const WAIT_CALLEES: &[&str] = &["wait", "wait_until", "wait_timeout"];
const NOTIFY_CALLEES: &[&str] = &["notify_one", "notify_all"];
const ORDERING_TAGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
const RMW_CALLEES: &[&str] = &[
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Atomic access kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    Load,
    Store,
    Rmw,
}

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

/// The body `{` of the `fn` item whose keyword sits at `i`, if it has
/// one: the first brace after the signature. A `;` first means a
/// bodyless declaration; a `;` inside brackets is an array type's
/// (`b: &[u8; 4]`), not the end of a declaration.
fn body_open(tokens: &[Token], i: usize) -> Option<usize> {
    let item = tokens[i].kind == TokenKind::Ident
        && tokens[i].text == "fn"
        && tokens
            .get(i + 1)
            .is_some_and(|t| t.kind == TokenKind::Ident);
    if !item {
        return None;
    }
    let mut brackets = 0usize;
    let end = (i + 2..tokens.len()).find(|&j| match tokens[j].text.as_str() {
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
    })?;
    (tokens[end].text == "{").then_some(end)
}

/// Extracts every `fn` item that has a body, nested ones included.
/// Trait-method declarations (ending in `;`) have none.
pub fn functions(tokens: &[Token]) -> Vec<FnItem> {
    (0..tokens.len())
        .filter_map(|i| {
            let open = body_open(tokens, i)?;
            Some(FnItem {
                name: tokens[i + 1].text.clone(),
                line: tokens[i].line,
                start: i,
                open,
                close: match_brace(tokens, open),
            })
        })
        .collect()
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
    /// Brace depth of its birth: the guard dies when that scope closes.
    depth: usize,
}

/// A lock acquisition or a blocking call, with the guards live at it.
pub enum GuardEvent<'a> {
    /// A `.lock()`/`.read()`/`.write()` acquisition. `live` is the set
    /// of guards held *before* this one; the new guard itself is
    /// described by `guard`.
    Acquire {
        guard: &'a LiveGuard,
        live: &'a [LiveGuard],
    },
    /// A call that can block (`callee` is the called identifier).
    /// `released` indexes the guard in `live` that a condvar wait is
    /// handed (`&mut g`) and atomically releases.
    Blocking {
        callee: &'a str,
        line: usize,
        released: Option<usize>,
        live: &'a [LiveGuard],
    },
}

/// One fact the [`walk`] reports.
pub enum Event<'a> {
    /// A call of `callee` — a method, a path or a bare name — except a
    /// bare call of a name the function binds itself: a parameter
    /// (`read: impl FnOnce(..)`, then `read(&mut r)`) or an earlier
    /// `let` calls that local, not any definition.
    Call(&'a str),
    /// A lock acquisition or a blocking call.
    Guard(GuardEvent<'a>),
    /// A condvar wait handed a guard (`cond.wait(&mut g)`). `mutex` is
    /// the receiver of the last guard `let`-bound to that name, live or
    /// not (a guard given up with `drop(g)` and re-taken by assignment,
    /// `g = m.lock();`, still names `m`); `in_loop` is true inside a
    /// `loop`/`while`/`for` body.
    Wait {
        cond: &'a str,
        mutex: Option<&'a str>,
        in_loop: bool,
        line: usize,
    },
    /// `cond.notify_one()` / `cond.notify_all()`.
    Notify { cond: &'a str, line: usize },
    /// A method call on `location` whose arguments carry a literal
    /// `Ordering` tag; `spin` marks a load in a `while` condition.
    Atomic {
        location: &'a str,
        kind: AtomicKind,
        ordering: &'a str,
        spin: bool,
        line: usize,
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

/// How the acquisition whose `lock/read/write` ident sits at `j` is
/// bound when it is the whole right-hand side of `NAME = ...`, bare or
/// wrapped in `Some(..)`: the call's `()` is followed by `;` (or by `) ;`
/// closing the `Some`), and the receiver chain is preceded by `NAME =`
/// (or `NAME = Some (`). Returns the name, and whether a `let [mut]`
/// declares it there (`false`: an assignment to an existing binding).
fn binding_name(tokens: &[Token], j: usize) -> Option<(String, bool)> {
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
    let before = name.checked_sub(1).map_or("", |b| tokens[b].text.as_str());
    let is_let = before == "let"
        || (before == "mut" && name >= 2 && tokens[name - 2].text == "let");
    // An assignment is a statement of its own: `NAME` starts it.
    let is_assignment = matches!(before, "" | ";" | "{" | "}");
    (is_let || is_assignment).then(|| (tokens[name].text.clone(), is_let))
}

/// The parameters `f` binds: `name:` after `(`, `,` or `mut` in its
/// signature.
fn params<'t>(tokens: &'t [Token], f: &FnItem) -> BTreeSet<&'t str> {
    let text = |j: usize| tokens.get(j).map_or("", |t| t.text.as_str());
    (f.start + 2..f.open)
        .filter(|&j| {
            tokens[j].kind == TokenKind::Ident
                && matches!(text(j - 1), "(" | "," | "mut")
                && text(j + 1) == ":"
                && text(j + 2) != ":"
        })
        .map(text)
        .collect()
}

/// Walks the body of `f` once, keeping guard lifetimes, loop context
/// and the function's own bindings, and calls `visit` at every
/// [`Event`].
///
/// `is_blocking(callee, receiver)` decides whether a call can block —
/// `receiver` is the ident before a `.` for method calls, `None` for
/// bare/path calls. Lines for which `skip_line` returns true (test
/// code) produce no events and no guards.
pub fn walk(
    tokens: &[Token],
    f: &FnItem,
    skip_line: &dyn Fn(usize) -> bool,
    is_blocking: &dyn Fn(&str, Option<&str>) -> bool,
    visit: &mut dyn FnMut(Event<'_>),
) {
    let text = |i: usize| tokens.get(i).map_or("", |t| t.text.as_str());
    let mut locals = params(tokens, f);
    let mut live: Vec<LiveGuard> = Vec::new();
    // Guard binding name → receiver (for the waits) and the brace depth
    // of its `let`, where a guard re-taken into it by assignment lives.
    let mut bound: BTreeMap<String, (String, usize)> = BTreeMap::new();
    // One entry per open brace: true for a loop body. A loop keyword
    // waits for its body's `{` outside parentheses (a closure in the
    // loop head has braces of its own).
    let mut loops: Vec<bool> = Vec::new();
    let (mut parens, mut pending_loop, mut in_while) = (0usize, false, false);
    let mut j = f.open;
    while j <= f.close && j < tokens.len() {
        let t = &tokens[j];
        match t.text.as_str() {
            "(" => parens += 1,
            ")" => parens = parens.saturating_sub(1),
            "{" => {
                loops.push(pending_loop && parens == 0);
                if parens == 0 {
                    (pending_loop, in_while) = (false, false);
                }
            }
            "}" => {
                // Kill every guard born in the closing scope.
                live.retain(|g| g.depth < loops.len());
                loops.pop();
            }
            // Temporaries die at the end of their statement.
            ";" => live.retain(|g| g.name.is_some()),
            _ => {}
        }
        if j > f.open {
            if let Some(open) = body_open(tokens, j) {
                j = match_brace(tokens, open) + 1;
                continue;
            }
        }
        if t.kind != TokenKind::Ident || skip_line(t.line) {
            j += 1;
            continue;
        }
        match t.text.as_str() {
            "loop" | "for" | "while" => {
                pending_loop = true;
                in_while |= t.text == "while";
                j += 1;
                continue;
            }
            // `let [mut] NAME` followed by `=`, `:` or `;` (not a
            // pattern such as `let Some(x)`) binds a local.
            "let" => {
                let name = if text(j + 1) == "mut" { j + 2 } else { j + 1 };
                if tokens.get(name).is_some_and(|n| n.kind == TokenKind::Ident)
                    && matches!(text(name + 1), "=" | ":" | ";")
                {
                    locals.insert(text(name));
                }
            }
            // `drop(NAME)` kills the most recent guard bound to NAME.
            "drop" if text(j + 1) == "(" && text(j + 3) == ")" => {
                let arg = text(j + 2);
                if let Some(k) = live.iter().rposition(|g| g.name.as_deref() == Some(arg)) {
                    live.remove(k);
                }
            }
            _ => {}
        }
        let prev = text(j.wrapping_sub(1));
        if text(j + 1) != "(" || prev == "fn" {
            j += 1;
            continue;
        }
        let dot = prev == ".";
        if dot || prev == ":" || !locals.contains(t.text.as_str()) {
            visit(Event::Call(&t.text));
        }
        // Acquisition: `recv.lock()` / `.read()` / `.write()`.
        if dot && matches!(t.text.as_str(), "lock" | "read" | "write") && text(j + 2) == ")" {
            if let Some(receiver) = receiver_of(tokens, j) {
                // A guard bound by `let` lives to the end of its scope;
                // one re-taken by assignment into a guard binding
                // (`g = m.lock();` after `drop(g)`) to the end of the
                // binding's scope. Assigned to anything else, it is a
                // temporary.
                let (name, depth, retaken) = match binding_name(tokens, j) {
                    Some((name, true)) => {
                        bound.insert(name.clone(), (receiver.clone(), loops.len()));
                        (Some(name), loops.len(), false)
                    }
                    Some((name, false)) if bound.contains_key(&name) => {
                        let depth = bound[&name].1;
                        bound.insert(name.clone(), (receiver.clone(), depth));
                        (Some(name), depth, true)
                    }
                    _ => (None, loops.len(), false),
                };
                let guard = LiveGuard {
                    name,
                    receiver,
                    line: t.line,
                    depth,
                };
                visit(Event::Guard(GuardEvent::Acquire {
                    guard: &guard,
                    live: &live,
                }));
                // The guard an assignment replaces is dropped once the
                // new one is taken.
                if retaken {
                    if let Some(k) = live.iter().rposition(|g| g.name == guard.name) {
                        live.remove(k);
                    }
                }
                live.push(guard);
                j += 2; // to the `)`
            }
            j += 1;
            continue;
        }
        let method = t.text.as_str();
        let line = t.line;
        let receiver = tokens
            .get(j.wrapping_sub(2))
            .filter(|r| dot && r.kind == TokenKind::Ident)
            .map(|r| r.text.as_str());
        let args_end = match_paren(tokens, j + 1);
        // A condvar wait is handed its guard as `&mut g`. An ordinary
        // method that happens to be named `wait` (`entry.wait(deadline)`)
        // has no such argument and is no part of the protocol.
        let handed = WAIT_CALLEES
            .contains(&method)
            .then(|| {
                (j + 2..args_end).find(|&k| {
                    text(k) == "&"
                        && text(k + 1) == "mut"
                        && tokens
                            .get(k + 2)
                            .is_some_and(|g| g.kind == TokenKind::Ident)
                })
            })
            .flatten()
            .map(|k| text(k + 2));
        if is_blocking(method, receiver) {
            visit(Event::Guard(GuardEvent::Blocking {
                callee: method,
                line,
                released: handed
                    .and_then(|h| live.iter().rposition(|g| g.name.as_deref() == Some(h))),
                live: &live,
            }));
        }
        match receiver {
            Some(cond) if handed.is_some() => visit(Event::Wait {
                cond,
                mutex: handed.and_then(|h| bound.get(h)).map(|(m, _)| m.as_str()),
                in_loop: loops.contains(&true),
                line,
            }),
            Some(cond) if NOTIFY_CALLEES.contains(&method) => visit(Event::Notify { cond, line }),
            Some(location) => {
                let kind = match method {
                    "load" => Some(AtomicKind::Load),
                    "store" => Some(AtomicKind::Store),
                    m if RMW_CALLEES.contains(&m) => Some(AtomicKind::Rmw),
                    _ => None,
                };
                let ordering = kind.and_then(|_| {
                    tokens[j + 2..=args_end].iter().find(|a| {
                        a.kind == TokenKind::Ident && ORDERING_TAGS.contains(&a.text.as_str())
                    })
                });
                if let (Some(kind), Some(ordering)) = (kind, ordering) {
                    visit(Event::Atomic {
                        location,
                        kind,
                        ordering: &ordering.text,
                        spin: in_while && kind == AtomicKind::Load,
                        line,
                    });
                }
            }
            None => {}
        }
        j += 1;
    }
}

/// The guard events of the body `[open, close]`: [`walk`] with the
/// other events dropped.
#[cfg(test)]
fn walk_guards(
    tokens: &[Token],
    open: usize,
    close: usize,
    skip_line: &dyn Fn(usize) -> bool,
    is_blocking: &dyn Fn(&str, Option<&str>) -> bool,
    visit: &mut dyn FnMut(GuardEvent<'_>),
) {
    let f = FnItem {
        name: String::new(),
        line: 0,
        start: open,
        open,
        close,
    };
    walk(tokens, &f, skip_line, is_blocking, &mut |ev| {
        if let Event::Guard(g) = ev {
            visit(g);
        }
    });
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
    fn a_guard_retaken_by_assignment_lives_to_the_end_of_its_let_scope() {
        // `next_job`'s shape: the guard is given up and taken again
        // inside a block, and the wait after the block holds it.
        let ev = body_events(
            "fn f() { let mut g = x.free.lock(); loop { if c { drop(g); g = x.free.lock(); continue; } q.recv(); } q.recv(); }",
        );
        assert_eq!(ev[1].0, "acquire:free");
        assert!(ev[1].1.is_empty(), "dropped before the re-take: {ev:?}");
        assert_eq!(ev[2].0, "block:recv");
        assert_eq!(ev[2].1, vec![Some("g".to_string())]);
        assert_eq!(ev[3].1, vec![Some("g".to_string())]);
        // Re-taken with the old guard still held: both are live at the
        // acquisition, one after it.
        let ev = body_events("fn f() { let mut g = x.free.lock(); g = x.free.lock(); q.recv(); }");
        assert_eq!(ev[1].1, vec![Some("g".to_string())]);
        assert_eq!(ev[2].1, vec![Some("g".to_string())]);
        // Assigned to a name no guard was bound to, it is a temporary.
        let ev = body_events("fn f() { let mut n = 0; n = x.free.lock(); q.recv(); }");
        assert!(ev[1].1.is_empty(), "{ev:?}");
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
