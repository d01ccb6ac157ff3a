//! The lint rules. Each rule walks a tokenized source file and yields
//! [`Diagnostic`]s; suppression filtering happens in the engine, not
//! here.

use std::collections::BTreeSet;

use crate::config::Config;
use crate::dataflow::{AtomicSite, NotifySite, WaitSite};
use crate::scope::{functions, walk, Event, GuardEvent};
use crate::source::SourceFile;
use crate::tokenizer::TokenKind;
use crate::{Diagnostic, Facts};

/// Rule name constants, shared by rules, suppressions and tests.
pub mod name {
    /// `unwrap`/`expect`/`panic!` on the fast path.
    pub const NO_PANIC: &str = "no-panic-on-fast-path";
    /// Heap allocation on the fast path.
    pub const NO_ALLOC: &str = "no-alloc-on-fast-path";
    /// A lock acquired while another guard is live.
    pub const NESTED_LOCK: &str = "nested-lock";
    /// A call that can block while a lock guard is live.
    pub const NO_BLOCKING: &str = "no-blocking-under-lock";
    /// lint.toml's fast-path snapshot disagrees with the computed
    /// reachability set.
    pub const STALE_SCOPE: &str = "stale-scope";
    /// `thread::sleep` in library code.
    pub const NO_SLEEP: &str = "no-sleep-in-lib";
    /// A `lint:allow` with no justification.
    pub const UNJUSTIFIED_ALLOW: &str = "unjustified-allow";
    /// A `Condvar::wait` outside a predicate loop.
    pub const CONDVAR_WAIT_LOOP: &str = "condvar-wait-loop";
    /// A notify not downstream of a touch of the waiters' mutex.
    pub const CONDVAR_NOTIFY: &str = "condvar-notify-write";
    /// `Relaxed` where release/acquire pairing is required.
    pub const ATOMIC_PUBLICATION: &str = "atomic-publication";
}

/// The rule family a diagnostic belongs to, for the `--summary`
/// per-family counts.
pub fn family(rule: &str) -> &'static str {
    match rule {
        name::CONDVAR_WAIT_LOOP | name::CONDVAR_NOTIFY => "condvar-protocol",
        name::ATOMIC_PUBLICATION => "atomic-publication",
        name::NESTED_LOCK | name::NO_BLOCKING => "locking",
        name::NO_PANIC | name::NO_ALLOC | name::STALE_SCOPE => "fast-path",
        _ => "hygiene",
    }
}

/// True for files that are test-only by location: integration tests,
/// benches, and examples never sit on the fast path.
pub(crate) fn is_test_path(rel_path: &str) -> bool {
    rel_path.starts_with("tests/")
        || rel_path.contains("/tests/")
        || rel_path.starts_with("benches/")
        || rel_path.contains("/benches/")
        || rel_path.starts_with("examples/")
        || rel_path.contains("/examples/")
}

/// Runs every source-level rule over one file, contributing call-graph
/// and dataflow facts to `facts` for the workspace-level rules. The
/// file's functions are extracted once and each body is walked once
/// ([`walk`]); the guard rules, the dataflow facts and the call graph
/// all read that walk's events.
pub fn check_source(file: &SourceFile, config: &Config, facts: &mut Facts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if is_test_path(&file.rel_path) {
        return out;
    }
    let path = &file.rel_path;
    if Config::path_matches(path, &config.fast_path_files) {
        no_panic(file, &mut out);
        no_alloc(file, config, &mut out);
    }
    no_sleep(file, &mut out);
    let guards = Config::path_matches(path, &config.guard_files);
    let condvar = Config::path_matches(path, &config.condvar_files);
    let atomic = Config::path_matches(path, &config.atomic_files);
    let is_blocking = |callee: &str, receiver: Option<&str>| -> bool {
        if callee == "send" {
            // Only transport/socket sends block; channel sends are
            // unbounded by design and never do.
            return matches!(receiver, Some("transport" | "socket"));
        }
        config.blocking_calls.iter().any(|b| b == callee)
    };
    let toks = &file.tokens.tokens;
    let dataflow = &mut facts.dataflow;
    for f in functions(toks)
        .iter()
        .filter(|f| !file.is_test_line(f.line))
    {
        let mut callees = BTreeSet::new();
        let mut acquired = BTreeSet::new();
        let func = &f.name;
        walk(
            toks,
            f,
            &|line| file.is_test_line(line),
            &is_blocking,
            &mut |ev| match ev {
                Event::Call(callee) => {
                    callees.insert(callee.to_string());
                }
                Event::Guard(g) => {
                    if let GuardEvent::Acquire { guard, .. } = &g {
                        acquired.insert(guard.receiver.clone());
                    }
                    if guards {
                        guard_rules(file, &g, &mut out);
                    }
                }
                Event::Wait {
                    cond,
                    mutex,
                    in_loop,
                    line,
                } if condvar => dataflow.waits.push(WaitSite {
                    path: path.clone(),
                    line,
                    func: func.clone(),
                    cond: cond.to_string(),
                    mutex: mutex.map(str::to_string),
                    in_loop,
                }),
                Event::Notify { cond, line } if condvar => dataflow.notifies.push(NotifySite {
                    path: path.clone(),
                    line,
                    func: func.clone(),
                    cond: cond.to_string(),
                    acquired_before: acquired.clone(),
                    callees_before: callees.clone(),
                }),
                Event::Atomic {
                    location,
                    kind,
                    ordering,
                    spin,
                    line,
                } if atomic => dataflow.atomics.push(AtomicSite {
                    path: path.clone(),
                    line,
                    func: func.clone(),
                    location: location.to_string(),
                    kind,
                    ordering: ordering.to_string(),
                    spin,
                }),
                _ => {}
            },
        );
        if condvar && !acquired.is_empty() {
            dataflow
                .fn_locks
                .entry((path.clone(), func.clone()))
                .or_default()
                .extend(acquired);
        }
        facts.call_graph.add_fn(path, func, callees);
    }
    out
}

/// `unwrap()`, `expect(...)`, `panic!`, `unreachable!`, `todo!`,
/// `unimplemented!` are banned in fast-path modules (tests exempt).
///
/// Paper rationale: the fast path is the §3.1.3 interrupt-routine path;
/// a panic there takes down the demultiplexer and every outstanding
/// call with it. Failures must surface as `RpcError` so the protocol's
/// retransmission machinery (§5) can handle them.
fn no_panic(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident || file.is_test_line(tok.line) {
            continue;
        }
        let followed_by = |s: &str| toks.get(i + 1).is_some_and(|t| t.text == s);
        let preceded_by_dot = i > 0 && toks[i - 1].text == ".";
        let hit = match tok.text.as_str() {
            "unwrap" | "expect" => preceded_by_dot && followed_by("("),
            "panic" | "unreachable" | "todo" | "unimplemented" => followed_by("!"),
            _ => false,
        };
        if hit {
            out.push(file.diagnostic(
                name::NO_PANIC,
                tok.line,
                format!(
                    "`{}` can panic on the fast path; return an RpcError instead",
                    tok.text
                ),
            ));
        }
    }
}

/// `Vec::new`, `Vec::with_capacity`, `vec!`, `to_vec()`, `.clone()`,
/// `format!`, `Box::new`, `Arc::new`, `Rc::new` are banned in fast-path
/// modules (tests exempt; lines constructing errors exempt — error paths
/// are off the fast path by definition).
///
/// Paper rationale: §3.2 — packet buffers live in a shared pool so the
/// fast path copies and allocates nothing ("This strategy eliminates
/// the need for extra address mapping operations or copying when doing
/// RPC"). The runtime gets the same effect from per-activity frames: a
/// caller's slot and call-table entry, a server activity and a local
/// caller's thread each make their frames once and reuse them from call
/// to call. Tables VI–VII account for every microsecond; a stray
/// allocation would not show up in the account but would show up in
/// the latency.
fn no_alloc(file: &SourceFile, config: &Config, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident || file.is_test_line(tok.line) {
            continue;
        }
        if file.line_has_any(tok.line, &config.error_markers) {
            continue;
        }
        let next_is = |off: usize, s: &str| toks.get(i + off).is_some_and(|t| t.text == s);
        let preceded_by_dot = i > 0 && toks[i - 1].text == ".";
        let path_call = |head: &str| {
            // `head::name` — two ':' puncts between the idents.
            i >= 3
                && toks[i - 1].text == ":"
                && toks[i - 2].text == ":"
                && toks[i - 3].text == head
        };
        let construct = match tok.text.as_str() {
            "new" if path_call("Vec") => Some("Vec::new"),
            "with_capacity" if path_call("Vec") => Some("Vec::with_capacity"),
            "new" if path_call("Box") => Some("Box::new"),
            "new" if path_call("Arc") => Some("Arc::new"),
            "new" if path_call("Rc") => Some("Rc::new"),
            "to_vec" if preceded_by_dot && next_is(1, "(") => Some(".to_vec()"),
            "clone" if preceded_by_dot && next_is(1, "(") => Some(".clone()"),
            "format" if next_is(1, "!") => Some("format!"),
            "vec" if next_is(1, "!") => Some("vec!"),
            _ => None,
        };
        if let Some(what) = construct {
            out.push(file.diagnostic(
                name::NO_ALLOC,
                tok.line,
                format!(
                    "`{what}` allocates on the fast path; use a per-activity frame, \
                     reused from call to call, instead"
                ),
            ));
        }
    }
}

/// The flow-aware guard rules, read from each body's guard events:
///
/// * `nested-lock` — no lock acquired while any other guard is provably
///   **live**. Sequential (drop-then-relock, scope-then-relock)
///   acquisitions do not fire. With no two locks ever held together,
///   no order between them needs keeping, and no cycle can form; a
///   nesting that must stay (a table's lock, then an entry's) carries a
///   `lint:allow` naming the one direction it is taken in.
/// * `no-blocking-under-lock` — no call that can block the thread
///   (`recv`, `wait`, `park`, `test_sleep`, transport sends, `join`)
///   while any guard is live. Condvar waits are exempt for the guard
///   they atomically release (its name appears in the argument list)
///   but still fire for any *other* live guard.
///
/// Paper rationale: the §3.1.3 interrupt routine takes the call-table
/// lock and the buffer-pool lock back to back on every packet, so the
/// paper has to rank its locks; here no function nests two but a
/// table's lock, then an entry's. The walk is intraprocedural: a lock
/// a callee takes under its caller's guard is not seen (the one such
/// nesting is `threads`, then `Idle::next`, through
/// `ServerSide::worker_ready`). Blocking while
/// holding protocol state stalls every call on the endpoint (the
/// paper's demux runs in the receive interrupt).
fn guard_rules(file: &SourceFile, ev: &GuardEvent<'_>, out: &mut Vec<Diagnostic>) {
    match *ev {
        GuardEvent::Acquire { guard, live } => {
            if let Some(held) = live.last() {
                out.push(file.diagnostic(
                    name::NESTED_LOCK,
                    guard.line,
                    format!(
                        "`{}` lock acquired while the `{}` guard (line {}) is \
                         still held; release it first",
                        guard.receiver, held.receiver, held.line
                    ),
                ));
            }
        }
        GuardEvent::Blocking {
            callee,
            line,
            released,
            live,
        } => {
            // A condvar wait atomically releases the guard it is handed.
            let held = (0..live.len()).find(|&k| Some(k) != released);
            if let Some(held) = held.map(|k| &live[k]) {
                out.push(file.diagnostic(
                    name::NO_BLOCKING,
                    line,
                    format!(
                        "`{callee}` can block while the `{}` guard (line {}) is \
                         held; drop the guard before blocking",
                        held.receiver, held.line
                    ),
                ));
            }
        }
    }
}

/// `thread::sleep` is banned in library code (tests exempt). Timing
/// belongs to the retransmission machinery, which computes deadlines
/// from the endpoint config — a sleep anywhere else either hides a
/// missing condition variable or adds unaccounted latency.
fn no_sleep(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident
            || tok.text != "sleep"
            || file.is_test_line(tok.line)
            || toks.get(i + 1).is_none_or(|t| t.text != "(")
        {
            continue;
        }
        // Require a `thread::sleep` or `thread.sleep`-shaped call so a
        // local method merely named `sleep` can be introduced
        // deliberately without tripping the rule.
        let qualified = i >= 3
            && toks[i - 3].text == "thread"
            && toks[i - 2].text == ":"
            && toks[i - 1].text == ":";
        if qualified {
            out.push(file.diagnostic(
                name::NO_SLEEP,
                tok.line,
                "`thread::sleep` in library code adds unaccounted latency; \
                 wait on a condition variable with a deadline instead"
                    .to_string(),
            ));
        }
    }
}
