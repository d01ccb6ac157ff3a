//! The lint rules. Each rule walks a tokenized source file (or a
//! manifest) and yields [`Diagnostic`]s; suppression filtering happens
//! in the engine, not here.

use crate::config::Config;
use crate::scope::{functions, walk_guards, GuardEvent, LiveGuard};
use crate::source::SourceFile;
use crate::Diagnostic;
use crate::Facts;
use crate::tokenizer::TokenKind;

/// Rule name constants, shared by rules, suppressions and tests.
pub mod name {
    /// `unwrap`/`expect`/`panic!` on the fast path.
    pub const NO_PANIC: &str = "no-panic-on-fast-path";
    /// Heap allocation on the fast path.
    pub const NO_ALLOC: &str = "no-alloc-on-fast-path";
    /// Overlapping guards acquired against the global order.
    pub const LOCK_ORDER: &str = "lock-order";
    /// A cycle in the workspace lock graph (deadlock potential).
    pub const LOCK_CYCLE: &str = "lock-cycle";
    /// A call that can block while a lock guard is live.
    pub const NO_BLOCKING: &str = "no-blocking-under-lock";
    /// lint.toml's fast-path snapshot disagrees with the computed
    /// reachability set.
    pub const STALE_SCOPE: &str = "stale-scope";
    /// `thread::sleep` in library code.
    pub const NO_SLEEP: &str = "no-sleep-in-lib";
    /// `unsafe` without a `// SAFETY:` comment.
    pub const SAFETY_COMMENT: &str = "safety-comment";
    /// Non-path dependencies in a manifest.
    pub const HERMETIC_DEPS: &str = "hermetic-deps";
    /// A `lint:allow` with no justification.
    pub const UNJUSTIFIED_ALLOW: &str = "unjustified-allow";
    /// A `Condvar::wait` outside a predicate loop.
    pub const CONDVAR_WAIT_LOOP: &str = "condvar-wait-loop";
    /// A notify not downstream of a touch of the waiters' mutex.
    pub const CONDVAR_NOTIFY: &str = "condvar-notify-write";
    /// `Relaxed` where release/acquire pairing is required.
    pub const ATOMIC_PUBLICATION: &str = "atomic-publication";
    /// A pool buffer that escapes the alloc→recycle/return lifecycle.
    pub const POOL_LIFECYCLE: &str = "pool-lifecycle";
    /// A packet type declared in protocol.toml with no construction
    /// site or no dispatch arm in the scanned sources.
    pub const PROTOCOL_UNHANDLED_TYPE: &str = "protocol-unhandled-type";
    /// A `match` over a packet type that neither names every declared
    /// type nor carries a `_` wildcard.
    pub const PROTOCOL_MISSING_ARM: &str = "protocol-missing-arm";
    /// A flag set but undeclared in [flag-reads] (dead on the wire), or
    /// declared but never read by the type's handlers.
    pub const PROTOCOL_UNREAD_FLAG: &str = "protocol-unread-flag";
    /// An `ack_for` outside the allowed callers, or a gutted/missing
    /// retransmission function.
    pub const PROTOCOL_ACK_DISCIPLINE: &str = "protocol-ack-discipline";
}

/// The rule family a diagnostic belongs to, for the `--json` report's
/// machine consumers and the `--summary` per-family counts.
pub fn family(rule: &str) -> &'static str {
    match rule {
        name::CONDVAR_WAIT_LOOP | name::CONDVAR_NOTIFY => "condvar-protocol",
        name::ATOMIC_PUBLICATION => "atomic-publication",
        name::POOL_LIFECYCLE => "pool-lifecycle",
        name::LOCK_ORDER | name::LOCK_CYCLE | name::NO_BLOCKING => "locking",
        name::NO_PANIC | name::NO_ALLOC | name::STALE_SCOPE => "fast-path",
        name::PROTOCOL_UNHANDLED_TYPE
        | name::PROTOCOL_MISSING_ARM
        | name::PROTOCOL_UNREAD_FLAG
        | name::PROTOCOL_ACK_DISCIPLINE => "protocol-conformance",
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
/// and lock-graph facts to `facts` for the workspace-level rules.
pub fn check_source(file: &SourceFile, config: &Config, facts: &mut Facts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if is_test_path(&file.rel_path) {
        return out;
    }
    facts.call_graph.add_file(file);
    if Config::path_matches(&file.rel_path, &config.fast_path_files) {
        no_panic(file, &mut out);
        no_alloc(file, config, &mut out);
    }
    guard_rules(file, config, facts, &mut out);
    no_sleep(file, &mut out);
    safety_comment(file, &mut out);
    crate::dataflow::scan_file(file, config, &mut facts.dataflow);
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
/// `format!`, `Box::new` are banned in fast-path modules (tests exempt;
/// lines constructing errors exempt — error paths are off the fast path
/// by definition).
///
/// Paper rationale: §3.2 — packet buffers live in a shared pool so the
/// fast path copies and allocates nothing ("This strategy eliminates
/// the need for extra address mapping operations or copying when doing
/// RPC"). Tables VI–VII account for every microsecond; a stray
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
                    "`{what}` allocates on the fast path; use the shared buffer pool \
                     (zero-copy) instead"
                ),
            ));
        }
    }
}

/// The flow-aware guard rules, one shared walk per function body:
///
/// * `lock-order` — fires only when a guard of a later-ranked class is
///   provably **live** while an earlier-ranked class is acquired.
///   Sequential (drop-then-relock) acquisitions no longer fire.
/// * lock-graph edges — every live-guard→new-acquisition pair feeds the
///   workspace lock graph, whose cycles become `lock-cycle`
///   diagnostics in the engine's workspace pass.
/// * `no-blocking-under-lock` — no call that can block the thread
///   (`recv`, `wait`, `park`, `test_sleep`, transport sends, `join`)
///   while any guard is live. Condvar waits are exempt for the guard
///   they atomically release (its name appears in the argument list)
///   but still fire for any *other* live guard.
///
/// Paper rationale: the §3.1.3 interrupt routine takes the call-table
/// lock and the buffer-pool lock back to back on every packet; an
/// inversion anywhere else in the runtime deadlocks the demultiplexer,
/// and blocking while holding protocol state stalls every call on the
/// endpoint (the paper's demux runs in the receive interrupt).
fn guard_rules(file: &SourceFile, config: &Config, facts: &mut Facts, out: &mut Vec<Diagnostic>) {
    let in_lock_scope = Config::path_matches(&file.rel_path, &config.lock_files);
    let in_blocking_scope = Config::path_matches(&file.rel_path, &config.blocking_files);
    if !in_lock_scope && !in_blocking_scope {
        return;
    }
    let toks = &file.tokens.tokens;
    let rank_of = |ident: &str| -> Option<(usize, &crate::config::LockClass)> {
        config
            .lock_order
            .iter()
            .enumerate()
            .find(|(_, class)| class.receivers.iter().any(|r| r == ident))
    };
    // Constant index of a guard on a parametric class, if any.
    let const_index = |g: &LiveGuard| -> Option<usize> {
        let (_, class) = rank_of(&g.receiver)?;
        if !class.parametric {
            return None;
        }
        g.index.as_ref()?.parse().ok()
    };
    // Lock-graph node: the global class name for classified receivers
    // (`class[N]` for a parametric class at a constant index),
    // file-namespaced otherwise so unrelated private locks never alias.
    let node_of = |g: &LiveGuard| -> String {
        match rank_of(&g.receiver) {
            Some((_, class)) => match const_index(g) {
                Some(idx) => format!("{}[{idx}]", class.name),
                None => class.name.clone(),
            },
            None => format!("{}::{}", file.rel_path, g.receiver),
        }
    };
    let is_blocking = |callee: &str, receiver: Option<&str>| -> bool {
        if callee == "send" {
            // Only transport/socket sends block; channel sends are
            // unbounded by design and never do.
            return matches!(receiver, Some("transport" | "socket"));
        }
        config.blocking_calls.iter().any(|b| b == callee)
    };
    let mut diags: Vec<Diagnostic> = Vec::new();
    for f in functions(toks) {
        walk_guards(
            toks,
            f.open,
            f.close,
            &|line| file.is_test_line(line),
            &is_blocking,
            &mut |ev| match ev {
                GuardEvent::Acquire { guard, live } => {
                    if !in_lock_scope {
                        return;
                    }
                    let new_node = node_of(guard);
                    for held in live {
                        facts.lock_graph.record(
                            node_of(held),
                            new_node.clone(),
                            &file.rel_path,
                            guard.line,
                        );
                    }
                    let Some((rank, class)) = rank_of(&guard.receiver) else {
                        return;
                    };
                    let class = class.name.as_str();
                    if let Some((held, held_class)) = live
                        .iter()
                        .filter_map(|g| rank_of(&g.receiver).map(|(r, c)| (g, (r, c.name.as_str()))))
                        .filter(|(_, (r, _))| *r > rank)
                        .map(|(g, (_, c))| (g, c))
                        .next_back()
                    {
                        let order: Vec<&str> =
                            config.lock_order.iter().map(|c| c.name.as_str()).collect();
                        diags.push(file.diagnostic(
                            name::LOCK_ORDER,
                            guard.line,
                            format!(
                                "`{class}` lock acquired while a `{held_class}` guard \
                                 (line {}) is still held; the global order is {}",
                                held.line,
                                order.join(" → ")
                            ),
                        ));
                    }
                    // Parametric same-class discipline: instances must
                    // be taken in strictly ascending index order.
                    if let Some(idx) = const_index(guard) {
                        if let Some((held, held_idx)) = live
                            .iter()
                            .filter(|g| rank_of(&g.receiver).map(|(r, _)| r) == Some(rank))
                            .filter_map(|g| const_index(g).map(|h| (g, h)))
                            .filter(|(_, h)| idx <= *h)
                            .next_back()
                        {
                            diags.push(file.diagnostic(
                                name::LOCK_ORDER,
                                guard.line,
                                format!(
                                    "`{class}[{idx}]` acquired while `{class}[{held_idx}]` \
                                     (line {}) is still held; parametric `{class}` locks \
                                     must be acquired in ascending index order",
                                    held.line
                                ),
                            ));
                        }
                    }
                }
                GuardEvent::Blocking {
                    callee,
                    line,
                    args,
                    live,
                } => {
                    if !in_blocking_scope || live.is_empty() {
                        return;
                    }
                    // A condvar wait atomically releases the guard it is
                    // handed; find that guard among the argument tokens.
                    let released: Option<&LiveGuard> =
                        if matches!(callee, "wait" | "wait_until" | "wait_timeout") {
                            toks[args.0..args.1.min(toks.len())]
                                .iter()
                                .filter(|t| t.kind == TokenKind::Ident)
                                .find_map(|t| {
                                    live.iter().find(|g| g.name.as_deref() == Some(&t.text))
                                })
                        } else {
                            None
                        };
                    let still_held: Vec<&LiveGuard> = live
                        .iter()
                        .filter(|g| !released.is_some_and(|r| std::ptr::eq(*g, r)))
                        .collect();
                    if let Some(held) = still_held.first() {
                        diags.push(file.diagnostic(
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
            },
        );
    }
    out.append(&mut diags);
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
            || !toks.get(i + 1).is_some_and(|t| t.text == "(")
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

/// Every `unsafe` keyword needs a `// SAFETY:` comment on one of the
/// three preceding lines (tests exempt). Crates with no unsafe at all
/// should declare `#![forbid(unsafe_code)]` instead — see DESIGN.md.
fn safety_comment(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for tok in &file.tokens.tokens {
        if tok.kind != TokenKind::Ident || tok.text != "unsafe" || file.is_test_line(tok.line) {
            continue;
        }
        let documented = (tok.line.saturating_sub(3)..=tok.line)
            .any(|l| file.comment_on(l).is_some_and(|c| c.contains("SAFETY:")));
        if !documented {
            out.push(file.diagnostic(
                name::SAFETY_COMMENT,
                tok.line,
                "`unsafe` without a `// SAFETY:` comment on the preceding lines".to_string(),
            ));
        }
    }
}

/// Every dependency in every manifest must be an in-tree path (directly
/// or via `workspace = true`), and the crates this repo replaced with
/// in-tree equivalents must never come back. Subsumes the grep in
/// `tests/hermetic.rs`: the build stays reproducible from a clean
/// checkout with an empty cargo registry.
pub fn check_manifest(rel_path: &str, text: &str, config: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if !section.contains("dependencies") {
            continue;
        }
        let Some((name_part, spec)) = line.split_once('=') else {
            continue;
        };
        let mut dep = name_part.trim().trim_matches('"').to_string();
        let mut spec = spec.trim().to_string();
        if let Some(bare) = dep.strip_suffix(".workspace") {
            dep = bare.to_string();
            spec = format!("workspace = {spec}");
        }
        let diag = |msg: String| Diagnostic {
            rule: name::HERMETIC_DEPS,
            path: rel_path.to_string(),
            line: line_no,
            message: msg,
            witness: Vec::new(),
        };
        if config.banned_deps.iter().any(|b| b == &dep) {
            out.push(diag(format!(
                "dependency `{dep}` was replaced by an in-tree crate and is banned"
            )));
            continue;
        }
        let workspace_ref = spec.contains("workspace = true");
        let path_only = spec.contains("path =")
            && !spec.contains("version =")
            && !spec.contains("git =")
            && !spec.contains("registry =");
        if !(workspace_ref || path_only) {
            out.push(diag(format!(
                "[{section}] `{dep}` is not a pure path dependency: {spec}"
            )));
        } else if section == "workspace.dependencies" && !spec.contains("crates/") {
            out.push(diag(format!(
                "workspace dependency `{dep}` must point into crates/: {spec}"
            )));
        }
    }
    out
}
