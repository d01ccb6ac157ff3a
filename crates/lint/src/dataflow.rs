//! Interprocedural def-use dataflow over the token streams.
//!
//! The guard-lifetime model in [`crate::scope`] answers "which locks
//! are live *here*". This module answers flow questions that span
//! statements and functions:
//!
//! * **condvar protocol** — every `Condvar::wait*` must sit inside a
//!   predicate loop, and every `notify_one`/`notify_all` must be
//!   reachable only after the mutex its waiters re-check was acquired
//!   (the lost-wakeup shape `firefly-check`'s `bug-notify` fixture
//!   catches dynamically). Wait sites establish the condvar→mutex
//!   pairing workspace-wide; notify sites are then checked against it,
//!   following same-file callees one level so helper-acquire patterns
//!   resolve.
//! * **atomic publication** — accesses through the `firefly_sync::
//!   atomic` wrappers (recognized by a literal `Ordering` tag in the
//!   argument list) are grouped by location identifier. A `Relaxed`
//!   store on a location someone acquire-loads, or a `Relaxed` load on
//!   a location someone release-stores — and any `Relaxed` spin-loop
//!   exit — is a publication race waiting for a weaker machine, unless
//!   the location is allowlisted (`[atomic-publication].allow_relaxed`
//!   in lint.toml sanctions hook.rs's disabled-path `INSTALLED` load,
//!   whose proof is the comment at that site).
//!
//! Everything degrades conservatively on token streams that are not
//! valid Rust: unknown shapes produce no facts, never a panic — the
//! propcheck totality property in `crates/lint/tests/rules.rs` holds
//! the scan to that on arbitrary byte soup.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::rules::name;
use crate::scope::functions;
use crate::source::{match_paren, SourceFile};
use crate::tokenizer::{Token, TokenKind};
use crate::Diagnostic;

/// Atomic access kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    Load,
    Store,
    Rmw,
}

/// One `Condvar::wait*` call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitSite {
    pub path: String,
    pub line: usize,
    pub func: String,
    /// Condvar receiver field (`available`, `ready`, ...).
    pub cond: String,
    /// Receiver field of the mutex whose guard is passed to the wait,
    /// when the guard binding resolves (`free`, `park`, ...).
    pub mutex: Option<String>,
    /// True when the wait sits inside a `loop`/`while`/`for` body — the
    /// predicate re-check the protocol requires.
    pub in_loop: bool,
}

/// One `notify_one`/`notify_all` call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotifySite {
    pub path: String,
    pub line: usize,
    pub func: String,
    pub cond: String,
    /// Mutex receivers acquired earlier in the same function (token
    /// order), i.e. the state writes this notify can be downstream of.
    pub acquired_before: BTreeSet<String>,
    /// Function names called before the notify — followed one level
    /// (same file) so a helper that takes the paired mutex counts.
    pub callees_before: BTreeSet<String>,
}

/// One instrumented atomic access with a literal ordering tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicSite {
    pub path: String,
    pub line: usize,
    pub func: String,
    /// Location identifier: the receiver field before the method.
    pub location: String,
    pub kind: AtomicKind,
    /// The literal tag (`Relaxed`, `Acquire`, `Release`, `AcqRel`,
    /// `SeqCst`).
    pub ordering: String,
    /// True for a load in a `while` condition — a spin-loop exit.
    pub spin: bool,
}

/// Dataflow facts accumulated across the workspace walk.
#[derive(Debug, Default)]
pub struct DataflowFacts {
    pub waits: Vec<WaitSite>,
    pub notifies: Vec<NotifySite>,
    pub atomics: Vec<AtomicSite>,
    /// `(file, fn) → mutex receivers locked anywhere in the fn` — the
    /// one-level interprocedural step for the notify rule.
    pub fn_locks: BTreeMap<(String, String), BTreeSet<String>>,
}

impl DataflowFacts {
    /// Merges another worker's facts into this one (order-insensitive:
    /// evaluation sorts all derived output).
    pub fn merge(&mut self, other: DataflowFacts) {
        self.waits.extend(other.waits);
        self.notifies.extend(other.notifies);
        self.atomics.extend(other.atomics);
        for (k, v) in other.fn_locks {
            self.fn_locks.entry(k).or_default().extend(v);
        }
    }
}

/// Per-location aggregate: what the static↔dynamic publication gate
/// (`firefly_check::gates::publications`) reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocationSummary {
    pub name: String,
    /// True when the location carries at least one releasing write and
    /// one acquiring read — a statically paired publication point.
    pub paired: bool,
    pub allowlisted: bool,
}

/// Aggregates exported alongside the diagnostics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Workspace condvar→mutex pairings observed at wait sites.
    pub condvar_pairs: Vec<(String, Vec<String>)>,
    pub locations: Vec<LocationSummary>,
}

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

fn releasing(tag: &str) -> bool {
    matches!(tag, "Release" | "AcqRel" | "SeqCst")
}

fn acquiring(tag: &str) -> bool {
    matches!(tag, "Acquire" | "AcqRel" | "SeqCst")
}

/// Walks a receiver chain backwards from `k` (the token just before a
/// `.method` dot), stepping over `(...)` and `[...]` groups, and
/// returns the indices of the chain's identifier segments, head first:
/// for `self.inner.free.lock().push` entered at the `)` this yields
/// `[self, inner, free, lock]` positions.
fn chain_idents(tokens: &[Token], mut k: usize) -> Vec<usize> {
    let mut idents = Vec::new();
    loop {
        match tokens.get(k).map(|t| t.text.as_str()) {
            Some(")") | Some("]") => {
                // Skip back over the balanced group.
                let close = tokens[k].text.clone();
                let open = if close == ")" { "(" } else { "[" };
                let mut depth = 0usize;
                loop {
                    let Some(t) = tokens.get(k) else { return idents };
                    if t.text == close {
                        depth += 1;
                    } else if t.text == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    let Some(prev) = k.checked_sub(1) else { return idents };
                    k = prev;
                }
                let Some(prev) = k.checked_sub(1) else { return idents };
                k = prev;
            }
            _ => {}
        }
        let Some(t) = tokens.get(k) else {
            break;
        };
        if t.kind != TokenKind::Ident {
            break;
        }
        idents.push(k);
        let Some(dot) = k.checked_sub(1) else { break };
        if tokens[dot].text != "." {
            break;
        }
        let Some(prev) = dot.checked_sub(1) else { break };
        k = prev;
    }
    idents.reverse();
    idents
}

/// The `let [mut] NAME =` binding whose right-hand side is the call
/// whose method identifier sits at `j` — tolerant of method position
/// inside larger expressions (unlike the stricter guard-lifetime
/// extractor, which requires the call to end the statement).
fn binding_of(tokens: &[Token], j: usize) -> Option<String> {
    let start = j.checked_sub(2)?;
    let chain = chain_idents(tokens, start);
    let head = *chain.first()?;
    let eq = head.checked_sub(1)?;
    if tokens[eq].text != "=" {
        return None;
    }
    let name = eq.checked_sub(1)?;
    if tokens[name].kind != TokenKind::Ident {
        return None;
    }
    let before = name.checked_sub(1)?;
    let bound = match tokens[before].text.as_str() {
        "let" => true,
        "mut" => before >= 1 && tokens[before - 1].text == "let",
        _ => false,
    };
    bound.then(|| tokens[name].text.clone())
}

/// Scans one prepared source file, appending facts. Scope gating (which
/// rule families apply to which path prefixes) happens here so the
/// workspace pairing maps only ever see in-scope sites.
pub fn scan_file(file: &SourceFile, config: &Config, facts: &mut DataflowFacts) {
    let in_condvar = Config::path_matches(&file.rel_path, &config.condvar_files);
    let in_atomic = Config::path_matches(&file.rel_path, &config.atomic_files);
    if !in_condvar && !in_atomic {
        return;
    }
    let toks = &file.tokens.tokens;
    for f in functions(toks) {
        if file.is_test_line(f.line) {
            continue;
        }
        scan_function(file, toks, &f, facts, in_condvar, in_atomic);
    }
}

/// Convenience for tests and properties: scan raw text under a given
/// workspace-relative path.
pub fn scan_text(rel_path: &str, text: &str, config: &Config) -> DataflowFacts {
    let file = SourceFile::new(rel_path, text);
    let mut facts = DataflowFacts::default();
    scan_file(&file, config, &mut facts);
    facts
}

fn scan_function(
    file: &SourceFile,
    toks: &[Token],
    f: &crate::scope::FnItem,
    facts: &mut DataflowFacts,
    in_condvar: bool,
    in_atomic: bool,
) {
    let close = f.close.min(toks.len().saturating_sub(1));
    if f.open >= toks.len() || f.open > close {
        return;
    }
    // Pre-pass: guard bindings `let [mut] NAME = CHAIN.lock()` →
    // NAME → mutex receiver field.
    let mut guard_mutex: BTreeMap<String, String> = BTreeMap::new();
    for j in f.open..=close {
        if toks[j].kind == TokenKind::Ident
            && toks[j].text == "lock"
            && j >= 2
            && toks[j - 1].text == "."
            && toks.get(j + 1).map(|t| t.text.as_str()) == Some("(")
            && toks.get(j + 2).map(|t| t.text.as_str()) == Some(")")
            && toks[j - 2].kind == TokenKind::Ident
        {
            if let Some(name) = binding_of(toks, j) {
                guard_mutex.insert(name, toks[j - 2].text.clone());
            }
        }
    }

    // Main pass state.
    // Brace stack: true for loop bodies. Loop keyword pending until its
    // body `{` at paren depth 0.
    let mut brace_stack: Vec<bool> = Vec::new();
    let mut pending_loop = false;
    let mut pending_while: Option<()> = None; // in a while condition
    let mut paren_depth = 0usize;
    let mut acquired: BTreeSet<String> = BTreeSet::new();
    let mut callees: BTreeSet<String> = BTreeSet::new();
    let fn_key = (file.rel_path.clone(), f.name.clone());

    let mut j = f.open;
    while j <= close {
        let t = &toks[j];
        match t.text.as_str() {
            "(" => paren_depth += 1,
            ")" => paren_depth = paren_depth.saturating_sub(1),
            "{" if paren_depth == 0 => {
                brace_stack.push(pending_loop);
                pending_loop = false;
                pending_while = None;
            }
            "}" if paren_depth == 0 => {
                brace_stack.pop();
            }
            _ => {}
        }
        if t.kind != TokenKind::Ident || file.is_test_line(t.line) {
            j += 1;
            continue;
        }
        match t.text.as_str() {
            "loop" | "for" => {
                pending_loop = true;
                j += 1;
                continue;
            }
            "while" => {
                pending_loop = true;
                pending_while = Some(());
                j += 1;
                continue;
            }
            _ => {}
        }
        let is_call = toks.get(j + 1).map(|x| x.text.as_str()) == Some("(")
            && (j == 0 || toks[j - 1].text != "fn");
        if is_call {
            callees.insert(t.text.clone());
        }
        let method = is_call && j >= 2 && toks[j - 1].text == "."
            && toks[j - 2].kind == TokenKind::Ident;
        // Track lock acquisitions for the notify rule.
        if method && matches!(t.text.as_str(), "lock" | "read" | "write") {
            acquired.insert(toks[j - 2].text.clone());
            facts
                .fn_locks
                .entry(fn_key.clone())
                .or_default()
                .insert(toks[j - 2].text.clone());
        }
        // Condvar wait/notify sites.
        if in_condvar && method && WAIT_CALLEES.contains(&t.text.as_str()) {
            let args_end = match_paren(toks, j + 1).min(toks.len().saturating_sub(1));
            // Only a condvar-style wait counts: the guard is passed as
            // `&mut g`. An ordinary method that happens to be named
            // `wait` (`entry.wait(deadline)`) has no such argument and
            // is not part of the protocol.
            let guard_arg = (j + 2..args_end).find_map(|k| {
                (toks[k].text == "&"
                    && toks.get(k + 1).map(|x| x.text.as_str()) == Some("mut")
                    && toks.get(k + 2).map(|x| x.kind) == Some(TokenKind::Ident))
                .then(|| toks[k + 2].text.clone())
            });
            if let Some(guard) = guard_arg {
                facts.waits.push(WaitSite {
                    path: file.rel_path.clone(),
                    line: t.line,
                    func: f.name.clone(),
                    cond: toks[j - 2].text.clone(),
                    mutex: guard_mutex.get(&guard).cloned(),
                    in_loop: brace_stack.iter().any(|&l| l),
                });
            }
        }
        if in_condvar && method && NOTIFY_CALLEES.contains(&t.text.as_str()) {
            facts.notifies.push(NotifySite {
                path: file.rel_path.clone(),
                line: t.line,
                func: f.name.clone(),
                cond: toks[j - 2].text.clone(),
                acquired_before: acquired.clone(),
                callees_before: callees.clone(),
            });
        }
        // Atomic accesses: a method call whose args carry a literal
        // Ordering tag.
        if in_atomic && method {
            let kind = match t.text.as_str() {
                "load" => Some(AtomicKind::Load),
                "store" => Some(AtomicKind::Store),
                s if RMW_CALLEES.contains(&s) => Some(AtomicKind::Rmw),
                _ => None,
            };
            if let Some(kind) = kind {
                let args_end = match_paren(toks, j + 1);
                let tag = toks[j + 2..=args_end.min(toks.len().saturating_sub(1))]
                    .iter()
                    .find(|a| {
                        a.kind == TokenKind::Ident && ORDERING_TAGS.contains(&a.text.as_str())
                    })
                    .map(|a| a.text.clone());
                if let Some(ordering) = tag {
                    facts.atomics.push(AtomicSite {
                        path: file.rel_path.clone(),
                        line: t.line,
                        func: f.name.clone(),
                        location: toks[j - 2].text.clone(),
                        kind,
                        ordering,
                        spin: pending_while.is_some() && kind == AtomicKind::Load,
                    });
                }
            }
        }
        j += 1;
    }
}

/// Runs the workspace-level evaluation over the accumulated facts,
/// producing diagnostics and the exported [`Summary`].
pub fn evaluate(facts: &DataflowFacts, config: &Config) -> (Vec<Diagnostic>, Summary) {
    let mut diags = Vec::new();

    // --- condvar protocol ------------------------------------------
    // Pairing map from wait sites: condvar receiver → mutex receivers.
    let mut pairs: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut wait_exemplar: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for w in &facts.waits {
        if let Some(m) = &w.mutex {
            pairs.entry(w.cond.clone()).or_default().insert(m.clone());
        }
        wait_exemplar
            .entry(w.cond.clone())
            .or_insert_with(|| (w.path.clone(), w.line));
    }
    for w in &facts.waits {
        if !w.in_loop {
            diags.push(Diagnostic {
                rule: name::CONDVAR_WAIT_LOOP,
                path: w.path.clone(),
                line: w.line,
                message: format!(
                    "`{}.{}` outside a predicate loop in `{}`: a spurious or stolen \
                     wakeup returns with the condition still false; re-check it in a \
                     `while`/`loop` under the same mutex",
                    w.cond,
                    "wait",
                    w.func
                ),
                witness: vec![format!("{}:{}", w.path, w.line)],
            });
        }
    }
    for n in &facts.notifies {
        let Some(mutexes) = pairs.get(&n.cond) else {
            continue; // no in-scope waiter pairing observed for this condvar
        };
        let direct = n.acquired_before.iter().any(|m| mutexes.contains(m));
        let via_callee = n.callees_before.iter().any(|c| {
            facts
                .fn_locks
                .get(&(n.path.clone(), c.clone()))
                .is_some_and(|locks| locks.iter().any(|m| mutexes.contains(m)))
        });
        if !direct && !via_callee {
            let mutex_list: Vec<&str> = mutexes.iter().map(String::as_str).collect();
            let mut witness = Vec::new();
            if let Some((wp, wl)) = wait_exemplar.get(&n.cond) {
                witness.push(format!("{wp}:{wl}"));
            }
            witness.push(format!("{}:{}", n.path, n.line));
            diags.push(Diagnostic {
                rule: name::CONDVAR_NOTIFY,
                path: n.path.clone(),
                line: n.line,
                message: format!(
                    "`{}.{}` in `{}` without acquiring the waiters' mutex (`{}`) \
                     first: a waiter can re-check its predicate, miss the state \
                     change, and block past this wakeup (lost-wakeup shape); touch \
                     the mutex before notifying",
                    n.cond,
                    "notify",
                    n.func,
                    mutex_list.join("`/`"),
                ),
                witness,
            });
        }
    }

    // --- atomic publication ----------------------------------------
    let mut by_location: BTreeMap<&str, Vec<&AtomicSite>> = BTreeMap::new();
    for a in &facts.atomics {
        by_location.entry(a.location.as_str()).or_default().push(a);
    }
    let mut locations = Vec::new();
    for (loc, sites) in &by_location {
        let allowlisted = config.allow_relaxed.iter().any(|a| a == loc);
        let releasing_writes: Vec<&&AtomicSite> = sites
            .iter()
            .filter(|s| s.kind != AtomicKind::Load && releasing(&s.ordering))
            .collect();
        let acquiring_reads = sites
            .iter()
            .filter(|s| s.kind != AtomicKind::Store && acquiring(&s.ordering))
            .count();
        let any_writes = sites.iter().any(|s| s.kind != AtomicKind::Load);
        let relaxed_loads: Vec<&&AtomicSite> = sites
            .iter()
            .filter(|s| s.kind == AtomicKind::Load && s.ordering == "Relaxed")
            .collect();
        let relaxed_writes: Vec<&&AtomicSite> = sites
            .iter()
            .filter(|s| s.kind != AtomicKind::Load && s.ordering == "Relaxed")
            .collect();
        locations.push(LocationSummary {
            name: (*loc).to_string(),
            paired: !releasing_writes.is_empty() && acquiring_reads > 0,
            allowlisted,
        });
        if allowlisted {
            continue;
        }
        // Relaxed read of a released location (or any spin-loop exit on
        // a written location): the read can see the flag without the
        // data it publishes.
        for l in &relaxed_loads {
            let against_release = !releasing_writes.is_empty();
            let spin_against_write = l.spin && any_writes;
            if against_release || spin_against_write {
                let mut witness = Vec::new();
                if let Some(w) = releasing_writes.first() {
                    witness.push(format!("{}:{}", w.path, w.line));
                } else if let Some(w) = sites.iter().find(|s| s.kind != AtomicKind::Load) {
                    witness.push(format!("{}:{}", w.path, w.line));
                }
                witness.push(format!("{}:{}", l.path, l.line));
                diags.push(Diagnostic {
                    rule: name::ATOMIC_PUBLICATION,
                    path: l.path.clone(),
                    line: l.line,
                    message: format!(
                        "`Relaxed` {}load of `{loc}` in `{}`, but `{loc}` is written \
                         cross-thread{}; load with `Acquire` (or allowlist the \
                         location in lint.toml [atomic-publication] with a proof)",
                        if l.spin { "spin-loop " } else { "" },
                        l.func,
                        if against_release {
                            " with `Release` ordering"
                        } else {
                            ""
                        },
                    ),
                    witness,
                });
            }
        }
        // Relaxed publication: a store/RMW somebody acquire-reads.
        if acquiring_reads > 0 {
            for w in &relaxed_writes {
                let reader = sites
                    .iter()
                    .find(|s| s.kind != AtomicKind::Store && acquiring(&s.ordering));
                let mut witness = vec![format!("{}:{}", w.path, w.line)];
                if let Some(r) = reader {
                    witness.push(format!("{}:{}", r.path, r.line));
                }
                diags.push(Diagnostic {
                    rule: name::ATOMIC_PUBLICATION,
                    path: w.path.clone(),
                    line: w.line,
                    message: format!(
                        "`Relaxed` write of `{loc}` in `{}`, but `{loc}` is \
                         acquire-read cross-thread; publish with `Release` so the \
                         reader's acquire pairs with it",
                        w.func,
                    ),
                    witness,
                });
            }
        }
    }

    let summary = Summary {
        condvar_pairs: pairs
            .into_iter()
            .map(|(c, m)| (c, m.into_iter().collect()))
            .collect(),
        locations,
    };
    (diags, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> DataflowFacts {
        scan_text("crates/core/src/client.rs", src, &Config::default())
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = facts(src);
        evaluate(&f, &Config::default()).0
    }

    #[test]
    fn wait_in_while_loop_is_clean() {
        let d = run(
            "pub fn f(p: &P) { let mut g = p.free.lock(); \
             while busy(&g) { p.available.wait(&mut g); } }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn wait_outside_loop_is_flagged() {
        let d = run("pub fn f(p: &P) { let mut g = p.free.lock(); p.available.wait(&mut g); }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, name::CONDVAR_WAIT_LOOP);
        assert!(!d[0].witness.is_empty());
    }

    #[test]
    fn notify_without_paired_mutex_is_flagged() {
        let d = run(
            "pub fn waiter(p: &P) { let mut g = p.free.lock(); \
             while busy(&g) { p.available.wait(&mut g); } } \
             pub fn wake(p: &P) { p.available.notify_one(); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, name::CONDVAR_NOTIFY);
    }

    #[test]
    fn notify_after_mutex_touch_is_clean() {
        let d = run(
            "pub fn waiter(p: &P) { let mut g = p.free.lock(); \
             while busy(&g) { p.available.wait(&mut g); } } \
             pub fn wake(p: &P) { p.free.lock().push(1); p.available.notify_one(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn notify_via_samefile_helper_acquisition_is_clean() {
        let d = run(
            "pub fn waiter(p: &P) { let mut g = p.free.lock(); \
             while busy(&g) { p.available.wait(&mut g); } } \
             fn bump(p: &P) { let _g = p.free.lock(); } \
             pub fn wake(p: &P) { bump(p); p.available.notify_one(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn relaxed_load_against_release_store_is_flagged() {
        let d = run(
            "pub fn w(s: &S) { s.flag.store(1, Ordering::Release); } \
             pub fn r(s: &S) -> u32 { s.flag.load(Ordering::Relaxed) }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, name::ATOMIC_PUBLICATION);
        assert_eq!(d[0].witness.len(), 2);
    }

    #[test]
    fn relaxed_store_against_acquire_load_is_flagged() {
        let d = run(
            "pub fn w(s: &S) { s.flag.store(1, Ordering::Relaxed); } \
             pub fn r(s: &S) -> u32 { s.flag.load(Ordering::Acquire) }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, name::ATOMIC_PUBLICATION);
    }

    #[test]
    fn all_relaxed_counters_stay_silent() {
        let d = run(
            "pub fn w(s: &S) { s.hits.fetch_add(1, Ordering::Relaxed); } \
             pub fn r(s: &S) -> u64 { s.hits.load(Ordering::Relaxed) }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn relaxed_spin_loop_exit_is_flagged() {
        let d = run(
            "pub fn w(s: &S) { s.done.store(1, Ordering::Relaxed); } \
             pub fn r(s: &S) { while s.done.load(Ordering::Relaxed) == 0 { spin(); } }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("spin-loop"), "{}", d[0].message);
    }

    #[test]
    fn release_acquire_pair_is_clean_and_paired() {
        let f = facts(
            "pub fn w(s: &S) { s.down.store(1, Ordering::Release); } \
             pub fn r(s: &S) -> bool { s.down.load(Ordering::Acquire) != 0 }",
        );
        let (d, summary) = evaluate(&f, &Config::default());
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(summary.locations.len(), 1);
        assert!(summary.locations[0].paired);
    }

    #[test]
    fn allowlisted_location_is_exempt() {
        let mut config = Config::default();
        config.allow_relaxed.push("flag".into());
        let f = scan_text(
            "crates/core/src/client.rs",
            "pub fn w(s: &S) { s.flag.store(1, Ordering::Release); } \
             pub fn r(s: &S) -> u32 { s.flag.load(Ordering::Relaxed) }",
            &config,
        );
        let (d, _) = evaluate(&f, &config);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn out_of_scope_files_contribute_nothing() {
        let f = scan_text(
            "crates/sim/src/engine.rs",
            "pub fn f(p: &P) { p.available.wait(&mut g); }",
            &Config::default(),
        );
        assert!(f.waits.is_empty());
    }

    #[test]
    fn merge_is_union() {
        let mut a = facts("pub fn f(p: &P) { let mut g = p.free.lock(); p.c.wait(&mut g); }");
        let b = facts("pub fn g(p: &P) { p.c.notify_one(); }");
        let waits = a.waits.len();
        let notifies = b.notifies.len();
        a.merge(b);
        assert_eq!(a.waits.len(), waits);
        assert_eq!(a.notifies.len(), notifies);
    }
}
