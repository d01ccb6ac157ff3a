//! Interprocedural def-use dataflow over the body walk's events.
//!
//! The guard-lifetime model in [`crate::scope`] answers "which locks
//! are live *here*". This module answers flow questions that span
//! statements and functions, from the facts the same walk reports
//! (`rules::check_source` turns its events into the sites below):
//!
//! * **condvar protocol** — every `Condvar::wait*` must sit inside a
//!   predicate loop, and every `notify_one`/`notify_all` must be
//!   reachable only after the mutex its waiters re-check was acquired
//!   (the lost-wakeup shape `firefly-check`'s `bug-notify` fixture
//!   catches dynamically). Wait sites establish the condvar→mutex
//!   pairing workspace-wide — the mutex is the receiver of the guard
//!   `let`-bound to the name the wait is handed; notify sites are then
//!   checked against it, following same-file callees one level so
//!   helper-acquire patterns resolve.
//! * **atomic publication** — accesses through the `firefly_sync::
//!   atomic` wrappers (recognized by a literal `Ordering` tag in the
//!   argument list) are grouped by location identifier. A `Relaxed`
//!   store on a location someone acquire-loads, or a `Relaxed` load on
//!   a location someone release-stores — and any `Relaxed` spin-loop
//!   exit — is a publication race waiting for a weaker machine, unless
//!   the location is allowlisted (`[atomic-publication].allow_relaxed`
//!   in lint.toml sanctions hook.rs's disabled-path `INSTALLED` load,
//!   whose proof is the comment at that site).

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::rules::{check_source, name};
use crate::scope::AtomicKind;
use crate::source::SourceFile;
use crate::{Diagnostic, Facts};

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
    /// order, `x[i]` read as `x`), i.e. the state writes this notify
    /// can be downstream of.
    pub acquired_before: BTreeSet<String>,
    /// Function names called before the notify (the walk's call
    /// events: no call of a local) — followed one level (same file) so
    /// a helper that takes the paired mutex counts.
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

fn releasing(tag: &str) -> bool {
    matches!(tag, "Release" | "AcqRel" | "SeqCst")
}

fn acquiring(tag: &str) -> bool {
    matches!(tag, "Acquire" | "AcqRel" | "SeqCst")
}

/// The dataflow facts of one file's per-file pass
/// ([`crate::rules::check_source`]) over `text` at `rel_path`.
pub fn scan_text(rel_path: &str, text: &str, config: &Config) -> DataflowFacts {
    let mut facts = Facts::default();
    check_source(&SourceFile::new(rel_path, text), config, &mut facts);
    facts.dataflow
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
