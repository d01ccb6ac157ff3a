//! Workspace call graph: fn definitions, call sites, and transitive
//! reachability from the paper's fast-path entry points.
//!
//! The fast-path rules (`no-panic-on-fast-path`, `no-alloc-on-fast-path`)
//! used to rely on a hand-maintained file list in `lint.toml`. That list
//! is now a *snapshot* of a computed set: every `fn` definition and the
//! call events of its body walk ([`crate::scope::walk`]) land here,
//! call names resolve to definitions, and reachability is walked from
//! the configured entry points (Starter/Transporter/demux/Ender). The
//! `stale-scope` rule compares the snapshot against the computed set so
//! the two can never drift silently.
//!
//! Name resolution is tiered and conservative:
//!
//! 1. a definition in the **same file** wins (free helpers, methods);
//! 2. else, if every definition of the name lives in **one file**
//!    workspace-wide, that file wins;
//! 3. else, if all definitions live in **one crate**, the call fans out
//!    to every defining file in that crate (e.g. `encode`/`decode`
//!    impls spread across `crates/wire`);
//! 4. otherwise the name is ambiguous (`new`, `send`, `recv`, ...) and
//!    the edge is dropped — reachability must come from a resolvable
//!    path or the entry-point snapshot instead.
//!
//! Before any of that, a bare call of a name the function binds itself
//! — a parameter (`read: impl FnOnce(..)`, then `read(&mut r)`) or a
//! `let` — is a call of that local, not of any definition: the walk
//! reports no call for it, so it makes no edge. (A method call,
//! `x.read()`, or a path, `m::read()`, of the same name still does.)

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::rules::check_source;
use crate::source::SourceFile;
use crate::Facts;

/// Call-site and definition facts extracted from one file.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `name → set of defining files`.
    defs: BTreeMap<String, BTreeSet<String>>,
    /// `(file, caller fn) → called names`.
    calls: BTreeMap<(String, String), BTreeSet<String>>,
}

/// Keywords and control-flow idents that look like calls (`if (`,
/// `matches!`-adjacent) but never name a function definition we care
/// to resolve, plus ubiquitous std/prelude method names. The latter
/// matter because resolution is name-based: `a.min(b)` or
/// `Instant::now()` would otherwise resolve to whichever workspace
/// type happens to define a `min`/`now` of its own and drag its file
/// onto the fast path. Skipping them loses only edges whose *target*
/// shares a name with a std method — and the file-level snapshot plus
/// `stale-scope` keeps such a loss from going unnoticed at review
/// time, since scope changes must be made in lint.toml explicitly.
const NON_CALLEES: &[&str] = &[
    // keywords / constructors
    "if", "match", "while", "for", "loop", "return", "fn", "let", "move", "in", "as", "else",
    "Some", "None", "Ok", "Err", "Box", "Vec", "self", "Self",
    // ubiquitous trait methods (From/Into/Clone/Default/Drop/Ord/...)
    "from", "into", "try_from", "try_into", "clone", "default", "drop", "fmt", "eq", "ne", "cmp",
    "partial_cmp", "hash", "deref", "deref_mut", "as_ref", "as_mut", "borrow", "borrow_mut",
    // ubiquitous std inherent methods
    "new", "with_capacity", "spawn", "min", "max", "clamp", "abs", "now", "elapsed", "len",
    "is_empty", "get", "get_mut", "take",
    "replace", "insert", "remove", "push", "pop", "drain", "clear", "iter", "iter_mut",
    "into_iter", "next", "map", "and_then", "filter", "find", "position", "contains",
    "starts_with", "ends_with", "split", "join", "parse", "collect", "extend", "sort", "sort_by",
    "retain", "to_string", "to_owned", "unwrap_or", "unwrap_or_else", "unwrap_or_default",
    "ok_or", "ok_or_else", "is_some", "is_none", "is_ok", "is_err", "copy_from_slice",
];

impl CallGraph {
    /// Records the definition of `name` in `path` and the calls its
    /// body makes. [`check_source`] records no test function: a test
    /// calling a helper must not pull the helper onto the fast path.
    pub(crate) fn add_fn(&mut self, path: &str, name: &str, callees: BTreeSet<String>) {
        self.defs
            .entry(name.to_string())
            .or_default()
            .insert(path.to_string());
        self.calls
            .entry((path.to_string(), name.to_string()))
            .or_default()
            .extend(callees);
    }

    /// Adds one file's definitions and calls: its per-file pass
    /// ([`check_source`]) run alone.
    pub fn add_file(&mut self, file: &SourceFile) {
        let mut facts = Facts::default();
        check_source(file, &Config::default(), &mut facts);
        self.merge(facts.call_graph);
    }

    /// Merges another (per-file or per-worker) graph into this one.
    /// Set unions are order-insensitive, so parallel accumulation stays
    /// deterministic.
    pub fn merge(&mut self, other: CallGraph) {
        for (name, files) in other.defs {
            self.defs.entry(name).or_default().extend(files);
        }
        for (key, callees) in other.calls {
            self.calls.entry(key).or_default().extend(callees);
        }
    }

    /// The first two path components (`crates/wire`), used for the
    /// unique-crate resolution tier.
    fn crate_of(path: &str) -> String {
        path.split('/').take(2).collect::<Vec<_>>().join("/")
    }

    /// Resolves a called name from `from_file` to defining files.
    fn resolve(&self, from_file: &str, name: &str) -> Vec<String> {
        let Some(files) = self.defs.get(name).filter(|_| !NON_CALLEES.contains(&name)) else {
            return Vec::new();
        };
        if files.contains(from_file) {
            return vec![from_file.to_string()];
        }
        if files.len() == 1 {
            return files.iter().cloned().collect();
        }
        let crates: BTreeSet<String> = files.iter().map(|f| Self::crate_of(f)).collect();
        if crates.len() == 1 {
            return files.iter().cloned().collect();
        }
        Vec::new()
    }

    /// Computes the set of `(file, fn)` pairs reachable from
    /// `entry_points` (given as `path::fn`), never descending into
    /// `stop_files` (prefix-matched, like every other path list).
    pub fn reachable(
        &self,
        entry_points: &[String],
        stop_files: &[String],
    ) -> BTreeSet<(String, String)> {
        let stopped = |path: &str| crate::config::Config::path_matches(path, stop_files);
        let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
        let mut work: Vec<(String, String)> = Vec::new();
        for ep in entry_points {
            let Some((path, name)) = ep.rsplit_once("::") else {
                continue;
            };
            // Entry points must actually exist; missing ones surface via
            // stale-scope (the snapshot lists a file nothing reaches).
            if self
                .calls
                .contains_key(&(path.to_string(), name.to_string()))
            {
                work.push((path.to_string(), name.to_string()));
            }
        }
        while let Some(item) = work.pop() {
            if stopped(&item.0) || !seen.insert(item.clone()) {
                continue;
            }
            let Some(callees) = self.calls.get(&item) else {
                continue;
            };
            for callee in callees {
                for file in self.resolve(&item.0, callee) {
                    if !stopped(&file) {
                        work.push((file, callee.clone()));
                    }
                }
            }
        }
        seen
    }

    /// The files containing at least one reachable function.
    pub fn reachable_files(reachable: &BTreeSet<(String, String)>) -> BTreeSet<String> {
        reachable.iter().map(|(f, _)| f.clone()).collect()
    }

    /// True when any entry point resolved — used to skip `stale-scope`
    /// on fixture trees that configure no entry points.
    pub fn has_entry(&self, entry_points: &[String]) -> bool {
        entry_points.iter().any(|ep| {
            ep.rsplit_once("::").is_some_and(|(path, name)| {
                self.calls
                    .contains_key(&(path.to_string(), name.to_string()))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let mut g = CallGraph::default();
        for (path, src) in files {
            g.add_file(&SourceFile::new(path, src));
        }
        g
    }

    #[test]
    fn same_file_resolution_wins() {
        let g = graph(&[
            ("crates/a/src/x.rs", "fn entry() { helper(); } fn helper() {}"),
            ("crates/b/src/y.rs", "fn helper() { forbidden(); } fn forbidden() {}"),
        ]);
        let r = g.reachable(&["crates/a/src/x.rs::entry".into()], &[]);
        assert!(r.contains(&("crates/a/src/x.rs".into(), "helper".into())));
        assert!(!r.iter().any(|(f, _)| f == "crates/b/src/y.rs"));
    }

    #[test]
    fn unique_file_resolution_crosses_crates() {
        let g = graph(&[
            ("crates/a/src/x.rs", "fn entry() { helper(); }"),
            ("crates/b/src/y.rs", "fn helper() { deep(); } fn deep() {}"),
        ]);
        let r = g.reachable(&["crates/a/src/x.rs::entry".into()], &[]);
        assert!(r.contains(&("crates/b/src/y.rs".into(), "helper".into())));
        assert!(r.contains(&("crates/b/src/y.rs".into(), "deep".into())));
    }

    #[test]
    fn single_crate_ambiguity_fans_out_multi_crate_stops() {
        let g = graph(&[
            ("crates/a/src/x.rs", "fn entry() { encode(); spawn(); }"),
            ("crates/w/src/m.rs", "fn encode() {}"),
            ("crates/w/src/n.rs", "fn encode() {}"),
            ("crates/p/src/q.rs", "fn spawn() {}"),
            ("crates/r/src/s.rs", "fn spawn() {}"),
        ]);
        let r = g.reachable(&["crates/a/src/x.rs::entry".into()], &[]);
        let files = CallGraph::reachable_files(&r);
        assert!(files.contains("crates/w/src/m.rs"));
        assert!(files.contains("crates/w/src/n.rs"));
        assert!(!files.contains("crates/p/src/q.rs"), "{files:?}");
        assert!(!files.contains("crates/r/src/s.rs"));
    }

    #[test]
    fn stop_files_bound_the_walk() {
        let g = graph(&[
            ("crates/a/src/x.rs", "fn entry() { marshal(); }"),
            ("crates/idl/src/m.rs", "fn marshal() { alloc_lots(); } fn alloc_lots() {}"),
        ]);
        let r = g.reachable(
            &["crates/a/src/x.rs::entry".into()],
            &["crates/idl/src".into()],
        );
        assert!(!r.iter().any(|(f, _)| f.starts_with("crates/idl")));
    }

    #[test]
    fn a_call_of_a_parameter_or_let_binding_makes_no_edge() {
        let g = graph(&[
            (
                "crates/a/src/x.rs",
                "fn entry(read: impl Fn(u8)) { read(1); let send = |b| b; send(2); r.write(3); }",
            ),
            ("crates/b/src/y.rs", "fn read() {} fn send() {} fn write() {}"),
        ]);
        let r = g.reachable(&["crates/a/src/x.rs::entry".into()], &[]);
        assert!(!r.contains(&("crates/b/src/y.rs".into(), "read".into())), "{r:?}");
        assert!(!r.contains(&("crates/b/src/y.rs".into(), "send".into())), "{r:?}");
        // A method call of a name that is no local still resolves.
        assert!(r.contains(&("crates/b/src/y.rs".into(), "write".into())), "{r:?}");
    }

    #[test]
    fn test_code_does_not_extend_the_fast_path() {
        let g = graph(&[(
            "crates/a/src/x.rs",
            "fn entry() {}\n#[cfg(test)]\nmod tests { fn entry() { helper(); } }\nfn helper() {}",
        )]);
        let r = g.reachable(&["crates/a/src/x.rs::entry".into()], &[]);
        assert!(!r.contains(&("crates/a/src/x.rs".into(), "helper".into())));
    }
}
