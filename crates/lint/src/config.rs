//! Lint configuration, parsed from `lint.toml`.
//!
//! The checked-in `lint.toml` at the workspace root is the one copy of
//! the fast-path entry points and scope snapshot, the global lock
//! order, the blocking-call list and the dataflow scopes.
//! [`Config::default`] is that file, compiled in, so the rule tests and
//! the live engine read the same text; a tree with a `lint.toml` of its
//! own (a fixture tree) gets exactly what its file says, and a key the
//! file lacks is empty.
//!
//! Only the TOML subset the config needs is parsed: `[section]`
//! headers, `key = "string"`, and `key = ["a", "b", ...]` arrays
//! (single- or multi-line). Unknown sections and keys are ignored, so
//! the file can carry commentary for future rules.

use std::collections::HashMap;

/// One lock class: a rank in the global order plus the receiver field
/// names that acquire it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockClass {
    /// Class name as declared in the order (e.g. `calltable`).
    pub name: String,
    /// Identifiers of fields whose `.lock()`/`.read()`/`.write()`
    /// acquire this class (e.g. `entries`, `state`).
    pub receivers: Vec<String>,
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Fast-path entry points as `path::fn` pairs — the roots of the
    /// call-graph reachability walk (Starter, Transporter, demux,
    /// Ender; see docs/LINTS.md).
    pub fast_path_entry_points: Vec<String>,
    /// Snapshot of the computed fast-path file set. `no-panic-on-fast-
    /// path` and `no-alloc-on-fast-path` apply whole-file here; the
    /// `stale-scope` rule flags any drift between this list and the
    /// computed reachability set.
    pub fast_path_files: Vec<String>,
    /// Reachability boundary: calls into these paths are not followed
    /// (lint.toml says why each path is one).
    pub fast_path_stop_files: Vec<String>,
    /// Substrings marking a line as error construction — allocation
    /// there is exempt from `no-alloc-on-fast-path`, because error
    /// paths are off the fast path by definition.
    pub error_markers: Vec<String>,
    /// Lock classes in their global acquisition order.
    pub lock_order: Vec<LockClass>,
    /// Path prefixes where `lock-order` applies (and where lock-graph
    /// edges are recorded).
    pub lock_files: Vec<String>,
    /// Path prefixes where `no-blocking-under-lock` applies.
    pub blocking_files: Vec<String>,
    /// Called identifiers that can block the current thread. `send` is
    /// special-cased in the rule (only `transport.send`/`socket.send`
    /// block; channel sends are unbounded and never do).
    pub blocking_calls: Vec<String>,
    /// Path prefixes where the condvar-protocol rules apply. The
    /// primitive implementations in `crates/sync/src/lib.rs` are
    /// excluded: they *are* the wait/notify machinery.
    pub condvar_files: Vec<String>,
    /// Path prefixes where `atomic-publication` applies.
    pub atomic_files: Vec<String>,
    /// Atomic location identifiers sanctioned to use `Relaxed` where
    /// paired ordering would otherwise be required. Each entry needs a
    /// protocol proof (comment in lint.toml / at the site); hook.rs's
    /// disabled-path `INSTALLED` load is the canonical member.
    pub allow_relaxed: Vec<String>,
    /// Path prefixes where `pool-lifecycle` applies.
    pub pool_files: Vec<String>,
    /// Pool receiver fields (an alloc off one of these is a tracked
    /// buffer definition; retention inside one is accounted).
    pub pool_receivers: Vec<String>,
    /// Method names that allocate a tracked buffer from a pool.
    pub pool_allocs: Vec<String>,
    /// Method names that return a tracked buffer to its pool.
    pub pool_sinks: Vec<String>,
    /// Container receiver fields where retention is accounted (the
    /// pool's own queues, the call table's `Retained` slot, result
    /// delivery): a buffer held there still counts as outstanding in
    /// the pool's own stats.
    pub pool_accounted: Vec<String>,
    /// Type names that move pool ownership across a call boundary when
    /// taken by value — the interprocedural leg of the tracking.
    pub buffer_types: Vec<String>,
}

impl Default for Config {
    /// The workspace's own `lint.toml`.
    fn default() -> Config {
        Config::from_toml(include_str!("../../../lint.toml"))
    }
}

impl Config {
    /// Parses `lint.toml` text. Every field is what the text says; a
    /// key it lacks leaves the field empty.
    pub fn from_toml(text: &str) -> Config {
        let sections = parse_sections(text);
        let get = |section: &str, key: &str| sections.get(section)?.get(key).cloned();
        let list = |section: &str, key: &str| get(section, key).unwrap_or_default();
        let lock_order = list("lock-order", "order")
            .into_iter()
            .map(|name| LockClass {
                receivers: list("lock-order", &name),
                name,
            })
            .collect();
        let lock_files = list("lock-order", "files");
        // The blocking rule rides the lock scope unless it declares its
        // own.
        let blocking_files =
            get("no-blocking-under-lock", "files").unwrap_or_else(|| lock_files.clone());
        Config {
            fast_path_entry_points: list("fast-path", "entry_points"),
            fast_path_files: list("fast-path", "files"),
            fast_path_stop_files: list("fast-path", "stop_files"),
            error_markers: list("no-alloc-on-fast-path", "error_markers"),
            lock_order,
            lock_files,
            blocking_files,
            blocking_calls: list("no-blocking-under-lock", "blocking"),
            condvar_files: list("condvar-protocol", "files"),
            atomic_files: list("atomic-publication", "files"),
            allow_relaxed: list("atomic-publication", "allow_relaxed"),
            pool_files: list("pool-lifecycle", "files"),
            pool_receivers: list("pool-lifecycle", "pools"),
            pool_allocs: list("pool-lifecycle", "allocs"),
            pool_sinks: list("pool-lifecycle", "sinks"),
            pool_accounted: list("pool-lifecycle", "accounted"),
            buffer_types: list("pool-lifecycle", "buffer_types"),
        }
    }

    /// True when `rel_path` falls under any of the given prefixes.
    pub fn path_matches(rel_path: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| {
            rel_path == p || rel_path.starts_with(&format!("{p}/")) || rel_path.starts_with(p)
        })
    }
}

/// `[section] → key → list-of-strings` (a bare string parses as a
/// one-element list).
fn parse_sections(text: &str) -> HashMap<String, HashMap<String, Vec<String>>> {
    let mut sections: HashMap<String, HashMap<String, Vec<String>>> = HashMap::new();
    let mut current = String::new();
    let mut lines = text.lines().peekable();
    while let Some(raw) = lines.next() {
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            current = line.trim_matches(['[', ']']).to_string();
            sections.entry(current.clone()).or_default();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_matches('"').to_string();
        let mut value = value.trim().to_string();
        // Accumulate a multi-line array until the closing bracket.
        if value.starts_with('[') && !value.ends_with(']') {
            for more in lines.by_ref() {
                let more = strip_toml_comment(more).trim().to_string();
                value.push(' ');
                value.push_str(&more);
                if more.ends_with(']') {
                    break;
                }
            }
        }
        let items = parse_value(&value);
        sections.entry(current.clone()).or_default().insert(key, items);
    }
    sections
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `"x"` or `["a", "b"]` into a list of strings.
fn parse_value(value: &str) -> Vec<String> {
    let value = value.trim();
    let inner = if value.starts_with('[') && value.ends_with(']') {
        &value[1..value.len() - 1]
    } else {
        value
    };
    inner
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_workspace_file_covers_the_runtime_modules() {
        let c = Config::default();
        assert!(Config::path_matches(
            "crates/core/src/calltable.rs",
            &c.fast_path_files
        ));
        assert!(Config::path_matches(
            "crates/wire/src/frame.rs",
            &c.fast_path_files
        ));
        assert!(!Config::path_matches(
            "crates/sim/src/engine.rs",
            &c.fast_path_files
        ));
        // The server's hand-off is a channel: `worker_loop` reaches it.
        assert!(Config::path_matches(
            "crates/sync/src/channel.rs",
            &c.fast_path_files
        ));
        // (The lock order itself is held by tests/lint.rs.)
        assert!(c.blocking_calls.iter().any(|b| b == "wait_until"));
        assert!(Config::path_matches(
            "crates/pool/src/lib.rs",
            &c.condvar_files
        ));
        assert!(!Config::path_matches(
            "crates/sync/src/lib.rs",
            &c.condvar_files
        ));
        assert!(Config::path_matches(
            "crates/sync/src/hook.rs",
            &c.atomic_files
        ));
        assert!(c.allow_relaxed.iter().any(|a| a == "INSTALLED"));
        assert!(c.pool_allocs.iter().any(|a| a == "alloc_timeout_from"));
    }

    #[test]
    fn absent_keys_are_empty_and_blocking_follows_the_lock_scope() {
        let toml = r#"
# a comment
[fast-path]
entry_points = ["a/b.rs::run"]
files = [
    "a/b.rs",  # trailing comment
    "c",
]
stop_files = ["d"]

[lock-order]
order = ["alpha", "beta"]
alpha = ["x"]
beta = ["y", "z"]
files = ["src"]
"#;
        let c = Config::from_toml(toml);
        assert_eq!(c.fast_path_entry_points, vec!["a/b.rs::run"]);
        assert_eq!(c.fast_path_files, vec!["a/b.rs", "c"]);
        assert_eq!(c.fast_path_stop_files, vec!["d"]);
        assert_eq!(c.lock_order.len(), 2);
        assert_eq!(c.lock_order[1].name, "beta");
        assert_eq!(c.lock_order[1].receivers, vec!["y", "z"]);
        assert_eq!(c.lock_files, vec!["src"]);
        // Without its own section the blocking scope follows lock-order.
        assert_eq!(c.blocking_files, vec!["src"]);
        // Nothing is inherited from the workspace file.
        assert!(c.error_markers.is_empty());
        assert!(c.blocking_calls.is_empty());
    }

    #[test]
    fn blocking_section_overrides_scope_and_calls() {
        let toml = "[no-blocking-under-lock]\nfiles = [\"x\"]\nblocking = [\"recv\"]\n";
        let c = Config::from_toml(toml);
        assert_eq!(c.blocking_files, vec!["x"]);
        assert_eq!(c.blocking_calls, vec!["recv"]);
    }

    #[test]
    fn dataflow_sections_parse() {
        let toml = r#"
[condvar-protocol]
files = ["src"]

[atomic-publication]
files = ["src"]
allow_relaxed = ["SANCTIONED"]

[pool-lifecycle]
files = ["src"]
pools = ["pool"]
allocs = ["alloc"]
sinks = ["recycle"]
accounted = ["free"]
buffer_types = ["Buf"]
"#;
        let c = Config::from_toml(toml);
        assert_eq!(c.condvar_files, vec!["src"]);
        assert_eq!(c.atomic_files, vec!["src"]);
        assert_eq!(c.allow_relaxed, vec!["SANCTIONED"]);
        assert_eq!(c.pool_files, vec!["src"]);
        assert_eq!(c.pool_receivers, vec!["pool"]);
        assert_eq!(c.pool_allocs, vec!["alloc"]);
        assert_eq!(c.pool_sinks, vec!["recycle"]);
        assert_eq!(c.pool_accounted, vec!["free"]);
        assert_eq!(c.buffer_types, vec!["Buf"]);
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let sections = parse_sections("[s]\nfiles = [\"a#b\"]\n");
        assert_eq!(sections["s"]["files"], vec!["a#b"]);
    }
}
