//! Lint configuration, parsed from `lint.toml`.
//!
//! The checked-in `lint.toml` at the workspace root is the one copy of
//! the fast-path entry points and scope snapshot, the guard rules'
//! scope and blocking-call list, and the dataflow scopes.
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

/// Full engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Path prefixes where the guard rules (`nested-lock`,
    /// `no-blocking-under-lock`) apply.
    pub guard_files: Vec<String>,
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
        let list = |section: &str, key: &str| {
            sections.get(section).and_then(|s| s.get(key)).cloned().unwrap_or_default()
        };
        Config {
            fast_path_entry_points: list("fast-path", "entry_points"),
            fast_path_files: list("fast-path", "files"),
            fast_path_stop_files: list("fast-path", "stop_files"),
            error_markers: list("no-alloc-on-fast-path", "error_markers"),
            guard_files: list("no-blocking-under-lock", "files"),
            blocking_calls: list("no-blocking-under-lock", "blocking"),
            condvar_files: list("condvar-protocol", "files"),
            atomic_files: list("atomic-publication", "files"),
            allow_relaxed: list("atomic-publication", "allow_relaxed"),
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
        assert!(Config::path_matches(
            "crates/sync/src/channel.rs",
            &c.guard_files
        ));
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
    }

    /// Every `[section]` of the workspace file feeds the config:
    /// without it, `from_toml` returns something else. A section no
    /// field reads would be ignored silently, however wrong it is.
    #[test]
    fn every_workspace_section_is_read() {
        let text = include_str!("../../../lint.toml");
        let lines: Vec<&str> = text.lines().collect();
        let is_header = |line: &str| {
            let line = strip_toml_comment(line).trim();
            line.starts_with('[') && line.ends_with(']')
        };
        let headers: Vec<usize> = (0..lines.len()).filter(|&i| is_header(lines[i])).collect();
        assert!(!headers.is_empty(), "lint.toml has no sections");
        let whole = Config::from_toml(text);
        for (k, &start) in headers.iter().enumerate() {
            let end = headers.get(k + 1).copied().unwrap_or(lines.len());
            let without = [&lines[..start], &lines[end..]].concat().join("\n");
            assert_ne!(
                Config::from_toml(&without),
                whole,
                "lint.toml section {} is read by no Config field",
                lines[start].trim()
            );
        }
    }

    #[test]
    fn absent_keys_are_empty() {
        let toml = r#"
# a comment
[fast-path]
entry_points = ["a/b.rs::run"]
files = [
    "a/b.rs",  # trailing comment
    "c",
]
stop_files = ["d"]
"#;
        let c = Config::from_toml(toml);
        assert_eq!(c.fast_path_entry_points, vec!["a/b.rs::run"]);
        assert_eq!(c.fast_path_files, vec!["a/b.rs", "c"]);
        assert_eq!(c.fast_path_stop_files, vec!["d"]);
        // Nothing is inherited from the workspace file.
        assert!(c.guard_files.is_empty());
        assert!(c.error_markers.is_empty());
        assert!(c.blocking_calls.is_empty());
    }

    #[test]
    fn the_blocking_section_scopes_both_guard_rules() {
        let toml = "[no-blocking-under-lock]\nfiles = [\"x\"]\nblocking = [\"recv\"]\n";
        let c = Config::from_toml(toml);
        assert_eq!(c.guard_files, vec!["x"]);
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
"#;
        let c = Config::from_toml(toml);
        assert_eq!(c.condvar_files, vec!["src"]);
        assert_eq!(c.atomic_files, vec!["src"]);
        assert_eq!(c.allow_relaxed, vec!["SANCTIONED"]);
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let sections = parse_sections("[s]\nfiles = [\"a#b\"]\n");
        assert_eq!(sections["s"]["files"], vec!["a#b"]);
    }
}
