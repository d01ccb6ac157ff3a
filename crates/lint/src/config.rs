//! Lint configuration: compiled-in defaults plus a `lint.toml` overlay.
//!
//! The checked-in `lint.toml` at the workspace root is the source of
//! truth for the fast-path entry points and scope snapshot, the global
//! lock order, the blocking-call list, and the banned dependency list.
//! The compiled-in defaults are kept identical so the engine still runs
//! sensibly if the file is absent (e.g. when linting a fixture tree in
//! tests).
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
    /// Parametric classes are arrays of same-class locks acquired via
    /// an index (`shards[i].lock()`). Instances must be acquired in
    /// ascending index order; each constant index becomes its own
    /// `class[N]` node in the lock graph.
    pub parametric: bool,
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
    /// (the IDL marshalling engine allocates by design and is measured
    /// as its own step in the latency account).
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
    /// Banned registry crates for `hermetic-deps`.
    pub banned_deps: Vec<String>,
    /// Path prefixes where the condvar-protocol rules apply. The
    /// primitive implementations in `crates/sync/src/lib.rs` are
    /// excluded: they *are* the wait/notify machinery.
    pub condvar_files: Vec<String>,
    /// Path prefixes where `atomic-publication` applies.
    pub atomic_files: Vec<String>,
    /// Atomic location identifiers sanctioned to use `Relaxed` where
    /// paired ordering would otherwise be required. Each entry needs a
    /// protocol proof (comment in lint.toml / SAFETY comment at the
    /// site); hook.rs's disabled-path `INSTALLED` load is the canonical
    /// member.
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
    /// delivery): the checker's outstanding accounting covers them.
    pub pool_accounted: Vec<String>,
    /// Type names that move pool ownership across a call boundary when
    /// taken by value — the interprocedural leg of the tracking.
    pub buffer_types: Vec<String>,
    /// Maps dynamic publication labels (checked_atomic labels observed
    /// by firefly-check) to the static location identifiers that
    /// implement them, for the publication gate (`firefly-check verify`).
    pub publication_labels: Vec<(String, Vec<String>)>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            fast_path_entry_points: vec![
                "crates/core/src/client.rs::call_inner".into(),
                "crates/core/src/client.rs::transact".into(),
                "crates/core/src/local.rs::call_with".into(),
                "crates/core/src/endpoint.rs::demux_loop".into(),
                "crates/core/src/calltable.rs::deliver".into(),
                "crates/core/src/calltable.rs::deliver_from".into(),
                "crates/core/src/calltable.rs::wait".into(),
                "crates/core/src/server.rs::handle_call_packet".into(),
                "crates/core/src/server.rs::handle_probe".into(),
                "crates/core/src/server.rs::handle_result_ack".into(),
                "crates/core/src/server.rs::worker_loop".into(),
                "crates/core/src/transport.rs::send".into(),
                "crates/core/src/transport.rs::recv".into(),
                "crates/idl/src/writer.rs::next_bytes".into(),
                "crates/idl/src/writer.rs::next_value".into(),
                "crates/idl/src/writer.rs::next_with".into(),
            ],
            fast_path_files: vec![
                "crates/core/src/auth.rs".into(),
                "crates/core/src/client.rs".into(),
                "crates/core/src/server.rs".into(),
                "crates/core/src/transport.rs".into(),
                "crates/core/src/send.rs".into(),
                "crates/core/src/packet.rs".into(),
                "crates/core/src/fragment.rs".into(),
                "crates/core/src/local.rs".into(),
                "crates/core/src/calltable.rs".into(),
                "crates/core/src/endpoint.rs".into(),
                "crates/core/src/role.rs".into(),
                "crates/core/src/shard.rs".into(),
                "crates/core/src/trace.rs".into(),
                "crates/core/src/stats.rs".into(),
                "crates/core/src/witness.rs".into(),
                "crates/pool/src/lib.rs".into(),
                "crates/sync/src/lib.rs".into(),
                "crates/sync/src/hook.rs".into(),
                "crates/sync/src/atomic.rs".into(),
                "crates/rng/src/lib.rs".into(),
                "crates/wire/src".into(),
                "crates/idl/src/codec.rs".into(),
                "crates/idl/src/engine.rs".into(),
                "crates/idl/src/writer.rs".into(),
                "crates/idl/src/interface.rs".into(),
                "crates/idl/src/plan.rs".into(),
                "crates/idl/src/value.rs".into(),
            ],
            fast_path_stop_files: vec![
                "crates/idl/src/lexer.rs".into(),
                "crates/idl/src/parser.rs".into(),
                "crates/idl/src/codegen.rs".into(),
                "crates/idl/src/interp.rs".into(),
                "crates/check/src".into(),
                "crates/metrics/src".into(),
            ],
            error_markers: vec![
                "Err(".into(),
                "RpcError::".into(),
                "WireError::".into(),
                "IdlError::".into(),
                "PoolError::".into(),
                "map_err".into(),
                "ok_or_else".into(),
            ],
            lock_order: vec![
                LockClass {
                    name: "calltable".into(),
                    receivers: vec![
                        "entries".into(),
                        "state".into(),
                        "activities".into(),
                        "calls".into(),
                    ],
                    parametric: false,
                },
                LockClass {
                    name: "shard".into(),
                    receivers: vec!["shards".into()],
                    parametric: true,
                },
                LockClass {
                    name: "pool".into(),
                    receivers: vec!["slabs".into()],
                    parametric: false,
                },
                LockClass {
                    name: "stats".into(),
                    receivers: vec![
                        "stats".into(),
                        "frames_sent".into(),
                        "frames_dropped".into(),
                    ],
                    parametric: false,
                },
                LockClass {
                    name: "trace".into(),
                    receivers: vec!["ring".into()],
                    parametric: false,
                },
            ],
            lock_files: vec!["crates/core/src".into(), "crates/pool/src".into()],
            blocking_files: vec!["crates/core/src".into(), "crates/pool/src".into()],
            blocking_calls: vec![
                "recv".into(),
                "recv_from".into(),
                "wait".into(),
                "wait_until".into(),
                "wait_timeout".into(),
                "park".into(),
                "test_sleep".into(),
                "send_to".into(),
                "send_built".into(),
                "send_ack".into(),
                "join".into(),
            ],
            banned_deps: vec![
                "parking_lot".into(),
                "crossbeam".into(),
                "crossbeam-channel".into(),
                "rand".into(),
                "rand_core".into(),
                "proptest".into(),
                "criterion".into(),
            ],
            condvar_files: vec![
                "crates/core/src".into(),
                "crates/pool/src".into(),
                "crates/sync/src/channel.rs".into(),
            ],
            atomic_files: vec![
                "crates/core/src".into(),
                "crates/sync/src".into(),
                "crates/pool/src".into(),
            ],
            allow_relaxed: vec!["INSTALLED".into()],
            pool_files: vec!["crates/core/src".into(), "crates/pool/src".into()],
            pool_receivers: vec!["pool".into()],
            pool_allocs: vec![
                "alloc".into(),
                "alloc_timeout".into(),
                "alloc_from".into(),
                "alloc_timeout_from".into(),
                "take_receive_buffer".into(),
                "take_receive_buffer_from".into(),
            ],
            pool_sinks: vec![
                "recycle".into(),
                "recycle_to_receive_queue".into(),
                "return_slab".into(),
                "into_buf".into(),
            ],
            pool_accounted: vec![
                "free".into(),
                "receive_queue".into(),
                "retained".into(),
                "results".into(),
            ],
            buffer_types: vec!["PacketBuf".into()],
            publication_labels: vec![("installed".into(), vec!["INSTALLED".into()])],
        }
    }
}

impl Config {
    /// Parses a `lint.toml` overlay on top of the defaults. Keys that
    /// are present replace the corresponding default wholesale.
    pub fn from_toml(text: &str) -> Config {
        let mut config = Config::default();
        let sections = parse_sections(text);
        if let Some(s) = sections.get("fast-path") {
            if let Some(v) = s.get("entry_points") {
                config.fast_path_entry_points = v.clone();
            }
            if let Some(v) = s.get("files") {
                config.fast_path_files = v.clone();
            }
            if let Some(v) = s.get("stop_files") {
                config.fast_path_stop_files = v.clone();
            }
        }
        if let Some(s) = sections.get("no-alloc-on-fast-path") {
            if let Some(v) = s.get("error_markers") {
                config.error_markers = v.clone();
            }
        }
        if let Some(s) = sections.get("lock-order") {
            if let Some(order) = s.get("order") {
                let parametric = s.get("parametric").cloned().unwrap_or_default();
                config.lock_order = order
                    .iter()
                    .map(|name| LockClass {
                        name: name.clone(),
                        receivers: s.get(name.as_str()).cloned().unwrap_or_default(),
                        parametric: parametric.iter().any(|p| p == name),
                    })
                    .collect();
            }
            if let Some(v) = s.get("files") {
                config.lock_files = v.clone();
                // The blocking rule rides the lock scope unless it
                // declares its own.
                config.blocking_files = v.clone();
            }
        }
        if let Some(s) = sections.get("no-blocking-under-lock") {
            if let Some(v) = s.get("files") {
                config.blocking_files = v.clone();
            }
            if let Some(v) = s.get("blocking") {
                config.blocking_calls = v.clone();
            }
        }
        if let Some(s) = sections.get("hermetic-deps") {
            if let Some(v) = s.get("banned") {
                config.banned_deps = v.clone();
            }
        }
        if let Some(s) = sections.get("condvar-protocol") {
            if let Some(v) = s.get("files") {
                config.condvar_files = v.clone();
            }
        }
        if let Some(s) = sections.get("atomic-publication") {
            if let Some(v) = s.get("files") {
                config.atomic_files = v.clone();
            }
            if let Some(v) = s.get("allow_relaxed") {
                config.allow_relaxed = v.clone();
            }
        }
        if let Some(s) = sections.get("pool-lifecycle") {
            if let Some(v) = s.get("files") {
                config.pool_files = v.clone();
            }
            if let Some(v) = s.get("pools") {
                config.pool_receivers = v.clone();
            }
            if let Some(v) = s.get("allocs") {
                config.pool_allocs = v.clone();
            }
            if let Some(v) = s.get("sinks") {
                config.pool_sinks = v.clone();
            }
            if let Some(v) = s.get("accounted") {
                config.pool_accounted = v.clone();
            }
            if let Some(v) = s.get("buffer_types") {
                config.buffer_types = v.clone();
            }
        }
        if let Some(s) = sections.get("publication-labels") {
            if !s.is_empty() {
                let mut labels: Vec<(String, Vec<String>)> = s
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                labels.sort();
                config.publication_labels = labels;
            }
        }
        config
    }

    /// True when `rel_path` falls under any of the given prefixes.
    pub fn path_matches(rel_path: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| {
            rel_path == p || rel_path.starts_with(&format!("{p}/")) || rel_path.starts_with(p)
        })
    }
}

/// `[section] → key → list-of-strings` (a bare string parses as a
/// one-element list). Shared with the protocol-conformance pass, whose
/// `protocol.toml` uses the same TOML subset.
pub(crate) fn parse_sections(text: &str) -> HashMap<String, HashMap<String, Vec<String>>> {
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
    fn defaults_cover_the_fast_path_modules() {
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
        // channel.rs is deliberately outside the fast path (the demux
        // hand-off never blocks on an unbounded channel's send side,
        // and its recv runs on worker threads).
        assert!(!Config::path_matches(
            "crates/sync/src/channel.rs",
            &c.fast_path_files
        ));
        assert_eq!(c.lock_order.len(), 5);
        assert_eq!(c.lock_order[0].name, "calltable");
        assert_eq!(c.lock_order[4].name, "trace");
        // Exactly one parametric class, ranked right after calltable.
        let parametric: Vec<&str> = c
            .lock_order
            .iter()
            .filter(|cls| cls.parametric)
            .map(|cls| cls.name.as_str())
            .collect();
        assert_eq!(parametric, vec!["shard"]);
        assert_eq!(c.lock_order[1].name, "shard");
        assert!(c.blocking_calls.iter().any(|b| b == "wait_until"));
    }

    #[test]
    fn toml_overlay_replaces_lists() {
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
parametric = ["beta"]
alpha = ["x"]
beta = ["y", "z"]
files = ["src"]

[hermetic-deps]
banned = ["tokio"]
"#;
        let c = Config::from_toml(toml);
        assert_eq!(c.fast_path_entry_points, vec!["a/b.rs::run"]);
        assert_eq!(c.fast_path_files, vec!["a/b.rs", "c"]);
        assert_eq!(c.fast_path_stop_files, vec!["d"]);
        assert_eq!(c.lock_order.len(), 2);
        assert_eq!(c.lock_order[1].name, "beta");
        assert_eq!(c.lock_order[1].receivers, vec!["y", "z"]);
        assert!(!c.lock_order[0].parametric);
        assert!(c.lock_order[1].parametric);
        assert_eq!(c.lock_files, vec!["src"]);
        // Without its own section the blocking scope follows lock-order.
        assert_eq!(c.blocking_files, vec!["src"]);
        assert_eq!(c.banned_deps, vec!["tokio"]);
        // Untouched sections keep their defaults.
        assert!(!c.error_markers.is_empty());
        assert!(!c.blocking_calls.is_empty());
    }

    #[test]
    fn blocking_section_overrides_scope_and_calls() {
        let toml = "[no-blocking-under-lock]\nfiles = [\"x\"]\nblocking = [\"recv\"]\n";
        let c = Config::from_toml(toml);
        assert_eq!(c.blocking_files, vec!["x"]);
        assert_eq!(c.blocking_calls, vec!["recv"]);
    }

    #[test]
    fn dataflow_sections_overlay_the_defaults() {
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

[publication-labels]
installed = ["INSTALLED"]
gate = ["GATE_WORD"]
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
        assert_eq!(
            c.publication_labels,
            vec![
                ("gate".to_string(), vec!["GATE_WORD".to_string()]),
                ("installed".to_string(), vec!["INSTALLED".to_string()]),
            ]
        );
    }

    #[test]
    fn dataflow_defaults_cover_the_runtime_modules() {
        let c = Config::default();
        assert!(Config::path_matches("crates/pool/src/lib.rs", &c.condvar_files));
        assert!(!Config::path_matches("crates/sync/src/lib.rs", &c.condvar_files));
        assert!(Config::path_matches("crates/sync/src/hook.rs", &c.atomic_files));
        assert!(c.allow_relaxed.iter().any(|a| a == "INSTALLED"));
        assert!(c.pool_allocs.iter().any(|a| a == "alloc_timeout_from"));
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let toml = "[s]\nfiles = [\"a#b\"]\n";
        let c = Config::from_toml(toml);
        // Section `s` is unknown; just proving the parser didn't choke.
        assert!(!c.fast_path_files.is_empty());
        let sections = parse_sections(toml);
        assert_eq!(sections["s"]["files"], vec!["a#b"]);
    }
}
