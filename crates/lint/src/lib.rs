//! firefly-lint: in-tree static analysis for the Firefly RPC workspace.
//!
//! The paper's performance argument rests on invariants the compiler
//! cannot check: the packet fast path never allocates or panics, locks
//! are taken in one global order, and the build depends on nothing
//! outside the tree. This crate enforces them with a lightweight
//! comment- and string-aware tokenizer — no rustc internals, no
//! external parser, std only.
//!
//! Rules (see docs/LINTS.md for the full rationale):
//! - `no-panic-on-fast-path` / `no-alloc-on-fast-path` — scoped by the
//!   computed fast-path reachability set (see [`callgraph`])
//! - `lock-order` — guard-lifetime aware (see [`scope`])
//! - `lock-cycle` — cycles in the workspace lock graph ([`lockgraph`])
//! - `no-blocking-under-lock`
//! - `stale-scope` — lint.toml's fast-path snapshot vs the computed set
//! - `no-sleep-in-lib`
//! - `safety-comment`
//! - `hermetic-deps`
//! - `condvar-wait-loop` / `condvar-notify-write` — the condvar
//!   protocol, from the interprocedural dataflow pass ([`dataflow`])
//! - `atomic-publication` — release/acquire pairing for cross-thread
//!   atomics ([`dataflow`])
//! - `pool-lifecycle` — every pool alloc reaches a sink, a return, or
//!   accounted retention ([`dataflow`])
//!
//! Suppression: `// lint:allow(<rule>): <justification>` on the same
//! line or the line above, `// lint:allow-file(<rule>): <reason>` for a
//! whole file. An allow without a justification is itself reported
//! (`unjustified-allow`).

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod config;
pub mod dataflow;
pub mod lockgraph;
pub mod protocol;
pub mod rules;
pub mod scope;
pub mod source;
pub mod tokenizer;

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use callgraph::CallGraph;
use config::Config;
use lockgraph::{LockEdge, LockGraph};
use source::SourceFile;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name (one of [`rules::name`]).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Def-use witness chain (`path:line` hops) for dataflow rules:
    /// the sites that together make the finding (definition → use,
    /// write → read, wait → notify). Empty for single-site rules.
    pub witness: Vec<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// One `lint:allow` site, exported in the `--json` suppression
/// inventory so CI can audit the exemption surface over time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuppressionInfo {
    pub rule: String,
    pub path: String,
    pub line: usize,
    pub file_wide: bool,
    pub justified: bool,
}

/// A parsed `lint:allow` marker.
struct Allow {
    rule: String,
    /// Line the marker itself is on.
    line: usize,
    /// Line the marker covers: its own line, plus the first code line
    /// after the comment block it belongs to (a justification may span
    /// several comment lines before reaching the code it exempts).
    covered: usize,
    file_wide: bool,
    justified: bool,
}

/// Cross-file facts accumulated while walking the workspace, consumed
/// by the workspace-level rules after every file has been seen.
#[derive(Default)]
pub struct Facts {
    /// Observed nested lock acquisitions.
    pub lock_graph: LockGraph,
    /// Fn definitions and call sites.
    pub call_graph: CallGraph,
    /// Def-use sites for the dataflow rule families.
    pub dataflow: dataflow::DataflowFacts,
    /// Packet-protocol facts for the conformance rules.
    pub protocol: protocol::ProtocolFacts,
}

impl Facts {
    /// Merges another (per-file or per-worker) accumulation into this
    /// one; all underlying structures union deterministically.
    pub fn merge(&mut self, other: Facts) {
        self.lock_graph.merge(other.lock_graph);
        self.call_graph.merge(other.call_graph);
        self.dataflow.merge(other.dataflow);
        self.protocol.merge(other.protocol);
    }
}

/// The result of a full workspace analysis: diagnostics plus the
/// computed fast-path reachability and the typed facts the
/// `firefly-check verify` gates read.
pub struct Analysis {
    /// All surviving diagnostics, sorted by (path, line).
    pub diagnostics: Vec<Diagnostic>,
    /// `(file, fn)` pairs reachable from the fast-path entry points.
    pub fast_path_functions: Vec<(String, String)>,
    /// Files containing at least one reachable function.
    pub fast_path_files: Vec<String>,
    /// Every recorded lock-graph edge.
    pub lock_edges: Vec<LockEdge>,
    /// Aggregated dataflow facts (condvar pairings, atomic location
    /// summaries, pool counts) for `--summary` and the static↔dynamic
    /// publication gate.
    pub dataflow: dataflow::Summary,
    /// Every `lint:allow` marker in the workspace.
    pub suppressions: Vec<SuppressionInfo>,
    /// Wall-clock per analysis stage, microseconds, in execution order.
    /// Stage names match rule families where one stage implements one
    /// family (`locking`, `fast-path`, `dataflow`,
    /// `protocol-conformance`).
    pub timings: Vec<(String, u128)>,
}

/// The rule engine: configuration plus the workspace walker.
pub struct Engine {
    pub config: Config,
    /// The packet-protocol spec, when the root has a `protocol.toml`.
    /// Without it the protocol-conformance rules are inert.
    pub protocol: Option<protocol::ProtocolSpec>,
}

impl Engine {
    /// An engine with the given configuration and no protocol spec.
    pub fn new(config: Config) -> Engine {
        Engine {
            config,
            protocol: None,
        }
    }

    /// An engine configured from `<root>/lint.toml` and
    /// `<root>/protocol.toml` when present, compiled-in defaults (and
    /// no protocol spec) otherwise.
    pub fn for_root(root: &Path) -> Engine {
        let config = match fs::read_to_string(root.join("lint.toml")) {
            Ok(text) => Config::from_toml(&text),
            Err(_) => Config::default(),
        };
        let protocol = fs::read_to_string(root.join("protocol.toml"))
            .ok()
            .map(|text| protocol::ProtocolSpec::from_toml(&text));
        Engine {
            config,
            protocol,
        }
    }

    /// Lints one Rust source file given its workspace-relative path.
    /// Workspace-level rules (`lock-cycle`, `stale-scope`) need the
    /// whole tree and only run in [`Engine::analyze`].
    pub fn check_source_text(&self, rel_path: &str, text: &str) -> Vec<Diagnostic> {
        let mut facts = Facts::default();
        let (mut diags, allows) = self.check_one(rel_path, text, &mut facts);
        // The dataflow families evaluate over whatever this one file
        // contributed (full workspace pairing happens in `analyze`).
        let (df_diags, _) = dataflow::evaluate(&facts.dataflow, &self.config);
        diags.extend(df_diags.into_iter().filter(|d| !is_suppressed(d, &allows)));
        diags.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
        diags
    }

    /// Per-file pass: parse, run rules (feeding `facts`), apply
    /// suppressions, report unjustified allows. Returns the surviving
    /// diagnostics and the file's allows (the workspace pass applies
    /// them to diagnostics it anchors in this file later).
    fn check_one(&self, rel_path: &str, text: &str, facts: &mut Facts) -> (Vec<Diagnostic>, Vec<Allow>) {
        let file = SourceFile::new(rel_path, text);
        let allows = collect_allows(&file);
        let mut out: Vec<Diagnostic> = rules::check_source(&file, &self.config, facts)
            .into_iter()
            .filter(|d| !is_suppressed(d, &allows))
            .collect();
        if let Some(spec) = &self.protocol {
            protocol::scan_file(&file, spec, &mut facts.protocol);
        }
        for allow in &allows {
            if !allow.justified {
                out.push(file.diagnostic(
                    rules::name::UNJUSTIFIED_ALLOW,
                    allow.line,
                    format!(
                        "`lint:allow({})` without a justification; write \
                         `// lint:allow({}): <why this site is exempt>`",
                        allow.rule, allow.rule
                    ),
                ));
            }
        }
        (out, allows)
    }

    /// Lints one `Cargo.toml` given its workspace-relative path.
    pub fn check_manifest_text(&self, rel_path: &str, text: &str) -> Vec<Diagnostic> {
        rules::check_manifest(rel_path, text, &self.config)
    }

    /// Walks the workspace at `root` and lints every `.rs` file and
    /// every `Cargo.toml`. Skips `target/`, VCS metadata, and lint
    /// test fixtures (which contain violations on purpose). Returns
    /// just the diagnostics; [`Engine::analyze`] also exposes the
    /// computed fast-path set and lock graph.
    pub fn run(&self, root: &Path) -> io::Result<Vec<Diagnostic>> {
        Ok(self.analyze(root)?.diagnostics)
    }

    /// Full two-pass analysis: the per-file rules (pass 1, which also
    /// accumulates the call graph and lock graph), then the
    /// workspace-level rules over the accumulated facts (pass 2).
    pub fn analyze(&self, root: &Path) -> io::Result<Analysis> {
        let mut diags = Vec::new();
        let mut facts = Facts::default();
        let mut timings: Vec<(String, u128)> = Vec::new();
        let mut stage_start = std::time::Instant::now();
        let mut stamp = |timings: &mut Vec<(String, u128)>, name: &str| {
            timings.push((name.to_string(), stage_start.elapsed().as_micros()));
            stage_start = std::time::Instant::now();
        };
        // Walk first (sequential, sorted): collect source texts so the
        // per-file pass can fan out across workers below.
        let mut rs_files: Vec<(String, String)> = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let mut entries: Vec<_> = fs::read_dir(&dir)?
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .map(|e| e.path())
                .collect();
            entries.sort();
            for path in entries {
                let file_name = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or_default()
                    .to_string();
                if path.is_dir() {
                    if matches!(file_name.as_str(), "target" | ".git" | "fixtures") {
                        continue;
                    }
                    stack.push(path);
                    continue;
                }
                let rel = rel_path(root, &path);
                if file_name == "Cargo.toml" {
                    let text = fs::read_to_string(&path)?;
                    diags.extend(self.check_manifest_text(&rel, &text));
                } else if file_name.ends_with(".rs") {
                    rs_files.push((rel, fs::read_to_string(&path)?));
                }
            }
        }
        stamp(&mut timings, "walk");
        // Per-file pass, parallel across workers. Each slot is owned by
        // exactly one worker; folding the slots back in file-index order
        // keeps the report (and every derived fact) deterministic
        // regardless of scheduling.
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
            .clamp(1, rs_files.len().max(1));
        let chunk = rs_files.len().div_ceil(workers).max(1);
        let mut slots: Vec<Option<(Vec<Diagnostic>, Vec<Allow>, Facts)>> =
            rs_files.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            for (file_chunk, slot_chunk) in rs_files.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for ((rel, text), slot) in file_chunk.iter().zip(slot_chunk.iter_mut()) {
                        let mut file_facts = Facts::default();
                        let (file_diags, allows) = self.check_one(rel, text, &mut file_facts);
                        *slot = Some((file_diags, allows, file_facts));
                    }
                });
            }
        });
        // Allows per file, for suppressing workspace-pass diagnostics
        // anchored in that file.
        let mut allows_by_path: Vec<(String, Vec<Allow>)> = Vec::new();
        for ((rel, _), slot) in rs_files.iter().zip(slots) {
            let Some((file_diags, allows, file_facts)) = slot else {
                continue;
            };
            diags.extend(file_diags);
            allows_by_path.push((rel.clone(), allows));
            facts.merge(file_facts);
        }
        stamp(&mut timings, "per-file");
        let suppressed = |d: &Diagnostic| {
            allows_by_path
                .iter()
                .find(|(p, _)| *p == d.path)
                .is_some_and(|(_, allows)| is_suppressed(d, allows))
        };

        // Workspace rule: lock-cycle.
        for cycle in facts.lock_graph.cycles() {
            let d = Diagnostic {
                rule: rules::name::LOCK_CYCLE,
                path: cycle.at.path.clone(),
                line: cycle.at.line,
                message: format!(
                    "lock acquisition cycle {} — two threads interleaving these \
                     paths can deadlock; pick one order and declare it in \
                     lint.toml [lock-order]",
                    cycle.nodes.join(" → ")
                ),
                witness: Vec::new(),
            };
            if !suppressed(&d) {
                diags.push(d);
            }
        }

        stamp(&mut timings, "locking");

        // Workspace rule: stale-scope (skipped when no entry point
        // resolves, e.g. on fixture trees that configure none).
        let reachable = facts.call_graph.reachable(
            &self.config.fast_path_entry_points,
            &self.config.fast_path_stop_files,
        );
        let computed_files = CallGraph::reachable_files(&reachable);
        if facts.call_graph.has_entry(&self.config.fast_path_entry_points) {
            for file in &computed_files {
                if !Config::path_matches(file, &self.config.fast_path_files) {
                    let d = Diagnostic {
                        rule: rules::name::STALE_SCOPE,
                        path: file.clone(),
                        line: 1,
                        message: format!(
                            "`{file}` is reachable from the fast-path entry points \
                             but missing from lint.toml [fast-path].files; add it \
                             (or add a stop_files boundary)"
                        ),
                        witness: Vec::new(),
                    };
                    if !suppressed(&d) {
                        diags.push(d);
                    }
                }
            }
            let mut listed_not_reachable: Vec<&String> = self
                .config
                .fast_path_files
                .iter()
                .filter(|p| !computed_files.iter().any(|f| Config::path_matches(f, &[(*p).clone()])))
                .collect();
            listed_not_reachable.sort();
            for p in listed_not_reachable {
                diags.push(Diagnostic {
                    rule: rules::name::STALE_SCOPE,
                    path: "lint.toml".to_string(),
                    line: 1,
                    message: format!(
                        "`{p}` is listed in [fast-path].files but no function in it \
                         is reachable from the entry points; remove it or fix the \
                         entry-point list"
                    ),
                    witness: Vec::new(),
                });
            }
        }

        stamp(&mut timings, "fast-path");

        // Workspace rules: the dataflow families (condvar protocol,
        // atomic publication, pool lifecycle) evaluate over the merged
        // facts so pairings resolve across files.
        let (df_diags, df_summary) = dataflow::evaluate(&facts.dataflow, &self.config);
        for d in df_diags {
            if !suppressed(&d) {
                diags.push(d);
            }
        }
        stamp(&mut timings, "dataflow");

        // Workspace rules: protocol-conformance — the extracted packet
        // state machine diffed against protocol.toml. Inert when the
        // root has no spec.
        let proto_diags = self
            .protocol
            .as_ref()
            .map_or_else(Vec::new, |spec| protocol::evaluate(&facts.protocol, spec));
        for d in proto_diags {
            if !suppressed(&d) {
                diags.push(d);
            }
        }
        stamp(&mut timings, "protocol-conformance");

        let mut suppressions: Vec<SuppressionInfo> = allows_by_path
            .iter()
            .flat_map(|(path, allows)| {
                allows.iter().map(|a| SuppressionInfo {
                    rule: a.rule.clone(),
                    path: path.clone(),
                    line: a.line,
                    file_wide: a.file_wide,
                    justified: a.justified,
                })
            })
            .collect();
        suppressions.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));

        diags.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
        let mut lock_edges: Vec<LockEdge> = facts.lock_graph.edges().cloned().collect();
        lock_edges.sort();
        Ok(Analysis {
            diagnostics: diags,
            fast_path_functions: reachable.into_iter().collect(),
            fast_path_files: computed_files.into_iter().collect(),
            lock_edges,
            dataflow: df_summary,
            suppressions,
            timings,
        })
    }
}

/// Walks upward from the current directory to the first `Cargo.toml`
/// containing `[workspace]`: the default root of the `firefly-lint` and
/// `firefly-check verify` command lines.
pub fn find_workspace_root() -> Option<std::path::PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]")) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Workspace-relative `/`-separated path.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Extracts every `lint:allow` / `lint:allow-file` marker from the
/// file's comments.
fn collect_allows(file: &SourceFile) -> Vec<Allow> {
    let mut allows = Vec::new();
    for comment in &file.tokens.comments {
        let mut rest = comment.text.as_str();
        while let Some(pos) = rest.find("lint:allow") {
            let after = &rest[pos + "lint:allow".len()..];
            let (file_wide, args) = match after.strip_prefix("-file(") {
                Some(a) => (true, a),
                None => match after.strip_prefix('(') {
                    Some(a) => (false, a),
                    None => {
                        rest = after;
                        continue;
                    }
                },
            };
            let Some(close) = args.find(')') else {
                rest = args;
                continue;
            };
            let rule = args[..close].trim().to_string();
            let tail = args[close + 1..]
                .trim_start()
                .trim_start_matches(':')
                .trim();
            // Walk to the end of the comment block: the covered code
            // line is the first non-comment line after it.
            let mut last_comment = comment.line;
            while file
                .lines
                .get(last_comment)
                .is_some_and(|l| l.trim_start().starts_with("//"))
            {
                last_comment += 1;
            }
            allows.push(Allow {
                rule,
                line: comment.line,
                covered: last_comment + 1,
                file_wide,
                justified: !tail.is_empty(),
            });
            rest = &args[close + 1..];
        }
    }
    allows
}

/// True when `diag` is covered by an allow for its rule on the same
/// line, on the code line its comment block precedes, or file-wide.
fn is_suppressed(diag: &Diagnostic, allows: &[Allow]) -> bool {
    allows.iter().any(|a| {
        a.rule == diag.rule && (a.file_wide || a.line == diag.line || a.covered == diag.line)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(Config::default())
    }

    #[test]
    fn allow_on_same_line_suppresses() {
        let src = "fn f() { x.unwrap(); } // lint:allow(no-panic-on-fast-path): test scaffolding\n";
        let diags = engine().check_source_text("crates/core/src/client.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allow_on_line_above_suppresses() {
        let src = "// lint:allow(no-panic-on-fast-path): invariant documented here\n\
                   fn f() { x.unwrap(); }\n";
        let diags = engine().check_source_text("crates/core/src/client.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allow_with_multi_line_justification_covers_the_code_below() {
        let src = "fn f() {\n\
                   // lint:allow(no-panic-on-fast-path): the justification\n\
                   // continues on a second comment line before the code.\n\
                   x.unwrap();\n\
                   }\n";
        let diags = engine().check_source_text("crates/core/src/client.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allow_for_other_rule_does_not_suppress() {
        let src = "// lint:allow(no-alloc-on-fast-path): wrong rule\n\
                   fn f() { x.unwrap(); }\n";
        let diags = engine().check_source_text("crates/core/src/client.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, rules::name::NO_PANIC);
    }

    #[test]
    fn file_wide_allow_suppresses_everywhere() {
        let src = "// lint:allow-file(no-panic-on-fast-path): legacy shim, tracked in ROADMAP\n\
                   fn f() { x.unwrap(); }\n\
                   fn g() { y.unwrap(); }\n";
        let diags = engine().check_source_text("crates/core/src/client.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unjustified_allow_is_reported() {
        let src = "fn f() { x.unwrap() } // lint:allow(no-panic-on-fast-path)\n";
        let diags = engine().check_source_text("crates/core/src/client.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, rules::name::UNJUSTIFIED_ALLOW);
    }

    #[test]
    fn rules_do_not_fire_outside_scoped_files(){
        let src = "fn f() { x.unwrap(); let v = vec![0u8; 4]; }\n";
        let diags = engine().check_source_text("crates/sim/src/engine.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
