//! firefly-lint: in-tree static analysis for the Firefly RPC workspace.
//!
//! The paper's performance argument rests on invariants the compiler
//! cannot check: the packet fast path never allocates or panics, and
//! no lock is taken while another is held. This crate enforces them
//! with a lightweight comment- and string-aware tokenizer — no rustc
//! internals, no external parser, std only.
//!
//! Rules (see docs/LINTS.md for the full rationale):
//! - `no-panic-on-fast-path` / `no-alloc-on-fast-path` — scoped by the
//!   computed fast-path reachability set (see [`callgraph`])
//! - `nested-lock` / `no-blocking-under-lock` — guard-lifetime aware
//!   (see [`scope`], whose one walk per function body also feeds the
//!   call graph and the dataflow facts)
//! - `stale-scope` — lint.toml's fast-path snapshot vs the computed set
//! - `no-sleep-in-lib`
//! - `condvar-wait-loop` / `condvar-notify-write` — the condvar
//!   protocol, from the interprocedural dataflow pass ([`dataflow`])
//! - `atomic-publication` — release/acquire pairing for cross-thread
//!   atomics ([`dataflow`])
//!
//! Suppression: `// lint:allow(<rule>): <justification>` on the same
//! line or the line above, `// lint:allow-file(<rule>): <reason>` for a
//! whole file. An allow without a justification is itself reported
//! (`unjustified-allow`).

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod config;
pub mod dataflow;
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
        )?;
        if !self.witness.is_empty() {
            write!(f, " (witness: {})", self.witness.join(" → "))?;
        }
        Ok(())
    }
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
#[derive(Debug, Default)]
pub struct Facts {
    /// Fn definitions and call sites.
    pub call_graph: CallGraph,
    /// Def-use sites for the dataflow rule families.
    pub dataflow: dataflow::DataflowFacts,
}

impl Facts {
    /// Merges another (per-file or per-worker) accumulation into this
    /// one; all underlying structures union deterministically.
    pub fn merge(&mut self, other: Facts) {
        self.call_graph.merge(other.call_graph);
        self.dataflow.merge(other.dataflow);
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
    /// Aggregated dataflow facts (condvar pairings, atomic location
    /// summaries) for `--summary` and the static↔dynamic
    /// publication gate.
    pub dataflow: dataflow::Summary,
    /// Number of `lint:allow` markers in the workspace.
    pub suppressions: usize,
    /// Wall-clock per analysis stage, microseconds, in execution order.
    /// Stage names match rule families where one stage implements one
    /// family (`fast-path`, `dataflow`).
    pub timings: Vec<(String, u128)>,
}

/// What the per-file pass yields for one file: its diagnostics, its
/// `lint:allow` markers and its cross-file facts.
type FileOutcome = (Vec<Diagnostic>, Vec<Allow>, Facts);

/// The rule engine: configuration plus the workspace walker.
pub struct Engine {
    pub config: Config,
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(config: Config) -> Engine {
        Engine { config }
    }

    /// An engine configured from `<root>/lint.toml`, or from the
    /// workspace's own `lint.toml` (compiled in) when the root has none.
    pub fn for_root(root: &Path) -> Engine {
        let config = match fs::read_to_string(root.join("lint.toml")) {
            Ok(text) => Config::from_toml(&text),
            Err(_) => Config::default(),
        };
        Engine { config }
    }

    /// Lints one Rust source file given its workspace-relative path.
    /// The workspace-level rule (`stale-scope`) needs the whole tree
    /// and only runs in [`Engine::analyze`].
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

    /// Walks the workspace at `root` and lints every `.rs` file. Skips
    /// `target/`, VCS metadata, and lint test fixtures (which contain
    /// violations on purpose). Returns
    /// just the diagnostics; [`Engine::analyze`] also exposes the
    /// computed fast-path set and the dataflow summary.
    pub fn run(&self, root: &Path) -> io::Result<Vec<Diagnostic>> {
        Ok(self.analyze(root)?.diagnostics)
    }

    /// Full two-pass analysis: the per-file rules (pass 1, which also
    /// accumulates the call graph and dataflow facts), then the
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
                if file_name.ends_with(".rs") {
                    rs_files.push((rel_path(root, &path), fs::read_to_string(&path)?));
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
        let mut slots: Vec<Option<FileOutcome>> = rs_files.iter().map(|_| None).collect();
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
        // atomic publication) evaluate over the merged
        // facts so pairings resolve across files.
        let (df_diags, df_summary) = dataflow::evaluate(&facts.dataflow, &self.config);
        for d in df_diags {
            if !suppressed(&d) {
                diags.push(d);
            }
        }
        stamp(&mut timings, "dataflow");

        let suppressions = allows_by_path.iter().map(|(_, allows)| allows.len()).sum();
        diags.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
        Ok(Analysis {
            diagnostics: diags,
            fast_path_functions: reachable.into_iter().collect(),
            fast_path_files: computed_files.into_iter().collect(),
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
    fn a_per_call_shared_allocation_on_the_fast_path_is_reported() {
        // A call-table entry made per call: `Arc::new` allocates as
        // surely as `Box::new`, and `Rc::new` likewise.
        let src = "pub fn register(t: &T, seq: u32) -> Arc<Entry> {\n\
                   let e = Arc::new(Entry::new(seq));\n\
                   t.insert(Arc::clone(&e));\n\
                   let _local = std::rc::Rc::new(seq);\n\
                   e\n\
                   }\n";
        let diags = engine().check_source_text("crates/core/src/calltable.rs", src);
        let lines: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == rules::name::NO_ALLOC)
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, [2, 4], "{diags:?}");
    }

    #[test]
    fn rules_do_not_fire_outside_scoped_files(){
        let src = "fn f() { x.unwrap(); let v = vec![0u8; 4]; }\n";
        let diags = engine().check_source_text("crates/sim/src/engine.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
