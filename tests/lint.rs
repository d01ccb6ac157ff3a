//! Tier-1 static-analysis gate: `cargo test -q` fails if the workspace
//! violates any lint rule, and the `firefly-lint` binary must exit
//! nonzero on a seeded violation of every rule.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use firefly_lint::Engine;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let engine = Engine::for_root(&root);
    let diags = engine.run(&root).expect("walk workspace");
    assert!(
        diags.is_empty(),
        "firefly-lint found {} violation(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The call-graph reachability walk must cover (at least) every module
/// the hand-maintained scope listed before it was computed: losing one
/// of these from the fast path would silently shrink what
/// `no-panic`/`no-alloc` protect.
#[test]
fn computed_reachability_covers_the_historical_scope() {
    let root = workspace_root();
    let engine = Engine::for_root(&root);
    let analysis = engine.analyze(&root).expect("walk workspace");
    for file in [
        "crates/core/src/client.rs",
        "crates/core/src/server.rs",
        "crates/core/src/transport.rs",
        "crates/core/src/send.rs",
        "crates/core/src/packet.rs",
        "crates/core/src/fragment.rs",
        "crates/core/src/calltable.rs",
        "crates/core/src/endpoint.rs",
        "crates/core/src/trace.rs",
    ] {
        assert!(
            analysis.fast_path_files.iter().any(|f| f == file),
            "`{file}` is no longer reachable from the fast-path entry points; \
             computed set: {:?}",
            analysis.fast_path_files
        );
    }
    assert!(
        analysis
            .fast_path_files
            .iter()
            .any(|f| f.starts_with("crates/wire/src")),
        "no crates/wire module is reachable from the fast-path entry points"
    );
}

/// No lock is taken under another anywhere in the live workspace: the
/// lock graph has no edge, so no order between two locks needs keeping.
/// An edge named here is a guard held over another acquisition.
#[test]
fn the_workspace_nests_no_lock() {
    let root = workspace_root();
    let engine = Engine::for_root(&root);
    let analysis = engine.analyze(&root).expect("walk workspace");
    let edges: Vec<String> = analysis
        .lock_edges
        .iter()
        .map(|e| format!("{} → {} ({}:{})", e.from, e.to, e.path, e.line))
        .collect();
    assert!(edges.is_empty(), "nested lock acquisitions: {edges:?}");
}

/// Runs the built binary against a throwaway tree containing `files`
/// and returns (exit_code, stderr).
fn run_binary_on(tag: &str, files: &[(&str, &str)]) -> (i32, String) {
    let dir = std::env::temp_dir().join(format!("firefly-lint-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    for (rel, text) in files {
        let path = dir.join(rel);
        fs::create_dir_all(path.parent().unwrap_or(Path::new("."))).expect("mkdir fixture");
        fs::write(&path, text).expect("write fixture");
    }
    // The binary belongs to the firefly-lint package, so cargo only
    // exposes a CARGO_BIN_EXE_ variable to that package's own tests;
    // from here, `cargo run` is the portable way to reach it.
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .args(["run", "--offline", "-q", "-p", "firefly-lint", "--"])
        .arg(&dir)
        .current_dir(workspace_root())
        .output()
        .expect("run firefly-lint");
    let _ = fs::remove_dir_all(&dir);
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Scope every path-scoped rule onto the fixture's `src/` tree. No
/// entry points are configured, so `stale-scope` stays quiet and the
/// `files` snapshot is taken at face value. A fixture tree's config is
/// its own file and nothing else: a key left out here is empty.
const FIXTURE_LINT_TOML: &str = r#"
[fast-path]
entry_points = []
files = ["src"]

[lock-order]
order = ["calltable", "pool"]
calltable = ["entries"]
pool = ["free"]
files = ["src"]

[no-blocking-under-lock]
files = ["src"]
blocking = ["recv", "wait", "wait_until", "park", "test_sleep", "join"]

[condvar-protocol]
files = ["src"]

[atomic-publication]
files = ["src"]
allow_relaxed = ["SANCTIONED"]
"#;

#[test]
fn binary_flags_each_seeded_rule_violation() {
    let seeded: &[(&str, &str, &str)] = &[
        (
            "no-panic-on-fast-path",
            "src/lib.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        ),
        (
            "no-alloc-on-fast-path",
            "src/lib.rs",
            "pub fn f(d: &[u8]) -> Vec<u8> { d.to_vec() }\n",
        ),
        (
            "lock-order",
            "src/lib.rs",
            "pub fn f(p: &P, t: &T) { let _a = p.free.lock(); let _b = t.entries.lock(); }\n",
        ),
        (
            "no-blocking-under-lock",
            "src/lib.rs",
            "pub fn f(p: &P, rx: &R) { let _g = p.free.lock(); let _m = rx.chan.recv(); }\n",
        ),
        (
            "no-sleep-in-lib",
            "src/lib.rs",
            "pub fn f() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n",
        ),
        (
            "unjustified-allow",
            "src/lib.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint:allow(no-panic-on-fast-path)\n",
        ),
    ];
    for (rule, rel, source) in seeded {
        let tag = rule.replace(|c: char| !c.is_ascii_alphanumeric(), "-");
        let (code, stderr) =
            run_binary_on(&tag, &[("lint.toml", FIXTURE_LINT_TOML), (rel, source)]);
        assert_eq!(
            code, 1,
            "seeded `{rule}` violation should exit 1, got {code}; stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(rule),
            "stderr should name `{rule}`:\n{stderr}"
        );
    }
}

/// Two functions acquiring the same two (unclassed) locks in opposite
/// orders form a cycle in the workspace lock graph.
#[test]
fn binary_flags_a_seeded_lock_cycle() {
    let (code, stderr) = run_binary_on(
        "lock-cycle",
        &[
            ("lint.toml", FIXTURE_LINT_TOML),
            (
                "src/lib.rs",
                "pub fn f(x: &S) { let a = x.alpha.lock(); let b = x.beta.lock(); drop(b); drop(a); }\n\
                 pub fn g(x: &S) { let b = x.beta.lock(); let a = x.alpha.lock(); drop(a); drop(b); }\n",
            ),
        ],
    );
    assert_eq!(code, 1, "seeded lock cycle should exit 1:\n{stderr}");
    assert!(
        stderr.contains("lock-cycle"),
        "stderr should name `lock-cycle`:\n{stderr}"
    );
}

/// An entry point reaching a helper in a file outside the snapshot is a
/// `stale-scope` error: the lint.toml list must be updated explicitly.
#[test]
fn binary_flags_a_stale_fast_path_snapshot() {
    const STALE_LINT_TOML: &str = r#"
[fast-path]
entry_points = ["src/lib.rs::entry"]
files = ["src/lib.rs"]
"#;
    let (code, stderr) = run_binary_on(
        "stale-scope",
        &[
            ("lint.toml", STALE_LINT_TOML),
            ("src/lib.rs", "pub fn entry() { helper(); }\n"),
            ("src/other.rs", "pub fn helper() {}\n"),
        ],
    );
    assert_eq!(code, 1, "stale snapshot should exit 1:\n{stderr}");
    assert!(
        stderr.contains("stale-scope"),
        "stderr should name `stale-scope`:\n{stderr}"
    );
    assert!(
        stderr.contains("src/other.rs"),
        "stderr should point at the unlisted reachable file:\n{stderr}"
    );
}

/// Dropping the lower-ranked guard before acquiring the higher-ranked
/// lock is legal — the guard-lifetime analysis must not need an allow.
#[test]
fn binary_accepts_drop_then_relock_without_suppression() {
    let (code, stderr) = run_binary_on(
        "drop-relock",
        &[
            ("lint.toml", FIXTURE_LINT_TOML),
            (
                "src/lib.rs",
                "pub fn f(p: &P, t: &T) {\n\
                 let a = p.free.lock();\n\
                 drop(a);\n\
                 let b = t.entries.lock();\n\
                 drop(b);\n\
                 }\n\
                 pub fn g(p: &P, t: &T) {\n\
                 { let _a = p.free.lock(); }\n\
                 let _b = t.entries.lock();\n\
                 }\n",
            ),
        ],
    );
    assert_eq!(
        code, 0,
        "drop-then-relock must pass without suppression; stderr:\n{stderr}"
    );
}

/// Condvar waits atomically release the guard they are passed, so a
/// wait under exactly that guard is fine — but a wait while a *second*
/// guard is live still blocks and must be flagged.
#[test]
fn binary_exempts_condvar_wait_for_the_released_guard_only() {
    let (code, stderr) = run_binary_on(
        "condvar-ok",
        &[
            ("lint.toml", FIXTURE_LINT_TOML),
            (
                "src/lib.rs",
                "pub fn f(p: &P) { let mut g = p.free.lock(); \
                 while busy(&g) { p.cond.wait_until(&mut g, deadline()); } }\n",
            ),
        ],
    );
    assert_eq!(
        code, 0,
        "condvar wait on its own guard must pass; stderr:\n{stderr}"
    );
    let (code, stderr) = run_binary_on(
        "condvar-second-guard",
        &[
            ("lint.toml", FIXTURE_LINT_TOML),
            (
                "src/lib.rs",
                "pub fn f(p: &P, t: &T) {\n\
                 let e = t.entries.lock();\n\
                 let mut g = p.free.lock();\n\
                 while busy(&g) { p.cond.wait_until(&mut g, deadline()); }\n\
                 drop(g);\n\
                 drop(e);\n\
                 }\n",
            ),
        ],
    );
    assert_eq!(
        code, 1,
        "condvar wait with a second live guard must fail:\n{stderr}"
    );
    assert!(
        stderr.contains("no-blocking-under-lock"),
        "stderr should name `no-blocking-under-lock`:\n{stderr}"
    );
}

/// The workspace `lint.toml` — what both `Engine::for_root` and the
/// compiled-in `Config::default()` read — must keep the trace write
/// path in scope and the ring mutex last in the lock order.
#[test]
fn workspace_config_covers_the_trace_module() {
    let config = Engine::for_root(&workspace_root()).config;
    assert!(
        firefly_lint::config::Config::path_matches(
            "crates/core/src/trace.rs",
            &config.fast_path_files
        ),
        "trace.rs fell out of the fast-path scope"
    );
    let order: Vec<&str> = config.lock_order.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(order, ["calltable", "pool", "trace"]);
    let last = config.lock_order.last().expect("a lock order");
    assert_eq!(last.receivers, ["ring"]);
}

/// Every receiver the live `[lock-order]` class map names is acquired
/// somewhere in that section's `files`: a receiver that names no
/// `.lock()`, `.read()` or `.write()` there ranks a lock that does not
/// exist, and the order it states is checked against nothing.
#[test]
fn every_lock_class_receiver_is_acquired_in_scope() {
    let root = workspace_root();
    let config = Engine::for_root(&root).config;
    let mut sources = Vec::new();
    for scope in &config.lock_files {
        collect_rust_sources(&root.join(scope), &mut sources);
    }
    assert!(!sources.is_empty(), "no sources under {:?}", config.lock_files);
    let unacquired: Vec<String> = config
        .lock_order
        .iter()
        .flat_map(|class| class.receivers.iter().map(move |r| (class, r)))
        .filter(|(_, receiver)| !sources.iter().any(|text| acquires(text, receiver)))
        .map(|(class, receiver)| format!("{}: `{receiver}`", class.name))
        .collect();
    assert!(
        unacquired.is_empty(),
        "lint.toml ranks receivers never locked in {:?}: {unacquired:?}",
        config.lock_files
    );
}

fn code_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().filter(|line| !line.trim_start().starts_with("//"))
}

fn collect_rust_sources(path: &Path, out: &mut Vec<String>) {
    if path.is_dir() {
        for entry in fs::read_dir(path).expect("read scope dir") {
            collect_rust_sources(&entry.expect("dir entry").path(), out);
        }
    } else if path.extension().is_some_and(|e| e == "rs") {
        out.push(fs::read_to_string(path).expect("read source"));
    }
}

/// Does `text` acquire `receiver` outside a comment: the identifier,
/// an optional index, then `.lock()`, `.read()` or `.write()`?
fn acquires(text: &str, receiver: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code_lines(text).any(|line| {
        line.match_indices(receiver).any(|(at, _)| {
            if line[..at].chars().next_back().is_some_and(ident) {
                return false;
            }
            let mut rest = &line[at + receiver.len()..];
            if rest.starts_with('[') {
                match rest.find(']') {
                    Some(close) => rest = &rest[close + 1..],
                    None => return false,
                }
            }
            [".lock()", ".read()", ".write()"]
                .iter()
                .any(|call| rest.starts_with(call))
        })
    })
}

/// A seeded violation inside a trace-module analog proves the scope is
/// live: an allocation on the record push path and a lock inversion
/// through the ring mutex must both be flagged.
#[test]
fn binary_flags_seeded_trace_module_violations() {
    const TRACE_LINT_TOML: &str = r#"
[fast-path]
entry_points = []
files = ["src/trace.rs"]

[lock-order]
order = ["calltable", "trace"]
calltable = ["entries"]
trace = ["ring"]
files = ["src"]
"#;
    let (code, stderr) = run_binary_on(
        "trace-scope",
        &[
            ("lint.toml", TRACE_LINT_TOML),
            (
                "src/trace.rs",
                "pub fn push(d: &[u8], t: &T, c: &C) -> Vec<u8> {\n\
                 let copy = d.to_vec();\n\
                 let g = t.ring.lock();\n\
                 let e = c.entries.lock();\n\
                 drop(e);\n\
                 drop(g);\n\
                 copy\n\
                 }\n",
            ),
        ],
    );
    assert_eq!(code, 1, "seeded trace violations should exit 1:\n{stderr}");
    assert!(
        stderr.contains("no-alloc-on-fast-path"),
        "allocation on the trace push path not flagged:\n{stderr}"
    );
    assert!(
        stderr.contains("lock-order"),
        "lock inversion under the ring mutex not flagged:\n{stderr}"
    );
}

/// Each dataflow rule family must flag its seeded violation: wait
/// outside a predicate loop, notify with no state write under the
/// paired mutex, and relaxed publication against a release/acquire
/// protocol.
#[test]
fn binary_flags_each_seeded_dataflow_violation() {
    let seeded: &[(&str, &str, &str)] = &[
        (
            "condvar-wait-loop",
            "wait-outside-loop",
            "pub fn f(p: &P) { let mut g = p.free.lock(); \
             p.available.wait_until(&mut g, deadline()); }\n",
        ),
        (
            "condvar-notify-write",
            "notify-without-write",
            "pub fn waiter(p: &P) { let mut g = p.free.lock(); \
             while busy(&g) { p.available.wait_until(&mut g, deadline()); } }\n\
             pub fn wake(p: &P) { p.available.notify_one(); }\n",
        ),
        (
            "atomic-publication",
            "relaxed-publish",
            "pub fn w(s: &S) { s.flag.store(1, Ordering::Release); }\n\
             pub fn r(s: &S) -> u32 { s.flag.load(Ordering::Relaxed) }\n",
        ),
    ];
    for (rule, tag, source) in seeded {
        let (code, stderr) =
            run_binary_on(tag, &[("lint.toml", FIXTURE_LINT_TOML), ("src/lib.rs", source)]);
        assert_eq!(
            code, 1,
            "seeded `{rule}` violation ({tag}) should exit 1, got {code}; stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(rule),
            "stderr should name `{rule}`:\n{stderr}"
        );
    }
}

#[test]
fn binary_exits_zero_on_a_clean_tree() {
    let (code, stderr) = run_binary_on(
        "clean",
        &[
            ("lint.toml", FIXTURE_LINT_TOML),
            (
                "src/lib.rs",
                "pub fn f(x: Option<u8>) -> Option<u8> { x }\n",
            ),
        ],
    );
    assert_eq!(code, 0, "clean tree should exit 0; stderr:\n{stderr}");
}
