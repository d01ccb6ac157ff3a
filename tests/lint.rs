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
            "nested-lock",
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

/// Two functions acquiring the same two locks in opposite orders: each
/// nesting is a diagnostic on its own, so no graph is needed to see the
/// cycle they would make together.
#[test]
fn binary_flags_a_seeded_nested_lock() {
    let (code, stderr) = run_binary_on(
        "nested-lock",
        &[
            ("lint.toml", FIXTURE_LINT_TOML),
            (
                "src/lib.rs",
                "pub fn f(x: &S) {\n\
                 let a = x.alpha.lock();\n\
                 let b = x.beta.lock();\n\
                 drop(b);\n\
                 drop(a);\n\
                 }\n\
                 pub fn g(x: &S) {\n\
                 let b = x.beta.lock();\n\
                 let a = x.alpha.lock();\n\
                 drop(a);\n\
                 drop(b);\n\
                 }\n",
            ),
        ],
    );
    assert_eq!(code, 1, "seeded nesting should exit 1:\n{stderr}");
    for line in [3, 9] {
        assert!(
            stderr.contains(&format!("src/lib.rs:{line}: [nested-lock]")),
            "stderr should name `nested-lock` at line {line}:\n{stderr}"
        );
    }
}

/// A table's lock, then an entry's, is the one nesting the runtime
/// keeps, each site with a justified allow; an entry's lock, then its
/// table's, is the inversion that could deadlock against it. A ranked
/// order that puts both in one class cannot see this pair.
#[test]
fn binary_flags_an_element_then_container_nesting() {
    let (code, stderr) = run_binary_on(
        "element-container",
        &[
            ("lint.toml", FIXTURE_LINT_TOML),
            (
                "src/lib.rs",
                "pub fn prune(t: &T) -> usize {\n\
                 let map = t.activities.lock();\n\
                 // lint:allow(nested-lock): the table's lock, then an entry's.\n\
                 map.values().filter(|act| act.state.lock().idle).count()\n\
                 }\n\
                 pub fn touch(t: &T, act: &A) -> usize {\n\
                 let st = act.state.lock();\n\
                 let map = t.activities.lock();\n\
                 usize::from(st.idle) + map.len()\n\
                 }\n",
            ),
        ],
    );
    assert_eq!(code, 1, "an entry-then-table nesting should exit 1:\n{stderr}");
    assert!(
        stderr.contains("src/lib.rs:8: [nested-lock]"),
        "stderr should name `nested-lock` at the entry-then-table site:\n{stderr}"
    );
    assert!(
        !stderr.contains("src/lib.rs:4:"),
        "the allowed table-then-entry site must stay quiet:\n{stderr}"
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

/// Dropping one guard (or closing its scope) before acquiring the next
/// lock is no nesting — the guard-lifetime analysis must not need an
/// allow.
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
/// path in scope.
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
}

/// A seeded violation inside a trace-module analog proves the scope is
/// live: an allocation on the record push path and a lock taken under
/// the ring mutex must both be flagged.
#[test]
fn binary_flags_seeded_trace_module_violations() {
    const TRACE_LINT_TOML: &str = r#"
[fast-path]
entry_points = []
files = ["src/trace.rs"]

[no-blocking-under-lock]
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
        stderr.contains("src/trace.rs:4: [nested-lock] `entries` lock acquired while the `ring` guard"),
        "a lock taken under the ring mutex not flagged:\n{stderr}"
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
