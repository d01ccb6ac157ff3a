//! Hermetic-build guard: the workspace must never grow a registry
//! dependency. Every `Cargo.toml` is parsed and each dependency entry
//! must resolve to an in-tree path (directly or via `workspace = true`
//! against the root's path-only `[workspace.dependencies]`).
//!
//! This keeps `cargo build --offline` working from a clean checkout
//! with an empty cargo registry — the property scripts/verify.sh
//! exercises end to end. The same file guards the tooling policy: the
//! repo verifies itself in Rust, behind one bash launcher; and the
//! unsafe policy: every crate root forbids unsafe code, so rustc
//! rejects an `unsafe` anywhere.

use std::fs;
use std::path::{Path, PathBuf};

/// Crate names this repo deliberately replaced with in-tree equivalents;
/// they must never reappear in any manifest section. (The one copy of
/// the list.)
const BANNED: &[&str] = &[
    "parking_lot",
    "crossbeam",
    "crossbeam-channel",
    "rand",
    "rand_core",
    "proptest",
    "criterion",
];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The root package, every workspace crate, and the benchmark's own
/// package (`rpcbench/`, outside the workspace).
fn package_dirs() -> Vec<PathBuf> {
    let root = workspace_root();
    let mut found = vec![root.clone(), root.join("rpcbench")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ directory") {
        let dir = entry.expect("readable dir entry").path();
        if dir.join("Cargo.toml").is_file() {
            found.push(dir);
        }
    }
    assert!(
        found.len() >= 9,
        "expected the root, rpcbench and at least 7 crates, found {}",
        found.len()
    );
    found
}

fn manifests() -> Vec<PathBuf> {
    package_dirs()
        .into_iter()
        .map(|dir| dir.join("Cargo.toml"))
        .collect()
}

/// Every crate root of a package: `src/lib.rs`, `src/main.rs`,
/// `src/bin/*.rs`, `build.rs` and `examples/*.rs`, where present.
fn crate_roots(package: &Path) -> Vec<PathBuf> {
    let mut roots: Vec<PathBuf> = ["src/lib.rs", "src/main.rs", "build.rs"]
        .iter()
        .map(|rel| package.join(rel))
        .filter(|path| path.is_file())
        .collect();
    for dir in ["src/bin", "examples"] {
        if let Ok(entries) = fs::read_dir(package.join(dir)) {
            roots.extend(
                entries
                    .map(|e| e.expect("readable dir entry").path())
                    .filter(|p| p.extension().is_some_and(|ext| ext == "rs")),
            );
        }
    }
    roots
}

/// No `unsafe` anywhere: every crate root carries
/// `#![forbid(unsafe_code)]`, so the compiler rejects an `unsafe` block
/// in any file of any target (DESIGN.md, "Unsafe policy").
#[test]
fn every_crate_root_forbids_unsafe_code() {
    let mut roots = Vec::new();
    for package in package_dirs() {
        roots.extend(crate_roots(&package));
    }
    assert!(roots.len() >= 25, "only {} crate roots found", roots.len());
    for root in &roots {
        let text = fs::read_to_string(root).expect("readable crate root");
        assert!(
            text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]"),
            "{} does not forbid unsafe code",
            root.display()
        );
    }
}

/// One `name = ...` entry from a dependency section.
struct Dep {
    manifest: PathBuf,
    section: String,
    name: String,
    spec: String,
}

/// Minimal TOML scan: collects entries of every `[...dependencies...]`
/// section (table-form `name = { ... }` or string-form `name = "1.0"`).
fn dependency_entries(manifest: &Path) -> Vec<Dep> {
    let text = fs::read_to_string(manifest).expect("readable manifest");
    let mut section = String::new();
    let mut deps = Vec::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if !section.contains("dependencies") {
            continue;
        }
        if let Some((name, spec)) = line.split_once('=') {
            let mut name = name.trim().trim_matches('"').to_string();
            let mut spec = spec.trim().to_string();
            // Normalize the dotted form `name.workspace = true`.
            if let Some(bare) = name.strip_suffix(".workspace") {
                name = bare.to_string();
                spec = format!("workspace = {spec}");
            }
            deps.push(Dep {
                manifest: manifest.to_path_buf(),
                section: section.clone(),
                name,
                spec,
            });
        }
    }
    deps
}

fn is_path_only(spec: &str) -> bool {
    spec.contains("path =")
        && !spec.contains("version =")
        && !spec.contains("git =")
        && !spec.contains("registry =")
}

#[test]
fn every_dependency_is_an_in_tree_path() {
    for manifest in manifests() {
        for dep in dependency_entries(&manifest) {
            let ok = if dep.spec.contains("workspace = true") {
                // Resolved against [workspace.dependencies], checked below.
                true
            } else {
                is_path_only(&dep.spec)
            };
            assert!(
                ok,
                "{}: [{}] `{}` is not a pure path dependency: {}",
                dep.manifest.display(),
                dep.section,
                dep.name,
                dep.spec
            );
        }
    }
}

#[test]
fn workspace_dependency_table_is_path_only() {
    let root = workspace_root().join("Cargo.toml");
    let entries: Vec<Dep> = dependency_entries(&root)
        .into_iter()
        .filter(|d| d.section == "workspace.dependencies")
        .collect();
    assert!(!entries.is_empty(), "workspace.dependencies table exists");
    for dep in entries {
        assert!(
            is_path_only(&dep.spec) && dep.spec.contains("crates/"),
            "workspace dependency `{}` must point into crates/: {}",
            dep.name,
            dep.spec
        );
    }
}

#[test]
fn replaced_crates_never_come_back() {
    for manifest in manifests() {
        for dep in dependency_entries(&manifest) {
            assert!(
                !BANNED.contains(&dep.name.as_str()),
                "{}: [{}] depends on banned crate `{}`",
                manifest.display(),
                dep.section,
                dep.name
            );
        }
    }
}

#[test]
fn check_crate_is_hermetic_and_forbids_unsafe() {
    // The concurrency checker runs production sync primitives under its
    // own scheduler; it must not smuggle in registry deps or unsafe
    // code that the rest of the workspace has banned.
    let entry = dependency_entries(&workspace_root().join("Cargo.toml"))
        .into_iter()
        .filter(|d| d.section == "workspace.dependencies")
        .find(|d| d.name == "firefly-check")
        .expect("firefly-check is declared in [workspace.dependencies]");
    assert!(
        is_path_only(&entry.spec) && entry.spec.contains("crates/check"),
        "firefly-check must be a path dependency into crates/check: {}",
        entry.spec
    );

    let check_manifest = workspace_root().join("crates/check/Cargo.toml");
    for dep in dependency_entries(&check_manifest) {
        assert!(
            dep.spec.contains("workspace = true") || is_path_only(&dep.spec),
            "crates/check dependency `{}` is not path-only: {}",
            dep.name,
            dep.spec
        );
    }

    let lib = fs::read_to_string(workspace_root().join("crates/check/src/lib.rs"))
        .expect("crates/check/src/lib.rs");
    assert!(
        lib.contains("#![forbid(unsafe_code)]"),
        "crates/check must forbid unsafe code: the checker's soundness \
         argument assumes all shared state is behind the instrumented locks"
    );
}

/// One executable, one rig: `crates/bench` builds `firefly-bench` and
/// nothing else, takes nothing from the environment, and every
/// experiment the documentation tells a reader to run exists.
#[test]
fn bench_crate_is_one_executable_and_the_docs_name_only_what_it_runs() {
    let root = workspace_root();
    let bench = root.join("crates/bench");
    let manifest = fs::read_to_string(bench.join("Cargo.toml")).expect("crates/bench/Cargo.toml");
    for table in ["[[bin]]", "[[bench]]", "[[example]]"] {
        assert!(
            !manifest.contains(table),
            "crates/bench declares a {table} target"
        );
    }
    assert!(
        bench.join("src/main.rs").is_file(),
        "the one executable is src/main.rs"
    );
    for extra in ["src/bin", "benches", "examples"] {
        assert!(
            !bench.join(extra).exists(),
            "crates/bench/{extra} would be a second target"
        );
    }

    let mut sources = Vec::new();
    files_under(&bench.join("src"), &mut sources);
    assert!(sources.len() > 20, "the experiments are modules under src/");
    for path in &sources {
        let text = fs::read_to_string(path).expect("readable source");
        for reader in ["env::var", "env!("] {
            assert!(
                !text.contains(reader),
                "{} reads the environment ({reader})",
                path.display()
            );
        }
    }
    let mut docs = vec![
        root.join("README.md"),
        root.join("EXPERIMENTS.md"),
        root.join("DESIGN.md"),
        root.join(".claude/skills/verify/SKILL.md"),
    ];
    files_under(&root.join("docs"), &mut docs);
    let mut cited = 0;
    for path in &docs {
        let text = fs::read_to_string(path).expect("readable document");
        assert!(
            !text.contains("firefly-bench --bin") && !text.contains("cargo bench -"),
            "{} still spells a command of the 21-binary layout",
            path.display()
        );
        for (_, after) in text
            .match_indices("firefly-bench -- ")
            .map(|(at, m)| text.split_at(at + m.len()))
        {
            if after.starts_with('<') {
                continue; // `<name>`, `<experiment>`: the general form, not a citation
            }
            let name: String = after
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            assert!(
                firefly_bench::experiments::find(&name).is_some(),
                "{} cites `firefly-bench -- {name}`, which the registry does not have",
                path.display()
            );
            cited += 1;
        }
    }
    assert!(
        cited >= 10,
        "only {cited} cited commands were found; the guard is not looking"
    );
}

/// The interpreter the verification path used to shell out to. This line
/// is the one place the scanned tree may spell it.
const INTERPRETER: &str = "python";

/// Every file under `dir` (recursively), skipping build output and VCS
/// metadata.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if path.is_dir() {
            if !matches!(name, "target" | ".git") {
                files_under(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

/// One verifier, one language: the verification path is Rust behind a
/// bash launcher. No second script, no interpreter-language file
/// anywhere in the tree, and no interpreter invoked from the launcher,
/// the tests, the crates or the verify skill.
#[test]
fn verification_path_is_rust_behind_one_launcher() {
    let root = workspace_root();
    let scripts: Vec<_> = fs::read_dir(root.join("scripts"))
        .expect("scripts/ directory")
        .map(|e| e.expect("readable dir entry").file_name())
        .collect();
    assert_eq!(scripts, ["verify.sh"], "scripts/ holds the launcher and nothing else");

    let mut tree = Vec::new();
    files_under(&root, &mut tree);
    for path in &tree {
        assert!(
            path.extension().is_none_or(|ext| ext != "py"),
            "{} — the repo verifies itself in Rust",
            path.display()
        );
    }

    // rpcbench/ is the benchmark's own package and is not scanned.
    let scanned = |p: &Path| {
        let rel = p.strip_prefix(&root).expect("under root").to_string_lossy().replace('\\', "/");
        rel.starts_with("scripts/")
            || rel.starts_with("tests/")
            || (rel.starts_with("crates/") && rel.contains("/src/"))
            || rel == ".claude/skills/verify/SKILL.md"
    };
    for path in tree.iter().filter(|p| scanned(p)) {
        let Ok(text) = fs::read_to_string(path) else {
            continue; // not text
        };
        for (i, line) in text.lines().enumerate() {
            let guard_itself = line.starts_with("const INTERPRETER: &str");
            assert!(
                guard_itself || !line.to_ascii_lowercase().contains(INTERPRETER),
                "{}:{}: the verification path names an interpreter: {line}",
                path.display(),
                i + 1
            );
        }
    }
}

#[test]
fn no_lockfile_entry_references_the_registry() {
    let lock = workspace_root().join("Cargo.lock");
    if !lock.is_file() {
        return; // Nothing locked yet; cargo will only see path deps anyway.
    }
    let text = fs::read_to_string(lock).expect("readable lockfile");
    assert!(
        !text.contains("registry+https://"),
        "Cargo.lock pins a registry crate — the build is no longer hermetic"
    );
}

#[test]
fn protocol_spec_is_committed_and_populated() {
    // crates/core's build.rs — the file's one reader — generates the
    // witness table from protocol.toml, and `firefly-check verify`
    // checks observed transitions against that table. The spec file
    // must therefore always be committed at the workspace root, and the
    // table generated from it must be the full one.
    assert!(
        workspace_root().join("protocol.toml").is_file(),
        "protocol.toml is missing from the workspace root"
    );
    let rows = firefly_rpc::witness::TRANSITIONS.len();
    assert!(
        rows >= 32,
        "protocol.toml declares only {rows} legal transitions; the server \
         state machine alone needs 32"
    );
}

#[test]
fn lint_crate_is_itself_hermetic() {
    // The static-analysis crate runs inside tier-1, so it must satisfy
    // the dependency policy: reachable as a path-only workspace
    // dependency, and depending on nothing outside the tree itself.
    let root = workspace_root().join("Cargo.toml");
    let entry = dependency_entries(&root)
        .into_iter()
        .filter(|d| d.section == "workspace.dependencies")
        .find(|d| d.name == "firefly-lint")
        .expect("firefly-lint is declared in [workspace.dependencies]");
    assert!(
        is_path_only(&entry.spec) && entry.spec.contains("crates/lint"),
        "firefly-lint must be a path dependency into crates/lint: {}",
        entry.spec
    );

    let lint_manifest = workspace_root().join("crates/lint/Cargo.toml");
    for dep in dependency_entries(&lint_manifest) {
        assert!(
            dep.spec.contains("workspace = true") || is_path_only(&dep.spec),
            "crates/lint dependency `{}` is not path-only: {}",
            dep.name,
            dep.spec
        );
    }
}
