//! Workspace lint driver. Usage:
//! `firefly-lint [--json | --summary] [workspace-root]`.
//!
//! With no path argument, walks upward from the current directory to
//! the first `Cargo.toml` containing `[workspace]`. Exits 1 when any
//! diagnostic is emitted, 2 on I/O errors.
//!
//! `--json` prints a machine-readable report on stdout instead of the
//! human format: diagnostics (with rule family and def-use witness
//! chain), the computed fast-path reachability set, per-stage timings,
//! and the suppression inventory. Exit codes are unchanged, so tooling
//! can both parse the report and gate on it. (The lock graph, atomic
//! locations and protocol table are read in-process, as typed values,
//! by `firefly-check verify` — they are not serialized.)
//!
//! `--summary` prints one line for CI logs (diagnostic count by family,
//! fast-path size, pairing counts) and exits with the same code.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use firefly_lint::{rules, Analysis, Engine};

/// Minimal JSON string escaping (std only): quotes, backslashes and
/// control characters.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a list of strings as a JSON array of strings.
fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|w| format!("\"{}\"", esc(w))).collect();
    format!("[{}]", quoted.join(", "))
}

fn print_json(analysis: &Analysis) {
    let mut s = String::from("{\n  \"diagnostics\": [");
    for (i, d) in analysis.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"family\": \"{}\", \"path\": \"{}\", \"line\": {}, \
             \"witness\": {}, \"message\": \"{}\"}}",
            esc(d.rule),
            esc(rules::family(d.rule)),
            esc(&d.path),
            d.line,
            json_strings(&d.witness),
            esc(&d.message)
        ));
    }
    s.push_str("\n  ],\n  \"fast_path\": {\n    \"files\": [");
    for (i, f) in analysis.fast_path_files.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n      \"{}\"", esc(f)));
    }
    s.push_str("\n    ],\n    \"functions\": [");
    for (i, (file, name)) in analysis.fast_path_functions.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n      \"{}::{}\"", esc(file), esc(name)));
    }
    s.push_str("\n    ]\n  },");
    s.push_str("\n  \"timings_us\": {");
    for (i, (stage, us)) in analysis.timings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n    \"{}\": {}", esc(stage), us));
    }
    s.push_str("\n  },");
    s.push_str("\n  \"suppressions\": [");
    for (i, a) in analysis.suppressions.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"file_wide\": {}, \
             \"justified\": {}}}",
            esc(&a.rule),
            esc(&a.path),
            a.line,
            a.file_wide,
            a.justified
        ));
    }
    s.push_str("\n  ]\n}");
    println!("{s}");
}

/// The one-line CI summary: diagnostic count by family plus the sizes
/// of the computed sets.
fn print_summary(analysis: &Analysis, engine: &Engine) {
    let mut by_family: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for d in &analysis.diagnostics {
        *by_family.entry(rules::family(d.rule)).or_default() += 1;
    }
    let family_part = if by_family.is_empty() {
        "clean".to_string()
    } else {
        by_family
            .iter()
            .map(|(f, n)| format!("{f}:{n}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let timing_part = analysis
        .timings
        .iter()
        .map(|(stage, us)| format!("{stage}:{us}us"))
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "firefly-lint: {} diagnostic(s) [{}] | fast-path {} fns/{} files | \
         lock edges {} | condvar pairs {} | atomic locations {} | \
         pool defs {} | protocol transitions {} | suppressions {} | \
         timings {timing_part}",
        analysis.diagnostics.len(),
        family_part,
        analysis.fast_path_functions.len(),
        analysis.fast_path_files.len(),
        analysis.lock_edges.len(),
        analysis.dataflow.condvar_pairs.len(),
        analysis.dataflow.locations.len(),
        analysis.dataflow.buffer_defs,
        engine.protocol.as_ref().map_or(0, |spec| spec.transitions.len()),
        analysis.suppressions.len()
    );
}

fn main() -> ExitCode {
    let mut json = false;
    let mut summary = false;
    let mut root_arg: Option<PathBuf> = None;
    for arg in env::args().skip(1) {
        if arg == "--json" {
            json = true;
        } else if arg == "--summary" {
            summary = true;
        } else {
            root_arg = Some(PathBuf::from(arg));
        }
    }
    let root = match root_arg {
        Some(root) => root,
        None => match firefly_lint::find_workspace_root() {
            Some(root) => root,
            None => {
                eprintln!("firefly-lint: no workspace root found (looked for [workspace] in Cargo.toml)");
                return ExitCode::from(2);
            }
        },
    };
    let engine = Engine::for_root(&root);
    match engine.analyze(&root) {
        Ok(analysis) => {
            if json {
                print_json(&analysis);
            } else if summary {
                print_summary(&analysis, &engine);
            } else if analysis.diagnostics.is_empty() {
                println!("firefly-lint: clean ({})", root.display());
            } else {
                for d in &analysis.diagnostics {
                    eprintln!("{d}");
                }
                eprintln!("firefly-lint: {} violation(s)", analysis.diagnostics.len());
            }
            if analysis.diagnostics.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("firefly-lint: I/O error: {e}");
            ExitCode::from(2)
        }
    }
}
