//! Workspace lint driver. Usage:
//! `firefly-lint [--summary] [workspace-root]`.
//!
//! With no path argument, walks upward from the current directory to
//! the first `Cargo.toml` containing `[workspace]`. Exits 1 when any
//! diagnostic is emitted, 2 on I/O errors.
//!
//! `--summary` prints one line for CI logs (diagnostic count by family,
//! fast-path size, pairing counts) and exits with the same code. The
//! atomic locations are read in-process, as typed values, by
//! `firefly-check verify`.

#![forbid(unsafe_code)]

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use firefly_lint::{rules, Analysis};

/// The one-line CI summary: diagnostic count by family plus the sizes
/// of the computed sets.
fn print_summary(analysis: &Analysis) {
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
         condvar pairs {} | atomic locations {} | \
         suppressions {} | timings {timing_part}",
        analysis.diagnostics.len(),
        family_part,
        analysis.fast_path_functions.len(),
        analysis.fast_path_files.len(),
        analysis.dataflow.condvar_pairs.len(),
        analysis.dataflow.locations.len(),
        analysis.suppressions
    );
}

fn main() -> ExitCode {
    let mut summary = false;
    let mut root_arg: Option<PathBuf> = None;
    for arg in env::args().skip(1) {
        if arg == "--summary" {
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
    match firefly_lint::Engine::for_root(&root).analyze(&root) {
        Ok(analysis) => {
            if summary {
                print_summary(&analysis);
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
