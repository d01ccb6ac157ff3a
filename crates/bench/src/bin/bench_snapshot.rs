//! Captures one `BENCH_NNNN.json` performance snapshot of the real RPC
//! stack over loopback UDP, and gates the snapshot trajectory. See
//! `docs/BENCH.md` for the schema and the ±10% gate's contract.
//!
//! ```text
//! bench_snapshot            # full run, writes BENCH_NNNN.json in the cwd
//! bench_snapshot --smoke    # CI-sized run (seconds, marked mode=smoke)
//! bench_snapshot --out P    # write to P instead of auto-numbering
//! bench_snapshot --gate [FILE]          # gate FILE (default: newest) vs its predecessor
//! bench_snapshot --gate --check [FILE]  # validate + report, never fail on regression
//! ```
//!
//! Exit status of `--gate`: 0 = no regression (or bootstrap, or
//! `--check`); 1 = regression or invalid snapshot; 2 = usage error.

use firefly_bench::gate::{self, GateSpec};
use firefly_bench::snapshot::{next_snapshot_path, run_snapshot, write_atomic, SnapshotSpec};
use std::path::PathBuf;

const USAGE: &str = "usage: bench_snapshot [--smoke] [--out PATH] | --gate [--check] [FILE]";

fn usage_error(message: &str) -> ! {
    eprintln!("bench_snapshot: {message}\n{USAGE}");
    std::process::exit(2);
}

/// `--gate`: runs the trajectory gate and exits with its status.
fn run_gate(check: bool, candidate: Option<PathBuf>) -> ! {
    let spec = GateSpec::from_env(check, candidate).unwrap_or_else(|e| usage_error(&e));
    match gate::run(&spec, &mut std::io::stdout()) {
        Ok(()) => std::process::exit(0),
        Err(message) => {
            eprintln!("bench_gate: FAIL — {message}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut spec = SnapshotSpec::full();
    let mut out: Option<PathBuf> = None;
    let (mut gate, mut check) = (false, false);
    let mut candidate: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => spec = SnapshotSpec::smoke(),
            "--gate" => gate = true,
            "--check" => (gate, check) = (true, true),
            file if gate && !file.starts_with('-') => {
                if candidate.replace(PathBuf::from(file)).is_some() {
                    usage_error("more than one snapshot argument");
                }
            }
            "--out" => {
                let path = args.next().unwrap_or_else(|| usage_error("--out needs a path"));
                out = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if gate {
        run_gate(check, candidate);
    }

    let doc = run_snapshot(&spec);
    if doc.contains_null() {
        // Json::num renders non-finite values as null; a null anywhere
        // means a measurement produced inf/NaN and the snapshot is unfit
        // to join the trajectory.
        eprintln!("bench_snapshot: snapshot contains a non-finite measurement; not writing");
        std::process::exit(1);
    }

    let path = out.unwrap_or_else(|| next_snapshot_path(&PathBuf::from(".")));
    write_atomic(&path, &doc.to_pretty()).unwrap_or_else(|e| {
        eprintln!("bench_snapshot: cannot write {}: {e}", path.display());
        std::process::exit(1);
    });

    let mode = doc.get("mode").and_then(|m| m.as_str()).unwrap_or("?");
    println!("wrote {} (mode: {mode})", path.display());
    for section in ["latency_us", "throughput", "shard_scaling"] {
        if let Some(obj) = doc.get(section).and_then(|s| s.as_object()) {
            for (name, value) in obj {
                match value {
                    v if v.as_f64().is_some() => {
                        println!("  {section}.{name} = {:.1}", v.as_f64().unwrap());
                    }
                    v => {
                        if let Some(p50) = v.at(&["p50"]).and_then(|p| p.as_f64()) {
                            println!("  {section}.{name}.p50 = {p50:.1} us");
                        }
                    }
                }
            }
        }
    }
}
