//! The registry behind `firefly-bench <experiment>`: every table of the
//! paper, the experiments beyond it, and the two jobs of the
//! performance ledger (docs/BENCH.md).

use crate::{gate, snapshot, Args};
use std::path::Path;

mod ablations;
mod improvements;
mod latency_account;
mod local_rpc;
mod multi_caller;
mod streaming;
mod table1;
mod table10;
mod table11;
mod table12;
mod table2;
mod table3;
mod table4;
mod table5;
mod table6;
mod table7;
mod table8;
mod table9;
mod throughput_vs_speed;
mod uniprocessor_bug;

/// One name the executable answers to.
pub struct Experiment {
    pub name: &'static str,
    /// One line for the listing.
    pub about: &'static str,
    pub run: fn(&Args),
}

const fn experiment(name: &'static str, about: &'static str, run: fn(&Args)) -> Experiment {
    Experiment { name, about, run }
}

/// Every experiment, in the order the listing prints them.
#[rustfmt::skip]
pub const REGISTRY: &[Experiment] = &[
    experiment("table1", "Table I: time for 10000 RPCs, 1-8 caller threads (--full)", table1::main),
    experiment("table2", "Table II: 4-byte integer arguments by value", table2::main),
    experiment("table3", "Table III: fixed-length CHAR arrays by VAR OUT", table3::main),
    experiment("table4", "Table IV: open CHAR arrays by VAR IN", table4::main),
    experiment("table5", "Table V: Text.T arguments", table5::main),
    experiment("table6", "Table VI: steps of the send+receive operation", table6::main),
    experiment("table7", "Table VII: stubs and RPC runtime for Null()", table7::main),
    experiment("table8", "Table VIII: the latency of Null() and MaxResult(b) composed", table8::main),
    experiment("table9", "Table IX: the interrupt routine across code versions", table9::main),
    experiment("table10", "Table X: Null() with varying processor counts", table10::main),
    experiment("table11", "Table XI: MaxResult(b) throughput with varying processor counts", table11::main),
    experiment("table12", "Table XII: remote RPC in other systems", table12::main),
    experiment("improvements", "Section 4.2: the eight speculated improvements", improvements::main),
    experiment("ablations", "Section 3.2: what each fast-path feature buys", ablations::main),
    experiment("multi_caller", "several caller machines against one server", multi_caller::main),
    experiment("streaming", "Section 5's conjecture: a streaming bulk-data protocol", streaming::main),
    experiment("throughput_vs_speed", "Section 6's footnote: throughput against processor speed", throughput_vs_speed::main),
    experiment("uniprocessor_bug", "Section 5's uniprocessor pathology on the real stack", uniprocessor_bug::main),
    experiment("local_rpc", "local against remote Null() on the real stack", local_rpc::main),
    experiment("latency_account", "the real stack's own Tables VII/VIII (--smoke, --calls N, --profile, --flame)", latency_account::main),
    experiment("snapshot", "run the contract benchmark, write the next BENCH_NNNN.json here (about 7 min)", record_snapshot),
    experiment("gate", "hold [FILE], or the newest BENCH_NNNN.json here, against its predecessor", run_gate),
];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

fn usage_error(message: &str) -> ! {
    eprintln!("firefly-bench: {message}");
    std::process::exit(2);
}

/// `snapshot`: exit status 0 = written, 1 = refused or failed.
fn record_snapshot(args: &Args) {
    if !args.rest.is_empty() {
        usage_error("snapshot takes no argument");
    }
    match snapshot::record(Path::new(".")) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("firefly-bench snapshot: {e}");
            std::process::exit(1);
        }
    }
}

/// `gate [FILE]`: exit status 0 = passes (or bootstraps), 1 = a contract
/// metric is worse beyond its bound or a snapshot is unfit, 2 = usage.
fn run_gate(args: &Args) {
    let file = match args.rest.as_slice() {
        [] => None,
        [file] if !file.starts_with('-') => Some(Path::new(file)),
        _ => usage_error("gate takes at most one snapshot file"),
    };
    match gate::run(Path::new("."), file) {
        Ok((compared, report)) => {
            print!("bench gate: {compared}\n{report}");
            if !report.passed() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("bench gate: FAIL — {e}");
            std::process::exit(1);
        }
    }
}
