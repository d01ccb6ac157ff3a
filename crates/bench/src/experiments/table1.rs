//! Table I: Time for 10000 RPCs, 1–8 caller threads.
//!
//! Runs the closed-loop workload on the Firefly simulator and prints the
//! reproduction next to the paper's values. (The real stack's one- and
//! two-caller rates are `null_1c` / `null_2c` in the committed
//! `BENCH_NNNN.json`; no more callers than processors are ever run.)

use crate::{emit, vs, Args, TABLE_I};
use firefly_metrics::Table;
use firefly_sim::workload::{run, Procedure, WorkloadSpec};

pub fn main(args: &Args) {
    let calls: u64 = if args.flag("--full") { 10_000 } else { 2_000 };
    let scale = 10_000.0 / calls as f64;

    let mut t = Table::new(&[
        "# of caller threads",
        "Null secs (paper)",
        "Null RPCs/s (paper)",
        "MaxResult secs (paper)",
        "MaxResult Mb/s (paper)",
    ])
    .title("Table I: Time for 10000 RPCs (simulated vs paper)");

    for &(threads, p_ns, p_rps, p_ms, p_mb) in TABLE_I {
        let rn = run(&WorkloadSpec {
            threads,
            calls,
            procedure: Procedure::Null,
            ..WorkloadSpec::default()
        });
        let rm = run(&WorkloadSpec {
            threads,
            calls,
            procedure: Procedure::MaxResult,
            ..WorkloadSpec::default()
        });
        t.row_owned(vec![
            threads.to_string(),
            vs(rn.seconds * scale, p_ns, 2),
            vs(rn.rpcs_per_sec, p_rps, 0),
            vs(rm.seconds * scale, p_ms, 2),
            vs(rm.megabits_per_sec, p_mb, 2),
        ]);
    }
    emit(&t, args.mode);

    // The §2.1 CPU-utilization note: ~1.2 CPUs on the caller at max
    // throughput, slightly less on the server, ~0.15 idle.
    let peak = run(&WorkloadSpec {
        threads: 4,
        calls,
        procedure: Procedure::MaxResult,
        ..WorkloadSpec::default()
    });
    println!(
        "At max throughput: caller {:.2} CPUs (paper ~1.2), server {:.2} (paper: slightly less)",
        peak.caller_cpus_used, peak.server_cpus_used
    );
}
