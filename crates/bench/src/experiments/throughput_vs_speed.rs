//! §6's footnote: "we noticed that throughput has remained the same as
//! the last few performance improvements were put in place. The CPU
//! utilization continued to drop as the code got faster." — because the
//! controller, not the software, limits saturation throughput.
//!
//! We sweep a software-speed factor over the cost model and report
//! saturated MaxResult throughput and caller CPU utilization.

use crate::{emit, Args};
use firefly_metrics::Table;
use firefly_sim::workload::{run, Procedure, WorkloadSpec};
use firefly_sim::CostModel;

/// Scales every software cost by `k` (1.0 = the shipped assembly code;
/// >1 = slower, <1 = faster than shipped).
fn scaled(k: f64) -> CostModel {
    let mut m = CostModel::paper();
    for f in [
        &mut m.sender_header,
        &mut m.checksum_small,
        &mut m.checksum_large,
        &mut m.trap,
        &mut m.queue_packet,
        &mut m.ipi_handler,
        &mut m.activate_controller,
        &mut m.io_interrupt,
        &mut m.rx_interrupt,
        &mut m.wakeup,
        &mut m.caller_loop,
        &mut m.caller_stub,
        &mut m.starter,
        &mut m.transporter_send,
        &mut m.receiver_recv,
        &mut m.server_stub,
        &mut m.null_proc,
        &mut m.receiver_send,
        &mut m.transporter_recv,
        &mut m.ender,
        &mut m.residual,
        &mut m.marshal_scale,
    ] {
        *f *= k;
    }
    m
}

pub fn main(args: &Args) {
    let mut t = Table::new(&[
        "software speed vs shipped",
        "MaxResult Mb/s (4 threads)",
        "caller CPUs used",
    ])
    .title("Section 6 footnote: throughput flat, CPU use dropping, as code gets faster");
    let mut last_mb = 0.0;
    for (label, k) in [
        ("3x slower (early Modula-2+)", 3.0),
        ("2x slower", 2.0),
        ("shipped (assembly)", 1.0),
        ("1.5x faster", 1.0 / 1.5),
        ("3x faster", 1.0 / 3.0),
    ] {
        let r = run(&WorkloadSpec {
            threads: 4,
            calls: 2000,
            procedure: Procedure::MaxResult,
            cost: scaled(k),
            ..WorkloadSpec::default()
        });
        t.row_owned(vec![
            label.into(),
            format!("{:.2}", r.megabits_per_sec),
            format!("{:.2}", r.caller_cpus_used),
        ]);
        last_mb = r.megabits_per_sec;
    }
    emit(&t, args.mode);
    println!(
        "Once the software is fast enough, throughput pins at the \
         controller's limit (~{last_mb:.1} Mb/s here) and further code \
         speedups only reduce CPU utilization — exactly the paper's \
         observation."
    );
}
