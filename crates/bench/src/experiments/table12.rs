//! Table XII: published RPC performance of other systems, with this
//! reproduction's simulated Firefly rows next to the paper's.

use crate::{emit, Args, FIREFLY_ROWS, OTHER_SYSTEMS};
use firefly_metrics::Table;
use firefly_sim::workload::{run, Procedure, WorkloadSpec};
use firefly_sim::CostModel;

fn firefly_row(cpus: usize) -> (f64, f64) {
    // Latency: 1-thread Null with the exerciser (the paper's Table XII
    // Firefly numbers come from the §5 exerciser runs).
    let lat = run(&WorkloadSpec {
        threads: 1,
        calls: 500,
        procedure: Procedure::Null,
        cost: CostModel::exerciser(),
        caller_cpus: cpus,
        server_cpus: cpus,
        background: true,
    });
    // Throughput: saturated MaxResult.
    let thr = run(&WorkloadSpec {
        threads: 5,
        calls: 1500,
        procedure: Procedure::MaxResult,
        cost: CostModel::exerciser(),
        caller_cpus: cpus,
        server_cpus: cpus,
        background: true,
    });
    (lat.mean_latency_us / 1000.0, thr.megabits_per_sec)
}

pub fn main(args: &Args) {
    let mut t = Table::new(&[
        "System",
        "Machine - Processor",
        "~MIPs",
        "Latency ms",
        "Throughput Mb/s",
    ])
    .title("Table XII: Performance of remote RPC in other systems (published values)");
    for &(sys, machine, mips, lat, thr) in OTHER_SYSTEMS {
        t.row_owned(vec![
            sys.into(),
            machine.into(),
            mips.into(),
            format!("{lat:.1}"),
            format!("{thr:.1}"),
        ]);
    }
    for (i, &(name, machine, p_lat, p_thr)) in FIREFLY_ROWS.iter().enumerate() {
        let cpus = if i == 0 { 1 } else { 5 };
        let (lat, thr) = firefly_row(cpus);
        t.row_owned(vec![
            name.into(),
            machine.into(),
            if cpus == 1 {
                "1 x 1".into()
            } else {
                "5 x 1".into()
            },
            format!("{lat:.1} (paper {p_lat})"),
            format!("{thr:.1} (paper {p_thr})"),
        ]);
    }
    emit(&t, args.mode);
    println!(
        "All measurements are inter-machine Null() over 10 Mb Ethernet \
         except Cedar (3 Mb Ethernet). The paper's point stands: \
         \"Determining a winner in the RPC sweepstakes is tricky business.\""
    );
}
