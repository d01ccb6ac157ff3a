//! Table XI: throughput of MaxResult(b) in megabits/second with varying
//! processor counts and 1–5 caller threads (1000 calls per thread).

use crate::{emit, Args, TABLE_XI};
use firefly_metrics::Table;
use firefly_sim::workload::{run, Procedure, WorkloadSpec};
use firefly_sim::CostModel;

pub fn main(args: &Args) {
    let configs = [(5usize, 5usize), (1, 5), (1, 1)];
    let mut t = Table::new(&[
        "caller threads",
        "5x5 Mb/s (paper)",
        "1x5 Mb/s (paper)",
        "1x1 Mb/s (paper)",
    ])
    .title("Table XI: Throughput of MaxResult(b) with varying numbers of processors");
    for threads in 1..=5usize {
        let mut cells = vec![threads.to_string()];
        for (ci, &(c, s)) in configs.iter().enumerate() {
            let r = run(&WorkloadSpec {
                threads,
                calls: 1000,
                procedure: Procedure::MaxResult,
                cost: CostModel::exerciser(),
                caller_cpus: c,
                server_cpus: s,
                background: true,
            });
            cells.push(format!(
                "{:.1} ({:.1})",
                r.megabits_per_sec,
                TABLE_XI[ci][threads - 1]
            ));
        }
        t.row_owned(cells);
    }
    emit(&t, args.mode);
    println!(
        "Shape check: \"Uniprocessor throughput is slightly more than half \
         of 5 processor performance for the same number of caller threads.\""
    );
}
