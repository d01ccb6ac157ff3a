//! Table X: 1000 calls to Null() with varying processor counts, using the
//! RPC Exerciser (hand stubs, §5's swapped-lines fix installed).

use crate::{emit, vs, Args, TABLE_X};
use firefly_metrics::Table;
use firefly_sim::workload::{run, Procedure, WorkloadSpec};
use firefly_sim::CostModel;

pub fn main(args: &Args) {
    let mut t = Table::new(&[
        "caller processors",
        "server processors",
        "seconds for 1000 calls (paper)",
    ])
    .title("Table X: Calls to Null() with varying numbers of processors");
    for &(c, s, paper) in TABLE_X {
        let r = run(&WorkloadSpec {
            threads: 1,
            calls: 1000,
            procedure: Procedure::Null,
            cost: CostModel::exerciser(),
            caller_cpus: c,
            server_cpus: s,
            background: true,
        });
        t.row_owned(vec![c.to_string(), s.to_string(), vs(r.seconds, paper, 2)]);
    }
    emit(&t, args.mode);
    println!(
        "Shape check: the paper's signature is a gentle slope from 5 to 2 \
         caller CPUs and a sharp jump at 1 (the uniprocessor scheduler \
         path), with 1x1 about 75% slower than 5x5."
    );
}
