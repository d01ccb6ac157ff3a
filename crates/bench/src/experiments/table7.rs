//! Table VII: latency of stubs and RPC runtime for a call to Null()
//! (606 µs total on the MicroVAX II).

use crate::{emit, Args};
use firefly_metrics::Table;
use firefly_sim::CostModel;

pub fn main(args: &Args) {
    let m = CostModel::paper();
    let mut t = Table::new(&["Machine", "Procedure", "Microseconds"])
        .title("Table VII: Latency of stubs and RPC runtime");
    for (machine, name, us) in m.runtime_steps() {
        t.row_owned(vec![
            machine.to_string(),
            name.to_string(),
            format!("{us:.0}"),
        ]);
    }
    t.row_owned(vec![
        "".into(),
        "TOTAL".into(),
        format!("{:.0} (paper: 606)", m.runtime_total()),
    ]);
    emit(&t, args.mode);
    println!(
        "The Modula-2+ code includes 9 procedure calls at ~15 µs each — \
         about 20% of this time is calling sequence (paper §3.3)."
    );
}
