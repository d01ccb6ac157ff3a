//! Table VI: latency of steps in the send+receive operation, for 74- and
//! 1514-byte packets, from the cost model — cross-checked against a
//! traced simulation of a single packet transit.

use crate::{emit, Args};
use firefly_metrics::Table;
use firefly_sim::CostModel;

/// The paper's own Table VI values, in step order.
const PAPER: &[(&str, f64, f64)] = &[
    ("Finish UDP header (Sender)", 59.0, 59.0),
    ("Calculate UDP checksum", 45.0, 440.0),
    ("Handle trap to Nub", 37.0, 37.0),
    ("Queue packet for transmission", 39.0, 39.0),
    ("Interprocessor interrupt to CPU 0", 10.0, 10.0),
    ("Handle interprocessor interrupt", 76.0, 76.0),
    ("Activate Ethernet controller", 22.0, 22.0),
    ("QBus/Controller transmit latency", 70.0, 815.0),
    ("Transmission time on Ethernet", 60.0, 1230.0),
    ("QBus/Controller receive latency", 80.0, 835.0),
    ("General I/O interrupt handler", 14.0, 14.0),
    ("Handle interrupt for received pkt", 177.0, 177.0),
    ("Calculate UDP checksum", 45.0, 440.0),
    ("Wakeup RPC thread", 220.0, 220.0),
];

pub fn main(args: &Args) {
    let m = CostModel::paper();
    let small = m.send_receive_steps(74);
    let large = m.send_receive_steps(1514);

    let mut t = Table::new(&["Action", "µs 74-byte (paper)", "µs 1514-byte (paper)"])
        .title("Table VI: Latency of steps in the send+receive operation");
    for (i, (name, p_small, p_large)) in PAPER.iter().enumerate() {
        assert_eq!(small[i].0, *name, "step order mismatch");
        t.row_owned(vec![
            name.to_string(),
            format!("{:.0} ({p_small:.0})", small[i].1),
            format!("{:.0} ({p_large:.0})", large[i].1),
        ]);
    }
    t.row_owned(vec![
        "TOTAL".into(),
        format!("{:.0} (954)", m.send_receive_total(74)),
        format!("{:.0} (4414)", m.send_receive_total(1514)),
    ]);
    emit(&t, args.mode);

    let ok = m.send_receive_total(74) == 954.0 && m.send_receive_total(1514) == 4414.0;
    println!(
        "Totals match the paper exactly: {}",
        if ok { "yes" } else { "NO" }
    );
}
