//! §5's pathology, reproduced on the real stack: "The good multiprocessor
//! code tends to lose about 1 packet/second when a single thread calls
//! Null() using uniprocessors, producing a penalty of about 600
//! milliseconds waiting for a retransmission to occur" — so calls
//! averaged ~20 ms until the statement order was fixed.
//!
//! We reproduce the mechanism: inject a small packet-loss rate and use
//! the historical 600 ms retransmission timeout; mean latency explodes by
//! orders of magnitude even though the loss rate is tiny. The "fix"
//! (losing no packets) restores microsecond latency.

use crate::{emit, Args};
use firefly_idl::test_interface;
use firefly_metrics::{Histogram, Stopwatch, Table};
use firefly_rpc::transport::{FaultPlan, LoopbackNet};
use firefly_rpc::{Config, Endpoint, ServiceBuilder};
use std::time::Duration;

pub fn main(args: &Args) {
    let net = LoopbackNet::new();
    // The historical retransmission timeout: ~600 ms.
    let cfg = Config {
        retransmit_initial: Duration::from_millis(600),
        ..Config::default()
    };
    let server = Endpoint::new(net.station(1), cfg.clone()).unwrap();
    let caller = Endpoint::new(net.station(2), cfg).unwrap();
    let service = ServiceBuilder::new(test_interface())
        .on_call("Null", |_a, _w| Ok(()))
        .on_call("MaxResult", |_a, _w| Ok(()))
        .on_call("MaxArg", |_a, _w| Ok(()))
        .build()
        .unwrap();
    server.export(service).unwrap();
    let client = caller.bind(&test_interface(), server.address()).unwrap();

    let mut t = Table::new(&["Condition", "calls", "mean µs", "p99 µs", "retransmissions"])
        .title("Section 5: the swapped-lines bug (lost packet + 600 ms retransmit)");

    for (label, loss, calls) in [
        ("fixed code (no loss)", 0.0, 2000u64),
        ("buggy code (~1 pkt/s lost)", 0.004, 400),
    ] {
        net.set_faults(FaultPlan {
            loss,
            ..FaultPlan::default()
        });
        let mut h = Histogram::new();
        let before = caller.stats().retransmissions();
        for _ in 0..calls {
            let w = Stopwatch::start();
            client.call("Null", &[]).unwrap();
            h.record(w.elapsed_micros());
        }
        let retr = caller.stats().retransmissions() - before;
        t.row_owned(vec![
            label.into(),
            calls.to_string(),
            format!("{:.0}", h.mean()),
            format!("{:.0}", h.percentile(99.0)),
            retr.to_string(),
        ]);
    }
    emit(&t, args.mode);
    println!(
        "The paper measured ~20 ms average Null() latency under this bug \
         against ~2.7 ms fixed — a tiny loss rate is catastrophic when \
         the retransmission timeout is 600 ms. \"Fixing the problem \
         requires swapping the order of a few statements at a penalty of \
         about 100 microseconds for multiprocessor latency.\""
    );
}
