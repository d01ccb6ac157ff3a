//! The RPC Exerciser: the measurement program behind Tables I, X and XI,
//! run against the **real** Rust stack over UDP on this machine.
//!
//! Like the paper's §2.1, it times N caller threads making a total of K
//! calls to `Null()` and `MaxResult(b)` and reports elapsed seconds,
//! RPCs/second, and megabits/second of useful payload.
//!
//! Run with `cargo run --release --example rpc_exerciser [-- calls-per-config]`.

#![forbid(unsafe_code)]

use firefly::idl::{test_interface, Value};
use firefly::metrics::table::fnum;
use firefly::metrics::{megabits_per_sec, rpcs_per_sec, Stopwatch, Table};
use firefly::rpc::trace::{step_table, TraceReport};
use firefly::rpc::transport::UdpTransport;
use firefly::rpc::{Client, Config, Endpoint, ServiceBuilder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn run_threads(client: &Client, threads: usize, total: u64, proc_name: &'static str) -> f64 {
    let remaining = Arc::new(AtomicU64::new(total));
    let w = Stopwatch::start();
    let mut handles = Vec::new();
    for _ in 0..threads {
        let client = client.clone();
        let remaining = Arc::clone(&remaining);
        handles.push(std::thread::spawn(move || loop {
            // Claim one call from the shared budget, like the paper's
            // "total of 10000 RPCs using various numbers of caller
            // threads".
            if remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                .is_err()
            {
                return;
            }
            let args = if proc_name == "Null" {
                vec![]
            } else {
                vec![Value::char_array(1440)]
            };
            client.call(proc_name, &args).expect("call");
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    w.elapsed().as_secs_f64()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let total: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);

    // Tracing on: the exerciser doubles as the paper's instrumented
    // run, so each procedure also gets a per-step histogram table.
    let server = Endpoint::new(UdpTransport::localhost()?, Config::traced())?;
    let caller = Endpoint::new(UdpTransport::localhost()?, Config::traced())?;
    let service = ServiceBuilder::new(test_interface())
        .on_call("Null", |_a, _w| Ok(()))
        .on_call("MaxResult", |_a, w| {
            w.next_bytes(1440)?.fill(0);
            Ok(())
        })
        .on_call("MaxArg", |args, _w| {
            debug_assert_eq!(args[0].bytes().map(<[u8]>::len), Some(1440));
            Ok(())
        })
        .build()?;
    server.export(service)?;
    let client = caller.bind(&test_interface(), server.address())?;

    let mut t = Table::new(&[
        "# of caller threads",
        "Null secs",
        "Null RPCs/s",
        "MaxResult secs",
        "MaxResult Mb/s",
    ])
    .title(format!("Time for {total} RPCs over real UDP (this machine)").as_str());

    // Per-procedure traces, merged across all thread counts. Draining
    // between procedures keeps Null and MaxResult records separate —
    // their step latencies differ by the 1440-byte result transfer.
    let mut null_report = TraceReport::empty();
    let mut max_report = TraceReport::empty();
    let drain_into = |report: &mut TraceReport| {
        report.merge(&caller.trace_report());
        report.merge(&server.trace_report());
    };
    for threads in 1..=8usize {
        let null_secs = run_threads(&client, threads, total, "Null");
        drain_into(&mut null_report);
        let max_secs = run_threads(&client, threads, total, "MaxResult");
        drain_into(&mut max_report);
        t.row_owned(vec![
            threads.to_string(),
            format!("{null_secs:.2}"),
            format!("{:.0}", rpcs_per_sec(total, null_secs)),
            format!("{max_secs:.2}"),
            format!("{:.2}", megabits_per_sec(total, 1440, max_secs)),
        ]);
    }
    println!("{t}");
    for (name, report) in [("Null", &null_report), ("MaxResult", &max_report)] {
        for (role, side) in [(&report.caller, "caller"), (&report.server, "server")] {
            let title = format!("{name}: {side} steps ({} records)", role.records);
            let mut t = step_table(&title, "Step", role);
            t.row(&["TOTAL (step sum)", &fnum(role.accounted_mean_us(), 2)]);
            println!("{t}");
        }
    }
    println!(
        "retransmissions: {}, slow-path queueing: {}",
        caller.stats().retransmissions(),
        server.stats().slow_path_queued()
    );
    println!(
        "(Compare shapes with the paper's Table I: latency improves with \
         threads until a bottleneck resource saturates.)"
    );
    Ok(())
}
