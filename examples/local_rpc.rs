//! Local RPC: the paper's same-machine shared-memory transport, which
//! made `Null()` cost 937 µs against 2661 µs remote (§2.2, footnote 1).
//!
//! The same stubs serve both transports; only the Transporter differs —
//! exactly the paper's design. This example measures both on this
//! machine and prints the ratio.
//!
//! Run with `cargo run --release --example local_rpc`.

use firefly::generated::TestClient;
use firefly::idl::{test_interface, Value};
use firefly::metrics::Stopwatch;
use firefly::rpc::transport::LoopbackNet;
use firefly::rpc::{Config, Endpoint, ServiceBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default())?;
    let caller = Endpoint::new(net.station(2), Config::default())?;

    let service = ServiceBuilder::new(test_interface())
        .on_call("Null", |_a, _w| Ok(()))
        .on_call("MaxResult", |_a, w| {
            w.next_bytes(1440)?.fill(7);
            Ok(())
        })
        .on_call("MaxArg", |_a, _w| Ok(()))
        .build()?;
    server.export(service)?;

    // Transport choice happens at bind time (§3.1): the same interface,
    // bound once remotely and once through shared memory.
    let remote = caller.bind(&test_interface(), server.address())?;
    let local = server.bind_local(&test_interface())?;

    let iters = 20_000;
    let w = Stopwatch::start();
    for _ in 0..iters {
        local.call("Null", &[])?;
    }
    let local_us = w.elapsed_micros() / iters as f64;

    // The generated caller stub wraps either binding; it marshals by
    // direct assignment instead of through `Value`s.
    let typed = TestClient::new(local.clone());
    let w = Stopwatch::start();
    for _ in 0..iters {
        typed.null()?;
    }
    let typed_us = w.elapsed_micros() / iters as f64;

    let iters_remote = 5_000;
    let w = Stopwatch::start();
    for _ in 0..iters_remote {
        remote.call("Null", &[])?;
    }
    let remote_us = w.elapsed_micros() / iters_remote as f64;

    println!("local  Null(): {local_us:.2} µs/call   (paper, MicroVAX II: 937 µs)");
    println!("local  Null(): {typed_us:.2} µs/call   through the generated typed stub");
    println!("remote Null(): {remote_us:.2} µs/call   (paper, MicroVAX II: 2661 µs)");
    println!(
        "remote/local ratio: {:.1}x   (paper: {:.1}x)",
        remote_us / local_us,
        2661.0 / 937.0
    );

    // VAR OUT zero-copy works identically on both transports.
    let r = local.call("MaxResult", &[Value::char_array(1440)])?;
    assert_eq!(r[0].as_bytes().unwrap(), &[7u8; 1440][..]);
    let r = remote.call("MaxResult", &[Value::char_array(1440)])?;
    assert_eq!(r[0].as_bytes().unwrap(), &[7u8; 1440][..]);
    assert_eq!(typed.max_result()?, [7u8; 1440]);
    assert_eq!(TestClient::new(remote).max_result()?, [7u8; 1440]);
    println!("MaxResult round-trips verified on both transports");
    Ok(())
}
