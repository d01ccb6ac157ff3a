//! Local (same-machine) RPC: the paper's footnote gives 937 µs for a
//! local `Null()` against 2661 µs remote — a 2.8x ratio. This experiment
//! measures the real Rust stack's local (shared-memory) and remote
//! (loopback) transports and compares the ratio.

use crate::{emit, time_ns, Args};
use firefly_idl::{test_interface, ArgReader, Value};
use firefly_metrics::Table;
use firefly_rpc::transport::LoopbackNet;
use firefly_rpc::{Config, Endpoint, ServiceBuilder};

fn service() -> std::sync::Arc<dyn firefly_rpc::Service> {
    ServiceBuilder::new(test_interface())
        .on_call("Null", |_a, _w| Ok(()))
        .on_call("MaxResult", |_a, w| {
            w.next_bytes(1440)?.fill(0);
            Ok(())
        })
        .on_call("MaxArg", |_a, _w| Ok(()))
        .build()
        .unwrap()
}

pub fn main(args: &Args) {
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    server.export(service()).unwrap();

    // Remote transport: full protocol over the loopback Ethernet.
    let remote = caller.bind(&test_interface(), server.address()).unwrap();
    // Local transport: shared-memory, same stubs (bound on the server
    // endpoint itself, where the service lives).
    let local = server.bind_local(&test_interface()).unwrap();

    // Each transport is driven twice: through the dynamic API (`call`,
    // a `Vec<Value>` each way) and through `call_with`, the primitive
    // under it and under every generated stub, reading the result in
    // place into the caller's variable.
    let null = test_interface().procedure("Null").unwrap().index();
    let max_result = test_interface().procedure("MaxResult").unwrap().index();
    let no_args = [Value::char_array(0)];
    let variable = std::cell::RefCell::new(Vec::with_capacity(1440));
    let into_variable = |r: &mut ArgReader<'_>| {
        let mut v = variable.borrow_mut();
        v.clear();
        v.extend_from_slice(r.rest());
        Ok(())
    };
    // Microseconds per call: the best of three rounds, so that a host
    // hiccup in one round does not decide a row.
    let us = |iters: u32, f: &mut dyn FnMut()| {
        (0..3)
            .map(|_| time_ns(iters, &mut *f) / 1e3)
            .fold(f64::MAX, f64::min)
    };
    let rows: [(&str, f64, f64); 4] = [
        (
            "Remote (loopback Ethernet), dynamic",
            us(5_000, &mut || drop(remote.call_index(null, &[]).unwrap())),
            us(5_000, &mut || {
                drop(remote.call_index(max_result, &no_args).unwrap())
            }),
        ),
        (
            "Remote (loopback Ethernet), typed",
            us(5_000, &mut || {
                remote.call_with(null, |_w| Ok(()), |_r| Ok(())).unwrap()
            }),
            us(5_000, &mut || {
                remote
                    .call_with(max_result, |_w| Ok(()), into_variable)
                    .unwrap()
            }),
        ),
        (
            "Local (shared memory), dynamic",
            us(200_000, &mut || drop(local.call_index(null, &[]).unwrap())),
            us(200_000, &mut || {
                drop(local.call_index(max_result, &no_args).unwrap())
            }),
        ),
        (
            "Local (shared memory), typed",
            us(200_000, &mut || {
                local.call_with(null, |_w| Ok(()), |_r| Ok(())).unwrap()
            }),
            us(200_000, &mut || {
                local
                    .call_with(max_result, |_w| Ok(()), into_variable)
                    .unwrap()
            }),
        ),
    ];

    let mut t = Table::new(&["Transport, stubs", "Null µs", "MaxResult µs"])
        .title("Local vs remote RPC on the real Rust stack (this machine)");
    for (name, null_us, max_us) in rows {
        t.row_owned(vec![
            name.into(),
            format!("{null_us:.2}"),
            format!("{max_us:.2}"),
        ]);
    }
    emit(&t, args.mode);
    let (remote_null, local_null, local_max) = (rows[1].1, rows[3].1, rows[3].2);
    println!(
        "Remote/local Null ratio (typed): {:.1}x (paper: 2661/937 = {:.1}x)",
        remote_null / local_null,
        2661.0 / 937.0
    );
    println!(
        "Paper: \"the time for local transport is independent of packet \
         size\" — local MaxResult/Null = {:.1}x here (dominated by the \
         single 1440-byte copy back to the caller).",
        local_max / local_null
    );
}
