//! Per-call deadlines: bounding the caller's patience.

use firefly_idl::{parse_interface, Value};
use firefly_rpc::transport::LoopbackNet;
use firefly_rpc::{Config, Endpoint, RpcError, ServiceBuilder};
use std::time::Duration;

fn slow_pair() -> (
    std::sync::Arc<Endpoint>,
    std::sync::Arc<Endpoint>,
    firefly_rpc::Client,
) {
    let iface = parse_interface(
        "DEFINITION MODULE Slow;
           PROCEDURE Nap(ms: INTEGER): INTEGER;
         END Slow.",
    )
    .unwrap();
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Nap", |args, w| {
            let ms = args[0].value().and_then(Value::as_integer).unwrap_or(0);
            std::thread::sleep(Duration::from_millis(ms as u64));
            w.next_value(&Value::Integer(ms))?;
            Ok(())
        })
        .build()
        .unwrap();
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::fast_retry()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::fast_retry()).unwrap();
    server.export(service).unwrap();
    let client = caller.bind(&iface, server.address()).unwrap();
    (server, caller, client)
}

#[test]
fn deadline_expires_on_a_slow_server() {
    let (_server, _caller, client) = slow_pair();
    let nap = Duration::from_secs(2);
    let start = std::time::Instant::now();
    let args = [Value::Integer(nap.as_millis() as i32)];
    let err = client
        .call_with_deadline("Nap", &args, Duration::from_millis(80))
        .expect_err("deadline must fire");
    assert!(matches!(err, RpcError::DeadlineExceeded), "{err}");
    // The bound only tells "the 80 ms deadline fired" from "the call
    // waited the nap out", so a stalled host cannot trip it.
    assert!(
        start.elapsed() < nap / 2,
        "the call waited the nap out: {:?}",
        start.elapsed()
    );
}

#[test]
fn fast_calls_beat_their_deadline() {
    let (_server, _caller, client) = slow_pair();
    let r = client
        .call_with_deadline("Nap", &[Value::Integer(1)], Duration::from_secs(5))
        .unwrap();
    assert_eq!(r[0], Value::Integer(1));
}

#[test]
fn activity_recovers_after_a_deadline() {
    // A timed-out call abandons its activity slot safely; subsequent
    // calls on the same client still work (the server's late result is
    // orphaned and recycled).
    let (_server, caller, client) = slow_pair();
    let _ = client.call_with_deadline("Nap", &[Value::Integer(300)], Duration::from_millis(30));
    let r = client.call("Nap", &[Value::Integer(2)]).unwrap();
    assert_eq!(r[0], Value::Integer(2));
    // The late result from the first call was dropped as an orphan (or is
    // still in flight; give it a moment and check nothing wedged).
    std::thread::sleep(Duration::from_millis(400));
    let r = client.call("Nap", &[Value::Integer(3)]).unwrap();
    assert_eq!(r[0], Value::Integer(3));
    assert!(caller.stats().calls_completed() >= 2);
}
