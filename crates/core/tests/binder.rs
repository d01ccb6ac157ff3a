//! Tests for the built-in binder (interface discovery) service.

use firefly_idl::{parse_interface, test_interface, Value};
use firefly_rpc::binder::{binder_interface, uid_hex};
use firefly_rpc::transport::LoopbackNet;
use firefly_rpc::{Config, Endpoint, RpcError, ServiceBuilder};
use std::sync::Arc;

fn test_service() -> Arc<dyn firefly_rpc::Service> {
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

#[test]
fn binder_answers_lookup_and_describe() {
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    server.export(test_service()).unwrap();

    let binder = caller.bind(binder_interface(), server.address()).unwrap();

    // Count includes the binder itself plus the Test interface.
    let r = binder.call("Count", &[]).unwrap();
    assert_eq!(r[0], Value::Integer(2));

    let r = binder.call("Lookup", &[Value::text("Test")]).unwrap();
    assert_eq!(r[0], Value::Boolean(true));
    let r = binder.call("Lookup", &[Value::text("Ghost")]).unwrap();
    assert_eq!(r[0], Value::Boolean(false));

    let r = binder
        .call("Describe", &[Value::text("Test"), Value::Bytes(Vec::new())])
        .unwrap();
    let hex = String::from_utf8(r[0].as_bytes().unwrap().to_vec()).unwrap();
    assert_eq!(hex, uid_hex(test_interface().uid()));
    assert_eq!(r[1], Value::Integer(1));
}

#[test]
fn a_fresh_endpoints_binder_counts_and_describes_itself() {
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    let binder = caller.bind(binder_interface(), server.address()).unwrap();

    let r = binder.call("Count", &[]).unwrap();
    assert_eq!(r[0], Value::Integer(1));
    let r = binder.call("Lookup", &[Value::text("Binder")]).unwrap();
    assert_eq!(r[0], Value::Boolean(true));
    let r = binder
        .call(
            "Describe",
            &[Value::text("Binder"), Value::Bytes(Vec::new())],
        )
        .unwrap();
    assert_eq!(
        r[0].as_bytes().unwrap(),
        uid_hex(binder_interface().uid()).as_bytes()
    );
    assert_eq!(
        r[1],
        Value::Integer(i32::from(binder_interface().version()))
    );

    // Describing a name nobody exports fails that call only.
    let err = binder
        .call(
            "Describe",
            &[Value::text("Ghost"), Value::Bytes(Vec::new())],
        )
        .unwrap_err();
    match err {
        RpcError::Remote(m) => assert!(m.contains("no interface named `Ghost`"), "{m}"),
        other => panic!("unexpected: {other}"),
    }
    server.export(test_service()).unwrap();
    assert_eq!(binder.call("Count", &[]).unwrap()[0], Value::Integer(2));
}

#[test]
fn bind_checked_accepts_matching_interface() {
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    server.export(test_service()).unwrap();
    let client = caller
        .bind_checked(&test_interface(), server.address())
        .unwrap();
    client.call("Null", &[]).unwrap();
}

#[test]
fn bind_checked_rejects_missing_interface() {
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    // Server exports nothing but the binder.
    let err = caller
        .bind_checked(&test_interface(), server.address())
        .err()
        .expect("binding a missing interface must fail");
    match err {
        RpcError::Remote(m) => assert!(m.contains("no interface named")),
        other => panic!("unexpected: {other}"),
    }
}

#[test]
fn bind_checked_rejects_signature_mismatch() {
    // The server exports a *different* interface that happens to share
    // the name "Test": the UID check catches the drift.
    let impostor = parse_interface(
        "DEFINITION MODULE Test;
           PROCEDURE Null(x: INTEGER);
         END Test.",
    )
    .unwrap();
    let service = ServiceBuilder::new(impostor)
        .on_call("Null", |_a, _w| Ok(()))
        .build()
        .unwrap();
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    server.export(service).unwrap();
    let err = caller
        .bind_checked(&test_interface(), server.address())
        .err()
        .expect("a signature mismatch must fail");
    match err {
        RpcError::Binding(m) => assert!(m.contains("signatures differ"), "{m}"),
        other => panic!("unexpected: {other}"),
    }
}

#[test]
fn binder_is_dogfood() {
    // The binder runs over the same RPC machinery it describes: calling
    // it bumps the ordinary call counters.
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    let binder = caller.bind(binder_interface(), server.address()).unwrap();
    binder.call("Count", &[]).unwrap();
    assert_eq!(caller.stats().calls_completed(), 1);
    assert_eq!(server.stats().calls_received(), 1);
}

#[test]
fn endpoint_drop_does_not_leak_via_binder() {
    // The binder holds only a weak reference to the server side; endpoint
    // teardown must complete (this test hangs or leaks otherwise).
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    server.export(test_service()).unwrap();
    drop(server);
}
