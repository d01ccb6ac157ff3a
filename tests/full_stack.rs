//! Cross-crate integration: IDL → runtime → wire, end to end over real
//! UDP and the loopback Ethernet.

use firefly::idl::{parse_interface, Value};
use firefly::rpc::transport::{FaultPlan, LoopbackNet, UdpTransport};
use firefly::rpc::{Config, Endpoint, ServiceBuilder};
use std::sync::Arc;

/// A calculator service exercising every scalar type plus Text.T.
fn calculator() -> (firefly::idl::InterfaceDef, Arc<dyn firefly::rpc::Service>) {
    let iface = parse_interface(
        "DEFINITION MODULE Calc;
           PROCEDURE Add(a, b: INTEGER): INTEGER;
           PROCEDURE Scale(x: LONGREAL; k: LONGREAL): LONGREAL;
           PROCEDURE Parity(n: CARDINAL): BOOLEAN;
           PROCEDURE Describe(n: INTEGER): Text.T;
           PROCEDURE Accumulate(VAR total: INTEGER; delta: INTEGER);
         END Calc.",
    )
    .unwrap();
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Add", |args, w| {
            let a = args[0].value().and_then(Value::as_integer).unwrap();
            let b = args[1].value().and_then(Value::as_integer).unwrap();
            w.next_value(&Value::Integer(a.wrapping_add(b)))?;
            Ok(())
        })
        .on_call("Scale", |args, w| {
            let (x, k) = match (args[0].value(), args[1].value()) {
                (Some(Value::Real(x)), Some(Value::Real(k))) => (*x, *k),
                _ => unreachable!("typed by the stub"),
            };
            w.next_value(&Value::Real(x * k))?;
            Ok(())
        })
        .on_call("Parity", |args, w| {
            let n = match args[0].value() {
                Some(Value::Cardinal(n)) => *n,
                _ => unreachable!(),
            };
            w.next_value(&Value::Boolean(n % 2 == 0))?;
            Ok(())
        })
        .on_call("Describe", |args, w| {
            let n = args[0].value().and_then(Value::as_integer).unwrap();
            if n == 0 {
                w.next_value(&Value::nil_text())?;
            } else {
                w.next_value(&Value::text(&format!("the number {n}")))?;
            }
            Ok(())
        })
        .on_call("Accumulate", |args, w| {
            let total = args[0].value().and_then(Value::as_integer).unwrap();
            let delta = args[1].value().and_then(Value::as_integer).unwrap();
            // VAR parameters travel back in the result packet.
            w.next_value(&Value::Integer(total + delta))?;
            Ok(())
        })
        .build()
        .unwrap();
    (iface, service)
}

#[test]
fn calculator_over_udp() {
    let (iface, service) = calculator();
    let server = Endpoint::new(UdpTransport::localhost().unwrap(), Config::default()).unwrap();
    let caller = Endpoint::new(UdpTransport::localhost().unwrap(), Config::default()).unwrap();
    server.export(service).unwrap();
    let c = caller.bind(&iface, server.address()).unwrap();

    let r = c
        .call("Add", &[Value::Integer(40), Value::Integer(2)])
        .unwrap();
    assert_eq!(r[0], Value::Integer(42));

    let r = c
        .call("Scale", &[Value::Real(1.5), Value::Real(-2.0)])
        .unwrap();
    assert_eq!(r[0], Value::Real(-3.0));

    let r = c.call("Parity", &[Value::Cardinal(10)]).unwrap();
    assert_eq!(r[0], Value::Boolean(true));

    let r = c.call("Describe", &[Value::Integer(7)]).unwrap();
    assert_eq!(r[0].as_text(), Some("the number 7"));
    let r = c.call("Describe", &[Value::Integer(0)]).unwrap();
    assert_eq!(r[0], Value::nil_text());

    let r = c
        .call("Accumulate", &[Value::Integer(100), Value::Integer(-1)])
        .unwrap();
    assert_eq!(r[0], Value::Integer(99));
}

/// An echo of its one argument; the counter counts executions.
fn big_echo() -> (
    firefly::idl::InterfaceDef,
    Arc<dyn firefly::rpc::Service>,
    Arc<std::sync::atomic::AtomicU64>,
) {
    let iface = parse_interface(
        "DEFINITION MODULE Big;
           PROCEDURE Echo(VAR IN input: ARRAY OF CHAR; VAR OUT output: ARRAY OF CHAR);
         END Big.",
    )
    .unwrap();
    let executed = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let count = Arc::clone(&executed);
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Echo", move |args, w| {
            count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let input = args[0].bytes().unwrap();
            w.next_bytes(input.len())?.copy_from_slice(input);
            Ok(())
        })
        .build()
        .unwrap();
    (iface, service, executed)
}

/// A server and a caller endpoint over real sockets, with patient timers:
/// on a busy machine a stalled thread must not look like a lost packet
/// to the exact counts the tests check. The sockets come along so their
/// system calls can be counted.
fn udp_pair() -> (Arc<Endpoint>, Arc<Endpoint>, [Arc<UdpTransport>; 2]) {
    let cfg = Config {
        retransmit_initial: std::time::Duration::from_secs(5),
        ..Config::default()
    };
    let sockets = [UdpTransport::localhost().unwrap(), UdpTransport::localhost().unwrap()];
    let server = Endpoint::new(sockets[0].clone(), cfg.clone()).unwrap();
    let caller = Endpoint::new(sockets[1].clone(), cfg).unwrap();
    (server, caller, sockets)
}

#[test]
fn null_echo_over_udp_is_one_datagram_each_way() {
    let (server, caller, [server_socket, caller_socket]) = udp_pair();
    let iface = firefly::idl::test_interface();
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Null", |_args, _w| Ok(()))
        .on_call("MaxResult", |_args, _w| Ok(()))
        .on_call("MaxArg", |_args, _w| Ok(()))
        .build()
        .unwrap();
    server.export(service).unwrap();
    let c = caller.bind(&iface, server.address()).unwrap();
    const CALLS: u64 = 200;
    for _ in 0..CALLS {
        c.call("Null", &[]).unwrap();
    }
    let (s, k) = (server_socket.counts(), caller_socket.counts());
    assert_eq!((k.datagrams_sent, s.datagrams_received), (CALLS, CALLS), "{k:?} {s:?}");
    assert_eq!((s.datagrams_sent, k.datagrams_received), (CALLS, CALLS), "{s:?} {k:?}");
}

#[test]
fn multi_packet_echo_over_udp() {
    // Four fragments each way over real sockets: one window each way,
    // so the whole exchange is eight fragments and not one explicit ack
    // — the Result acks the Call, the next Call acks the Result — and the
    // server parks no thread on the transfer. A window is one datagram.
    let (iface, service, _) = big_echo();
    let (server, caller, [server_socket, caller_socket]) = udp_pair();
    server.export(service).unwrap();
    let c = caller.bind(&iface, server.address()).unwrap();

    const CALLS: u64 = 200;
    for call in 0..CALLS {
        let input: Vec<u8> = (0..5760).map(|i| ((i + call) % 251) as u8).collect();
        let r = c
            .call("Echo", &[Value::Bytes(input.clone()), Value::Bytes(Vec::new())])
            .unwrap();
        assert_eq!(r[0].as_bytes().unwrap(), &input[..], "call {call}");
    }
    let (s, k) = (server.stats(), caller.stats());
    assert_eq!(s.fragments_received(), 4 * CALLS, "server stats:\n{s}");
    assert_eq!(k.fragments_sent() + s.fragments_sent(), 8 * CALLS, "server stats:\n{s}");
    assert_eq!(k.acks_sent() + s.acks_sent(), 0, "server stats:\n{s}");
    assert_eq!(s.retransmissions() + k.retransmissions(), 0, "server stats:\n{s}");
    assert_eq!(s.duplicate_calls(), 0);
    let (s, k) = (server_socket.counts(), caller_socket.counts());
    assert_eq!((k.datagrams_sent, s.datagrams_received), (CALLS, CALLS), "{k:?} {s:?}");
    assert_eq!((s.datagrams_sent, k.datagrams_received), (CALLS, CALLS), "{s:?} {k:?}");
}

#[test]
fn multi_packet_echo_under_loss_runs_once_and_leaks_nothing() {
    // Fourteen fragments each way — more than a window — through 5 %
    // loss: holes are found, sent again and filled in both directions.
    let (iface, service, executed) = big_echo();
    let net = LoopbackNet::with_seed(0x20_000);
    let server = Endpoint::new(net.station(1), Config::fast_retry()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::fast_retry()).unwrap();
    server.export(service).unwrap();
    let c = caller.bind(&iface, server.address()).unwrap();
    net.set_faults(FaultPlan {
        loss: 0.05,
        ..FaultPlan::default()
    });
    let input: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
    let r = c
        .call("Echo", &[Value::Bytes(input.clone()), Value::Bytes(Vec::new())])
        .unwrap();
    assert_eq!(r[0].as_bytes().unwrap(), &input[..]);
    assert_eq!(executed.load(std::sync::atomic::Ordering::SeqCst), 1);
    let resent = caller.stats().retransmissions() + server.stats().retransmissions();
    assert!(resent > 0, "this seed's losses needed no recovery");
    let pools = [server.pool().clone(), caller.pool().clone()];
    drop((c, caller, server));
    for pool in &pools {
        assert_eq!(pool.stats().outstanding(), 0, "leaked buffers at shutdown");
    }
}

#[test]
fn calculator_under_packet_loss() {
    let (iface, service) = calculator();
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::fast_retry()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::fast_retry()).unwrap();
    server.export(service).unwrap();
    let c = caller.bind(&iface, server.address()).unwrap();
    net.set_faults(FaultPlan {
        loss: 0.25,
        ..FaultPlan::default()
    });
    // Results must stay exactly-once-correct despite retransmission: the
    // running total from repeated Accumulate calls would expose duplicate
    // execution... which at-most-once semantics here are *per call*; the
    // observable contract is each call returns the right value.
    for i in 0..40i32 {
        let r = c
            .call("Add", &[Value::Integer(i), Value::Integer(i)])
            .unwrap();
        assert_eq!(r[0], Value::Integer(2 * i), "call {i}");
    }
    assert!(caller.stats().retransmissions() > 0);
}

#[test]
fn duplicate_calls_do_not_reexecute_handlers() {
    // The retained-result mechanism guarantees a handler runs once per
    // call sequence number even when the caller retransmits.
    use std::sync::atomic::{AtomicU64, Ordering};
    let executions = Arc::new(AtomicU64::new(0));
    let iface =
        parse_interface("DEFINITION MODULE Once; PROCEDURE Bump(): INTEGER; END Once.").unwrap();
    let ex = Arc::clone(&executions);
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Bump", move |_a, w| {
            let n = ex.fetch_add(1, Ordering::SeqCst);
            w.next_value(&Value::Integer(n as i32))?;
            Ok(())
        })
        .build()
        .unwrap();
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::fast_retry()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::fast_retry()).unwrap();
    server.export(service).unwrap();
    let c = caller.bind(&iface, server.address()).unwrap();
    // Duplicate every packet: the server sees each call at least twice.
    net.set_faults(FaultPlan {
        duplicate: 1.0,
        ..FaultPlan::default()
    });
    for i in 0..20i64 {
        let r = c.call("Bump", &[]).unwrap();
        assert_eq!(r[0], Value::Integer(i as i32), "handler re-executed");
    }
    assert_eq!(executions.load(Ordering::SeqCst), 20);
}

#[test]
fn records_travel_over_the_wire() {
    let iface = parse_interface(
        "DEFINITION MODULE Inv;
           CONST TagLen = 7;
           PROCEDURE Price(item: RECORD id: INTEGER; qty: CARDINAL END): LONGREAL;
           PROCEDURE Label(item: RECORD id: INTEGER; qty: CARDINAL END;
                           VAR OUT tag: ARRAY [0..TagLen] OF CHAR);
         END Inv.",
    )
    .unwrap();
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Price", |args, w| {
            let Some(Value::Record(f)) = args[0].value() else {
                unreachable!()
            };
            let id = f[0].as_integer().unwrap() as f64;
            let qty = match f[1] {
                Value::Cardinal(q) => q as f64,
                _ => unreachable!(),
            };
            w.next_value(&Value::Real(id * qty))?;
            Ok(())
        })
        .on_call("Label", |args, w| {
            let Some(Value::Record(f)) = args[0].value() else {
                unreachable!()
            };
            let id = f[0].as_integer().unwrap();
            let text = format!("{id:08}");
            w.next_bytes(8)?.copy_from_slice(&text.as_bytes()[..8]);
            Ok(())
        })
        .build()
        .unwrap();
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    server.export(service).unwrap();
    let c = caller.bind_checked(&iface, server.address()).unwrap();
    let item = Value::Record(vec![Value::Integer(21), Value::Cardinal(2)]);
    let r = c.call("Price", std::slice::from_ref(&item)).unwrap();
    assert_eq!(r[0], Value::Real(42.0));
    let r = c.call("Label", &[item, Value::char_array(8)]).unwrap();
    assert_eq!(r[0].as_bytes().unwrap(), b"00000021");
}

#[test]
fn umbrella_reexports_are_usable() {
    // The umbrella crate exposes every subsystem.
    let _ = firefly::wire::internet_checksum(b"x");
    let _ = firefly::pool::BufferPool::new(1);
    let _ = firefly::metrics::Histogram::new();
    let _ = firefly::idl::test_interface();
    let _ = firefly::sim::CostModel::paper();
}

#[test]
fn generated_stub_source_compiles_conceptually() {
    // The codegen output is stable, deterministic text mentioning every
    // procedure (a build.rs consumer would write it to OUT_DIR).
    let iface = firefly::idl::test_interface();
    let src = firefly::idl::codegen::rust_stubs(&iface);
    for name in ["null", "max_result", "max_arg", "TestServer", "TestClient"] {
        assert!(src.contains(name), "missing {name} in generated stubs");
    }
}

#[test]
fn an_ipv6_endpoint_calls_and_shuts_down() {
    // The receiver of a transport bound on `[::1]` could not be woken
    // for shutdown (the poison datagram came from an IPv4 socket), so
    // dropping such an endpoint joined its receiver forever.
    let v6 = || UdpTransport::bind("[::1]:0".parse().unwrap());
    let (Ok(server_socket), Ok(caller_socket)) = (v6(), v6()) else {
        eprintln!("skipped: this host has no IPv6 loopback");
        return;
    };
    let (iface, service) = calculator();
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let server = Endpoint::new(server_socket, Config::default()).unwrap();
        let caller = Endpoint::new(caller_socket, Config::default()).unwrap();
        server.export(service).unwrap();
        let c = caller.bind(&iface, server.address()).unwrap();
        let r = c
            .call("Add", &[Value::Integer(40), Value::Integer(2)])
            .unwrap();
        assert_eq!(r[0], Value::Integer(42));
        // Long enough for both receivers to run out of polls and block.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop((c, caller, server));
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("create -> call -> drop on [::1] finishes");
}
