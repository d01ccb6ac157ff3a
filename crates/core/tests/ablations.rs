//! The measured §4.2 ablation toggle: fragment-window blasting (the
//! batching direction of §4.2.5). It is a bench knob, but it must be a
//! *correct* knob — every protocol guarantee holds with it on.

use firefly_idl::{parse_interface, test_interface, Value};
use firefly_propcheck::{check, prop_assert_eq};
use firefly_rpc::transport::{FaultPlan, LoopbackNet};
use firefly_rpc::{Config, Endpoint, ServiceBuilder};
use std::sync::Arc;
use std::time::Duration;

fn echo_setup(net: &LoopbackNet, cfg: Config) -> (Arc<Endpoint>, Arc<Endpoint>, firefly_rpc::Client) {
    let iface = parse_interface(
        "DEFINITION MODULE Echo;
           PROCEDURE Twice(n: INTEGER): INTEGER;
           PROCEDURE Blob(VAR IN data: ARRAY OF CHAR; VAR OUT copy: ARRAY OF CHAR);
         END Echo.",
    )
    .unwrap();
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Twice", |args, w| {
            let n = args[0].value().and_then(Value::as_integer).unwrap();
            w.next_value(&Value::Integer(n.wrapping_mul(2)))?;
            Ok(())
        })
        .on_call("Blob", |args, w| {
            let data = args[0].bytes().unwrap();
            w.next_bytes(data.len())?.copy_from_slice(data);
            Ok(())
        })
        .build()
        .unwrap();
    let server = Endpoint::new(net.station(1), cfg.clone()).unwrap();
    let caller = Endpoint::new(net.station(2), cfg).unwrap();
    server.export(service).unwrap();
    let client = caller.bind(&iface, server.address()).unwrap();
    (server, caller, client)
}

#[test]
fn blast_transfers_are_byte_exact() {
    let net = LoopbackNet::new();
    let (_server, caller_ep, client) = echo_setup(&net, Config::batched_fragments());
    for size in [1441usize, 4000, 11_520] {
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let r = client
            .call("Blob", &[Value::Bytes(data.clone()), Value::Bytes(Vec::new())])
            .unwrap();
        assert_eq!(r[0].as_bytes().unwrap(), &data[..], "size {size}");
    }
    // A blasted window still counts every fragment sent: the three
    // transfers need 2 + 3 + 8 call fragments, and a clean loopback
    // never re-blasts.
    assert_eq!(caller_ep.stats().fragments_sent(), 13);
    assert_eq!(caller_ep.stats().retransmissions(), 0);
}

#[test]
fn blast_single_packet_calls_take_the_ordinary_path() {
    // Blasting only changes multi-fragment windows; Null() stays on the
    // single-packet fast path.
    let net = LoopbackNet::new();
    let server_cfg = Config::batched_fragments();
    let server = Endpoint::new(net.station(1), server_cfg.clone()).unwrap();
    let caller = Endpoint::new(net.station(2), server_cfg).unwrap();
    let service = ServiceBuilder::new(test_interface())
        .on_call("Null", |_a, _w| Ok(()))
        .on_call("MaxResult", |_a, w| {
            w.next_bytes(1440)?.fill(0xab);
            Ok(())
        })
        .on_call("MaxArg", |_a, _w| Ok(()))
        .build()
        .unwrap();
    server.export(service).unwrap();
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    client.call("Null", &[]).unwrap();
    assert_eq!(caller.stats().fragments_sent(), 0);
}

/// The re-blast recovery loop: a lossy, duplicating network must still
/// deliver blasted windows byte-exactly (the whole window is resent on
/// timeout and server reassembly is idempotent).
#[test]
fn blast_survives_fault_mix() {
    check("blast_survives_fault_mix", 6, |g| {
        let seed = g.u64();
        let loss = g.f64_unit() * 0.10;
        let duplicate = g.f64_unit() * 0.3;
        let size = g.usize_in(2000..9000);
        let net = LoopbackNet::with_seed(seed);
        let mut cfg = Config::fast_retry();
        cfg.fragment_blast = true;
        cfg.max_transmissions = 40; // Chaos needs patience.
        cfg.retransmit_max = Duration::from_millis(50);
        let (_server, _caller_ep, client) = echo_setup(&net, cfg);
        net.set_faults(FaultPlan {
            loss,
            duplicate,
            corrupt: 0.0,
            delay: None,
        });
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let r = client
            .call("Blob", &[Value::Bytes(data.clone()), Value::Bytes(Vec::new())])
            .unwrap();
        prop_assert_eq!(r[0].as_bytes().unwrap(), &data[..]);
        Ok(())
    });
}
