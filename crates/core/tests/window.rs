//! The one way a multi-packet body moves, in both directions: a window of
//! fragments in flight, acks only at a window's edge, and a loss costing
//! the hole, not the window (`fragment::Window`). Exact on a clean
//! network; byte-exact, exactly-once and leak-free on a lossy,
//! duplicating one.

use firefly_idl::{parse_interface, test_interface, Value};
use firefly_propcheck::{check, prop_assert_eq};
use firefly_rpc::fragment::WINDOW;
use firefly_rpc::transport::{FaultPlan, LoopbackNet};
use firefly_rpc::{Config, Endpoint, ServiceBuilder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Echo {
    // Dropped in this order: the client, then the endpoints.
    client: firefly_rpc::Client,
    caller: Arc<Endpoint>,
    server: Arc<Endpoint>,
    executed: Arc<AtomicU64>,
}

fn echo_setup(net: &LoopbackNet, cfg: Config) -> Echo {
    let iface = parse_interface(
        "DEFINITION MODULE Echo;
           PROCEDURE Blob(VAR IN data: ARRAY OF CHAR; VAR OUT copy: ARRAY OF CHAR);
         END Echo.",
    )
    .unwrap();
    let executed = Arc::new(AtomicU64::new(0));
    let count = Arc::clone(&executed);
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Blob", move |args, w| {
            count.fetch_add(1, Ordering::Relaxed);
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
    Echo {
        server,
        caller,
        client,
        executed,
    }
}

fn echo(client: &firefly_rpc::Client, size: usize) -> Vec<u8> {
    let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
    let r = client
        .call(
            "Blob",
            &[Value::Bytes(data.clone()), Value::Bytes(Vec::new())],
        )
        .unwrap();
    assert_eq!(r[0].as_bytes().unwrap(), &data[..], "size {size}");
    data
}

#[test]
fn a_clean_transfer_asks_for_an_ack_only_at_each_windows_edge() {
    let cfg = Config {
        retransmit_initial: Duration::from_secs(5),
        ..Config::default()
    };
    let net = LoopbackNet::new();
    let e = echo_setup(&net, cfg);
    let w = usize::from(WINDOW);
    // Fragments each way, and the window edges that are not the last
    // fragment (each asks once, in each direction).
    for (fragments, edges) in [(2, 0), (4, 0), (w, 0), (w + 1, 1), (2 * w + 3, 2)] {
        let (c, s) = (e.caller.stats(), e.server.stats());
        let before = (
            c.fragments_sent(),
            s.fragments_sent(),
            c.acks_sent(),
            s.acks_sent(),
        );
        echo(&e.client, (fragments - 1) * 1440 + 7);
        let after = (
            c.fragments_sent(),
            s.fragments_sent(),
            c.acks_sent(),
            s.acks_sent(),
        );
        let f = fragments as u64;
        let a = edges as u64;
        assert_eq!(
            (
                after.0 - before.0,
                after.1 - before.1,
                after.2 - before.2,
                after.3 - before.3
            ),
            (f, f, a, a),
            "{fragments} fragments"
        );
    }
    assert_eq!(
        e.caller.stats().retransmissions() + e.server.stats().retransmissions(),
        0
    );
}

#[test]
fn a_single_packet_call_takes_no_window() {
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
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
    client
        .call("MaxResult", &[Value::char_array(1440)])
        .unwrap();
    assert_eq!(
        caller.stats().fragments_sent() + server.stats().fragments_sent(),
        0
    );
    assert_eq!(caller.stats().acks_sent() + server.stats().acks_sent(), 0);
}

/// Loss and duplication in both directions, over transfers of one
/// window and of several: every transfer arrives byte-exact, the
/// procedure runs once per call, and every buffer comes home.
#[test]
fn windows_survive_loss_and_duplication() {
    check("windows_survive_loss_and_duplication", 8, |g| {
        let seed = g.u64();
        let loss = g.f64_unit() * 0.10;
        let duplicate = g.f64_unit() * 0.3;
        let size = g.usize_in(1441..(3 * usize::from(WINDOW) * 1440));
        let net = LoopbackNet::with_seed(seed);
        let mut cfg = Config::fast_retry();
        cfg.max_transmissions = 40; // Chaos needs patience.
        cfg.retransmit_max = Duration::from_millis(50);
        let e = echo_setup(&net, cfg);
        net.set_faults(FaultPlan {
            loss,
            duplicate,
            corrupt: 0.0,
            delay: None,
        });
        const CALLS: u64 = 3;
        for _ in 0..CALLS {
            echo(&e.client, size);
        }
        prop_assert_eq!(
            e.executed.load(Ordering::Relaxed),
            CALLS,
            "executed more than once"
        );
        let pools = [e.server.pool().clone(), e.caller.pool().clone()];
        drop(e);
        for pool in &pools {
            prop_assert_eq!(pool.stats().outstanding(), 0, "leaked buffers at shutdown");
        }
        Ok(())
    });
}
