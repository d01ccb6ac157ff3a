//! An endpoint takes its threads from the process's idle RPC threads of
//! their kind, and gives them back, holding nothing of it, at shutdown.
//!
//! The reservoir is process-wide, so these tests run one at a time: each
//! expects the idle threads the one before it left.

use firefly_idl::{parse_interface, InterfaceDef};
use firefly_rpc::transport::{LoopbackNet, Transport, UdpTransport};
use firefly_rpc::{Config, Endpoint, ServiceBuilder};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Duration;

fn one_at_a_time() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn interface() -> InterfaceDef {
    parse_interface(
        "DEFINITION MODULE Where;
           PROCEDURE Null();
           PROCEDURE Slow();
         END Where.",
    )
    .unwrap()
}

/// Which procedure ran, on which thread, under which name.
#[derive(Clone, Debug)]
struct Ran {
    slow: bool,
    thread: ThreadId,
    name: String,
}

type Log = Arc<Mutex<Vec<Ran>>>;

/// An endpoint on `transport` exporting `Where`, whose procedures log the
/// thread that runs them. `Slow` sleeps past the inline ceiling, so it
/// runs on a server thread from its first call on; `Null`, once measured
/// fast, runs on the resident receiver.
fn exporter(transport: Arc<dyn Transport>, log: &Log) -> Arc<Endpoint> {
    let note = |slow: bool, log: &Log| {
        let me = std::thread::current();
        log.lock().unwrap().push(Ran {
            slow,
            thread: me.id(),
            name: me.name().unwrap_or_default().to_string(),
        });
    };
    let (fast_log, slow_log) = (Arc::clone(log), Arc::clone(log));
    let service = ServiceBuilder::new(interface())
        .on_call("Null", move |_a, _w| {
            note(false, &fast_log);
            Ok(())
        })
        .on_call("Slow", move |_a, _w| {
            std::thread::sleep(Duration::from_micros(50));
            note(true, &slow_log);
            Ok(())
        })
        .build()
        .unwrap();
    let server = Endpoint::new(transport, Config::default()).unwrap();
    server.export(service).unwrap();
    server
}

fn threads(log: &[Ran], keep: impl Fn(&Ran) -> bool) -> HashSet<ThreadId> {
    log.iter().filter(|r| keep(r)).map(|r| r.thread).collect()
}

#[test]
fn an_endpoint_made_after_another_shut_down_runs_on_its_server_thread() {
    let _serial = one_at_a_time();
    let net = LoopbackNet::new();
    let caller = Endpoint::new(net.station(1), Config::default()).unwrap();
    let mut seen = Vec::new();
    for life in 0..2 {
        let log = Log::default();
        let server = exporter(net.station(10 + life), &log);
        let client = caller.bind(&interface(), server.address()).unwrap();
        client.call("Slow", &[]).unwrap();
        assert_eq!(server.stats().workers_started(), 1);
        drop(server);
        let log = log.lock().unwrap();
        seen.push(threads(&log, |r| r.slow));
    }
    assert_eq!(seen[1].len(), 1);
    assert!(
        seen[1].is_subset(&seen[0]),
        "the second endpoint's server thread {:?} is none of the first's {:?}",
        seen[1],
        seen[0]
    );
}

#[test]
fn a_receiver_thread_never_runs_a_worker_loop_nor_a_server_thread_a_receive_loop() {
    let _serial = one_at_a_time();
    let net = LoopbackNet::new();
    let caller = Endpoint::new(net.station(1), Config::default()).unwrap();
    let log = Log::default();
    let mut inline = 0;
    let mut lives = Vec::new();
    for life in 0..3 {
        let server = exporter(net.station(10 + life), &log);
        let client = caller.bind(&interface(), server.address()).unwrap();
        // Until `Null` is trusted to the receiver and has run there.
        for _ in 0..1000 {
            client.call("Null", &[]).unwrap();
            if server.stats().inline_calls() >= 10 {
                break;
            }
        }
        for _ in 0..3 {
            client.call("Slow", &[]).unwrap();
        }
        let stats = server.stats();
        assert!(
            stats.inline_calls() >= 10,
            "Null never ran on the receiver:\n{stats}"
        );
        inline += stats.inline_calls();
        drop(server);
        lives.push(log.lock().unwrap().len());
    }
    let log = log.lock().unwrap();
    // A worker loop runs every `Slow`, on a server thread.
    for ran in log.iter().filter(|r| r.slow) {
        assert_eq!(ran.name, "firefly-server", "{ran:?}");
    }
    // Only a receive loop runs service code on a `firefly-demux` thread:
    // the calls counted inline, and those alone.
    let on_receivers = log.iter().filter(|r| r.name == "firefly-demux").count();
    assert_eq!(on_receivers as u64, inline);
    // No thread ran both loops, across three endpoints' lives.
    let receivers = threads(&log, |r| r.name == "firefly-demux");
    let servers = threads(&log, |r| r.name == "firefly-server");
    assert_eq!(
        receivers.len() + servers.len(),
        threads(&log, |_| true).len()
    );
    assert!(
        receivers.is_disjoint(&servers),
        "{receivers:?} and {servers:?}"
    );
    // And the threads were reused: the last life ran on earlier ones.
    let earlier = threads(&log[..lives[1]], |_| true);
    let last = threads(&log[lives[1]..], |_| true);
    assert!(
        last.is_subset(&earlier),
        "the last life's {last:?} are new, not of {earlier:?}"
    );
}

#[test]
fn an_endpoint_dropped_lets_its_address_bind_again() {
    let _serial = one_at_a_time();
    let transport = UdpTransport::localhost().unwrap();
    let addr = transport.local_addr();
    let log = Log::default();
    let server = exporter(transport, &log);
    let caller = Endpoint::new(UdpTransport::localhost().unwrap(), Config::default()).unwrap();
    let client = caller.bind(&interface(), addr).unwrap();
    client.call("Slow", &[]).unwrap();
    client.call("Null", &[]).unwrap();
    assert_eq!(server.stats().workers_started(), 1);
    // Its receiver and server thread go back idle, holding nothing of it:
    // the socket closes with the endpoint.
    drop(server);
    let again = UdpTransport::bind(addr).expect("the dropped endpoint's address is still bound");
    assert_eq!(again.local_addr(), addr);
}
