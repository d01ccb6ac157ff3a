//! An endpoint takes only what its traffic uses: a server thread at a new
//! call's hand-off that finds every one taken busy, up to
//! `Config::server_threads`, and a pool slab at the first take that finds
//! none to reuse. An endpoint that only calls takes neither.

use firefly_idl::{parse_interface, InterfaceDef, Value};
use firefly_rpc::transport::{LoopbackNet, Transport, UdpTransport};
use firefly_rpc::{Config, Endpoint, ServiceBuilder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

fn interface() -> InterfaceDef {
    parse_interface(
        "DEFINITION MODULE Demand;
           PROCEDURE Null();
           PROCEDURE Hold(n: INTEGER): INTEGER;
           PROCEDURE Slow(n: INTEGER; VAR OUT out: ARRAY OF CHAR);
         END Demand.",
    )
    .unwrap()
}

/// Executions of `Hold` that have begun, and the gate each waits at: one
/// message on the sender lets one of them return.
struct Gate {
    entered: AtomicU64,
    open: Mutex<mpsc::Receiver<()>>,
}

/// An endpoint on `transport` exporting `Demand` with at most `threads` server
/// threads. `Hold` waits at the returned gate and `Slow` sleeps past the
/// inline ceiling before it returns `n` bytes, so both are slow from
/// their first call and never run on the receiving thread.
fn exporter(
    transport: Arc<dyn Transport>,
    threads: usize,
) -> (Arc<Endpoint>, Arc<Gate>, mpsc::Sender<()>) {
    let (open, gate) = mpsc::channel();
    let gate = Arc::new(Gate {
        entered: AtomicU64::new(0),
        open: Mutex::new(gate),
    });
    let held = Arc::clone(&gate);
    let service = ServiceBuilder::new(interface())
        .on_call("Null", |_a, _w| Ok(()))
        .on_call("Hold", move |args, w| {
            held.entered.fetch_add(1, Ordering::SeqCst);
            let _ = held.open.lock().unwrap().recv();
            w.next_value(args[0].value().unwrap())?;
            Ok(())
        })
        .on_call("Slow", |args, w| {
            std::thread::sleep(Duration::from_micros(50));
            let n = args[0].value().and_then(Value::as_integer).unwrap();
            w.next_bytes(n as usize)?.fill(7);
            Ok(())
        })
        .build()
        .unwrap();
    let config = Config {
        server_threads: threads,
        ..Config::default()
    };
    let server = Endpoint::new(transport, config).unwrap();
    server.export(service).unwrap();
    (server, gate, open)
}

/// Patient timers: a caller held in service waits without its
/// retransmissions adding calls to the picture.
fn patient() -> Config {
    Config {
        retransmit_initial: Duration::from_secs(2),
        ..Config::default()
    }
}

fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_caller_only_endpoint_starts_no_thread_and_makes_no_slab() {
    let net = LoopbackNet::new();
    let (server, _gate, _open) = exporter(net.station(1), 2);
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    let client = caller.bind(&interface(), server.address()).unwrap();
    for _ in 0..100 {
        client.call("Null", &[]).unwrap();
    }
    assert_eq!(caller.stats().calls_completed(), 100);
    assert_eq!(caller.stats().workers_started(), 0, "stats:\n{}", caller.stats());
    assert_eq!(caller.pool().stats().made(), 0, "the caller made a pool slab");
    assert_eq!(caller.pool().free_count(), caller.pool().capacity());
    // The exporter handed at least the unmeasured first call to a server
    // thread, and made a slab to copy it into: only what that took.
    let stats = server.stats();
    assert!((1..=2).contains(&stats.workers_started()), "stats:\n{stats}");
    let made = server.pool().stats().made();
    assert!(made >= 1 && made <= server.pool().stats().high_water(), "{made} slabs made");
}

#[test]
fn one_caller_in_a_closed_loop_keeps_one_server_thread_busy() {
    // Each result prompts the next call at once — over UDP the send
    // itself can run the caller — while the thread that sent it has yet
    // to look for work: it must count as free already. A one-packet
    // result goes out after the call, a multi-packet one's window within
    // it: both are covered.
    let (server, _gate, _open) = exporter(UdpTransport::localhost().unwrap(), 2);
    let caller = Endpoint::new(UdpTransport::localhost().unwrap(), Config::default()).unwrap();
    let client = caller.bind(&interface(), server.address()).unwrap();
    for i in 0..200 {
        let n = if i % 2 == 0 { 8 } else { 3000 };
        let r = client.call("Slow", &[Value::Integer(n), Value::Bytes(Vec::new())]).unwrap();
        assert_eq!(r[0].as_bytes().unwrap().len(), n as usize);
    }
    let stats = server.stats();
    assert_eq!((stats.calls_executed(), stats.inline_calls()), (200, 0));
    assert_eq!(stats.workers_started(), 1, "stats:\n{stats}");
}

#[test]
fn an_exporter_starts_threads_at_hand_offs_and_never_more_than_its_cap() {
    let net = LoopbackNet::new();
    let (server, gate, open) = exporter(net.station(1), 2);
    assert_eq!(server.stats().workers_started(), 0, "a server thread before any call");
    let caller = Endpoint::new(net.station(2), patient()).unwrap();
    let client = Arc::new(caller.bind(&interface(), server.address()).unwrap());
    let hold = |n: i32| {
        let client = Arc::clone(&client);
        std::thread::spawn(move || client.call("Hold", &[Value::Integer(n)]).unwrap())
    };

    // The first hand-off starts the first thread, which runs the call.
    let first = hold(0);
    wait_until("the first call never ran", || gate.entered.load(Ordering::SeqCst) == 1);
    assert_eq!(server.stats().workers_started(), 1);

    // With it busy, the next hand-off starts a second; past the cap the
    // calls wait in the queues, held, for those two.
    let rest: Vec<_> = (1..4).map(hold).collect();
    wait_until("the second call never ran", || gate.entered.load(Ordering::SeqCst) == 2);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(gate.entered.load(Ordering::SeqCst), 2, "more calls ran than threads");
    assert_eq!(server.stats().workers_started(), 2, "stats:\n{}", server.stats());

    for _ in 0..4 {
        open.send(()).unwrap();
    }
    let mut got: Vec<_> = std::iter::once(first)
        .chain(rest)
        .map(|t| t.join().unwrap()[0].as_integer().unwrap())
        .collect();
    got.sort_unstable();
    assert_eq!(got, [0, 1, 2, 3]);
    let stats = server.stats();
    assert_eq!(stats.workers_started(), 2, "stats:\n{stats}");
    assert_eq!((stats.calls_executed(), stats.inline_calls()), (4, 0));
    assert_eq!(stats.calls_shed(), 0);
}

#[test]
fn a_retransmitted_call_takes_no_thread() {
    // A caller whose first timeout is 5 ms retransmits the call held on
    // the one server thread taken for it: the duplicate is answered as
    // executing, and no second thread is taken only to say so.
    let net = LoopbackNet::new();
    let (server, gate, open) = exporter(net.station(1), 2);
    let caller = Endpoint::new(net.station(2), Config::fast_retry()).unwrap();
    let client = caller.bind(&interface(), server.address()).unwrap();
    let held = std::thread::spawn(move || client.call("Hold", &[Value::Integer(7)]).unwrap());
    wait_until("the call never ran", || gate.entered.load(Ordering::SeqCst) == 1);
    wait_until("no retransmission came", || server.stats().duplicate_calls() >= 1);
    open.send(()).unwrap();
    assert_eq!(held.join().unwrap()[0].as_integer(), Some(7));
    let stats = server.stats();
    assert_eq!(stats.workers_started(), 1, "stats:\n{stats}");
    assert!(stats.duplicate_calls() >= 1, "stats:\n{stats}");
    assert_eq!((stats.calls_executed(), stats.calls_shed()), (1, 0));
}
