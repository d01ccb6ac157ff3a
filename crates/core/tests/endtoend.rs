//! End-to-end protocol tests over the loopback Ethernet and real UDP.

use firefly_idl::{parse_interface, test_interface, Value};
use firefly_rpc::fragment::WINDOW;
use firefly_rpc::transport::{FaultPlan, LoopbackNet, Transport, UdpTransport};
use firefly_rpc::{Config, Endpoint, RpcError, ServiceBuilder};
use firefly_wire::{ActivityId, FrameBuilder, FrameView, PacketType, RpcHeader};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Builds the paper's Test service: Null, MaxResult, MaxArg.
fn test_service() -> Arc<dyn firefly_rpc::Service> {
    ServiceBuilder::new(test_interface())
        .on_call("Null", |_args, _w| Ok(()))
        .on_call("MaxResult", |_args, w| {
            let out = w.next_bytes(1440)?;
            for (i, b) in out.iter_mut().enumerate() {
                *b = (i % 251) as u8;
            }
            Ok(())
        })
        .on_call("MaxArg", |args, _w| {
            let data = args[0].bytes().expect("VAR IN arrives in place");
            assert_eq!(data.len(), 1440);
            Ok(())
        })
        .build()
        .unwrap()
}

fn loopback_pair(config: Config) -> (LoopbackNet, Arc<Endpoint>, Arc<Endpoint>) {
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), config.clone()).unwrap();
    let caller = Endpoint::new(net.station(2), config).unwrap();
    server.export(test_service()).unwrap();
    (net, server, caller)
}

#[test]
fn null_call_round_trips() {
    let (_net, server, caller) = loopback_pair(Config::default());
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    let r = client.call("Null", &[]).unwrap();
    assert!(r.is_empty());
}

#[test]
fn max_result_returns_1440_bytes() {
    let (_net, server, caller) = loopback_pair(Config::default());
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    let r = client
        .call("MaxResult", &[Value::char_array(1440)])
        .unwrap();
    let bytes = r[0].as_bytes().unwrap();
    assert_eq!(bytes.len(), 1440);
    assert!(bytes.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
}

#[test]
fn max_arg_sends_1440_bytes() {
    let (_net, server, caller) = loopback_pair(Config::default());
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    client.call("MaxArg", &[Value::char_array(1440)]).unwrap();
}

#[test]
fn healthy_run_has_zero_retransmissions_and_all_fast_path() {
    // Generous retransmission timers so host scheduling hiccups (this
    // suite runs many endpoints in parallel) cannot fire a spurious
    // retransmission and fail the zero-retransmission assertion.
    let cfg = Config {
        retransmit_initial: Duration::from_secs(5),
        ..Config::default()
    };
    let (_net, server, caller) = loopback_pair(cfg);
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    for _ in 0..50 {
        client.call("Null", &[]).unwrap();
    }
    assert_eq!(caller.stats().retransmissions(), 0);
    assert_eq!(caller.stats().calls_completed(), 50);
    assert_eq!(server.stats().duplicate_calls(), 0);
    assert_eq!(caller.stats().validation_drops(), 0);
    // Every result reached its caller with at most one wake-up, and no
    // intermediate thread: `results_received = self_received_results +
    // the direct wake-ups results caused` — the waiting thread received
    // it itself, or the resident receiver woke the caller directly.
    // (This endpoint serves nothing and saw no acks, so every direct
    // wake-up was a result's.) The resident bumps its counters just
    // after the wake-up, so give the last increment a moment to land.
    let stats = caller.stats();
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while stats.results_received() < 50 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(stats.results_received(), 50, "stats:\n{stats}");
    assert_eq!(
        stats.self_received_results() + stats.direct_wakeups(),
        stats.results_received(),
        "stats:\n{stats}"
    );
    // (How many of the fifty the caller received itself is a matter of
    // load: its poll budget runs out when this suite's thirty tests
    // crowd two processors, and on a slow host phase it wins none.
    // `tests/receive_role.rs` holds the role to its promises.)
    // On the server every call reached its executing thread exactly
    // once, and the ones its receiving thread ran itself (how many is a
    // matter of measured service times) count as direct, not queued.
    let served = server.stats();
    assert_eq!(served.direct_wakeups() + served.slow_path_queued(), 50);
    assert!(served.inline_calls() <= served.direct_wakeups(), "stats:\n{served}");
}

#[test]
fn sequential_calls_reuse_one_activity() {
    let (_net, server, caller) = loopback_pair(Config::default());
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    for _ in 0..10 {
        client.call("Null", &[]).unwrap();
    }
    // Implicit acks mean the server retains exactly one result for the
    // single activity; no explicit acks were needed.
    assert_eq!(server.stats().calls_received(), 10);
    drop(client);
    let _ = server;
}

#[test]
fn concurrent_callers_from_many_threads() {
    let (_net, server, caller) = loopback_pair(Config::default());
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    let completed = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let client = client.clone();
        let completed = Arc::clone(&completed);
        handles.push(std::thread::spawn(move || {
            for _ in 0..25 {
                client
                    .call("MaxResult", &[Value::char_array(1440)])
                    .unwrap();
                completed.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(completed.load(Ordering::Relaxed), 200);
    assert_eq!(server.stats().calls_received(), 200);
    assert_eq!(caller.stats().retransmissions(), 0);
}

#[test]
fn lost_packets_are_retransmitted() {
    let (net, server, caller) = loopback_pair(Config::fast_retry());
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    // 30% loss: calls still complete, via retransmission.
    net.set_faults(FaultPlan {
        loss: 0.3,
        ..FaultPlan::default()
    });
    for _ in 0..30 {
        client.call("Null", &[]).unwrap();
    }
    assert!(
        caller.stats().retransmissions() > 0,
        "30% loss must trigger retransmissions"
    );
    assert_eq!(caller.stats().calls_completed(), 30);
}

#[test]
fn corrupted_packets_are_dropped_by_checksum_then_recovered() {
    let (net, server, caller) = loopback_pair(Config::fast_retry());
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    net.set_faults(FaultPlan {
        corrupt: 0.3,
        ..FaultPlan::default()
    });
    for _ in 0..20 {
        client
            .call("MaxResult", &[Value::char_array(1440)])
            .unwrap();
    }
    let drops = caller.stats().validation_drops() + server.stats().validation_drops();
    assert!(drops > 0, "30% corruption must be caught by checksums");
    assert_eq!(caller.stats().calls_completed(), 20);
}

#[test]
fn duplicated_packets_are_filtered() {
    let (net, server, caller) = loopback_pair(Config::default());
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    net.set_faults(FaultPlan {
        duplicate: 1.0,
        ..FaultPlan::default()
    });
    for i in 0..20 {
        let r = client
            .call("MaxResult", &[Value::char_array(1440)])
            .unwrap();
        assert_eq!(r[0].as_bytes().unwrap().len(), 1440, "call {i}");
    }
    // Every duplicate call was answered from the retained result or
    // filtered; every duplicate result was orphaned.
    assert_eq!(caller.stats().calls_completed(), 20);
    assert!(server.stats().duplicate_calls() > 0);
    assert!(caller.stats().orphan_results() > 0);
}

#[test]
fn unreachable_server_fails_after_max_transmissions() {
    let net = LoopbackNet::new();
    let caller = Endpoint::new(net.station(2), Config::fast_retry()).unwrap();
    // Station 1 does not exist; frames vanish.
    let ghost: std::net::SocketAddr = "10.0.0.1:3072".parse().unwrap();
    let client = caller.bind(&test_interface(), ghost).unwrap();
    let err = client.call("Null", &[]).unwrap_err();
    match err {
        RpcError::CallFailed { transmissions } => {
            assert_eq!(transmissions, Config::fast_retry().max_transmissions)
        }
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn slow_server_is_probed_not_failed() {
    let iface =
        parse_interface("DEFINITION MODULE Slow; PROCEDURE Nap(ms: INTEGER); END Slow.").unwrap();
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Nap", |args, _w| {
            let ms = args[0].value().and_then(Value::as_integer).unwrap_or(0);
            std::thread::sleep(Duration::from_millis(ms as u64));
            Ok(())
        })
        .build()
        .unwrap();
    let net = LoopbackNet::new();
    let mut cfg = Config::fast_retry();
    cfg.retransmit_max = Duration::from_millis(20);
    let server = Endpoint::new(net.station(1), cfg.clone()).unwrap();
    let caller = Endpoint::new(net.station(2), cfg).unwrap();
    server.export(service).unwrap();
    let client = caller.bind(&iface, server.address()).unwrap();
    // The call takes far longer than max_transmissions * timeout, but the
    // server acknowledges retransmissions and answers probes, so the call
    // must NOT fail.
    client.call("Nap", &[Value::Integer(600)]).unwrap();
    assert!(server.stats().duplicate_calls() > 0 || server.stats().probes_answered() > 0);
}

#[test]
fn unknown_interface_is_a_remote_error() {
    let (_net, server, caller) = loopback_pair(Config::default());
    let other = parse_interface("DEFINITION MODULE Ghost; PROCEDURE Boo(); END Ghost.").unwrap();
    let client = caller.bind(&other, server.address()).unwrap();
    let err = client.call("Boo", &[]).unwrap_err();
    match err {
        RpcError::Remote(m) => assert!(m.contains("no such interface")),
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn handler_errors_propagate_to_caller() {
    let iface = parse_interface("DEFINITION MODULE F; PROCEDURE Fail(); END F.").unwrap();
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Fail", |_a, _w| Err(RpcError::Remote("deliberate".into())))
        .build()
        .unwrap();
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    server.export(service).unwrap();
    let client = caller.bind(&iface, server.address()).unwrap();
    let err = client.call("Fail", &[]).unwrap_err();
    assert!(err.to_string().contains("deliberate"));
    // A failed call must not wedge the activity: the next call works.
    let err2 = client.call("Fail", &[]).unwrap_err();
    assert!(err2.to_string().contains("deliberate"));
}

#[test]
fn multi_packet_arguments_and_results() {
    let iface = parse_interface(
        "DEFINITION MODULE Big;
           PROCEDURE Echo(VAR IN input: ARRAY OF CHAR; VAR OUT output: ARRAY OF CHAR);
         END Big.",
    )
    .unwrap();
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Echo", |args, w| {
            let input = args[0].bytes().expect("in place");
            let out = w.next_bytes(input.len())?;
            out.copy_from_slice(input);
            Ok(())
        })
        .build()
        .unwrap();
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    server.export(service).unwrap();
    let client = caller.bind(&iface, server.address()).unwrap();

    for size in [5000usize, 20_000, 100_000] {
        let input: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let r = client
            .call(
                "Echo",
                &[Value::Bytes(input.clone()), Value::Bytes(Vec::new())],
            )
            .unwrap();
        assert_eq!(r[0].as_bytes().unwrap(), &input[..], "size {size}");
    }
    assert!(caller.stats().fragments_sent() > 0);
    assert!(server.stats().fragments_sent() > 0);
}

#[test]
fn multi_packet_survives_loss() {
    let iface = parse_interface(
        "DEFINITION MODULE Big;
           PROCEDURE Echo(VAR IN input: ARRAY OF CHAR; VAR OUT output: ARRAY OF CHAR);
         END Big.",
    )
    .unwrap();
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Echo", |args, w| {
            let input = args[0].bytes().expect("in place");
            let out = w.next_bytes(input.len())?;
            out.copy_from_slice(input);
            Ok(())
        })
        .build()
        .unwrap();
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::fast_retry()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::fast_retry()).unwrap();
    server.export(service).unwrap();
    let client = caller.bind(&iface, server.address()).unwrap();
    net.set_faults(FaultPlan {
        loss: 0.15,
        ..FaultPlan::default()
    });
    let input: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
    for _ in 0..5 {
        let r = client
            .call(
                "Echo",
                &[Value::Bytes(input.clone()), Value::Bytes(Vec::new())],
            )
            .unwrap();
        assert_eq!(r[0].as_bytes().unwrap(), &input[..]);
    }
}

#[test]
fn works_over_real_udp_localhost() {
    let server_t = UdpTransport::localhost().unwrap();
    let caller_t = UdpTransport::localhost().unwrap();
    let server = Endpoint::new(server_t, Config::default()).unwrap();
    let caller = Endpoint::new(caller_t, Config::default()).unwrap();
    server.export(test_service()).unwrap();
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    client.call("Null", &[]).unwrap();
    let r = client
        .call("MaxResult", &[Value::char_array(1440)])
        .unwrap();
    assert_eq!(r[0].as_bytes().unwrap().len(), 1440);
    client.call("MaxArg", &[Value::char_array(1440)]).unwrap();
    assert_eq!(caller.stats().retransmissions(), 0);
}

#[test]
fn delayed_packets_cause_retransmissions_but_correct_results() {
    // Fixed 40 ms delivery delay against a 5 ms first retransmit: every
    // call retransmits several times, the server answers duplicates from
    // its retained result, and the caller sees exactly one correct
    // result per call.
    let (net, server, caller) = loopback_pair(Config::fast_retry());
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    net.set_faults(FaultPlan {
        delay: Some(Duration::from_millis(40)),
        ..FaultPlan::default()
    });
    for _ in 0..5 {
        let r = client
            .call("MaxResult", &[Value::char_array(1440)])
            .unwrap();
        assert_eq!(r[0].as_bytes().unwrap().len(), 1440);
    }
    assert!(caller.stats().retransmissions() > 0);
    assert!(server.stats().duplicate_calls() > 0 || server.stats().probes_answered() > 0);
    assert_eq!(caller.stats().calls_completed(), 5);
}

#[test]
fn checksums_can_be_disabled_like_424() {
    // §4.2.4: omit UDP checksums. Calls still work; corruption would go
    // undetected (tested at the wire layer).
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::without_checksums()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::without_checksums()).unwrap();
    server.export(test_service()).unwrap();
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    for _ in 0..10 {
        client.call("Null", &[]).unwrap();
    }
    assert_eq!(caller.stats().calls_completed(), 10);
}

#[test]
fn buffers_are_conserved_after_heavy_traffic() {
    let (_net, server, caller) = loopback_pair(Config::default());
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    for _ in 0..200 {
        client
            .call("MaxResult", &[Value::char_array(1440)])
            .unwrap();
    }
    drop(client);
    // Give in-flight acks a moment to drain.
    std::thread::sleep(Duration::from_millis(100));
    let cp = caller.pool();
    // The demux thread always holds one receive buffer while blocked in
    // recv; anything beyond that is a leak.
    assert!(cp.stats().outstanding() <= 1, "caller leaks buffers");
    assert!(caller.stats().buffers_recycled() > 0);
}

#[test]
fn two_interfaces_coexist_on_one_endpoint() {
    let add_iface =
        parse_interface("DEFINITION MODULE Math; PROCEDURE Add(a, b: INTEGER): INTEGER; END Math.")
            .unwrap();
    let add_service = ServiceBuilder::new(add_iface.clone())
        .on_call("Add", |args, w| {
            let a = args[0].value().and_then(Value::as_integer).unwrap_or(0);
            let b = args[1].value().and_then(Value::as_integer).unwrap_or(0);
            w.next_value(&Value::Integer(a.wrapping_add(b)))?;
            Ok(())
        })
        .build()
        .unwrap();
    let (_net, server, caller) = loopback_pair(Config::default());
    server.export(add_service).unwrap();
    let t = caller.bind(&test_interface(), server.address()).unwrap();
    let m = caller.bind(&add_iface, server.address()).unwrap();
    t.call("Null", &[]).unwrap();
    let r = m
        .call("Add", &[Value::Integer(40), Value::Integer(2)])
        .unwrap();
    assert_eq!(r[0], Value::Integer(42));
}

#[test]
fn endpoint_can_call_itself() {
    let net = LoopbackNet::new();
    let solo = Endpoint::new(net.station(1), Config::default()).unwrap();
    solo.export(test_service()).unwrap();
    let client = solo.bind(&test_interface(), solo.address()).unwrap();
    let r = client
        .call("MaxResult", &[Value::char_array(1440)])
        .unwrap();
    assert_eq!(r[0].as_bytes().unwrap().len(), 1440);
}

#[test]
fn server_shutdown_fails_callers_instead_of_hanging() {
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::fast_retry()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::fast_retry()).unwrap();
    server.export(test_service()).unwrap();
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    client.call("Null", &[]).unwrap();
    // Take the server down; the next call must fail in bounded time.
    server.shutdown();
    let start = std::time::Instant::now();
    let err = client.call("Null", &[]);
    assert!(err.is_err(), "call against a dead server must fail");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "failure took {:?}",
        start.elapsed()
    );
}

#[test]
fn exporting_same_interface_twice_fails() {
    let (_net, server, _caller) = loopback_pair(Config::default());
    let err = server.export(test_service()).unwrap_err();
    assert!(err.to_string().contains("already exported"));
}

/// A network with a grudge against one frame: the first packet either
/// endpoint sends that `target` picks is lost (or, with `duplicate`,
/// delivered twice); everything else passes.
struct Meddler {
    inner: Arc<dyn Transport>,
    target: Arc<dyn Fn(&RpcHeader) -> bool + Send + Sync>,
    duplicate: bool,
    armed: Arc<AtomicBool>,
}

impl Transport for Meddler {
    fn send(&self, frame: &[u8], dst: std::net::SocketAddr) -> std::io::Result<()> {
        let rpc = FrameView::parse(frame).expect("endpoints send valid frames").rpc;
        let hit = (self.target)(&rpc) && self.armed.swap(false, Ordering::SeqCst);
        if hit && !self.duplicate {
            return Ok(()); // Lost.
        }
        if hit {
            self.inner.send(frame, dst)?;
        }
        self.inner.send(frame, dst)
    }

    fn recv(&self, buf: &mut [u8]) -> std::io::Result<(usize, std::net::SocketAddr)> {
        self.inner.recv(buf)
    }

    fn try_recv(&self, buf: &mut [u8]) -> std::io::Result<Option<(usize, std::net::SocketAddr)>> {
        self.inner.try_recv(buf)
    }

    fn local_addr(&self) -> std::net::SocketAddr {
        self.inner.local_addr()
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

/// What one endpoint sent during a meddled echo.
#[derive(Debug, PartialEq, Eq)]
struct Sent {
    /// First transmissions of fragments.
    fragments: u64,
    /// Fragments (or whole packets) sent again.
    retransmissions: u64,
    acks: u64,
}

impl Sent {
    fn of(endpoint: &Endpoint) -> Sent {
        let s = endpoint.stats();
        Sent {
            fragments: s.fragments_sent(),
            retransmissions: s.retransmissions(),
            acks: s.acks_sent(),
        }
    }
}

/// Echoes `size` bytes once while the network mistreats the first
/// packet `target` picks (see [`echo_through`]).
fn echo_with_one_fault(
    cfg: Config,
    size: usize,
    duplicate: bool,
    target: impl Fn(&RpcHeader) -> bool + Send + Sync + 'static,
) -> (Sent, Sent) {
    let (target, armed) = (Arc::new(target), Arc::new(AtomicBool::new(true)));
    let sent = echo_through(cfg, size, |inner| {
        Arc::new(Meddler {
            inner,
            target: target.clone(),
            duplicate,
            armed: Arc::clone(&armed),
        })
    });
    assert!(!armed.load(Ordering::SeqCst), "the fault never happened");
    sent
}

/// Echoes `size` bytes once over the network `wrap` makes of each
/// endpoint's station, and checks what must hold whatever that network
/// did: the bytes, exactly one execution, every buffer home at shutdown.
/// Returns what each side sent, caller first.
fn echo_through(
    cfg: Config,
    size: usize,
    wrap: impl Fn(Arc<dyn Transport>) -> Arc<dyn Transport>,
) -> (Sent, Sent) {
    let iface = parse_interface(
        "DEFINITION MODULE Big;
           PROCEDURE Echo(VAR IN input: ARRAY OF CHAR; VAR OUT output: ARRAY OF CHAR);
         END Big.",
    )
    .unwrap();
    let executed = Arc::new(AtomicU64::new(0));
    let count = Arc::clone(&executed);
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Echo", move |args, w| {
            count.fetch_add(1, Ordering::SeqCst);
            let input = args[0].bytes().expect("in place");
            w.next_bytes(input.len())?.copy_from_slice(input);
            Ok(())
        })
        .build()
        .unwrap();
    let net = LoopbackNet::new();
    let server = Endpoint::new(wrap(net.station(1)), cfg.clone()).unwrap();
    let caller = Endpoint::new(wrap(net.station(2)), cfg).unwrap();
    server.export(service).unwrap();
    let client = caller.bind(&iface, server.address()).unwrap();

    let input: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
    let r = client
        .call("Echo", &[Value::Bytes(input.clone()), Value::Bytes(Vec::new())])
        .unwrap();
    assert_eq!(r[0].as_bytes().unwrap(), &input[..]);
    assert_eq!(executed.load(Ordering::SeqCst), 1, "executed more than once");

    let sent = (Sent::of(&caller), Sent::of(&server));
    let pools = [server.pool().clone(), caller.pool().clone()];
    drop(client);
    drop(caller);
    drop(server);
    for pool in &pools {
        assert_eq!(pool.stats().outstanding(), 0, "leaked buffers at shutdown");
    }
    sent
}

/// Four fragments each way: one window, no acks.
const BLOB: usize = 5760;

fn fragment_of(kind: PacketType, index: u16) -> impl Fn(&RpcHeader) -> bool {
    move |h| h.packet_type == kind && h.fragment == index && h.fragment_count > 1
}

/// Timers slow enough that only a real loss fires one: a retransmission
/// the fault did not cause would fail the exact counts below.
fn patient() -> Config {
    Config {
        retransmit_initial: Duration::from_millis(100),
        ..Config::default()
    }
}

#[test]
fn a_lost_fragment_is_the_only_one_sent_again() {
    for index in 0..4 {
        // A call fragment: the caller's timer asks where the hole is (a
        // probe, answered with the prefix the server holds — or, while
        // fragment 0 is the hole, not at all) and sends that one again.
        let (caller, server) =
            echo_with_one_fault(patient(), BLOB, false, fragment_of(PacketType::Call, index));
        assert_eq!((caller.fragments, caller.retransmissions), (4, 1), "call fragment {index}");
        assert_eq!((server.fragments, server.retransmissions), (4, 0), "call fragment {index}");
        // A result fragment: the caller's timer names the prefix it holds
        // (or probes, while fragment 0 is the hole), and the server sends
        // that one again.
        let (caller, server) =
            echo_with_one_fault(patient(), BLOB, false, fragment_of(PacketType::Result, index));
        assert_eq!((caller.fragments, caller.retransmissions), (4, 0), "result fragment {index}");
        assert_eq!((server.fragments, server.retransmissions), (4, 1), "result fragment {index}");
    }
}

#[test]
fn a_duplicated_fragment_is_taken_once_and_nothing_is_sent_again() {
    let cfg = Config {
        retransmit_initial: Duration::from_secs(5),
        ..Config::default()
    };
    for kind in [PacketType::Call, PacketType::Result] {
        for index in 0..4 {
            let (caller, server) =
                echo_with_one_fault(cfg.clone(), BLOB, true, fragment_of(kind, index));
            let what = format!("{kind:?} fragment {index}");
            assert_eq!(caller, Sent { fragments: 4, retransmissions: 0, acks: 0 }, "{what}");
            // A copy of the call's last fragment can land after the
            // result went out; like any duplicate call it is then
            // answered from the retained result.
            let late_copy = u64::from(kind == PacketType::Call && index == 3);
            assert_eq!(server.fragments, 4, "{what}");
            assert!(server.retransmissions <= late_copy && server.acks == 0, "{what}: {server:?}");
        }
    }
}

#[test]
fn a_lost_window_edge_ack_costs_a_timeout_not_a_fragment() {
    // Two windows each way: the edge of the first asks for an ack.
    let fragments = u64::from(WINDOW) + 2;
    let size = fragments as usize * 1440;
    for acks_result in [false, true] {
        let edge_ack = move |h: &RpcHeader| {
            h.packet_type == PacketType::Ack && h.flags.acks_result == acks_result
        };
        let (caller, server) = echo_with_one_fault(patient(), size, false, edge_ack);
        // The sender's timer (the caller's, either way) asks again, the
        // answer opens the window, and nothing is sent twice.
        let what = if acks_result { "result" } else { "call" };
        assert_eq!((caller.fragments, caller.retransmissions), (fragments, 0), "{what}");
        assert_eq!((server.fragments, server.retransmissions), (fragments, 0), "{what}");
        assert!(caller.acks >= 1 && server.acks >= 1, "{what}: {caller:?} {server:?}");
    }
}

#[test]
fn a_hole_where_a_window_begins_is_found_by_the_timer() {
    // The edge's ack then names the prefix the last ack named, as a copy
    // of that ack would, and moves nothing. The caller's timer asks once
    // more (a probe, or the result's prefix) and, that answered the same,
    // has the hole sent again: still only the lost fragment.
    let fragments = 2 * u64::from(WINDOW) + 2;
    let size = fragments as usize * 1440;
    for kind in [PacketType::Call, PacketType::Result] {
        let (caller, server) =
            echo_with_one_fault(patient(), size, false, fragment_of(kind, WINDOW));
        let resent = |sender| (fragments, u64::from(kind == sender));
        let what = format!("{kind:?} fragment {WINDOW}");
        assert_eq!((caller.fragments, caller.retransmissions), resent(PacketType::Call), "{what}");
        assert_eq!((server.fragments, server.retransmissions), resent(PacketType::Result), "{what}");
    }
}

#[test]
fn a_duplicated_window_edge_ack_moves_the_transfer_once() {
    // Three windows each way, so the ack of each edge opens a window. A
    // copy of it lands after that window went out, naming the prefix the
    // window starts at: it must not read as a hole there.
    let fragments = 2 * u64::from(WINDOW) + 2;
    let size = fragments as usize * 1440;
    let cfg = Config {
        retransmit_initial: Duration::from_secs(5),
        ..Config::default()
    };
    for acks_result in [false, true] {
        for edge in [WINDOW - 1, 2 * WINDOW - 1] {
            let edge_ack = move |h: &RpcHeader| {
                h.packet_type == PacketType::Ack
                    && h.flags.acks_result == acks_result
                    && h.fragment == edge
            };
            let (caller, server) = echo_with_one_fault(cfg.clone(), size, true, edge_ack);
            let what = format!("{} edge {edge}", if acks_result { "result" } else { "call" });
            // Each fragment once, nothing again, and one ack per edge.
            let exact = || Sent { fragments, retransmissions: 0, acks: 2 };
            assert_eq!(caller, exact(), "{what}");
            assert_eq!(server, exact(), "{what}");
        }
    }
}

/// A network that loses the first whole window of `kind` fragments — one
/// multi-frame `send_batch`, which over UDP is one datagram — and, while
/// `then_one` is set, the next single fragment of that kind after it.
struct WindowLoss {
    inner: Arc<dyn Transport>,
    kind: PacketType,
    window: Arc<AtomicBool>,
    then_one: Arc<AtomicBool>,
}

impl WindowLoss {
    fn fragment_of_kind(&self, frame: &[u8]) -> bool {
        let rpc = FrameView::parse(frame).expect("endpoints send valid frames").rpc;
        rpc.packet_type == self.kind && rpc.fragment_count > 1
    }
}

impl Transport for WindowLoss {
    fn send(&self, frame: &[u8], dst: std::net::SocketAddr) -> std::io::Result<()> {
        let after_window = !self.window.load(Ordering::SeqCst);
        if after_window
            && self.fragment_of_kind(frame)
            && self.then_one.swap(false, Ordering::SeqCst)
        {
            return Ok(()); // Lost too.
        }
        self.inner.send(frame, dst)
    }

    fn send_batch(
        &self,
        bytes: &[u8],
        frames: &[(usize, std::net::SocketAddr)],
    ) -> std::io::Result<()> {
        let first = &bytes[..frames[0].0];
        if frames.len() > 1
            && self.fragment_of_kind(first)
            && self.window.swap(false, Ordering::SeqCst)
        {
            return Ok(()); // The whole window is lost.
        }
        let mut at = 0;
        for &(len, dst) in frames {
            self.send(&bytes[at..at + len], dst)?;
            at += len;
        }
        Ok(())
    }

    fn recv(&self, buf: &mut [u8]) -> std::io::Result<(usize, std::net::SocketAddr)> {
        self.inner.recv(buf)
    }

    fn try_recv(&self, buf: &mut [u8]) -> std::io::Result<Option<(usize, std::net::SocketAddr)>> {
        self.inner.try_recv(buf)
    }

    fn local_addr(&self) -> std::net::SocketAddr {
        self.inner.local_addr()
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

#[test]
fn a_lost_window_datagram_is_found_one_fragment_per_round_trip() {
    // Over UDP a window is one datagram, so one loss takes all four
    // fragments of it. The caller's timer finds the first hole; after
    // that each prefix ack names the next, and each fragment is sent
    // again once — twice for the first, if that copy is lost too.
    for kind in [PacketType::Call, PacketType::Result] {
        for then_one in [false, true] {
            let window = Arc::new(AtomicBool::new(true));
            let second = Arc::new(AtomicBool::new(then_one));
            let (caller, server) = echo_through(patient(), BLOB, |inner| {
                Arc::new(WindowLoss {
                    inner,
                    kind,
                    window: Arc::clone(&window),
                    then_one: Arc::clone(&second),
                })
            });
            let what = format!("{kind:?} window, then one more: {then_one}");
            assert!(!window.load(Ordering::SeqCst), "{what}: no window was lost");
            assert!(!second.load(Ordering::SeqCst), "{what}: no second fragment was lost");
            assert_eq!((caller.fragments, server.fragments), (4, 4), "{what}");
            let again = 4 + u64::from(then_one);
            let expected = match kind {
                PacketType::Call => (again, 0),
                // The server's first re-send lost, the caller's next
                // silence sends the call's first fragment again, and the
                // server answers the duplicate from the retained result.
                _ => (u64::from(then_one), again),
            };
            assert_eq!((caller.retransmissions, server.retransmissions), expected, "{what}");
        }
    }
}

#[test]
fn a_forged_fragment_header_is_counted_and_reserves_nothing_it_claims() {
    // ROADMAP robustness (1). `fragment::Reassembly`'s own test bounds
    // the memory (a lone header claiming 65535 fragments commits under
    // 64 KiB); this one sees the same packets through a live server.
    let (net, server, _caller) = loopback_pair(Config::default());
    let forger = net.station(66);
    let forge = |fragment: u16, len: usize| {
        let frame = FrameBuilder::new(PacketType::Call)
            .activity(ActivityId::new(0xbad, 1, 1))
            .call_seq(1)
            .fragment(fragment, u16::MAX)
            .please_ack(true)
            .build(&vec![0u8; len])
            .unwrap();
        forger.send(frame.bytes(), server.address()).unwrap();
    };
    let settle = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "{what}; stats:\n{}", server.stats());
            std::thread::yield_now();
        }
    };
    let stats = server.stats();
    // A plausible first fragment that asks is buffered, counted and
    // acked (all three forgeries ask).
    forge(0, 1440);
    settle("fragment 0 buffered", &|| stats.fragments_received() == 1 && stats.acks_sent() == 1);
    // One from the far end of the claimed 94 MB, and a short one from
    // the middle, are refused: counted, not buffered, not acked.
    forge(u16::MAX - 1, 1440);
    forge(1, 7);
    settle("forgeries refused", &|| stats.validation_drops() == 2);
    assert_eq!((stats.fragments_received(), stats.acks_sent()), (1, 1));
    // The server is none the worse.
    let client = _caller.bind(&test_interface(), server.address()).unwrap();
    client.call("Null", &[]).unwrap();
}

#[test]
fn a_forged_element_count_fails_its_call_and_nothing_else() {
    // Four bytes off the wire used to size an allocation: a call packet
    // for `Sum(xs: ARRAY OF INTEGER)` claiming 0xfffffff0 elements asked
    // the allocator for 137 GB, and a failed allocation aborts the
    // process — the server's, on a packet anyone can send.
    let sums = parse_interface(
        "DEFINITION MODULE Sums; PROCEDURE Sum(xs: ARRAY OF INTEGER): INTEGER; END Sums.",
    )
    .unwrap();
    let service = ServiceBuilder::new(sums.clone())
        .on_call("Sum", |args, w| {
            let Some(Value::Array(xs)) = args[0].value() else {
                return Err(RpcError::Remote("not an array".into()));
            };
            let sum = xs.iter().filter_map(Value::as_integer).fold(0i32, i32::wrapping_add);
            w.next_value(&Value::Integer(sum))?;
            Ok(())
        })
        .build()
        .unwrap();
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    server.export(service).unwrap();

    let forger = net.station(66);
    let frame = FrameBuilder::new(PacketType::Call)
        .activity(ActivityId::new(0xbad, 1, 1))
        .call_seq(1)
        .interface(sums.uid(), sums.version())
        .procedure(0)
        .build(&[0xff, 0xff, 0xff, 0xf0])
        .unwrap();
    forger.send(frame.bytes(), server.address()).unwrap();
    // The call is answered — with a failure, cleanly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut buf = [0u8; 2048];
    let answer = loop {
        assert!(std::time::Instant::now() < deadline, "no answer; stats:\n{}", server.stats());
        if let Some((n, _)) = forger.try_recv(&mut buf).unwrap() {
            break FrameView::parse(&buf[..n]).unwrap();
        }
        std::thread::yield_now();
    };
    assert_eq!(answer.rpc.packet_type, PacketType::Result);
    assert!(answer.rpc.flags.call_failed);
    assert!(String::from_utf8_lossy(answer.data).contains("count"));

    // The server answers the next call.
    let client = caller.bind(&sums, server.address()).unwrap();
    let xs = Value::Array((1..=4).map(Value::Integer).collect());
    assert_eq!(client.call("Sum", &[xs]).unwrap(), vec![Value::Integer(10)]);
    drop(client);

    // The same forgery in a result packet (`Counts` returns the array)
    // fails the caller's call, not the caller.
    let counts = parse_interface(
        "DEFINITION MODULE Counts; PROCEDURE Get(): ARRAY OF INTEGER; END Counts.",
    )
    .unwrap();
    let client = caller.bind(&counts, forger.local_addr()).unwrap();
    let call = std::thread::spawn(move || client.call("Get", &[]));
    let request = loop {
        assert!(std::time::Instant::now() < deadline, "no call; stats:\n{}", caller.stats());
        if let Some((n, _)) = forger.try_recv(&mut buf).unwrap() {
            break FrameView::parse(&buf[..n]).unwrap().rpc;
        }
        std::thread::yield_now();
    };
    let frame = FrameBuilder::new(PacketType::Result)
        .activity(request.activity)
        .call_seq(request.call_seq)
        .interface(counts.uid(), counts.version())
        .build(&[0xff, 0xff, 0xff, 0xf0])
        .unwrap();
    forger.send(frame.bytes(), caller.address()).unwrap();
    let e = call.join().unwrap().unwrap_err();
    assert!(matches!(e, RpcError::Idl(_)), "{e}");
    std::thread::sleep(Duration::from_millis(50));
    // The demux thread holds one receive buffer while it blocks.
    assert!(server.pool().stats().outstanding() <= 1, "server leaks buffers");
    assert!(caller.pool().stats().outstanding() <= 1, "caller leaks buffers");
}
