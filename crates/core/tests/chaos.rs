//! Chaos testing: the protocol must deliver correct results under any
//! combination of loss, duplication, corruption and delay.

use firefly_idl::{parse_interface, Value};
use firefly_propcheck::{check, prop_assert, prop_assert_eq};
use firefly_rpc::transport::{FaultPlan, LoopbackNet};
use firefly_rpc::{Config, Endpoint, ServiceBuilder};
use std::time::Duration;

fn echo_setup(
    net: &LoopbackNet,
) -> (
    std::sync::Arc<Endpoint>,
    std::sync::Arc<Endpoint>,
    firefly_rpc::Client,
) {
    echo_setup_with(net, false)
}

fn echo_setup_with(
    net: &LoopbackNet,
    trace: bool,
) -> (
    std::sync::Arc<Endpoint>,
    std::sync::Arc<Endpoint>,
    firefly_rpc::Client,
) {
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
    let mut cfg = Config::fast_retry();
    cfg.max_transmissions = 40; // Chaos needs patience.
    cfg.retransmit_max = Duration::from_millis(50);
    cfg.trace = trace;
    let server = Endpoint::new(net.station(1), cfg.clone()).unwrap();
    let caller = Endpoint::new(net.station(2), cfg).unwrap();
    server.export(service).unwrap();
    let client = caller.bind(&iface, server.address()).unwrap();
    (server, caller, client)
}

/// Small calls survive any moderate fault mix with correct results.
#[test]
fn calls_survive_fault_mix() {
    check("calls_survive_fault_mix", 8, |g| {
        let seed = g.u64();
        let loss = g.f64_unit() * 0.25;
        let duplicate = g.f64_unit() * 0.5;
        let corrupt = g.f64_unit() * 0.15;
        let net = LoopbackNet::with_seed(seed);
        let (_server, _caller, client) = echo_setup(&net);
        net.set_faults(FaultPlan {
            loss,
            duplicate,
            corrupt,
            delay: None,
        });
        for i in 0..15i32 {
            let r = client.call("Twice", &[Value::Integer(i)]).unwrap();
            prop_assert_eq!(r[0].clone(), Value::Integer(2 * i), "call {}", i);
        }
        Ok(())
    });
}

/// Fragmented bodies survive loss and duplication byte-exactly.
#[test]
fn fragments_survive_fault_mix() {
    check("fragments_survive_fault_mix", 8, |g| {
        let seed = g.u64();
        let loss = g.f64_unit() * 0.12;
        let duplicate = g.f64_unit() * 0.3;
        let size = g.usize_in(2000..12_000);
        let net = LoopbackNet::with_seed(seed);
        let (_server, _caller, client) = echo_setup(&net);
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

/// The sharded dispatch path under a full fault mix: several concurrent
/// caller activities (spread by `shard_for` over per-worker queues, with
/// stealing between them) drive a 4-worker server through loss,
/// duplication and delay-induced reordering. Every call's service
/// procedure must run exactly once — duplicate filtering lives in the
/// per-activity state, so neither a retransmission nor a steal to
/// another worker can double-dispatch — and when the endpoints shut
/// down, every shard of the server's buffer pool must get all of its
/// buffers back: retained results, reassembly state and in-flight
/// receive buffers all return to their home shard.
#[test]
fn sharded_dispatch_survives_fault_mix_exactly_once() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    check("sharded_dispatch_exactly_once", 6, |g| {
        let seed = g.u64();
        let loss = g.f64_unit() * 0.2;
        let duplicate = g.f64_unit() * 0.4;
        let delay_us = g.usize_in(0..1500);
        let net = LoopbackNet::with_seed(seed);

        let iface = parse_interface(
            "DEFINITION MODULE Count;
               PROCEDURE Bump(n: INTEGER): INTEGER;
             END Count.",
        )
        .unwrap();
        let executed = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&executed);
        let service = ServiceBuilder::new(iface.clone())
            .on_call("Bump", move |args, w| {
                counter.fetch_add(1, Ordering::Relaxed);
                let n = args[0].value().and_then(Value::as_integer).unwrap();
                w.next_value(&Value::Integer(n))?;
                Ok(())
            })
            .build()
            .unwrap();

        let mut cfg = Config::fast_retry();
        cfg.max_transmissions = 40; // Chaos needs patience.
        cfg.retransmit_max = Duration::from_millis(50);
        cfg.server_threads = 4;
        let server = Endpoint::new(net.station(1), cfg.clone()).unwrap();
        let caller = Endpoint::new(net.station(2), cfg).unwrap();
        server.export(service).unwrap();
        let client = caller.bind(&iface, server.address()).unwrap();
        net.set_faults(FaultPlan {
            loss,
            duplicate,
            corrupt: 0.0,
            // Delayed frames are delivered off independent threads, so
            // concurrent traffic genuinely reorders on the wire.
            delay: (delay_us > 0).then(|| Duration::from_micros(delay_us as u64)),
        });

        const CALLERS: usize = 4;
        const CALLS: u64 = 6;
        std::thread::scope(|s| {
            for t in 0..CALLERS {
                let client = client.clone();
                s.spawn(move || {
                    for i in 0..CALLS {
                        let v = (t as u64 * 100 + i) as i32;
                        let r = client.call("Bump", &[Value::Integer(v)]).unwrap();
                        assert_eq!(r[0].clone(), Value::Integer(v), "caller {t} call {i}");
                    }
                });
            }
        });
        prop_assert_eq!(
            executed.load(Ordering::Relaxed),
            CALLERS as u64 * CALLS,
            "a duplicated or retransmitted call was dispatched more than once"
        );

        // Shutdown leak check, per shard: keep a pool handle, tear the
        // endpoints down (shutdown joins the demux and every worker),
        // and verify each shard's outstanding count returns to zero.
        let server_pool = server.pool().clone();
        let caller_pool = caller.pool().clone();
        drop(client);
        drop(caller);
        drop(server);
        for (side, pool) in [("server", &server_pool), ("caller", &caller_pool)] {
            for shard in 0..pool.shard_count() {
                let outstanding = pool.shard(shard).stats().outstanding();
                prop_assert_eq!(
                    outstanding,
                    0,
                    "{} pool shard {} leaked {} buffer(s) at shutdown",
                    side,
                    shard,
                    outstanding
                );
            }
        }
        Ok(())
    });
}

/// Garbage on the wire must never wedge the demultiplexer: a frame whose
/// packet-type byte is not a known type is counted (`unknown_type_drops`)
/// and dropped, a ProbeResponse for a call nobody is waiting on is
/// counted (`stray_probe_responses`) and dropped, and real calls keep
/// succeeding throughout. Every protocol transition the endpoints take
/// while being poked stays inside the declared spec table.
#[test]
fn garbage_frames_are_counted_dropped_and_harmless() {
    use firefly_rpc::transport::Transport;
    use firefly_wire::{
        ActivityId, FrameBuilder, PacketType, DATA_OFFSET, RPC_HEADER_LEN,
    };

    let net = LoopbackNet::new();
    let (server, caller, client) = echo_setup(&net);
    let injector = net.station(99);

    let r = client.call("Twice", &[Value::Integer(21)]).unwrap();
    assert_eq!(r[0].clone(), Value::Integer(42));

    // An otherwise well-formed frame whose RPC packet-type byte is 0xee.
    // The checksum is disabled so validation reaches the type decoder
    // instead of rejecting the frame one layer earlier.
    let mut bad_type = FrameBuilder::new(PacketType::Call)
        .activity(ActivityId::new(77, 1, 1))
        .call_seq(1)
        .with_checksum(false)
        .build(&[])
        .unwrap()
        .into_bytes();
    bad_type[DATA_OFFSET - RPC_HEADER_LEN] = 0xee;

    // A valid ProbeResponse for an activity with no outstanding call.
    let stray_pr = FrameBuilder::new(PacketType::ProbeResponse)
        .activity(ActivityId::new(88, 2, 2))
        .call_seq(9)
        .build(&[])
        .unwrap();

    const GARBAGE: u64 = 5;
    for _ in 0..GARBAGE {
        injector.send(&bad_type, server.address()).unwrap();
        injector.send(&bad_type, caller.address()).unwrap();
        injector.send(stray_pr.bytes(), caller.address()).unwrap();
    }

    // Delivery is asynchronous through each endpoint's demux thread.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while (server.stats().unknown_type_drops() < GARBAGE
        || caller.stats().unknown_type_drops() < GARBAGE
        || caller.stats().stray_probe_responses() < GARBAGE)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.stats().unknown_type_drops(), GARBAGE);
    assert_eq!(caller.stats().unknown_type_drops(), GARBAGE);
    assert_eq!(caller.stats().stray_probe_responses(), GARBAGE);

    // The demux survived: calls still complete, and nothing was
    // misrouted into the real-protocol counters.
    for i in 0..5i32 {
        let r = client.call("Twice", &[Value::Integer(i)]).unwrap();
        assert_eq!(r[0].clone(), Value::Integer(2 * i));
    }
    assert_eq!(server.stats().validation_drops(), 0);

    // Whatever rows the endpoints took, each is a declared spec row —
    // the exporter filters through the table, so an out-of-table row
    // can only mean a recording bug; the dispatch row must be present.
    let observed = server.protocol_transitions();
    assert!(observed.contains(&"server-new Call last_fragment -> dispatch"));
    let caller_rows = caller.protocol_transitions();
    assert!(caller_rows.contains(&"caller-open Result last_fragment -> complete-call"));
}

/// Tracing stays truthful under chaos: fragmented calls through loss and
/// duplication still reassemble byte-exactly, and every trace record the
/// run produces is internally sane — complete, no step going backwards,
/// and genuinely positive marshal and wire times for multi-KB bodies.
/// Retransmissions and duplicate deliveries re-walk the stamped code
/// paths, so this is the first-write-wins discipline under real fire.
#[test]
fn traced_fragments_survive_fault_mix() {
    use firefly_rpc::trace::{Role, CALLER_STEPS, SERVER_STEPS};
    check("traced_fragments_survive_fault_mix", 6, |g| {
        let seed = g.u64();
        let loss = g.f64_unit() * 0.12;
        let duplicate = g.f64_unit() * 0.3;
        let size = g.usize_in(2000..9000);
        let net = LoopbackNet::with_seed(seed);
        let (server, caller, client) = echo_setup_with(&net, true);
        net.set_faults(FaultPlan {
            loss,
            duplicate,
            corrupt: 0.0,
            delay: None,
        });
        const CALLS: usize = 3;
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        for i in 0..CALLS {
            let r = client
                .call("Blob", &[Value::Bytes(data.clone()), Value::Bytes(Vec::new())])
                .unwrap();
            prop_assert_eq!(r[0].as_bytes().unwrap(), &data[..], "call {} garbled", i);
        }
        // One complete caller record per successful call, stamped in
        // order despite retransmits and duplicate result deliveries.
        let mut caller_records = Vec::new();
        caller.tracer().drain(|r| caller_records.push(*r));
        let complete: Vec<_> = caller_records
            .iter()
            .filter(|r| r.role == Role::Caller && r.is_complete())
            .collect();
        prop_assert_eq!(complete.len(), CALLS, "lost caller records");
        for rec in complete {
            for (name, from, to) in CALLER_STEPS {
                let delta = rec.step_delta(from, to).unwrap();
                prop_assert!(delta >= 0, "caller step `{}` negative: {} ns", name, delta);
            }
            // A multi-KB body cannot marshal or cross the wire in zero
            // time; zero here would mean a stamp overwritten by a
            // retransmission's second pass.
            prop_assert!(rec.step_delta(1, 2).unwrap() > 0, "zero marshal time");
            prop_assert!(rec.step_delta(3, 4).unwrap() > 0, "zero wire time");
            prop_assert!(rec.span_nanos() > 0);
        }
        // Server records: duplicates are filtered before dispatch, so at
        // most one record per unique call, each internally ordered.
        for _ in 0..200 {
            if server.tracer().recorded() >= CALLS as u64 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut server_records = Vec::new();
        server.tracer().drain(|r| server_records.push(*r));
        prop_assert!(!server_records.is_empty(), "no server records");
        prop_assert!(server_records.len() <= CALLS, "duplicate dispatch traced");
        for rec in &server_records {
            prop_assert_eq!(rec.role, Role::Server);
            prop_assert!(rec.is_complete(), "partial server record {:?}", rec.stamps);
            for (name, from, to) in SERVER_STEPS {
                let delta = rec.step_delta(from, to).unwrap();
                prop_assert!(delta >= 0, "server step `{}` negative", name);
            }
        }
        Ok(())
    });
}

/// A transfer far longer than the caller's transmission budget, under
/// loss: 70 fragments each way at 15 %, with `fast_retry`'s ten
/// transmissions. Recovery in the result direction is the caller's —
/// every loss costs it a timeout and a duplicate call — so the budget
/// has to be per stall, not per call: result fragments arriving since
/// the last timeout reset it. (Without that, the twenty-odd losses on
/// the way back exhaust it a few fragments in.)
#[test]
fn a_long_result_under_loss_outlasts_the_transmission_budget() {
    let iface = parse_interface(
        "DEFINITION MODULE Echo;
           PROCEDURE Blob(VAR IN data: ARRAY OF CHAR; VAR OUT copy: ARRAY OF CHAR);
         END Echo.",
    )
    .unwrap();
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Blob", |args, w| {
            let data = args[0].bytes().unwrap();
            w.next_bytes(data.len())?.copy_from_slice(data);
            Ok(())
        })
        .build()
        .unwrap();
    let cfg = Config::fast_retry();
    let net = LoopbackNet::with_seed(0x10_0000);
    let server = Endpoint::new(net.station(1), cfg.clone()).unwrap();
    let caller = Endpoint::new(net.station(2), cfg.clone()).unwrap();
    server.export(service).unwrap();
    let client = caller.bind(&iface, server.address()).unwrap();
    net.set_faults(FaultPlan {
        loss: 0.15,
        ..FaultPlan::default()
    });
    let data: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
    let r = client
        .call("Blob", &[Value::Bytes(data.clone()), Value::Bytes(Vec::new())])
        .unwrap();
    assert_eq!(r[0].as_bytes().unwrap(), &data[..]);
    // Each of these answered a caller timeout in the result direction:
    // more of them than one budget allows.
    let recoveries = server.stats().retransmissions();
    assert!(
        recoveries > u64::from(cfg.max_transmissions),
        "only {recoveries} recoveries: the budget was never at stake"
    );
}
