//! Idle-activity reclamation: server state stays bounded.

use firefly_idl::{test_interface, Value};
use firefly_rpc::transport::LoopbackNet;
use firefly_rpc::{Config, Endpoint, ServiceBuilder};
use std::sync::Arc;
use std::time::Duration;

fn pair() -> (Arc<Endpoint>, Arc<Endpoint>) {
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    let service = ServiceBuilder::new(test_interface())
        .on_call("Null", |_a, _w| Ok(()))
        .on_call("MaxResult", |_a, w| {
            w.next_bytes(8)?.fill(1);
            Ok(())
        })
        .on_call("MaxArg", |_a, _w| Ok(()))
        .build()
        .unwrap();
    server.export(service).unwrap();
    (server, caller)
}

#[test]
fn idle_activities_are_reclaimed() {
    // A dedicated setup whose Null handler is slow enough that all eight
    // calls are in flight at once: activity slots are pooled per client,
    // so eight *distinct* activities only exist if no call completes
    // (releasing its slot for reuse) before the last one starts. The
    // server tracks an activity as soon as its call packet arrives, so
    // queued calls count even with fewer worker threads than callers.
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    let service = ServiceBuilder::new(test_interface())
        .on_call("Null", |_a, _w| {
            std::thread::sleep(Duration::from_millis(40));
            Ok(())
        })
        .on_call("MaxResult", |_a, _w| Ok(()))
        .on_call("MaxArg", |_a, _w| Ok(()))
        .build()
        .unwrap();
    server.export(service).unwrap();
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    let barrier = Arc::new(std::sync::Barrier::new(8));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let c = client.clone();
        let b = barrier.clone();
        handles.push(std::thread::spawn(move || {
            b.wait();
            c.call("Null", &[]).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(server.tracked_activities() >= 8);
    std::thread::sleep(Duration::from_millis(30));
    let pruned = server.prune_idle_activities(Duration::from_millis(10));
    assert!(pruned >= 8, "pruned {pruned}");
    assert_eq!(server.tracked_activities(), 0);
}

#[test]
fn active_conversations_survive_pruning() {
    let (server, caller) = pair();
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    client.call("Null", &[]).unwrap();
    // A conversation used moments ago stays.
    let pruned = server.prune_idle_activities(Duration::from_secs(60));
    assert_eq!(pruned, 0);
    assert!(server.tracked_activities() >= 1);
}

#[test]
fn pruning_releases_retained_pool_buffers() {
    let (server, caller) = pair();
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    // MaxResult leaves a retained single-packet result: in the
    // activity's own frame, not in a pool buffer.
    client.call("MaxResult", &[Value::char_array(8)]).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(server.pool().stats().outstanding(), 0, "a retained result holds a pool buffer");
    assert_eq!(server.tracked_activities(), 1);
    let pruned = server.prune_idle_activities(Duration::from_millis(5));
    assert_eq!(pruned, 1);
    assert_eq!(server.tracked_activities(), 0);
}

#[test]
fn conversation_restarts_after_pruning() {
    // A pruned activity must be able to call again: the server treats it
    // as a fresh conversation (sequence numbers keep increasing, so the
    // duplicate filter stays correct).
    let (server, caller) = pair();
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    client.call("Null", &[]).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    server.prune_idle_activities(Duration::from_millis(5));
    client.call("Null", &[]).unwrap();
    assert_eq!(caller.stats().calls_completed(), 2);
}

#[test]
fn forged_probes_and_acks_leave_no_server_state() {
    // Only a call makes server state for an activity: a probe or a
    // result ack for an activity the server has never seen is answered
    // (or not) from nothing, so a stream of forged ones cannot grow the
    // activity table — nothing prunes it until an idle timeout.
    use firefly_rpc::transport::Transport;
    use firefly_wire::{ActivityId, FrameBuilder, PacketType};
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    let service = ServiceBuilder::new(test_interface())
        .on_call("Null", |_a, _w| Ok(()))
        .on_call("MaxResult", |_a, _w| Ok(()))
        .on_call("MaxArg", |_a, _w| Ok(()))
        .build()
        .unwrap();
    server.export(service).unwrap();
    let client = caller.bind(&test_interface(), server.address()).unwrap();
    client.call("Null", &[]).unwrap();
    assert_eq!(server.tracked_activities(), 1);

    const FORGED: u16 = 10_000;
    let forger = net.station(66);
    for thread in 0..FORGED {
        let activity = ActivityId::new(0x0bad, 1, thread);
        let probe = FrameBuilder::new(PacketType::Probe)
            .activity(activity)
            .call_seq(7)
            .build(&[])
            .unwrap();
        forger.send(probe.bytes(), server.address()).unwrap();
        let ack = FrameBuilder::new(PacketType::Ack)
            .activity(activity)
            .call_seq(7)
            .acks_result(true)
            .build(&[])
            .unwrap();
        forger.send(ack.bytes(), server.address()).unwrap();
    }
    // The receiver takes the frames in order: once it has counted the
    // last ack, it has handled every probe before it.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.stats().acks_received() < u64::from(FORGED) {
        assert!(std::time::Instant::now() < deadline, "stats:\n{}", server.stats());
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(server.tracked_activities(), 1, "forged packets made server state");
    assert_eq!(server.stats().probes_answered(), 0);
    // The real conversation goes on as before.
    client.call("Null", &[]).unwrap();
    assert_eq!(server.tracked_activities(), 1);
}
