//! Deterministic protocol-transition drills for the protocol gate.
//!
//! Two drivers, both over the *real* production types, both recording
//! through [`firefly_rpc::witness::ProtocolWitness`]:
//!
//! * [`caller_transitions`] — a scripted packet sequence against a real
//!   [`ShardedCallTable`] that walks every caller-side row of
//!   protocol.toml (Result completion/assembly in all flag shapes, with
//!   and without a prefix to ack, Ack quench/advance, ProbeResponse, and
//!   the seven orphan shapes). It runs as the `sharded-calltable`
//!   model's transition readout, hook-free, after the model's own
//!   schedules all pass.
//!
//! * [`wire_transitions`] — a live [`Endpoint`] on a loopback station
//!   poked by a raw-frame injector, driving every server-side row:
//!   fresh dispatch and assembly, duplicates against an executing /
//!   retained / released / stale activity, the probe answers in every
//!   state (assembling: the prefix, or silence), and the result-ack
//!   advance/hole/release/stale rows (on a real transfer of one window
//!   and a fragment: each row is recorded where its fragment is sent).
//!   A gated Null service (each call waits for an explicit token) pins
//!   the activity in the executing state while duplicates land.
//!
//! Everything observed flows into [`crate::smoke::Report::transitions`],
//! which [`crate::gates::protocol`] checks against the spec: observed
//! rows must be legal, legal rows must be observed (or explicitly
//! allowlisted). Synchronization leans on two facts: the
//! demux processes one station's frames in arrival order, so a frame's
//! effect is visible to every later frame without handshakes; and a
//! result frame reaching the injector means the worker already installed
//! the retained copy, so retention-dependent injections only need to
//! await the result.

use firefly_pool::BufferPool;
use firefly_rpc::calltable::{Deliver, ShardedCallTable};
use firefly_rpc::fragment::WINDOW;
use firefly_rpc::packet::Packet;
use firefly_rpc::transport::{LoopbackNet, Transport};
use firefly_rpc::witness::TRANSITIONS;
use firefly_rpc::{Config, Endpoint, ServiceBuilder};
use firefly_sync::channel;
use firefly_wire::{ActivityId, FrameBuilder, FrameView, PacketType};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Flag shape of a drill packet; `ar`/`cf` are acks-result/call-failed.
#[derive(Clone, Copy, Default)]
struct Shape {
    pa: bool,
    lf_frag: (u16, u16),
    ar: bool,
    cf: bool,
}

/// The body of a drill fragment: full unless it is the last, as the
/// reassembly on both sides insists (only the last fragment is short).
fn drill_body(ty: PacketType, (index, count): (u16, u16)) -> &'static [u8] {
    let carries_data = matches!(ty, PacketType::Call | PacketType::Result);
    if carries_data && index + 1 < count {
        &[0; firefly_wire::MAX_SINGLE_PACKET_DATA]
    } else {
        &[]
    }
}

/// Builds a pool-backed packet of the given type and shape. The drills
/// only craft shapes the spec names, so parse failures are panics, not
/// scenario outcomes.
fn drill_packet(pool: &BufferPool, ty: PacketType, act: ActivityId, seq: u32, s: Shape) -> Packet {
    let frame = FrameBuilder::new(ty)
        .activity(act)
        .call_seq(seq)
        .fragment(s.lf_frag.0, s.lf_frag.1)
        .please_ack(s.pa)
        .acks_result(s.ar)
        .call_failed(s.cf)
        .build(drill_body(ty, s.lf_frag))
        .expect("drill frame");
    let mut buf = pool.alloc().expect("drill pool");
    buf.fill_from(frame.bytes());
    Packet::from_buf(buf).expect("drill packet")
}

/// Walks a real [`ShardedCallTable`] through every caller-side spec row
/// and returns the rows its witnesses recorded, in table order.
///
/// The script is a compressed history of one endpoint's bad afternoon:
/// single- and multi-fragment results in every flag shape, a server ack
/// and probe-response against an open call, then the same packet types
/// again after the calls are gone (the orphan rows). Deterministic —
/// single thread, fixed sequence — so the exported set is stable.
pub fn caller_transitions() -> Vec<String> {
    let table = ShardedCallTable::new(4);
    let pool = BufferPool::new(32);
    let act = |t: u16| ActivityId::new(11, 1, t);
    // Entries stay registered for the whole drill (mirroring callers
    // parked in wait); the table tears them down on drop.
    let mut open = Vec::new();

    let frag = |i, n, pa| Shape { pa, lf_frag: (i, n), ..Shape::default() };
    let single = |pa| frag(0, 1, pa);

    // caller-open Result, single packet: complete-call / fail-call.
    open.push(table.register(act(1), 1));
    let pkt = drill_packet(&pool, PacketType::Result, act(1), 1, single(false));
    assert!(matches!(table.deliver(pkt), Deliver::Accepted));
    open.push(table.register(act(2), 1));
    let pkt = drill_packet(
        &pool,
        PacketType::Result,
        act(2),
        1,
        Shape { cf: true, lf_frag: (0, 1), ..Shape::default() },
    );
    assert!(matches!(table.deliver(pkt), Deliver::Accepted));

    // Early final fragment (assemble), then a please-ack non-final
    // completes: complete-call, unacked (the next call acks it).
    open.push(table.register(act(3), 1));
    let pkt = drill_packet(&pool, PacketType::Result, act(3), 1, frag(1, 2, false));
    assert!(matches!(table.deliver(pkt), Deliver::Accepted));
    let pkt = drill_packet(&pool, PacketType::Result, act(3), 1, frag(0, 2, true));
    assert!(matches!(table.deliver(pkt), Deliver::Accepted));

    // Non-final first, not asking (assemble), then a please-ack final
    // completes: complete-call with last-fragment, unacked too.
    open.push(table.register(act(4), 1));
    let pkt = drill_packet(&pool, PacketType::Result, act(4), 1, frag(0, 2, false));
    assert!(matches!(table.deliver(pkt), Deliver::Accepted));
    let pkt = drill_packet(&pool, PacketType::Result, act(4), 1, frag(1, 2, true));
    assert!(matches!(table.deliver(pkt), Deliver::Accepted));

    // Still-assembling shapes with please-ack and a prefix to name:
    // non-final and reordered final (three fragments, so neither
    // delivery completes).
    open.push(table.register(act(5), 1));
    let pkt = drill_packet(&pool, PacketType::Result, act(5), 1, frag(0, 3, true));
    assert!(matches!(table.deliver(pkt), Deliver::AcceptedNeedsAck(_)));
    let pkt = drill_packet(&pool, PacketType::Result, act(5), 1, frag(2, 3, true));
    assert!(matches!(table.deliver(pkt), Deliver::AcceptedNeedsAck(_)));

    // The same two while fragment 0 is the hole: nothing to name, no
    // ack. Then fragment 0, not asking, fills it: complete-call from a
    // non-final fragment.
    open.push(table.register(act(7), 1));
    let pkt = drill_packet(&pool, PacketType::Result, act(7), 1, frag(1, 3, true));
    assert!(matches!(table.deliver(pkt), Deliver::Accepted));
    let pkt = drill_packet(&pool, PacketType::Result, act(7), 1, frag(2, 3, true));
    assert!(matches!(table.deliver(pkt), Deliver::Accepted));
    let pkt = drill_packet(&pool, PacketType::Result, act(7), 1, frag(0, 3, false));
    assert!(matches!(table.deliver(pkt), Deliver::Accepted));

    // Server ack (quench / fragment-advance) and probe-response against
    // an open call that has not produced a result yet.
    open.push(table.register(act(6), 1));
    let pkt = drill_packet(&pool, PacketType::Ack, act(6), 1, single(false));
    assert!(matches!(table.deliver(pkt), Deliver::Accepted));
    let pkt = drill_packet(&pool, PacketType::Ack, act(6), 1, frag(0, 2, false));
    assert!(matches!(table.deliver(pkt), Deliver::Accepted));
    let pkt = drill_packet(&pool, PacketType::ProbeResponse, act(6), 1, single(false));
    assert!(matches!(table.deliver(pkt), Deliver::Accepted));

    // The orphan shapes: the same packets against an activity nobody
    // registered (a caller long since timed out and moved on).
    for shape in [
        (PacketType::Result, single(false)),
        (PacketType::Result, frag(0, 2, false)),
        (PacketType::Result, frag(0, 2, true)),
        (PacketType::Result, Shape { cf: true, lf_frag: (0, 1), ..Shape::default() }),
        (PacketType::Ack, single(false)),
        (PacketType::Ack, frag(0, 2, false)),
        (PacketType::ProbeResponse, single(false)),
    ] {
        let pkt = drill_packet(&pool, shape.0, act(9), 1, shape.1);
        assert!(matches!(table.deliver(pkt), Deliver::Orphan(_)));
    }

    let mut rows = BTreeSet::new();
    table.merge_witnesses(&mut rows);
    let out: Vec<String> = TRANSITIONS
        .iter()
        .filter(|t| rows.contains(*t))
        .map(|t| (*t).to_string())
        .collect();
    // The drill's contract: every caller-side row, nothing server-side.
    let want: Vec<&str> = side_rows("caller-").collect();
    assert_eq!(out, want, "caller drill no longer covers the caller rows");
    out
}

/// The spec rows of one side (`"server-"` / `"caller-"`), in table order.
fn side_rows(side: &'static str) -> impl Iterator<Item = &'static str> {
    TRANSITIONS.iter().copied().filter(move |t| t.starts_with(side))
}

/// Spins until `done` holds; the drills are local and lock-free waits,
/// so a deadline this long only ever fires on a real bug.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        if Instant::now() > deadline {
            return Err(format!("wire scenario: timed out waiting for {what}"));
        }
        std::thread::yield_now();
    }
    Ok(())
}

/// Drives a live server endpoint through every server-side spec row by
/// injecting raw frames from a second loopback station, and returns the
/// rows the endpoint's witness recorded.
pub fn wire_transitions() -> Result<Vec<String>, String> {
    let net = LoopbackNet::new();
    let endpoint = Endpoint::new(net.station(1), Config::default())
        .map_err(|e| format!("wire scenario: endpoint: {e}"))?;
    let injector = net.station(99);

    // A Null service gated per call: the handler signals entry, then
    // blocks until the scenario feeds it a token — that window is the
    // protocol's "executing" state, held open while duplicates and
    // probes land. Dropping the sender unblocks any leftover handler,
    // so an early error cannot wedge the endpoint's worker join.
    //
    // A handler that may block must never be taken for a short one, or
    // the endpoint's receiving thread would run it and be deaf to those
    // very duplicates: it is slow from its first call (five times the
    // inline ceiling), so it always runs on a server thread.
    let entered = Arc::new(AtomicUsize::new(0));
    let (token_tx, token_rx) = channel::unbounded::<()>();
    let service = {
        let entered = Arc::clone(&entered);
        ServiceBuilder::new(firefly_idl::test_interface())
            .on_call("Null", move |_args, _w| {
                entered.fetch_add(1, Ordering::SeqCst);
                let began = std::time::Instant::now();
                while began.elapsed() < std::time::Duration::from_micros(100) {
                    std::hint::spin_loop();
                }
                let _ = token_rx.recv();
                Ok(())
            })
            .on_call("MaxResult", |_args, _w| Ok(()))
            .on_call("MaxArg", |_args, _w| Ok(()))
            .build()
            .map_err(|e| format!("wire scenario: service: {e}"))?
    };
    endpoint
        .export(service)
        .map_err(|e| format!("wire scenario: export: {e}"))?;
    // A result of one window and one fragment more, for the acks that
    // move a transfer.
    let bulk = ServiceBuilder::new(bulk_interface())
        .on_call("Get", |_args, w| {
            w.next_bytes(usize::from(WINDOW) * 1440 + 560)?.fill(0x42);
            Ok(())
        })
        .build()
        .map_err(|e| format!("wire scenario: bulk service: {e}"))?;
    endpoint
        .export(bulk)
        .map_err(|e| format!("wire scenario: export: {e}"))?;

    let result = drive_server_rows(&endpoint, injector.as_ref(), &token_tx, &entered);
    // Unblock any still-gated handler before the endpoint joins its
    // workers (a dropped sender makes the handler's recv return Err).
    drop(token_tx);
    endpoint.shutdown();
    result?;

    let rows: Vec<String> = endpoint
        .protocol_transitions()
        .iter()
        .map(|t| (*t).to_string())
        .collect();
    for want in side_rows("server-") {
        if !rows.iter().any(|r| r == want) {
            return Err(format!("wire scenario: server row not driven: {want}"));
        }
    }
    Ok(rows)
}

/// One procedure whose result takes more than a window of packets.
fn bulk_interface() -> firefly_idl::InterfaceDef {
    firefly_idl::parse_interface(
        "DEFINITION MODULE Bulk; PROCEDURE Get(VAR OUT out: ARRAY OF CHAR); END Bulk.",
    )
    .expect("bulk interface parses")
}

/// The injection script proper. Separated out so the caller can always
/// release the service gate and shut the endpoint down, whichever step
/// failed.
fn drive_server_rows(
    endpoint: &Endpoint,
    injector: &dyn Transport,
    token_tx: &channel::Sender<()>,
    entered: &AtomicUsize,
) -> Result<(), String> {
    let dst = endpoint.address();
    let iface = firefly_idl::test_interface();
    let act = |t: u16| ActivityId::new(77, 1, t);

    let inject = |frame: Vec<u8>| -> Result<(), String> {
        injector
            .send(&frame, dst)
            .map_err(|e| format!("wire scenario: inject: {e}"))
    };
    // Single-packet calls are the gated `Null()`; fragments belong to a
    // `MaxArg` call, whose 1440-byte argument is exactly one full
    // fragment followed by an empty last one.
    let call = |a: ActivityId, seq: u32, frag: (u16, u16), pa: bool| -> Vec<u8> {
        FrameBuilder::new(PacketType::Call)
            .activity(a)
            .call_seq(seq)
            .fragment(frag.0, frag.1)
            .please_ack(pa)
            .interface(iface.uid(), iface.version())
            .procedure(if frag.1 > 1 { 2 } else { 0 })
            .build(drill_body(PacketType::Call, frag))
            .expect("call frame")
            .into_bytes()
    };
    let probe = |a: ActivityId, seq: u32| -> Vec<u8> {
        FrameBuilder::new(PacketType::Probe)
            .activity(a)
            .call_seq(seq)
            .fragment(0, 1)
            .build(&[])
            .expect("probe frame")
            .into_bytes()
    };
    let result_ack = |a: ActivityId, seq: u32, frag: (u16, u16)| -> Vec<u8> {
        FrameBuilder::new(PacketType::Ack)
            .activity(a)
            .call_seq(seq)
            .fragment(frag.0, frag.1)
            .acks_result(true)
            .build(&[])
            .expect("ack frame")
            .into_bytes()
    };
    // Wait until the endpoint's witness shows `row` — the demux handles
    // injected frames in order, so the row appearing also means every
    // earlier injection was fully classified.
    let expect_row = |row: &'static str| -> Result<(), String> {
        wait_for(row, || {
            endpoint.protocol_transitions().iter().any(|t| *t == row)
        })
    };
    // Drain injector-bound frames until a Result for activity `a`
    // arrives (retransmissions to other activities may still be queued).
    // The worker installs the retained copy before the result frame is
    // sent, so this doubles as the retention barrier.
    let await_result = |a: ActivityId| -> Result<(), String> {
        let mut buf = [0u8; 2048];
        wait_for("a result frame", || loop {
            match injector.try_recv(&mut buf) {
                Ok(Some((n, _))) => {
                    let result = FrameView::parse(&buf[..n]).is_ok_and(|f| {
                        f.rpc.packet_type == PacketType::Result && f.rpc.activity == a
                    });
                    if result {
                        return true;
                    }
                }
                _ => return false,
            }
        })
    };
    let token = || token_tx.send(()).map_err(|_| "gate closed".to_string());

    // Fresh single-packet dispatch, bare and please-ack.
    token()?;
    inject(call(act(1), 1, (0, 1), false))?;
    await_result(act(1))?;
    token()?;
    inject(call(act(2), 1, (0, 1), true))?;
    await_result(act(2))?;

    // Assembly of two-fragment calls: non-final first (assemble-ack when
    // it asks, assemble when not), and the final fragment arriving early
    // (assemble, both shapes: asking, it finds no prefix to name) —
    // none of these dispatch yet.
    inject(call(act(3), 1, (0, 2), true))?;
    inject(call(act(4), 1, (0, 2), false))?;
    inject(call(act(5), 1, (1, 2), false))?;
    inject(call(act(6), 1, (1, 2), true))?;

    // Completion by a *non-final* fragment (the final arrived above):
    // dispatch, asking or not (the Result acks the call).
    inject(call(act(5), 1, (0, 2), true))?;
    await_result(act(5))?;
    inject(call(act(6), 1, (0, 2), false))?;
    await_result(act(6))?;

    // Three-fragment calls that never complete. A non-final fragment
    // asking while fragment 0 is the hole: no prefix, no ack; a probe
    // then finds the call being assembled and goes unanswered too. A
    // final one asking behind fragment 0: assemble-ack, and a probe is
    // answered with the prefix.
    inject(call(act(10), 1, (1, 3), true))?;
    inject(probe(act(10), 1))?;
    inject(call(act(11), 1, (0, 3), false))?;
    inject(call(act(11), 1, (2, 3), true))?;
    inject(probe(act(11), 1))?;
    expect_row("server-assembling Probe last_fragment -> ack-prefix")?;

    // Pin act(7) in the executing state: no token, so the handler sits
    // in the gate once entered, and every duplicate below classifies
    // against an in-progress, not-yet-retained call.
    inject(call(act(7), 1, (0, 1), false))?;
    wait_for("the gated call to start executing", || {
        entered.load(Ordering::SeqCst) == 3
    })?;
    inject(call(act(7), 1, (0, 1), true))?; // ack-executing, +last_fragment
    inject(call(act(7), 1, (0, 2), true))?; // ack-executing
    inject(call(act(7), 1, (0, 1), false))?; // drop-duplicate, +last_fragment
    inject(call(act(7), 1, (0, 2), false))?; // drop-duplicate
    inject(probe(act(7), 1))?; // probe-response
    expect_row("server-dup-executing Call please_ack -> ack-executing")?;
    expect_row("server-dup-executing Call - -> drop-duplicate")?;
    expect_row("server-executing Probe last_fragment -> probe-response")?;

    // Release the gate; the result frame's arrival proves the retained
    // copy is installed, and the same duplicates now retransmit it.
    token()?;
    await_result(act(7))?;
    inject(call(act(7), 1, (0, 1), false))?;
    inject(call(act(7), 1, (0, 1), true))?;
    inject(call(act(7), 1, (0, 2), true))?;
    inject(call(act(7), 1, (0, 2), false))?;
    inject(probe(act(7), 1))?; // retained probe also retransmits
    expect_row("server-dup-retained Call - -> retransmit-result")?;
    expect_row("server-retained Probe last_fragment -> retransmit-result")?;

    // Explicit result acks, on a result of one window and one fragment
    // more. An ack short of the window names a hole (the receiving
    // thread sends that fragment again); the ack of the window's edge
    // advances the transfer (it sends the last fragment). Each is a
    // result awaited here. The final ack releases a retained result.
    let bulk = bulk_interface();
    let get = FrameBuilder::new(PacketType::Call)
        .activity(act(9))
        .call_seq(1)
        .interface(bulk.uid(), bulk.version())
        .procedure(0)
        .build(&[])
        .expect("call frame")
        .into_bytes();
    inject(get)?;
    for _ in 0..WINDOW {
        await_result(act(9))?;
    }
    inject(result_ack(act(9), 1, (1, WINDOW + 1)))?;
    await_result(act(9))?;
    inject(result_ack(act(9), 1, (WINDOW - 1, WINDOW + 1)))?;
    await_result(act(9))?;
    inject(result_ack(act(7), 1, (0, 1)))?;
    expect_row("server-known Ack acks_result -> resend-hole")?;
    expect_row("server-known Ack acks_result -> advance-fragment")?;
    expect_row("server-known Ack last_fragment+acks_result -> release-retained")?;

    // With the retention released and nothing executing, the same four
    // duplicate shapes are dropped, and a probe goes silent.
    inject(call(act(7), 1, (0, 1), false))?;
    inject(call(act(7), 1, (0, 1), true))?;
    inject(call(act(7), 1, (0, 2), true))?;
    inject(call(act(7), 1, (0, 2), false))?;
    inject(probe(act(7), 1))?;
    expect_row("server-dup-released Call - -> drop-duplicate")?;
    expect_row("server-released Probe last_fragment -> drop-silent")?;

    // A probe and result-acks for a call this server never saw.
    inject(probe(act(8), 5))?;
    inject(result_ack(act(8), 5, (0, 2)))?;
    inject(result_ack(act(8), 5, (0, 1)))?;
    expect_row("server-unknown Probe last_fragment -> drop-silent")?;
    expect_row("server-unknown Ack acks_result -> drop-stale")?;
    expect_row("server-unknown Ack last_fragment+acks_result -> drop-stale")?;

    // A second call on act(7) advances last_seq; retransmissions of the
    // first call are now stale in all four shapes. The demux orders the
    // new call before the stale ones, so no barrier is needed between.
    token()?;
    inject(call(act(7), 2, (0, 1), false))?;
    inject(call(act(7), 1, (0, 1), false))?;
    inject(call(act(7), 1, (0, 1), true))?;
    inject(call(act(7), 1, (0, 2), true))?;
    inject(call(act(7), 1, (0, 2), false))?;
    expect_row("server-stale Call - -> drop-stale")?;
    await_result(act(7))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caller_drill_covers_every_caller_row() {
        let rows = caller_transitions();
        assert_eq!(rows.len(), side_rows("caller-").count());
        assert!(rows.iter().all(|r| r.starts_with("caller-")));
    }

    #[test]
    fn wire_scenario_covers_every_server_row() {
        let rows = wire_transitions().expect("wire scenario drives cleanly");
        for want in side_rows("server-") {
            assert!(rows.contains(&want.to_string()), "missing {want}");
        }
    }
}
