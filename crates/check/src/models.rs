//! The model registry: small, closed concurrent programs over the real
//! production types, explored by the [`crate::Explorer`].
//!
//! Structure models exercise the paper's mechanisms with their actual
//! implementations — call-table slot reuse (§3.1.3), pool recycling
//! through the controller receive queue (§3.2), the trace ring, the
//! MPMC channel and the receive role — and must pass every schedule.
//! Each runs `firefly_rpc`, `firefly_pool` or `firefly_sync` code; none
//! is a hand-written copy of it. Bug models seed one classic
//! concurrency defect each (ABBA deadlock, notify-before-wait lost
//! wakeup, a waiter gate registered after the mutex release,
//! check-then-act double release, and three happens-before
//! races: unsynchronized counter, publish-without-release,
//! store-after-notify) and must *fail*; they prove the checker actually
//! detects what it claims to.
//!
//! Determinism note: every lock/condvar a model registers with the
//! scheduler stays alive until the schedule ends (the call-table model
//! keeps the entry it waited on in a scratch vector). Freed-and-reallocated
//! addresses could otherwise inherit a previous object's registration
//! index, making event names depend on allocator reuse.

use crate::{Model, ModelRun};
use firefly_pool::BufferPool;
use firefly_rpc::calltable::{Delivered, ShardedCallTable, Wait};
use firefly_rpc::packet::{Fragment, Packet};
use firefly_rpc::role::{Polled, ReceiveRole};
use firefly_rpc::trace::{TraceRecord, Tracer};
use firefly_sync::atomic as checked_atomic;
use firefly_sync::{channel, Condvar, Mutex};
use firefly_wire::{ActivityId, FrameBuilder, FrameView, PacketType};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Far-future deadline: timeouts are ignored under the checker (a
/// timeout firing would mask the lost-wakeup detection), but the model
/// must also terminate when run unhooked by accident.
fn far_deadline() -> Instant {
    Instant::now() + Duration::from_secs(3600)
}

fn activity() -> ActivityId {
    ActivityId::new(7, 1, 1)
}

/// Builds a single-fragment Result packet backed by `pool`.
fn result_packet(pool: &BufferPool, seq: u32, data: &[u8]) -> Packet {
    result_packet_for(pool, activity(), seq, data)
}

fn result_packet_for(pool: &BufferPool, activity: ActivityId, seq: u32, data: &[u8]) -> Packet {
    let frame = FrameBuilder::new(PacketType::Result)
        .activity(activity)
        .call_seq(seq)
        .fragment(0, 1)
        .build(data)
        .expect("frame build");
    let mut buf = pool.alloc().expect("model pool alloc");
    buf.fill_from(frame.bytes());
    Packet::from_buf(buf).expect("packet parse")
}

/// Call-table entry reuse: one caller runs two back-to-back calls under
/// the same activity, on the one entry the activity keeps, and a demux
/// thread delivers each result. Once call 1 is registered, the demux
/// also delivers a late ack and a late result-fragment run of call 0,
/// and after call 1's result a late duplicate of call 0's: each must be
/// classified as an orphan — never taken into the reused entry — and
/// call 1 must complete with its own bytes.
fn make_calltable() -> ModelRun {
    let table = Arc::new(ShardedCallTable::new(1));
    let pool = BufferPool::new(4);
    let pkt0 = result_packet(&pool, 0, &[0]);
    let pkt1 = result_packet(&pool, 1, &[1]);
    let dup = result_packet(&pool, 0, &[9]);
    let late_ack = {
        let frame = FrameBuilder::new(PacketType::Ack)
            .activity(activity())
            .call_seq(0)
            .build(&[])
            .expect("frame build");
        let mut buf = pool.alloc().expect("model pool alloc");
        buf.fill_from(frame.bytes());
        Packet::from_buf(buf).expect("packet parse")
    };
    // Call 0's result as two full fragments, one datagram's run.
    let late_run: Vec<Vec<u8>> = (0..2u16)
        .map(|i| {
            FrameBuilder::new(PacketType::Result)
                .activity(activity())
                .call_seq(0)
                .fragment(i, 2)
                .build(&[9; firefly_rpc::fragment::MAX_FRAGMENT_DATA])
                .expect("frame build")
                .into_bytes()
        })
        .collect();
    let (tx, rx) = channel::unbounded::<u32>();

    let label = {
        let table = Arc::clone(&table);
        let pool = pool.clone();
        // Clone taken pre-hook; the label-phase drop's counter update is
        // invisible to the scheduler (no tid registered yet).
        let chan = rx.clone();
        Box::new(move || {
            table.check_labels();
            pool.check_labels();
            chan.check_labels();
        }) as Box<dyn FnOnce() + Send>
    };
    let caller = {
        let table = Arc::clone(&table);
        Box::new(move || {
            let mut keep = Vec::with_capacity(2);
            for seq in 0..2u32 {
                let entry = table.register(activity(), seq);
                entry.check_labels();
                keep.push(Arc::clone(&entry));
                tx.send(seq).expect("demux alive");
                match entry.wait(far_deadline()) {
                    Wait::Complete(a) => assert_eq!(a.data(), &[seq as u8]),
                    other => panic!("round {seq}: unexpected wait outcome {other:?}"),
                }
                table.unregister(activity());
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let demux = {
        let table = Arc::clone(&table);
        Box::new(move || {
            let mut pkts = [Some(pkt0), Some(pkt1)];
            let mut late_ack = Some(late_ack);
            for _ in 0..2 {
                let seq = rx.recv().expect("caller alive") as usize;
                if seq == 1 {
                    // Call 1 is registered on the entry call 0 used: what
                    // is still on its way for call 0 must not reach it.
                    let ack = late_ack.take().expect("sent once");
                    assert!(!table.deliver(ack), "late ack of call 0 taken by call 1");
                    let views: Vec<_> = late_run
                        .iter()
                        .map(|f| FrameView::parse(f).expect("frame parse"))
                        .collect();
                    let run: Vec<_> = views.iter().filter_map(Fragment::of).collect();
                    table.deliver_fragments(&run, None, |d| {
                        assert_eq!(d, Delivered::Orphan, "late fragment of call 0 taken by call 1");
                    });
                }
                let pkt = pkts[seq].take().expect("each seq sent once");
                assert!(table.deliver(pkt), "round {seq}: result not accepted");
            }
            // The duplicate arrives only after the slot was reassigned
            // to call 1 (and possibly already torn down): it must never
            // complete the reused slot.
            assert!(!table.deliver(dup), "late duplicate delivered into a reused slot");
        }) as Box<dyn FnOnce() + Send>
    };
    let finale = Box::new(move || {
        assert_eq!(table.outstanding(), 0, "call table entry leaked");
        assert_eq!(pool.stats().outstanding(), 0, "packet buffer leaked");
    }) as Box<dyn FnOnce() + Send>;
    ModelRun {
        label,
        threads: vec![caller, demux],
        finale,
    }
}

/// Pool acquire/release/recycle: three threads contend for two buffers;
/// one recycles straight onto the controller receive queue (§3.2), one
/// reclaims from it. The finale proves conservation — every slab is back
/// on the free list or the receive queue, and the outstanding counter
/// agrees.
fn make_pool() -> ModelRun {
    let pool = BufferPool::new(2);
    const HOUR: Duration = Duration::from_secs(3600);

    let label = {
        let pool = pool.clone();
        Box::new(move || pool.check_labels()) as Box<dyn FnOnce() + Send>
    };
    let t0 = {
        let pool = pool.clone();
        Box::new(move || {
            let buf = pool.alloc_timeout(HOUR).expect("t0 alloc");
            drop(buf);
        }) as Box<dyn FnOnce() + Send>
    };
    let t1 = {
        let pool = pool.clone();
        Box::new(move || {
            let buf = pool.alloc_timeout(HOUR).expect("t1 alloc");
            pool.recycle_to_receive_queue(buf);
        }) as Box<dyn FnOnce() + Send>
    };
    let t2 = {
        let pool = pool.clone();
        Box::new(move || {
            let buf = pool.alloc_timeout(HOUR).expect("t2 alloc");
            drop(buf);
            // Reclaim from the receive queue if the recycler beat us.
            if let Ok(buf2) = pool.take_receive_buffer() {
                drop(buf2);
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let finale = Box::new(move || {
        assert_eq!(
            pool.free_count() + pool.receive_queue_len(),
            2,
            "slab leaked or double-released"
        );
        assert_eq!(pool.stats().outstanding(), 0, "outstanding counter drifted");
    }) as Box<dyn FnOnce() + Send>;
    ModelRun {
        label,
        threads: vec![t0, t1, t2],
        finale,
    }
}

/// Trace ring under contention: two producers push completed records
/// into a ring of capacity 2 while a consumer drains. The conservation
/// law `drained + dropped == recorded` must hold in every schedule.
fn make_trace_ring() -> ModelRun {
    let tracer = Arc::new(Tracer::new(2));
    let drained = Arc::new(AtomicU64::new(0));

    let label = {
        let tracer = Arc::clone(&tracer);
        Box::new(move || tracer.check_labels()) as Box<dyn FnOnce() + Send>
    };
    let t0 = {
        let tracer = Arc::clone(&tracer);
        Box::new(move || {
            tracer.push(TraceRecord::empty());
            tracer.push(TraceRecord::empty());
        }) as Box<dyn FnOnce() + Send>
    };
    let t1 = {
        let tracer = Arc::clone(&tracer);
        Box::new(move || tracer.push(TraceRecord::empty())) as Box<dyn FnOnce() + Send>
    };
    let t2 = {
        let tracer = Arc::clone(&tracer);
        let drained = Arc::clone(&drained);
        Box::new(move || {
            let mut seen = 0;
            tracer.drain(|_| seen += 1);
            drained.fetch_add(seen, Ordering::Relaxed);
        }) as Box<dyn FnOnce() + Send>
    };
    let finale = Box::new(move || {
        let mut rest = 0u64;
        let dropped = tracer.drain(|_| rest += 1);
        let seen = drained.load(Ordering::Relaxed) + rest;
        assert_eq!(tracer.recorded(), 3, "record lost before the ring");
        assert_eq!(seen + dropped, 3, "ring leaked or duplicated a record");
    }) as Box<dyn FnOnce() + Send>;
    ModelRun {
        label,
        threads: vec![t0, t1, t2],
        finale,
    }
}

/// MPMC channel, as the server's hand-off and the loopback stations use
/// it: two senders, two receivers, three messages. Sender 0 sends two
/// messages and then ends the channel one of two ways, so that each way
/// is the only one that can end the receivers:
/// - sender 1 still running: sender 0 closes, possibly with a message
///   still queued, and keeps its sender past the schedule, as the
///   server's queue does; sender 1's message may land before or after
///   the close;
/// - sender 1 finished: no close; sender 0 hangs up too, and the last
///   sender's drop must wake receivers that may both be parked.
///
/// Either way every message accepted is received exactly once, and both
/// receivers end. Until sender 1 begins its send, nothing can wake a
/// receiver, so one that sender 0 finds parked before its first send
/// (`parked` takes the channel's lock: the receivers may run first) is
/// still parked when that send lands: the send must report it.
fn make_channel() -> ModelRun {
    let (tx0, rx0) = channel::unbounded::<u32>();
    let tx1 = tx0.clone();
    let rx1 = rx0.clone();
    // Clones taken pre-hook; the label-phase drops' counter updates are
    // invisible to the scheduler (no tid registered yet).
    let probe = rx0.clone();
    let chan = rx0.clone();
    let accepted = Arc::new(AtomicU64::new(0));
    let received = Arc::new(AtomicU64::new(0));
    let s1_began = Arc::new(AtomicBool::new(false));
    let s1_done = Arc::new(AtomicBool::new(false));
    // Dropped after the schedule, invisible to the scheduler like the
    // clones above.
    let kept = Arc::new(OnceLock::new());

    let label = Box::new(move || chan.check_labels()) as Box<dyn FnOnce() + Send>;
    let s0 = {
        let accepted = Arc::clone(&accepted);
        let s1_began = Arc::clone(&s1_began);
        let s1_done = Arc::clone(&s1_done);
        let kept = Arc::clone(&kept);
        Box::new(move || {
            let parked = probe.parked();
            let woke = tx0.send(1).expect("receivers alive");
            if !s1_began.load(Ordering::Relaxed) {
                assert!(woke || parked == 0, "a send missed a parked receiver");
            }
            tx0.send(2).expect("receivers alive");
            accepted.fetch_add(3, Ordering::Relaxed);
            if !s1_done.load(Ordering::Relaxed) {
                tx0.close();
                let _ = kept.set(tx0);
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let s1 = {
        let accepted = Arc::clone(&accepted);
        Box::new(move || {
            s1_began.store(true, Ordering::Relaxed);
            if tx1.send(3).is_ok() {
                accepted.fetch_add(3, Ordering::Relaxed);
            }
            s1_done.store(true, Ordering::Relaxed);
        }) as Box<dyn FnOnce() + Send>
    };
    let receiver = |rx: channel::Receiver<u32>| {
        let received = Arc::clone(&received);
        Box::new(move || {
            while let Ok(v) = rx.recv() {
                received.fetch_add(u64::from(v), Ordering::Relaxed);
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let (r0, r1) = (receiver(rx0), receiver(rx1));
    let finale = Box::new(move || {
        drop(kept);
        assert_eq!(
            received.load(Ordering::Relaxed),
            accepted.load(Ordering::Relaxed),
            "message lost or duplicated"
        );
    }) as Box<dyn FnOnce() + Send>;
    ModelRun {
        label,
        threads: vec![s0, s1, r0, r1],
        finale,
    }
}

/// Seeded bug: classic ABBA lock-order inversion. Must be reported as
/// `LockInversion` (the static linter's lock-cycle rule, caught
/// dynamically).
fn make_bug_abba() -> ModelRun {
    let a = Arc::new(Mutex::new(0u32));
    let b = Arc::new(Mutex::new(0u32));

    let label = {
        let a = Arc::clone(&a);
        let b = Arc::clone(&b);
        Box::new(move || {
            a.check_label("A");
            b.check_label("B");
        }) as Box<dyn FnOnce() + Send>
    };
    let t0 = {
        let a = Arc::clone(&a);
        let b = Arc::clone(&b);
        Box::new(move || {
            let ga = a.lock();
            let gb = b.lock();
            drop(gb);
            drop(ga);
        }) as Box<dyn FnOnce() + Send>
    };
    let t1 = {
        let a = Arc::clone(&a);
        let b = Arc::clone(&b);
        Box::new(move || {
            let gb = b.lock();
            let ga = a.lock();
            drop(ga);
            drop(gb);
        }) as Box<dyn FnOnce() + Send>
    };
    ModelRun {
        label,
        threads: vec![t0, t1],
        finale: Box::new(|| {}),
    }
}

/// Seeded bug: notify-before-wait lost wakeup. The signaller fires its
/// condition before the waiter has parked and the waiter waits
/// unconditionally (no predicate re-check), so schedules where the
/// signaller runs first strand the waiter forever. Must be reported as
/// `LostWakeup`.
fn make_bug_lost_wakeup() -> ModelRun {
    let flag = Arc::new(Mutex::new(false));
    let cond = Arc::new(Condvar::new());

    let label = {
        let flag = Arc::clone(&flag);
        Box::new(move || flag.check_label("flag")) as Box<dyn FnOnce() + Send>
    };
    let signaller = {
        let flag = Arc::clone(&flag);
        let cond = Arc::clone(&cond);
        Box::new(move || {
            let mut g = flag.lock();
            *g = true;
            drop(g);
            cond.notify_one();
        }) as Box<dyn FnOnce() + Send>
    };
    let waiter = {
        let flag = Arc::clone(&flag);
        let cond = Arc::clone(&cond);
        Box::new(move || {
            let mut g = flag.lock();
            // BUG: no `while !*g` predicate loop — if the notify already
            // fired, this parks forever.
            let _ = cond.wait_until(&mut g, far_deadline());
            assert!(*g);
        }) as Box<dyn FnOnce() + Send>
    };
    ModelRun {
        label,
        threads: vec![signaller, waiter],
        finale: Box::new(|| {}),
    }
}

/// Seeded bug: the waiter gate (`firefly_sync::Condvar` skips a notify
/// when its waiter count is zero) with the registration on the wrong
/// side of the mutex release. The model builds the gate by hand around
/// a checked counter so the scheduler can interleave it: the notifier
/// is correct — predicate under the mutex, then the gated notify — but
/// the waiter gives up the mutex *before* it registers, so a notifier
/// that runs in that gap reads zero, skips, and the waiter then parks
/// on a wakeup nobody will send. (Re-taking the mutex only to hand it
/// to `wait_until` is the park; the predicate is deliberately not
/// looked at again, as it is not between a real condvar's release and
/// its sleep.) Must be reported as `LostWakeup`.
fn make_bug_unregistered_waiter() -> ModelRun {
    let flag = Arc::new(Mutex::new(false));
    let cond = Arc::new(Condvar::new());
    let waiters = Arc::new(checked_atomic::AtomicUsize::new(0));

    let label = {
        let flag = Arc::clone(&flag);
        let waiters = Arc::clone(&waiters);
        Box::new(move || {
            flag.check_label("flag");
            waiters.check_label("waiters");
        }) as Box<dyn FnOnce() + Send>
    };
    let notifier = {
        let flag = Arc::clone(&flag);
        let cond = Arc::clone(&cond);
        let waiters = Arc::clone(&waiters);
        Box::new(move || {
            *flag.lock() = true;
            if waiters.load(Ordering::SeqCst) > 0 {
                cond.notify_one();
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let waiter = {
        let flag = Arc::clone(&flag);
        let cond = Arc::clone(&cond);
        let waiters = Arc::clone(&waiters);
        Box::new(move || {
            let mut g = flag.lock();
            while !*g {
                // BUG: the mutex is released first and the waiter
                // registered second; the gate needs the reverse.
                drop(g);
                waiters.fetch_add(1, Ordering::SeqCst);
                g = flag.lock();
                let _ = cond.wait_until(&mut g, far_deadline());
                waiters.fetch_sub(1, Ordering::SeqCst);
            }
        }) as Box<dyn FnOnce() + Send>
    };
    ModelRun {
        label,
        threads: vec![notifier, waiter],
        finale: Box::new(|| {}),
    }
}

/// Seeded bug: check-then-act double release. Two threads each release
/// a frame unless a shared `freed` flag says it already happened — but
/// the check and the act are separate critical sections, so an
/// interleaving releases twice. Must be reported as an `Invariant`
/// failure from the finale.
fn make_bug_double_release() -> ModelRun {
    let freed = Arc::new(Mutex::new(false));
    let releases = Arc::new(Mutex::new(0u32));

    let label = {
        let freed = Arc::clone(&freed);
        let releases = Arc::clone(&releases);
        Box::new(move || {
            freed.check_label("freed");
            releases.check_label("releases");
        }) as Box<dyn FnOnce() + Send>
    };
    let release = |freed: Arc<Mutex<bool>>, releases: Arc<Mutex<u32>>| {
        Box::new(move || {
            // BUG: the flag check and the release are not atomic.
            let was = *freed.lock();
            if !was {
                *releases.lock() += 1;
                *freed.lock() = true;
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let t0 = release(Arc::clone(&freed), Arc::clone(&releases));
    let t1 = release(Arc::clone(&freed), Arc::clone(&releases));
    let finale = Box::new(move || {
        assert_eq!(*releases.lock(), 1, "frame released twice");
    }) as Box<dyn FnOnce() + Send>;
    ModelRun {
        label,
        threads: vec![t0, t1],
        finale,
    }
}

/// The receive role (`firefly_rpc::role`): two callers and the resident
/// receiver share one endpoint's socket, in the state a caller stream
/// leaves it in — the resident has just ceded. Each caller registers a
/// call, sends it and waits through the real
/// `ReceiveRole::wait_receiving`: with the role it polls the socket and
/// delivers whatever it finds (its own result silently, the other
/// caller's with a wake-up), without it it parks on its call entry. The
/// resident, once it has the role back, blocks in the socket's `recv`
/// and cedes again when asked, exactly as `demux_loop` does.
///
/// Caller 0's server is an instant echo: its result is in the socket as
/// soon as it has sent. Caller 1's server is slow: its result arrives
/// only after caller 0's call has completed, so a caller 1 holding the
/// role polls an empty socket, spends its budget (one poll here) and
/// must hand the role to the resident before it parks.
///
/// Timeouts never fire under the checker, so the resident's idle
/// detection is out of the picture and only the explicit hand-overs
/// remain. The property: every schedule completes both calls. A schedule
/// that ends with a datagram queued, a waiter parked on its entry and
/// the role unheld has nobody left to run and is reported as a deadlock.
fn make_receive_role() -> ModelRun {
    #[derive(Default)]
    struct Socket {
        queue: std::collections::VecDeque<Packet>,
        closed: bool,
    }
    fn send(socket: &(Mutex<Socket>, Condvar), pkt: Packet) {
        socket.0.lock().queue.push_back(pkt);
        socket.1.notify_one();
    }
    let caller_activity = |i: u16| ActivityId::new(7, 1, 1 + i);

    let table = Arc::new(ShardedCallTable::new(1));
    let role = Arc::new(ReceiveRole::new(table.parked_counter()));
    let pool = BufferPool::new(2);
    let socket = Arc::new((Mutex::new(Socket::default()), Condvar::new()));
    // Both calls are registered up front (a server cannot answer a call
    // that was never made), and completed calls keep their result
    // buffers until the finale: the schedule explores the role
    // protocol, not the table's or the pool's.
    let entries = [0, 1].map(|i| table.register(caller_activity(i), 0));
    let completed = Arc::new(Mutex::new(Vec::new()));

    let label = {
        let table = Arc::clone(&table);
        let role = Arc::clone(&role);
        let entries = entries.clone();
        Box::new(move || {
            table.check_labels();
            role.check_labels();
            for entry in &entries {
                entry.check_labels();
            }
        }) as Box<dyn FnOnce() + Send>
    };
    // One call by caller `i`: `echo` is the result its server sends at
    // once, `after` what this thread does once its call has completed.
    let caller = |i: u16, echo: Option<Packet>, after: Box<dyn FnOnce() + Send>| {
        let table = Arc::clone(&table);
        let role = Arc::clone(&role);
        let socket = Arc::clone(&socket);
        let completed = Arc::clone(&completed);
        let entry = Arc::clone(&entries[i as usize]);
        Box::new(move || {
            let me = caller_activity(i);
            if let Some(result) = echo {
                send(&socket, result);
            }
            let waited = role.wait_receiving(&entry, far_deadline(), 1, || {
                let next = socket.0.lock().queue.pop_front();
                let Some(pkt) = next else {
                    return Polled::Empty;
                };
                let own = (pkt.rpc.activity == me).then_some(&*entry);
                assert!(
                    table.deliver_frame(&pkt.rpc, pkt.data(), own),
                    "caller {i}: a result was not accepted"
                );
                Polled::Datagram
            });
            match waited {
                Wait::Complete(a) => {
                    assert_eq!(a.data(), &[i as u8]);
                    completed.lock().push(a);
                }
                other => panic!("caller {i}: unexpected wait outcome {other:?}"),
            }
            after();
        }) as Box<dyn FnOnce() + Send>
    };
    let caller0 = {
        let socket = Arc::clone(&socket);
        let slow_result = result_packet_for(&pool, caller_activity(1), 0, &[1]);
        let echo = result_packet_for(&pool, caller_activity(0), 0, &[0]);
        caller(0, Some(echo), Box::new(move || send(&socket, slow_result)))
    };
    let caller1 = {
        let role = Arc::clone(&role);
        let socket = Arc::clone(&socket);
        // The last call to complete (its result is sent only after
        // caller 0's): shut the endpoint down.
        let shutdown = move || {
            role.shutdown();
            socket.0.lock().closed = true;
            socket.1.notify_one();
        };
        caller(1, None, Box::new(shutdown))
    };
    let resident = {
        let table = Arc::clone(&table);
        let role = Arc::clone(&role);
        let socket = Arc::clone(&socket);
        Box::new(move || {
            let mut holding = role.cede();
            while holding {
                if role.should_cede() {
                    holding = role.cede();
                    continue;
                }
                // The blocking `recv`, role in hand.
                let pkt = {
                    let (sock, arrived) = &*socket;
                    let mut sock = sock.lock();
                    loop {
                        if let Some(pkt) = sock.queue.pop_front() {
                            break pkt;
                        }
                        if sock.closed {
                            return;
                        }
                        arrived.wait_until(&mut sock, far_deadline());
                    }
                };
                assert!(table.deliver(pkt), "resident: a result was not accepted");
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let finale = Box::new(move || {
        assert_eq!(completed.lock().len(), 2, "a call did not complete");
        assert!(socket.0.lock().queue.is_empty(), "datagram left in the socket");
        assert_eq!(role.parked(), 0, "parked-waiter count drifted");
    }) as Box<dyn FnOnce() + Send>;
    ModelRun {
        label,
        threads: vec![caller0, caller1, resident],
        finale,
    }
}

/// Seeded race: an unsynchronized read-modify-write cycle split into a
/// relaxed load and a relaxed store. The pair is neither ordered by
/// happens-before nor sanctioned, so the detector must report it (and
/// the lost-increment outcome it permits is exactly why).
fn make_bug_race_counter() -> ModelRun {
    let counter = Arc::new(checked_atomic::AtomicU64::new(0));

    let label = {
        let counter = Arc::clone(&counter);
        Box::new(move || counter.check_label("counter")) as Box<dyn FnOnce() + Send>
    };
    let bump = |counter: Arc<checked_atomic::AtomicU64>| {
        Box::new(move || {
            // BUG: load + store instead of fetch_add — two threads can
            // both read 0 and both write 1.
            let v = counter.load(Ordering::Relaxed);
            counter.store(v + 1, Ordering::Relaxed);
        }) as Box<dyn FnOnce() + Send>
    };
    let t0 = bump(Arc::clone(&counter));
    let t1 = bump(Arc::clone(&counter));
    ModelRun {
        label,
        threads: vec![t0, t1],
        finale: Box::new(|| {}),
    }
}

/// Seeded race: publish-without-release. The writer fills `data`, then
/// raises `flag` with a *relaxed* store; the reader's acquire load
/// acquires nothing from it, so neither the flag pair nor the data it
/// guards is ordered. Must be reported as a `Race` on the flag.
fn make_bug_race_publish() -> ModelRun {
    let data = Arc::new(checked_atomic::AtomicU64::new(0));
    let flag = Arc::new(checked_atomic::AtomicBool::new(false));

    let label = {
        let data = Arc::clone(&data);
        let flag = Arc::clone(&flag);
        Box::new(move || {
            data.check_label("payload");
            flag.check_label("ready-flag");
        }) as Box<dyn FnOnce() + Send>
    };
    let writer = {
        let data = Arc::clone(&data);
        let flag = Arc::clone(&flag);
        Box::new(move || {
            data.store(42, Ordering::Relaxed);
            // BUG: must be Release to publish the payload.
            flag.store(true, Ordering::Relaxed);
        }) as Box<dyn FnOnce() + Send>
    };
    let reader = {
        let data = Arc::clone(&data);
        let flag = Arc::clone(&flag);
        Box::new(move || {
            if flag.load(Ordering::Acquire) {
                let _ = data.load(Ordering::Relaxed);
            }
        }) as Box<dyn FnOnce() + Send>
    };
    ModelRun {
        label,
        threads: vec![writer, reader],
        finale: Box::new(|| {}),
    }
}

/// Seeded race: notify-read. The signaller performs the condvar
/// handshake correctly but writes the payload *after* the notify,
/// assuming the wakeup itself orders it; the woken reader's only
/// happens-before edge is the mutex, which covers nothing past the
/// signaller's release. Must be reported as a `Race` on the payload.
fn make_bug_race_notify() -> ModelRun {
    let flag = Arc::new(Mutex::new(false));
    let cond = Arc::new(Condvar::new());
    let data = Arc::new(checked_atomic::AtomicU64::new(0));

    let label = {
        let flag = Arc::clone(&flag);
        let data = Arc::clone(&data);
        Box::new(move || {
            flag.check_label("flag");
            data.check_label("payload");
        }) as Box<dyn FnOnce() + Send>
    };
    let signaller = {
        let flag = Arc::clone(&flag);
        let cond = Arc::clone(&cond);
        let data = Arc::clone(&data);
        Box::new(move || {
            let mut g = flag.lock();
            *g = true;
            drop(g);
            cond.notify_one();
            // BUG: published after the handshake — nothing orders this
            // store before the woken reader's load.
            data.store(7, Ordering::Relaxed);
        }) as Box<dyn FnOnce() + Send>
    };
    let waiter = {
        let flag = Arc::clone(&flag);
        let cond = Arc::clone(&cond);
        let data = Arc::clone(&data);
        Box::new(move || {
            let mut g = flag.lock();
            while !*g {
                let _ = cond.wait_until(&mut g, far_deadline());
            }
            drop(g);
            let _ = data.load(Ordering::Relaxed);
        }) as Box<dyn FnOnce() + Send>
    };
    ModelRun {
        label,
        threads: vec![signaller, waiter],
        finale: Box::new(|| {}),
    }
}

/// The clean models: every schedule must pass; their observed lock
/// edges feed the static-vs-dynamic diff.
pub fn structure_models() -> Vec<Model> {
    vec![
        Model {
            name: "calltable",
            about: "call-table slot reuse + late-duplicate orphaning (paper §3.1.3)",
            make: make_calltable,
        },
        Model {
            name: "pool",
            about: "buffer pool acquire/release/recycle via receive queue (paper §3.2)",
            make: make_pool,
        },
        Model {
            name: "trace-ring",
            about: "trace ring conservation under producer/consumer contention",
            make: make_trace_ring,
        },
        Model {
            name: "channel",
            about: "MPMC channel: no lost messages, a close drains the queue, receivers terminate",
            make: make_channel,
        },
        Model {
            name: "receive-role",
            about: "receive role: 2 callers + ceded resident receiver, no result stranded in the socket",
            make: make_receive_role,
        },
    ]
}

/// The seeded-bug fixtures: each must be caught with a replayable
/// failing schedule.
pub fn bug_models() -> Vec<Model> {
    vec![
        Model {
            name: "bug-abba",
            about: "seeded ABBA lock-order inversion (expected: LockInversion)",
            make: make_bug_abba,
        },
        Model {
            name: "bug-lost-wakeup",
            about: "seeded notify-before-wait lost wakeup (expected: LostWakeup)",
            make: make_bug_lost_wakeup,
        },
        Model {
            name: "bug-unregistered-waiter",
            about: "seeded waiter gate registered after the mutex release (expected: LostWakeup)",
            make: make_bug_unregistered_waiter,
        },
        Model {
            name: "bug-double-release",
            about: "seeded check-then-act double release (expected: Invariant)",
            make: make_bug_double_release,
        },
        Model {
            name: "bug-race-counter",
            about: "seeded unsynchronized load/store counter (expected: Race)",
            make: make_bug_race_counter,
        },
        Model {
            name: "bug-race-publish",
            about: "seeded publish-without-release flag (expected: Race)",
            make: make_bug_race_publish,
        },
        Model {
            name: "bug-race-notify",
            about: "seeded store-after-notify payload (expected: Race)",
            make: make_bug_race_notify,
        },
    ]
}

/// Looks a model up by name across both registries.
pub fn find(name: &str) -> Option<Model> {
    structure_models()
        .into_iter()
        .chain(bug_models())
        .find(|m| m.name == name)
}
