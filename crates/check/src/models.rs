//! The model registry: small, closed concurrent programs over the real
//! production types, explored by the [`crate::Explorer`].
//!
//! Structure models exercise the paper's mechanisms with their actual
//! implementations — call-table slot reuse (§3.1.3), pool recycling
//! through the controller receive queue (§3.2), the trace ring, and the
//! MPMC channel, the hook's install gate, a sharded call table, and the
//! receive role — and must pass every schedule. Bug models seed one classic
//! concurrency defect each (ABBA deadlock, notify-before-wait lost
//! wakeup, a waiter gate registered after the mutex release,
//! check-then-act double release, and three happens-before
//! races: unsynchronized counter, publish-without-release,
//! store-after-notify) and must *fail*; they prove the checker actually
//! detects what it claims to.
//!
//! Determinism note: every lock/condvar a model registers with the
//! scheduler stays alive until the schedule ends (the call-table model
//! keeps completed entries in a scratch vector). Freed-and-reallocated
//! addresses could otherwise inherit a previous object's registration
//! index, making event names depend on allocator reuse.

use crate::{Model, ModelRun};
use firefly_pool::BufferPool;
use firefly_rpc::calltable::{CallTable, Deliver, Wait};
use firefly_rpc::packet::Packet;
use firefly_rpc::role::{Polled, ReceiveRole};
use firefly_rpc::trace::{TraceRecord, Tracer};
use firefly_rpc::witness::{row, ProtocolWitness};
use firefly_sync::atomic as checked_atomic;
use firefly_sync::{channel, Condvar, Mutex};
use firefly_wire::{ActivityId, FrameBuilder, PacketType};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

/// Call-table slot reuse: one caller runs two back-to-back calls under
/// the same activity (the slot is reassigned), a demux thread delivers
/// each result, and a late duplicate of the first call's result must be
/// classified as an orphan — never delivered into the reused slot.
fn make_calltable() -> ModelRun {
    let table = Arc::new(CallTable::new());
    let pool = BufferPool::new(4);
    let pkt0 = result_packet(&pool, 0, &[0]);
    let pkt1 = result_packet(&pool, 1, &[1]);
    let dup = result_packet(&pool, 0, &[9]);
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
            for _ in 0..2 {
                let seq = rx.recv().expect("caller alive") as usize;
                let pkt = pkts[seq].take().expect("each seq sent once");
                assert!(
                    matches!(table.deliver(pkt), Deliver::Accepted),
                    "round {seq}: result not accepted"
                );
            }
            // The duplicate arrives only after the slot was reassigned
            // to call 1 (and possibly already torn down): it must never
            // complete the reused slot.
            assert!(
                matches!(table.deliver(dup), Deliver::Orphan(_)),
                "late duplicate delivered into a reused slot"
            );
        }) as Box<dyn FnOnce() + Send>
    };
    let transitions = {
        let table = Arc::clone(&table);
        // The real CallTable records its protocol.toml rows itself: this
        // model's accepted result is `caller-open Result last_fragment ->
        // complete-call` and the late duplicate is `caller-orphan Result
        // last_fragment -> recycle-orphan`.
        Box::new(move || table.witness().observed().iter().map(|t| (*t).to_string()).collect())
            as Box<dyn FnOnce() -> Vec<String> + Send>
    };
    let finale = Box::new(move || {
        assert_eq!(table.outstanding(), 0, "call table entry leaked");
        assert_eq!(pool.stats().outstanding(), 0, "packet buffer leaked");
    }) as Box<dyn FnOnce() + Send>;
    ModelRun {
        label,
        threads: vec![caller, demux],
        finale,
        audit: None,
        transitions: Some(transitions),
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
    let audit = {
        let pool = pool.clone();
        Box::new(move || {
            vec![
                ("outstanding".to_string(), pool.stats().outstanding()),
                ("retained".to_string(), 0),
            ]
        }) as Box<dyn FnOnce() -> Vec<(String, u64)> + Send>
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
        audit: Some(audit),
        transitions: None,
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
        audit: None,
        transitions: None,
    }
}

/// MPMC channel: two senders, two receivers, three messages. Receivers
/// drain until disconnect; every message is received exactly once and
/// both receivers terminate (single-wakeup discipline must not strand a
/// receiver after the last sender hangs up).
fn make_channel() -> ModelRun {
    let (tx0, rx0) = channel::unbounded::<u32>();
    let tx1 = tx0.clone();
    let rx1 = rx0.clone();
    let received = Arc::new(AtomicU64::new(0));

    let label = {
        // Clone taken pre-hook; the label-phase drop's counter update is
        // invisible to the scheduler (no tid registered yet).
        let chan = rx0.clone();
        Box::new(move || chan.check_labels()) as Box<dyn FnOnce() + Send>
    };
    let s0 = Box::new(move || {
        tx0.send(1).expect("receivers alive");
        tx0.send(2).expect("receivers alive");
    }) as Box<dyn FnOnce() + Send>;
    let s1 = Box::new(move || {
        tx1.send(3).expect("receivers alive");
    }) as Box<dyn FnOnce() + Send>;
    let r0 = {
        let received = Arc::clone(&received);
        Box::new(move || {
            while let Ok(v) = rx0.recv() {
                received.fetch_add(u64::from(v), Ordering::Relaxed);
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let r1 = {
        let received = Arc::clone(&received);
        Box::new(move || {
            while let Ok(v) = rx1.recv() {
                received.fetch_add(u64::from(v), Ordering::Relaxed);
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let finale = Box::new(move || {
        assert_eq!(
            received.load(Ordering::Relaxed),
            6,
            "message lost or duplicated"
        );
    }) as Box<dyn FnOnce() + Send>;
    ModelRun {
        label,
        threads: vec![s0, s1, r0, r1],
        finale,
        audit: None,
        transitions: None,
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
        audit: None,
        transitions: None,
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
        audit: None,
        transitions: None,
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
        audit: None,
        transitions: None,
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
        audit: None,
        transitions: None,
    }
}

/// Clean model of the hook's `INSTALLED` gate protocol with the fixed
/// orderings (`AcqRel` install, `Release` uninstall, `Acquire`
/// cross-thread check): two installers balance the counter while an
/// observer polls it. Every access is sanctioned, so the race detector
/// must stay silent in every schedule — this is the regression test for
/// the `crates/sync/src/hook.rs` ordering fix. (The production
/// `current()` load stays `Relaxed` because only the installing thread
/// reads its own thread-local; a cross-thread observer like this one
/// needs `Acquire`, which is what the model encodes.)
fn make_gate() -> ModelRun {
    let installed = Arc::new(checked_atomic::AtomicUsize::new(0));

    let label = {
        let installed = Arc::clone(&installed);
        Box::new(move || installed.check_label("installed")) as Box<dyn FnOnce() + Send>
    };
    let installer = |installed: Arc<checked_atomic::AtomicUsize>| {
        Box::new(move || {
            installed.fetch_add(1, Ordering::AcqRel);
            installed.fetch_sub(1, Ordering::Release);
        }) as Box<dyn FnOnce() + Send>
    };
    let t0 = installer(Arc::clone(&installed));
    let t1 = installer(Arc::clone(&installed));
    let observer = {
        let installed = Arc::clone(&installed);
        Box::new(move || {
            let n = installed.load(Ordering::Acquire);
            assert!(n <= 2, "gate counter overshot: {n}");
        }) as Box<dyn FnOnce() + Send>
    };
    let finale = Box::new(move || {
        assert_eq!(
            installed.load(Ordering::Acquire),
            0,
            "install gate unbalanced"
        );
    }) as Box<dyn FnOnce() + Send>;
    ModelRun {
        label,
        threads: vec![t0, t1, observer],
        finale,
        audit: None,
        transitions: None,
    }
}

/// Shard-class labels for the sharded call-table model. The `class[i]`
/// form is what the parametric lock-order support in `firefly-lint`
/// understands: instances of one class, ordered by index.
const SHARD_LABELS: [&str; 4] = ["shard[0]", "shard[1]", "shard[2]", "shard[3]"];

/// Per-shard state for [`make_sharded_calltable`]: the call-table slot
/// plus the worker's receive queue, both guarded by the shard's lock
/// exactly as in the real runtime (`ShardedCallTable` shard +
/// `WorkQueues` queue, selected by the same activity hash).
#[derive(Default)]
struct ShardSlot {
    /// Call-table slot: `Some(seq)` while a call is mid-dispatch.
    cur: Option<u32>,
    completed: u32,
    orphans: u32,
    /// The worker's receive queue (FIFO backlog of call seqs).
    backlog: Vec<u32>,
    /// Items this worker's queue received from a steal, takeover order.
    stolen: Vec<u32>,
}

/// Number of shards in the model: the runtime's own.
const MODEL_SHARDS: usize = firefly_rpc::calltable::SHARDS;

/// Sharded runtime mirror: per-shard call-table slots and per-worker
/// receive queues, with home shards picked by the *real*
/// [`firefly_rpc::calltable::shard_for`] hash of each caller's activity
/// id. Two fast-path callers (shards 0 and 2) each run one
/// register/enqueue/dispatch round plus a late-duplicate orphan check
/// on their own shard; the thief worker's thread enqueues a two-call
/// backlog on donor shard 1 (whose own worker never shows up) and then
/// runs the steal scan: victims in ascending index order, one lock at
/// a time, skipping queues whose owner is mid-dispatch (stealing those
/// would double-dispatch), and taking the donor's whole backlog in one
/// FIFO-preserving takeover that bridges donor and thief queues in
/// ascending index order — the declared-parametric `shard` lock
/// discipline firefly-lint enforces. The scan's probe of shard 0
/// contends with that shard's own worker (the dependency DPOR must
/// explore); the rest is pairwise independent, which is exactly what
/// DPOR prunes and naive DFS drowns in: DFS cannot exhaust this model
/// inside the smoke budget, DPOR can.
fn make_sharded_calltable() -> ModelRun {
    // Home shards by the real activity hash: the first thread ids that
    // shard_for maps to shards 0, 1 and 2 (machine/space fixed, as one
    // endpoint's callers share them). The model's shard assignment IS
    // the runtime's, so a hash change reshapes this model too.
    let home = |want: usize| {
        (0..u16::MAX)
            .find(|&t| {
                firefly_rpc::calltable::shard_for(ActivityId::new(9, 1, t), MODEL_SHARDS) == want
            })
            .expect("shard_for covers every shard")
    };
    // Ascending scan order makes shard 0 the first victim the thief
    // probes (contended with that shard's own worker — the dependency
    // DPOR must actually explore), shard 1 the donor it robs, and
    // shard 2 pure independent fast-path work it prunes away.
    let (fast_a, donor, fast_b) = (
        firefly_rpc::calltable::shard_for(ActivityId::new(9, 1, home(0)), MODEL_SHARDS),
        firefly_rpc::calltable::shard_for(ActivityId::new(9, 1, home(1)), MODEL_SHARDS),
        firefly_rpc::calltable::shard_for(ActivityId::new(9, 1, home(2)), MODEL_SHARDS),
    );
    assert_eq!((fast_a, donor, fast_b), (0, 1, 2), "shard_for is stable");
    const THIEF: usize = 3;

    let shards: Arc<Vec<Mutex<ShardSlot>>> = Arc::new(
        (0..MODEL_SHARDS)
            .map(|_| Mutex::new(ShardSlot::default()))
            .collect(),
    );

    let label = {
        let shards = Arc::clone(&shards);
        Box::new(move || {
            for (i, shard) in shards.iter().enumerate() {
                shard.check_label(SHARD_LABELS[i]);
            }
        }) as Box<dyn FnOnce() + Send>
    };
    // A fast-path caller on shard `k`: the demux registers the slot and
    // enqueues on the home queue, the home worker drains its own queue
    // FIFO and completes the call (slot reuse across two rounds), and a
    // late duplicate of seq 0 must be orphaned, never delivered.
    let caller = |shards: Arc<Vec<Mutex<ShardSlot>>>, k: usize| {
        Box::new(move || {
            let seq = 0u32;
            {
                let mut s = shards[k].lock();
                assert!(s.cur.is_none(), "shard {k}: slot registered twice");
                s.cur = Some(seq);
                s.backlog.push(seq);
            }
            {
                let mut s = shards[k].lock();
                assert_eq!(s.cur, Some(seq), "shard {k}: slot clobbered");
                let item = s.backlog.first().copied();
                assert_eq!(item, Some(seq), "shard {k}: queue reordered");
                s.backlog.remove(0);
                s.cur = None;
                s.completed += 1;
            }
            // Late duplicate of the completed call: the slot was torn
            // down, so it must be orphaned, never dispatched again.
            let mut s = shards[k].lock();
            assert!(s.cur.is_none(), "shard {k}: duplicate hit a live slot");
            s.orphans += 1;
        }) as Box<dyn FnOnce() + Send>
    };
    let t0 = caller(Arc::clone(&shards), fast_a);
    let t1 = caller(Arc::clone(&shards), fast_b);
    // Demux-then-steal: two calls land on the donor queue, whose own
    // worker never shows up (all its threads are busy), and the idle
    // thief worker then runs its steal scan. The two phases live on one
    // thread because the real thief loops until work appears — a scan
    // that beats the enqueue just comes around again, which a
    // terminating model collapses to scanning after the enqueue.
    let stealer = {
        let shards = Arc::clone(&shards);
        Box::new(move || {
            for seq in 0..2u32 {
                shards[donor].lock().backlog.push(seq);
            }
            // Own queue first (mirrors WorkQueues::pop), then victims
            // in ascending index order, exactly the runtime scan.
            assert!(shards[THIEF].lock().backlog.is_empty(), "thief not idle");
            let mut took = false;
            for victim in 0..MODEL_SHARDS {
                if victim == THIEF || took {
                    continue;
                }
                // One victim lock at a time; skip queues whose owner is
                // mid-dispatch — their backlog is already claimed, and
                // stealing it would dispatch the call twice.
                let mut donor_q = shards[victim].lock();
                if donor_q.cur.is_some() || donor_q.backlog.is_empty() {
                    continue;
                }
                // Whole-backlog takeover into the thief's queue, donor
                // and thief locks bridged in ascending index order (the
                // declared-parametric discipline; victim < THIEF for
                // every victim this scan can reach).
                let mut thief_q = shards[THIEF].lock();
                let taken = std::mem::take(&mut donor_q.backlog);
                thief_q.stolen.extend(taken);
                took = true;
            }
            // Dispatch the stolen batch in takeover order.
            let mut s = shards[THIEF].lock();
            let n = s.stolen.len() as u32;
            s.completed += n;
        }) as Box<dyn FnOnce() + Send>
    };
    let finale = Box::new(move || {
        let mut completed = 0;
        let mut orphans = 0;
        for shard in shards.iter() {
            let s = shard.lock();
            assert!(s.cur.is_none(), "slot leaked past the schedule");
            assert!(s.backlog.is_empty(), "call stranded on a queue");
            completed += s.completed;
            orphans += s.orphans;
        }
        assert_eq!(completed, 4, "calls lost or duplicated across shards");
        assert_eq!(orphans, 2, "late duplicate not orphaned");
        let stolen = &shards[THIEF].lock().stolen;
        assert_eq!(*stolen, vec![0, 1], "steal reordered the donor backlog");
    }) as Box<dyn FnOnce() + Send>;
    ModelRun {
        label,
        threads: vec![t0, t1, stealer],
        finale,
        audit: None,
        // The model proper runs on an abstract shard mirror, so the
        // protocol rows its scenario stands for (caller-side Result /
        // Ack / ProbeResponse handling, including every orphan shape)
        // come from a deterministic drill over the real sharded table,
        // run hook-free after the clean finale.
        transitions: Some(Box::new(crate::scenario::caller_transitions)),
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

    let table = Arc::new(CallTable::new());
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
                let own = pkt.rpc.activity == me;
                assert!(
                    matches!(table.deliver_from(pkt, own), Deliver::Accepted),
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
                assert!(
                    matches!(table.deliver(pkt), Deliver::Accepted),
                    "resident: a result was not accepted"
                );
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
        audit: None,
        transitions: None,
    }
}

/// Server-side activity slot retention (paper §3.1.3): the server keeps
/// the last result packet's buffer in the activity slot so a duplicate
/// call packet is answered by retransmission instead of re-execution,
/// and frees it only when the next call on the activity (an implicit
/// ack) arrives. Three threads race over a two-buffer pool and one
/// slot: the server computes a result and retains its buffer, the demux
/// answers a duplicate request from the retained copy (take, send,
/// reinstall under one guard), and the acker releases the retained
/// buffer onto the controller receive queue. Every interleaving must
/// conserve slabs — free list + receive queue + retained — and keep the
/// pool's outstanding counter equal to the retained count. That is the
/// accounted-retention invariant firefly-lint's pool-lifecycle rule
/// admits statically (`retained` is in its accounted-field list), and
/// the audit readout below is what `gates::accounting` compares
/// against the static claim.
fn make_activity_retention() -> ModelRun {
    #[derive(Default)]
    struct Slot {
        /// Seq of the call whose result is retained for retransmission.
        last_seq: Option<u32>,
        /// The retained result buffer (accounted pool retention).
        retained: Option<firefly_pool::PacketBuf>,
    }
    let pool = BufferPool::new(2);
    let slot = Arc::new(Mutex::new(Slot::default()));
    // Which protocol.toml rows each interleaving stands for. Plain std
    // atomics inside: recording adds no scheduler events, so the DPOR
    // schedule count is exactly what it was before instrumentation.
    let witness = Arc::new(ProtocolWitness::new());

    let label = {
        let pool = pool.clone();
        let slot = Arc::clone(&slot);
        Box::new(move || {
            pool.check_labels();
            slot.check_label("calltable");
        }) as Box<dyn FnOnce() + Send>
    };
    // Server: run the call, then install the result buffer in the slot.
    // The alloc happens outside the slot guard, like the real server
    // path — nesting it would invent a calltable→pool lock edge the
    // static graph rightly doesn't have.
    let server = {
        let pool = pool.clone();
        let slot = Arc::clone(&slot);
        Box::new(move || {
            let mut buf = pool.alloc().expect("two slabs, one alloc");
            buf.fill_from(&[7]);
            let mut s = slot.lock();
            s.last_seq = Some(0);
            s.retained = Some(buf);
        }) as Box<dyn FnOnce() + Send>
    };
    // Demux: a duplicate of call 0 arrives. If the result is already
    // retained, answer from the copy — take, send, reinstall — without
    // re-running the procedure; if not, the server is still computing
    // and the duplicate is dropped (the caller will retransmit).
    let demux = {
        let slot = Arc::clone(&slot);
        let witness = Arc::clone(&witness);
        Box::new(move || {
            let mut s = slot.lock();
            if s.last_seq == Some(0) {
                // Answer from the retained copy when it is still there
                // (take, "send", reinstall); a duplicate that arrives
                // after the ack already freed it is simply dropped.
                if let Some(buf) = s.retained.take() {
                    s.retained = Some(buf);
                    witness.record(row::SERVER_DUP_RETAINED_CALL_LF_RETRANSMIT_RESULT);
                } else {
                    witness.record(row::SERVER_DUP_RELEASED_CALL_LF_DROP_DUPLICATE);
                }
            } else {
                // Result not installed yet: the server is still
                // computing, which is the executing-duplicate drop.
                witness.record(row::SERVER_DUP_EXECUTING_CALL_LF_DROP_DUPLICATE);
            }
        }) as Box<dyn FnOnce() + Send>
    };
    // Acker: the next call on the activity implicitly acks call 0, so
    // the retained result is released to the controller receive queue.
    // When the ack beats the server, the buffer simply stays retained —
    // which the finale and audit must then account for.
    let acker = {
        let pool = pool.clone();
        let slot = Arc::clone(&slot);
        let witness = Arc::clone(&witness);
        Box::new(move || {
            let taken = {
                let mut s = slot.lock();
                s.retained.take()
            };
            if let Some(buf) = taken {
                pool.recycle_to_receive_queue(buf);
                witness.record(row::SERVER_KNOWN_ACK_LF_AR_RELEASE_RETAINED);
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let finale = {
        let pool = pool.clone();
        let slot = Arc::clone(&slot);
        Box::new(move || {
            let retained = slot.lock().retained.is_some();
            assert_eq!(
                pool.free_count() + pool.receive_queue_len() + usize::from(retained),
                2,
                "slab neither free, queued, nor retained"
            );
            assert_eq!(
                pool.stats().outstanding(),
                u64::from(retained),
                "outstanding counter disagrees with slot retention"
            );
        }) as Box<dyn FnOnce() + Send>
    };
    let audit = {
        let pool = pool.clone();
        let slot = Arc::clone(&slot);
        Box::new(move || {
            vec![
                ("outstanding".to_string(), pool.stats().outstanding()),
                (
                    "retained".to_string(),
                    u64::from(slot.lock().retained.is_some()),
                ),
            ]
        }) as Box<dyn FnOnce() -> Vec<(String, u64)> + Send>
    };
    let transitions = {
        let witness = Arc::clone(&witness);
        Box::new(move || witness.observed().iter().map(|t| (*t).to_string()).collect())
            as Box<dyn FnOnce() -> Vec<String> + Send>
    };
    ModelRun {
        label,
        threads: vec![server, demux, acker],
        finale,
        audit: Some(audit),
        transitions: Some(transitions),
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
        audit: None,
        transitions: None,
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
        audit: None,
        transitions: None,
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
        audit: None,
        transitions: None,
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
            about: "MPMC channel: no lost messages, receivers terminate on disconnect",
            make: make_channel,
        },
        Model {
            name: "gate",
            about: "hook INSTALLED gate protocol: sanctioned orderings, race-free",
            make: make_gate,
        },
        Model {
            name: "sharded-calltable",
            about: "4-shard call table + ascending-order stealer (DPOR exhausts, DFS drowns)",
            make: make_sharded_calltable,
        },
        Model {
            name: "receive-role",
            about: "receive role: 2 callers + ceded resident receiver, no result stranded in the socket",
            make: make_receive_role,
        },
        Model {
            name: "activity-retention",
            about: "server-side activity slot retains the last result for retransmit (paper §3.1.3)",
            make: make_activity_retention,
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
