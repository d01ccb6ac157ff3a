//! The sharding test battery: property tests over the three invariants
//! the sharded runtime rests on.
//!
//! 1. Shard assignment is a *pure* function of the activity id —
//!    retransmits and duplicate deliveries of the same call always land
//!    on the same shard, so per-shard duplicate state is sufficient.
//! 2. Duplicate call packets are dispatched exactly once no matter
//!    which worker ends up executing the call (duplicate filtering
//!    lives in the per-activity state, not in any one worker).
//! 3. The server's one hand-off queue never reorders one producer's
//!    items, whatever queue index they are pushed with and whichever
//!    worker pops them: it is a single FIFO channel.

use firefly_idl::{parse_interface, Value};
use firefly_propcheck::{check, prop_assert, prop_assert_eq};
use firefly_rpc::calltable::shard_for;
use firefly_rpc::shard::WorkQueues;
use firefly_rpc::transport::{FaultPlan, LoopbackNet};
use firefly_rpc::{Config, Endpoint, ServiceBuilder};
use firefly_wire::ActivityId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Shard selection is deterministic, in range, and ignores everything
/// but the activity id — calling it again (as the demux does for every
/// retransmission and duplicate) yields the same shard. With the
/// runtime's default shard count the hash also actually spreads: a
/// burst of distinct caller threads from one address space must not
/// pile onto a single shard.
#[test]
fn shard_assignment_is_a_pure_function_of_the_activity_id() {
    check("shard_assignment_pure", 12, |g| {
        let shards = g.usize_in(1..9);
        for _ in 0..64 {
            let id = ActivityId::new(g.u32(), g.u16(), g.u16());
            let home = shard_for(id, shards);
            prop_assert!(home < shards, "shard {} out of range {}", home, shards);
            // A retransmit or duplicate carries the identical activity
            // id; its routing must be identical too.
            for _ in 0..3 {
                prop_assert_eq!(shard_for(id, shards), home, "unstable assignment");
            }
        }
        // Distribution sanity at the runtime's shard count: 256
        // consecutive threads of one address space hit every shard.
        let n = firefly_rpc::calltable::SHARDS;
        let (machine, space) = (g.u32(), g.u16());
        let mut hit = vec![false; n];
        for thread in 0..256u16 {
            hit[shard_for(ActivityId::new(machine, space, thread), n)] = true;
        }
        prop_assert!(
            hit.iter().all(|&h| h),
            "shard_for left a shard cold across 256 threads: {:?}",
            hit
        );
        Ok(())
    });
}

/// Duplicate call packets are filtered exactly once: under heavy
/// duplication, with several concurrent caller activities spread over
/// several server workers, every call executes its service procedure
/// exactly one time. The filter is the per-activity sequence state the
/// demux consults before enqueueing — whichever worker takes the call
/// from the one hand-off queue, the duplicate never reaches a second
/// worker as runnable work.
#[test]
fn duplicate_call_packets_dispatch_exactly_once() {
    check("duplicates_dispatch_exactly_once", 6, |g| {
        let seed = g.u64();
        let duplicate = 0.2 + g.f64_unit() * 0.6;
        let net = LoopbackNet::with_seed(seed);

        let iface = parse_interface(
            "DEFINITION MODULE Shard;
               PROCEDURE Bump(n: INTEGER): INTEGER;
             END Shard.",
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
        cfg.max_transmissions = 40;
        cfg.retransmit_max = Duration::from_millis(50);
        cfg.server_threads = 4; // several workers, so calls run side by side
        let server = Endpoint::new(net.station(1), cfg.clone()).unwrap();
        let caller = Endpoint::new(net.station(2), cfg).unwrap();
        server.export(service).unwrap();
        let client = caller.bind(&iface, server.address()).unwrap();
        net.set_faults(FaultPlan {
            loss: 0.0,
            duplicate,
            corrupt: 0.0,
            delay: None,
        });

        const THREADS: usize = 4;
        const CALLS: u64 = 8;
        std::thread::scope(|s| {
            // Each OS thread is its own activity, so several calls are
            // at the server at once; those handed off are taken from the
            // one queue by whichever worker looks next.
            for t in 0..THREADS {
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
            THREADS as u64 * CALLS,
            "service executed a duplicated call more (or less) than once"
        );
        Ok(())
    });
}

/// The hand-off queue keeps each producer's order: items pushed with
/// random queue indices, as the per-worker queues it replaced took
/// them, come out to one worker in exactly the order each index's
/// producer pushed them. (The index is unused now; the test's name is
/// the property it held those queues to.)
#[test]
fn stealing_preserves_fifo_order_within_each_queue() {
    check("steal_preserves_per_queue_fifo", 16, |g| {
        let workers = g.usize_in(2..7);
        let thief = g.usize_in(0..workers);
        let total = g.usize_in(1..96);

        let q = WorkQueues::new(workers);
        let mut next_seq = vec![0usize; workers];
        for _ in 0..total {
            // Random interleaving of producers across every queue but
            // the thief's own (the pure-steal worst case); each queue
            // carries its own ascending sequence.
            let mut victim = g.usize_in(0..workers);
            if victim == thief {
                victim = (victim + 1) % workers;
            }
            q.push(victim, (victim, next_seq[victim]));
            next_seq[victim] += 1;
        }

        let mut local = VecDeque::new();
        let mut seen = vec![0usize; workers];
        for _ in 0..total {
            let (victim, seq) = match q.pop(thief, &mut local) {
                Some(item) => item,
                None => return Err("queue shut down early".into()),
            };
            prop_assert_eq!(
                seq,
                seen[victim],
                "queue {}'s items were reordered by the steal",
                victim
            );
            seen[victim] += 1;
        }
        prop_assert!(q.is_empty(), "items left behind after {} pops", total);
        prop_assert_eq!(seen, next_seq, "per-queue counts diverged");
        Ok(())
    });
}
