//! The trace layer's contract: records are complete and ordered, the
//! ring never garbles them, and tracing is observability — never
//! behaviour.

use firefly_idl::{test_interface, Value};
use firefly_propcheck::{check, prop_assert, prop_assert_eq};
use firefly_rpc::trace::{Role, Stamp, TraceRecord, Tracer, CALLER_STEPS, SERVER_STEPS};
use firefly_rpc::transport::LoopbackNet;
use firefly_rpc::{Config, Endpoint, ServiceBuilder};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

fn loopback_pair(config: Config) -> (Arc<Endpoint>, Arc<Endpoint>, firefly_rpc::Client) {
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), config.clone()).unwrap();
    let caller = Endpoint::new(net.station(2), config).unwrap();
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
    (server, caller, client)
}

/// A traced Null() records every expected caller and server step exactly
/// once per call, in order.
#[test]
fn traced_null_records_every_step_once() {
    let (server, caller, client) = loopback_pair(Config::traced());
    const CALLS: usize = 25;
    for _ in 0..CALLS {
        client.call("Null", &[]).unwrap();
    }
    let mut caller_records = Vec::new();
    caller.tracer().drain(|r| caller_records.push(*r));
    assert_eq!(caller_records.len(), CALLS);
    for rec in &caller_records {
        assert_eq!(rec.role, Role::Caller);
        assert_eq!(rec.procedure, 0, "Null is procedure #0");
        assert!(rec.is_complete(), "missing caller stamps: {:?}", rec.stamps);
        // Exactly once: the slots past the caller's seven stay unset.
        assert_eq!(rec.stamps[7], 0);
        for (name, from, to) in CALLER_STEPS {
            let delta = rec.step_delta(from, to).unwrap();
            assert!(delta >= 0, "step `{name}` went backwards: {delta} ns");
        }
        assert!(rec.span_nanos() > 0);
    }
    // The server half: one complete record per call, demux stamp first.
    // The server pushes its record after sending the result, so the last
    // call can return here before its server record lands — wait for it.
    for _ in 0..200 {
        if server.tracer().recorded() >= CALLS as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut server_records = Vec::new();
    server.tracer().drain(|r| server_records.push(*r));
    assert_eq!(server_records.len(), CALLS);
    for rec in &server_records {
        assert_eq!(rec.role, Role::Server);
        assert!(rec.is_complete(), "missing server stamps: {:?}", rec.stamps);
        assert_eq!(rec.stamps[4], 0);
        for (name, from, to) in SERVER_STEPS {
            let delta = rec.step_delta(from, to).unwrap();
            assert!(delta >= 0, "server step `{name}` went backwards");
        }
    }
    assert_eq!(caller.stats().trace_records(), CALLS as u64);
}

/// Tracing can be toggled at runtime, and while off nothing is recorded.
#[test]
fn runtime_toggle_controls_recording() {
    let (_server, caller, client) = loopback_pair(Config::default());
    client.call("Null", &[]).unwrap();
    assert_eq!(caller.tracer().recorded(), 0);
    caller.set_tracing(true);
    client.call("Null", &[]).unwrap();
    caller.set_tracing(false);
    client.call("Null", &[]).unwrap();
    let report = caller.trace_report();
    assert_eq!(report.caller.records, 1);
    assert_eq!(caller.stats().trace_records(), 1);
}

/// The ring is made when tracing is first turned on and kept: turning it
/// off and on again loses no record, and the ring's size is the
/// configured one throughout.
#[test]
fn tracing_on_off_and_on_again_keeps_every_record() {
    let (_server, caller, client) = loopback_pair(Config::default());
    let capacity = Config::default().trace_capacity;
    assert_eq!(caller.tracer().capacity(), capacity);
    client.call("Null", &[]).unwrap();
    caller.set_tracing(true);
    for _ in 0..3 {
        client.call("MaxResult", &[Value::char_array(1440)]).unwrap();
    }
    caller.set_tracing(false);
    client.call("Null", &[]).unwrap();
    caller.set_tracing(true);
    for _ in 0..2 {
        client.call("Null", &[]).unwrap();
    }
    assert_eq!(caller.tracer().capacity(), capacity);
    let mut records = Vec::new();
    let dropped = caller.tracer().drain(|r| records.push(*r));
    assert_eq!(dropped, 0);
    let procedures: Vec<u16> = records.iter().map(|r| r.procedure).collect();
    assert_eq!(procedures, [1, 1, 1, 0, 0], "records lost or reordered");
    assert!(records.iter().all(TraceRecord::is_complete));
    assert_eq!(caller.stats().trace_records(), 5);
}

/// `Endpoint::trace_report` aggregates per-step histograms whose step
/// sum equals the records' own spans (contiguous steps, no gaps).
#[test]
fn trace_report_step_sum_matches_spans() {
    let (_server, caller, client) = loopback_pair(Config::traced());
    for _ in 0..40 {
        client.call("Null", &[]).unwrap();
    }
    let report = caller.trace_report();
    assert_eq!(report.caller.records, 40);
    assert_eq!(report.dropped, 0);
    for (name, h) in &report.caller.steps {
        assert_eq!(h.count(), 40, "step `{name}` missing observations");
    }
    let accounted = report.caller.accounted_mean_us();
    let total = report.caller.total.mean();
    // The caller steps tile the span exactly, so their means must sum to
    // the span mean up to histogram bucketing error (~2.2% per bucket).
    assert!(
        (accounted - total).abs() / total < 0.10,
        "step sum {accounted:.2} us vs span mean {total:.2} us"
    );
}

/// Counters and results are identical with tracing enabled vs disabled:
/// tracing is observability, not behaviour.
#[test]
fn tracing_does_not_change_counters_or_results() {
    // Generous retransmit timeout so no timer can fire during the
    // microsecond-scale loopback calls — keeps every counter
    // deterministic across the two runs.
    let base = Config {
        retransmit_initial: Duration::from_secs(2),
        ..Config::default()
    };
    let run = |trace: bool| {
        let config = Config { trace, ..base.clone() };
        let (server, caller, client) = loopback_pair(config);
        let mut results = Vec::new();
        for i in 0..30 {
            results.push(client.call("Null", &[]).unwrap());
            if i % 5 == 0 {
                results.push(client.call("MaxResult", &[Value::char_array(1440)]).unwrap());
            }
        }
        // Quiesce before snapshotting: trailing acks and demux-side
        // counter bumps land asynchronously after the last call returns,
        // so wait until two reads 25 ms apart agree (and snapshot before
        // dropping the client, whose Drop sends more acks).
        let settle = |e: &Arc<Endpoint>| {
            let mut last = e.stats().snapshot();
            for _ in 0..80 {
                std::thread::sleep(Duration::from_millis(25));
                let now = e.stats().snapshot();
                if now == last {
                    return now;
                }
                last = now;
            }
            last
        };
        (results, settle(&caller), settle(&server))
    };
    let (results_off, caller_off, server_off) = run(false);
    let (results_on, caller_on, server_on) = run(true);
    assert_eq!(results_off, results_on, "tracing changed call results");

    for (role, off, on) in [
        ("caller", &caller_off, &caller_on),
        ("server", &server_off, &server_on),
    ] {
        let mut wakeup_sum = (0u64, 0u64);
        for ((name_a, a), (name_b, b)) in off.iter().zip(on.iter()) {
            assert_eq!(name_a, name_b);
            match *name_a {
                // The only counter tracing is *supposed* to move.
                "trace_records" => {
                    assert_eq!(*a, 0, "records recorded with tracing off");
                }
                // Which of these a packet lands in depends on scheduling
                // (was a worker parked, did the waiter receive its own
                // result); their sum is invariant.
                "direct_wakeups" | "slow_path_queued" | "self_received_results" => {
                    wakeup_sum.0 += a;
                    wakeup_sum.1 += b;
                }
                // Scheduling again: how many calls were measured short
                // enough to run on the receiving thread, and how many
                // results woke their caller (both subsets of
                // `direct_wakeups`), and how often the role moved.
                "inline_calls" | "result_wakeups" | "role_handovers" => {}
                _ => assert_eq!(
                    a, b,
                    "{role} counter `{name_a}` differs with tracing on"
                ),
            }
        }
        assert_eq!(
            wakeup_sum.0, wakeup_sum.1,
            "{role} wakeup total differs with tracing on"
        );
    }
}

/// Ring wraparound: whatever the capacity and push count, a drain yields
/// exactly the newest `min(pushed, capacity)` records, oldest first, with
/// their contents intact.
#[test]
fn prop_ring_wraparound_keeps_newest_in_order() {
    check("ring_wraparound_keeps_newest_in_order", 200, |g| {
        let capacity = g.usize_in(1..40);
        let pushes = g.usize_in(0..120);
        let tracer = Tracer::new(capacity);
        tracer.set_enabled(true);
        for i in 0..pushes {
            let mut rec = TraceRecord::empty();
            rec.procedure = i as u16;
            // Step ordering encoded in the stamps: slot k of record i is
            // i*1000 + k + 1, strictly increasing within a record.
            for (k, s) in rec.stamps.iter_mut().enumerate() {
                *s = (i * 1000 + k + 1) as u64;
            }
            tracer.push(rec);
        }
        let mut drained = Vec::new();
        let dropped = tracer.drain(|r| drained.push(*r));
        let expect_len = pushes.min(capacity);
        prop_assert_eq!(drained.len(), expect_len);
        prop_assert_eq!(dropped, (pushes - expect_len) as u64);
        prop_assert_eq!(tracer.recorded(), pushes as u64);
        for (j, rec) in drained.iter().enumerate() {
            let i = pushes - expect_len + j;
            prop_assert_eq!(rec.procedure, i as u16, "record {} out of order", j);
            for (k, s) in rec.stamps.iter().enumerate() {
                prop_assert_eq!(*s, (i * 1000 + k + 1) as u64, "stamp garbled");
            }
        }
        Ok(())
    });
}

/// Concurrent callers: records pushed from many threads never interleave
/// *within* one record — every drained record is internally consistent
/// (one thread's procedure id, strictly increasing stamps) and complete.
#[test]
fn prop_concurrent_records_never_interleave() {
    check("concurrent_records_never_interleave", 20, |g| {
        let threads = g.usize_in(2..5);
        let per_thread = g.usize_in(5..40);
        let capacity = threads * per_thread + 8;
        let tracer = Arc::new(Tracer::new(capacity));
        tracer.set_enabled(true);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let tracer = Arc::clone(&tracer);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        let mut span = tracer.caller_span(t as u16);
                        for s in [
                            Stamp::BufferAcquired,
                            Stamp::MarshalDone,
                            Stamp::Sent,
                            Stamp::ResultReceived,
                            Stamp::UnmarshalDone,
                            Stamp::CallEnd,
                        ] {
                            span.stamp(s);
                        }
                        span.finish();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut counts = vec![0usize; threads];
        let mut garbled = None;
        tracer.drain(|rec| {
            let t = rec.procedure as usize;
            if t >= threads || !rec.is_complete() {
                garbled = Some(format!("record {:?}", rec.stamps));
                return;
            }
            counts[t] += 1;
            // Stamps are taken in call order on one thread, so within a
            // record they must be non-decreasing; a torn/mixed record
            // would break this.
            for w in rec.stamps[..7].windows(2) {
                if w[1] < w[0] {
                    garbled = Some(format!("stamps regress: {:?}", rec.stamps));
                }
            }
        });
        prop_assert!(garbled.is_none(), "{}", garbled.unwrap_or_default());
        for (t, &n) in counts.iter().enumerate() {
            prop_assert_eq!(n, per_thread, "thread {} lost records", t);
        }
        Ok(())
    });
}

/// Arbitrary drain points: interleaving pushes and drains behaves exactly
/// like a bounded FIFO model, with drop accounting to match.
#[test]
fn prop_arbitrary_drain_points_match_fifo_model() {
    check("arbitrary_drain_points_match_fifo_model", 150, |g| {
        let capacity = g.usize_in(1..24);
        let ops = g.usize_in(1..80);
        let tracer = Tracer::new(capacity);
        tracer.set_enabled(true);
        let mut model: VecDeque<u16> = VecDeque::new();
        let mut model_dropped = 0u64;
        let mut next_id = 0u16;
        for _ in 0..ops {
            if g.bool() {
                let mut rec = TraceRecord::empty();
                rec.procedure = next_id;
                rec.stamps[0] = u64::from(next_id) + 1;
                tracer.push(rec);
                model.push_back(next_id);
                if model.len() > capacity {
                    model.pop_front();
                    model_dropped += 1;
                }
                next_id += 1;
            } else {
                let mut drained = Vec::new();
                let dropped = tracer.drain(|r| drained.push(r.procedure));
                let expected: Vec<u16> = model.drain(..).collect();
                prop_assert_eq!(drained, expected, "drain order diverged");
                prop_assert_eq!(dropped, model_dropped, "drop count diverged");
            }
        }
        let mut drained = Vec::new();
        tracer.drain(|r| drained.push(r.procedure));
        let expected: Vec<u16> = model.drain(..).collect();
        prop_assert_eq!(drained, expected, "final drain diverged");
        Ok(())
    });
}
