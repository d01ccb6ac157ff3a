//! The traced pass: what each layer costs, measured from outside.
//!
//! Three kinds of number (README, "Per-layer metrics"):
//!
//! * **timings** — the median of [`BATCHES`] calibrated batches of calls
//!   into one layer's public functions (`firefly_wire`, `firefly_pool`,
//!   `firefly_idl`, `calltable`, `shard`, `transport`), made from this
//!   file;
//! * **counters** — deltas of `Endpoint::stats()`, `Endpoint::pool()`
//!   and `/proc` over an untraced closed-loop phase of the workload,
//!   per call;
//! * **trace** — the stack's own tracer (`Config::trace`) over a second,
//!   traced phase; its cost is `trace.overhead_share`.
//!
//! `account.*` then adds the timings up the way one call of the workload
//! uses the layers and states what is left unexplained.

use crate::sample::{self, LatencyHist};
use crate::workloads::{self, Phase, Rig, Workload};
use crate::{def, suite, MetricDef, Outcome, Values};
use firefly_idl::{CompiledStub, InterfaceDef, InterpStub, StubEngine, Value, Written};
use firefly_metrics::Json;
use firefly_pool::ShardedPool;
use firefly_rng::Rng;
use firefly_rpc::calltable::{ShardedCallTable, Wait};
use firefly_rpc::packet::Packet;
use firefly_rpc::shard::WorkQueues;
use firefly_rpc::transport::{LoopbackNet, Transport, UdpTransport};
use firefly_rpc::{Endpoint, Service};
use firefly_wire::{
    internet_checksum, ActivityId, FrameBuilder, FrameView, PacketType, MAX_FRAME_LEN,
    MIN_FRAME_LEN,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Every per-layer metric, in the order of `BENCHMARK.json`.
pub const PER_LAYER: [MetricDef; 63] = [
    def("wire.build_null_ns", "ns"),
    def("wire.parse_null_ns", "ns"),
    def("wire.build_max_ns", "ns"),
    def("wire.parse_max_ns", "ns"),
    def("wire.checksum_1514_ns", "ns"),
    def("pool.alloc_recycle_ns", "ns"),
    def("pool.rxq_cycle_ns", "ns"),
    def("pool.high_water", "count"),
    def("pool.exhaustions", "count"),
    def("idl.marshal_ints_ns", "ns"),
    def("idl.marshal_text_ns", "ns"),
    def("idl.marshal_array_ns", "ns"),
    def("idl.unmarshal_max_ns", "ns"),
    def("idl.interp_over_compiled", "x"),
    def("calltable.register_deliver_ns", "ns"),
    def("calltable.register_deliver_2t_ns", "ns"),
    def("shard.handoff_us", "us"),
    def("transport.udp_pair_us", "us"),
    def("transport.udp_poll_pair_us", "us"),
    def("transport.loopbacknet_pair_us", "us"),
    def("transport.raw_udp_echo_us", "us"),
    def("core.server_fast_path_share", "share"),
    def("core.slow_path_share", "share"),
    def("core.retransmit_per_call", "1/call"),
    def("core.duplicate_per_call", "1/call"),
    def("core.orphan_per_call", "1/call"),
    def("core.acks_per_call", "1/call"),
    def("core.fragments_per_call", "1/call"),
    def("core.recycled_per_call", "1/call"),
    def("core.validation_drops", "count"),
    def("proc.cpu_cores", "cores"),
    def("proc.sys_share", "share"),
    def("proc.vol_cs_per_call", "1/call"),
    def("proc.nonvol_cs_per_call", "1/call"),
    def("proc.runq_wait_us_per_call", "us"),
    def("proc.threads", "count"),
    def("trace.caller.starter_us", "us"),
    def("trace.caller.marshal_us", "us"),
    def("trace.caller.transport_send_us", "us"),
    def("trace.caller.wire_server_wakeup_us", "us"),
    def("trace.caller.unmarshal_us", "us"),
    def("trace.caller.ender_us", "us"),
    def("trace.server.demux_handoff_us", "us"),
    def("trace.server.stub_service_us", "us"),
    def("trace.server.result_send_us", "us"),
    def("trace.coverage", "share"),
    def("trace.dropped", "count"),
    def("trace.overhead_share", "share"),
    def("account.layers_sum_us", "us"),
    def("account.unexplained_us", "us"),
    def("account.over_floor_us", "us"),
    def("client.call_rate", "1/s"),
    def("client.latency_p50_us", "us"),
    def("client.latency_p99_us", "us"),
    def("client.latency_p999_us", "us"),
    def("client.latency_mean_us", "us"),
    def("client.goodput_mbps", "Mb/s"),
    def("client.samples", "count"),
    def("client.traced_latency_p50_us", "us"),
    def("client.traced_samples", "count"),
    def("harness.timer_ns", "ns"),
    def("harness.hist_record_ns", "ns"),
    def("harness.microbench_s", "s"),
];

/// The caller- and server-side step metrics, in the order of
/// `firefly_rpc::trace::{CALLER_STEPS, SERVER_STEPS}`.
const CALLER_STEP_METRICS: [&str; 6] = [
    "trace.caller.starter_us",
    "trace.caller.marshal_us",
    "trace.caller.transport_send_us",
    "trace.caller.wire_server_wakeup_us",
    "trace.caller.unmarshal_us",
    "trace.caller.ender_us",
];
const SERVER_STEP_METRICS: [&str; 3] = [
    "trace.server.demux_handoff_us",
    "trace.server.stub_service_us",
    "trace.server.result_send_us",
];

/// Timed batches per microbenchmark; the reported value is their median.
const BATCHES: usize = 9;
/// Microbenchmarks that share the timing budget equally.
const TIMED_OPERATIONS: u32 = 24;
/// Shares of `--seconds`: untraced phase, traced phase; the rest goes to
/// the microbenchmarks.
const UNTRACED_SHARE: f64 = 0.3;
const TRACED_SHARE: f64 = 0.3;
/// Closed-loop warm-up before each of the two phases.
const PHASE_WARMUP_S: f64 = 0.3;

/// Median ns per call of `op`: calibrates a batch to fill its share of
/// `budget`, then times [`BATCHES`] batches.
fn time_op(budget: Duration, mut op: impl FnMut()) -> f64 {
    let per_batch = budget / (BATCHES as u32 + 2);
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        let dt = t.elapsed();
        if dt >= per_batch / 2 || iters >= 1 << 30 {
            iters = ((iters as f64 * per_batch.as_secs_f64() / dt.as_secs_f64().max(1e-9)) as u64)
                .max(1);
            break;
        }
        iters *= 4;
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                op();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    sample::median(&batches)
}

// ---------------------------------------------------------------------
// wire, pool, idl
// ---------------------------------------------------------------------

fn wire_layer(budget: Duration, seed: u64, out: &mut Values) {
    let builder = FrameBuilder::new(PacketType::Call)
        .activity(ActivityId::new(1, 2, 3))
        .call_seq(42);
    let mut buf = vec![0u8; MAX_FRAME_LEN];
    Rng::new(seed).fill_bytes(&mut buf);
    for (build, parse, data_len) in [
        ("wire.build_null_ns", "wire.parse_null_ns", 0),
        (
            "wire.build_max_ns",
            "wire.parse_max_ns",
            workloads::MAX_RESULT_BYTES,
        ),
    ] {
        out.push((
            build,
            time_op(budget, || {
                black_box(builder.encode_into(black_box(&mut buf), data_len).is_ok());
            }),
        ));
        let len = builder
            .encode_into(&mut buf, data_len)
            .expect("a frame of at most 1440 data bytes fits the buffer");
        out.push((
            parse,
            time_op(budget, || {
                black_box(FrameView::parse(black_box(&buf[..len])).is_ok());
            }),
        ));
    }
    out.push((
        "wire.checksum_1514_ns",
        time_op(budget, || {
            black_box(internet_checksum(black_box(&buf)));
        }),
    ));
}

fn pool_layer(budget: Duration, out: &mut Values) {
    let pool = ShardedPool::new(64, 4);
    out.push((
        "pool.alloc_recycle_ns",
        time_op(budget, || drop(black_box(pool.alloc_from(1)))),
    ));
    out.push((
        "pool.rxq_cycle_ns",
        time_op(budget, || {
            if let Ok(buf) = pool.take_receive_buffer_from(1) {
                buf.recycle();
            }
        }),
    ));
}

/// Everything the stubs do for one call, as `LocalClient::call_index`
/// strings it together: marshal the call, unmarshal it at the server,
/// run the procedure against a result writer, unmarshal the result.
fn stub_cycle(
    stub: &dyn StubEngine,
    service: &dyn Service,
    index: u16,
    args: &[Value],
    call_buf: &mut [u8],
    result_buf: &mut [u8],
) -> bool {
    let Ok(call_len) = stub.marshal_call(args, call_buf) else {
        return false;
    };
    let Ok(server_args) = stub.unmarshal_call(&call_buf[..call_len]) else {
        return false;
    };
    let mut writer = stub.result_writer(result_buf);
    if service.dispatch(index, &server_args, &mut writer).is_err() {
        return false;
    }
    match writer.finish() {
        Ok(Written::InPlace { len }) => stub.unmarshal_result(&result_buf[..len]).is_ok(),
        _ => false,
    }
}

fn idl_layer(
    budget: Duration,
    seed: u64,
    interface: &InterfaceDef,
    out: &mut Values,
) -> Result<(), String> {
    let service = workloads::service(interface)?;
    let shapes = workloads::plan(Workload::LocalArgs, interface, &mut Rng::new(seed));
    let mut call_buf = vec![0u8; MAX_FRAME_LEN];
    let mut result_buf = vec![0u8; MAX_FRAME_LEN];
    let (mut compiled_sum, mut interp_sum) = (0.0, 0.0);
    for call in &shapes {
        let procedure = interface
            .procedure_by_index(call.index)
            .map_err(|e| e.to_string())?;
        let name = match procedure.name() {
            "Ints" => "idl.marshal_ints_ns",
            "Txt" => "idl.marshal_text_ns",
            _ => "idl.marshal_array_ns",
        };
        let compiled = CompiledStub::new(procedure.name(), Arc::clone(procedure.plan()));
        let interp = InterpStub::new(procedure.name(), Arc::clone(procedure.plan()));
        let mut cycle = |stub: &dyn StubEngine| {
            if !stub_cycle(
                stub,
                &*service,
                call.index,
                &call.args,
                &mut call_buf,
                &mut result_buf,
            ) {
                return Err(format!("{}: the stub cycle failed", procedure.name()));
            }
            Ok(time_op(budget, || {
                black_box(stub_cycle(
                    stub,
                    &*service,
                    call.index,
                    black_box(&call.args),
                    &mut call_buf,
                    &mut result_buf,
                ));
            }))
        };
        let compiled_ns = cycle(&compiled)?;
        compiled_sum += compiled_ns;
        interp_sum += cycle(&interp)?;
        out.push((name, compiled_ns));
    }
    // The caller-side copy of a 1440-byte result (`maxresult_1c`).
    let procedure = interface
        .procedure("MaxResult")
        .map_err(|e| e.to_string())?;
    let stub = CompiledStub::new(procedure.name(), Arc::clone(procedure.plan()));
    let mut writer = stub.result_writer(&mut result_buf);
    service
        .dispatch(procedure.index(), &[], &mut writer)
        .map_err(|e| e.to_string())?;
    let len = writer.finish().map_err(|e| e.to_string())?.len();
    out.push((
        "idl.unmarshal_max_ns",
        time_op(budget, || {
            black_box(stub.unmarshal_result(black_box(&result_buf[..len])).is_ok());
        }),
    ));
    out.push(("idl.interp_over_compiled", interp_sum / compiled_sum));
    Ok(())
}

// ---------------------------------------------------------------------
// call table, work queues
// ---------------------------------------------------------------------

/// One result packet for (`activity`, `seq`) in a pool buffer, as the
/// demultiplexer would hold it before `deliver`.
fn result_packet(pool: &ShardedPool, activity: ActivityId, seq: u32) -> Option<Packet> {
    let mut buf = pool.alloc_from(activity.thread as usize).ok()?;
    let len = FrameBuilder::new(PacketType::Result)
        .activity(activity)
        .call_seq(seq)
        .encode_into(buf.raw_mut(), 0)
        .ok()?;
    buf.set_len(len);
    Packet::from_buf(buf).ok()
}

/// register → deliver → poll → unregister for one call; true when the
/// result came out the other end.
fn calltable_cycle(
    table: &ShardedCallTable,
    pool: &ShardedPool,
    activity: ActivityId,
    seq: u32,
) -> bool {
    let Some(packet) = result_packet(pool, activity, seq) else {
        return false;
    };
    let entry = table.register(activity, seq);
    table.deliver(packet);
    let complete = matches!(entry.poll(), Some(Wait::Complete(_)));
    table.unregister(activity);
    complete
}

fn calltable_layer(budget: Duration, out: &mut Values) -> Result<(), String> {
    let table = ShardedCallTable::new(4);
    let pool = ShardedPool::new(64, 4);
    let activity = |thread| ActivityId::new(7, 1, thread);
    if !calltable_cycle(&table, &pool, activity(1), 0) {
        return Err("calltable: a delivered result did not complete its call".into());
    }
    // Making the packet (alloc, build, parse) is wire and pool work that
    // has its own rows; time it alone and take it off.
    let mut seq = 0u32;
    let packet_ns = time_op(budget, || {
        seq = seq.wrapping_add(1);
        black_box(result_packet(&pool, activity(1), seq).is_some());
    });
    let single_ns = time_op(budget, || {
        seq = seq.wrapping_add(1);
        black_box(calltable_cycle(&table, &pool, activity(1), seq));
    });
    out.push((
        "calltable.register_deliver_ns",
        (single_ns - packet_ns).max(0.0),
    ));

    // Two threads at once on distinct activities of the one table: the
    // batch size comes from the single-thread time, each thread reports
    // its own ns per cycle, a batch is their mean.
    let iters =
        (budget.as_nanos() as f64 / (BATCHES as f64 + 2.0) / single_ns.max(1.0)).max(1.0) as u32;
    let batches: Vec<f64> = (0..BATCHES)
        .map(|batch| {
            let gate = Barrier::new(2);
            let per_thread: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (1..=2u16)
                    .map(|thread| {
                        let (table, pool, gate) = (&table, &pool, &gate);
                        scope.spawn(move || {
                            gate.wait();
                            let t = Instant::now();
                            for i in 0..iters {
                                let seq = (batch as u32) * iters + i;
                                black_box(calltable_cycle(table, pool, activity(thread), seq));
                            }
                            t.elapsed().as_nanos() as f64 / f64::from(iters)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calltable thread panicked"))
                    .collect()
            });
            per_thread.iter().sum::<f64>() / per_thread.len() as f64
        })
        .collect();
    out.push((
        "calltable.register_deliver_2t_ns",
        (sample::median(&batches) - packet_ns).max(0.0),
    ));
    Ok(())
}

/// One hand-off through `WorkQueues`: an item pushed on one thread until
/// `pop` returns it on another — half of a ping-pong between two queues,
/// each with one worker that polls and parks as the server's do.
fn handoff_layer(budget: Duration, out: &mut Values) {
    let ping: WorkQueues<u64> = WorkQueues::new(1);
    let pong: WorkQueues<u64> = WorkQueues::new(1);
    let round_trip_ns = std::thread::scope(|scope| {
        let peer = scope.spawn(|| {
            let mut local = VecDeque::new();
            while let Some(item) = ping.pop(0, &mut local) {
                pong.push(0, item);
            }
        });
        let mut local = VecDeque::new();
        let ns = time_op(budget, || {
            ping.push(0, 1);
            black_box(pong.pop(0, &mut local));
        });
        ping.shutdown();
        peer.join().expect("hand-off peer panicked");
        ns
    });
    out.push(("shard.handoff_us", round_trip_ns / 2.0 / 1e3));
}

// ---------------------------------------------------------------------
// transports
// ---------------------------------------------------------------------

type Received = io::Result<(usize, SocketAddr)>;

fn recv_blocking(transport: &dyn Transport, buf: &mut [u8]) -> Received {
    transport.recv(buf)
}

/// Receives the way `demux_loop` does: up to 32 nonblocking attempts,
/// each followed by `yield_now`, then a blocking receive.
fn recv_polling(transport: &dyn Transport, buf: &mut [u8]) -> Received {
    for _ in 0..32 {
        if let Some(received) = transport.try_recv(buf)? {
            return Ok(received);
        }
        std::thread::yield_now();
    }
    transport.recv(buf)
}

/// µs for one frame to go from `a` to `b` and back, `b` echoing on its
/// own thread, both sides receiving with `recv`.
fn transport_pair_us(
    budget: Duration,
    a: Arc<dyn Transport>,
    b: Arc<dyn Transport>,
    recv: fn(&dyn Transport, &mut [u8]) -> Received,
) -> f64 {
    let frame = [0x5au8; MIN_FRAME_LEN];
    let to = b.local_addr();
    let round_trip_ns = std::thread::scope(|scope| {
        let echo = Arc::clone(&b);
        let peer = scope.spawn(move || {
            let mut buf = [0u8; MAX_FRAME_LEN];
            // Ends when `shutdown` makes the receive fail.
            while let Ok((len, from)) = recv(&*echo, &mut buf) {
                if echo.send(&buf[..len], from).is_err() {
                    break;
                }
            }
        });
        let mut buf = [0u8; MAX_FRAME_LEN];
        let ns = time_op(budget, || {
            if a.send(&frame, to).is_ok() {
                black_box(recv(&*a, &mut buf).is_ok());
            }
        });
        b.shutdown();
        peer.join().expect("echo peer panicked");
        a.shutdown();
        ns
    });
    round_trip_ns / 1e3
}

/// The same ping-pong on two bare `std::net::UdpSocket`s, blocking.
fn raw_udp_echo_us(budget: Duration) -> io::Result<f64> {
    let a = UdpSocket::bind("127.0.0.1:0")?;
    let b = UdpSocket::bind("127.0.0.1:0")?;
    let to = b.local_addr()?;
    let frame = [0x5au8; MIN_FRAME_LEN];
    let round_trip_ns = std::thread::scope(|scope| {
        let peer = scope.spawn(|| {
            let mut buf = [0u8; MAX_FRAME_LEN];
            // An empty datagram is the signal to stop.
            while let Ok((len, from)) = b.recv_from(&mut buf) {
                if len == 0 || b.send_to(&buf[..len], from).is_err() {
                    break;
                }
            }
        });
        let mut buf = [0u8; MAX_FRAME_LEN];
        let ns = time_op(budget, || {
            if a.send_to(&frame, to).is_ok() {
                black_box(a.recv_from(&mut buf).is_ok());
            }
        });
        let stopped = a.send_to(&[], to);
        peer.join().expect("raw echo peer panicked");
        stopped.map(|_| ns)
    })?;
    Ok(round_trip_ns / 1e3)
}

fn transport_layer(budget: Duration, out: &mut Values) -> Result<(), String> {
    let udp = || -> Result<Arc<dyn Transport>, String> {
        Ok(UdpTransport::localhost().map_err(|e| e.to_string())?)
    };
    out.push((
        "transport.udp_pair_us",
        transport_pair_us(budget, udp()?, udp()?, recv_blocking),
    ));
    out.push((
        "transport.udp_poll_pair_us",
        transport_pair_us(budget, udp()?, udp()?, recv_polling),
    ));
    let net = LoopbackNet::new();
    out.push((
        "transport.loopbacknet_pair_us",
        transport_pair_us(budget, net.station(1), net.station(2), recv_polling),
    ));
    out.push((
        "transport.raw_udp_echo_us",
        raw_udp_echo_us(budget).map_err(|e| e.to_string())?,
    ));
    Ok(())
}

fn harness_layer(budget: Duration, out: &mut Values) {
    out.push((
        "harness.timer_ns",
        time_op(budget, || {
            let begin = Instant::now();
            black_box(Instant::now() - begin);
        }),
    ));
    let mut hist = LatencyHist::new();
    let mut ns = 11_000u64;
    out.push((
        "harness.hist_record_ns",
        time_op(budget, || {
            ns = 11_000 + (ns * 31 + 7) % 4096;
            hist.record(black_box(ns));
        }),
    ));
}

// ---------------------------------------------------------------------
// counters over a closed-loop phase
// ---------------------------------------------------------------------

/// The `RpcStats` and pool counters of both endpoints, summed.
#[derive(Clone, Copy, Default)]
struct Counters {
    calls_received: u64,
    direct_wakeups_server: u64,
    slow_path_queued: u64,
    retransmissions: u64,
    duplicate_calls: u64,
    orphan_results: u64,
    acks_sent: u64,
    fragments_sent: u64,
    buffers_recycled: u64,
    validation_drops: u64,
    pool_high_water: u64,
    pool_exhaustions: u64,
}

impl Counters {
    fn read(rig: &Rig) -> Counters {
        let server = rig.server().stats();
        let mut c = Counters {
            calls_received: server.calls_received(),
            direct_wakeups_server: server.direct_wakeups(),
            slow_path_queued: server.slow_path_queued(),
            ..Counters::default()
        };
        // For `local_args` caller and server are one endpoint.
        let endpoints: &[&Endpoint] = if std::ptr::eq(rig.caller(), rig.server()) {
            &[rig.server()]
        } else {
            &[rig.caller(), rig.server()]
        };
        for endpoint in endpoints {
            let stats = endpoint.stats();
            c.retransmissions += stats.retransmissions();
            c.duplicate_calls += stats.duplicate_calls();
            c.orphan_results += stats.orphan_results();
            c.acks_sent += stats.acks_sent();
            c.fragments_sent += stats.fragments_sent();
            c.buffers_recycled += stats.buffers_recycled();
            c.validation_drops += stats.validation_drops() + stats.unknown_type_drops();
            let pool = endpoint.pool().stats();
            c.pool_high_water = c.pool_high_water.max(pool.high_water());
            c.pool_exhaustions += pool.exhaustions();
        }
        c
    }
}

fn counter_metrics(
    before: &Counters,
    after: &Counters,
    phase: &Phase,
    workload: Workload,
    out: &mut Values,
) {
    let calls = phase.completed().max(1) as f64;
    // Saturating: the per-thread sums can shrink if a thread exits
    // between the two readings (other tests, when run under `cargo test`).
    let per_call = |b: u64, a: u64| a.saturating_sub(b) as f64 / calls;
    let received = (after.calls_received - before.calls_received).max(1) as f64;
    out.push((
        "core.server_fast_path_share",
        (after.direct_wakeups_server - before.direct_wakeups_server) as f64 / received,
    ));
    out.push((
        "core.slow_path_share",
        (after.slow_path_queued - before.slow_path_queued) as f64 / received,
    ));
    out.push((
        "core.retransmit_per_call",
        per_call(before.retransmissions, after.retransmissions),
    ));
    out.push((
        "core.duplicate_per_call",
        per_call(before.duplicate_calls, after.duplicate_calls),
    ));
    out.push((
        "core.orphan_per_call",
        per_call(before.orphan_results, after.orphan_results),
    ));
    out.push((
        "core.acks_per_call",
        per_call(before.acks_sent, after.acks_sent),
    ));
    out.push((
        "core.fragments_per_call",
        per_call(before.fragments_sent, after.fragments_sent),
    ));
    out.push((
        "core.recycled_per_call",
        per_call(before.buffers_recycled, after.buffers_recycled),
    ));
    out.push((
        "core.validation_drops",
        (after.validation_drops - before.validation_drops) as f64,
    ));
    out.push(("pool.high_water", after.pool_high_water as f64));
    out.push((
        "pool.exhaustions",
        (after.pool_exhaustions - before.pool_exhaustions) as f64,
    ));

    let (p0, p1) = (&phase.before, &phase.after);
    let cpu_s = phase.cpu_s();
    out.push(("proc.cpu_cores", cpu_s / phase.wall_s()));
    out.push((
        "proc.sys_share",
        if cpu_s > 0.0 {
            (p1.sys_s - p0.sys_s) / cpu_s
        } else {
            0.0
        },
    ));
    out.push((
        "proc.vol_cs_per_call",
        per_call(p0.voluntary_switches, p1.voluntary_switches),
    ));
    out.push((
        "proc.nonvol_cs_per_call",
        per_call(p0.nonvoluntary_switches, p1.nonvoluntary_switches),
    ));
    out.push((
        "proc.runq_wait_us_per_call",
        (p1.runq_wait_s - p0.runq_wait_s) * 1e6 / calls,
    ));
    out.push(("proc.threads", p1.threads as f64));

    let rate = phase.completed() as f64 / phase.wall_s();
    let latency = phase.whole().latency;
    out.push(("client.call_rate", rate));
    out.push(("client.latency_p50_us", latency.percentile_ns(50.0) / 1e3));
    out.push(("client.latency_p99_us", latency.percentile_ns(99.0) / 1e3));
    out.push(("client.latency_p999_us", latency.percentile_ns(99.9) / 1e3));
    out.push(("client.latency_mean_us", latency.mean_ns() / 1e3));
    out.push((
        "client.goodput_mbps",
        rate * workload.payload_bytes() * 8.0 / 1e6,
    ));
    out.push(("client.samples", latency.count() as f64));
}

// ---------------------------------------------------------------------
// the stack's own tracer
// ---------------------------------------------------------------------

/// Runs `workload` with the stack's tracer on and reports its step
/// means. `expected_calls` sizes the trace rings so that nothing drops.
fn traced_phase(
    workload: Workload,
    seed: u64,
    seconds: f64,
    expected_calls: f64,
    out: &mut Values,
) -> Result<(Phase, workloads::Checks), String> {
    let capacity = (expected_calls * 1.5) as usize + 4096;
    let (rig, _) = Rig::setup(workload, seed, Some(capacity))?;
    rig.drive(PHASE_WARMUP_S.min(seconds), 1);
    // Warm-up records are not part of the account.
    rig.caller().trace_report();
    rig.server().trace_report();
    let phase = rig.drive(seconds, 1);
    // The server's record lands just after it sends the result.
    let deadline = Instant::now() + Duration::from_millis(200);
    while rig.server().tracer().recorded() < rig.caller().tracer().recorded()
        && Instant::now() < deadline
    {
        std::thread::yield_now();
    }
    let caller = rig.caller().trace_report();
    let server = rig.server().trace_report();
    for (name, (_, hist)) in CALLER_STEP_METRICS.iter().zip(&caller.caller.steps) {
        out.push((name, hist.mean()));
    }
    for (name, (_, hist)) in SERVER_STEP_METRICS.iter().zip(&server.server.steps) {
        out.push((name, hist.mean()));
    }
    let measured_mean_us = phase.whole().latency.mean_ns() / 1e3;
    out.push((
        "trace.coverage",
        if measured_mean_us > 0.0 {
            caller.caller.accounted_mean_us() / measured_mean_us
        } else {
            0.0
        },
    ));
    out.push(("trace.dropped", (caller.dropped + server.dropped) as f64));
    Ok((phase, rig.finish()))
}

// ---------------------------------------------------------------------
// the account
// ---------------------------------------------------------------------

/// How often one call of `workload` passes through each outside-timed
/// layer (README, "The account").
fn uses(workload: Workload) -> &'static [(&'static str, f64)] {
    match workload {
        Workload::Null1c | Workload::Null2c => &[
            ("wire.build_null_ns", 2.0),
            ("wire.parse_null_ns", 2.0),
            ("pool.alloc_recycle_ns", 2.0),
            ("pool.rxq_cycle_ns", 2.0),
            ("calltable.register_deliver_ns", 1.0),
            ("shard.handoff_us", 1.0),
            ("transport.udp_poll_pair_us", 1.0),
        ],
        Workload::NullLoss1c => &[
            ("wire.build_null_ns", 2.0),
            ("wire.parse_null_ns", 2.0),
            ("pool.alloc_recycle_ns", 2.0),
            ("pool.rxq_cycle_ns", 2.0),
            ("calltable.register_deliver_ns", 1.0),
            ("shard.handoff_us", 1.0),
            ("transport.loopbacknet_pair_us", 1.0),
        ],
        Workload::MaxResult1c => &[
            ("wire.build_null_ns", 1.0),
            ("wire.build_max_ns", 1.0),
            ("wire.parse_null_ns", 1.0),
            ("wire.parse_max_ns", 1.0),
            ("pool.alloc_recycle_ns", 2.0),
            ("pool.rxq_cycle_ns", 2.0),
            ("idl.unmarshal_max_ns", 1.0),
            ("calltable.register_deliver_ns", 1.0),
            ("shard.handoff_us", 1.0),
            ("transport.udp_poll_pair_us", 1.0),
        ],
        // 4 call fragments + 3 acks one way, 4 result fragments + 3 acks
        // the other: 14 frames in 7 strictly sequential round trips. The
        // stubs move 5760 bytes each way; the array row moves 1024.
        Workload::Blob4f1c => &[
            ("wire.build_max_ns", 8.0),
            ("wire.build_null_ns", 6.0),
            ("wire.parse_max_ns", 8.0),
            ("wire.parse_null_ns", 6.0),
            ("pool.alloc_recycle_ns", 8.0),
            ("pool.rxq_cycle_ns", 14.0),
            (
                "idl.marshal_array_ns",
                (workloads::BLOB_BYTES / workloads::ARR_BYTES) as f64,
            ),
            ("calltable.register_deliver_ns", 7.0),
            ("shard.handoff_us", 4.0),
            ("transport.udp_poll_pair_us", 7.0),
        ],
        // A third of the calls each; two pool buffers and the harness's
        // own timer pair per call.
        Workload::LocalArgs => &[
            ("idl.marshal_ints_ns", 1.0 / 3.0),
            ("idl.marshal_text_ns", 1.0 / 3.0),
            ("idl.marshal_array_ns", 1.0 / 3.0),
            ("pool.alloc_recycle_ns", 2.0),
            ("harness.timer_ns", 1.0),
        ],
    }
}

/// The transport round trips of one call and the row that prices one.
fn floor(workload: Workload) -> Option<(&'static str, f64)> {
    uses(workload)
        .iter()
        .copied()
        .find(|(name, _)| name.starts_with("transport."))
}

fn value_us(values: &Values, name: &str) -> f64 {
    let value = values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v);
    if name.ends_with("_ns") {
        value / 1e3
    } else {
        value
    }
}

fn account(workload: Workload, latency_p50_us: f64, out: &mut Values) {
    let layers_sum: f64 = uses(workload)
        .iter()
        .map(|(name, times)| value_us(out, name) * times)
        .sum();
    let floor_us = floor(workload).map_or(0.0, |(name, trips)| value_us(out, name) * trips);
    out.push(("account.layers_sum_us", layers_sum));
    out.push(("account.unexplained_us", latency_p50_us - layers_sum));
    out.push(("account.over_floor_us", latency_p50_us - floor_us));
}

// ---------------------------------------------------------------------

/// The traced run: every per-layer metric for one workload.
pub fn run_per_layer(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut values: Values = Vec::with_capacity(PER_LAYER.len());
    let interface = workloads::interface();

    // Untraced closed loop: counters per call and the untraced median.
    let (rig, _) = Rig::setup(workload, seed, None)?;
    rig.drive(PHASE_WARMUP_S.min(seconds), 1);
    let before = Counters::read(&rig);
    let untraced = rig.drive(seconds * UNTRACED_SHARE, 1);
    counter_metrics(
        &before,
        &Counters::read(&rig),
        &untraced,
        workload,
        &mut values,
    );
    let mut checks = vec![rig.finish()];
    let untraced_p50_us = untraced.whole().latency.percentile_ns(50.0) / 1e3;
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);

    // The same loop with the stack's tracer on. `local_args` crosses no
    // traced boundary: its trace rows are 0 by definition.
    if workload == Workload::LocalArgs {
        for name in CALLER_STEP_METRICS.iter().chain(&SERVER_STEP_METRICS) {
            values.push((name, 0.0));
        }
        for name in [
            "trace.coverage",
            "trace.dropped",
            "trace.overhead_share",
            "client.traced_latency_p50_us",
            "client.traced_samples",
        ] {
            values.push((name, 0.0));
        }
    } else {
        let traced_s = seconds * TRACED_SHARE;
        let expected =
            untraced.completed() as f64 / untraced.wall_s() * (traced_s + PHASE_WARMUP_S);
        let (traced, traced_checks) =
            traced_phase(workload, seed, traced_s, expected, &mut values)?;
        let traced_latency = traced.whole().latency;
        let traced_p50_us = traced_latency.percentile_ns(50.0) / 1e3;
        values.push((
            "trace.overhead_share",
            traced_p50_us / untraced_p50_us - 1.0,
        ));
        values.push(("client.traced_latency_p50_us", traced_p50_us));
        values.push(("client.traced_samples", traced_latency.count() as f64));
        attempted += traced.attempted;
        failed += traced.failed;
        checks.push(traced_checks);
    }

    // Each layer on its own.
    let micro_started = Instant::now();
    let micro_s = seconds * (1.0 - UNTRACED_SHARE - TRACED_SHARE);
    let budget = Duration::from_secs_f64(micro_s) / TIMED_OPERATIONS;
    wire_layer(budget, seed, &mut values);
    pool_layer(budget, &mut values);
    idl_layer(budget, seed, &interface, &mut values)?;
    calltable_layer(budget, &mut values)?;
    handoff_layer(budget, &mut values);
    transport_layer(budget, &mut values)?;
    harness_layer(budget, &mut values);
    values.push((
        "harness.microbench_s",
        micro_started.elapsed().as_secs_f64(),
    ));

    account(workload, untraced_p50_us, &mut values);

    let passed = checks.iter().all(workloads::Checks::passed);
    let info = suite::provenance(workload, seed, seconds)
        .set("untraced_s", Json::num(seconds * UNTRACED_SHARE))
        .set("traced_s", Json::num(seconds * TRACED_SHARE))
        .set(
            "account_uses",
            Json::Arr(
                uses(workload)
                    .iter()
                    .map(|(name, times)| {
                        Json::obj()
                            .set("layer", Json::str(*name))
                            .set("per_call", Json::num(*times))
                    })
                    .collect(),
            ),
        );
    Ok(Outcome {
        correct: passed && failed == 0 && values.iter().all(|(_, v)| v.is_finite()),
        attempted,
        failed,
        values,
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_account_row_names_a_timed_layer_metric() {
        for workload in Workload::ALL {
            for (name, times) in uses(workload) {
                assert!(PER_LAYER.iter().any(|d| d.name == *name), "{name}");
                assert!(name.ends_with("_ns") || name.ends_with("_us"), "{name}");
                assert!(*times > 0.0);
            }
            let transport = floor(workload).map(|(name, _)| name);
            assert_eq!(transport.is_none(), workload == Workload::LocalArgs);
        }
    }

    #[test]
    fn the_account_adds_up_in_microseconds() {
        let mut values: Values = vec![
            ("idl.marshal_ints_ns", 300.0),
            ("idl.marshal_text_ns", 600.0),
            ("idl.marshal_array_ns", 900.0),
            ("pool.alloc_recycle_ns", 50.0),
            ("harness.timer_ns", 40.0),
        ];
        account(Workload::LocalArgs, 1.0, &mut values);
        let get = |name| value_us(&values, name);
        assert!((get("account.layers_sum_us") - 0.74).abs() < 1e-9);
        assert!((get("account.unexplained_us") - 0.26).abs() < 1e-9);
        assert!((get("account.over_floor_us") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn time_op_reports_a_positive_median() {
        let mut n = 0u64;
        let ns = time_op(Duration::from_millis(20), || {
            n = black_box(n.wrapping_add(1))
        });
        assert!(ns > 0.0 && ns < 1e6, "{ns}");
    }

    /// A short traced pass of a UDP workload and of `local_args` emits
    /// every per-layer metric, finite, and passes its checks.
    #[test]
    fn a_short_traced_pass_emits_every_layer_metric() {
        for workload in [Workload::MaxResult1c, Workload::LocalArgs] {
            let outcome = run_per_layer(workload, 4, 1.0).expect("traced pass");
            assert!(outcome.correct, "{}", workload.name());
            let mut names: Vec<&str> = outcome.values.iter().map(|(n, _)| *n).collect();
            let mut expected: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
            names.sort_unstable();
            expected.sort_unstable();
            assert_eq!(names, expected, "{}", workload.name());
        }
    }
}
