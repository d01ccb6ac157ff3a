//! Microbenchmarks of the real stack's fast-path components: the
//! modern-hardware counterparts of Tables II–VI and IX.
//!
//! A self-contained `std::time::Instant` harness (no Criterion): each
//! benchmark is calibrated until a batch runs long enough to time
//! reliably, then sampled repeatedly and reported as the median ns/op
//! with derived throughput where a payload size applies.
//!
//! Flags/env:
//!   --markdown            emit Markdown instead of aligned text
//!   --test                smoke mode: one tiny batch per benchmark
//!   FIREFLY_BENCH_SAMPLES overrides the sample count (default 9)

use firefly_bench::{emit, mode_from_args};
use firefly_idl::{
    parse_interface, test_interface, ArgWriter, CompiledStub, InterpStub, StubEngine, Value,
};
use firefly_metrics::table::{fnum, Align, Table};
use firefly_pool::BufferPool;
use firefly_rng::Rng;
use firefly_rpc::transport::LoopbackNet;
use firefly_rpc::{Config, Endpoint, ServiceBuilder};
use firefly_wire::{internet_checksum, ActivityId, Frame, FrameBuilder, PacketType};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Collects rows for the final report.
struct Runner {
    rows: Vec<(String, f64, Option<u64>)>,
    samples: u32,
    smoke: bool,
}

impl Runner {
    fn new() -> Self {
        let samples = std::env::var("FIREFLY_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(9);
        let smoke = std::env::args().any(|a| a == "--test");
        Runner {
            rows: Vec::new(),
            samples,
            smoke,
        }
    }

    /// Times `f`, returning the median ns per call across samples.
    fn measure<F: FnMut()>(&self, mut f: F) -> f64 {
        if self.smoke {
            let t = Instant::now();
            f();
            return t.elapsed().as_nanos() as f64;
        }
        // Calibrate: grow the batch until it takes at least 2 ms, so
        // Instant's resolution is negligible against the batch time.
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            let dt = t.elapsed();
            if dt >= Duration::from_millis(2) || iters >= 1 << 28 {
                break;
            }
            // Aim straight for the target rather than doubling blindly.
            let scale = Duration::from_millis(2).as_nanos() as f64
                / dt.as_nanos().max(1) as f64;
            iters = (iters as f64 * scale.clamp(2.0, 100.0)) as u64;
        }
        let mut per_op: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_op.sort_by(|a, b| a.partial_cmp(b).unwrap());
        per_op[per_op.len() / 2]
    }

    /// Runs one benchmark; `bytes` enables the throughput column.
    fn bench<F: FnMut()>(&mut self, name: &str, bytes: Option<u64>, f: F) {
        let ns = self.measure(f);
        self.rows.push((name.to_string(), ns, bytes));
    }

    fn report(self) {
        let mut table = Table::new(&["benchmark", "ns/op", "Mops/s", "MB/s"])
            .title("Microbenchmarks (median of samples)")
            .aligns(&[Align::Left, Align::Right, Align::Right, Align::Right]);
        for (name, ns, bytes) in &self.rows {
            let mops = if *ns > 0.0 { 1e3 / ns } else { 0.0 };
            let mbps = match bytes {
                Some(b) if *ns > 0.0 => fnum(*b as f64 / *ns * 1e9 / 1e6, 1),
                _ => "-".to_string(),
            };
            table.row_owned(vec![name.clone(), fnum(*ns, 1), fnum(mops, 3), mbps]);
        }
        emit(&table, mode_from_args());
    }
}

/// Table VI's "Calculate UDP checksum" rows: 74- and 1514-byte frames.
fn bench_checksum(r: &mut Runner) {
    let mut rng = Rng::new(0xc0de_cafe);
    for size in [74usize, 1514] {
        let mut data = vec![0u8; size];
        rng.fill_bytes(&mut data);
        r.bench(&format!("checksum/{size}"), Some(size as u64), || {
            black_box(internet_checksum(black_box(&data)));
        });
    }
}

/// The Sender's job: build a complete frame with headers and checksum.
fn bench_frame_build(r: &mut Runner) {
    for payload in [0usize, 1440] {
        let data = vec![0xa5u8; payload];
        let builder = FrameBuilder::new(PacketType::Call)
            .activity(ActivityId::new(1, 2, 3))
            .call_seq(42);
        r.bench(&format!("frame_build/{payload}"), None, || {
            black_box(builder.build(black_box(&data)).unwrap());
        });
    }
}

/// The receive interrupt's job: validate and parse a frame.
fn bench_frame_parse(r: &mut Runner) {
    for payload in [0usize, 1440] {
        let data = vec![0xa5u8; payload];
        let frame = FrameBuilder::new(PacketType::Call).build(&data).unwrap();
        let bytes = frame.bytes().to_vec();
        r.bench(&format!("frame_parse/{payload}"), None, || {
            black_box(Frame::parse(black_box(&bytes)).unwrap());
        });
    }
}

/// Tables II–IV: marshalling by argument kind, on the plan-driven engine
/// (what `call_index` runs) and as a typed stub's direct assignments.
fn bench_marshal(r: &mut Runner) {
    // Table II: four integers by value.
    let iface =
        parse_interface("DEFINITION MODULE M; PROCEDURE P(a, b, x, y: INTEGER); END M.").unwrap();
    let p = iface.procedure("P").unwrap();
    let ints = CompiledStub::new(p.name(), Arc::clone(p.plan()));
    let args: Vec<Value> = (0..4).map(Value::Integer).collect();
    let mut buf = vec![0u8; 64];
    r.bench("marshal/four_integers", None, || {
        black_box(ints.marshal_call(black_box(&args), &mut buf).unwrap());
    });
    r.bench("marshal/four_integers_typed", None, || {
        let mut w = ArgWriter::new(&mut buf);
        for i in 0..4 {
            w.put_i32(black_box(i)).unwrap();
        }
        black_box(w.written());
    });
    // Table IV: the 1440-byte open array.
    let iface = test_interface();
    let p = iface.procedure("MaxArg").unwrap();
    let blob = CompiledStub::new(p.name(), Arc::clone(p.plan()));
    let args = vec![Value::char_array(1440)];
    let mut big = vec![0u8; 1500];
    r.bench("marshal/open_array_1440", Some(1440), || {
        black_box(blob.marshal_call(black_box(&args), &mut big).unwrap());
    });
    // Table V: a 128-byte Text.T round trip (allocation included).
    let iface = parse_interface("DEFINITION MODULE T; PROCEDURE P(t: Text.T); END T.").unwrap();
    let p = iface.procedure("P").unwrap();
    let text = CompiledStub::new(p.name(), Arc::clone(p.plan()));
    let targs = vec![Value::text(&"z".repeat(128))];
    let mut tbuf = vec![0u8; 256];
    r.bench("marshal/text_128_round_trip", None, || {
        let n = text.marshal_call(black_box(&targs), &mut tbuf).unwrap();
        let args = text.unmarshal_call(&tbuf[..n]).unwrap();
        black_box(args.len());
    });
}

/// Table IX analog: interpreted vs compiled stub engines on the same
/// marshalling plan.
fn bench_stub_dispatch(r: &mut Runner) {
    let iface = test_interface();
    let p = iface.procedure("MaxResult").unwrap();
    let comp = CompiledStub::new(p.name(), Arc::clone(p.plan()));
    let interp = InterpStub::new(p.name(), Arc::clone(p.plan()));
    let out = vec![Value::Bytes(vec![0xabu8; 1440])];
    let mut buf = vec![0u8; 1500];
    r.bench("stub_dispatch/compiled", Some(1440), || {
        black_box(comp.marshal_result(black_box(&out), &mut buf).unwrap());
    });
    r.bench("stub_dispatch/interpreted", Some(1440), || {
        black_box(interp.marshal_result(black_box(&out), &mut buf).unwrap());
    });
    let array = vec![0xabu8; 1440];
    r.bench("stub_dispatch/typed", Some(1440), || {
        let mut w = ArgWriter::new(&mut buf);
        w.put_bytes(black_box(&array)).unwrap();
        black_box(w.written());
    });
}

/// The buffer pool's fast path: alloc/free and the recycling path.
fn bench_pool(r: &mut Runner) {
    let pool = BufferPool::new(8);
    r.bench("pool/alloc_free", None, || {
        let buf = pool.alloc().unwrap();
        black_box(&buf);
    });
    r.bench("pool/recycle_take", None, || {
        let buf = pool.take_receive_buffer().unwrap();
        pool.recycle_to_receive_queue(buf);
    });
}

/// End-to-end round trips: local (shared memory) and remote (loopback
/// Ethernet) Null() and MaxResult(b) — the modern Table I row 1.
fn bench_rpc_round_trip(r: &mut Runner) {
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), Config::default()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    let service = ServiceBuilder::new(test_interface())
        .on_call("Null", |_a, _w| Ok(()))
        .on_call("MaxResult", |_a, w| {
            w.next_bytes(1440)?.fill(0);
            Ok(())
        })
        .on_call("MaxArg", |_a, _w| Ok(()))
        .build()
        .unwrap();
    server.export(service).unwrap();
    let remote = caller.bind(&test_interface(), server.address()).unwrap();
    let local = server.bind_local(&test_interface()).unwrap();

    r.bench("rpc_round_trip/remote_null", None, || {
        black_box(remote.call("Null", &[]).unwrap());
    });
    let arg = [Value::char_array(1440)];
    r.bench("rpc_round_trip/remote_max_result", Some(1440), || {
        black_box(remote.call("MaxResult", black_box(&arg)).unwrap());
    });
    r.bench("rpc_round_trip/local_null", None, || {
        black_box(local.call("Null", &[]).unwrap());
    });
    r.bench("rpc_round_trip/local_max_result", Some(1440), || {
        black_box(local.call("MaxResult", black_box(&arg)).unwrap());
    });
}

/// Tracing-is-observability guard: a traced Null() round trip must cost
/// less than 15% more than an untraced one. The trace write path is a
/// handful of `Instant` reads and one ring push per call, so anything
/// above that margin means an allocation or lock crept onto the fast
/// path.
fn bench_trace_overhead(r: &mut Runner) {
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
    let remote = caller.bind(&test_interface(), server.address()).unwrap();
    // Warm the path before either measurement so the comparison is
    // steady state vs steady state.
    for _ in 0..50 {
        remote.call("Null", &[]).unwrap();
    }
    let untraced = r.measure(|| {
        black_box(remote.call("Null", &[]).unwrap());
    });
    caller.set_tracing(true);
    server.set_tracing(true);
    let traced = r.measure(|| {
        black_box(remote.call("Null", &[]).unwrap());
    });
    r.rows
        .push(("rpc_round_trip/null_untraced".to_string(), untraced, None));
    r.rows
        .push(("rpc_round_trip/null_traced".to_string(), traced, None));
    if !r.smoke {
        let overhead = traced / untraced - 1.0;
        assert!(
            overhead < 0.15,
            "traced Null() overhead {:.1}% exceeds the 15% budget \
             (untraced {untraced:.0} ns, traced {traced:.0} ns)",
            overhead * 100.0
        );
    }
}

fn main() {
    let mut r = Runner::new();
    bench_checksum(&mut r);
    bench_frame_build(&mut r);
    bench_frame_parse(&mut r);
    bench_marshal(&mut r);
    bench_stub_dispatch(&mut r);
    bench_pool(&mut r);
    bench_rpc_round_trip(&mut r);
    bench_trace_overhead(&mut r);
    r.report();
}
