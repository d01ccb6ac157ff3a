//! The repo's performance trajectory: one machine-readable
//! `BENCH_NNNN.json` per measurement run, captured from the *real* RPC
//! stack over loopback UDP (real sockets, real demux threads — not the
//! discrete-event simulator the `tableN` binaries use for paper-hardware
//! numbers).
//!
//! Each snapshot carries four sections, mirroring how the paper reports
//! its own numbers:
//!
//! * `latency_us` — Null() and MaxResult round-trip histogram summaries
//!   (count/mean/min/max/p50/p95/p99), the Table I latency analog;
//! * `throughput` — single-caller and multi-caller call rates plus the
//!   MaxResult data rate, the Table I throughput analog;
//! * `trace` — the per-step Table VII account from `firefly_rpc::trace`,
//!   with accounted-vs-measured coverage;
//! * `ablations` — live measured §4.2 what-ifs (checksums off, fragment
//!   blasting), baseline and ablated side by side.
//!
//! `gate_metrics` flattens the headline numbers into
//! `name → {value, direction, unit}` rows so the gate ([`crate::gate`]) can
//! diff consecutive snapshots with the paper's ±10% discipline without
//! re-deriving paths into the nested sections. The schema is documented
//! in `docs/BENCH.md`.

use firefly_idl::{parse_interface, test_interface, Value};
use firefly_metrics::{Histogram, Json, Stopwatch};
use firefly_rpc::transport::UdpTransport;
use firefly_rpc::{Client, Config, Endpoint, ServiceBuilder};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Schema identifier stamped into every snapshot; bump on breaking
/// changes so the gate can refuse cross-schema comparisons.
pub const SCHEMA: &str = "firefly-bench-snapshot/1";

/// Snapshots are numbered from the PR that introduced them, so the
/// first file a fresh checkout writes is `BENCH_0006.json` even though
/// no earlier snapshot exists.
pub const FIRST_NUMBER: u32 = 6;

/// Payload bytes of one MaxResult call (the paper's maximum single
/// packet result).
const MAX_RESULT_BYTES: usize = 1440;

/// Work sizes for one snapshot run.
#[derive(Debug, Clone)]
pub struct SnapshotSpec {
    /// Timed calls per latency histogram.
    pub latency_calls: usize,
    /// Untimed calls before every measured section.
    pub warmup: usize,
    /// Caller threads in the multi-caller throughput section.
    pub throughput_threads: usize,
    /// Calls per caller thread in each throughput section.
    pub throughput_calls: usize,
    /// Traced calls for the per-step account.
    pub trace_calls: usize,
    /// Timed calls per ablation arm (baseline and ablated each run this
    /// many).
    pub ablation_calls: usize,
    /// Marks the snapshot as a smoke run (CI-budget sizes). Smoke
    /// snapshots are never comparable to full ones, and the gate
    /// refuses to try.
    pub smoke: bool,
}

impl SnapshotSpec {
    /// The real measurement run.
    pub fn full() -> SnapshotSpec {
        SnapshotSpec {
            latency_calls: 2000,
            warmup: 200,
            throughput_threads: 4,
            // Long enough per thread that the multi-caller sections
            // measure the steady-state wave pipeline (coalesced results
            // waking the next round of combined calls), not the ramp:
            // at 4x500 the ramp is ~25% of the window.
            throughput_calls: 2000,
            trace_calls: 500,
            ablation_calls: 400,
            smoke: false,
        }
    }

    /// A seconds-scale run for `verify.sh`: same code paths, CI-sized
    /// counts.
    pub fn smoke() -> SnapshotSpec {
        SnapshotSpec {
            latency_calls: 150,
            warmup: 30,
            throughput_threads: 4,
            throughput_calls: 60,
            trace_calls: 120,
            ablation_calls: 80,
            smoke: true,
        }
    }
}

/// A server/caller endpoint pair over real localhost UDP sockets,
/// serving the paper's test interface (Null/MaxResult/MaxArg).
fn udp_pair(config: Config) -> (Arc<Endpoint>, Arc<Endpoint>, Client) {
    let server = Endpoint::new(
        UdpTransport::localhost().expect("server socket"),
        config.clone(),
    )
    .expect("server endpoint");
    let caller = Endpoint::new(UdpTransport::localhost().expect("caller socket"), config)
        .expect("caller endpoint");
    let service = ServiceBuilder::new(test_interface())
        .on_call("Null", |_a, _w| Ok(()))
        .on_call("MaxResult", |_a, w| {
            w.next_bytes(MAX_RESULT_BYTES)?.fill(0xab);
            Ok(())
        })
        .on_call("MaxArg", |_a, _w| Ok(()))
        .build()
        .expect("test service");
    server.export(service).expect("export");
    let client = caller
        .bind(&test_interface(), server.address())
        .expect("bind");
    (server, caller, client)
}

/// Same, serving an echo interface whose `Blob` procedure reflects
/// arbitrary-size byte arrays — the multi-fragment workload for the
/// fragment-blast ablation.
fn echo_pair(config: Config) -> (Arc<Endpoint>, Arc<Endpoint>, Client) {
    let iface = parse_interface(
        "DEFINITION MODULE Echo;
           PROCEDURE Blob(VAR IN data: ARRAY OF CHAR; VAR OUT copy: ARRAY OF CHAR);
         END Echo.",
    )
    .expect("echo interface");
    let server = Endpoint::new(
        UdpTransport::localhost().expect("server socket"),
        config.clone(),
    )
    .expect("server endpoint");
    let caller = Endpoint::new(UdpTransport::localhost().expect("caller socket"), config)
        .expect("caller endpoint");
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Blob", |args, w| {
            let data = args[0].bytes().unwrap();
            w.next_bytes(data.len())?.copy_from_slice(data);
            Ok(())
        })
        .build()
        .expect("echo service");
    server.export(service).expect("export");
    let client = caller.bind(&iface, server.address()).expect("bind");
    (server, caller, client)
}

/// One procedure's workload: name plus the argument vector every call
/// carries.
#[derive(Clone)]
struct Workload {
    procedure: &'static str,
    args: Vec<Value>,
}

impl Workload {
    fn null() -> Workload {
        Workload {
            procedure: "Null",
            args: Vec::new(),
        }
    }

    fn max_result() -> Workload {
        Workload {
            procedure: "MaxResult",
            args: vec![Value::char_array(MAX_RESULT_BYTES)],
        }
    }

    fn blob(bytes: usize) -> Workload {
        let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
        Workload {
            procedure: "Blob",
            args: vec![Value::Bytes(data), Value::Bytes(Vec::new())],
        }
    }
}

/// Runs `warmup + calls` calls and returns a µs round-trip histogram of
/// the timed ones.
fn measure_latency(client: &Client, work: &Workload, calls: usize, warmup: usize) -> Histogram {
    for _ in 0..warmup {
        client.call(work.procedure, &work.args).expect("warmup call");
    }
    let mut hist = Histogram::new();
    for _ in 0..calls {
        let w = Stopwatch::start();
        client.call(work.procedure, &work.args).expect("timed call");
        hist.record(w.elapsed_micros());
    }
    hist
}

/// Drives `threads` caller threads through `calls` calls each over one
/// shared client and returns aggregate calls per second.
///
/// All caller threads rendezvous on a barrier before the clock starts,
/// so the timed window covers calls only — on a loaded box, spawning a
/// scoped thread costs a sizable fraction of a millisecond, which would
/// otherwise tax the multi-caller sections `threads` times more than
/// the single-caller one.
fn measure_throughput(client: &Client, work: &Workload, threads: usize, calls: usize) -> f64 {
    let start = std::sync::Barrier::new(threads + 1);
    let micros = std::thread::scope(|scope| {
        for _ in 0..threads {
            let client = client.clone();
            let work = work.clone();
            let start = &start;
            scope.spawn(move || {
                start.wait();
                for _ in 0..calls {
                    client
                        .call(work.procedure, &work.args)
                        .expect("throughput call");
                }
            });
        }
        start.wait();
        // `thread::scope` joins every caller before returning, so the
        // stopwatch handed out here is read only after the last call
        // completes.
        Stopwatch::start()
    })
    .elapsed_micros();
    let secs = micros / 1e6;
    if secs > 0.0 {
        (threads * calls) as f64 / secs
    } else {
        0.0
    }
}

/// Renders one role's per-step histograms as a JSON array of
/// `{step, count, mean, …}` rows.
fn steps_json(steps: &[(&'static str, Histogram)]) -> Json {
    Json::Arr(
        steps
            .iter()
            .map(|(name, h)| {
                let mut row = Json::obj().set("step", Json::Str((*name).to_string()));
                if let Json::Obj(fields) = h.summary().to_json() {
                    for (k, v) in fields {
                        row = row.set(&k, v);
                    }
                }
                row
            })
            .collect(),
    )
}

/// The Table VII section: a traced Null() run over UDP with the
/// accounted-vs-measured comparison.
fn measure_trace(spec: &SnapshotSpec) -> Json {
    let config = Config {
        trace: true,
        trace_capacity: spec.trace_calls + spec.warmup + 64,
        ..Config::default()
    };
    let (server, caller, client) = udp_pair(config);
    let work = Workload::null();
    for _ in 0..spec.warmup {
        client.call(work.procedure, &work.args).expect("warmup");
    }
    // The server's record lands just after it sends the result; give the
    // last warmup record a moment before discarding, as run_account does.
    for _ in 0..10_000 {
        if server.tracer().recorded() >= spec.warmup as u64 {
            break;
        }
        std::thread::yield_now();
    }
    caller.tracer().drain(|_| {});
    server.tracer().drain(|_| {});

    let mut measured_sum = 0.0;
    for _ in 0..spec.trace_calls {
        let w = Stopwatch::start();
        client.call(work.procedure, &work.args).expect("traced call");
        measured_sum += w.elapsed_micros();
    }
    for _ in 0..10_000 {
        if server.tracer().recorded() >= (spec.warmup + spec.trace_calls) as u64 {
            break;
        }
        std::thread::yield_now();
    }
    let caller_report = caller.trace_report();
    let server_report = server.trace_report();

    let measured_mean = measured_sum / spec.trace_calls.max(1) as f64;
    let accounted_mean = caller_report.caller.accounted_mean_us();
    let coverage = if measured_mean > 0.0 {
        accounted_mean / measured_mean
    } else {
        0.0
    };
    Json::obj()
        .set("procedure", Json::Str(work.procedure.to_string()))
        .set("calls", Json::num(spec.trace_calls as f64))
        .set("measured_mean_us", Json::num(measured_mean))
        .set("accounted_mean_us", Json::num(accounted_mean))
        .set("coverage", Json::num(coverage))
        .set("caller_steps", steps_json(&caller_report.caller.steps))
        .set("server_steps", steps_json(&server_report.server.steps))
}

/// One §4.2 ablation: the same workload under the baseline and ablated
/// configs, p50s side by side.
fn measure_ablation(
    name: &str,
    section: &str,
    work: &Workload,
    baseline_cfg: Config,
    ablated_cfg: Config,
    spec: &SnapshotSpec,
) -> Json {
    let run = |cfg: Config| {
        let (_server, _caller, client) = if work.procedure == "Blob" {
            echo_pair(cfg)
        } else {
            udp_pair(cfg)
        };
        measure_latency(&client, work, spec.ablation_calls, spec.warmup)
    };
    let baseline = run(baseline_cfg);
    let ablated = run(ablated_cfg);
    let saved = baseline.percentile(50.0) - ablated.percentile(50.0);
    Json::obj()
        .set("name", Json::Str(name.to_string()))
        .set("section", Json::Str(section.to_string()))
        .set("procedure", Json::Str(work.procedure.to_string()))
        .set("calls", Json::num(spec.ablation_calls as f64))
        .set("baseline_p50_us", Json::num(baseline.percentile(50.0)))
        .set("ablated_p50_us", Json::num(ablated.percentile(50.0)))
        .set("saved_us", Json::num(saved))
        .set("baseline", baseline.summary().to_json())
        .set("ablated", ablated.summary().to_json())
}

/// One flat gate row.
fn gate_metric(value: f64, direction: &str, unit: &str) -> Json {
    Json::obj()
        .set("value", Json::num(value))
        .set("direction", Json::Str(direction.to_string()))
        .set("unit", Json::Str(unit.to_string()))
}

/// Runs every section and assembles the snapshot document.
pub fn run_snapshot(spec: &SnapshotSpec) -> Json {
    // Latency histograms, one endpoint pair for both procedures.
    let (_server, _caller, client) = udp_pair(Config::default());
    let null_hist = measure_latency(&client, &Workload::null(), spec.latency_calls, spec.warmup);
    let max_hist = measure_latency(
        &client,
        &Workload::max_result(),
        spec.latency_calls,
        spec.warmup,
    );

    // Throughput: single caller, then the multi-caller scope, then the
    // MaxResult data rate (Table I's Mb/s column).
    let single_rps = measure_throughput(
        &client,
        &Workload::null(),
        1,
        spec.throughput_calls * spec.throughput_threads,
    );
    let multi_rps = measure_throughput(
        &client,
        &Workload::null(),
        spec.throughput_threads,
        spec.throughput_calls,
    );
    let max_rps = measure_throughput(
        &client,
        &Workload::max_result(),
        spec.throughput_threads,
        spec.throughput_calls,
    );
    let max_mbps = max_rps * (MAX_RESULT_BYTES * 8) as f64 / 1e6;

    // Shard scaling: how much aggregate Null throughput the sharded
    // runtime (per-shard call table and pool, per-worker queues,
    // batched transport) adds when concurrent callers are offered, as
    // the N-thread/1-thread rps ratio. On a multi-core host this
    // measures parallel speedup across shards; on one core it measures
    // how far batching amortizes the per-call fixed costs (syscalls,
    // wakeups) that a lone caller pays serially.
    let scaling_ratio = if single_rps > 0.0 {
        multi_rps / single_rps
    } else {
        0.0
    };

    let trace = measure_trace(spec);

    let ablations = Json::Arr(vec![
        measure_ablation(
            "no_checksums",
            "4.2.4",
            &Workload::max_result(),
            Config::default(),
            Config::without_checksums(),
            spec,
        ),
        measure_ablation(
            "fragment_blast",
            "4.2.5",
            &Workload::blob(4 * MAX_RESULT_BYTES),
            Config::default(),
            Config::batched_fragments(),
            spec,
        ),
    ]);

    // The scaling ratio compares N caller threads with one; with fewer
    // processors than caller threads it measures batching amortization,
    // not scaling, so it is recorded (`shard_scaling`) but not gated.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gate_scaling = nproc >= spec.throughput_threads;

    let mut gate = Json::obj()
        .set(
            "null_p50_us",
            gate_metric(null_hist.percentile(50.0), "lower", "us"),
        )
        .set(
            "null_p95_us",
            gate_metric(null_hist.percentile(95.0), "lower", "us"),
        )
        .set(
            "null_p99_us",
            gate_metric(null_hist.percentile(99.0), "lower", "us"),
        )
        .set(
            "maxresult_p50_us",
            gate_metric(max_hist.percentile(50.0), "lower", "us"),
        )
        .set(
            "single_caller_null_rps",
            gate_metric(single_rps, "higher", "calls/s"),
        )
        .set(
            "multi_caller_null_rps",
            gate_metric(multi_rps, "higher", "calls/s"),
        )
        .set(
            "multi_caller_maxresult_mbps",
            gate_metric(max_mbps, "higher", "Mb/s"),
        );
    let mut ungated = Json::obj();
    if gate_scaling {
        gate = gate.set(
            "null_scaling_ratio",
            gate_metric(scaling_ratio, "higher", "x"),
        );
    } else {
        ungated = ungated.set(
            "null_scaling_ratio",
            Json::Str(format!(
                "nproc {nproc} < {} caller threads",
                spec.throughput_threads
            )),
        );
    }

    Json::obj()
        .set("schema", Json::Str(SCHEMA.to_string()))
        .set(
            "mode",
            Json::Str(if spec.smoke { "smoke" } else { "full" }.to_string()),
        )
        .set("nproc", Json::num(nproc as f64))
        .set(
            "spec",
            Json::obj()
                .set("latency_calls", Json::num(spec.latency_calls as f64))
                .set("warmup", Json::num(spec.warmup as f64))
                .set(
                    "throughput_threads",
                    Json::num(spec.throughput_threads as f64),
                )
                .set("throughput_calls", Json::num(spec.throughput_calls as f64))
                .set("trace_calls", Json::num(spec.trace_calls as f64))
                .set("ablation_calls", Json::num(spec.ablation_calls as f64)),
        )
        .set(
            "latency_us",
            Json::obj()
                .set("Null", null_hist.summary().to_json())
                .set("MaxResult", max_hist.summary().to_json()),
        )
        .set(
            "throughput",
            Json::obj()
                .set("single_caller_null_rps", Json::num(single_rps))
                .set("multi_caller_null_rps", Json::num(multi_rps))
                .set(
                    "multi_caller_threads",
                    Json::num(spec.throughput_threads as f64),
                )
                .set("multi_caller_maxresult_mbps", Json::num(max_mbps)),
        )
        .set(
            "shard_scaling",
            Json::obj()
                .set("threads", Json::num(spec.throughput_threads as f64))
                .set("single_caller_null_rps", Json::num(single_rps))
                .set("multi_caller_null_rps", Json::num(multi_rps))
                .set("null_scaling_ratio", Json::num(scaling_ratio)),
        )
        .set("trace", trace)
        .set("ablations", ablations)
        .set("gate_metrics", gate)
        .set("ungated_metrics", ungated)
}

/// Parses `BENCH_NNNN.json` file names; returns the number.
pub fn parse_snapshot_number(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
    if digits.len() != 4 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The path the next snapshot in `dir` should be written to: one past
/// the highest existing `BENCH_NNNN.json`, but never below
/// [`FIRST_NUMBER`].
pub fn next_snapshot_path(dir: &Path) -> PathBuf {
    let mut max = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Some(n) = parse_snapshot_number(&entry.file_name().to_string_lossy()) {
                max = max.max(n);
            }
        }
    }
    dir.join(format!("BENCH_{:04}.json", (max + 1).max(FIRST_NUMBER)))
}

/// Writes `text` to `path` atomically (write a sibling temp file, then
/// rename), so a crashed or interrupted run never leaves a torn
/// snapshot for the gate to trip over.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_numbering() {
        assert_eq!(parse_snapshot_number("BENCH_0006.json"), Some(6));
        assert_eq!(parse_snapshot_number("BENCH_0123.json"), Some(123));
        assert_eq!(parse_snapshot_number("BENCH_6.json"), None);
        assert_eq!(parse_snapshot_number("BENCH_00061.json"), None);
        assert_eq!(parse_snapshot_number("bench_0006.json"), None);
        assert_eq!(parse_snapshot_number("BENCH_0006.json.tmp"), None);
    }

    #[test]
    fn next_path_bootstraps_at_first_number() {
        let dir = std::env::temp_dir().join("firefly-bench-numbering-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let first = next_snapshot_path(&dir);
        assert!(first.ends_with("BENCH_0006.json"), "{first:?}");
        std::fs::write(dir.join("BENCH_0011.json"), "{}").unwrap();
        let next = next_snapshot_path(&dir);
        assert!(next.ends_with("BENCH_0012.json"), "{next:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_content() {
        let dir = std::env::temp_dir().join("firefly-bench-atomic-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_0006.json");
        write_atomic(&path, "{\"a\": 1}\n").unwrap();
        write_atomic(&path, "{\"a\": 2}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\": 2}\n");
        assert!(!dir.join("BENCH_0006.json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
