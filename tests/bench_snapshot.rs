//! End-to-end checks of the perf-trajectory snapshot (`bench_snapshot`):
//! the document the real UDP stack emits must be valid, all-finite,
//! internally consistent, and byte-stable through the JSON round trip —
//! everything `bench_snapshot --gate` assumes about a BENCH_*.json file.

use firefly_bench::snapshot::{run_snapshot, SnapshotSpec, SCHEMA};
use firefly_metrics::Json;

/// A test-sized run: every section exercised, seconds of wall clock.
fn tiny_spec() -> SnapshotSpec {
    SnapshotSpec {
        latency_calls: 40,
        warmup: 10,
        throughput_threads: 2,
        throughput_calls: 20,
        trace_calls: 40,
        ablation_calls: 30,
        smoke: true,
    }
}

#[test]
fn snapshot_document_is_complete_finite_and_consistent() {
    let doc = run_snapshot(&tiny_spec());

    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
    assert_eq!(doc.get("mode").and_then(Json::as_str), Some("smoke"));
    assert!(
        !doc.contains_null(),
        "a null means a measurement produced inf/NaN"
    );

    // Latency: both paper procedures, percentiles ordered.
    for proc in ["Null", "MaxResult"] {
        let s = doc.at(&["latency_us", proc]).expect("latency section");
        let count = s.at(&["count"]).and_then(Json::as_f64).unwrap();
        assert_eq!(count, 40.0, "{proc} count");
        let min = s.at(&["min"]).and_then(Json::as_f64).unwrap();
        let p50 = s.at(&["p50"]).and_then(Json::as_f64).unwrap();
        let p95 = s.at(&["p95"]).and_then(Json::as_f64).unwrap();
        let p99 = s.at(&["p99"]).and_then(Json::as_f64).unwrap();
        let max = s.at(&["max"]).and_then(Json::as_f64).unwrap();
        assert!(min > 0.0, "{proc}: a loopback RPC takes nonzero time");
        assert!(
            min <= p50 && p50 <= p95 && p95 <= p99 && p99 <= max,
            "{proc}: percentiles out of order: {min} {p50} {p95} {p99} {max}"
        );
    }

    // Throughput: positive rates, data rate consistent with call rate.
    for metric in [
        "single_caller_null_rps",
        "multi_caller_null_rps",
        "multi_caller_maxresult_mbps",
    ] {
        let v = doc.at(&["throughput", metric]).and_then(Json::as_f64);
        assert!(v.unwrap_or(0.0) > 0.0, "throughput.{metric} must be > 0");
    }

    // Trace: the Table VII account ran and explained real time.
    let trace = doc.get("trace").expect("trace section");
    assert_eq!(trace.at(&["procedure"]).and_then(Json::as_str), Some("Null"));
    let measured = trace.at(&["measured_mean_us"]).and_then(Json::as_f64).unwrap();
    let accounted = trace.at(&["accounted_mean_us"]).and_then(Json::as_f64).unwrap();
    assert!(measured > 0.0 && accounted > 0.0);
    for role in ["caller_steps", "server_steps"] {
        let steps = trace.get(role).and_then(Json::as_array).expect("steps");
        assert!(!steps.is_empty(), "{role} must list steps");
        for step in steps {
            assert!(step.at(&["step"]).and_then(Json::as_str).is_some());
            assert!(step.at(&["mean"]).and_then(Json::as_f64).is_some());
        }
    }

    // Ablations: the live §4.2 rows, each with both arms.
    let ablations = doc.get("ablations").and_then(Json::as_array).unwrap();
    assert!(ablations.len() >= 2, "need >= 2 ablation rows");
    let names: Vec<&str> = ablations
        .iter()
        .map(|a| a.at(&["name"]).and_then(Json::as_str).unwrap())
        .collect();
    for required in ["no_checksums", "fragment_blast"] {
        assert!(names.contains(&required), "missing ablation {required}");
    }
    for row in ablations {
        let base = row.at(&["baseline_p50_us"]).and_then(Json::as_f64).unwrap();
        let abl = row.at(&["ablated_p50_us"]).and_then(Json::as_f64).unwrap();
        let saved = row.at(&["saved_us"]).and_then(Json::as_f64).unwrap();
        assert!(base > 0.0 && abl > 0.0);
        assert!((saved - (base - abl)).abs() < 1e-9);
    }

    // Gate metrics: every row carries a finite value and a direction.
    let gate = doc.get("gate_metrics").and_then(Json::as_object).unwrap();
    assert!(gate.len() >= 5, "gate needs a real metric set");
    // The scaling ratio is always measured, but gated only where there
    // are processors for the caller threads to scale onto; where there
    // are not, the snapshot says so instead of silently dropping it.
    let nproc = doc.get("nproc").and_then(Json::as_f64).expect("nproc");
    let threads = doc.at(&["shard_scaling", "threads"]).and_then(Json::as_f64).unwrap();
    assert!(doc.at(&["shard_scaling", "null_scaling_ratio"]).is_some());
    let gated = gate.iter().any(|(name, _)| name == "null_scaling_ratio");
    let declined = doc.at(&["ungated_metrics", "null_scaling_ratio"]).is_some();
    assert_eq!(gated, nproc >= threads, "nproc {nproc}, {threads} caller threads");
    assert_eq!(declined, !gated);
    for (name, metric) in gate {
        let v = metric.at(&["value"]).and_then(Json::as_f64);
        assert!(v.is_some(), "gate metric {name} has no value");
        let dir = metric.at(&["direction"]).and_then(Json::as_str).unwrap();
        assert!(dir == "lower" || dir == "higher", "{name}: {dir}");
    }

    // The document survives emit -> parse -> re-emit byte-identically,
    // so the gate's reading and this writer agree on every value.
    let pretty = doc.to_pretty();
    let reparsed = Json::parse(&pretty).expect("snapshot parses");
    assert_eq!(reparsed.to_pretty(), pretty);
}
