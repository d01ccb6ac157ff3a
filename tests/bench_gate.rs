//! `bench_snapshot --gate` behaves as the trajectory contract
//! (docs/BENCH.md) promises: bootstrap passes, in-tolerance drift
//! passes, a >10% regression fails loudly, the µs noise floor absorbs
//! scheduler jitter on tiny latencies, non-finite snapshots are
//! rejected, and --check mode reports without failing.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `bench_snapshot --gate` with FIREFLY_BENCH_DIR pointed at `dir`.
fn run_gate(dir: &std::path::Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    // The binary belongs to the firefly-bench package, so cargo exposes
    // no CARGO_BIN_EXE_ variable here; `cargo run` is the portable way
    // to reach it (as tests/lint.rs reaches firefly-lint).
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(cargo);
    cmd.args(["run", "--offline", "-q", "-p", "firefly-bench", "--bin", "bench_snapshot", "--"])
        .arg("--gate")
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env("FIREFLY_BENCH_DIR", dir);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("bench_snapshot --gate runs")
}

fn text(out: &Output) -> String {
    format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// A minimal but schema-complete snapshot. `null_p50` and `rps` are the
/// two gate metrics the tests doctor.
fn snapshot_json(null_p50: f64, rps: f64) -> String {
    let ablation = |name: &str, section: &str| {
        format!(
            r#"{{"name": "{name}", "section": "{section}", "procedure": "Null",
                 "calls": 10, "baseline_p50_us": 12.0, "ablated_p50_us": 11.0,
                 "saved_us": 1.0}}"#
        )
    };
    format!(
        r#"{{
  "schema": "firefly-bench-snapshot/1",
  "mode": "full",
  "latency_us": {{"Null": {{"p50": {null_p50}}}, "MaxResult": {{"p50": 13.0}}}},
  "throughput": {{"single_caller_null_rps": {rps}}},
  "trace": {{"procedure": "Null", "measured_mean_us": 14.0, "accounted_mean_us": 13.5}},
  "ablations": [{a}, {b}],
  "gate_metrics": {{
    "null_p50_us": {{"value": {null_p50}, "direction": "lower", "unit": "us"}},
    "single_caller_null_rps": {{"value": {rps}, "direction": "higher", "unit": "calls/s"}}
  }}
}}"#,
        a = ablation("no_checksums", "4.2.4"),
        b = ablation("fragment_blast", "4.2.5"),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("firefly-bench-gate-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_snapshot(dir: &std::path::Path, number: u32, content: &str) {
    std::fs::write(dir.join(format!("BENCH_{number:04}.json")), content).unwrap();
}

#[test]
fn bootstrap_with_no_snapshots_passes() {
    let dir = temp_dir("bootstrap-empty");
    let out = run_gate(&dir, &[], &[]);
    assert!(out.status.success(), "{}", text(&out));
    assert!(text(&out).contains("bootstrap"));
}

#[test]
fn bootstrap_with_one_snapshot_passes() {
    let dir = temp_dir("bootstrap-one");
    write_snapshot(&dir, 6, &snapshot_json(12.0, 60000.0));
    let out = run_gate(&dir, &[], &[]);
    assert!(out.status.success(), "{}", text(&out));
    assert!(text(&out).contains("bootstrap"));
}

#[test]
fn latency_regression_beyond_tolerance_fails() {
    let dir = temp_dir("latency-regression");
    write_snapshot(&dir, 6, &snapshot_json(100.0, 60000.0));
    write_snapshot(&dir, 7, &snapshot_json(130.0, 60000.0)); // +30%, above any floor
    let out = run_gate(&dir, &[], &[]);
    assert!(!out.status.success(), "gate must fail: {}", text(&out));
    let t = text(&out);
    assert!(t.contains("REGRESSED"), "{t}");
    assert!(t.contains("null_p50_us"), "{t}");
}

#[test]
fn throughput_regression_beyond_tolerance_fails() {
    let dir = temp_dir("throughput-regression");
    write_snapshot(&dir, 6, &snapshot_json(12.0, 60000.0));
    write_snapshot(&dir, 7, &snapshot_json(12.0, 40000.0)); // -33%
    let out = run_gate(&dir, &[], &[]);
    assert!(!out.status.success(), "gate must fail: {}", text(&out));
    assert!(text(&out).contains("single_caller_null_rps"));
}

#[test]
fn drift_within_tolerance_passes() {
    let dir = temp_dir("within-tolerance");
    write_snapshot(&dir, 6, &snapshot_json(100.0, 60000.0));
    write_snapshot(&dir, 7, &snapshot_json(105.0, 57500.0)); // +5% / -4%
    let out = run_gate(&dir, &[], &[]);
    assert!(out.status.success(), "{}", text(&out));
    assert!(text(&out).contains("no metric regressed"));
}

#[test]
fn noise_floor_absorbs_tiny_latency_jitter() {
    // +33% relative, but only 4 µs absolute: under the default 5 µs
    // floor this is scheduler noise on a loopback RTT, not a regression.
    let dir = temp_dir("noise-floor");
    write_snapshot(&dir, 6, &snapshot_json(12.0, 60000.0));
    write_snapshot(&dir, 7, &snapshot_json(16.0, 60000.0));
    let out = run_gate(&dir, &[], &[]);
    assert!(out.status.success(), "{}", text(&out));
    // With the floor zeroed the same jitter fails.
    let out = run_gate(&dir, &[], &[("FIREFLY_BENCH_NOISE_US", "0")]);
    assert!(!out.status.success(), "{}", text(&out));
}

#[test]
fn tolerance_is_configurable() {
    let dir = temp_dir("tolerance-env");
    write_snapshot(&dir, 6, &snapshot_json(100.0, 60000.0));
    write_snapshot(&dir, 7, &snapshot_json(108.0, 60000.0)); // +8%
    let out = run_gate(&dir, &[], &[("FIREFLY_BENCH_TOLERANCE_PCT", "5")]);
    assert!(!out.status.success(), "+8% must fail a ±5% gate: {}", text(&out));
}

#[test]
fn new_metric_in_candidate_bootstraps_instead_of_erroring() {
    // A newer snapshot may introduce a gate metric its predecessor
    // never measured (the shard-scaling ratio arrived this way). The
    // gate must report it as a bootstrap row and keep gating the
    // shared metrics — not error out or treat it as a regression.
    let dir = temp_dir("new-metric-bootstrap");
    write_snapshot(&dir, 6, &snapshot_json(12.0, 60000.0));
    let with_ratio = snapshot_json(12.0, 60000.0).replace(
        r#""single_caller_null_rps": {"value": 60000, "direction": "higher", "unit": "calls/s"}"#,
        r#""single_caller_null_rps": {"value": 60000, "direction": "higher", "unit": "calls/s"},
    "null_scaling_ratio": {"value": 2.1, "direction": "higher", "unit": "x"}"#,
    );
    write_snapshot(&dir, 7, &with_ratio);
    let out = run_gate(&dir, &[], &[]);
    assert!(out.status.success(), "{}", text(&out));
    let t = text(&out);
    assert!(t.contains("null_scaling_ratio"), "{t}");
    assert!(t.contains("NEW (bootstrap)"), "{t}");
    assert!(t.contains("no metric regressed"), "{t}");
    // The reverse direction is still a hard failure: a metric that
    // disappears from the trajectory is a regression, not a bootstrap.
    let dir = temp_dir("metric-vanishes");
    write_snapshot(&dir, 6, &with_ratio);
    write_snapshot(&dir, 7, &snapshot_json(12.0, 60000.0));
    let out = run_gate(&dir, &[], &[]);
    assert!(!out.status.success(), "{}", text(&out));
    assert!(text(&out).contains("MISSING"), "{}", text(&out));
    // ... unless the snapshot itself declines to gate it and says why
    // (the scaling ratio on a host with fewer processors than caller
    // threads).
    let declined = snapshot_json(12.0, 60000.0).replace(
        r#""gate_metrics": {"#,
        r#""ungated_metrics": {"null_scaling_ratio": "nproc 2 < 4 caller threads"},
  "gate_metrics": {"#,
    );
    write_snapshot(&dir, 7, &declined);
    let out = run_gate(&dir, &[], &[]);
    assert!(out.status.success(), "{}", text(&out));
    assert!(text(&out).contains("not gated (nproc 2 < 4 caller threads)"), "{}", text(&out));
}

#[test]
fn check_mode_reports_regressions_without_failing() {
    let dir = temp_dir("check-mode");
    write_snapshot(&dir, 6, &snapshot_json(100.0, 60000.0));
    write_snapshot(&dir, 7, &snapshot_json(130.0, 60000.0));
    let out = run_gate(&dir, &["--check"], &[]);
    assert!(out.status.success(), "{}", text(&out));
    assert!(text(&out).contains("WARNING"));
}

#[test]
fn non_finite_snapshot_is_rejected() {
    let dir = temp_dir("non-finite");
    let doctored = snapshot_json(12.0, 60000.0).replace("\"p50\": 13.0", "\"p50\": null");
    write_snapshot(&dir, 6, &doctored);
    let out = run_gate(&dir, &[], &[]);
    assert!(!out.status.success(), "{}", text(&out));
    assert!(text(&out).contains("non-finite"));
}

#[test]
fn invalid_schema_and_short_ablations_are_rejected() {
    let dir = temp_dir("bad-schema");
    let wrong = snapshot_json(12.0, 60000.0).replace("firefly-bench-snapshot/1", "something/9");
    write_snapshot(&dir, 6, &wrong);
    let out = run_gate(&dir, &[], &[]);
    assert!(!out.status.success(), "{}", text(&out));

    let dir = temp_dir("short-ablations");
    let mut doc = snapshot_json(12.0, 60000.0);
    let start = doc.find("\"ablations\"").unwrap();
    let end = doc[start..].find("],").unwrap() + start;
    doc.replace_range(start..end + 2, "\"ablations\": [],");
    write_snapshot(&dir, 6, &doc);
    let out = run_gate(&dir, &[], &[]);
    assert!(!out.status.success(), "{}", text(&out));
    assert!(text(&out).contains("ablation"));
}

#[test]
fn smoke_and_full_snapshots_are_never_compared() {
    let dir = temp_dir("mode-mismatch");
    let smoke = snapshot_json(100.0, 60000.0).replace("\"mode\": \"full\"", "\"mode\": \"smoke\"");
    write_snapshot(&dir, 6, &smoke);
    write_snapshot(&dir, 7, &snapshot_json(500.0, 10.0)); // wildly different, but no smoke baseline
    let out = run_gate(&dir, &[], &[]);
    assert!(out.status.success(), "{}", text(&out));
    assert!(text(&out).contains("bootstrap"));
}

#[test]
fn usage_errors_exit_2() {
    let dir = temp_dir("usage");
    let out = run_gate(&dir, &["a.json", "b.json"], &[]);
    assert_eq!(out.status.code(), Some(2), "{}", text(&out));
    let out = run_gate(&dir, &[], &[("FIREFLY_BENCH_TOLERANCE_PCT", "ten")]);
    assert_eq!(out.status.code(), Some(2), "{}", text(&out));
    assert!(text(&out).contains("FIREFLY_BENCH_TOLERANCE_PCT"), "{}", text(&out));
}
