//! The performance ledger (docs/BENCH.md): `gate::compare` holds a
//! snapshot against its predecessor under `BENCHMARK.json`, checked here
//! on typed values; `firefly-bench gate` and `firefly-bench snapshot`
//! are each run once as processes; and the committed newest
//! `BENCH_NNNN.json` must carry the whole account.

use firefly_bench::gate::{self, compare, Report};
use firefly_bench::snapshot::{read_json, trajectory, PASSES};
use firefly_metrics::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn contract() -> Json {
    read_json(&root().join("BENCHMARK.json")).expect("BENCHMARK.json")
}

/// One pass of one workload, as a value the cases below doctor.
#[derive(Clone)]
struct Run {
    correct: bool,
    failed: f64,
    metrics: Vec<(&'static str, Option<f64>)>,
}

impl Run {
    fn new(metrics: &[(&'static str, f64)]) -> Run {
        let metrics = metrics.iter().map(|(name, v)| (*name, Some(*v))).collect();
        Run {
            correct: true,
            failed: 0.0,
            metrics,
        }
    }

    fn render(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, value) in &self.metrics {
            let value = value.map_or(Json::Null, Json::num);
            let metric = Json::obj().set("value", value);
            metrics = metrics.set(name, metric.set("unit", Json::str("x")));
        }
        Json::obj()
            .set("correct", Json::Bool(self.correct))
            .set("attempted", Json::num(1e6))
            .set("failed", Json::num(self.failed))
            .set("metrics", metrics)
    }
}

/// Each workload with its `end_to_end` pass; rendered in the shape the
/// contract command prints.
#[derive(Clone)]
struct Snapshot(Vec<(&'static str, Run)>);

impl Snapshot {
    fn baseline() -> Snapshot {
        let run = |rate: f64, p50: f64| {
            Run::new(&[
                ("call_rate", rate),
                ("latency_p50_us", p50),
                ("cpu_us_per_call", 2.0 * p50),
                ("rss_peak_mb", 4.7),
                ("setup_s", 2e-4),
            ])
        };
        Snapshot(vec![
            ("null_1c", run(120e3, 7.4)),
            ("maxresult_1c", run(110e3, 8.1)),
            ("blob_4f_1c", run(16e3, 55.0)),
            ("local_args", run(4e6, 0.2)),
            ("null_2c", run(130e3, 13.0)), // not in BENCHMARK.json
        ])
    }

    fn run(&mut self, workload: &str) -> &mut Run {
        let entry = self.0.iter_mut().find(|(name, _)| *name == workload);
        &mut entry.expect("a workload of the baseline").1
    }

    /// Multiplies one metric of one workload by `factor`.
    fn scale(&mut self, workload: &str, metric: &str, factor: f64) {
        let metrics = &mut self.run(workload).metrics;
        let value = metrics.iter_mut().find(|(name, _)| *name == metric);
        let value = &mut value.expect("a metric of the baseline").1;
        *value = value.map(|v| v * factor);
    }

    fn render(&self) -> Json {
        let per_layer = Run::new(&[("account.layers_sum_us", 6.9)]).render();
        let info = Json::obj().set("seed", Json::num(1.0));
        let mut workloads = Json::obj();
        for (name, run) in &self.0 {
            let entry = Json::obj()
                .set("end_to_end", run.render())
                .set("end_to_end_info", info.clone())
                .set("per_layer", per_layer.clone())
                .set("per_layer_info", info.clone())
                .set("in_contract", Json::Bool(*name != "null_2c"));
            workloads = workloads.set(name, entry);
        }
        Json::obj()
            .set("claim", Json::Null)
            .set("run_seconds", Json::num(30.0))
            .set("workloads", workloads)
    }
}

/// The baseline, `edit`ed, held against the baseline.
fn gated(edit: impl FnOnce(&mut Snapshot)) -> Report {
    let (previous, mut candidate) = (Snapshot::baseline(), Snapshot::baseline());
    edit(&mut candidate);
    compare(Some(&previous.render()), &candidate.render(), &contract())
}

fn verdict<'a>(report: &'a Report, workload: &str, metric: &str) -> &'a str {
    let named = |r: &&gate::Row| r.workload == workload && r.metric == metric;
    let row = report.rows.iter().find(named);
    row.unwrap_or_else(|| panic!("no row {workload} {metric}"))
        .verdict
}

const NO_FAILURE: [&str; 0] = [];

#[test]
fn a_snapshot_without_a_predecessor_bootstraps() {
    let report = compare(None, &Snapshot::baseline().render(), &contract());
    assert_eq!(report.failures, NO_FAILURE);
    // Five metrics for each of the four contract workloads and the
    // information-only one.
    assert_eq!(report.rows.len(), 25, "{report}");
    assert_eq!(verdict(&report, "null_1c", "call_rate"), "new");
    let fresh = |r: &gate::Row| r.previous.is_none() && r.candidate.is_some();
    assert!(report.rows.iter().all(fresh), "{report}");
}

#[test]
fn drift_inside_the_bounds_passes() {
    let report = gated(|s| {
        s.scale("null_1c", "call_rate", 0.9);
        s.scale("null_1c", "latency_p50_us", 1.1);
        s.scale("blob_4f_1c", "cpu_us_per_call", 1.2);
        s.scale("local_args", "setup_s", 1.24);
    });
    assert_eq!(report.failures, NO_FAILURE);
    assert_eq!(verdict(&report, "null_1c", "call_rate"), "ok");
    assert!(report.to_string().contains("bench gate: OK"), "{report}");
}

#[test]
fn call_rate_down_thirty_percent_fails_and_twenty_passes() {
    let cut = |factor| gated(|s| s.scale("maxresult_1c", "call_rate", factor));
    // The bound is the one BENCHMARK.json gives the metric.
    let named = ["maxresult_1c call_rate REGRESSED (bound 25%)"];
    assert_eq!(cut(0.7).failures, named);
    assert_eq!(cut(0.8).failures, NO_FAILURE);
}

#[test]
fn a_metric_is_held_in_its_own_direction() {
    // Lower is better for latency: +30 % fails, −30 % is an improvement;
    // a call rate that rises 30 % is one too.
    let slower = gated(|s| s.scale("blob_4f_1c", "latency_p50_us", 1.3));
    let named = ["blob_4f_1c latency_p50_us REGRESSED (bound 25%)"];
    assert_eq!(slower.failures, named);
    let faster = gated(|s| {
        s.scale("blob_4f_1c", "latency_p50_us", 0.7);
        s.scale("blob_4f_1c", "call_rate", 1.3);
    });
    assert_eq!(faster.failures, NO_FAILURE);
    assert_eq!(verdict(&faster, "blob_4f_1c", "latency_p50_us"), "improved");
    assert_eq!(verdict(&faster, "blob_4f_1c", "call_rate"), "improved");
}

#[test]
fn resident_memory_is_held_to_its_own_tighter_bound() {
    let grown = |factor| gated(|s| s.scale("local_args", "rss_peak_mb", factor));
    let named = ["local_args rss_peak_mb REGRESSED (bound 15%)"];
    assert_eq!(grown(1.2).failures, named);
    assert_eq!(grown(1.1).failures, NO_FAILURE);
}

#[test]
fn a_vanished_workload_fails() {
    let report = gated(|s| s.0.retain(|(name, _)| *name != "blob_4f_1c"));
    assert_eq!(report.failures, ["blob_4f_1c vanished"]);
}

#[test]
fn a_vanished_metric_fails() {
    let gone = |(name, _): &(&str, _)| *name != "cpu_us_per_call";
    let report = gated(|s| s.run("null_1c").metrics.retain(gone));
    let named = ["null_1c cpu_us_per_call MISSING (bound 25%)"];
    assert_eq!(report.failures, named);
}

#[test]
fn a_null_fails_even_without_a_predecessor() {
    let mut candidate = Snapshot::baseline();
    candidate.run("null_1c").metrics[1].1 = None;
    let report = compare(None, &candidate.render(), &contract());
    let null = "a null at null_1c.end_to_end.metrics.latency_p50_us.value";
    let missing = "null_1c latency_p50_us MISSING (bound 25%)";
    assert_eq!(report.failures, [null, missing]);
    // (The top-level `"claim": null` of every document is not one: the
    // bootstrap case above passes with it.)
}

#[test]
fn an_information_only_workload_is_printed_and_never_fails() {
    let report = gated(|s| {
        s.scale("null_2c", "call_rate", 0.3);
        s.scale("null_2c", "latency_p50_us", 4.0);
    });
    assert_eq!(report.failures, NO_FAILURE);
    assert_eq!(verdict(&report, "null_2c", "call_rate"), "information only");
    assert!(report.to_string().contains("null_2c"), "{report}");
    // It may also come and go.
    let report = gated(|s| s.0.retain(|(name, _)| *name != "null_2c"));
    assert_eq!(report.failures, NO_FAILURE);
}

#[test]
fn a_failed_call_or_an_incorrect_run_fails_whatever_the_numbers() {
    // A recorded predecessor has no failed call (`snapshot` refuses
    // one), so any failed call is a larger failed share.
    let report = gated(|s| s.run("local_args").failed = 3.0);
    assert_eq!(report.failures, ["local_args end_to_end has failed calls"]);
    let report = gated(|s| s.run("null_1c").correct = false);
    assert_eq!(report.failures, ["null_1c end_to_end is not correct"]);
    // Fitness is asked of everything the benchmark ran: a broken
    // exactly-once or leak check is a bug on any workload.
    let report = gated(|s| s.run("null_2c").correct = false);
    assert_eq!(report.failures, ["null_2c end_to_end is not correct"]);
}

#[test]
fn what_the_predecessor_lacks_is_new_not_a_failure() {
    let mut previous = Snapshot::baseline();
    previous.0.retain(|(name, _)| *name != "local_args");
    let gone = |(name, _): &(&str, _)| *name != "setup_s";
    previous.run("null_1c").metrics.retain(gone);
    let candidate = Snapshot::baseline().render();
    let report = compare(Some(&previous.render()), &candidate, &contract());
    assert_eq!(report.failures, NO_FAILURE);
    assert_eq!(verdict(&report, "local_args", "call_rate"), "new");
    assert_eq!(verdict(&report, "null_1c", "setup_s"), "new");
    assert_eq!(verdict(&report, "null_1c", "call_rate"), "ok");
}

/// A fresh directory with `files` in it.
fn temp_dir(tag: &str, files: &[(&str, String)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("firefly-bench-ledger-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text) in files {
        std::fs::write(dir.join(name), text).unwrap();
    }
    dir
}

/// Runs `firefly-bench <words>` in `dir`; its exit code and everything
/// it printed. The executable belongs to another package, so cargo
/// exposes no CARGO_BIN_EXE_ variable here; `cargo run` reaches it.
fn firefly_bench(dir: &Path, words: &[&str]) -> (Option<i32>, String) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .args(["run", "--offline", "-q", "-p", "firefly-bench"])
        .arg("--manifest-path")
        .arg(root().join("Cargo.toml"))
        .arg("--")
        .args(words)
        .current_dir(dir)
        .output()
        .expect("firefly-bench runs");
    let text = [out.stdout, out.stderr].concat();
    (
        out.status.code(),
        String::from_utf8_lossy(&text).into_owned(),
    )
}

#[test]
fn the_gate_as_a_process_exits_0_1_and_2() {
    let contract = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
    let dir = temp_dir("gate", &[("BENCHMARK.json", contract)]);
    let (code, text) = firefly_bench(&dir, &["gate"]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("nothing to gate"), "{text}");

    let write = |name: &str, call_rate_factor: f64| {
        let mut snapshot = Snapshot::baseline();
        snapshot.scale("null_1c", "call_rate", call_rate_factor);
        std::fs::write(dir.join(name), snapshot.render().to_pretty()).unwrap();
    };
    write("BENCH_0013.json", 1.0);
    let (code, text) = firefly_bench(&dir, &["gate"]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("bootstrap"), "{text}");

    write("BENCH_0014.json", 0.7);
    let (code, text) = firefly_bench(&dir, &["gate"]);
    assert_eq!(code, Some(1), "{text}");
    assert!(
        text.contains("BENCH_0014.json vs ./BENCH_0013.json"),
        "{text}"
    );
    assert!(
        text.contains("FAIL — null_1c call_rate REGRESSED"),
        "{text}"
    );
    // A file outside the trajectory is held against its newest member;
    // a member, against the one before it.
    write("BENCH_0014.json", 0.8);
    write("retry.json", 0.8 * 0.7);
    assert_eq!(firefly_bench(&dir, &["gate"]).0, Some(0));
    assert_eq!(firefly_bench(&dir, &["gate", "retry.json"]).0, Some(1));
    assert_eq!(firefly_bench(&dir, &["gate", "BENCH_0013.json"]).0, Some(0));

    assert_eq!(
        firefly_bench(&dir, &["gate", "a.json", "b.json"]).0,
        Some(2)
    );
    let (code, text) = firefly_bench(&dir, &["no_such_experiment"]);
    assert_eq!(code, Some(2), "{text}");
    assert!(
        text.contains("table12") && text.contains("snapshot"),
        "{text}"
    );
}

#[test]
fn snapshot_records_what_the_contract_command_prints() {
    // A stand-in for the benchmark: a command that prints some progress
    // and then the document on its last line.
    let stand_in = r#"{"command": ["cat", "progress.txt", "printed.json"]}"#;
    let printed = Snapshot::baseline().render();
    let files = [
        ("BENCHMARK.json", stand_in.to_string()),
        ("progress.txt", "null_1c ...\n".to_string()),
        ("BENCH_0012.json", "{}".to_string()),
        // Not members of the trajectory, whatever their numbers say.
        ("BENCH_99.json", "{}".to_string()),
        ("BENCH_00991.json", "{}".to_string()),
        ("bench_0099.json", "{}".to_string()),
        ("BENCH_0099.json.tmp", "{}".to_string()),
        ("printed.json", format!("{printed}\n")),
    ];
    let dir = temp_dir("snapshot", &files);
    let (code, text) = firefly_bench(&dir, &["snapshot"]);
    assert_eq!(code, Some(0), "{text}");
    assert!(
        text.contains("BENCH_0013.json"),
        "numbering continues: {text}"
    );
    assert_eq!(read_json(&dir.join("BENCH_0013.json")).unwrap(), printed);
    let leftover = dir.join("BENCH_0013.json.tmp");
    assert!(!leftover.exists(), "written through a rename");

    // Refused, and nothing written: a pass that is not correct, a failed
    // call, a null, something that is no document, a failing command.
    let mut incorrect = Snapshot::baseline();
    incorrect.run("blob_4f_1c").correct = false;
    let mut failed = Snapshot::baseline();
    failed.run("null_2c").failed = 1.0;
    let mut null = Snapshot::baseline();
    null.run("null_1c").metrics[0].1 = None;
    let unfit = [
        (incorrect.render().to_string(), "not correct"),
        (failed.render().to_string(), "failed calls"),
        (null.render().to_string(), "a null at"),
        ("not a document".to_string(), "is not JSON"),
    ];
    for (printed, why) in unfit {
        std::fs::write(dir.join("printed.json"), printed + "\n").unwrap();
        let (code, text) = firefly_bench(&dir, &["snapshot"]);
        assert_eq!(code, Some(1), "{text}");
        assert!(text.contains(why), "{why}: {text}");
    }
    let failing = r#"{"command": ["false"]}"#;
    std::fs::write(dir.join("BENCHMARK.json"), failing).unwrap();
    assert_eq!(firefly_bench(&dir, &["snapshot"]).0, Some(1));
    assert_eq!(trajectory(&dir).len(), 2, "0012 and 0013, nothing more");
    assert_eq!(firefly_bench(&dir, &["snapshot", "--smoke"]).0, Some(2));
}

/// The names one of the contract's metric lists gives.
fn names(contract: &Json, list: &str) -> Vec<String> {
    let entries = contract.get(list).and_then(Json::as_array).expect(list);
    let name = |e: &Json| e.get("name").and_then(Json::as_str).map(String::from);
    entries.iter().map(|e| name(e).expect("name")).collect()
}

/// ROADMAP aim 1 on the committed file: every layer has its number, the
/// layers sum, and the sum is stated against a floor.
#[test]
fn the_committed_snapshot_carries_the_account_and_passes_the_gate() {
    let (compared, report) = gate::run(root(), None).expect("a loadable trajectory");
    assert!(report.passed(), "{compared}\n{report}");
    let (number, newest) = trajectory(root()).pop().expect("a committed snapshot");
    assert!(
        number >= 13,
        "{number}: snapshots of this kind start at 0013"
    );
    let (snapshot, contract) = (read_json(&newest).unwrap(), contract());
    for workload in names(&contract, "workloads") {
        let metric = |pass: &str, metric: &str| {
            let path = ["workloads", &workload, pass, "metrics", metric, "value"];
            let value = snapshot.at(&path).and_then(Json::as_f64);
            let value = value.unwrap_or_else(|| panic!("{workload} {pass} {metric}"));
            assert!(value.is_finite(), "{workload} {pass} {metric}");
            value
        };
        for pass in PASSES {
            for name in names(&contract, pass) {
                metric(pass, &name);
            }
            let info = format!("{pass}_info");
            let commit = snapshot.at(&["workloads", &workload, &info, "git_commit"]);
            assert!(commit.is_some(), "{workload} {pass}: provenance");
        }
        assert!(metric("per_layer", "account.layers_sum_us") > 0.0);
        metric("per_layer", "account.over_floor_us");
        assert!(metric("per_layer", "transport.udp_poll_pair_us") > 0.0);
    }
}
