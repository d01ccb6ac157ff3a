//! The repo benchmark: six closed-loop workloads against the real RPC
//! stack (four of them in the contract), five end-to-end metrics, and a
//! per-layer account measured from outside. `README.md` beside this package defines every name;
//! `BENCHMARK.json` at the repository root is the contract.
//!
//! ```text
//! rpcbench --workload null_1c --seed 1 --seconds 10 --trace 0   one untraced run
//! rpcbench --workload null_1c --seed 1 --seconds 10 --trace 1   its per-layer pass
//! rpcbench [--seed N] [--seconds S]                             every workload, both passes
//! rpcbench --repeat 10 [--workload W]                           spread of the end-to-end metrics
//! ```
//!
//! The last line of standard output is always one JSON object.

#![forbid(unsafe_code)]

mod layers;
mod procfs;
mod sample;
mod suite;
mod workloads;

use firefly_metrics::Json;
use std::process::ExitCode;
use workloads::{Rig, Workload};

/// Measured seconds of one run unless `--seconds` says otherwise; the
/// same number as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 30.0;
/// The timed phase is cut into windows of this length, and the
/// end-to-end metrics are read from the fastest tenth of them
/// (`Phase::fastest_tenth`). Short enough to fall inside one of the
/// 0.3–3 s stretches the stack stays in one regime for; long enough for
/// 2 000 calls of the slowest workload.
const WINDOW_S: f64 = 0.25;
/// Untimed closed-loop seconds before the timed phase: sockets, pools,
/// activity slots and the scheduler's view of the threads settle.
const WARMUP_S: f64 = 1.0;
/// The warm-up is repeated while the host takes more than this share of
/// the guest's processor time for someone else (`steal` in
/// `/proc/stat`), for at most [`WARMUP_MAX_S`] in all. This shared host
/// has episodes of minutes in which it runs the guest half the time or
/// less (windows without a single call, 50 ms retransmission timers
/// firing); a run that starts measuring inside one reports the host.
/// Quiet stretches read 0.2 % and the long mild episodes 2–3 %, which
/// the fastest tenth absorbs; only the severe ones reach a tenth.
const CALM_STOLEN_SHARE: f64 = 0.10;
/// Long enough to sit out the 3-minute episode seen while this was
/// written in two runs; short enough that each run still ends well
/// inside the driver's limit for one.
const WARMUP_MAX_S: f64 = 90.0;
/// A set-up is ≈ 0.3 ms of thread creation and of waking idle
/// processors, so one reading is noise: the run sets up this many times
/// and reports the fastest. What a set-up waits for — the host waking a
/// halted virtual processor — is slower by whole factors for minutes at
/// a time and only ever slower, so the fastest of many readings is the
/// one that moved least between sets of runs (README, "`setup_s`"). The
/// last rig is the one measured.
const SETUP_ROUNDS: usize = 201;

/// A metric's name and unit as printed and as listed in `BENCHMARK.json`.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

pub const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the library sees (README, "End-to-end metrics").
pub const END_TO_END: [MetricDef; 5] = [
    def("call_rate", "1/s"),
    def("latency_p50_us", "us"),
    def("cpu_us_per_call", "us"),
    def("rss_peak_mb", "MB"),
    def("setup_s", "s"),
];

/// Measured values by metric name, in the order they were pushed.
pub type Values = Vec<(&'static str, f64)>;

/// What one run of one workload produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Provenance and informational numbers, printed on their own line.
    pub info: Json,
}

/// Names the contract accepts: a letter or digit first, then at most 63
/// more of letters, digits, `_`, `.`, `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Sets `workload` up [`SETUP_ROUNDS`] times; returns the last rig and
/// the set-up times in ascending order. Rigs that are not kept are shut
/// down and checked like the measured one.
fn setup_rounds(workload: Workload, seed: u64) -> Result<(Rig, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_ROUNDS);
    let mut kept = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some(previous) = kept.take() {
            let checks = Rig::finish(previous);
            if !checks.passed() {
                return Err(format!(
                    "{}: a set-up round failed its checks: executed {} completed {} leaked {}",
                    workload.name(),
                    checks.executed,
                    checks.completed,
                    checks.leaked_buffers
                ));
            }
        }
        let (rig, setup_s) = Rig::setup(workload, seed, None)?;
        times.push(setup_s);
        kept = Some(rig);
    }
    let rig = kept.expect("SETUP_ROUNDS is at least one");
    times.sort_by(f64::total_cmp);
    Ok((rig, times))
}

/// How many windows a timed phase of `seconds` is cut into.
pub fn windows_in(seconds: f64) -> usize {
    ((seconds / WINDOW_S).round() as usize).max(1)
}

/// Runs the closed loop untimed, [`WARMUP_S`] at a time, until the host
/// leaves the guest its processors or [`WARMUP_MAX_S`] are spent;
/// returns the seconds spent.
fn warm_up(rig: &Rig, seconds: f64) -> f64 {
    let slice = WARMUP_S.min(seconds);
    let mut spent = 0.0;
    loop {
        let stolen = procfs::stolen_s();
        rig.drive(slice, 1);
        spent += slice;
        let stolen_share = (procfs::stolen_s() - stolen) / (slice * workloads::processors() as f64);
        if stolen_share <= CALM_STOLEN_SHARE || spent + slice > WARMUP_MAX_S {
            return spent;
        }
    }
}

/// The untraced run: the end-to-end metrics of one workload.
fn run_end_to_end(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (rig, setup_times) = setup_rounds(workload, seed)?;
    let warmup_s = warm_up(&rig, seconds);
    let stolen = procfs::stolen_s();
    let phase = rig.drive(seconds, windows_in(seconds));
    let stolen_share =
        (procfs::stolen_s() - stolen) / (phase.wall_s() * workloads::processors() as f64);
    let checks = rig.finish();

    let fastest = phase.fastest_tenth();
    let values = vec![
        ("call_rate", fastest.call_rate()),
        ("latency_p50_us", fastest.latency.percentile_ns(50.0) / 1e3),
        ("cpu_us_per_call", fastest.cpu_us_per_call()),
        ("rss_peak_mb", phase.after.vm_hwm_kb as f64 / 1024.0),
        ("setup_s", setup_times[0]),
    ];
    // The tail, which no estimator tried holds to a bound on this box
    // (README, "The tail"), and the whole phase, dips included.
    let fastest_p99_us = fastest.latency.percentile_ns(99.0) / 1e3;
    let whole = phase.whole();
    let percentile_us = |p| Json::num(whole.latency.percentile_ns(p) / 1e3);
    let window_rates = phase.windows.iter().map(|w| Json::num(w.call_rate()));
    let noisy = workload.lossless() && checks.retransmissions > 0;
    let info = suite::provenance(workload, seed, seconds)
        .set(
            "fastest_tenth_samples",
            Json::num(fastest.latency.count() as f64),
        )
        .set("fastest_tenth_p99_us", Json::num(fastest_p99_us))
        .set("whole_call_rate", Json::num(whole.call_rate()))
        .set("whole_p50_us", percentile_us(50.0))
        .set("whole_p99_us", percentile_us(99.0))
        .set("whole_p999_us", percentile_us(99.9))
        .set("whole_mean_us", Json::num(whole.latency.mean_ns() / 1e3))
        .set("whole_cpu_us_per_call", Json::num(whole.cpu_us_per_call()))
        .set("samples", Json::num(whole.latency.count() as f64))
        .set("setup_median_s", Json::num(sample::median(&setup_times)))
        .set("window_rates", Json::Arr(window_rates.collect()))
        .set("warmup_s", Json::num(warmup_s))
        .set("stolen_share", Json::num(stolen_share))
        .set("threads", Json::num(phase.after.threads as f64))
        .set("retransmissions", Json::num(checks.retransmissions as f64))
        .set("noisy", Json::Bool(noisy))
        .set("executed", Json::num(checks.executed as f64))
        .set("completed", Json::num(checks.completed as f64))
        .set("leaked_buffers", Json::num(checks.leaked_buffers as f64));
    // Every end-to-end metric is a positive quantity; a zero means a
    // reading failed (no procfs, or no call completed).
    let measured = values.iter().all(|(_, v)| v.is_finite() && *v > 0.0);
    Ok(Outcome {
        correct: checks.passed() && phase.failed == 0 && measured,
        attempted: phase.attempted,
        failed: phase.failed,
        values,
        info,
    })
}

/// The contract's result object: `correct`, `attempted`, `failed`,
/// `metrics` — every metric with its value and unit.
fn result_json(outcome: &Outcome, defs: &[MetricDef]) -> Json {
    let mut metrics = Json::obj();
    for def in defs {
        let value = outcome
            .values
            .iter()
            .find(|(name, _)| *name == def.name)
            .map_or(f64::NAN, |(_, v)| *v);
        metrics = metrics.set(
            def.name,
            Json::obj()
                .set("value", Json::num(value))
                .set("unit", Json::str(def.unit)),
        );
    }
    Json::obj()
        .set(
            "correct",
            Json::Bool(outcome.correct && !metrics.contains_null()),
        )
        .set("attempted", Json::num(outcome.attempted as f64))
        .set("failed", Json::num(outcome.failed as f64))
        .set("metrics", metrics)
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        repeat: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(name).ok_or_else(|| format!("no workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs".into());
                }
                args.repeat = Some(n);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("rpcbench: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rpcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.repeat, args.workload, args.trace) {
        (Some(runs), workload, _) => suite::repeat(runs, workload, args.seed, args.seconds),
        (None, Some(workload), Some(trace)) => {
            let (run, defs): (_, &[MetricDef]) = if trace {
                (
                    layers::run_per_layer(workload, args.seed, args.seconds),
                    &layers::PER_LAYER,
                )
            } else {
                (
                    run_end_to_end(workload, args.seed, args.seconds),
                    &END_TO_END,
                )
            };
            run.map(|outcome| {
                println!("{}", Json::obj().set("info", outcome.info.clone()));
                let result = result_json(&outcome, defs);
                println!("{result}");
                suite::is_correct(&result)
            })
        }
        (None, workload, trace) => suite::run_all(workload, trace, args.seed, args.seconds),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("rpcbench: a check failed (see \"correct\")");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("rpcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_fit_the_contract() {
        for def in END_TO_END.iter().chain(&layers::PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(!def.unit.is_empty() && def.unit.len() <= 16, "{}", def.unit);
        }
        assert!(!valid_name("_x") && !valid_name("") && !valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv: Vec<String> = "--workload blob_4f_1c --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).expect("valid");
        assert_eq!(args.workload, Some(Workload::Blob4f1c));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, Some(true)));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--what 1",
            "--repeat 1",
        ] {
            let argv: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&argv).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` and this program agree on every name and unit.
    #[test]
    fn benchmark_json_lists_exactly_what_is_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let defined = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), defined(&END_TO_END));
        assert_eq!(listed("per_layer"), defined(&layers::PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL
            .iter()
            .filter(|w| w.in_contract())
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    /// A short untraced run emits every end-to-end metric, finite.
    #[test]
    fn a_short_run_emits_every_end_to_end_metric() {
        for workload in [Workload::Null1c, Workload::LocalArgs] {
            let outcome = run_end_to_end(workload, 2, 0.3).expect("run");
            assert_eq!(outcome.failed, 0);
            let result = result_json(&outcome, &END_TO_END);
            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            assert_eq!(metrics.len(), END_TO_END.len());
            assert!(!result.contains_null(), "{result}");
            for key in ["correct", "attempted", "failed", "metrics"] {
                assert!(result.get(key).is_some(), "{key}");
            }
        }
    }
}
