//! Running more than one measurement: every workload with both passes,
//! and the repeatability table. Each measurement is a fresh child
//! process of this same executable (`--workload W --trace T`), so
//! sockets, pools, thread state and `VmHWM` never carry over from one
//! workload to the next.

use crate::sample;
use crate::workloads::{processors, Workload};
use crate::{windows_in, MetricDef, END_TO_END};
use firefly_metrics::Json;
use std::process::Command;

/// The contract file, compiled in: `--repeat` reads its bounds.
const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

fn first_line(text: String) -> Option<String> {
    text.lines().next().map(|l| l.trim().to_string())
}

/// The commit of the checkout this binary was built in, read from its
/// `.git` directory without running git; "unknown" outside a clone.
fn git_commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git/");
    let read = |rel: &str| {
        std::fs::read_to_string(format!("{git}{rel}"))
            .ok()
            .and_then(first_line)
    };
    match read("HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(reference).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

/// Where and how a run was made. Wire latency and link rate are not
/// measured: both endpoints share one host.
pub fn provenance(workload: Workload, seed: u64, seconds: f64) -> Json {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .ok()
        .and_then(first_line);
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| first_line(String::from_utf8_lossy(&o.stdout).into_owned()));
    let unknown = || "unknown".to_string();
    Json::obj()
        .set("workload", Json::str(workload.name()))
        .set("seed", Json::num(seed as f64))
        .set("callers", Json::num(workload.callers() as f64))
        .set("windows", Json::num(windows_in(seconds) as f64))
        .set("window_s", Json::num(seconds / windows_in(seconds) as f64))
        .set("nproc", Json::num(processors() as f64))
        .set("kernel", Json::str(kernel.unwrap_or_else(unknown)))
        .set("rustc", Json::str(rustc.unwrap_or_else(unknown)))
        .set("git_commit", Json::str(git_commit()))
        .set("link", Json::str("loopback"))
        .set(
            "not_measured",
            Json::str("wire latency and link rate: caller and server share one host"),
        )
}

/// Runs one measurement in a child process; returns its `info` object
/// and its result object.
fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| line.and_then(|l| Json::parse(l).ok());
    let result = parse(lines.next());
    let info = parse(lines.next()).and_then(|doc| doc.get("info").cloned());
    match (info, result) {
        (Some(info), Some(result)) => Ok((info, result)),
        _ => Err(format!(
            "{} --trace {}: no result ({}): {}",
            workload.name(),
            u8::from(trace),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    }
}

pub fn is_correct(result: &Json) -> bool {
    result.get("correct") == Some(&Json::Bool(true))
}

/// Every selected workload, every selected pass; prints one document
/// with all metrics by name as the last line. No gain is claimed by a
/// benchmark run: `"claim": null`.
pub fn run_all(
    only: Option<Workload>,
    trace: Option<bool>,
    seed: u64,
    seconds: f64,
) -> Result<bool, String> {
    let passes = [(false, "end_to_end"), (true, "per_layer")];
    let mut all_correct = true;
    let mut workloads = Json::obj();
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        let mut entry = Json::obj();
        for (traced, key) in passes
            .into_iter()
            .filter(|(t, _)| trace.is_none_or(|x| x == *t))
        {
            eprintln!("rpcbench: {} ({key}) ...", workload.name());
            let (info, result) = child(workload, seed, seconds, traced)?;
            all_correct &= is_correct(&result);
            entry = entry.set(key, result).set(&format!("{key}_info"), info);
        }
        entry = entry.set("in_contract", Json::Bool(workload.in_contract()));
        workloads = workloads.set(workload.name(), entry);
    }
    let doc = Json::obj()
        .set("claim", Json::Null)
        .set("seed", Json::num(seed as f64))
        .set("run_seconds", Json::num(seconds))
        .set("workloads", workloads);
    println!("{doc}");
    Ok(all_correct)
}

/// The regression bound `BENCHMARK.json` fixes for an end-to-end metric.
fn bound_of(contract: &Json, metric: &str) -> Option<f64> {
    contract
        .get("end_to_end")?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?
        .get("bound")?
        .as_f64()
}

/// One row of the repeatability table.
struct Row {
    values: Vec<f64>,
    quartiles: [f64; 3],
    spread: f64,
    bound: f64,
}

fn row(def: &MetricDef, values: Vec<f64>, contract: &Json) -> Row {
    let quartiles = sample::quartiles(&values).unwrap_or([0.0; 3]);
    Row {
        spread: sample::spread(&values).unwrap_or(f64::INFINITY),
        bound: bound_of(contract, def.name).unwrap_or(0.0),
        values,
        quartiles,
    }
}

/// `--repeat N`: the untraced run of each selected workload N times on
/// seeds `seed..seed+N`, then for each end-to-end metric the values,
/// the quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them, and their distance as a share of the median beside the bound.
pub fn repeat(
    runs: usize,
    only: Option<Workload>,
    seed: u64,
    seconds: f64,
) -> Result<bool, String> {
    let contract = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut all_correct = true;
    let mut doc = Json::obj();
    println!("| workload | metric | median | q1 | q3 | spread | bound | verdict | values |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for run in 0..runs {
            eprintln!("rpcbench: {} run {}/{runs} ...", workload.name(), run + 1);
            let (_, result) = child(workload, seed + run as u64, seconds, false)?;
            all_correct &= is_correct(&result);
            for (def, values) in END_TO_END.iter().zip(&mut per_metric) {
                let value = result
                    .at(&["metrics", def.name, "value"])
                    .and_then(Json::as_f64);
                values.push(value.ok_or_else(|| format!("{}: no {}", workload.name(), def.name))?);
            }
        }
        let mut entry = Json::obj();
        for (def, values) in END_TO_END.iter().zip(per_metric) {
            let r = row(def, values, &contract);
            // Steady: the spread leaves two thirds of the bound to a real
            // regression. Inside: unchanged code still passes. Otherwise
            // the metric cannot resolve a change of the bound's size.
            let verdict = if !workload.in_contract() {
                "not in the contract"
            } else if r.spread <= r.bound / 3.0 {
                "steady"
            } else if r.spread <= r.bound {
                "inside"
            } else {
                "UNRESOLVED"
            };
            let list: Vec<String> = r.values.iter().map(|v| format!("{v:.6}")).collect();
            println!(
                "| {} | {} | {:.6} | {:.6} | {:.6} | {:.1}% | {:.0}% | {verdict} | {} |",
                workload.name(),
                def.name,
                r.quartiles[1],
                r.quartiles[0],
                r.quartiles[2],
                r.spread * 100.0,
                r.bound * 100.0,
                list.join(" ")
            );
            entry = entry.set(
                def.name,
                Json::obj()
                    .set(
                        "values",
                        Json::Arr(r.values.iter().copied().map(Json::num).collect()),
                    )
                    .set("median", Json::num(r.quartiles[1]))
                    .set("q1", Json::num(r.quartiles[0]))
                    .set("q3", Json::num(r.quartiles[2]))
                    .set("spread", Json::num(r.spread))
                    .set("bound", Json::num(r.bound))
                    .set("verdict", Json::str(verdict)),
            );
        }
        doc = doc.set(workload.name(), entry);
    }
    let doc = Json::obj()
        .set("claim", Json::Null)
        .set("repeat", Json::num(runs as f64))
        .set("first_seed", Json::num(seed as f64))
        .set("run_seconds", Json::num(seconds))
        .set("spreads", doc);
    println!("{doc}");
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_contract_file_parses_and_bounds_every_end_to_end_metric() {
        let contract = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json");
        for def in &END_TO_END {
            let bound = bound_of(&contract, def.name).expect(def.name);
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", def.name);
        }
        assert_eq!(bound_of(&contract, "no_such_metric"), None);
    }

    #[test]
    fn rows_carry_spread_and_bound() {
        let contract = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json");
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let r = row(&END_TO_END[0], values, &contract);
        assert_eq!(r.quartiles, [2.75, 5.5, 8.25]);
        assert!((r.spread - 1.0).abs() < 1e-12);
        assert!(r.bound > 0.0);
    }

    #[test]
    fn provenance_names_the_link_and_the_machine() {
        let p = provenance(Workload::Null2c, 9, 10.0);
        assert_eq!(p.get("link").and_then(Json::as_str), Some("loopback"));
        assert_eq!(p.get("seed").and_then(Json::as_f64), Some(9.0));
        assert_eq!(p.get("windows").and_then(Json::as_f64), Some(40.0));
        assert_eq!(p.get("window_s").and_then(Json::as_f64), Some(0.25));
        assert!(p
            .get("nproc")
            .and_then(Json::as_f64)
            .is_some_and(|n| n >= 1.0));
        assert!(!p.contains_null());
    }
}
