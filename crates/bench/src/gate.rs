//! The trajectory gate over `BENCH_NNNN.json` snapshots (docs/BENCH.md).
//!
//! A snapshot must be fit to compare ([`defects`]) and is held against
//! its predecessor on the contract workloads' end-to-end metrics, each
//! in the direction and within the bound `BENCHMARK.json` gives it — the
//! tolerance derived from the benchmark's measured spread, and the only
//! place one is defined. The metrics of workloads outside the contract
//! are printed and never fail.

use crate::snapshot::{defects, read_json, snapshot_number, trajectory, workloads};
use firefly_metrics::Json;
use std::fmt;
use std::path::Path;

/// One line of the gate's table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub previous: Option<f64>,
    pub candidate: Option<f64>,
    pub verdict: &'static str,
}

/// What [`compare`] found: every metric looked at, and every reason the
/// candidate fails (none: it passes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    pub rows: Vec<Row>,
    pub failures: Vec<String>,
}

impl Report {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Four significant digits, whatever the metric's magnitude.
        let digits = |v: f64| (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        let cell = |v: Option<f64>| match v {
            Some(v) => format!("{v:.*}", digits(v)),
            None => "—".to_string(),
        };
        for row in &self.rows {
            let change = match (row.previous, row.candidate) {
                (Some(old), Some(new)) if old != 0.0 => {
                    format!("{:+.1}%", (new - old) / old * 100.0)
                }
                _ => "—".to_string(),
            };
            let (old, new) = (cell(row.previous), cell(row.candidate));
            let (workload, metric, verdict) = (&row.workload, &row.metric, row.verdict);
            writeln!(
                f,
                "    {workload:<13} {metric:<16} {old:>11} {new:>11} {change:>8}  {verdict}"
            )?;
        }
        for failure in &self.failures {
            writeln!(f, "bench gate: FAIL — {failure}")?;
        }
        if self.passed() {
            writeln!(f, "bench gate: OK — nothing worse beyond its bound")?;
        }
        Ok(())
    }
}

/// The `name`d entries of one of the contract's lists.
fn listed<'a>(contract: &'a Json, key: &str) -> impl Iterator<Item = (&'a str, &'a Json)> {
    let entries = contract.get(key).and_then(Json::as_array).unwrap_or(&[]);
    let named = |entry: &'a Json| Some((entry.get("name")?.as_str()?, entry));
    entries.iter().filter_map(named)
}

/// One end-to-end metric of one workload of a snapshot.
fn value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    let run = doc.at(&["workloads", workload, "end_to_end"])?;
    run.at(&["metrics", metric, "value"])?.as_f64()
}

/// Holds `candidate` against `previous` (none: it bootstraps, and only
/// its own fitness is checked) under `contract` (`BENCHMARK.json`).
pub fn compare(previous: Option<&Json>, candidate: &Json, contract: &Json) -> Report {
    let mut report = Report {
        rows: Vec::new(),
        failures: defects(candidate),
    };
    let in_contract = |workload: &str| listed(contract, "workloads").any(|(w, _)| w == workload);
    let others = workloads(candidate).iter().map(|(name, _)| name.as_str());
    let contracted = listed(contract, "workloads").map(|(name, _)| name);
    for workload in contracted.chain(others.filter(|w| !in_contract(w))) {
        if candidate.at(&["workloads", workload]).is_none() {
            report.failures.push(format!("{workload} vanished"));
            continue;
        }
        for (metric, spec) in listed(contract, "end_to_end") {
            let higher = spec.get("better").and_then(Json::as_str) == Some("higher");
            let bound = spec.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let old = previous.and_then(|p| value(p, workload, metric));
            let new = value(candidate, workload, metric);
            let verdict = match (old, new) {
                _ if !in_contract(workload) => "information only",
                (_, None) => "MISSING",
                (None, Some(_)) => "new",
                (Some(old), Some(new)) => {
                    let worse = if higher { old - new } else { new - old };
                    match worse / old {
                        share if share > bound => "REGRESSED",
                        share if share < -bound => "improved",
                        _ => "ok",
                    }
                }
            };
            if matches!(verdict, "MISSING" | "REGRESSED") {
                let bound = bound * 100.0;
                let failure = format!("{workload} {metric} {verdict} (bound {bound:.0}%)");
                report.failures.push(failure);
            }
            report.rows.push(Row {
                workload: workload.to_string(),
                metric: metric.to_string(),
                previous: old,
                candidate: new,
                verdict,
            });
        }
    }
    report
}

/// Gates `file` — or, without one, the newest snapshot of `dir` —
/// against the newest snapshot of `dir` that is older than it, under
/// `dir`'s `BENCHMARK.json`. Returns what was compared, and the report.
pub fn run(dir: &Path, file: Option<&Path>) -> Result<(String, Report), String> {
    let contract = read_json(&dir.join("BENCHMARK.json"))?;
    let mut older = trajectory(dir);
    let candidate = match (file, older.last()) {
        (Some(file), _) => file.to_path_buf(),
        (None, Some((_, newest))) => newest.clone(),
        (None, None) => {
            let nothing = format!("no BENCH_*.json in {} — nothing to gate", dir.display());
            return Ok((nothing, Report::default()));
        }
    };
    if let Some(number) = snapshot_number(&candidate) {
        older.retain(|(n, _)| *n < number);
    }
    let previous = older.last().map(|(_, path)| path);
    let compared = match previous {
        Some(previous) => format!("{} vs {}", candidate.display(), previous.display()),
        None => format!("{}, no predecessor (bootstrap)", candidate.display()),
    };
    let previous = previous.map(|path| read_json(path)).transpose()?;
    let report = compare(previous.as_ref(), &read_json(&candidate)?, &contract);
    Ok((compared, report))
}
