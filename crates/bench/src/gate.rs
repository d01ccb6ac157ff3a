//! The ±10% performance-trajectory gate over `BENCH_*.json` snapshots
//! (`bench_snapshot --gate`, contract in docs/BENCH.md).
//!
//! The paper holds its latency account to "all but a few percent"; this
//! repo holds its own perf numbers to the same discipline: each snapshot
//! is diffed against its predecessor, metric by metric, and a regression
//! beyond the tolerance fails the gate loudly with a per-metric table.

use crate::snapshot::{parse_snapshot_number, SCHEMA};
use firefly_metrics::Json;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One gate invocation.
#[derive(Debug, Clone)]
pub struct GateSpec {
    /// Validate and report, but never fail on a regression (`--check`).
    pub check: bool,
    /// The snapshot to gate; the newest in `dir` when `None`.
    pub candidate: Option<PathBuf>,
    /// Where the trajectory lives (`FIREFLY_BENCH_DIR`, default `.`).
    pub dir: PathBuf,
    /// Relative tolerance per metric (`FIREFLY_BENCH_TOLERANCE_PCT`,
    /// default 10).
    pub tolerance_pct: f64,
    /// Absolute noise floor for µs-unit metrics (`FIREFLY_BENCH_NOISE_US`,
    /// default 5): a µs metric must exceed *both* bounds to fail.
    pub noise_us: f64,
}

impl GateSpec {
    /// Reads the three environment knobs; a value that is set but not a
    /// number is an error, not a silent default.
    pub fn from_env(check: bool, candidate: Option<PathBuf>) -> Result<GateSpec, String> {
        let number = |name: &str, default: f64| match std::env::var(name) {
            Ok(v) => v
                .parse()
                .map_err(|_| format!("{name}={v:?} is not a number")),
            Err(_) => Ok(default),
        };
        Ok(GateSpec {
            check,
            candidate,
            dir: std::env::var_os("FIREFLY_BENCH_DIR")
                .map_or_else(|| PathBuf::from("."), PathBuf::from),
            tolerance_pct: number("FIREFLY_BENCH_TOLERANCE_PCT", 10.0)?,
            noise_us: number("FIREFLY_BENCH_NOISE_US", 5.0)?,
        })
    }
}

/// The snapshot must be all-finite: `Json::num` writes non-finite
/// measurements as `null`, so any `null` marks a broken measurement.
fn first_null(node: &Json, path: String) -> Option<String> {
    match node {
        Json::Null => Some(path),
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .find_map(|(i, v)| first_null(v, format!("{path}[{i}]"))),
        Json::Obj(fields) => fields
            .iter()
            .find_map(|(k, v)| first_null(v, format!("{path}.{k}"))),
        Json::Bool(_) | Json::Num(_) | Json::Str(_) => None,
    }
}

/// One `gate_metrics` row.
struct Metric<'a> {
    name: &'a str,
    value: f64,
    lower_is_better: bool,
    unit: &'a str,
}

fn gate_metrics(doc: &Json) -> impl Iterator<Item = Metric<'_>> {
    let rows = doc
        .get("gate_metrics")
        .and_then(Json::as_object)
        .unwrap_or(&[]);
    rows.iter().filter_map(|(name, m)| {
        Some(Metric {
            name,
            value: m.get("value")?.as_f64()?,
            lower_is_better: m.get("direction")?.as_str()? == "lower",
            unit: m.get("unit").and_then(Json::as_str).unwrap_or(""),
        })
    })
}

/// Reads and validates one snapshot: schema id, required sections, ≥ 2
/// ablation rows, well-formed gate metrics, no `null` anywhere.
fn load_snapshot(path: &Path) -> Result<Json, String> {
    let shown = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {shown}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{shown} is not valid JSON: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(SCHEMA) {
        return Err(format!(
            "{shown} has schema {schema:?}, expected {SCHEMA:?}"
        ));
    }
    if let Some(at) = first_null(&doc, "$".to_string()) {
        return Err(format!(
            "{shown}: non-finite measurement at {at} (serialized as null)"
        ));
    }
    for section in [
        "mode",
        "latency_us",
        "throughput",
        "trace",
        "ablations",
        "gate_metrics",
    ] {
        if doc.get(section).is_none() {
            return Err(format!("{shown} is missing section {section:?}"));
        }
    }
    let ablations = doc
        .get("ablations")
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    if ablations < 2 {
        return Err(format!("{shown} has {ablations} ablation rows, need >= 2"));
    }
    let declared = doc
        .get("gate_metrics")
        .and_then(Json::as_object)
        .unwrap_or(&[]);
    if declared.is_empty() {
        return Err(format!("{shown} has no gate metrics"));
    }
    for (name, m) in declared {
        if m.get("value").and_then(Json::as_f64).is_none() {
            return Err(format!("{shown} gate metric {name:?} has no numeric value"));
        }
        let direction = m.get("direction").and_then(Json::as_str);
        if !matches!(direction, Some("lower" | "higher")) {
            return Err(format!(
                "{shown} gate metric {name:?} has direction {direction:?}"
            ));
        }
    }
    Ok(doc)
}

fn snapshot_number(path: &Path) -> Option<u32> {
    parse_snapshot_number(&path.file_name()?.to_string_lossy())
}

/// `(number, path)` of the snapshot trajectory in `dir`, oldest first.
fn trajectory(dir: &Path) -> Vec<(u32, PathBuf)> {
    let mut entries: Vec<(u32, PathBuf)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| Some((snapshot_number(&e.path())?, e.path())))
        .collect();
    entries.sort();
    entries
}

/// Relative change from `old` to `new`, in percent.
fn delta_pct(old: f64, new: f64) -> f64 {
    if old != 0.0 {
        (new - old) / old * 100.0
    } else {
        0.0
    }
}

/// Runs the gate, printing the report to `out`. `Err` carries the
/// failure message (an invalid snapshot, or — outside `--check` — a
/// regression); bootstrap and in-tolerance runs are `Ok`.
pub fn run(spec: &GateSpec, out: &mut dyn Write) -> Result<(), String> {
    let trajectory = trajectory(&spec.dir);
    let cand_path = match (&spec.candidate, trajectory.last()) {
        (Some(path), _) => path.clone(),
        (None, Some((_, newest))) => newest.clone(),
        (None, None) => {
            let dir = spec.dir.display();
            let _ = writeln!(
                out,
                "bench_gate: no BENCH_*.json in {dir} — nothing to gate (bootstrap)"
            );
            return Ok(());
        }
    };
    let cand = load_snapshot(&cand_path)?;
    let cand_number = snapshot_number(&cand_path);
    let same_file = |other: &Path| match (
        std::fs::canonicalize(other),
        std::fs::canonicalize(&cand_path),
    ) {
        (Ok(a), Ok(b)) => a == b,
        _ => other == cand_path,
    };

    // Baseline: the highest-numbered snapshot in the trajectory that is
    // older than the candidate and ran in the same mode (smoke numbers
    // are CI-sized and must never be compared against full runs).
    let mut baseline = None;
    for (number, path) in trajectory.iter().rev() {
        if cand_number.is_some_and(|c| *number >= c) || same_file(path) {
            continue;
        }
        let doc = load_snapshot(path)?;
        if doc.get("mode") == cand.get("mode") {
            baseline = Some((path, doc));
            break;
        }
    }
    let (cand_shown, tolerance) = (cand_path.display(), spec.tolerance_pct);
    let Some((base_path, base)) = baseline else {
        let mode = cand.get("mode").and_then(Json::as_str).unwrap_or("?");
        let _ = writeln!(
            out,
            "bench_gate: {cand_shown} is valid; no earlier {mode}-mode snapshot to compare against (bootstrap) — OK"
        );
        return Ok(());
    };
    let base_shown = base_path.display();
    let _ = writeln!(
        out,
        "bench_gate: {cand_shown} vs {base_shown} (tolerance ±{tolerance}%, µs noise floor {})",
        spec.noise_us
    );

    // (name, baseline value, candidate value, verdict) per table line.
    let mut rows: Vec<(&str, Option<f64>, Option<f64>, String)> = Vec::new();
    let mut regressions = 0;
    for bm in gate_metrics(&base) {
        let Some(cm) = gate_metrics(&cand).find(|m| m.name == bm.name) else {
            // A snapshot may decline to gate a metric it cannot measure
            // meaningfully on its host, saying why (`ungated_metrics`).
            let verdict = match cand
                .at(&["ungated_metrics", bm.name])
                .and_then(Json::as_str)
            {
                Some(why) => format!("not gated ({why})"),
                None => {
                    regressions += 1;
                    "MISSING".to_string()
                }
            };
            rows.push((bm.name, Some(bm.value), None, verdict));
            continue;
        };
        let delta = delta_pct(bm.value, cm.value);
        let worse_pct = if bm.lower_is_better { delta } else { -delta };
        let within_noise = bm.unit == "us" && (cm.value - bm.value).abs() <= spec.noise_us;
        let verdict = if worse_pct > tolerance && !within_noise {
            regressions += 1;
            "REGRESSED"
        } else if worse_pct < -tolerance {
            "improved"
        } else {
            "ok"
        };
        rows.push((bm.name, Some(bm.value), Some(cm.value), verdict.to_string()));
    }
    // Metrics the candidate introduces (no baseline value yet) bootstrap:
    // they are reported, never compared, and start gating only once a
    // baseline snapshot carries them.
    for cm in gate_metrics(&cand) {
        if !gate_metrics(&base).any(|m| m.name == cm.name) {
            rows.push((cm.name, None, Some(cm.value), "NEW (bootstrap)".to_string()));
        }
    }

    let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(6);
    let cell = |v: Option<f64>| v.map_or_else(|| "—".to_string(), |v| format!("{v:.2}"));
    let _ = writeln!(
        out,
        "    {:<width$}  {:>12}  {:>12}  {:>8}  verdict",
        "metric", "baseline", "current", "delta"
    );
    for (name, old, new, verdict) in rows {
        let delta = match (old, new) {
            (Some(old), Some(new)) => format!("{:+.1}%", delta_pct(old, new)),
            _ => "—".to_string(),
        };
        let (old, new) = (cell(old), cell(new));
        let _ = writeln!(
            out,
            "    {name:<width$}  {old:>12}  {new:>12}  {delta:>8}  {verdict}"
        );
    }

    if regressions == 0 {
        let _ = writeln!(out, "bench_gate: OK — no metric regressed beyond tolerance");
        return Ok(());
    }
    let message = format!(
        "{regressions} metric(s) regressed beyond ±{tolerance}% ({cand_shown} vs {base_shown})"
    );
    if spec.check {
        let _ = writeln!(
            out,
            "bench_gate: WARNING — {message} (check mode: not failing)"
        );
        return Ok(());
    }
    Err(message)
}
