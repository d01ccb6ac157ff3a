//! The repo's performance ledger: `BENCH_NNNN.json` is the one JSON
//! document the contract benchmark prints — the `command` of
//! `BENCHMARK.json` run with no further arguments: every workload, the
//! `end_to_end` and the `per_layer` pass, provenance beside each
//! (`rpcbench/README.md` defines every name). [`record`] runs that
//! command, refuses a document that is not fit to be compared against,
//! numbers it and writes it; [`crate::gate`] compares consecutive ones.
//! Nothing here measures anything: there is one rig, and it is not this.

use firefly_metrics::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Snapshots of this kind start here; `BENCH_0006`–`0012` were a private
/// rig's schema and live on as the history table of docs/BENCH.md.
pub const FIRST_NUMBER: u32 = 13;

/// The two passes every workload of a snapshot carries.
pub const PASSES: [&str; 2] = ["end_to_end", "per_layer"];

/// Reads and parses the JSON file at `path`.
pub fn read_json(path: &Path) -> Result<Json, String> {
    let shown = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {shown}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{shown} is not valid JSON: {e}"))
}

/// The number in a `BENCH_NNNN.json` file name.
pub fn snapshot_number(path: &Path) -> Option<u32> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
    if digits.len() != 4 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// `(number, path)` of every snapshot in `dir`, oldest first.
pub fn trajectory(dir: &Path) -> Vec<(u32, PathBuf)> {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    let mut found: Vec<(u32, PathBuf)> = entries
        .filter_map(|e| Some((snapshot_number(&e.path())?, e.path())))
        .collect();
    found.sort();
    found
}

/// Where the first `null` under `node` is. `Json::num` writes a
/// non-finite measurement as `null`, so any `null` is a broken one.
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

/// The `(name, entry)` pairs under a snapshot's `workloads`.
pub fn workloads(doc: &Json) -> &[(String, Json)] {
    let entries = doc.get("workloads").and_then(Json::as_object);
    entries.unwrap_or(&[])
}

/// Why `doc` is not fit to join the trajectory; empty when it is. Every
/// workload must carry both passes, each `correct` with no failed call,
/// and no measurement may be `null` (the top-level `"claim": null` is
/// the benchmark saying it claims no gain, not a measurement).
pub fn defects(doc: &Json) -> Vec<String> {
    let mut found = Vec::new();
    if workloads(doc).is_empty() {
        found.push("no workloads".to_string());
    }
    for (name, entry) in workloads(doc) {
        if let Some(at) = first_null(entry, name.clone()) {
            found.push(format!("a null at {at}"));
        }
        for pass in PASSES {
            match entry.get(pass) {
                None => found.push(format!("{name} has no {pass} pass")),
                Some(run) if run.get("correct") != Some(&Json::Bool(true)) => {
                    found.push(format!("{name} {pass} is not correct"));
                }
                Some(run) if run.get("failed").and_then(Json::as_f64) != Some(0.0) => {
                    found.push(format!("{name} {pass} has failed calls"));
                }
                Some(_) => {}
            }
        }
    }
    found
}

/// Runs the `command` of `dir`'s `BENCHMARK.json` in `dir`, takes the
/// last line it prints and, unless that document has [`defects`],
/// writes it as the next `BENCH_NNNN.json` of `dir` — through a sibling
/// temporary file and a rename, so an interrupted run leaves no torn
/// snapshot behind.
pub fn record(dir: &Path) -> Result<PathBuf, String> {
    let contract = read_json(&dir.join("BENCHMARK.json"))?;
    let words = contract.get("command").and_then(Json::as_array);
    let words = words.unwrap_or(&[]).iter().filter_map(Json::as_str);
    let words: Vec<&str> = words.collect();
    let [program, arguments @ ..] = words.as_slice() else {
        return Err("BENCHMARK.json names no `command`".to_string());
    };
    let output = Command::new(program)
        .args(arguments)
        .current_dir(dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run `{program}`: {e}"))?;
    let printed = String::from_utf8_lossy(&output.stdout);
    let doc = Json::parse(printed.lines().next_back().unwrap_or(""))
        .map_err(|e| format!("the last line `{program}` printed is not JSON: {e}"))?;
    let mut problems = defects(&doc);
    if !output.status.success() {
        problems.push(format!("`{program}` ended with {}", output.status));
    }
    if !problems.is_empty() {
        return Err(format!("not recorded: {}", problems.join("; ")));
    }
    let next = trajectory(dir).last().map_or(0, |(newest, _)| newest + 1);
    let path = dir.join(format!("BENCH_{:04}.json", next.max(FIRST_NUMBER)));
    let temporary = path.with_extension("json.tmp");
    std::fs::write(&temporary, doc.to_pretty())
        .and_then(|()| std::fs::rename(&temporary, &path))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}
