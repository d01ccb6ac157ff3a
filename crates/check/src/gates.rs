//! The four static-vs-dynamic cross-validation gates: pure functions
//! over `firefly-lint`'s [`Engine`] (lock order, publication labels,
//! protocol spec), its static [`Analysis`], and the checker's dynamic
//! [`Report`], in one process.
//!
//! 1. **Lock edges** — every class-level lock edge observed dynamically
//!    must already be in the static lock graph and respect the
//!    configured rank order. `class[index]` instances collapse to their
//!    class; a same-class nesting is valid only for a declared-parametric
//!    class and only in ascending index order. A dynamic edge the static
//!    graph lacks means the linter's receiver map went stale.
//! 2. **Publications** — every atomic location class on which the race
//!    detector consumed a release→acquire edge must map — through
//!    lint.toml's `[publication-labels]`, or identically by name — to a
//!    location the static atomic-publication pass proved paired.
//! 3. **Accounting** — each auditing model's quiescent counters must
//!    balance: the pool's `outstanding` equals the buffers `retained` in
//!    activity slots (the retention the pool-lifecycle rule admits).
//! 4. **Protocol transitions** — every observed `(state, packet-type,
//!    flags) -> action` row must be in protocol.toml's legal table, every
//!    legal row must be observed or allowlisted, an allowlisted row that
//!    *is* observed is stale, and one the spec lacks is invalid.
//!
//! [`verify`] is the whole pipeline — analysis, smoke run, gates — and
//! is what `firefly-check verify` and the tier-1 test both call.

use crate::smoke::{self, Report};
use crate::Explorer;
use firefly_lint::config::LockClass;
use firefly_lint::dataflow::LocationSummary;
use firefly_lint::lockgraph::LockEdge;
use firefly_lint::{Analysis, Engine};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::path::Path;

/// What a gate found: `notes` narrate coverage, any `problems` entry
/// fails the gate.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Findings {
    pub notes: Vec<String>,
    pub problems: Vec<String>,
}

impl Findings {
    /// True when no gate objected.
    pub fn passed(&self) -> bool {
        self.problems.is_empty()
    }

    fn merge(&mut self, other: Findings) {
        self.notes.extend(other.notes);
        self.problems.extend(other.problems);
    }
}

/// Splits a `class[index]` lock instance into class and index; `None`
/// for plain class (or `file::receiver`) names.
fn instance(name: &str) -> Option<(&str, usize)> {
    let (class, rest) = name.split_once('[')?;
    Some((class, rest.strip_suffix(']')?.parse().ok()?))
}

fn class_of(name: &str) -> &str {
    instance(name).map_or(name, |(class, _)| class)
}

/// Gate 1: observed lock edges against the static lock graph.
pub fn lock_edges(
    order: &[LockClass],
    static_edges: &[LockEdge],
    observed: &BTreeSet<(String, String)>,
) -> Findings {
    let mut found = Findings::default();
    let rank = |class: &str| order.iter().position(|c| c.name == class);
    let ranks: Vec<&str> = order.iter().map(|c| c.name.as_str()).collect();
    let static_classified: BTreeSet<(&str, &str)> = static_edges
        .iter()
        .map(|e| (class_of(&e.from), class_of(&e.to)))
        .filter(|(f, t)| f != t && rank(f).is_some() && rank(t).is_some())
        .collect();
    let mut observed_classes: BTreeSet<(&str, &str)> = BTreeSet::new();
    let mut parametric = 0;
    for (from, to) in observed {
        let (f, t) = (class_of(from), class_of(to));
        observed_classes.insert((f, t));
        if let (Some((_, fi)), Some((_, ti))) = (instance(from), instance(to)) {
            if f == t {
                parametric += 1;
                if !order.iter().any(|c| c.name == f && c.parametric) {
                    found.problems.push(format!(
                        "dynamic same-class edge {from} -> {to} on a class not declared parametric"
                    ));
                } else if fi >= ti {
                    found.problems.push(format!(
                        "dynamic edge {from} -> {to} acquired in descending index order"
                    ));
                }
                continue;
            }
        }
        let (Some(rf), Some(rt)) = (rank(f), rank(t)) else {
            continue; // unclassified endpoint: outside the static model
        };
        if rf > rt {
            found.problems.push(format!(
                "dynamic edge {f} -> {t} violates rank order {ranks:?}"
            ));
        } else if f != t && !static_classified.contains(&(f, t)) {
            found.problems.push(format!(
                "dynamic edge {f} -> {t} missing from the static lock graph \
                 (firefly-lint's receiver map is stale)"
            ));
        }
    }
    for (f, t) in &static_classified {
        let mark = if observed_classes.contains(&(*f, *t)) {
            "observed"
        } else {
            "not observed dynamically"
        };
        found.notes.push(format!("static edge {f} -> {t}: {mark}"));
    }
    found.notes.push(format!(
        "{} observed lock edge(s) ({parametric} parametric) checked against the static graph",
        observed.len()
    ));
    found
}

/// Gate 2: observed publication classes against statically paired
/// atomic locations.
pub fn publications(
    labels: &[(String, Vec<String>)],
    locations: &[LocationSummary],
    observed: &BTreeSet<String>,
) -> Findings {
    let mut found = Findings::default();
    for class in observed {
        let own = [class.clone()];
        let candidates: &[String] = labels
            .iter()
            .find(|(label, _)| label == class)
            .map_or(&own[..], |(_, mapped)| mapped.as_slice());
        let matched: Vec<&str> = locations
            .iter()
            .filter(|l| (l.paired || l.allowlisted) && candidates.contains(&l.name))
            .map(|l| l.name.as_str())
            .collect();
        if matched.is_empty() {
            found.problems.push(format!(
                "dynamic release->acquire publication on {class:?} has no statically \
                 paired atomic location (candidates: {candidates:?})"
            ));
        } else {
            found.notes.push(format!(
                "publication class {class}: statically paired at {}",
                matched.join(", ")
            ));
        }
    }
    found
}

/// Gate 3: each auditing model's quiescent pool accounting.
pub fn accounting(audits: &BTreeMap<&'static str, Vec<(String, u64)>>) -> Findings {
    let mut found = Findings::default();
    for (model, counters) in audits {
        let counter = |name: &str| counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        match (counter("outstanding"), counter("retained")) {
            (Some(outstanding), Some(retained)) if outstanding == retained => {
                found.notes.push(format!(
                    "accounting {model}: outstanding {outstanding} == retained {retained}"
                ));
            }
            (Some(outstanding), Some(retained)) => found.problems.push(format!(
                "model {model}: pool accounting drift -- outstanding {outstanding} \
                 != retained {retained}"
            )),
            _ => found.problems.push(format!(
                "model {model}: audit missing outstanding/retained counters ({counters:?})"
            )),
        }
    }
    found
}

/// Gate 4: observed protocol transitions against the spec's legal table
/// and coverage allowlist.
pub fn protocol(legal: &[String], allowlist: &[String], observed: &BTreeSet<String>) -> Findings {
    let mut found = Findings::default();
    for row in observed.iter().filter(|r| !legal.contains(r)) {
        found.problems.push(format!(
            "observed protocol transition not in the spec's legal table: {row:?}"
        ));
    }
    for row in allowlist {
        if !legal.contains(row) {
            found.problems.push(format!(
                "coverage allowlist names a row the spec does not contain: {row:?}"
            ));
        } else if observed.contains(row) {
            found.problems.push(format!(
                "stale coverage allowlist entry: {row:?} is now observed dynamically"
            ));
        }
    }
    let (mut seen, mut allowed) = (0, 0);
    for row in legal {
        if observed.contains(row) {
            seen += 1;
        } else if allowlist.contains(row) {
            allowed += 1;
            found.notes.push(format!(
                "transition {row}: allowlisted (unexercised by design)"
            ));
        } else {
            found.problems.push(format!(
                "spec transition never observed dynamically (coverage gap): {row:?}"
            ));
        }
    }
    found.notes.push(format!(
        "{} legal transition(s): {seen} observed, {allowed} allowlisted, {} gap(s)",
        legal.len(),
        legal.len() - seen - allowed
    ));
    found
}

/// All four gates over one static analysis and one dynamic report.
pub fn all(engine: &Engine, analysis: &Analysis, report: &Report) -> Findings {
    let config = &engine.config;
    let mut found = lock_edges(&config.lock_order, &analysis.lock_edges, &report.edges);
    found.merge(publications(
        &config.publication_labels,
        &analysis.dataflow.locations,
        &report.publications,
    ));
    found.merge(accounting(&report.accounting));
    // Without a protocol.toml every observed row is off-spec.
    let (legal, allowlist) = engine.protocol.as_ref().map_or((&[][..], &[][..]), |spec| {
        (&spec.transitions[..], &spec.coverage_allowlist[..])
    });
    found.merge(protocol(legal, allowlist, &report.transitions));
    found
}

/// Static analysis of the tree at `root`, the smoke run, then the four
/// gates, narrated to `out`. `Ok(true)` only when the tree is lint-clean,
/// the smoke run held, and no gate objected.
pub fn verify(root: &Path, out: &mut dyn Write) -> io::Result<bool> {
    let engine = Engine::for_root(root);
    let analysis = engine.analyze(root)?;
    let report = smoke::run(&Explorer::new(), &smoke::Spec::smoke(), out);
    let found = all(&engine, &analysis, &report);
    writeln!(
        out,
        "firefly-check: static-vs-dynamic gates (lock edges, publications, accounting, protocol)"
    )?;
    for note in &found.notes {
        writeln!(out, "    {note}")?;
    }
    for d in &analysis.diagnostics {
        writeln!(out, "FAIL  {d}")?;
    }
    for problem in &found.problems {
        writeln!(out, "FAIL  {problem}")?;
    }
    Ok(analysis.diagnostics.is_empty() && report.ok && found.passed())
}
