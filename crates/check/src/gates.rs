//! The two static-vs-dynamic cross-validation gates: pure functions
//! over `firefly-lint`'s static [`Analysis`], the generated protocol
//! table ([`TRANSITIONS`]) and the checker's dynamic [`Report`], in one
//! process.
//!
//! 1. **Publications** — every atomic location class on which the race
//!    detector consumed a release→acquire edge must name a location the
//!    static atomic-publication pass proved paired.
//! 2. **Protocol transitions** — the observed `(state, packet-type,
//!    flags) -> action` rows must be exactly the legal table that
//!    `crates/core/build.rs` generates from protocol.toml: a row outside
//!    it is illegal, a legal row not observed is a coverage gap.
//!
//! Lock nesting is not a gate: `firefly-lint`'s `nested-lock` rule owns
//! it, and the scheduler fails any schedule that closes a cycle among
//! the locks it actually acquires (a lock inversion, `bug-abba`).
//!
//! [`verify`] is the whole pipeline — analysis, smoke run, gates — and
//! is what `firefly-check verify` and the tier-1 test both call.

use crate::smoke::{self, Report};
use crate::Explorer;
use firefly_lint::dataflow::LocationSummary;
use firefly_lint::{Analysis, Engine};
use firefly_rpc::witness::TRANSITIONS;
use std::collections::BTreeSet;
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

/// Gate 1: observed publication classes against statically paired
/// atomic locations, matched by name.
pub fn publications(locations: &[LocationSummary], observed: &BTreeSet<String>) -> Findings {
    let mut found = Findings::default();
    for class in observed {
        let paired = locations
            .iter()
            .any(|l| (l.paired || l.allowlisted) && l.name == *class);
        if paired {
            found
                .notes
                .push(format!("publication class {class}: statically paired at {class}"));
        } else {
            found.problems.push(format!(
                "dynamic release->acquire publication on {class:?} has no statically \
                 paired atomic location of that name"
            ));
        }
    }
    found
}

/// Gate 2: observed protocol transitions against the legal table.
pub fn protocol(legal: &[&str], observed: &BTreeSet<String>) -> Findings {
    let mut found = Findings::default();
    let off_spec: Vec<&String> = observed
        .iter()
        .filter(|r| !legal.contains(&r.as_str()))
        .collect();
    for row in &off_spec {
        found.problems.push(format!(
            "observed protocol transition not in the spec's legal table: {row:?}"
        ));
    }
    let gaps: Vec<&str> = legal
        .iter()
        .copied()
        .filter(|r| !observed.contains(*r))
        .collect();
    for row in &gaps {
        found.problems.push(format!(
            "spec transition never observed dynamically (coverage gap): {row:?}"
        ));
    }
    found.notes.push(format!(
        "{} legal transition(s): {} observed, {} gap(s), {} off-spec",
        legal.len(),
        legal.len() - gaps.len(),
        gaps.len(),
        off_spec.len()
    ));
    found
}

/// Both gates over one static analysis and one dynamic report.
pub fn all(analysis: &Analysis, report: &Report) -> Findings {
    let mut found = publications(&analysis.dataflow.locations, &report.publications);
    found.merge(protocol(&TRANSITIONS, &report.transitions));
    found
}

/// Static analysis of the tree at `root`, the smoke run, then the two
/// gates, narrated to `out`. `Ok(true)` only when the tree is lint-clean,
/// the smoke run held, and no gate objected.
pub fn verify(root: &Path, out: &mut dyn Write) -> io::Result<bool> {
    let engine = Engine::for_root(root);
    let analysis = engine.analyze(root)?;
    let report = smoke::run(&Explorer::new(), &smoke::Spec::smoke(), out);
    let found = all(&analysis, &report);
    writeln!(
        out,
        "firefly-check: static-vs-dynamic gates (publications, protocol)"
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
