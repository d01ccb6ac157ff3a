//! The full-registry run: every structure model under DFS (or DPOR) plus
//! seeded random sampling — all must pass — then the wire scenario, then
//! every seeded-bug model, which must each *fail* with a schedule that
//! replays. One function, [`run`], drives it and hands back the dynamic
//! evidence the cross-validation gates ([`crate::gates`]) read: observed
//! lock edges, publication classes, per-model accounting and protocol
//! transitions. The `firefly-check` binary's default mode and `verify`
//! subcommand, and the tier-1 test in `tests/verify.rs`, all call it.

use crate::{models, render_failure, scenario, Explorer, Mode, Model, Outcome};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;

/// How hard to explore.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Schedule cap per structure model for the DFS/DPOR pass.
    pub dfs_cap: usize,
    /// Random schedules sampled per structure model.
    pub random_schedules: usize,
    /// Base seed of the random pass.
    pub seed: u64,
    /// Explore with partial-order reduction instead of plain DFS.
    pub dpor: bool,
    /// Skip the structure models and the wire scenario.
    pub bugs_only: bool,
    /// Print caught bugs' failing schedules in full.
    pub verbose: bool,
}

impl Spec {
    /// The default run.
    pub fn full() -> Spec {
        Spec {
            dfs_cap: 4000,
            random_schedules: 1000,
            seed: 0x00c0_ffee,
            dpor: false,
            bugs_only: false,
            verbose: false,
        }
    }

    /// Tighter caps for CI and tier-1 (`--smoke`, `verify`).
    pub fn smoke() -> Spec {
        Spec {
            dfs_cap: 400,
            random_schedules: 150,
            ..Spec::full()
        }
    }
}

/// What a run observed, unioned over every passing schedule.
#[derive(Debug, Default)]
pub struct Report {
    /// Every structure model passed, the wire scenario drove its rows,
    /// and every seeded bug was caught and replayed.
    pub ok: bool,
    /// Lock edges by instance name (`shard[2]` → `shard[3]`, `calltable`
    /// → `pool`).
    pub edges: BTreeSet<(String, String)>,
    /// Atomic location classes on which a release→acquire publication
    /// edge was consumed.
    pub publications: BTreeSet<String>,
    /// Quiescent audit counters of each auditing model.
    pub accounting: BTreeMap<&'static str, Vec<(String, u64)>>,
    /// protocol.toml rows the models and the wire scenario drove.
    pub transitions: BTreeSet<String>,
}

impl Report {
    fn absorb(&mut self, outcome: Outcome) {
        self.edges.extend(outcome.edges);
        self.publications.extend(outcome.publications);
        self.transitions.extend(outcome.transitions);
        if !outcome.accounting.is_empty() {
            self.accounting.insert(outcome.model, outcome.accounting);
        }
    }
}

/// Prints one outcome the way the binary reports it and returns whether
/// it met the expectation (pass, or a caught seeded bug).
pub fn summarize(
    out: &mut dyn Write,
    outcome: &Outcome,
    expect_failure: bool,
    verbose: bool,
) -> bool {
    let ok = match (&outcome.failure, expect_failure) {
        (None, false) => {
            let _ = writeln!(
                out,
                "  pass  {:<18} {} schedule(s){}, digest {:#018x}",
                outcome.model,
                outcome.schedules,
                if outcome.exhausted {
                    " (exhausted)"
                } else {
                    ""
                },
                outcome.digest,
            );
            true
        }
        (Some(report), true) => {
            let decisions: Vec<String> = report.decisions.iter().map(|d| d.to_string()).collect();
            let _ = writeln!(
                out,
                "  caught {:<17} {} at schedule {} (replay --model {} --replay {})",
                outcome.model,
                report.failure,
                report.schedule,
                outcome.model,
                if decisions.is_empty() {
                    "-".to_string()
                } else {
                    decisions.join(",")
                },
            );
            true
        }
        (Some(report), false) => {
            let _ = write!(out, "FAIL\n{}", render_failure(outcome.model, report, true));
            false
        }
        (None, true) => {
            let _ = writeln!(
                out,
                "FAIL  {:<18} seeded bug NOT detected in {} schedule(s)",
                outcome.model, outcome.schedules
            );
            false
        }
    };
    if ok && verbose {
        if let Some(report) = &outcome.failure {
            let _ = write!(out, "{}", render_failure(outcome.model, report, true));
        }
    }
    ok
}

/// The one-line DPOR summary: explored and pruned counts, exhaustion.
pub fn dpor_line(out: &mut dyn Write, outcome: &Outcome) {
    let _ = writeln!(
        out,
        "dpor {} explored {} schedule(s), pruned {}, exhausted {}",
        outcome.model, outcome.schedules, outcome.pruned, outcome.exhausted
    );
}

/// Re-runs a caught bug from its recorded decision list and checks the
/// same failure kind reproduces — the replay contract the failure
/// report advertises.
fn replay_reproduces(
    out: &mut dyn Write,
    explorer: &Explorer,
    model: &Model,
    outcome: &Outcome,
) -> bool {
    let Some(report) = &outcome.failure else {
        return false;
    };
    let replayed = explorer.explore(
        model,
        &Mode::Replay {
            decisions: report.decisions.clone(),
        },
    );
    match &replayed.failure {
        Some(r) => {
            let same =
                std::mem::discriminant(&r.failure) == std::mem::discriminant(&report.failure);
            if !same {
                let _ = writeln!(
                    out,
                    "FAIL  {:<18} replay produced {} instead of {}",
                    model.name, r.failure, report.failure
                );
            }
            same
        }
        None => {
            let _ = writeln!(
                out,
                "FAIL  {:<18} replay did not reproduce the failure",
                model.name
            );
            false
        }
    }
}

/// Runs the registry under `spec`, narrating to `out`.
pub fn run(explorer: &Explorer, spec: &Spec, out: &mut dyn Write) -> Report {
    let mut report = Report {
        ok: true,
        ..Report::default()
    };
    if !spec.bugs_only {
        let _ = writeln!(
            out,
            "firefly-check: structure models ({} cap {}, {} random schedules, seed {:#x})",
            if spec.dpor { "dpor" } else { "dfs" },
            spec.dfs_cap,
            spec.random_schedules,
            spec.seed,
        );
        for model in models::structure_models() {
            let max_schedules = spec.dfs_cap;
            let mode = if spec.dpor {
                Mode::Dpor { max_schedules }
            } else {
                Mode::Dfs { max_schedules }
            };
            let random = Mode::Random {
                seed: spec.seed,
                schedules: spec.random_schedules,
            };
            for mode in [mode, random] {
                let outcome = explorer.explore(&model, &mode);
                if matches!(mode, Mode::Dpor { .. }) {
                    dpor_line(out, &outcome);
                }
                report.ok &= summarize(out, &outcome, false, spec.verbose);
                report.absorb(outcome);
            }
        }
        // The wire scenario drives a live endpoint through the
        // server-side spec rows the models cannot reach.
        match scenario::wire_transitions() {
            Ok(rows) => report.transitions.extend(rows),
            Err(e) => {
                let _ = writeln!(out, "FAIL  {e}");
                report.ok = false;
            }
        }
    }

    let _ = writeln!(
        out,
        "firefly-check: seeded-bug models (each must be caught and replay)"
    );
    for model in models::bug_models() {
        let outcome = explorer.explore(&model, &Mode::Dfs { max_schedules: 500 });
        let caught = summarize(out, &outcome, true, spec.verbose);
        report.ok &= caught && replay_reproduces(out, explorer, &model, &outcome);
    }
    report
}
