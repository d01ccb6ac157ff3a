//! The full-registry run: every structure model under DFS (or DPOR) plus
//! seeded random sampling — all must pass — then the two protocol
//! drivers, then every seeded-bug model, which must each *fail* with a
//! schedule that replays. One function, [`run`], drives it and hands
//! back the dynamic evidence the cross-validation gates
//! ([`crate::gates`]) read: publication classes and protocol
//! transitions. The `firefly-check` binary's default mode and
//! `verify` subcommand, and the tier-1 test in `tests/verify.rs`, all
//! call it. The wire scenario runs on a thread of its own and fails as
//! hung past [`WIRE_SCENARIO_BOUND`], so a lost wakeup in the runtime
//! fails the run instead of stalling it.

use crate::{models, render_failure, scenario, Explorer, Mode, Model, Outcome};
use std::collections::BTreeSet;
use std::io::Write;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

/// How long the wire scenario, the one phase that runs the runtime on
/// real threads, may take before it counts as hung. A healthy run of
/// the whole `verify` takes 1.2–3.2 s on a 2-vCPU VM; a runtime thread
/// that misses its wakeup parks for ever instead, and the endpoint's
/// shutdown waits on it.
pub const WIRE_SCENARIO_BOUND: Duration = Duration::from_secs(30);

/// Runs `phase` on a thread of its own and waits at most `bound` for its
/// result. Past the bound the phase is reported as hung, naming it, and
/// its thread is left where it is blocked. The result comes back over a
/// `std` channel, not over the runtime's own, which may be the code
/// that lost the wakeup.
fn bounded<T: Send + 'static>(
    name: &str,
    bound: Duration,
    phase: impl FnOnce() -> Result<T, String> + Send + 'static,
) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || tx.send(phase()));
    match rx.recv_timeout(bound) {
        Ok(result) => result,
        Err(RecvTimeoutError::Timeout) => Err(format!(
            "{name}: no result within {} s: a thread is blocked for good (a lost wakeup?)",
            bound.as_secs_f64()
        )),
        Err(RecvTimeoutError::Disconnected) => Err(format!("{name}: panicked")),
    }
}

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
    /// Skip the structure models and the protocol drivers.
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
    /// Every structure model passed, both protocol drivers drove their
    /// rows, and every seeded bug was caught and replayed.
    pub ok: bool,
    /// Atomic location classes on which a release→acquire publication
    /// edge was consumed.
    pub publications: BTreeSet<String>,
    /// protocol.toml rows the caller drill and the wire scenario drove
    /// ([`scenario::caller_transitions`] ∪
    /// [`scenario::wire_transitions`]).
    pub transitions: BTreeSet<String>,
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
                report.publications.extend(outcome.publications);
            }
        }
        // The protocol rows come from production code driven directly:
        // the real sharded call table through every caller row, a live
        // endpoint through every server row.
        report.transitions.extend(scenario::caller_transitions());
        match bounded(
            "wire scenario",
            WIRE_SCENARIO_BOUND,
            scenario::wire_transitions,
        ) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_phase_past_its_bound_fails_by_name() {
        let never = || -> Result<(), String> {
            loop {
                thread::park();
            }
        };
        let err = bounded("stuck phase", Duration::from_millis(50), never).unwrap_err();
        assert!(err.starts_with("stuck phase: no result within 0.05 s"), "{err}");
    }
}
