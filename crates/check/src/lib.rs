//! `firefly-check`: a deterministic, seedable, schedule-exploring
//! concurrency checker (mini-loom) for the in-tree sync layer.
//!
//! The paper's fast path works only because its concurrency discipline
//! holds: a shared packet-buffer pool recycled on the fly (§3.2), a
//! shared call table with slot reuse, and a demultiplexer that wakes
//! exactly one waiting thread. `firefly-lint` checks that discipline
//! *statically*; this crate checks it *dynamically* by running small
//! models of those structures under a cooperative scheduler
//! ([`sched::Sched`], installed through `firefly_sync::hook`) and
//! exploring bounded interleavings:
//!
//! * **DFS mode** enumerates schedules exhaustively by backtracking
//!   over the decision list (capped by `max_schedules`).
//! * **Random mode** samples schedules from a seed; each schedule's
//!   RNG seed derives from the base seed via `splitmix64`, so one `u64`
//!   reproduces the whole run.
//! * **Replay mode** re-executes one schedule from an explicit
//!   decision list — the failure report prints exactly this list.
//!
//! Failures (deadlock, lost wakeup, lock-order inversion, invariant
//! panic, step budget) come with the decision list and deterministic
//! event trace of the failing schedule. Passing schedules contribute
//! their observed lock edges, publication classes, audit counters and
//! protocol transitions, which [`smoke::run`] unions into one typed
//! [`smoke::Report`] and [`gates`] cross-validates in-process against
//! `firefly-lint`'s static analysis (`firefly-check verify`,
//! tests/verify.rs).

#![forbid(unsafe_code)]

pub mod args;
pub mod gates;
pub mod models;
pub mod races;
pub mod scenario;
pub mod sched;
pub mod smoke;
pub mod vc;

use sched::{AbortSignal, Failure, Op, Sched, SleepEntry, StepRec};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// One checkable model: a fresh set of shared structures and thread
/// bodies per schedule.
pub struct ModelRun {
    /// Runs once per schedule with the hook installed (before any
    /// thread spawns) to attach lock-class labels via `check_label`.
    pub label: Box<dyn FnOnce() + Send>,
    /// The model's threads; index order is thread id order.
    pub threads: Vec<Box<dyn FnOnce() + Send>>,
    /// Runs after all threads joined, *without* the hook: asserts the
    /// quiescent-state invariants (leak/double-release detection).
    pub finale: Box<dyn FnOnce() + Send>,
    /// Optional quiescent accounting readout, run after a clean finale:
    /// named counters (e.g. pool `outstanding` vs slot `retained`) for
    /// the accounting gate ([`gates::accounting`]).
    pub audit: Option<Box<dyn FnOnce() -> Vec<(String, u64)> + Send>>,
    /// Optional protocol-transition readout, run after a clean finale
    /// (and after `audit`): the protocol.toml rows this model's
    /// structures actually drove, as canonical spec strings, for the
    /// protocol gate ([`gates::protocol`]).
    pub transitions: Option<Box<dyn FnOnce() -> Vec<String> + Send>>,
}

/// A named model in the registry.
pub struct Model {
    /// Registry name (`--model` argument).
    pub name: &'static str,
    /// One-line description for `--list`.
    pub about: &'static str,
    /// Builds a fresh run; called once per schedule.
    pub make: fn() -> ModelRun,
}

/// How to drive the decision points.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Exhaustive depth-first enumeration, capped at `max_schedules`.
    Dfs {
        /// Cap on explored schedules (exhaustion may hit first).
        max_schedules: usize,
    },
    /// Seeded random sampling of `schedules` schedules.
    Random {
        /// Base seed; per-schedule seeds derive via splitmix64.
        seed: u64,
        /// Number of schedules to sample.
        schedules: usize,
    },
    /// Replay exactly one schedule from a recorded decision list.
    Replay {
        /// The `chosen` values from a failure report.
        decisions: Vec<usize>,
    },
    /// Sleep-set + source-set dynamic partial-order reduction: explores
    /// one representative per Mazurkiewicz trace class, with backtrack
    /// points inserted only where the executed schedule proves two
    /// slices dependent. `max_schedules` caps runs (explored + pruned).
    Dpor {
        /// Cap on total runs (exhaustion may hit first).
        max_schedules: usize,
    },
}

/// A failing schedule, with everything needed to reproduce it.
#[derive(Debug)]
pub struct FailureReport {
    /// What went wrong.
    pub failure: Failure,
    /// The decision list to feed `Mode::Replay`.
    pub decisions: Vec<usize>,
    /// 1-based index of the failing schedule within the run.
    pub schedule: usize,
    /// The failing schedule's RNG seed (random mode only).
    pub seed: Option<u64>,
    /// Deterministic event log of the failing schedule.
    pub trace: Vec<String>,
}

/// The result of exploring one model.
pub struct Outcome {
    /// Model name.
    pub model: &'static str,
    /// Schedules actually executed.
    pub schedules: usize,
    /// True when DFS enumerated the full tree within its cap, or DPOR
    /// drained every backtrack set within its cap.
    pub exhausted: bool,
    /// DPOR only: schedules abandoned as sleep-set-redundant (their
    /// continuations were provably equivalent to explored ones).
    pub pruned: usize,
    /// Condvar waits that parked a thread, summed over passing
    /// schedules: zero means the model never reached a wait.
    pub parks: usize,
    /// The first failure, if any (exploration stops there).
    pub failure: Option<FailureReport>,
    /// Class-level lock edges observed across all passing schedules.
    pub edges: BTreeSet<(String, String)>,
    /// Atomic location classes on which a release→acquire publication
    /// edge was consumed in at least one passing schedule.
    pub publications: BTreeSet<String>,
    /// The last passing schedule's audit readout (named counters),
    /// empty when the model declares no audit.
    pub accounting: Vec<(String, u64)>,
    /// Protocol.toml transition rows observed across all passing
    /// schedules (union). Deliberately *not* folded into `digest`: the
    /// digest fingerprints schedules, and the transition set is a
    /// coverage artifact, not a scheduling one.
    pub transitions: BTreeSet<String>,
    /// FNV-1a digest over every passing schedule's event log: two runs
    /// with the same mode and seed must produce identical digests.
    pub digest: u64,
}

thread_local! {
    static SILENCED: Cell<bool> = const { Cell::new(false) };
}

static PANIC_HOOK: Once = Once::new();

/// Routes panics from model threads away from stderr: seeded-bug
/// fixtures panic on purpose (AbortSignal unwinds, finale asserts),
/// and the default hook would spam every test run with backtraces.
fn install_panic_silencer() {
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SILENCED.try_with(Cell::get).unwrap_or(false) {
                return;
            }
            prev(info);
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= b as u64;
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

/// Drives one model through many schedules.
///
/// Each `Explorer` leaks one [`Sched`] (the hook needs `'static`);
/// explorers are created per test/binary invocation, so the leak is
/// bounded and intentional.
pub struct Explorer {
    sched: &'static Sched,
    /// Per-schedule step budget (livelock guard). Default 20 000.
    pub step_budget: usize,
}

impl Explorer {
    /// A fresh explorer with its own scheduler.
    pub fn new() -> Explorer {
        install_panic_silencer();
        Explorer {
            sched: Box::leak(Box::new(Sched::new())),
            step_budget: 20_000,
        }
    }

    /// Explores `model` under `mode`; stops at the first failure.
    pub fn explore(&self, model: &Model, mode: &Mode) -> Outcome {
        if let Mode::Dpor { max_schedules } = mode {
            return self.explore_dpor(model, *max_schedules);
        }
        let mut outcome = Outcome {
            model: model.name,
            schedules: 0,
            exhausted: false,
            pruned: 0,
            parks: 0,
            failure: None,
            edges: BTreeSet::new(),
            publications: BTreeSet::new(),
            accounting: Vec::new(),
            transitions: BTreeSet::new(),
            digest: FNV_OFFSET,
        };
        let mut prefix: Vec<usize> = match mode {
            Mode::Replay { decisions } => decisions.clone(),
            _ => Vec::new(),
        };
        let mut seed_state = match mode {
            Mode::Random { seed, .. } => *seed,
            _ => 0,
        };
        loop {
            outcome.schedules += 1;
            let schedule_seed = match mode {
                Mode::Random { .. } => Some(firefly_rng::splitmix64(&mut seed_state)),
                _ => None,
            };
            let (result, finale_err, accounting, transitions) =
                self.run_one(model, prefix.clone(), schedule_seed.map(firefly_rng::Rng::new));
            let failure = result.failure.or_else(|| {
                finale_err.map(|message| Failure::Invariant { message })
            });
            if let Some(failure) = failure {
                outcome.failure = Some(FailureReport {
                    failure,
                    decisions: result.decisions.iter().map(|&(c, _)| c).collect(),
                    schedule: outcome.schedules,
                    seed: schedule_seed,
                    trace: result.trace,
                });
                return outcome;
            }
            for edge in result.named_edges {
                outcome.edges.insert(edge);
            }
            outcome.publications.extend(result.publications);
            outcome.parks += result.parks;
            if let Some(accounting) = accounting {
                outcome.accounting = accounting;
            }
            if let Some(transitions) = transitions {
                outcome.transitions.extend(transitions);
            }
            for line in &result.trace {
                outcome.digest = fnv_fold(outcome.digest, line.as_bytes());
                outcome.digest = fnv_fold(outcome.digest, b"\n");
            }
            match mode {
                Mode::Replay { .. } => return outcome,
                Mode::Random { schedules, .. } => {
                    if outcome.schedules >= *schedules {
                        return outcome;
                    }
                }
                Mode::Dfs { max_schedules } => {
                    let mut d = result.decisions;
                    while matches!(d.last(), Some(&(c, o)) if c + 1 >= o) {
                        d.pop();
                    }
                    match d.last_mut() {
                        None => {
                            outcome.exhausted = true;
                            return outcome;
                        }
                        Some(last) => last.0 += 1,
                    }
                    prefix = d.iter().map(|&(c, _)| c).collect();
                    if outcome.schedules >= *max_schedules {
                        return outcome;
                    }
                }
                Mode::Dpor { .. } => unreachable!("handled by explore_dpor"),
            }
        }
    }

    /// Sleep-set + source-set DPOR (Flanagan–Godefroid style, adapted to
    /// schedule-at-a-time re-execution). The driver keeps one node per
    /// decision of the current path. After each run it inserts, for
    /// every executed step `j`, its thread into the backtrack set of the
    /// node before the *last* step `i < j` whose slice is dependent with
    /// `j`'s (the per-run recursion covers transitively earlier races).
    /// Threads whose branch at a node is already explored go into the
    /// sleep set handed to sibling branches; the scheduler abandons any
    /// continuation in which every eligible thread sleeps, and those
    /// abandoned runs are the `pruned` count. Notify-target decisions
    /// are enumerated exhaustively — partial-order reduction only ever
    /// prunes *thread* choices, never wakeup targets.
    fn explore_dpor(&self, model: &Model, max_schedules: usize) -> Outcome {
        struct Node {
            /// Scheduling node: eligible tids in option order. Empty for
            /// notify-target nodes (options are waiter indices).
            enabled: Vec<usize>,
            /// Option index taken on the current path.
            chosen: usize,
            /// Option indices still to explore.
            backtrack: BTreeSet<usize>,
            /// Explored option index → that thread's first slice plus
            /// the registration-index bound when it was recorded (the
            /// `fresh_from` of a sleep entry built from it).
            done: BTreeMap<usize, (Vec<Op>, usize)>,
            /// Sleep set at this node (before its decision applies).
            sleep: Vec<SleepEntry>,
        }

        let mut outcome = Outcome {
            model: model.name,
            schedules: 0,
            exhausted: false,
            pruned: 0,
            parks: 0,
            failure: None,
            edges: BTreeSet::new(),
            publications: BTreeSet::new(),
            accounting: Vec::new(),
            transitions: BTreeSet::new(),
            digest: FNV_OFFSET,
        };
        let mut nodes: Vec<Node> = Vec::new();
        let mut prefix: Vec<usize> = Vec::new();
        let mut sleep: Vec<SleepEntry> = Vec::new();
        let mut sleep_from = usize::MAX;
        loop {
            let (result, finale_err, accounting, transitions) =
                self.run_one_plan(model, prefix.clone(), None, sleep.clone(), sleep_from);
            if std::env::var_os("FIREFLY_DPOR_DEBUG").is_some() {
                eprintln!(
                    "RUN prefix={prefix:?} sleep={sleep:?} from={sleep_from} redundant={} decisions={:?}",
                    result.redundant, result.decisions
                );
                for (si, s) in result.steps.iter().enumerate() {
                    eprintln!(
                        "  step {si}: t{} di={:?} cursor={} enabled={:?} ops={:?}",
                        s.tid, s.decision_index, s.pick_cursor, s.enabled, s.ops
                    );
                }
            }
            if result.redundant {
                outcome.pruned += 1;
            } else {
                outcome.schedules += 1;
                let failure = result
                    .failure
                    .or_else(|| finale_err.map(|message| Failure::Invariant { message }));
                if let Some(failure) = failure {
                    outcome.failure = Some(FailureReport {
                        failure,
                        decisions: result.decisions.iter().map(|&(c, _)| c).collect(),
                        schedule: outcome.schedules,
                        seed: None,
                        trace: result.trace,
                    });
                    return outcome;
                }
                for edge in result.named_edges {
                    outcome.edges.insert(edge);
                }
                outcome.publications.extend(result.publications.iter().cloned());
                outcome.parks += result.parks;
                if let Some(accounting) = accounting {
                    outcome.accounting = accounting;
                }
                if let Some(transitions) = transitions {
                    outcome.transitions.extend(transitions);
                }
                for line in &result.trace {
                    outcome.digest = fnv_fold(outcome.digest, line.as_bytes());
                    outcome.digest = fnv_fold(outcome.digest, b"\n");
                }
            }

            // Map decision index → step index for scheduling decisions.
            let step_of_decision: BTreeMap<usize, usize> = result
                .steps
                .iter()
                .enumerate()
                .filter_map(|(si, s)| s.decision_index.map(|di| (di, si)))
                .collect();
            // Extend the node stack with this run's new decisions (also
            // for redundant runs: their executed prefixes are real).
            for di in nodes.len()..result.decisions.len() {
                let (chosen, options) = result.decisions[di];
                let node = match step_of_decision.get(&di) {
                    Some(&si) => Node {
                        enabled: result.steps[si].enabled.clone(),
                        chosen,
                        backtrack: BTreeSet::new(),
                        done: BTreeMap::new(),
                        sleep: result.decision_sleeps[di].clone(),
                    },
                    None => Node {
                        enabled: Vec::new(),
                        chosen,
                        // Notify targets: enumerate every alternative.
                        backtrack: (0..options).filter(|&c| c != chosen).collect(),
                        done: BTreeMap::new(),
                        sleep: result.decision_sleeps[di].clone(),
                    },
                };
                nodes.push(node);
            }
            // Record each scheduling decision's executed slice (fills in
            // the branch choice just taken and refreshes prefix nodes).
            for (&di, &si) in &step_of_decision {
                if di < nodes.len() {
                    let chosen = result.decisions[di].0;
                    let step = &result.steps[si];
                    nodes[di]
                        .done
                        .insert(chosen, (step.ops.clone(), step.objs_before));
                    nodes[di].backtrack.remove(&chosen);
                }
            }
            // Backtrack-set insertion from this run's dependent races.
            let steps: &[StepRec] = &result.steps;
            for j in 0..steps.len() {
                let q = steps[j].tid;
                for i in (0..j).rev() {
                    if steps[i].tid == q {
                        continue;
                    }
                    if !sched::slices_dependent(&steps[i].ops, &steps[j].ops) {
                        continue;
                    }
                    if let Some(&di) = steps[i].decision_index.as_ref() {
                        let node = &mut nodes[di];
                        match node.enabled.iter().position(|&t| t == q) {
                            Some(pos) => {
                                if !node.done.contains_key(&pos) {
                                    node.backtrack.insert(pos);
                                }
                            }
                            None => {
                                for pos in 0..node.enabled.len() {
                                    if !node.done.contains_key(&pos) {
                                        node.backtrack.insert(pos);
                                    }
                                }
                            }
                        }
                    }
                    break; // only the last dependent step
                }
            }

            if outcome.schedules + outcome.pruned >= max_schedules {
                return outcome;
            }
            // Deepest pending branch next (DFS order).
            let Some(k) = (0..nodes.len()).rev().find(|&k| !nodes[k].backtrack.is_empty())
            else {
                outcome.exhausted = true;
                return outcome;
            };
            let choice = *nodes[k].backtrack.iter().next().expect("nonempty");
            nodes[k].backtrack.remove(&choice);
            // Sibling branches sleep on every already-explored thread
            // choice at this node, carrying its recorded first slice.
            sleep = nodes[k].sleep.clone();
            if !nodes[k].enabled.is_empty() {
                for (&pos, (slice, objs_before)) in &nodes[k].done {
                    sleep.push(SleepEntry {
                        tid: nodes[k].enabled[pos],
                        ops: slice.clone(),
                        fresh_from: *objs_before,
                    });
                }
            }
            nodes[k].chosen = choice;
            nodes.truncate(k + 1);
            prefix = nodes.iter().map(|n| n.chosen).collect();
            sleep_from = prefix.len() - 1;
            if std::env::var_os("FIREFLY_DPOR_DEBUG").is_some() {
                eprintln!("BRANCH k={k} choice={choice} sleep={sleep:?}");
            }
        }
    }

    /// Runs exactly one schedule; returns the schedule result, any
    /// finale panic message, and the audit and transition readouts
    /// (clean runs only).
    fn run_one(
        &self,
        model: &Model,
        prefix: Vec<usize>,
        rng: Option<firefly_rng::Rng>,
    ) -> RunReadout {
        self.run_one_plan(model, prefix, rng, Vec::new(), usize::MAX)
    }

    /// [`Explorer::run_one`] with a DPOR sleep plan.
    fn run_one_plan(
        &self,
        model: &Model,
        prefix: Vec<usize>,
        rng: Option<firefly_rng::Rng>,
        sleep: Vec<SleepEntry>,
        sleep_from: usize,
    ) -> RunReadout {
        let run = (model.make)();
        let n = run.threads.len();
        self.sched
            .reset_dpor(n, prefix, rng, self.step_budget, sleep, sleep_from);

        // Label phase: on this thread, hook installed, before any model
        // thread exists — on_label is non-blocking and needs no tid.
        firefly_sync::hook::install(self.sched);
        (run.label)();
        firefly_sync::hook::uninstall();

        let sched = self.sched;
        let handles: Vec<_> = run
            .threads
            .into_iter()
            .enumerate()
            .map(|(tid, body)| {
                std::thread::Builder::new()
                    .name(format!("check-t{tid}"))
                    .spawn(move || {
                        let _ = SILENCED.try_with(|c| c.set(true));
                        sched::set_tid(Some(tid));
                        firefly_sync::hook::install(sched);
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            sched.arrive(tid);
                            body();
                        }));
                        let err = match result {
                            Ok(()) => None,
                            Err(payload) => {
                                if payload.is::<AbortSignal>() {
                                    None
                                } else {
                                    Some(panic_message(payload.as_ref()))
                                }
                            }
                        };
                        sched.finish(tid, err);
                        firefly_sync::hook::uninstall();
                        sched::set_tid(None);
                    })
                    .expect("spawn model thread")
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        let result = self.sched.take_result();

        // Finale: quiescent single-threaded asserts, no hook installed.
        // A sleep-set-redundant run was abandoned mid-flight, so its
        // quiescent invariants are meaningless — skip them. The audit
        // and transition readouts only run after a clean finale: they
        // describe a state the invariants have just vouched for.
        let (finale_err, accounting, transitions) = if result.failure.is_none() && !result.redundant
        {
            let _ = SILENCED.try_with(|c| c.set(true));
            let r = catch_unwind(AssertUnwindSafe(run.finale));
            let out = match r {
                Ok(()) => {
                    let (audit_err, counters) = match run.audit {
                        Some(audit) => match catch_unwind(AssertUnwindSafe(audit)) {
                            Ok(counters) => (None, Some(counters)),
                            Err(p) => (Some(panic_message(p.as_ref())), None),
                        },
                        None => (None, None),
                    };
                    let (err, rows) = match (audit_err, run.transitions) {
                        (None, Some(hook)) => match catch_unwind(AssertUnwindSafe(hook)) {
                            Ok(rows) => (None, Some(rows)),
                            Err(p) => (Some(panic_message(p.as_ref())), None),
                        },
                        (e, _) => (e, None),
                    };
                    (err, counters, rows)
                }
                Err(p) => (Some(panic_message(p.as_ref())), None, None),
            };
            let _ = SILENCED.try_with(|c| c.set(false));
            out
        } else {
            (None, None, None)
        };
        (result, finale_err, accounting, transitions)
    }
}

/// What one schedule hands back to the exploration loop: the scheduler
/// result plus any finale panic and the clean-run audit / transition
/// readouts.
type RunReadout = (
    sched::ScheduleResult,
    Option<String>,
    Option<Vec<(String, u64)>>,
    Option<Vec<String>>,
);

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer::new()
    }
}

/// Formats a failure report the way the binary prints it, including
/// the replay command hint.
pub fn render_failure(model: &str, report: &FailureReport, verbose: bool) -> String {
    let decisions = report
        .decisions
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut out = format!(
        "model {model}: {} at schedule {}\n  decisions: [{decisions}]\n  replay: firefly-check --model {model} --replay {}\n",
        report.failure,
        report.schedule,
        if decisions.is_empty() { "-" } else { &decisions },
    );
    if let Some(seed) = report.seed {
        out.push_str(&format!("  schedule seed: {seed:#x}\n"));
    }
    if verbose {
        out.push_str("  failing schedule:\n");
        for line in &report.trace {
            out.push_str(&format!("    {line}\n"));
        }
    }
    out
}
