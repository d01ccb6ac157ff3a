//! The cooperative scheduler behind `firefly-check`.
//!
//! There is no controller thread. Model threads run on real OS threads,
//! but exactly one is ever runnable: every instrumented synchronization
//! event (`firefly_sync::hook`) parks the calling thread on one central
//! mutex + condvar pair, and the *yielding thread itself* picks the next
//! runnable thread under that lock. Decisions — which eligible thread
//! runs, which waiter a `notify_one` wakes — index into a deterministic
//! option list, so a schedule is fully described by its decision list,
//! and replaying the list replays the schedule.
//!
//! ## Soundness of the schedule points
//!
//! Context switches happen only at `before_lock` (always, even when the
//! lock is free — acquisition *order* is the thing being explored),
//! `on_atomic` (every instrumented atomic access yields before it runs,
//! so the race detector sees each conflicting pair in both orders),
//! `cond_wait`, and thread finish. `after_unlock` and `notify` do not
//! yield. This is sound for the models here because all cross-thread
//! state is lock-protected or goes through the instrumented atomics:
//! any two conflicting accesses are separated by a schedule point, so
//! every distinguishable interleaving of the shared state is reachable
//! through acquisition- and access-order choices alone.
//! What this granularity *cannot* see is a race in the gap between
//! releasing one lock and waiting on a condvar paired with another —
//! see docs/CHECKING.md for the honest limitation statement.
//!
//! ## Abort protocol
//!
//! On a failure (deadlock, inversion, invariant panic, budget) the
//! failing context sets `aborting` and wakes everyone. Parked threads
//! unwind with [`AbortSignal`] via `panic_any`; the worker wrapper in
//! `lib.rs` catches it and distinguishes it from a real model panic.
//! Hooks reached *during* an unwind (guard drops run `after_unlock`;
//! pool buffer drops can even re-lock) must never panic again — a
//! second panic aborts the process — so every hook checks
//! `std::thread::panicking()` before raising and degrades to a silent
//! pass-through while unwinding.

use crate::races::Detector;
use firefly_rng::Rng;
use firefly_sync::hook::{AtomicOp, OrderTag, Scheduler};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::panic::panic_any;
use std::sync::{Condvar, Mutex, MutexGuard};

thread_local! {
    static TID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Assigns the calling OS thread its model thread id (workers) or
/// clears it (teardown).
pub fn set_tid(tid: Option<usize>) {
    let _ = TID.try_with(|c| c.set(tid));
}

fn tid() -> Option<usize> {
    TID.try_with(Cell::get).ok().flatten()
}

/// Panic payload used to unwind parked model threads when a schedule
/// aborts. Not an error: the worker wrapper swallows it.
pub struct AbortSignal;

/// Why a schedule failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// No thread is runnable and at least one blocked thread is stuck
    /// on a lock.
    Deadlock,
    /// No thread is runnable and every blocked thread sits in a condvar
    /// wait: a notification was issued while nobody was waiting (or
    /// never issued) and the model has no way to recover.
    LostWakeup,
    /// Acquiring `later` while holding `earlier` closes a cycle with
    /// the opposite order observed earlier in the same schedule.
    LockInversion {
        /// Name of the lock held at the violating acquisition.
        earlier: String,
        /// Name of the lock whose acquisition closed the cycle.
        later: String,
    },
    /// A model thread or the finale panicked with a real assertion.
    Invariant {
        /// The panic message.
        message: String,
    },
    /// The schedule exceeded its step budget (livelock guard).
    StepBudget,
    /// The race detector found two conflicting, happens-before-unordered
    /// atomic accesses (see `races` for the sanctioned-access rule).
    Race {
        /// Scheduler name of the racing location.
        location: String,
        /// Event description of the earlier access.
        first: String,
        /// Event description of the later access.
        second: String,
    },
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Deadlock => f.write_str("deadlock"),
            Failure::LostWakeup => f.write_str("lost wakeup"),
            Failure::LockInversion { earlier, later } => {
                write!(f, "lock-order inversion: {later} acquired under {earlier}")
            }
            Failure::Invariant { message } => {
                // Assert messages span lines; keep the report one line.
                write!(f, "invariant violated: {}", message.replace('\n', " | "))
            }
            Failure::StepBudget => f.write_str("step budget exceeded (livelock?)"),
            Failure::Race {
                location,
                first,
                second,
            } => {
                write!(f, "data race on {location}: {first} unordered with {second}")
            }
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
enum ThreadState {
    /// Arrived, never yet scheduled.
    Idle,
    /// The one currently executing thread.
    Running,
    /// Parked at `before_lock`.
    WantsLock { lock: usize, shared: bool },
    /// Parked in a condvar wait; `lock` is the released paired lock.
    Waiting { cond: usize, lock: usize },
    /// Notified; must reacquire `lock` before running again.
    Notified { lock: usize },
    /// Parked at `on_atomic`; the access runs once granted.
    WantsAtomic {
        addr: usize,
        op: AtomicOp,
        tag: OrderTag,
    },
    Finished,
}

#[derive(Clone, Copy, PartialEq)]
enum ObjKind {
    Lock,
    Cond,
    Atomic,
}

/// One visible operation of a step's run slice, in the granularity the
/// DPOR dependency relation works at. A *slice* is everything a thread
/// does between being granted the processor and its next park: the
/// granted operation plus the non-yielding events (releases, notifies)
/// it performs before yielding again.
///
/// Objects are identified by their **registration index**, not their
/// address: each schedule re-executes the model against a fresh
/// allocation, so addresses vary run to run, while registration order
/// is deterministic for any shared decision prefix. Sleep-set entries
/// recorded in one run must match dependent operations executed in the
/// next — matching on addresses would (silently, unsoundly) never wake
/// a sleeping thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Thread start (no visible footprint).
    Start,
    /// Acquired lock `#index` (including condvar-wake reacquires).
    LockAcq(usize),
    /// Released lock `#index`.
    LockRel(usize),
    /// Atomically released lock `#lock` and parked on cond `#cond`.
    Wait { cond: usize, lock: usize },
    /// Notified cond `#index`.
    Notify { cond: usize },
    /// Accessed atomic `#index`; `write` covers stores and RMWs.
    Atomic { index: usize, write: bool },
}

impl Op {
    /// The DPOR dependency relation: two operations of *different*
    /// threads commute unless this returns true. Conservative on
    /// lock/cond traffic (any two ops on the same object are dependent)
    /// and exact on atomics (load/load pairs commute).
    pub fn dependent(a: &Op, b: &Op) -> bool {
        let lock_of = |op: &Op| match *op {
            Op::LockAcq(l) | Op::LockRel(l) => Some(l),
            Op::Wait { lock, .. } => Some(lock),
            _ => None,
        };
        let cond_of = |op: &Op| match *op {
            Op::Wait { cond, .. } | Op::Notify { cond } => Some(cond),
            _ => None,
        };
        if let (Some(x), Some(y)) = (lock_of(a), lock_of(b)) {
            if x == y {
                return true;
            }
        }
        if let (Some(x), Some(y)) = (cond_of(a), cond_of(b)) {
            if x == y {
                return true;
            }
        }
        if let (
            Op::Atomic {
                index: x,
                write: w1,
            },
            Op::Atomic {
                index: y,
                write: w2,
            },
        ) = (a, b)
        {
            if x == y && (*w1 || *w2) {
                return true;
            }
        }
        false
    }

    /// True when the operation touches any object whose registration
    /// index is `>= bound` — i.e. an object first registered after the
    /// branch point a sleep entry was recorded at. Such objects may be
    /// assigned to different referents in a sibling run, so dependency
    /// comparisons on them are unreliable.
    pub fn touches_from(&self, bound: usize) -> bool {
        match *self {
            Op::Start => false,
            Op::LockAcq(i) | Op::LockRel(i) | Op::Notify { cond: i } => i >= bound,
            Op::Wait { cond, lock } => cond >= bound || lock >= bound,
            Op::Atomic { index, .. } => index >= bound,
        }
    }
}

/// True when any operation of slice `a` is dependent with any of `b`.
pub fn slices_dependent(a: &[Op], b: &[Op]) -> bool {
    a.iter().any(|x| b.iter().any(|y| Op::dependent(x, y)))
}

/// A sleep-set entry: a thread whose first slice from the current
/// branch point was already explored; the scheduler must not run it
/// until an executed operation is dependent with that slice.
#[derive(Debug, Clone)]
pub struct SleepEntry {
    /// The sleeping thread.
    pub tid: usize,
    /// Its recorded first slice from the branch point.
    pub ops: Vec<Op>,
    /// Registration-index bound when the slice was recorded: objects
    /// `>= fresh_from` were created after the branch point and may
    /// alias differently in this run, so any executed op touching such
    /// an object conservatively wakes the entry (less pruning, never
    /// unsound sleeping).
    pub fresh_from: usize,
}

impl SleepEntry {
    /// Should an executed `op` wake this entry? Yes when it is
    /// dependent with the recorded slice, or when the comparison is
    /// unreliable because both sides touch post-branch objects.
    pub fn woken_by(&self, op: &Op) -> bool {
        if self.ops.iter().any(|o| Op::dependent(o, op)) {
            return true;
        }
        op.touches_from(self.fresh_from) && self.ops.iter().any(|o| o.touches_from(self.fresh_from))
    }
}

/// One scheduling step of a schedule: which thread was granted, what it
/// executed, and what the alternatives were — the raw material for the
/// DPOR driver's backtrack-set insertion.
#[derive(Debug, Clone)]
pub struct StepRec {
    /// The granted thread.
    pub tid: usize,
    /// Every eligible thread at the pick, in decision-option order.
    pub enabled: Vec<usize>,
    /// Index into the decision list when the pick had alternatives
    /// (`enabled.len() > 1`); forced picks record `None`.
    pub decision_index: Option<usize>,
    /// `decisions.len()` before the pick — used to decide whether the
    /// sleep set was active for this slice.
    pub pick_cursor: usize,
    /// Number of registered objects before the step ran: the
    /// `fresh_from` bound for sleep entries built from this slice.
    pub objs_before: usize,
    /// The run slice (granted op + non-yielding follow-ons).
    pub ops: Vec<Op>,
}

/// One registered lock or condvar. Identity is the referent address
/// (map key); `index` is the deterministic registration order used for
/// stable names, since addresses vary between process runs.
struct Obj {
    kind: ObjKind,
    index: usize,
    label: Option<&'static str>,
    owner: Option<usize>,
    readers: Vec<usize>,
}

impl Obj {
    /// Unique deterministic name, e.g. `pool#2` or `lock#5`.
    fn name(&self) -> String {
        match (self.label, self.kind) {
            (Some(l), _) => format!("{l}#{}", self.index),
            (None, ObjKind::Lock) => format!("lock#{}", self.index),
            (None, ObjKind::Cond) => format!("cond#{}", self.index),
            (None, ObjKind::Atomic) => format!("atomic#{}", self.index),
        }
    }

    /// Class-level name for edge reporting: the label when present
    /// (several locks share one class), the unique name otherwise.
    fn class(&self) -> String {
        match self.label {
            Some(l) => l.to_string(),
            None => self.name(),
        }
    }
}

#[derive(Default)]
struct Core {
    n: usize,
    started: usize,
    states: Vec<ThreadState>,
    held: Vec<Vec<usize>>,
    objs: BTreeMap<usize, Obj>,
    next_index: usize,
    /// Addr-level "held → acquired" edges of this schedule.
    edges: BTreeSet<(usize, usize)>,
    /// Class-level edges, accumulated as they are observed.
    named_edges: BTreeSet<(String, String)>,
    running: Option<usize>,
    aborting: bool,
    failure: Option<Failure>,
    /// `(chosen, options)` for every decision taken, in order.
    decisions: Vec<(usize, usize)>,
    /// Decisions to replay; past the end, DFS defaults to 0.
    prefix: Vec<usize>,
    cursor: usize,
    rng: Option<Rng>,
    steps: usize,
    budget: usize,
    trace: Vec<String>,
    /// Condvar waits that parked a thread in this schedule.
    parks: usize,
    /// Per-step records for the DPOR driver.
    step_recs: Vec<StepRec>,
    /// The happens-before race detector (None until reset sizes it).
    detector: Option<Detector>,
    /// Active sleep set (DPOR mode); entries removed as executed ops
    /// prove dependence with their recorded slices.
    sleep: Vec<SleepEntry>,
    /// Decision cursor from which the sleep set applies (the branch
    /// decision of the current DPOR run); `usize::MAX` disables it.
    sleep_from: usize,
    /// Set when a free pick found every eligible thread asleep: the
    /// schedule is provably equivalent to an already-explored one.
    redundant: bool,
    /// Sleep-set snapshot taken at each decision, so the DPOR driver
    /// knows the sleep set at every node it may later branch from.
    decision_sleeps: Vec<Vec<SleepEntry>>,
}

/// What one completed schedule produced.
pub struct ScheduleResult {
    /// The failure, if the schedule aborted.
    pub failure: Option<Failure>,
    /// Every decision taken, as `(chosen, options)` pairs.
    pub decisions: Vec<(usize, usize)>,
    /// Human-readable deterministic event log.
    pub trace: Vec<String>,
    /// Condvar waits that parked a thread. A notify is only an event
    /// when a waiter is registered (`firefly_sync::Condvar` skips the
    /// rest), so a model that claims to cover a wait/notify protocol
    /// must show it parked somewhere.
    pub parks: usize,
    /// Class-level lock edges observed.
    pub named_edges: BTreeSet<(String, String)>,
    /// Per-step records (granted thread, alternatives, run slice).
    pub steps: Vec<StepRec>,
    /// True when the schedule was abandoned as sleep-set-redundant.
    pub redundant: bool,
    /// Sleep-set snapshot at each decision point.
    pub decision_sleeps: Vec<Vec<SleepEntry>>,
    /// Atomic location classes on which a release→acquire publication
    /// edge was consumed (from the race detector).
    pub publications: std::collections::BTreeSet<String>,
}

/// The scheduler shared by one explorer's worker threads.
#[derive(Default)]
pub struct Sched {
    core: Mutex<Core>,
    cv: Condvar,
}

impl Sched {
    /// A scheduler with no schedule in progress.
    pub fn new() -> Sched {
        Sched::default()
    }

    /// Prepares the next schedule: `n` model threads, a decision prefix
    /// to replay, an optional RNG (random mode), and a step budget.
    pub fn reset(&self, n: usize, prefix: Vec<usize>, rng: Option<Rng>, budget: usize) {
        self.reset_dpor(n, prefix, rng, budget, Vec::new(), usize::MAX);
    }

    /// [`Sched::reset`] plus a DPOR sleep plan: `sleep` is the sleep set
    /// at the branch node, active from decision cursor `sleep_from` (the
    /// branch decision itself) onward.
    pub fn reset_dpor(
        &self,
        n: usize,
        prefix: Vec<usize>,
        rng: Option<Rng>,
        budget: usize,
        sleep: Vec<SleepEntry>,
        sleep_from: usize,
    ) {
        let mut core = self.lock_core();
        *core = Core {
            n,
            states: vec![ThreadState::Idle; n],
            held: vec![Vec::new(); n],
            prefix,
            rng,
            budget,
            sleep,
            sleep_from,
            detector: Some(Detector::new(n)),
            ..Core::default()
        };
    }

    /// Harvests the finished schedule's result.
    pub fn take_result(&self) -> ScheduleResult {
        let mut core = self.lock_core();
        let publications = core
            .detector
            .as_mut()
            .map(|d| d.take_publications())
            .unwrap_or_default();
        ScheduleResult {
            failure: core.failure.take(),
            decisions: std::mem::take(&mut core.decisions),
            trace: std::mem::take(&mut core.trace),
            parks: core.parks,
            named_edges: std::mem::take(&mut core.named_edges),
            steps: std::mem::take(&mut core.step_recs),
            redundant: core.redundant,
            decision_sleeps: std::mem::take(&mut core.decision_sleeps),
            publications,
        }
    }

    /// Called by each worker before its body: blocks until all `n`
    /// threads have arrived and this one is picked to run. Arrival
    /// *order* is OS-dependent, so nothing observable is recorded here;
    /// determinism starts at the first pick, which happens only once
    /// every thread is parked.
    pub fn arrive(&self, tid: usize) {
        let mut core = self.lock_core();
        core.started += 1;
        if core.started == core.n {
            self.pick_next(&mut core);
        }
        self.block_until_granted(core, tid);
    }

    /// Called by the worker wrapper when a body returns or unwinds.
    /// A non-[`AbortSignal`] panic message arrives as `err`.
    pub fn finish(&self, tid: usize, err: Option<String>) {
        let mut core = self.lock_core();
        core.states[tid] = ThreadState::Finished;
        // Defensive: a well-formed body dropped its guards (releasing
        // via after_unlock) before returning, but never let a stale
        // owner wedge the whole exploration.
        for lock in std::mem::take(&mut core.held[tid]) {
            Self::release_obj(&mut core, tid, lock);
        }
        if let Some(message) = err {
            if !core.aborting {
                self.fail(&mut core, Failure::Invariant { message });
            }
            return;
        }
        if core.aborting {
            return;
        }
        core.trace.push(format!("t{tid} finished"));
        core.running = None;
        self.pick_next(&mut core);
    }

    fn lock_core(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parks until aborting or granted the turn. While unwinding, an
    /// abort degrades to a pass-through instead of a second panic.
    fn block_until_granted(&self, mut core: MutexGuard<'_, Core>, tid: usize) {
        loop {
            if core.aborting {
                drop(core);
                if !std::thread::panicking() {
                    panic_any(AbortSignal);
                }
                return;
            }
            if core.running == Some(tid) {
                return;
            }
            core = self.cv.wait(core).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn ensure_obj(core: &mut Core, addr: usize, kind: ObjKind) {
        if !core.objs.contains_key(&addr) {
            let index = core.next_index;
            core.next_index += 1;
            core.objs.insert(
                addr,
                Obj {
                    kind,
                    index,
                    label: None,
                    owner: None,
                    readers: Vec::new(),
                },
            );
        }
    }

    fn obj_name(core: &Core, addr: usize) -> String {
        core.objs
            .get(&addr)
            .map(Obj::name)
            .unwrap_or_else(|| "?".to_string())
    }

    fn release_obj(core: &mut Core, tid: usize, lock: usize) {
        if let Some(pos) = core.held[tid].iter().rposition(|&l| l == lock) {
            core.held[tid].remove(pos);
        }
        if let Some(o) = core.objs.get_mut(&lock) {
            if o.owner == Some(tid) {
                o.owner = None;
            } else if let Some(p) = o.readers.iter().position(|&r| r == tid) {
                o.readers.remove(p);
            }
        }
    }

    fn is_eligible(core: &Core, t: usize) -> bool {
        match core.states[t] {
            ThreadState::Idle => true,
            ThreadState::WantsAtomic { .. } => true,
            ThreadState::WantsLock { lock, shared } => match core.objs.get(&lock) {
                Some(o) if shared => o.owner.is_none(),
                Some(o) => o.owner.is_none() && o.readers.is_empty(),
                None => true,
            },
            ThreadState::Notified { lock } => match core.objs.get(&lock) {
                Some(o) => o.owner.is_none() && o.readers.is_empty(),
                None => true,
            },
            _ => false,
        }
    }

    /// One deterministic decision among `options` alternatives.
    /// Only called with `options > 1`, so forced moves cost nothing in
    /// the DFS tree. `default` is the free-exploration choice (0 except
    /// for sleep-aware scheduling picks, which skip sleeping threads).
    fn decide(core: &mut Core, options: usize, default: usize) -> usize {
        let chosen = if core.cursor < core.prefix.len() {
            core.prefix[core.cursor].min(options - 1)
        } else if let Some(rng) = core.rng.as_mut() {
            (rng.next_u64() % options as u64) as usize
        } else {
            default
        };
        core.cursor += 1;
        core.decisions.push((chosen, options));
        core.decision_sleeps.push(core.sleep.clone());
        chosen
    }

    /// The deterministic registration index of the object at `addr`
    /// (the identity [`Op`]s are recorded under).
    fn op_index(core: &Core, addr: usize) -> usize {
        core.objs.get(&addr).map_or(usize::MAX, |o| o.index)
    }

    /// Appends `op` to the running thread's current slice, waking any
    /// sleep-set entry whose recorded slice depends on it (the entry's
    /// thread is no longer provably redundant to schedule).
    fn record_op(core: &mut Core, tid: usize, op: Op) {
        let sleep_active = core
            .step_recs
            .last()
            .is_some_and(|s| s.pick_cursor >= core.sleep_from);
        if sleep_active && !core.sleep.is_empty() {
            core.sleep.retain(|entry| !entry.woken_by(&op));
        }
        if let Some(step) = core.step_recs.last_mut() {
            if step.tid == tid {
                step.ops.push(op);
            }
        }
    }

    fn fail(&self, core: &mut Core, failure: Failure) {
        core.trace.push(format!("FAIL: {failure}"));
        if core.failure.is_none() {
            core.failure = Some(failure);
        }
        core.aborting = true;
        core.running = None;
        self.cv.notify_all();
    }

    /// Is there a path `from →* to` in the addr-level edge graph?
    fn has_path(core: &Core, from: usize, to: usize) -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(node) = stack.pop() {
            if node == to {
                return true;
            }
            if !seen.insert(node) {
                continue;
            }
            for &(a, b) in &core.edges {
                if a == node {
                    stack.push(b);
                }
            }
        }
        false
    }

    /// Grants `tid` whatever it was blocked on and marks it Running.
    /// Sets a LockInversion failure when a fresh acquisition closes a
    /// cycle in this schedule's edge graph.
    fn grant(&self, core: &mut Core, tid: usize) {
        match core.states[tid].clone() {
            ThreadState::WantsLock { lock, shared } => {
                for h in core.held[tid].clone() {
                    if h == lock {
                        continue;
                    }
                    if !core.edges.contains(&(h, lock)) && Self::has_path(core, lock, h) {
                        let failure = Failure::LockInversion {
                            earlier: Self::obj_name(core, h),
                            later: Self::obj_name(core, lock),
                        };
                        self.fail(core, failure);
                        return;
                    }
                    core.edges.insert((h, lock));
                    let (from, to) = {
                        let held_class = core.objs.get(&h).map(Obj::class);
                        let lock_class = core.objs.get(&lock).map(Obj::class);
                        (held_class, lock_class)
                    };
                    if let (Some(from), Some(to)) = (from, to) {
                        core.named_edges.insert((from, to));
                    }
                }
                let name = Self::obj_name(core, lock);
                if let Some(o) = core.objs.get_mut(&lock) {
                    if shared {
                        o.readers.push(tid);
                    } else {
                        o.owner = Some(tid);
                    }
                }
                core.held[tid].push(lock);
                core.trace.push(format!("t{tid} acquires {name}"));
                if let Some(d) = core.detector.as_mut() {
                    d.lock_acquired(tid, lock);
                }
                let idx = Self::op_index(core, lock);
                Self::record_op(core, tid, Op::LockAcq(idx));
            }
            ThreadState::Notified { lock } => {
                // Reacquire after a wait: the edge (outer, lock), if
                // any, was recorded at the original acquisition.
                let name = Self::obj_name(core, lock);
                if let Some(o) = core.objs.get_mut(&lock) {
                    o.owner = Some(tid);
                }
                core.held[tid].push(lock);
                core.trace.push(format!("t{tid} wakes holding {name}"));
                if let Some(d) = core.detector.as_mut() {
                    d.lock_acquired(tid, lock);
                }
                let idx = Self::op_index(core, lock);
                Self::record_op(core, tid, Op::LockAcq(idx));
            }
            ThreadState::WantsAtomic { addr, op, tag } => {
                let name = Self::obj_name(core, addr);
                let kind = match op {
                    AtomicOp::Load => "load",
                    AtomicOp::Store => "store",
                    AtomicOp::Rmw => "rmw",
                };
                core.trace
                    .push(format!("t{tid} atomic {kind}({}) {name}", tag.name()));
                let idx = Self::op_index(core, addr);
                Self::record_op(
                    core,
                    tid,
                    Op::Atomic {
                        index: idx,
                        write: !matches!(op, AtomicOp::Load),
                    },
                );
                let step = core.step_recs.len();
                let race = core
                    .detector
                    .as_mut()
                    .and_then(|d| d.atomic_access(tid, addr, op, tag, step, &name));
                if let Some(r) = race {
                    let failure = Failure::Race {
                        location: r.location,
                        first: r.first,
                        second: r.second,
                    };
                    self.fail(core, failure);
                    return;
                }
            }
            ThreadState::Idle => {
                core.trace.push(format!("t{tid} starts"));
                Self::record_op(core, tid, Op::Start);
            }
            _ => {}
        }
        core.states[tid] = ThreadState::Running;
    }

    /// The heart of the checker: classify the eligible set, fail on an
    /// empty one with unfinished threads, otherwise decide, grant, run.
    fn pick_next(&self, core: &mut Core) {
        core.steps += 1;
        if core.steps > core.budget {
            self.fail(core, Failure::StepBudget);
            return;
        }
        let eligible: Vec<usize> = (0..core.n).filter(|&t| Self::is_eligible(core, t)).collect();
        if eligible.is_empty() {
            let unfinished: Vec<usize> = (0..core.n)
                .filter(|&t| core.states[t] != ThreadState::Finished)
                .collect();
            if unfinished.is_empty() {
                core.running = None;
                return;
            }
            let all_waiting = unfinished
                .iter()
                .all(|&t| matches!(core.states[t], ThreadState::Waiting { .. }));
            let failure = if all_waiting {
                Failure::LostWakeup
            } else {
                Failure::Deadlock
            };
            self.fail(core, failure);
            return;
        }
        // Sleep-set discipline (DPOR): in free exploration, never pick a
        // sleeping thread — its first slice from the branch point was
        // already explored. When *every* eligible thread sleeps, the
        // whole continuation is redundant and the schedule is abandoned.
        let free = core.cursor >= core.prefix.len();
        let awake_default = if free && !core.sleep.is_empty() {
            let awake: Vec<usize> = (0..eligible.len())
                .filter(|&i| core.sleep.iter().all(|e| e.tid != eligible[i]))
                .collect();
            match awake.first() {
                Some(&first) => first,
                None => {
                    core.trace.push("redundant: all eligible asleep".to_string());
                    core.redundant = true;
                    core.aborting = true;
                    core.running = None;
                    self.cv.notify_all();
                    return;
                }
            }
        } else {
            0
        };
        let pick_cursor = core.decisions.len();
        let (tid, decision_index) = if eligible.len() > 1 {
            let i = Self::decide(core, eligible.len(), awake_default);
            let tid = eligible[i];
            core.trace
                .push(format!("run t{tid} (choice {i} of {})", eligible.len()));
            (tid, Some(core.decisions.len() - 1))
        } else {
            (eligible[0], None)
        };
        core.step_recs.push(StepRec {
            tid,
            enabled: eligible,
            decision_index,
            pick_cursor,
            objs_before: core.next_index,
            ops: Vec::new(),
        });
        self.grant(core, tid);
        if core.aborting {
            return;
        }
        core.running = Some(tid);
        self.cv.notify_all();
    }
}

impl Scheduler for Sched {
    fn on_label(&self, lock: usize, label: &'static str) {
        let mut core = self.lock_core();
        if core.aborting {
            return;
        }
        Self::ensure_obj(&mut core, lock, ObjKind::Lock);
        if let Some(o) = core.objs.get_mut(&lock) {
            if o.label.is_none() {
                o.label = Some(label);
            }
        }
    }

    fn before_lock(&self, lock: usize, shared: bool) {
        let Some(tid) = tid() else { return };
        let mut core = self.lock_core();
        if core.aborting {
            drop(core);
            if !std::thread::panicking() {
                panic_any(AbortSignal);
            }
            return;
        }
        Self::ensure_obj(&mut core, lock, ObjKind::Lock);
        let name = Self::obj_name(&core, lock);
        let mode = if shared { "shared" } else { "excl" };
        core.trace.push(format!("t{tid} wants {name} ({mode})"));
        core.states[tid] = ThreadState::WantsLock { lock, shared };
        core.running = None;
        self.pick_next(&mut core);
        self.block_until_granted(core, tid);
    }

    fn after_unlock(&self, lock: usize) {
        let Some(tid) = tid() else { return };
        let mut core = self.lock_core();
        if core.aborting {
            return;
        }
        let name = Self::obj_name(&core, lock);
        core.trace.push(format!("t{tid} releases {name}"));
        Self::release_obj(&mut core, tid, lock);
        if let Some(d) = core.detector.as_mut() {
            d.lock_released(tid, lock);
        }
        let idx = Self::op_index(&core, lock);
        Self::record_op(&mut core, tid, Op::LockRel(idx));
        // Non-yielding: the releaser keeps running until its next
        // schedule point; blocked threads become eligible at that pick.
    }

    fn cond_wait(&self, cond: usize, lock: usize) {
        let Some(tid) = tid() else { return };
        let mut core = self.lock_core();
        if core.aborting {
            drop(core);
            if !std::thread::panicking() {
                panic_any(AbortSignal);
            }
            return;
        }
        Self::ensure_obj(&mut core, cond, ObjKind::Cond);
        let cond_name = Self::obj_name(&core, cond);
        let lock_name = Self::obj_name(&core, lock);
        core.trace
            .push(format!("t{tid} waits {cond_name} releasing {lock_name}"));
        // The caller already released the real lock; mirror it.
        Self::release_obj(&mut core, tid, lock);
        if let Some(d) = core.detector.as_mut() {
            d.lock_released(tid, lock);
        }
        let (cond_idx, lock_idx) = (Self::op_index(&core, cond), Self::op_index(&core, lock));
        Self::record_op(
            &mut core,
            tid,
            Op::Wait {
                cond: cond_idx,
                lock: lock_idx,
            },
        );
        core.states[tid] = ThreadState::Waiting { cond, lock };
        core.parks += 1;
        core.running = None;
        self.pick_next(&mut core);
        self.block_until_granted(core, tid);
    }

    fn notify(&self, cond: usize, all: bool) {
        let Some(tid) = tid() else { return };
        let mut core = self.lock_core();
        if core.aborting {
            return;
        }
        Self::ensure_obj(&mut core, cond, ObjKind::Cond);
        let name = Self::obj_name(&core, cond);
        let waiters: Vec<usize> = (0..core.n)
            .filter(|&t| matches!(core.states[t], ThreadState::Waiting { cond: c, .. } if c == cond))
            .collect();
        let cond_idx = Self::op_index(&core, cond);
        Self::record_op(&mut core, tid, Op::Notify { cond: cond_idx });
        if waiters.is_empty() {
            // Every registered waiter was already notified and has not
            // run yet (with none registered the condvar reports no
            // notify at all): the notification evaporates. Recorded so
            // failing traces show it.
            core.trace.push(format!("t{tid} notifies {name}: no waiters"));
            return;
        }
        if all {
            core.trace
                .push(format!("t{tid} notifies {name}: all {} waiters", waiters.len()));
            for w in waiters {
                if let ThreadState::Waiting { lock, .. } = core.states[w] {
                    core.states[w] = ThreadState::Notified { lock };
                }
            }
        } else {
            let i = if waiters.len() > 1 {
                Self::decide(&mut core, waiters.len(), 0)
            } else {
                0
            };
            let w = waiters[i];
            core.trace
                .push(format!("t{tid} notifies {name}: wakes t{w}"));
            if let ThreadState::Waiting { lock, .. } = core.states[w] {
                core.states[w] = ThreadState::Notified { lock };
            }
        }
        // Non-yielding, like after_unlock.
    }

    fn on_atomic(&self, addr: usize, op: AtomicOp, tag: OrderTag) {
        let Some(tid) = tid() else { return };
        let mut core = self.lock_core();
        if core.aborting {
            drop(core);
            if !std::thread::panicking() {
                panic_any(AbortSignal);
            }
            return;
        }
        Self::ensure_obj(&mut core, addr, ObjKind::Atomic);
        // A full schedule point: acquisition-order choices alone cannot
        // reorder raw atomic accesses, so each one parks and yields —
        // the grant performs the race-detector bookkeeping.
        core.states[tid] = ThreadState::WantsAtomic { addr, op, tag };
        core.running = None;
        self.pick_next(&mut core);
        self.block_until_granted(core, tid);
    }

    fn on_atomic_label(&self, addr: usize, label: &'static str) {
        let mut core = self.lock_core();
        if core.aborting {
            return;
        }
        Self::ensure_obj(&mut core, addr, ObjKind::Atomic);
        if let Some(o) = core.objs.get_mut(&addr) {
            if o.label.is_none() {
                o.label = Some(label);
            }
        }
    }
}
