//! Optional cooperative-scheduler instrumentation for the sync layer.
//!
//! `firefly-check` (the deterministic concurrency checker) needs to see
//! and control every synchronization event — lock acquisitions,
//! releases, condition waits and notifies — of the threads running one
//! of its models. This module is that seam: the primitives in this
//! crate consult [`current`] at each event and report to the installed
//! [`Scheduler`], which may block the calling thread until the model
//! schedule grants it a turn.
//!
//! The design constraints, in order:
//!
//! * **Zero cost when disabled.** Production code never installs a
//!   scheduler, so [`current`] must cost one relaxed atomic load on the
//!   fast path — the thread-local is only consulted when at least one
//!   thread in the process has a scheduler installed. This file is in
//!   the lint fast-path scope (`lint.toml`), so the no-panic and
//!   no-alloc rules apply to every function here.
//! * **Per-thread installation.** Model threads and ordinary threads
//!   coexist in one test process; only threads that called [`install`]
//!   are scheduled. Everyone else sees `None` and takes the plain
//!   `std::sync` path.
//! * **`'static` scheduler.** The thread-local holds a plain reference,
//!   so installing requires a leaked (or truly static) scheduler; the
//!   checker leaks one per explorer, which is bounded by test count.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The kind of atomic access reported through [`Scheduler::on_atomic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// A plain load (`load`).
    Load,
    /// A plain store (`store`).
    Store,
    /// A read-modify-write (`fetch_add`, `swap`, `compare_exchange`, …).
    Rmw,
}

/// The memory-ordering tag an instrumented atomic access was issued
/// with. The race detector uses it to decide whether the access is
/// *sanctioned* (participates in a release/acquire publication
/// protocol) or raw (`Relaxed`), not to model the full C++11 semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderTag {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

impl OrderTag {
    /// True when a load with this tag synchronizes-with a prior release
    /// store (Acquire and stronger).
    pub fn acquires(self) -> bool {
        matches!(self, OrderTag::Acquire | OrderTag::AcqRel | OrderTag::SeqCst)
    }

    /// True when a store with this tag publishes prior writes to a
    /// later acquire load (Release and stronger).
    pub fn releases(self) -> bool {
        matches!(self, OrderTag::Release | OrderTag::AcqRel | OrderTag::SeqCst)
    }

    /// Stable lowercase name for traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            OrderTag::Relaxed => "relaxed",
            OrderTag::Acquire => "acquire",
            OrderTag::Release => "release",
            OrderTag::AcqRel => "acqrel",
            OrderTag::SeqCst => "seqcst",
        }
    }
}

impl From<Ordering> for OrderTag {
    fn from(o: Ordering) -> OrderTag {
        match o {
            Ordering::Relaxed => OrderTag::Relaxed,
            Ordering::Acquire => OrderTag::Acquire,
            Ordering::Release => OrderTag::Release,
            Ordering::AcqRel => OrderTag::AcqRel,
            // `Ordering` is non-exhaustive; anything else is at least
            // as strong as SeqCst for the race detector's purposes.
            _ => OrderTag::SeqCst,
        }
    }
}

/// The cooperative scheduler a checked thread reports to.
///
/// Addresses identify locks and condvars: they are the referent's
/// memory address, stable for the life of the object and unique among
/// simultaneously live objects — exactly the window a schedule cares
/// about. All methods may block the calling thread (that is the point);
/// implementations must not call back into instrumented primitives.
pub trait Scheduler: Sync {
    /// Attaches a stable label to a lock: its name in trace lines and
    /// publication classes.
    fn on_label(&self, lock: usize, label: &'static str);
    /// The thread is about to acquire `lock`; returns once the schedule
    /// grants the acquisition.
    fn before_lock(&self, lock: usize);
    /// The thread released `lock` (the real lock is already free).
    fn after_unlock(&self, lock: usize);
    /// The thread atomically released `lock` and waits on `cond`;
    /// returns once notified and re-granted the lock at the model
    /// level. The caller then reacquires the real lock.
    fn cond_wait(&self, cond: usize, lock: usize);
    /// `cond` was notified (`all` distinguishes notify_all).
    fn notify(&self, cond: usize, all: bool);
    /// The thread is about to perform an atomic access on the location
    /// at `addr`; returns once the schedule grants it. The access
    /// itself happens after this returns, so the scheduler may treat
    /// the grant as the access's position in the total order. Default
    /// is a no-op so schedulers predating the race detector (and simple
    /// test doubles) keep compiling.
    fn on_atomic(&self, addr: usize, op: AtomicOp, tag: OrderTag) {
        let _ = (addr, op, tag);
    }
    /// Attaches a stable label to an atomic location, mirroring
    /// [`Scheduler::on_label`] for locks. Default no-op.
    fn on_atomic_label(&self, addr: usize, label: &'static str) {
        let _ = (addr, label);
    }
}

/// Number of threads process-wide with a scheduler installed. The fast
/// path is `load == 0`; the thread-local is only touched past that.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: Cell<Option<&'static dyn Scheduler>> = const { Cell::new(None) };
}

/// The scheduler governing the current thread, if any.
///
/// `try_with` (not `with`) keeps this callable during thread teardown,
/// when the thread-local may already be destroyed — it degrades to
/// `None`, i.e. the uninstrumented path.
#[inline]
pub fn current() -> Option<&'static dyn Scheduler> {
    // SAFETY of the Relaxed load: the only data this load guards is the
    // thread-local CURRENT, and only the *installing thread itself* ever
    // reads a Some it wrote — same-thread program order makes that
    // visible without any fence. A foreign thread racing past the gate
    // while the counter is mid-update reads its own CURRENT, which is
    // None unless it installed. So the gate needs no acquire semantics:
    // it is purely a fast-path filter, and Relaxed keeps the disabled
    // cost at one unordered load (the tentpole contract for this file).
    if INSTALLED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.try_with(Cell::get).ok().flatten()
}

/// Installs `sched` as the current thread's scheduler.
pub fn install(sched: &'static dyn Scheduler) {
    let was_installed = CURRENT.try_with(|c| {
        let had = c.get().is_some();
        c.set(Some(sched));
        had
    });
    if let Ok(false) = was_installed {
        // AcqRel: the increment publishes the CURRENT write above to any
        // thread that later observes a nonzero gate, and orders this
        // install after earlier uninstalls' Release decrements so the
        // counter never transiently appears balanced mid-handoff.
        INSTALLED.fetch_add(1, Ordering::AcqRel);
    }
}

/// Removes the current thread's scheduler, restoring the plain path.
pub fn uninstall() {
    let was_installed = CURRENT.try_with(|c| {
        let had = c.get().is_some();
        c.set(None);
        had
    });
    if let Ok(true) = was_installed {
        // Release: the decrement publishes the CURRENT reset, so a
        // thread observing the gate drop to zero also observes this
        // thread's scheduler as gone.
        INSTALLED.fetch_sub(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    struct Counter(AtomicU64);

    impl Scheduler for Counter {
        fn on_label(&self, _lock: usize, _label: &'static str) {}
        fn before_lock(&self, _lock: usize) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn after_unlock(&self, _lock: usize) {}
        fn cond_wait(&self, _cond: usize, _lock: usize) {}
        fn notify(&self, _cond: usize, _all: bool) {}
    }

    #[test]
    fn disabled_by_default_and_scoped_to_the_installing_thread() {
        assert!(current().is_none());
        let sched: &'static Counter = Box::leak(Box::new(Counter(AtomicU64::new(0))));
        install(sched);
        assert!(current().is_some());
        // Another thread stays uninstrumented.
        std::thread::spawn(|| assert!(current().is_none()))
            .join()
            .unwrap();
        uninstall();
        assert!(current().is_none());
    }

    #[test]
    fn installed_scheduler_sees_lock_events() {
        let sched: &'static Counter = Box::leak(Box::new(Counter(AtomicU64::new(0))));
        install(sched);
        let m = crate::Mutex::new(0u32);
        *m.lock() += 1;
        uninstall();
        assert_eq!(sched.0.load(Ordering::Relaxed), 1);
        // After uninstall the same mutex no longer reports.
        *m.lock() += 1;
        assert_eq!(sched.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn double_install_and_double_uninstall_balance_the_gate() {
        let sched: &'static Counter = Box::leak(Box::new(Counter(AtomicU64::new(0))));
        install(sched);
        install(sched);
        uninstall();
        uninstall();
        assert!(current().is_none());
    }
}
