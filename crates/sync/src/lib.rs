//! std-only synchronization primitives with a `parking_lot`-shaped API.
//!
//! The repo is hermetic (no registry crates), but the RPC runtime was
//! written against `parking_lot`'s ergonomics: `lock()` returns a guard
//! directly, and `Condvar::wait_until` takes `&mut guard` plus an
//! [`Instant`] deadline. These wrappers keep every call site unchanged
//! while delegating to `std::sync`:
//!
//! * **Poisoning is deliberately ignored.** A panic while holding one of
//!   these locks abandons the poison bit and hands the data to the next
//!   locker, exactly like `parking_lot`. The protected state here
//!   (free-lists, call tables, counters) is either repaired by protocol
//!   retransmission or owned by a test that is already failing; a
//!   poisoned-lock panic cascade would only obscure the original fault.
//! * [`Condvar::wait_until`] reproduces the `&mut guard` calling
//!   convention over `std`'s by-value `wait_timeout` by briefly taking
//!   the inner guard out of an `Option`.
//! * [`Condvar`] counts its waiters, and a notify that nobody waits for
//!   returns after one load — no `FUTEX_WAKE`, and under a scheduler no
//!   notify event. This is the one thing here that `std` does not do;
//!   the type's documentation carries the soundness argument.
//! * [`channel`] is a small unbounded MPMC channel (both ends cloneable,
//!   `recv` by `&self`), the surface of `crossbeam::channel` the runtime
//!   uses for demux→worker hand-off and loopback frame delivery.
//! * Every primitive reports its events to an optional per-thread
//!   cooperative scheduler ([`hook`]) so `firefly-check` can explore
//!   interleavings deterministically. With no scheduler installed the
//!   hook is one relaxed atomic load — the production path is unchanged.
//! * [`atomic`] wraps the `std::sync::atomic` types the workspace uses
//!   so raw atomic protocols (channel end counts, install gates) report
//!   load/store/rmw events with their ordering tags to the same hook —
//!   the input to `firefly-check`'s happens-before race detector.
//!
//! ## Hook ordering invariants (load-bearing for `firefly-check`)
//!
//! * `before_lock` fires **before** the real acquisition, so the
//!   scheduler can park the thread while the OS lock is still free.
//! * `after_unlock` fires **after** the real release (guard `Drop`
//!   drops the inner `std` guard first). The reverse order would let
//!   the scheduler hand the lock to another thread that then blocks on
//!   the still-held OS lock while the releaser is parked — a real
//!   deadlock manufactured by the instrumentation itself.
//! * A checked `wait_until` releases the real lock, parks in
//!   `cond_wait` (the scheduler models the atomic release-and-wait),
//!   and reacquires via [`Mutex::relock`] — no second schedule point,
//!   because the scheduler already granted the lock to the waker's
//!   notify target.

// No unsafe anywhere in this crate — see DESIGN.md ("Unsafe policy").
#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::Instant;

pub mod atomic;
pub mod channel;
pub mod hook;

/// Stable identity for a lock or condvar: its memory address. Works for
/// unsized referents by discarding the fat-pointer metadata.
fn hook_addr<T: ?Sized>(x: &T) -> usize {
    (x as *const T).cast::<()>() as usize
}

/// A mutual-exclusion lock whose `lock()` returns the guard directly,
/// ignoring poisoning.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex; usable in a `static`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking the current thread until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(h) = hook::current() {
            h.before_lock(hook_addr(self), false);
        }
        MutexGuard {
            lock: self,
            inner: Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Reacquires the real lock with **no** schedule point: used after a
    /// checked `cond_wait`, where the scheduler has already granted this
    /// thread the lock at the model level.
    fn relock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Names this lock for the concurrency checker (e.g. with its
    /// lint lock-order class). No-op without an installed scheduler.
    pub fn check_label(&self, label: &'static str) {
        if let Some(h) = hook::current() {
            h.on_label(hook_addr(self), label);
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// RAII guard for [`Mutex`].
///
/// The inner `Option` exists solely so [`Condvar::wait_until`] can move
/// the `std` guard out and back while keeping a `&mut` interface; it is
/// `Some` at every other moment of the guard's life.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // lint:allow(no-panic-on-fast-path): the Option is None only
        // inside wait_until, which holds the sole &mut — no Deref can
        // run concurrently, so this expect is statically unreachable.
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // lint:allow(no-panic-on-fast-path): same invariant as Deref —
        // the Option is None only inside wait_until's exclusive borrow.
        self.inner.as_mut().expect("guard present outside wait")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock *before* reporting: see the module-level
        // ordering invariants.
        let inner = self.inner.take();
        let was_held = inner.is_some();
        drop(inner);
        if was_held {
            if let Some(h) = hook::current() {
                h.after_unlock(hook_addr(self.lock));
            }
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Whether a [`Condvar::wait_until`] returned because the deadline
/// passed rather than because of a notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait ended by timeout.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable paired with [`Mutex`], with deadline-based waits.
///
/// It counts its waiters, so a notify that nobody is waiting for costs
/// one load and no system call (`std`'s futex condvar issues a
/// `FUTEX_WAKE` either way). A waiter registers in [`Condvar::wait_until`]
/// while it still holds the mutex and leaves the count, holding the
/// mutex again, when it wakes or times out. Skipping a notify at count
/// zero is sound under the one rule the `condvar-protocol` lint
/// enforces workspace-wide: *every notify follows a touch of the
/// waiters' mutex*. A waiter whose critical section came before that
/// touch is counted, and the mutex hand-over makes its increment
/// visible to the notifier; a waiter whose critical section comes after
/// it sees the changed predicate and does not wait. The count is
/// therefore ordered by the mutex, not by itself — `Relaxed` suffices,
/// and it is a plain `std` atomic so the checker gets no extra schedule
/// points from it.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    waiters: AtomicUsize,
}

/// One thread's membership in [`Condvar::waiters`], dropped on wake,
/// timeout, or the unwind that ends an aborted checker schedule.
struct Registered<'a>(&'a AtomicUsize);

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Condvar {
        Condvar::default()
    }

    /// True when no thread is registered: the notify has nobody to wake
    /// and nothing to report (under a scheduler it is not an event).
    fn unwatched(&self) -> bool {
        self.waiters.load(Ordering::Relaxed) == 0
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        if self.unwatched() {
            return;
        }
        self.inner.notify_one();
        if let Some(h) = hook::current() {
            h.notify(hook_addr(self), false);
        }
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        if self.unwatched() {
            return;
        }
        self.inner.notify_all();
        if let Some(h) = hook::current() {
            h.notify(hook_addr(self), true);
        }
    }

    /// Atomically releases the lock and waits until notified or the
    /// deadline passes, then reacquires the lock.
    ///
    /// Spurious wakeups are possible, as with every condition variable:
    /// callers loop on their predicate.
    ///
    /// Under a `firefly-check` scheduler the deadline is ignored: a
    /// checked wait either gets notified by the model or the schedule
    /// ends with every thread blocked — which the checker reports as a
    /// lost wakeup or deadlock. Timeouts would mask exactly the bugs
    /// the exploration exists to find.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        // Defensive take: the Option is always Some here (only this
        // function empties it, under an exclusive borrow), but a wait
        // on an impossible empty guard reports a timeout rather than
        // panicking the demux thread.
        let Some(inner) = guard.inner.take() else {
            return WaitTimeoutResult(true);
        };
        // Registered before the mutex is released — the order the gate
        // in `notify_*` rests on — and dropped after it is held again.
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let _registered = Registered(&self.waiters);
        if let Some(h) = hook::current() {
            // Only one checked thread runs at a time, so dropping the
            // real lock and then parking models an atomic
            // release-and-wait exactly.
            drop(inner);
            h.cond_wait(hook_addr(self), hook_addr(guard.lock));
            guard.inner = Some(guard.lock.relock());
            return WaitTimeoutResult(false);
        }
        let timeout = deadline.saturating_duration_since(Instant::now());
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// Threads currently registered in [`Condvar::wait_until`]: exact
    /// while the waiters' mutex is held, a racy count otherwise.
    pub fn waiters(&self) -> usize {
        self.waiters.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// A readers-writer lock whose `read()`/`write()` return guards
/// directly, ignoring poisoning.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new unlocked lock.
    pub fn new(value: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if let Some(h) = hook::current() {
            h.before_lock(hook_addr(self), true);
        }
        RwLockReadGuard {
            lock: self,
            inner: Some(self.0.read().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if let Some(h) = hook::current() {
            h.before_lock(hook_addr(self), false);
        }
        RwLockWriteGuard {
            lock: self,
            inner: Some(self.0.write().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Names this lock for the concurrency checker, like
    /// [`Mutex::check_label`].
    pub fn check_label(&self, label: &'static str) {
        if let Some(h) = hook::current() {
            h.on_label(hook_addr(self), label);
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// RAII shared-access guard for [`RwLock`]. The `Option` exists only so
/// `Drop` can release the real lock before reporting to the scheduler.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // lint:allow(no-panic-on-fast-path): the Option is Some for the
        // guard's whole life; only Drop takes it.
        self.inner.as_ref().expect("read guard present")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        let inner = self.inner.take();
        let was_held = inner.is_some();
        drop(inner);
        if was_held {
            if let Some(h) = hook::current() {
                h.after_unlock(hook_addr(self.lock));
            }
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// RAII exclusive-access guard for [`RwLock`]; see [`RwLockReadGuard`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // lint:allow(no-panic-on-fast-path): the Option is Some for the
        // guard's whole life; only Drop takes it.
        self.inner.as_ref().expect("write guard present")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // lint:allow(no-panic-on-fast-path): same invariant as Deref.
        self.inner.as_mut().expect("write guard present")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        let inner = self.inner.take();
        let was_held = inner.is_some();
        drop(inner);
        if was_held {
            if let Some(h) = hook::current() {
                h.after_unlock(hook_addr(self.lock));
            }
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Sleeps for the cross-thread settling interval tests use to let a
/// spawned thread reach its blocking point: 20 ms by default,
/// overridable through `FIREFLY_TEST_SLEEP_MS` for slow CI machines
/// (raise it) or fast local iteration (lower it).
///
/// This is the **only** sanctioned sleep outside test code; every test
/// that needs a settle interval funnels through here instead of
/// hard-coding a magic number.
pub fn test_sleep() {
    let ms = std::env::var("FIREFLY_TEST_SLEEP_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(20);
    // lint:allow(no-sleep-in-lib): this is the designated test-settle
    // helper the rule exists to funnel callers into.
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn mutex_survives_a_panicked_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: the data stays reachable.
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_wakeup_and_timeout() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            let deadline = Instant::now() + Duration::from_secs(5);
            while !*done {
                if cv.wait_until(&mut done, deadline).timed_out() {
                    return false;
                }
            }
            true
        });
        crate::test_sleep();
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_one();
        assert!(t.join().unwrap());

        // And a wait with no notifier times out.
        let mut g = m.lock();
        *g = false;
        assert!(cv
            .wait_until(&mut g, Instant::now() + Duration::from_millis(10))
            .timed_out());
    }

    #[test]
    fn condvar_with_past_deadline_times_out_immediately() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv
            .wait_until(&mut g, Instant::now() - Duration::from_secs(1))
            .timed_out());
    }

    #[test]
    fn notify_with_nobody_waiting_is_skipped_and_a_timeout_unregisters() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        assert_eq!(cv.waiters(), 0);
        cv.notify_one();
        cv.notify_all();
        let mut g = m.lock();
        assert!(cv
            .wait_until(&mut g, Instant::now() + Duration::from_millis(5))
            .timed_out());
        assert_eq!(cv.waiters(), 0, "a timed-out waiter stayed registered");
    }

    #[test]
    fn notify_all_wakes_every_parked_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let pair = Arc::clone(&pair);
                std::thread::spawn(move || {
                    let (m, cv) = &*pair;
                    let mut flag = m.lock();
                    let deadline = Instant::now() + Duration::from_secs(3600);
                    while !*flag {
                        if cv.wait_until(&mut flag, deadline).timed_out() {
                            return false;
                        }
                    }
                    true
                })
            })
            .collect();
        // The count itself is the barrier: all three are parked (or
        // about to release the mutex into the park) once it reads 3.
        while pair.1.waiters() < 3 {
            std::thread::yield_now();
        }
        *pair.0.lock() = true;
        pair.1.notify_all();
        for h in handles {
            assert!(h.join().unwrap(), "a parked waiter was not woken");
        }
        assert_eq!(pair.1.waiters(), 0);
    }

    /// The real, unhooked path loses no wakeup: two threads hand a turn
    /// back and forth 10^5 times through one mutex and one gated
    /// condvar. Each side notifies after flipping the turn under the
    /// mutex, usually while the other is not yet parked (the skipped
    /// case) and often just as it parks (the race the registration
    /// order closes). A lost wakeup would park both for the hour-long
    /// deadline; the watchdog turns that hang into a failure.
    #[test]
    fn ping_pong_handoffs_never_lose_a_wakeup() {
        const HANDOFFS: u32 = 100_000;
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let sides = (0..2u32).map(|side| {
            let pair = Arc::clone(&pair);
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                let (m, cv) = &*pair;
                let deadline = Instant::now() + Duration::from_secs(3600);
                let mut expired = false;
                let mut turn = m.lock();
                while *turn < HANDOFFS && !expired {
                    if *turn % 2 == side {
                        *turn += 1;
                        drop(turn);
                        cv.notify_one();
                        turn = m.lock();
                    } else {
                        expired = cv.wait_until(&mut turn, deadline).timed_out();
                    }
                }
                drop(turn);
                let _ = done_tx.send(expired);
            })
        });
        let sides: Vec<_> = sides.collect();
        for _ in 0..2 {
            let expired = done_rx
                .recv_timeout(Duration::from_secs(300))
                .expect("ping-pong stalled: a wakeup was lost");
            assert!(!expired, "an hour-long wait expired");
        }
        for side in sides {
            side.join().unwrap();
        }
        assert_eq!(pair.1.waiters(), 0);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a, *b);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }
}
