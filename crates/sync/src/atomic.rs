//! Instrumented atomics: `std::sync::atomic` wrappers that report every
//! access to the per-thread [`hook`](crate::hook) scheduler.
//!
//! The RPC runtime's raw-atomic protocols (channel sender/receiver
//! counts, the hook's own install gate) were invisible to
//! `firefly-check` before these wrappers existed: the checker saw lock
//! and condvar events but not the atomic loads and stores whose
//! orderings those protocols actually hinge on. Each method here first
//! consults [`hook::current`] — one relaxed load when no scheduler is
//! installed, keeping the production path inside the lint fast-path
//! budget — and, when checked, reports the access (address, op kind,
//! ordering tag) *before* performing the real operation. The scheduler
//! treats the report as a schedule point: the thread parks until the
//! model grants the access, which gives the race detector a total order
//! of atomic accesses to hang its vector clocks on.
//!
//! Only the surface the workspace uses is wrapped (`AtomicUsize`,
//! `AtomicU64`, `AtomicBool`; load/store/fetch_add/fetch_sub/swap/
//! compare_exchange). Orderings pass straight through to std — the
//! wrapper instruments, it does not weaken or strengthen.

use std::sync::atomic::Ordering;

use crate::hook::{self, AtomicOp, OrderTag};
use crate::hook_addr;

macro_rules! instrumented_atomic {
    ($name:ident, $inner:ty, $value:ty) => {
        /// Instrumented drop-in for the same-named `std::sync::atomic`
        /// type. See the module docs for the hook contract.
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $inner,
        }

        impl $name {
            /// Creates a new atomic with the given initial value.
            pub const fn new(value: $value) -> $name {
                $name {
                    inner: <$inner>::new(value),
                }
            }

            /// Names this location for the concurrency checker (e.g.
            /// with the protocol field it implements). No-op without an
            /// installed scheduler.
            pub fn check_label(&self, label: &'static str) {
                if let Some(h) = hook::current() {
                    h.on_atomic_label(hook_addr(self), label);
                }
            }

            #[inline]
            fn report(&self, op: AtomicOp, order: Ordering) {
                if let Some(h) = hook::current() {
                    h.on_atomic(hook_addr(self), op, OrderTag::from(order));
                }
            }

            /// Loads the value.
            #[inline]
            pub fn load(&self, order: Ordering) -> $value {
                self.report(AtomicOp::Load, order);
                self.inner.load(order)
            }

            /// Stores `value`.
            #[inline]
            pub fn store(&self, value: $value, order: Ordering) {
                self.report(AtomicOp::Store, order);
                self.inner.store(value, order);
            }

            /// Swaps in `value`, returning the previous value.
            #[inline]
            pub fn swap(&self, value: $value, order: Ordering) -> $value {
                self.report(AtomicOp::Rmw, order);
                self.inner.swap(value, order)
            }

            /// Stores `new` if the current value equals `current`.
            #[inline]
            pub fn compare_exchange(
                &self,
                current: $value,
                new: $value,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$value, $value> {
                // One schedule point for the whole RMW; the success
                // ordering is the strongest the access can take.
                self.report(AtomicOp::Rmw, success);
                self.inner.compare_exchange(current, new, success, failure)
            }
        }
    };
}

macro_rules! instrumented_arith {
    ($name:ident, $value:ty) => {
        impl $name {
            /// Adds `value`, returning the previous value.
            #[inline]
            pub fn fetch_add(&self, value: $value, order: Ordering) -> $value {
                self.report(AtomicOp::Rmw, order);
                self.inner.fetch_add(value, order)
            }

            /// Subtracts `value`, returning the previous value.
            #[inline]
            pub fn fetch_sub(&self, value: $value, order: Ordering) -> $value {
                self.report(AtomicOp::Rmw, order);
                self.inner.fetch_sub(value, order)
            }
        }
    };
}

instrumented_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
instrumented_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
instrumented_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
instrumented_arith!(AtomicUsize, usize);
instrumented_arith!(AtomicU64, u64);

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering};

    struct Recorder {
        events: StdAtomicU64,
    }

    impl hook::Scheduler for Recorder {
        fn on_label(&self, _lock: usize, _label: &'static str) {}
        fn before_lock(&self, _lock: usize) {}
        fn after_unlock(&self, _lock: usize) {}
        fn cond_wait(&self, _cond: usize, _lock: usize) {}
        fn notify(&self, _cond: usize, _all: bool) {}
        fn on_atomic(&self, _addr: usize, _op: AtomicOp, _tag: OrderTag) {
            self.events.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn uninstrumented_path_behaves_like_std() {
        let a = AtomicUsize::new(3);
        assert_eq!(a.fetch_add(2, Ordering::AcqRel), 3);
        assert_eq!(a.load(Ordering::Acquire), 5);
        a.store(7, Ordering::Release);
        assert_eq!(a.swap(1, Ordering::AcqRel), 7);
        assert_eq!(
            a.compare_exchange(1, 9, Ordering::AcqRel, Ordering::Acquire),
            Ok(1)
        );
        let b = AtomicBool::new(false);
        b.store(true, Ordering::Release);
        assert!(b.load(Ordering::Acquire));
        let c = AtomicU64::new(10);
        assert_eq!(c.fetch_sub(4, Ordering::AcqRel), 10);
        assert_eq!(c.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn installed_scheduler_sees_each_access() {
        let sched: &'static Recorder = Box::leak(Box::new(Recorder {
            events: StdAtomicU64::new(0),
        }));
        hook::install(sched);
        let a = AtomicUsize::new(0);
        a.store(1, Ordering::Release); // 1
        let _ = a.load(Ordering::Acquire); // 2
        let _ = a.fetch_add(1, Ordering::AcqRel); // 3
        hook::uninstall();
        let _ = a.load(Ordering::Relaxed); // not counted
        assert_eq!(sched.events.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn order_tags_classify_sanctioned_accesses() {
        assert!(OrderTag::Acquire.acquires());
        assert!(OrderTag::AcqRel.acquires());
        assert!(OrderTag::SeqCst.releases());
        assert!(!OrderTag::Relaxed.acquires());
        assert!(!OrderTag::Relaxed.releases());
        assert!(!OrderTag::Release.acquires());
        assert_eq!(OrderTag::from(Ordering::AcqRel), OrderTag::AcqRel);
        assert_eq!(OrderTag::from(Ordering::SeqCst), OrderTag::SeqCst);
        assert_eq!(OrderTag::Relaxed.name(), "relaxed");
    }
}
