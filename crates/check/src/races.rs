//! Happens-before race detection over the scheduler's event stream.
//!
//! The scheduler serializes every synchronization event, which gives
//! the detector a total order to walk — but a total order is exactly
//! what must *not* define "ordered" here. Happens-before comes only
//! from real synchronization: lock release → subsequent acquisition of
//! the same lock (a condvar wait releases and reacquires through the
//! same channel), and sanctioned atomic release-store → acquire-load of
//! the same location. A notify carries **no** edge to the woken thread
//! — only the mutex reacquisition does — so code that assumes "the
//! wakeup itself orders my write" is flagged, which is precisely the
//! notify-read fixture bug.
//!
//! ## The sanctioned-access rule
//!
//! Two accesses to one atomic location *conflict* when at least one
//! writes. A conflicting pair is a race unless one of:
//!
//! * the accesses are ordered by happens-before (vector clocks);
//! * both are read-modify-writes (RMWs form a total modification order
//!   regardless of tag — a `Relaxed` counter increment pair is racy
//!   *by tag* but not by outcome, and flagging it would outlaw every
//!   statistics counter);
//! * both are *sanctioned*: an acquire-or-stronger load, a
//!   release-or-stronger store, or a non-relaxed RMW. Sanctioned pairs
//!   are the deliberate release/acquire protocols (channel disconnect
//!   counts, install gates); the detector checks that *their* hb edges
//!   then cover any plain data they publish.
//!
//! So a `Relaxed` store racing an `Acquire` load is reported (publish
//! without release — the load acquires nothing), while the symmetric
//! correct protocol is silent.

use crate::vc::VectorClock;
use firefly_sync::hook::{AtomicOp, OrderTag};
use std::collections::{BTreeMap, BTreeSet};

/// One recorded atomic access, kept in a location's history until a
/// later access is provably ordered after everything before it.
#[derive(Debug, Clone)]
struct Access {
    tid: usize,
    epoch: u32,
    op: AtomicOp,
    sanctioned: bool,
    /// Rendered description, e.g. `t1 store(relaxed) at step 12`.
    desc: String,
}

/// Per-atomic-location detector state.
#[derive(Debug, Default)]
struct Location {
    /// Joined by sanctioned (release) writers, acquired by sanctioned
    /// readers: the location's publication clock.
    release: Option<VectorClock>,
    history: Vec<Access>,
}

/// A reported race: two conflicting, unordered, unsanctioned accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Scheduler name of the location (label or `atomic#N`).
    pub location: String,
    /// The earlier access, as a stack-free event description.
    pub first: String,
    /// The later (detecting) access.
    pub second: String,
}

/// The vector-clock engine: one clock per model thread, one per lock
/// (its last release), one per atomic location (its publication clock
/// plus access history).
#[derive(Debug)]
pub struct Detector {
    threads: Vec<VectorClock>,
    locks: BTreeMap<usize, VectorClock>,
    atomics: BTreeMap<usize, Location>,
    /// Location classes (scheduler label with the `#N` instance suffix
    /// stripped) on which a real release→acquire publication edge was
    /// consumed this schedule. `gates::publications` checks these against
    /// the static lint pass's paired atomic locations.
    publications: BTreeSet<String>,
}

fn writes(op: AtomicOp) -> bool {
    matches!(op, AtomicOp::Store | AtomicOp::Rmw)
}

fn sanctioned(op: AtomicOp, tag: OrderTag) -> bool {
    match op {
        AtomicOp::Load => tag.acquires(),
        AtomicOp::Store => tag.releases(),
        AtomicOp::Rmw => tag != OrderTag::Relaxed,
    }
}

impl Detector {
    /// A fresh detector for `n` model threads.
    pub fn new(n: usize) -> Detector {
        Detector {
            threads: (0..n).map(|_| VectorClock::new(n)).collect(),
            locks: BTreeMap::new(),
            atomics: BTreeMap::new(),
            publications: BTreeSet::new(),
        }
    }

    /// Drains the set of location classes whose release→acquire edges
    /// were consumed so far.
    pub fn take_publications(&mut self) -> BTreeSet<String> {
        std::mem::take(&mut self.publications)
    }

    /// `tid` acquired `lock` (or reacquired it on waking from a
    /// condvar): it learns everything the last releaser knew.
    pub fn lock_acquired(&mut self, tid: usize, lock: usize) {
        if let Some(release) = self.locks.get(&lock) {
            self.threads[tid].join(release);
        }
    }

    /// `tid` released `lock` (including the release half of a condvar
    /// wait): it publishes its clock to the next acquirer.
    pub fn lock_released(&mut self, tid: usize, lock: usize) {
        let clock = self.threads[tid].clone();
        self.locks
            .entry(lock)
            .and_modify(|vc| vc.join(&clock))
            .or_insert(clock);
        self.threads[tid].tick(tid);
    }

    /// `tid` performs an atomic access on `addr`. `step` and `location`
    /// feed the report; returns the race, if this access completes one.
    pub fn atomic_access(
        &mut self,
        tid: usize,
        addr: usize,
        op: AtomicOp,
        tag: OrderTag,
        step: usize,
        location: &str,
    ) -> Option<RaceReport> {
        let epoch = self.threads[tid].tick(tid);
        let sanctioned_now = sanctioned(op, tag);
        let kind = match op {
            AtomicOp::Load => "load",
            AtomicOp::Store => "store",
            AtomicOp::Rmw => "rmw",
        };
        let desc = format!("t{tid} {kind}({}) at step {step}", tag.name());

        let loc = self.atomics.entry(addr).or_default();
        let mut race = None;
        for prev in &loc.history {
            if prev.tid == tid {
                continue; // program order
            }
            if !(writes(prev.op) || writes(op)) {
                continue; // read/read never conflicts
            }
            if prev.op == AtomicOp::Rmw && op == AtomicOp::Rmw {
                continue; // RMWs totally ordered by modification order
            }
            if prev.sanctioned && sanctioned_now {
                continue; // both halves of a release/acquire protocol
            }
            if self.threads[tid].covers(prev.tid, prev.epoch) {
                continue; // happens-before ordered
            }
            race = Some(RaceReport {
                location: location.to_string(),
                first: prev.desc.clone(),
                second: desc.clone(),
            });
            break;
        }

        // Publication edges, after the race check so an acquire load
        // does not sanitize its own racy read of the publishing store.
        if sanctioned_now && matches!(op, AtomicOp::Load | AtomicOp::Rmw) && tag.acquires() {
            if let Some(release) = &loc.release {
                self.threads[tid].join(release);
                // A real publication edge was consumed on this
                // location: record its class (label minus the `#N`
                // instance suffix) for the static↔dynamic diff.
                let class = location.split('#').next().unwrap_or(location);
                self.publications.insert(class.to_string());
            }
        }
        if sanctioned_now && writes(op) && tag.releases() {
            let clock = self.threads[tid].clone();
            match &mut loc.release {
                Some(vc) => vc.join(&clock),
                None => loc.release = Some(clock),
            }
        }
        loc.history.push(Access {
            tid,
            epoch,
            op,
            sanctioned: sanctioned_now,
            desc,
        });
        race
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(
        d: &mut Detector,
        tid: usize,
        addr: usize,
        op: AtomicOp,
        tag: OrderTag,
        step: usize,
    ) -> Option<RaceReport> {
        d.atomic_access(tid, addr, op, tag, step, "x")
    }

    #[test]
    fn unsynchronized_store_pair_races() {
        let mut d = Detector::new(2);
        assert!(access(&mut d, 0, 1, AtomicOp::Store, OrderTag::Relaxed, 1).is_none());
        let race = access(&mut d, 1, 1, AtomicOp::Store, OrderTag::Relaxed, 2).unwrap();
        assert_eq!(race.location, "x");
        assert!(race.first.contains("t0 store(relaxed)"));
        assert!(race.second.contains("t1 store(relaxed)"));
    }

    #[test]
    fn relaxed_load_races_relaxed_store() {
        let mut d = Detector::new(2);
        assert!(access(&mut d, 0, 1, AtomicOp::Store, OrderTag::Relaxed, 1).is_none());
        assert!(access(&mut d, 1, 1, AtomicOp::Load, OrderTag::Relaxed, 2).is_some());
    }

    #[test]
    fn loads_never_race_loads() {
        let mut d = Detector::new(2);
        assert!(access(&mut d, 0, 1, AtomicOp::Load, OrderTag::Relaxed, 1).is_none());
        assert!(access(&mut d, 1, 1, AtomicOp::Load, OrderTag::Relaxed, 2).is_none());
    }

    #[test]
    fn relaxed_rmw_pair_is_exempt() {
        // Two relaxed counter increments: racy by tag, ordered by the
        // modification order — deliberately not reported.
        let mut d = Detector::new(2);
        assert!(access(&mut d, 0, 1, AtomicOp::Rmw, OrderTag::Relaxed, 1).is_none());
        assert!(access(&mut d, 1, 1, AtomicOp::Rmw, OrderTag::Relaxed, 2).is_none());
    }

    #[test]
    fn release_acquire_protocol_is_sanctioned() {
        let mut d = Detector::new(2);
        assert!(access(&mut d, 0, 1, AtomicOp::Store, OrderTag::Release, 1).is_none());
        assert!(access(&mut d, 1, 1, AtomicOp::Load, OrderTag::Acquire, 2).is_none());
        // The consumed publication edge is recorded by location class.
        assert_eq!(
            d.take_publications().into_iter().collect::<Vec<_>>(),
            vec!["x".to_string()]
        );
        assert!(d.take_publications().is_empty());
    }

    #[test]
    fn instance_suffix_is_stripped_from_publication_classes() {
        let mut d = Detector::new(2);
        assert!(d
            .atomic_access(0, 1, AtomicOp::Store, OrderTag::Release, 1, "gate#3")
            .is_none());
        assert!(d
            .atomic_access(1, 1, AtomicOp::Load, OrderTag::Acquire, 2, "gate#3")
            .is_none());
        assert_eq!(
            d.take_publications().into_iter().collect::<Vec<_>>(),
            vec!["gate".to_string()]
        );
    }

    #[test]
    fn acquire_without_prior_release_records_no_publication() {
        let mut d = Detector::new(2);
        assert!(access(&mut d, 1, 1, AtomicOp::Load, OrderTag::Acquire, 1).is_none());
        assert!(d.take_publications().is_empty());
    }

    #[test]
    fn publish_without_release_is_reported() {
        // Writer publishes with a relaxed store; the reader's acquire
        // load acquires nothing, so the pair itself is flagged.
        let mut d = Detector::new(2);
        assert!(access(&mut d, 0, 1, AtomicOp::Store, OrderTag::Relaxed, 1).is_none());
        assert!(access(&mut d, 1, 1, AtomicOp::Load, OrderTag::Acquire, 2).is_some());
    }

    #[test]
    fn acquire_load_orders_subsequent_plain_accesses() {
        // data (addr 2) is relaxed on both sides, but the flag protocol
        // (addr 1, release/acquire) carries the writer's clock across.
        let mut d = Detector::new(2);
        assert!(access(&mut d, 0, 2, AtomicOp::Store, OrderTag::Relaxed, 1).is_none());
        assert!(access(&mut d, 0, 1, AtomicOp::Store, OrderTag::Release, 2).is_none());
        assert!(access(&mut d, 1, 1, AtomicOp::Load, OrderTag::Acquire, 3).is_none());
        assert!(access(&mut d, 1, 2, AtomicOp::Load, OrderTag::Relaxed, 4).is_none());
    }

    #[test]
    fn relaxed_flag_fails_to_order_the_data() {
        // Same shape, but the flag store is relaxed: the data pair
        // stays unordered. The flag pair races first (checked above);
        // the data pair also races if checked independently.
        let mut d = Detector::new(2);
        assert!(access(&mut d, 0, 2, AtomicOp::Store, OrderTag::Relaxed, 1).is_none());
        assert!(access(&mut d, 0, 1, AtomicOp::Store, OrderTag::Relaxed, 2).is_none());
        // flag pair: racy (publish without release)
        assert!(access(&mut d, 1, 1, AtomicOp::Load, OrderTag::Acquire, 3).is_some());
        // data pair: still unordered — no publication happened
        assert!(access(&mut d, 1, 2, AtomicOp::Load, OrderTag::Relaxed, 4).is_some());
    }

    #[test]
    fn mutex_transfer_orders_plain_atomics() {
        let mut d = Detector::new(2);
        const LOCK: usize = 99;
        d.lock_acquired(0, LOCK);
        assert!(access(&mut d, 0, 2, AtomicOp::Store, OrderTag::Relaxed, 1).is_none());
        d.lock_released(0, LOCK);
        d.lock_acquired(1, LOCK);
        assert!(access(&mut d, 1, 2, AtomicOp::Load, OrderTag::Relaxed, 2).is_none());
    }

    #[test]
    fn access_after_release_is_not_covered_by_the_lock() {
        // The writer stores *after* releasing the lock (the notify-read
        // shape): the reader's reacquisition covers nothing past the
        // release point.
        let mut d = Detector::new(2);
        const LOCK: usize = 99;
        d.lock_acquired(0, LOCK);
        d.lock_released(0, LOCK);
        assert!(access(&mut d, 0, 2, AtomicOp::Store, OrderTag::Relaxed, 1).is_none());
        d.lock_acquired(1, LOCK);
        assert!(access(&mut d, 1, 2, AtomicOp::Load, OrderTag::Relaxed, 2).is_some());
    }
}
