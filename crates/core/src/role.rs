//! The receive role: who is inside the transport's receive calls.
//!
//! The Firefly's receive interrupt "directly awakens" the thread a packet
//! is for (§3.1.3); an intermediate datalink thread "would add two
//! wake-ups to every call". A user-space thread blocked in `recv` *is*
//! that datalink thread unless it is also the thread the packet is for.
//! So an endpoint has one receive role, held by exactly one thread at a
//! time, and the thread that needs the next packet takes it:
//!
//! * a caller waiting for its result takes the role when it is free and
//!   polls the socket itself ([`ReceiveRole::wait_receiving`]); its own
//!   result then costs no wake-up at all;
//! * the **resident receiver** (the endpoint's own thread, the only one
//!   that ever blocks in `recv`) holds the role whenever no caller does.
//!   It cedes when a waiting caller has asked and nobody is parked
//!   ([`ReceiveRole::should_cede`], [`ReceiveRole::cede`]), and comes
//!   back on an explicit wake or after the role sat free and unused
//!   across two of its timed wake-ups.
//!
//! Role states: `RESIDENT` (initial), `FREE`, `CALLER`. A caller parks on
//! its call entry only while somebody else holds the role, and is then
//! counted in `parked` until a packet is delivered to it. The call
//! table's entries keep that count exact
//! ([`CallEntry::count_parked`](crate::calltable::CallEntry) and every
//! delivery); this module only reads it: `parked` is the number of
//! waiters nobody has a wake-up for. The invariant the `receive-role`
//! model in `firefly-check` explores is that no execution ends with a
//! datagram queued, a waiter parked and the role unheld.
//!
//! Nobody waits, with the role in hand, for something only the role
//! holder can receive. A caller holding it gives it up at its wait's
//! deadline whatever other traffic it is receiving. The resident runs
//! service code while holding it (see [`crate::server`]); a handler that
//! makes a call of its own through this endpoint finds the role held by
//! its own thread and receives for itself until that call's result is in
//! ([`ReceiveRole::adopt_resident`]).
//!
//! The caller path pays no syscall and no wake-up for the role when it
//! is alone: acquire is one compare-exchange, release one store and one
//! load. Release wakes the resident only when the releasing caller is
//! about to park with its call outstanding, or other waiters are parked.
//!
//! Ordering: `holder` and `parked` form a store/load (Dekker) pair — a
//! releaser stores `holder = FREE` then loads `parked`, a parker
//! increments `parked` then loads `holder` — so both are `SeqCst`; at
//! least one side always sees the other. `wanted` rides along as
//! `SeqCst`; `uses` is a statistic and `Relaxed`.

use crate::calltable::{CallEntry, Wait};
use firefly_sync::atomic::{AtomicBool, AtomicUsize};
use firefly_sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const FREE: usize = 0;
const RESIDENT: usize = 1;
const CALLER: usize = 2;

/// How long the ceded resident sleeps between looks at the role. It
/// takes the role back after finding it free and unused on two
/// consecutive looks, so an endpoint whose caller stream stops is deaf
/// for at most twice this.
pub const IDLE_TICK: Duration = Duration::from_millis(1);

/// What one receive attempt by a role-holding caller found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polled {
    /// A datagram was received and processed.
    Datagram,
    /// Nothing was waiting.
    Empty,
    /// The transport cannot be polled (it is shut down): stop polling
    /// and park.
    Closed,
}

#[derive(Debug, Default)]
struct Ceded {
    /// A releasing caller asked the resident to take the role back.
    wake: bool,
    down: bool,
}

/// One endpoint's receive role. See the module docs.
#[derive(Debug)]
pub struct ReceiveRole {
    holder: AtomicUsize,
    /// Caller threads parked, or committed to parking, on call entries
    /// nothing has been delivered to; the call table's count, read here.
    parked: Arc<AtomicUsize>,
    /// The resident receiver's thread, once it runs.
    resident: OnceLock<ThreadId>,
    /// A waiting caller found the resident holding the role.
    wanted: AtomicBool,
    /// Caller acquisitions so far; the ceded resident's idle detection
    /// compares two readings. A statistic: it orders nothing.
    uses: AtomicU64,
    ceded: Mutex<Ceded>,
    resume: Condvar,
}

impl ReceiveRole {
    /// A role held by the resident receiver, over the call table whose
    /// parked-waiter count is `parked`.
    pub fn new(parked: Arc<AtomicUsize>) -> ReceiveRole {
        ReceiveRole {
            holder: AtomicUsize::new(RESIDENT),
            parked,
            resident: OnceLock::new(),
            wanted: AtomicBool::new(false),
            uses: AtomicU64::new(0),
            ceded: Mutex::new(Ceded::default()),
            resume: Condvar::new(),
        }
    }

    /// Names the role's atomics for `firefly-check`. No-op outside a
    /// checked schedule.
    pub fn check_labels(&self) {
        self.holder.check_label("holder");
        self.parked.check_label("parked");
        self.wanted.check_label("wanted");
    }

    #[cfg(test)]
    fn is_free(&self) -> bool {
        self.holder.load(Ordering::SeqCst) == FREE
    }

    /// Caller threads parked on entries nothing has been delivered to
    /// (racy; 0 at quiescence).
    pub fn parked(&self) -> usize {
        self.parked.load(Ordering::SeqCst)
    }

    /// Makes the calling thread the resident receiver: the one thread
    /// that holds the role while it runs service code, and so the one
    /// thread that may find itself waiting on a call entry with the role
    /// already in hand.
    pub fn adopt_resident(&self) {
        let _ = self.resident.set(std::thread::current().id());
    }

    fn on_resident_thread(&self) -> bool {
        self.resident.get() == Some(&std::thread::current().id())
    }

    fn try_acquire(&self, who: usize) -> bool {
        self.holder
            .compare_exchange(FREE, who, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    fn wake_resident(&self) {
        self.ceded.lock().wake = true;
        self.resume.notify_one();
    }

    /// Waits on `entry`, receiving meanwhile if the role is free: the
    /// caller half of the protocol.
    ///
    /// With the role in hand the caller calls `receive` until something
    /// is delivered to `entry`, `budget` consecutive attempts found
    /// nothing (yielding the processor between them), or `deadline`
    /// passes. Otherwise — role taken, or budget spent — it parks on the
    /// entry until `deadline`, counted in `parked` for as long as
    /// nothing has been delivered to it.
    pub fn wait_receiving(
        &self,
        entry: &CallEntry,
        deadline: Instant,
        budget: usize,
        mut receive: impl FnMut() -> Polled,
    ) -> Wait {
        loop {
            if !self.try_acquire(CALLER) {
                // Somebody else is receiving: park, unless the role was
                // released between the two looks.
                if let Some(ready) = entry.count_parked() {
                    return ready;
                }
                match self.holder.load(Ordering::SeqCst) {
                    FREE => {
                        entry.uncount_parked();
                        continue;
                    }
                    RESIDENT if self.on_resident_thread() => {
                        // Service code the resident is running made
                        // this call: nobody else will receive for it.
                        entry.uncount_parked();
                        return Self::receive_until(entry, deadline, receive);
                    }
                    RESIDENT if !self.wanted.load(Ordering::SeqCst) => {
                        self.wanted.store(true, Ordering::SeqCst);
                    }
                    _ => {}
                }
                return self.park(entry, deadline);
            }
            self.uses.fetch_add(1, Ordering::Relaxed);
            // A previous holder may have delivered already.
            let mut got = entry.poll();
            let mut empty = 0;
            let mut expired = false;
            while got.is_none() && empty < budget && !expired {
                match receive() {
                    Polled::Datagram => {
                        empty = 0;
                        got = entry.poll();
                        // Other waiters' traffic must not keep this one
                        // from its retransmission timer.
                        expired = got.is_none() && Instant::now() >= deadline;
                    }
                    Polled::Empty => {
                        empty += 1;
                        std::thread::yield_now();
                    }
                    Polled::Closed => break,
                }
            }
            if got.is_some() || expired {
                // This thread goes on running and will be back. A plain
                // store when nobody else needs receiving; parked waiters
                // get the resident.
                self.holder.store(FREE, Ordering::SeqCst);
                if self.parked.load(Ordering::SeqCst) > 0 {
                    self.wake_resident();
                }
                return got.unwrap_or(Wait::TimedOut);
            }
            // About to park with the call outstanding.
            let ready = entry.count_parked();
            self.holder.store(FREE, Ordering::SeqCst);
            self.wake_resident();
            return ready.unwrap_or_else(|| self.park(entry, deadline));
        }
    }

    /// The resident receiver waiting on a call entry of its own (a call
    /// made by service code it runs): it holds the role, so it receives
    /// until the entry has something or `deadline` passes, and never
    /// parks. A transport that cannot be polled right now is tried
    /// again.
    fn receive_until(entry: &CallEntry, deadline: Instant, mut receive: impl FnMut() -> Polled) -> Wait {
        loop {
            if let Some(ready) = entry.poll() {
                return ready;
            }
            if Instant::now() >= deadline {
                return Wait::TimedOut;
            }
            if receive() != Polled::Datagram {
                std::thread::yield_now();
            }
        }
    }

    fn park(&self, entry: &CallEntry, deadline: Instant) -> Wait {
        let waited = entry.wait(deadline);
        entry.uncount_parked();
        waited
    }

    /// Resident receiver: true when a waiting caller has asked for the
    /// role and no caller is parked with nothing delivered — everyone
    /// it could strand is awake, or about to be, and will find the role
    /// free.
    pub fn should_cede(&self) -> bool {
        self.wanted.load(Ordering::SeqCst) && self.parked.load(Ordering::SeqCst) == 0
    }

    /// Resident receiver: gives the role up and sleeps until it has it
    /// back. Returns false on shutdown.
    pub fn cede(&self) -> bool {
        self.wanted.store(false, Ordering::SeqCst);
        self.holder.store(FREE, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 && self.try_acquire(RESIDENT) {
            // A waiter parked inside the window; it saw the role held.
            return true;
        }
        let mut seen = self.uses.load(Ordering::Relaxed);
        let mut st = self.ceded.lock();
        loop {
            if st.down {
                return false;
            }
            if st.wake {
                st.wake = false;
                if self.try_acquire(RESIDENT) {
                    return true;
                }
                // A caller got in first; its release wakes us again if
                // anyone is still parked.
            }
            if self
                .resume
                .wait_until(&mut st, Instant::now() + IDLE_TICK)
                .timed_out()
            {
                let uses = self.uses.load(Ordering::Relaxed);
                if uses == seen && self.try_acquire(RESIDENT) {
                    return true;
                }
                seen = uses;
            }
        }
    }

    /// Wakes a ceded resident for good.
    pub fn shutdown(&self) {
        self.ceded.lock().down = true;
        self.resume.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calltable::ShardedCallTable;
    use crate::packet::Packet;
    use firefly_pool::BufferPool;
    use firefly_wire::{ActivityId, FrameBuilder, PacketType};

    fn activity() -> ActivityId {
        ActivityId::new(7, 1, 1)
    }

    fn result_packet(pool: &BufferPool, seq: u32) -> Packet {
        let frame = FrameBuilder::new(PacketType::Result)
            .activity(activity())
            .call_seq(seq)
            .build(&[])
            .unwrap();
        let mut buf = pool.alloc().unwrap();
        buf.fill_from(frame.bytes());
        Packet::from_buf(buf).unwrap()
    }

    fn soon() -> Instant {
        Instant::now() + Duration::from_millis(20)
    }

    #[test]
    fn a_caller_parks_while_the_resident_holds_and_asks_for_the_role() {
        let table = ShardedCallTable::new(1);
        let role = ReceiveRole::new(table.parked_counter());
        let entry = table.register(activity(), 1);
        let mut received = 0;
        let waited = role.wait_receiving(&entry, soon(), 4, || {
            received += 1;
            Polled::Empty
        });
        assert!(matches!(waited, Wait::TimedOut));
        assert_eq!(received, 0, "polled a socket the resident holds");
        // It asked, and it is no longer parked: the resident may cede.
        assert_eq!(role.parked(), 0);
        assert!(role.should_cede());
    }

    #[test]
    fn a_caller_with_the_role_polls_until_its_own_packet_arrives() {
        let table = ShardedCallTable::new(1);
        let pool = BufferPool::new(1);
        let role = ReceiveRole::new(table.parked_counter());
        role.holder.store(FREE, Ordering::SeqCst);
        let entry = table.register(activity(), 1);
        let mut pkt = Some(result_packet(&pool, 1));
        let mut polls = 0;
        let waited = role.wait_receiving(&entry, soon(), 8, || {
            polls += 1;
            if polls < 3 {
                return Polled::Empty;
            }
            let pkt = pkt.take().unwrap();
            table.deliver_frame(&pkt.rpc, pkt.data(), Some(&*entry));
            Polled::Datagram
        });
        assert!(matches!(waited, Wait::Complete(_)));
        assert_eq!(polls, 3);
        assert!(role.is_free());
        assert!(!role.ceded.lock().wake, "nobody parked: release is a plain store");
    }

    #[test]
    fn a_spent_budget_hands_the_role_to_the_resident() {
        let table = ShardedCallTable::new(1);
        let role = ReceiveRole::new(table.parked_counter());
        role.holder.store(FREE, Ordering::SeqCst);
        let entry = table.register(activity(), 1);
        let waited = role.wait_receiving(&entry, soon(), 2, || Polled::Empty);
        assert!(matches!(waited, Wait::TimedOut));
        assert!(role.is_free());
        assert!(role.ceded.lock().wake);
        assert_eq!(role.parked(), 0);
    }

    #[test]
    fn other_waiters_traffic_does_not_keep_a_caller_past_its_deadline() {
        // Its own packet was lost; every receive brings a datagram for
        // somebody else, so the budget of empty polls is never spent.
        let table = ShardedCallTable::new(1);
        let role = ReceiveRole::new(table.parked_counter());
        role.holder.store(FREE, Ordering::SeqCst);
        let entry = table.register(activity(), 1);
        let deadline = soon();
        let waited = role.wait_receiving(&entry, deadline, 4, || {
            assert!(
                Instant::now() < deadline + Duration::from_secs(2),
                "still receiving long after the deadline"
            );
            Polled::Datagram
        });
        assert!(matches!(waited, Wait::TimedOut));
        assert!(Instant::now() >= deadline);
        // Released as after a delivery: it is awake and will be back.
        assert!(role.is_free());
        assert!(!role.ceded.lock().wake);
        assert_eq!(role.parked(), 0);
    }

    #[test]
    fn the_resident_waiting_on_an_entry_of_its_own_receives_for_it() {
        let table = ShardedCallTable::new(1);
        let pool = BufferPool::new(1);
        let role = ReceiveRole::new(table.parked_counter());
        role.adopt_resident();
        let entry = table.register(activity(), 1);
        let mut pkt = Some(result_packet(&pool, 1));
        let mut polls = 0;
        // Far more empty polls than any caller's budget: it cannot park.
        let waited = role.wait_receiving(&entry, soon(), 4, || {
            polls += 1;
            if polls < 100 {
                return Polled::Empty;
            }
            let pkt = pkt.take().unwrap();
            table.deliver_frame(&pkt.rpc, pkt.data(), Some(&*entry));
            Polled::Datagram
        });
        assert!(matches!(waited, Wait::Complete(_)));
        assert_eq!(role.holder.load(Ordering::SeqCst), RESIDENT);
        assert_eq!(role.parked(), 0);
        assert!(!role.wanted.load(Ordering::SeqCst), "asked itself for the role");
        // Nothing arrives: back at the deadline, role still in hand.
        let entry = table.register(activity(), 2);
        let waited = role.wait_receiving(&entry, soon(), 4, || Polled::Closed);
        assert!(matches!(waited, Wait::TimedOut));
        assert_eq!(role.holder.load(Ordering::SeqCst), RESIDENT);
    }

    #[test]
    fn a_delivery_takes_the_waiter_out_of_the_parked_count_at_once() {
        let table = ShardedCallTable::new(1);
        let pool = BufferPool::new(1);
        let role = ReceiveRole::new(table.parked_counter());
        let entry = table.register(activity(), 1);
        assert!(entry.count_parked().is_none());
        assert_eq!(role.parked(), 1);
        // The waiter has not run yet, but it has its wake-up.
        table.deliver(result_packet(&pool, 1));
        assert_eq!(role.parked(), 0);
        entry.uncount_parked();
        assert_eq!(role.parked(), 0, "uncounted twice");
    }

    #[test]
    fn the_ceded_resident_returns_when_idle_and_ends_on_shutdown() {
        let role = ReceiveRole::new(ShardedCallTable::new(1).parked_counter());
        // Idle: free and unused for a whole tick.
        let started = Instant::now();
        assert!(role.cede());
        assert!(started.elapsed() >= IDLE_TICK);
        assert!(!role.is_free());
        role.shutdown();
        assert!(!role.cede());
    }
}
