//! The caller-side call table: direct wakeup from the demultiplexer.
//!
//! "Such server threads are registered in the call table of the server
//! machine. … the interrupt routine … attaches the buffer containing the
//! call packet to the call table entry and awakens the server thread
//! directly." (§3.1.3.) On the caller side the same table lets the
//! interrupt routine find the thread waiting for a result: "the Ethernet
//! interrupt routine validates the arriving result packet, does the UDP
//! checksum, and tries to find the caller thread waiting in the call
//! table. If successful, the interrupt routine directly awakens the caller
//! thread."
//!
//! This module is that table for the caller role, and like the paper's it
//! is a table, not a map of calls: an activity's [`CallEntry`] is made
//! once, with the activity slot that owns it, and lives as long as the
//! slot does. Each shard of the table keeps its entries in a vector
//! indexed by the activity's dense `thread` number, and a delivery checks
//! the full [`ActivityId`] against the entry it indexes. Registering a call is
//! "lock the entry, set the sequence number, clear what the last call
//! left"; its waiter taking the result closes it again; nothing is
//! allocated, hashed or removed per call.
//!
//! The thread holding the endpoint's receive role ([`crate::role`])
//! delivers each caller-bound frame where it landed
//! ([`ShardedCallTable::deliver_frame`]): a single-packet result's data is
//! copied into the entry's own result frame — a heap buffer the activity
//! keeps from call to call, room for one packet's data, made at its
//! first result; a reassembled result is freed once read, not kept —
//! and the entry's condition variable is signalled: **at most one
//! wakeup per packet**, and none when the receiving thread is the waiter
//! itself. The fragments of a multi-packet result come as a run from the
//! datagram they landed in ([`ShardedCallTable::deliver_fragments`]),
//! which finds and locks the entry once for the run and copies each
//! fragment's data straight into the reassembly. No caller-bound frame takes a pool
//! buffer.

use crate::fragment::{Accepted, Reassembly};
use crate::packet::{Assembled, Fragment, Packet, MAX_RUN};
use crate::witness::{Action, ProtocolWitness, State};
use firefly_wire::{ActivityId, PacketType, RpcHeader, MAX_SINGLE_PACKET_DATA};
use firefly_sync::atomic::AtomicUsize;
use firefly_sync::{Condvar, Mutex, MutexGuard};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// What became of one fragment of a run
/// ([`ShardedCallTable::deliver_fragments`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivered {
    /// Buffered — or, the last one missing, it completed the result and
    /// the waiting thread was woken.
    Accepted,
    /// Buffered, and the sender asked for an acknowledgement: this one,
    /// naming the prefix of the result held.
    AcceptedNeedsAck(RpcHeader),
    /// Nobody is waiting for it, or it does not fit the transfer.
    Orphan,
}

/// Result of waiting on a call entry.
#[derive(Debug)]
pub enum Wait {
    /// The complete result arrived.
    Complete(Assembled),
    /// The server acknowledged a packet of ours; `held` is the prefix of
    /// the call's fragments it names and `last` whether that is the whole
    /// call (an ack of the final fragment, or of a retransmitted
    /// single-packet call, means the call is in progress — keep waiting,
    /// do not retransmit).
    Acked {
        /// Fragments the server holds, from the first on.
        held: u16,
        /// True when the ack covers the final fragment.
        last: bool,
    },
    /// The wait timed out; the caller should retransmit or give up.
    TimedOut,
}

#[derive(Debug, Default)]
struct EntryState {
    /// The call sequence number this entry expects.
    seq: u32,
    /// A call is registered and its result not yet taken by its waiter.
    /// Whatever arrives for a closed entry is an orphan.
    open: bool,
    /// Set when the complete result has arrived.
    outcome: Option<Assembled>,
    /// The server acknowledged our call since the last wait:
    /// `(held, last)`.
    acked: Option<(u16, bool)>,
    /// Partial multi-packet result, with the header of its first
    /// fragment to arrive (what an ack of it is made from).
    reassembly: Option<(RpcHeader, Reassembly)>,
    /// This entry's waiter is in the table's parked-waiter count: it
    /// committed to parking with nothing delivered. Whoever ends that
    /// state first — the thread delivering a packet, or the waiter
    /// giving up — clears the flag and takes the waiter out of the
    /// count, under this entry's lock, so the count is exactly the
    /// waiters nobody has a wake-up for.
    counted: bool,
    /// The result frame a single-packet result's data is copied into.
    /// It leaves with the outcome ([`Assembled::Owned`]) and comes back
    /// with the activity's next call ([`CallEntry::open`]).
    frame: Vec<u8>,
}

impl EntryState {
    fn take_ready(&mut self) -> Option<Wait> {
        if let Some(outcome) = self.outcome.take() {
            // The result is its waiter's now: the call is over, and a
            // copy of it arriving later is an orphan.
            self.open = false;
            return Some(Wait::Complete(outcome));
        }
        let (held, last) = self.acked.take()?;
        Some(Wait::Acked { held, last })
    }

    /// Whether a packet of call `seq` belongs to the open call and
    /// finds it still waiting for its result.
    fn wants(&self, seq: u32) -> bool {
        self.open && seq == self.seq && self.outcome.is_none()
    }
}

/// The call-table entry of one activity, waited on by the one caller
/// thread that is making the activity's call.
#[derive(Debug)]
pub struct CallEntry {
    /// The activity this entry is for; a delivery indexes by its
    /// `thread` and checks the whole id.
    id: ActivityId,
    state: Mutex<EntryState>,
    cond: Condvar,
    /// The parked-waiter count of the table this entry is in.
    parked: Arc<AtomicUsize>,
}

impl CallEntry {
    /// Labels this entry's state lock for `firefly-check` ("calltable"),
    /// a stable name for its trace lines and publication classes. No-op
    /// outside a checked schedule.
    pub fn check_labels(&self) {
        self.state.check_label("calltable");
    }

    /// The activity this entry is for.
    pub(crate) fn activity(&self) -> ActivityId {
        self.id
    }

    /// Opens call `seq` on this entry: what the last call left (an
    /// outcome nobody took, an ack, a partial result) is cleared. `frame`
    /// is the result frame the last call's outcome carried away, handed
    /// back for this call's result; `None` keeps the one the entry has.
    pub(crate) fn open(&self, seq: u32, frame: Option<Vec<u8>>) {
        let mut st = self.state.lock();
        st.seq = seq;
        if let Some(frame) = frame {
            st.frame = frame;
        }
        self.reset(&mut st, true);
    }

    /// Closes the entry's call without a result (it failed, or its
    /// deadline passed): whatever arrives for it from now on is an
    /// orphan.
    pub(crate) fn close(&self) {
        self.reset(&mut self.state.lock(), false);
    }

    /// Clears what the entry's last call left and opens or closes it.
    fn reset(&self, st: &mut EntryState, open: bool) {
        st.open = open;
        st.outcome = None;
        st.acked = None;
        st.reassembly = None;
        self.uncount(st);
    }

    /// Fragments of a multi-packet result buffered so far. They are
    /// delivered without a wake-up; a waiter whose timer fires reads its
    /// transfer's progress here.
    pub fn result_fragments(&self) -> u16 {
        self.state.lock().reassembly.as_ref().map_or(0, |(_, r)| r.received())
    }

    /// The ack a waiter whose timer fired sends to show the server the
    /// hole in its multi-packet result: it names the prefix held. `None`
    /// while no result fragment, or not fragment 0, has arrived.
    pub fn hole_ack(&self) -> Option<RpcHeader> {
        let st = self.state.lock();
        let (first, r) = st.reassembly.as_ref()?;
        crate::fragment::prefix_ack(first, r)
    }

    /// Non-blocking check: consumes an already-delivered outcome or
    /// pending ack if one is attached; never parks. A waiter holding the
    /// receive role looks here after each datagram it processes.
    pub fn poll(&self) -> Option<Wait> {
        self.state.lock().take_ready()
    }

    /// Commits this entry's waiter to parking by counting it among the
    /// table's parked waiters — unless something was delivered
    /// meanwhile, which is returned instead.
    ///
    /// `SeqCst`: the waiter counts itself and then looks at who holds
    /// the receive role, while a thread giving the role up stores that
    /// and then looks at this count (see [`crate::role`]).
    pub(crate) fn count_parked(&self) -> Option<Wait> {
        let mut st = self.state.lock();
        let ready = st.take_ready();
        if ready.is_none() && !st.counted {
            st.counted = true;
            self.parked.fetch_add(1, Ordering::SeqCst);
        }
        ready
    }

    /// Takes this entry's waiter back out of the count if no delivery
    /// has done so already.
    pub(crate) fn uncount_parked(&self) {
        self.uncount(&mut self.state.lock());
    }

    fn uncount(&self, st: &mut EntryState) {
        if st.counted {
            st.counted = false;
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Blocks until the result arrives, the server acks, or the deadline
    /// passes.
    pub fn wait(&self, deadline: Instant) -> Wait {
        let mut st = self.state.lock();
        loop {
            if let Some(ready) = st.take_ready() {
                return ready;
            }
            if self.cond.wait_until(&mut st, deadline).timed_out() {
                // Re-check before reporting timeout: the wakeup may have
                // raced the deadline.
                return st.take_ready().unwrap_or(Wait::TimedOut);
            }
        }
    }
}

/// Number of call-table shards: every endpoint's [`ShardedCallTable`]
/// is split into this many independent entry vectors, each under its own
/// lock, selected by [`shard_for`] (docs/SHARDING.md).
///
/// The paper's §4.2 "recoded runtime" what-if removed the global lock
/// chain from the fast path; sharding is the modern shape of that
/// change (per-core state, eRPC-style).
pub const SHARDS: usize = 4;

/// Pure shard-selection function: maps an activity id to a shard index.
///
/// The caller-side call table routes by this one function (the
/// server's hand-off is one queue and is not sharded), so a
/// retransmission or a duplicate (the id is in the packet header) lands
/// in the shard its first copy did. FNV-1a over the id's three fields spreads the sequential
/// `thread` counters that [`crate::client::ActivityPool`] mints.
pub fn shard_for(activity: ActivityId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let machine = activity.machine.to_le_bytes();
    let space = activity.space.to_le_bytes();
    let thread = activity.thread.to_le_bytes();
    let bytes = [machine.as_slice(), space.as_slice(), thread.as_slice()];
    for chunk in bytes {
        for &b in chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h % shards as u64) as usize
}

/// One shard's entries, at their activities' `thread` numbers.
type Entries = Vec<Option<Arc<CallEntry>>>;

/// The caller-side call table, shared by caller threads and whichever
/// thread holds the receive role: the entries of an endpoint's
/// activities, split into shards selected by [`shard_for`], each under a
/// lock of its own.
///
/// Concurrent callers on different activities take disjoint shard locks
/// when their entries are made and their packets delivered (a call's own
/// registration locks only its entry). A delivery holds at most one
/// shard's lock, and only to find the entry, so no two shard locks are
/// ever held together.
#[derive(Debug)]
pub struct ShardedCallTable {
    /// Every shard's entries; an entry is made with its activity's slot
    /// ([`ShardedCallTable::entry`]) and dropped with it.
    entries: Vec<Mutex<Entries>>,
    /// Caller-side protocol-transition witness: which protocol.toml rows
    /// the table's deliveries have taken. Relaxed counters.
    witness: ProtocolWitness,
    /// Waiters parked on entries of this table with nothing delivered
    /// to them: kept by the entries ([`CallEntry::count_parked`], every
    /// delivery), read by the endpoint's [`crate::role::ReceiveRole`].
    parked: Arc<AtomicUsize>,
}

impl ShardedCallTable {
    /// Creates an empty table of `shards` shards (at least one).
    pub fn new(shards: usize) -> ShardedCallTable {
        ShardedCallTable {
            // lint:allow(no-alloc-on-fast-path): once per endpoint.
            entries: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            witness: ProtocolWitness::default(),
            // lint:allow(no-alloc-on-fast-path): once per endpoint.
            parked: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The parked-waiter count this table's entries maintain, for
    /// [`crate::role::ReceiveRole::new`] to read.
    pub fn parked_counter(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.parked)
    }

    /// The protocol-transition witness of the table's deliveries.
    pub fn witness(&self) -> &ProtocolWitness {
        &self.witness
    }

    /// Labels every shard's lock for `firefly-check` ("calltable"), a
    /// stable name for its trace lines and publication classes. No-op
    /// outside a checked schedule.
    pub fn check_labels(&self) {
        for entries in &self.entries {
            entries.check_label("calltable");
        }
    }

    /// The locked shard that owns `activity`.
    fn shard(&self, activity: ActivityId) -> MutexGuard<'_, Entries> {
        self.entries[shard_for(activity, self.entries.len())].lock()
    }

    /// The entry of `activity`, made the first time it is asked for. An
    /// activity slot asks once, when it is made, and keeps the entry for
    /// every call it makes; the entry stays in the table until the slot
    /// is dropped ([`ShardedCallTable::remove`]). An endpoint's
    /// activities differ only in their thread number; one of another
    /// machine or space at the same number takes the place over.
    pub(crate) fn entry(&self, activity: ActivityId) -> Arc<CallEntry> {
        let index = usize::from(activity.thread);
        let mut entries = self.shard(activity);
        if entries.len() <= index {
            entries.resize(index + 1, None);
        }
        if let Some(Some(entry)) = entries.get(index) {
            if entry.id == activity {
                return Arc::clone(entry);
            }
        }
        // lint:allow(no-alloc-on-fast-path): once per activity slot;
        // every call the slot makes reuses the entry.
        let entry = Arc::new(CallEntry {
            id: activity,
            state: Mutex::default(),
            cond: Condvar::new(),
            parked: Arc::clone(&self.parked),
        });
        if let Some(at) = entries.get_mut(index) {
            *at = Some(Arc::clone(&entry));
        }
        entry
    }

    /// The entry a packet of `activity` is for, if there is one: the one
    /// at its thread number, when it is this activity's.
    fn find(&self, activity: ActivityId) -> Option<Arc<CallEntry>> {
        let entries = self.shard(activity);
        let entry = entries.get(usize::from(activity.thread))?.as_ref()?;
        (entry.id == activity).then(|| Arc::clone(entry))
    }

    /// Registers an outstanding call; at most one per activity. Opens
    /// call `seq` on the activity's entry, made on first use.
    ///
    /// The paper registers the call *after* transmitting the packet,
    /// overlapping registration with transmission ("For the RPC fast path
    /// the calling thread gets the call registered before the result
    /// packet arrives"); we register before sending, which is equivalent
    /// but immune to an instant result racing the registration.
    pub fn register(&self, activity: ActivityId, seq: u32) -> Arc<CallEntry> {
        let entry = self.entry(activity);
        entry.open(seq, None);
        entry
    }

    /// Ends the activity's call, if one is open: what arrives for it
    /// from now on is an orphan. The entry stays.
    pub fn unregister(&self, activity: ActivityId) {
        if let Some(entry) = self.find(activity) {
            entry.close();
        }
    }

    /// Drops the activity's entry: its slot is gone.
    pub(crate) fn remove(&self, activity: ActivityId) {
        let mut entries = self.shard(activity);
        if let Some(at) = entries.get_mut(usize::from(activity.thread)) {
            if at.as_ref().is_some_and(|e| e.id == activity) {
                *at = None;
            }
        }
    }

    /// Number of outstanding calls.
    pub fn outstanding(&self) -> usize {
        let open = |entries: &Mutex<Entries>| {
            let entries = entries.lock();
            // lint:allow(nested-lock): the shard's lock, then an entry's,
            // never the reverse: no path takes a shard under an entry.
            entries.iter().flatten().filter(|e| e.state.lock().open).count()
        };
        self.entries.iter().map(open).sum()
    }

    /// Number of entries: one per activity slot.
    pub(crate) fn entries(&self) -> usize {
        self.entries.iter().map(|entries| entries.lock().iter().flatten().count()).sum()
    }

    /// Records an orphan: a result or result fragment to drop, a stray
    /// ack or probe response.
    fn orphan(&self, rpc: &RpcHeader) {
        let action = if rpc.packet_type == PacketType::Result {
            Action::RecycleOrphan
        } else {
            Action::DropStray
        };
        self.witness.record(State::CallerOrphan, rpc, action);
    }

    /// [`ShardedCallTable::deliver_frame`] for a caller-bound packet held
    /// in a pool buffer (a single-packet Result, a server→caller Ack, or
    /// a ProbeResponse), by a thread that is not its waiter. A fragment
    /// of a multi-packet result is an orphan here: fragments go through
    /// [`ShardedCallTable::deliver_fragments`].
    pub fn deliver(&self, pkt: Packet) -> bool {
        self.deliver_frame(&pkt.rpc, pkt.data(), None)
    }

    /// Routes a caller-bound frame, validated where it landed, to its
    /// waiting thread and wakes it; true when it was taken, false for an
    /// orphan. A result's `data` is copied into the entry's result frame.
    /// `own` is the delivering thread's own entry when the frame is for
    /// it: the thread holds the receive role while it waits and will look
    /// at its entry next, so nothing is looked up and nobody is signalled.
    /// An `own` of another activity is passed over, and the frame's entry
    /// looked up as without one.
    pub fn deliver_frame(&self, rpc: &RpcHeader, data: &[u8], own: Option<&CallEntry>) -> bool {
        let own = own.filter(|entry| entry.id == rpc.activity);
        let found = if own.is_some() { None } else { self.find(rpc.activity) };
        let Some(entry) = own.or(found.as_deref()) else {
            self.orphan(rpc);
            return false;
        };
        let mut st = entry.state.lock();
        if !st.wants(rpc.call_seq) {
            // A late duplicate from an earlier transmission round, or
            // for a call that is over.
            drop(st);
            self.orphan(rpc);
            return false;
        }
        let action = match rpc.packet_type {
            PacketType::Ack | PacketType::ProbeResponse => {
                let last =
                    rpc.flags.last_fragment || rpc.fragment.saturating_add(1) >= rpc.fragment_count;
                st.acked = Some((crate::fragment::held(rpc), last));
                match (rpc.packet_type, last) {
                    (PacketType::ProbeResponse, _) => Action::NoteAlive,
                    (_, true) => Action::QuenchRetransmit,
                    (_, false) => Action::AdvanceFragment,
                }
            }
            PacketType::Result if rpc.fragment_count <= 1 => {
                let mut frame = std::mem::take(&mut st.frame);
                frame.clear();
                if frame.capacity() < data.len() {
                    // Once per entry: room for any one-packet result.
                    frame.reserve_exact(data.len().max(MAX_SINGLE_PACKET_DATA));
                }
                frame.extend_from_slice(data);
                st.outcome = Some(Assembled::Owned { rpc: *rpc, data: frame });
                complete_action(rpc)
            }
            // Caller-bound routing never sees a Call or a Probe, and
            // the fragments of a result come through
            // `deliver_fragments`.
            _ => return false,
        };
        entry.uncount(&mut st);
        drop(st);
        if own.is_none() {
            entry.cond.notify_one();
        }
        self.witness.record(State::CallerOpen, rpc, action);
        true
    }

    /// Routes a run of fragments of one multi-packet result — consecutive
    /// frames of a datagram, of one activity and call — to its waiting
    /// thread: the entry is found and locked once for the run, each
    /// fragment's data is copied from where it landed straight into the
    /// result's reassembly, and the thread is woken (unless `own`, as for
    /// [`ShardedCallTable::deliver_frame`]) if the run completed it.
    /// `each` then learns, with no lock held and in run order, what
    /// became of every fragment.
    pub fn deliver_fragments(
        &self,
        run: &[Fragment<'_>],
        own: Option<&CallEntry>,
        mut each: impl FnMut(Delivered),
    ) {
        for run in run.chunks(MAX_RUN) {
            let mut took = [Delivered::Orphan; MAX_RUN];
            self.assemble(run, own, &mut took);
            took[..run.len()].iter().for_each(|&t| each(t));
        }
    }

    /// Takes a run of at most [`MAX_RUN`] fragments into its entry —
    /// `own`, or the one the table holds — recording in `took` what
    /// became of each, and wakes the entry's waiter if the run completed
    /// its result.
    fn assemble(&self, run: &[Fragment<'_>], own: Option<&CallEntry>, took: &mut [Delivered]) {
        let Some(first) = run.first() else {
            return;
        };
        let own = own.filter(|entry| entry.id == first.rpc.activity);
        let found = if own.is_some() { None } else { self.find(first.rpc.activity) };
        let Some(entry) = own.or(found.as_deref()) else {
            for f in run {
                self.witness.record(State::CallerOrphan, &f.rpc, Action::RecycleOrphan);
            }
            return;
        };
        let mut completed = false;
        let mut st = entry.state.lock();
        for (f, took) in run.iter().zip(took) {
            let rpc = f.rpc;
            if !st.wants(rpc.call_seq) {
                // A late duplicate from an earlier transmission round, a
                // copy of a fragment of the result just completed, or one
                // for a call that is over.
                self.witness.record(State::CallerOrphan, &rpc, Action::RecycleOrphan);
                continue;
            }
            let count = rpc.fragment_count;
            let (_, reass) = st
                .reassembly
                .get_or_insert_with(|| (rpc, Reassembly::new(count)));
            match reass.accept(rpc.fragment, count, f.data) {
                // Inconsistent with the transfer: an orphan, and no row.
                Accepted::Refused => {}
                Accepted::Buffered => {
                    // A fragment that asks (a window's edge, one sent
                    // again) is acked with the prefix held, if there is
                    // one.
                    let ack = crate::fragment::prefix_ack(&rpc, reass)
                        .filter(|_| rpc.flags.please_ack);
                    let action = match ack {
                        Some(_) => Action::AssembleAck,
                        None => Action::Assemble,
                    };
                    self.witness.record(State::CallerAssembling, &rpc, action);
                    *took = ack.map_or(Delivered::Accepted, Delivered::AcceptedNeedsAck);
                }
                Accepted::Complete(data) => {
                    st.reassembly = None;
                    st.outcome = Some(Assembled::Owned { rpc, data });
                    entry.uncount(&mut st);
                    completed = true;
                    // Asking or not, the fragment that completes the
                    // result is acked by the next call.
                    self.witness.record(State::CallerOpen, &rpc, complete_action(&rpc));
                    *took = Delivered::Accepted;
                }
            }
        }
        drop(st);
        if completed && own.is_none() {
            entry.cond.notify_one();
        }
    }
}

/// The row a result's completing packet takes: the call failed remotely
/// or completed.
fn complete_action(rpc: &RpcHeader) -> Action {
    if rpc.flags.call_failed {
        Action::FailCall
    } else {
        Action::CompleteCall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firefly_pool::BufferPool;
    use firefly_wire::{FrameBuilder, FrameView, PacketFlags};
    use std::time::Duration;

    fn activity() -> ActivityId {
        ActivityId::new(7, 1, 1)
    }

    fn result_packet(seq: u32, data: &[u8]) -> Packet {
        let frame = FrameBuilder::new(PacketType::Result)
            .activity(activity())
            .call_seq(seq)
            .build(data)
            .unwrap();
        let pool = BufferPool::new(1);
        let mut buf = pool.alloc().unwrap();
        buf.fill_from(frame.bytes());
        Packet::from_buf(buf).unwrap()
    }

    /// Result fragment `frag` of `count`, as it lands in a datagram.
    fn result_frame(seq: u32, data: &[u8], frag: u16, count: u16, please_ack: bool) -> Vec<u8> {
        FrameBuilder::new(PacketType::Result)
            .activity(activity())
            .call_seq(seq)
            .fragment(frag, count)
            .please_ack(please_ack)
            .build(data)
            .unwrap()
            .into_bytes()
    }

    /// Delivers `frames` as one run; what became of each.
    fn deliver_run(table: &ShardedCallTable, frames: &[Vec<u8>]) -> Vec<Delivered> {
        let views: Vec<_> = frames.iter().map(|f| FrameView::parse(f).unwrap()).collect();
        let run: Vec<_> = views.iter().map(|v| Fragment::of(v).unwrap()).collect();
        let mut took = Vec::new();
        table.deliver_fragments(&run, None, |d| took.push(d));
        assert_eq!(took.len(), frames.len(), "one outcome per fragment");
        took
    }

    /// Delivers one result fragment on its own.
    fn deliver_fragment(
        table: &ShardedCallTable,
        seq: u32,
        data: &[u8],
        frag: u16,
        count: u16,
        please_ack: bool,
    ) -> Delivered {
        deliver_run(table, &[result_frame(seq, data, frag, count, please_ack)])[0]
    }

    /// A full (non-final) fragment's worth of `b`.
    fn full(b: u8) -> [u8; crate::fragment::MAX_FRAGMENT_DATA] {
        [b; crate::fragment::MAX_FRAGMENT_DATA]
    }

    fn ack_packet(seq: u32) -> Packet {
        let frame = FrameBuilder::new(PacketType::Ack)
            .activity(activity())
            .call_seq(seq)
            .build(&[])
            .unwrap();
        let pool = BufferPool::new(1);
        let mut buf = pool.alloc().unwrap();
        buf.fill_from(frame.bytes());
        Packet::from_buf(buf).unwrap()
    }

    #[test]
    fn single_packet_result_wakes_waiter() {
        let table = ShardedCallTable::new(1);
        let entry = table.register(activity(), 5);
        let pkt = result_packet(5, &[1, 2, 3]);
        assert!(table.deliver(pkt));
        match entry.wait(Instant::now() + Duration::from_secs(1)) {
            Wait::Complete(a) => assert_eq!(a.data(), &[1, 2, 3]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn an_activity_keeps_one_entry_and_a_late_packet_finds_it_closed() {
        let table = ShardedCallTable::new(1);
        let first = table.register(activity(), 1);
        assert!(table.deliver(result_packet(1, &[1])));
        assert!(matches!(first.poll(), Some(Wait::Complete(_))));
        // Taken by its waiter, the result closed the call: a copy of it
        // is an orphan, and so is an ack of it.
        assert_eq!(table.outstanding(), 0);
        assert!(!table.deliver(result_packet(1, &[1])));
        let second = table.register(activity(), 2);
        assert!(Arc::ptr_eq(&first, &second), "the entry was not reused");
        assert!(!table.deliver(ack_packet(1)));
        assert!(table.deliver(result_packet(2, &[2])));
        match second.poll() {
            Some(Wait::Complete(a)) => assert_eq!(a.data(), &[2]),
            other => panic!("unexpected {other:?}"),
        }
        // Another activity on the same thread number is another entry.
        let other = ActivityId::new(8, 1, 1);
        assert!(!Arc::ptr_eq(&table.entry(other), &second));
        assert_eq!(table.entries(), 1);
        table.remove(other);
        assert_eq!(table.entries(), 0);
    }

    #[test]
    fn a_big_result_leaves_the_entry_a_one_packet_frame() {
        let table = ShardedCallTable::new(1);
        let entry = table.register(activity(), 1);
        // A reassembled result bigger than a packet buffer is freed when
        // its caller is done with it, not kept as the next result's frame.
        let frames = [
            result_frame(1, &full(1), 0, 3, false),
            result_frame(1, &full(2), 1, 3, false),
            result_frame(1, &[3], 2, 3, false),
        ];
        let _ = deliver_run(&table, &frames);
        let Some(Wait::Complete(big)) = entry.poll() else {
            panic!("the big result did not complete");
        };
        assert!(big.data().len() > firefly_pool::BUFFER_SIZE);
        let mut frame = big.into_frame();
        assert!(frame.is_none(), "the reassembled result's buffer was kept");
        // The small results after it come in one frame of one packet's size.
        for seq in 2..5 {
            entry.open(seq, frame.take());
            assert!(table.deliver(result_packet(seq, &[seq as u8])));
            let Some(Wait::Complete(small)) = entry.poll() else {
                panic!("result {seq} did not complete");
            };
            assert_eq!(small.data(), &[seq as u8]);
            frame = small.into_frame();
            let capacity = frame.as_ref().map(Vec::capacity);
            assert!(capacity.is_some_and(|c| c <= firefly_pool::BUFFER_SIZE), "{capacity:?}");
        }
    }

    #[test]
    fn wrong_seq_is_orphaned() {
        let table = ShardedCallTable::new(1);
        let _entry = table.register(activity(), 5);
        let pkt = result_packet(4, &[]);
        assert!(!table.deliver(pkt));
    }

    #[test]
    fn out_of_order_and_duplicate_fragments_reassemble_without_panic() {
        // Regression for the reassembly rewrite: the completion path
        // must tolerate any arrival order and duplicated fragments
        // (the old expect()-based code assumed a clean interleaving).
        let table = ShardedCallTable::new(1);
        let entry = table.register(activity(), 9);
        // A reordered final fragment arriving first is buffered, and
        // none of them asks for an ack.
        assert_eq!(deliver_fragment(&table, 9, &[30, 31], 2, 3, false), Delivered::Accepted);
        assert_eq!(deliver_fragment(&table, 9, &full(10), 0, 3, false), Delivered::Accepted);
        // Duplicate of an already-buffered fragment.
        assert_eq!(deliver_fragment(&table, 9, &full(10), 0, 3, false), Delivered::Accepted);
        assert_eq!(entry.result_fragments(), 2);
        assert_eq!(deliver_fragment(&table, 9, &full(20), 1, 3, false), Delivered::Accepted);
        match entry.wait(Instant::now() + Duration::from_secs(1)) {
            Wait::Complete(a) => {
                assert_eq!(a.data(), [&full(10)[..], &full(20), &[30, 31]].concat());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fragment_index_out_of_range_is_orphaned_not_a_panic() {
        let table = ShardedCallTable::new(1);
        let _entry = table.register(activity(), 9);
        assert_eq!(deliver_fragment(&table, 9, &full(1), 0, 3, false), Delivered::Accepted);
        // Claims fragment 7 of 3 — malformed; must be orphaned.
        assert_eq!(deliver_fragment(&table, 9, &full(2), 7, 3, false), Delivered::Orphan);
        // A count mismatch mid-reassembly is equally malformed, and so
        // is a short fragment that is not the last.
        assert_eq!(deliver_fragment(&table, 9, &full(3), 1, 5, false), Delivered::Orphan);
        assert_eq!(deliver_fragment(&table, 9, &[3], 1, 3, false), Delivered::Orphan);
    }

    #[test]
    fn a_window_in_one_run_completes_its_result_and_orphans_what_follows() {
        let table = ShardedCallTable::new(1);
        let entry = table.register(activity(), 4);
        // One datagram: the whole result, a copy of its last fragment,
        // and a fragment of an earlier call's result.
        let frames = [
            result_frame(4, &full(1), 0, 3, false),
            result_frame(4, &full(2), 1, 3, false),
            result_frame(4, &[3], 2, 3, false),
            result_frame(4, &[3], 2, 3, false),
            result_frame(3, &full(9), 0, 3, false),
        ];
        let took = deliver_run(&table, &frames);
        let [a, b, c, late, stale] = took[..] else { unreachable!() };
        assert_eq!([a, b, c], [Delivered::Accepted; 3]);
        assert_eq!([late, stale], [Delivered::Orphan; 2]);
        match entry.poll() {
            Some(Wait::Complete(a)) => {
                assert_eq!(a.data(), [&full(1)[..], &full(2), &[3]].concat());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Nobody registered: every fragment of a run is an orphan.
        table.unregister(activity());
        let took = deliver_run(&table, &frames[..2]);
        assert_eq!(took, [Delivered::Orphan; 2]);
    }

    #[test]
    fn unknown_activity_is_orphaned() {
        let table = ShardedCallTable::new(1);
        let pkt = result_packet(1, &[]);
        assert!(!table.deliver(pkt));
    }

    #[test]
    fn ack_reports_in_progress() {
        let table = ShardedCallTable::new(1);
        let entry = table.register(activity(), 9);
        assert!(table.deliver(ack_packet(9)));
        assert!(matches!(
            entry.wait(Instant::now() + Duration::from_secs(1)),
            Wait::Acked { last: true, .. }
        ));
        // The flag is consumed; the next wait times out.
        assert!(matches!(
            entry.wait(Instant::now() + Duration::from_millis(10)),
            Wait::TimedOut
        ));
    }

    #[test]
    fn fragments_reassemble_in_any_order() {
        let table = ShardedCallTable::new(1);
        let entry = table.register(activity(), 2);
        assert_eq!(deliver_fragment(&table, 2, &full(4), 1, 3, false), Delivered::Accepted);
        assert_eq!(deliver_fragment(&table, 2, &full(1), 0, 3, false), Delivered::Accepted);
        // The final fragment completes the call.
        assert_eq!(deliver_fragment(&table, 2, &[7, 8], 2, 3, false), Delivered::Accepted);
        match entry.wait(Instant::now() + Duration::from_secs(1)) {
            Wait::Complete(a) => assert_eq!(a.data(), [&full(1)[..], &full(4), &[7, 8]].concat()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_fragment_is_idempotent() {
        let table = ShardedCallTable::new(1);
        let entry = table.register(activity(), 2);
        for _ in 0..3 {
            let _ = deliver_fragment(&table, 2, &full(1), 0, 2, false);
        }
        assert_eq!(deliver_fragment(&table, 2, &[3], 1, 2, false), Delivered::Accepted);
        match entry.wait(Instant::now() + Duration::from_secs(1)) {
            Wait::Complete(a) => assert_eq!(a.data(), [&full(1)[..], &[3]].concat()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn late_duplicate_result_after_completion_is_orphaned() {
        let table = ShardedCallTable::new(1);
        let entry = table.register(activity(), 3);
        assert!(table.deliver(result_packet(3, &[1])));
        // A duplicate of the same result (e.g. server retransmission).
        assert!(!table.deliver(result_packet(3, &[1])));
        assert!(matches!(
            entry.wait(Instant::now() + Duration::from_secs(1)),
            Wait::Complete(_)
        ));
    }

    #[test]
    fn concurrent_wait_and_deliver() {
        let table = Arc::new(ShardedCallTable::new(1));
        let entry = table.register(activity(), 1);
        let t2 = Arc::clone(&table);
        let h = std::thread::spawn(move || {
            firefly_sync::test_sleep();
            t2.deliver(result_packet(1, &[42]));
        });
        match entry.wait(Instant::now() + Duration::from_secs(5)) {
            Wait::Complete(a) => assert_eq!(a.data(), &[42]),
            other => panic!("unexpected {other:?}"),
        }
        h.join().unwrap();
        table.unregister(activity());
        assert_eq!(table.outstanding(), 0);
    }

    #[test]
    fn a_fragment_that_asks_is_acked_with_the_prefix_held() {
        let acked = |d: Delivered| match d {
            Delivered::AcceptedNeedsAck(ack) => {
                assert_eq!(ack.packet_type, PacketType::Ack);
                assert!(ack.flags.acks_result);
                Some(ack.fragment)
            }
            Delivered::Accepted => None,
            Delivered::Orphan => panic!("orphaned"),
        };
        let table = ShardedCallTable::new(1);
        let entry = table.register(activity(), 6);
        // Fragment 0 lost: an edge that asks finds no prefix to name.
        assert_eq!(acked(deliver_fragment(&table, 6, &full(2), 2, 4, true)), None);
        assert_eq!(entry.hole_ack(), None);
        assert_eq!(acked(deliver_fragment(&table, 6, &full(0), 0, 4, false)), None);
        // Now it names fragment 0, the one before the hole at 1 — and so
        // does the ack a waiter sends when its timer fires.
        assert_eq!(acked(deliver_fragment(&table, 6, &full(0), 0, 4, true)), Some(0));
        assert_eq!(entry.hole_ack().map(|a| a.fragment), Some(0));
        // The hole filled by a fragment sent again, asking: that
        // completes the result, which the next call acknowledges.
        assert_eq!(acked(deliver_fragment(&table, 6, &[9], 3, 4, false)), None);
        assert_eq!(acked(deliver_fragment(&table, 6, &full(1), 1, 4, true)), None);
        assert!(matches!(
            entry.wait(Instant::now() + Duration::from_secs(1)),
            Wait::Complete(_)
        ));
    }

    #[test]
    fn deliver_records_spec_transitions() {
        let table = ShardedCallTable::new(1);
        let _entry = table.register(activity(), 5);
        let _ = table.deliver(result_packet(5, &[1]));
        // A duplicate of the completed result orphans.
        let _ = table.deliver(result_packet(5, &[1]));
        assert_eq!(
            ProtocolWitness::union(&[table.witness()]),
            [
                "caller-open Result last_fragment -> complete-call",
                "caller-orphan Result last_fragment -> recycle-orphan",
            ]
        );
    }

    #[test]
    fn shard_for_is_pure_and_in_range() {
        for thread in 0..64u16 {
            let id = ActivityId::new(9, 2, thread);
            let s = shard_for(id, 4);
            assert!(s < 4);
            // A duplicate/retransmitted packet carries the same id and
            // must hash to the same shard.
            assert_eq!(s, shard_for(id, 4));
        }
        assert_eq!(shard_for(activity(), 1), 0);
        assert_eq!(shard_for(activity(), 0), 0);
    }

    #[test]
    fn shard_for_spreads_sequential_threads() {
        // ActivityPool mints sequential thread ids; the hash must not
        // collapse them onto one shard.
        let mut hit = [false; 4];
        for thread in 0..16u16 {
            hit[shard_for(ActivityId::new(1, 1, thread), 4)] = true;
        }
        assert!(hit.iter().all(|&h| h), "sequential ids map to {hit:?}");
    }

    #[test]
    fn sharded_table_routes_by_activity() {
        let table = ShardedCallTable::new(4);
        let id = activity();
        let entry = table.register(id, 5);
        let home = shard_for(id, 4);
        for (shard, entries) in table.entries.iter().enumerate() {
            let holds = entries.lock().iter().flatten().any(|e| e.id == id);
            assert_eq!(holds, shard == home, "shard {shard} of 4, home {home}");
        }
        assert_eq!(table.outstanding(), 1);
        assert!(table.deliver(result_packet(5, &[1])));
        match entry.wait(Instant::now() + Duration::from_secs(1)) {
            Wait::Complete(a) => assert_eq!(a.data(), &[1]),
            other => panic!("unexpected {other:?}"),
        }
        table.unregister(id);
        assert_eq!(table.outstanding(), 0);
    }

    #[test]
    fn an_own_entry_of_another_activity_is_passed_over() {
        let table = ShardedCallTable::new(1);
        let other = table.register(ActivityId::new(7, 1, 2), 5);
        let entry = table.register(activity(), 5);
        let pkt = result_packet(5, &[1]);
        assert!(table.deliver_frame(&pkt.rpc, pkt.data(), Some(&other)));
        assert!(other.state.lock().outcome.is_none(), "another activity's entry was written");
        match entry.wait(Instant::now() + Duration::from_secs(1)) {
            Wait::Complete(a) => assert_eq!(a.data(), &[1]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn flags_helper_builds_ack_with_direction() {
        // Guard against regressions in the ack direction logic the demux
        // depends on for routing.
        let rpc = RpcHeader {
            packet_type: PacketType::Result,
            flags: PacketFlags::single_packet(),
            activity: activity(),
            call_seq: 1,
            fragment: 0,
            fragment_count: 1,
            interface_uid: 0,
            interface_version: 0,
            procedure: 0,
            data_len: 0,
        };
        assert!(RpcHeader::ack_for(&rpc).flags.acks_result);
    }
}
