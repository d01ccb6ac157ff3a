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
//! This module is that table for the caller role: the thread holding the
//! endpoint's receive role ([`crate::role`]) calls
//! [`CallTable::deliver_from`], which attaches the packet to the entry
//! and signals the entry's condition variable — **at most one wakeup per
//! packet**, and none when the receiving thread is the waiter itself.

use crate::fragment::{Accepted, Reassembly};
use crate::packet::{Assembled, Packet};
use crate::witness::{row, ProtocolWitness};
use firefly_wire::{ActivityId, PacketFlags, PacketType, RpcHeader};
use firefly_sync::atomic::AtomicUsize;
use firefly_sync::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// What the demultiplexer should do after a delivery attempt.
#[derive(Debug)]
pub enum Deliver {
    /// The packet was attached to a waiting call (or buffered as a
    /// fragment) and the thread was awakened if complete.
    Accepted,
    /// The packet was accepted and the sender asked for an explicit
    /// acknowledgement: this one, naming the prefix of the result held.
    AcceptedNeedsAck(RpcHeader),
    /// Nobody is waiting for this packet; the buffer should be recycled.
    Orphan(Packet),
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

#[derive(Debug)]
struct EntryState {
    /// The call sequence number this entry expects.
    seq: u32,
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
}

impl EntryState {
    fn take_ready(&mut self) -> Option<Wait> {
        if let Some(outcome) = self.outcome.take() {
            return Some(Wait::Complete(outcome));
        }
        let (held, last) = self.acked.take()?;
        Some(Wait::Acked { held, last })
    }
}

/// One outstanding call, waited on by exactly one caller thread.
#[derive(Debug)]
pub struct CallEntry {
    state: Mutex<EntryState>,
    cond: Condvar,
    /// The parked-waiter count of the table this entry is in.
    parked: Arc<AtomicUsize>,
}

impl CallEntry {
    /// Labels this entry's state lock for `firefly-check` with its lint
    /// lock-order class ("calltable"). No-op outside a checked schedule.
    pub fn check_labels(&self) {
        self.state.check_label("calltable");
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

/// The caller-side call table, shared by caller threads and the demux
/// thread.
#[derive(Debug, Default)]
pub struct CallTable {
    entries: Mutex<HashMap<ActivityId, Arc<CallEntry>>>,
    /// Caller-side protocol-transition witness: which protocol.toml rows
    /// this table's [`CallTable::deliver`] has taken. Relaxed counters.
    witness: ProtocolWitness,
    /// Waiters parked on entries of this table with nothing delivered
    /// to them: kept by the entries ([`CallEntry::count_parked`], every
    /// delivery), one count for all shards of a [`ShardedCallTable`],
    /// read by the endpoint's [`crate::role::ReceiveRole`].
    parked: Arc<AtomicUsize>,
}

/// The spec row an orphaned caller-bound packet matches, if its exact
/// `(type, flags)` shape is one the protocol table names. Shapes the
/// legal senders never produce (e.g. a malformed fragment index) record
/// nothing: the witness only reports rows the spec knows.
fn orphan_row(pkt_type: PacketType, f: PacketFlags) -> Option<usize> {
    match (pkt_type, f.please_ack, f.last_fragment, f.acks_result, f.call_failed) {
        (PacketType::Result, false, true, false, false) => Some(row::CALLER_ORPHAN_RESULT_LF_RECYCLE_ORPHAN),
        (PacketType::Result, false, false, false, false) => Some(row::CALLER_ORPHAN_RESULT_RECYCLE_ORPHAN),
        (PacketType::Result, true, false, false, false) => Some(row::CALLER_ORPHAN_RESULT_PA_RECYCLE_ORPHAN),
        (PacketType::Result, false, true, false, true) => Some(row::CALLER_ORPHAN_RESULT_LF_CF_RECYCLE_ORPHAN),
        (PacketType::Ack, false, true, false, false) => Some(row::CALLER_ORPHAN_ACK_LF_DROP_STRAY),
        (PacketType::Ack, false, false, false, false) => Some(row::CALLER_ORPHAN_ACK_DROP_STRAY),
        (PacketType::ProbeResponse, false, true, false, false) => Some(row::CALLER_ORPHAN_PROBE_RESPONSE_LF_DROP_STRAY),
        _ => None,
    }
}

impl CallTable {
    /// Creates an empty table.
    pub fn new() -> CallTable {
        CallTable::default()
    }

    /// The parked-waiter count this table's entries maintain, for
    /// [`crate::role::ReceiveRole::new`] to read.
    pub fn parked_counter(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.parked)
    }

    /// The protocol-transition witness for this table.
    pub fn witness(&self) -> &ProtocolWitness {
        &self.witness
    }

    /// Labels the table lock for `firefly-check` with its lint
    /// lock-order class ("calltable"). No-op outside a checked schedule.
    pub fn check_labels(&self) {
        self.entries.check_label("calltable");
    }

    /// Registers an outstanding call; at most one per activity.
    ///
    /// The paper registers the call *after* transmitting the packet,
    /// overlapping registration with transmission ("For the RPC fast path
    /// the calling thread gets the call registered before the result
    /// packet arrives"); we register before sending, which is equivalent
    /// but immune to an instant result racing the registration.
    pub fn register(&self, activity: ActivityId, seq: u32) -> Arc<CallEntry> {
        let entry = Arc::new(CallEntry {
            state: Mutex::new(EntryState {
                seq,
                outcome: None,
                acked: None,
                reassembly: None,
                counted: false,
            }),
            cond: Condvar::new(),
            parked: Arc::clone(&self.parked),
        });
        self.entries.lock().insert(activity, Arc::clone(&entry));
        entry
    }

    /// Removes the entry for an activity (after completion or failure).
    pub fn unregister(&self, activity: ActivityId) {
        self.entries.lock().remove(&activity);
    }

    /// Number of outstanding calls.
    pub fn outstanding(&self) -> usize {
        self.entries.lock().len()
    }

    /// Routes a caller-bound packet (Result, server→caller Ack, or
    /// ProbeResponse) to its waiting thread and wakes it.
    pub fn deliver(&self, pkt: Packet) -> Deliver {
        self.deliver_from(pkt, false)
    }

    /// [`CallTable::deliver`] with the wake-up made conditional:
    /// `by_waiter` says the delivering thread *is* the thread waiting on
    /// the packet's activity (it holds the receive role and will look at
    /// its entry next), so there is nobody to signal.
    pub fn deliver_from(&self, pkt: Packet, by_waiter: bool) -> Deliver {
        let entry = {
            let entries = self.entries.lock();
            match entries.get(&pkt.rpc.activity) {
                Some(e) => Arc::clone(e),
                None => {
                    if let Some(r) = orphan_row(pkt.rpc.packet_type, pkt.rpc.flags) {
                        self.witness.record(r);
                    }
                    return Deliver::Orphan(pkt);
                }
            }
        };
        let mut st = entry.state.lock();
        if pkt.rpc.call_seq != st.seq || st.outcome.is_some() {
            // A late duplicate from an earlier transmission round.
            drop(st);
            if let Some(r) = orphan_row(pkt.rpc.packet_type, pkt.rpc.flags) {
                self.witness.record(r);
            }
            return Deliver::Orphan(pkt);
        }
        match pkt.rpc.packet_type {
            PacketType::Ack | PacketType::ProbeResponse => {
                let last = pkt.rpc.flags.last_fragment
                    || pkt.rpc.fragment.saturating_add(1) >= pkt.rpc.fragment_count;
                st.acked = Some((crate::fragment::held(&pkt.rpc), last));
                entry.uncount(&mut st);
                drop(st);
                if !by_waiter {
                    entry.cond.notify_one();
                }
                if pkt.rpc.packet_type == PacketType::ProbeResponse {
                    self.witness.record(row::CALLER_OPEN_PROBE_RESPONSE_LF_NOTE_ALIVE);
                } else if pkt.rpc.flags.last_fragment {
                    self.witness.record(row::CALLER_OPEN_ACK_LF_QUENCH_RETRANSMIT);
                } else {
                    self.witness.record(row::CALLER_OPEN_ACK_ADVANCE_FRAGMENT);
                }
                Deliver::Accepted
            }
            PacketType::Result => {
                if pkt.rpc.fragment_count <= 1 {
                    let flags = pkt.rpc.flags;
                    st.outcome = Some(Assembled::Single(pkt));
                    entry.uncount(&mut st);
                    drop(st);
                    if !by_waiter {
                        entry.cond.notify_one();
                    }
                    if flags.last_fragment && !flags.please_ack {
                        self.witness.record(if flags.call_failed {
                            row::CALLER_OPEN_RESULT_LF_CF_FAIL_CALL
                        } else {
                            row::CALLER_OPEN_RESULT_LF_COMPLETE_CALL
                        });
                    }
                    return Deliver::Accepted;
                }
                // Multi-packet result: buffer the fragment.
                let rpc = pkt.rpc;
                let count = rpc.fragment_count;
                let (_, reass) = st
                    .reassembly
                    .get_or_insert_with(|| (rpc, Reassembly::new(count)));
                let data = match reass.accept(rpc.fragment, count, pkt.data()) {
                    Accepted::Refused => {
                        drop(st);
                        return Deliver::Orphan(pkt);
                    }
                    Accepted::Buffered => None,
                    Accepted::Complete(data) => Some(data),
                };
                if let Some(data) = data {
                    st.reassembly = None;
                    st.outcome = Some(Assembled::Multi { rpc, data });
                    entry.uncount(&mut st);
                    drop(st);
                    if !by_waiter {
                        entry.cond.notify_one();
                    }
                    // Asking or not, the fragment that completes the
                    // result is acked by the next call.
                    let f = rpc.flags;
                    if let Some(row) = match (f.please_ack, f.last_fragment, f.call_failed) {
                        (true, true, _) => Some(row::CALLER_OPEN_RESULT_PA_LF_COMPLETE_CALL),
                        (true, false, _) => Some(row::CALLER_OPEN_RESULT_PA_COMPLETE_CALL),
                        (false, true, true) => Some(row::CALLER_OPEN_RESULT_LF_CF_FAIL_CALL),
                        (false, true, false) => Some(row::CALLER_OPEN_RESULT_LF_COMPLETE_CALL),
                        (false, false, false) => Some(row::CALLER_OPEN_RESULT_COMPLETE_CALL),
                        // No sender fails a call in a non-final fragment.
                        (false, false, true) => None,
                    } {
                        self.witness.record(row);
                    }
                    return Deliver::Accepted;
                }
                // A fragment that asks (a window's edge, one sent again)
                // is acked with the prefix held, if there is one.
                let ack = crate::fragment::prefix_ack(&rpc, reass).filter(|_| rpc.flags.please_ack);
                drop(st);
                self.witness.record(match (rpc.flags.please_ack, rpc.flags.last_fragment, ack) {
                    (true, true, Some(_)) => row::CALLER_ASSEMBLING_RESULT_PA_LF_ASSEMBLE_ACK,
                    (true, true, None) => row::CALLER_ASSEMBLING_RESULT_PA_LF_ASSEMBLE,
                    (true, false, Some(_)) => row::CALLER_ASSEMBLING_RESULT_PA_ASSEMBLE_ACK,
                    (true, false, None) => row::CALLER_ASSEMBLING_RESULT_PA_ASSEMBLE,
                    (false, true, _) => row::CALLER_ASSEMBLING_RESULT_LF_ASSEMBLE,
                    (false, false, _) => row::CALLER_ASSEMBLING_RESULT_ASSEMBLE,
                });
                ack.map_or(Deliver::Accepted, Deliver::AcceptedNeedsAck)
            }
            PacketType::Call | PacketType::Probe => {
                // Caller-bound routing never sees these.
                drop(st);
                Deliver::Orphan(pkt)
            }
        }
    }
}

/// Number of runtime shards: the caller-side call table and the
/// packet-buffer pool of every endpoint are split into this many
/// independent instances, each with its own locks, selected by
/// [`shard_for`] (docs/SHARDING.md).
///
/// The paper's §4.2 "recoded runtime" what-if removed the global lock
/// chain from the fast path; sharding is the modern shape of that
/// change (per-core state, eRPC-style).
pub const SHARDS: usize = 4;

/// Pure shard-selection function: maps an activity id to a shard index.
///
/// Every layer that shards by activity — the call table, the buffer
/// pool, the server work queues — uses this one function, so a caller
/// thread, the demultiplexer, and a server worker handling the same
/// call always land on the same shard, across retransmissions and
/// duplicates (the id is in the packet header, so a duplicate hashes
/// identically). FNV-1a over the id's three fields spreads the
/// sequential `thread` counters that [`crate::client::ActivityPool`]
/// mints.
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

/// The caller-side call table split into independent shards, each a
/// full [`CallTable`] with its own lock, selected by [`shard_for`].
///
/// One shard reproduces the seed's single global table exactly; with
/// more, concurrent callers on different activities take disjoint
/// locks on register/deliver/unregister. The demultiplexer holds at
/// most one shard's lock at a time (each delivery resolves its shard
/// before locking), so no cross-shard lock order arises here at all.
#[derive(Debug)]
pub struct ShardedCallTable {
    shards: Vec<CallTable>,
}

impl ShardedCallTable {
    /// Creates a table with `shards` independent shards (at least one).
    pub fn new(shards: usize) -> ShardedCallTable {
        let parked = Arc::new(AtomicUsize::new(0));
        let shard = || CallTable {
            parked: Arc::clone(&parked),
            ..CallTable::default()
        };
        ShardedCallTable {
            shards: (0..shards.max(1)).map(|_| shard()).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The parked-waiter count all shards share (see
    /// [`CallTable::parked_counter`]).
    pub fn parked_counter(&self) -> Arc<AtomicUsize> {
        self.shards[0].parked_counter()
    }

    /// The shard that owns `activity`.
    pub fn shard(&self, activity: ActivityId) -> &CallTable {
        &self.shards[shard_for(activity, self.shards.len())]
    }

    /// All shards, for per-shard introspection in tests.
    pub fn shards(&self) -> &[CallTable] {
        &self.shards
    }

    /// Labels every shard's lock for `firefly-check`. No-op outside a
    /// checked schedule.
    pub fn check_labels(&self) {
        for s in &self.shards {
            s.check_labels();
        }
    }

    /// Registers an outstanding call in its activity's shard.
    pub fn register(&self, activity: ActivityId, seq: u32) -> Arc<CallEntry> {
        self.shard(activity).register(activity, seq)
    }

    /// Removes the entry for an activity from its shard.
    pub fn unregister(&self, activity: ActivityId) {
        self.shard(activity).unregister(activity);
    }

    /// Number of outstanding calls across all shards.
    pub fn outstanding(&self) -> usize {
        self.shards.iter().map(|s| s.outstanding()).sum()
    }

    /// Routes a caller-bound packet to its activity's shard.
    pub fn deliver(&self, pkt: Packet) -> Deliver {
        self.deliver_from(pkt, false)
    }

    /// [`ShardedCallTable::deliver`] for a packet whose waiter may be
    /// the delivering thread (see [`CallTable::deliver_from`]).
    pub fn deliver_from(&self, pkt: Packet, by_waiter: bool) -> Deliver {
        self.shards[shard_for(pkt.rpc.activity, self.shards.len())].deliver_from(pkt, by_waiter)
    }

    /// Unions every shard's protocol-transition witness into `out`.
    pub fn merge_witnesses(&self, out: &mut std::collections::BTreeSet<&'static str>) {
        for s in &self.shards {
            s.witness().merge_into(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firefly_pool::BufferPool;
    use firefly_wire::{FrameBuilder, PacketFlags, PacketType};
    use std::time::Duration;

    fn activity() -> ActivityId {
        ActivityId::new(7, 1, 1)
    }

    fn result_packet(seq: u32, data: &[u8], frag: u16, count: u16, please_ack: bool) -> Packet {
        let frame = FrameBuilder::new(PacketType::Result)
            .activity(activity())
            .call_seq(seq)
            .fragment(frag, count)
            .please_ack(please_ack)
            .build(data)
            .unwrap();
        let pool = BufferPool::new(1);
        let mut buf = pool.alloc().unwrap();
        buf.fill_from(frame.bytes());
        Packet::from_buf(buf).unwrap()
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
        let table = CallTable::new();
        let entry = table.register(activity(), 5);
        let pkt = result_packet(5, &[1, 2, 3], 0, 1, false);
        assert!(matches!(table.deliver(pkt), Deliver::Accepted));
        match entry.wait(Instant::now() + Duration::from_secs(1)) {
            Wait::Complete(a) => assert_eq!(a.data(), &[1, 2, 3]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wrong_seq_is_orphaned() {
        let table = CallTable::new();
        let _entry = table.register(activity(), 5);
        let pkt = result_packet(4, &[], 0, 1, false);
        assert!(matches!(table.deliver(pkt), Deliver::Orphan(_)));
    }

    #[test]
    fn out_of_order_and_duplicate_fragments_reassemble_without_panic() {
        // Regression for the reassembly rewrite: the completion path
        // must tolerate any arrival order and duplicated fragments
        // (the old expect()-based code assumed a clean interleaving).
        let table = CallTable::new();
        let entry = table.register(activity(), 9);
        // A reordered final fragment arriving first is buffered, and
        // none of them asks for an ack.
        assert!(matches!(
            table.deliver(result_packet(9, &[30, 31], 2, 3, false)),
            Deliver::Accepted
        ));
        assert!(matches!(
            table.deliver(result_packet(9, &full(10), 0, 3, false)),
            Deliver::Accepted
        ));
        // Duplicate of an already-buffered fragment.
        assert!(matches!(
            table.deliver(result_packet(9, &full(10), 0, 3, false)),
            Deliver::Accepted
        ));
        assert_eq!(entry.result_fragments(), 2);
        assert!(matches!(
            table.deliver(result_packet(9, &full(20), 1, 3, false)),
            Deliver::Accepted
        ));
        match entry.wait(Instant::now() + Duration::from_secs(1)) {
            Wait::Complete(a) => {
                assert_eq!(a.data(), [&full(10)[..], &full(20), &[30, 31]].concat());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fragment_index_out_of_range_is_orphaned_not_a_panic() {
        let table = CallTable::new();
        let _entry = table.register(activity(), 9);
        assert!(matches!(
            table.deliver(result_packet(9, &full(1), 0, 3, false)),
            Deliver::Accepted
        ));
        // Claims fragment 7 of 3 — malformed; must be orphaned.
        assert!(matches!(
            table.deliver(result_packet(9, &full(2), 7, 3, false)),
            Deliver::Orphan(_)
        ));
        // A count mismatch mid-reassembly is equally malformed, and so
        // is a short fragment that is not the last.
        assert!(matches!(
            table.deliver(result_packet(9, &full(3), 1, 5, false)),
            Deliver::Orphan(_)
        ));
        assert!(matches!(
            table.deliver(result_packet(9, &[3], 1, 3, false)),
            Deliver::Orphan(_)
        ));
    }

    #[test]
    fn unknown_activity_is_orphaned() {
        let table = CallTable::new();
        let pkt = result_packet(1, &[], 0, 1, false);
        assert!(matches!(table.deliver(pkt), Deliver::Orphan(_)));
    }

    #[test]
    fn ack_reports_in_progress() {
        let table = CallTable::new();
        let entry = table.register(activity(), 9);
        assert!(matches!(table.deliver(ack_packet(9)), Deliver::Accepted));
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
        let table = CallTable::new();
        let entry = table.register(activity(), 2);
        let p1 = result_packet(2, &full(4), 1, 3, false);
        let p0 = result_packet(2, &full(1), 0, 3, false);
        let p2 = result_packet(2, &[7, 8], 2, 3, false);
        assert!(matches!(table.deliver(p1), Deliver::Accepted));
        assert!(matches!(table.deliver(p0), Deliver::Accepted));
        // The final fragment completes the call.
        assert!(matches!(table.deliver(p2), Deliver::Accepted));
        match entry.wait(Instant::now() + Duration::from_secs(1)) {
            Wait::Complete(a) => assert_eq!(a.data(), [&full(1)[..], &full(4), &[7, 8]].concat()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_fragment_is_idempotent() {
        let table = CallTable::new();
        let entry = table.register(activity(), 2);
        for _ in 0..3 {
            let p0 = result_packet(2, &full(1), 0, 2, false);
            let _ = table.deliver(p0);
        }
        let p1 = result_packet(2, &[3], 1, 2, false);
        assert!(matches!(table.deliver(p1), Deliver::Accepted));
        match entry.wait(Instant::now() + Duration::from_secs(1)) {
            Wait::Complete(a) => assert_eq!(a.data(), [&full(1)[..], &[3]].concat()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn late_duplicate_result_after_completion_is_orphaned() {
        let table = CallTable::new();
        let entry = table.register(activity(), 3);
        assert!(matches!(
            table.deliver(result_packet(3, &[1], 0, 1, false)),
            Deliver::Accepted
        ));
        // A duplicate of the same result (e.g. server retransmission).
        assert!(matches!(
            table.deliver(result_packet(3, &[1], 0, 1, false)),
            Deliver::Orphan(_)
        ));
        assert!(matches!(
            entry.wait(Instant::now() + Duration::from_secs(1)),
            Wait::Complete(_)
        ));
    }

    #[test]
    fn concurrent_wait_and_deliver() {
        let table = Arc::new(CallTable::new());
        let entry = table.register(activity(), 1);
        let t2 = Arc::clone(&table);
        let h = std::thread::spawn(move || {
            firefly_sync::test_sleep();
            t2.deliver(result_packet(1, &[42], 0, 1, false));
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
        let acked = |d: Deliver| match d {
            Deliver::AcceptedNeedsAck(ack) => {
                assert_eq!(ack.packet_type, PacketType::Ack);
                assert!(ack.flags.acks_result);
                Some(ack.fragment)
            }
            Deliver::Accepted => None,
            Deliver::Orphan(_) => panic!("orphaned"),
        };
        let table = CallTable::new();
        let entry = table.register(activity(), 6);
        // Fragment 0 lost: an edge that asks finds no prefix to name.
        assert_eq!(acked(table.deliver(result_packet(6, &full(2), 2, 4, true))), None);
        assert_eq!(entry.hole_ack(), None);
        assert_eq!(acked(table.deliver(result_packet(6, &full(0), 0, 4, false))), None);
        // Now it names fragment 0, the one before the hole at 1 — and so
        // does the ack a waiter sends when its timer fires.
        assert_eq!(acked(table.deliver(result_packet(6, &full(0), 0, 4, true))), Some(0));
        assert_eq!(entry.hole_ack().map(|a| a.fragment), Some(0));
        // The hole filled by a fragment sent again, asking: that
        // completes the result, which the next call acknowledges.
        assert_eq!(acked(table.deliver(result_packet(6, &[9], 3, 4, false))), None);
        assert_eq!(acked(table.deliver(result_packet(6, &full(1), 1, 4, true))), None);
        assert!(matches!(
            entry.wait(Instant::now() + Duration::from_secs(1)),
            Wait::Complete(_)
        ));
    }

    #[test]
    fn deliver_records_spec_transitions() {
        let table = CallTable::new();
        let _entry = table.register(activity(), 5);
        let _ = table.deliver(result_packet(5, &[1], 0, 1, false));
        // A duplicate of the completed result orphans.
        let _ = table.deliver(result_packet(5, &[1], 0, 1, false));
        let observed = table.witness().observed();
        assert!(observed.contains(&"caller-open Result last_fragment -> complete-call"));
        assert!(observed.contains(&"caller-orphan Result last_fragment -> recycle-orphan"));
        // Every observed row is a spec row by construction.
        for t in &observed {
            assert!(crate::witness::TRANSITIONS.contains(t));
        }
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
        assert_eq!(table.shard(id).outstanding(), 1);
        assert_eq!(table.outstanding(), 1);
        assert!(matches!(
            table.deliver(result_packet(5, &[1], 0, 1, false)),
            Deliver::Accepted
        ));
        match entry.wait(Instant::now() + Duration::from_secs(1)) {
            Wait::Complete(a) => assert_eq!(a.data(), &[1]),
            other => panic!("unexpected {other:?}"),
        }
        table.unregister(id);
        assert_eq!(table.outstanding(), 0);
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
