//! The server side: Receiver, server threads, duplicate filtering, and
//! result retention.
//!
//! One `ServerSide` per endpoint. The thread holding the receive role
//! routes call packets here; `ServerSide::handle_call_packet` performs
//! the interrupt-level work (duplicate filtering, fragment reassembly,
//! retained-result retransmission) and then gets the fresh call
//! executed by the cheapest thread that may run it:
//!
//! * the **receiving thread itself**, when that is the resident receiver
//!   and the call is for a procedure whose measured service time is
//!   below what waking a worker costs here — the eRPC rule ("the thread
//!   that polls the network runs the handler to completion"), and the
//!   Firefly's two-threads-per-call shape;
//! * otherwise a **server thread**: "if the interrupt routine can find a
//!   server thread … it attaches the buffer containing the call packet
//!   to the call table entry and awakens the server thread directly"
//!   (§3.1.3).
//!
//! Either way the executing thread plays `Receiver`: it up-calls the
//! interface stub, which up-calls the service procedure, marshals the
//! results into a result packet and sends it.
//!
//! No thread waits for an acknowledgement. A multi-packet result is
//! **state in the activity slot** ([`Transfer`]): the executing thread
//! sends its first window and is done; an ack of the window's edge makes
//! whichever thread received it send the next window, and an ack that
//! stops short of what was sent makes it send the hole again
//! (`handle_result_ack`). Loss is the caller's to notice: its hole
//! report, duplicate call or probe gets the missing fragment again.

use crate::calltable::shard_for;
use crate::fragment::{Accepted, Acked, Reassembly, Window};
use crate::packet::{Assembled, Packet};
use crate::send::{Batch, SendCtx};
use crate::service::Service;
use crate::shard::WorkQueues;
use crate::stats::RpcStats;
use crate::trace::{Stamp, TraceRecord};
use crate::witness::{call_slot, row};
use crate::{Result, RpcError};
use firefly_idl::{CompiledStub, Written};
use firefly_pool::PacketBuf;
use firefly_sync::{Mutex, RwLock};
use firefly_wire::{ActivityId, PacketType, RpcHeader, DATA_OFFSET, MAX_SINGLE_PACKET_DATA};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The retained result of an activity's last call, kept for
/// retransmission until the next call from the same activity implicitly
/// acknowledges it.
///
/// The single-frame cases are inlined so the fast path stores its one
/// pooled result buffer without allocating a list around it.
enum Retained {
    /// Nothing retained (initial state, or released by an explicit ack).
    None,
    /// The result frame lives in a pool buffer (single-packet fast path).
    Pooled(PacketBuf),
    /// One heap-built frame (the call-failed path).
    Heap(Vec<u8>),
    /// A multi-packet result, in flight or delivered.
    Transfer(Transfer),
}

/// A multi-packet result as slot state: the marshalled result, kept
/// once, and how far its windowed transmission has got. Fragment frames
/// are built when they are sent.
struct Transfer {
    /// The result header the fragments are stamped from.
    header: RpcHeader,
    data: Vec<u8>,
    /// The first fragment the caller has not acknowledged — the one a
    /// duplicate call or probe gets again — and the next one to send.
    window: Window,
    /// The call's server trace record, detached from the executing
    /// thread's span; the window that carries the last fragment
    /// finishes it.
    record: Option<TraceRecord>,
}

impl Transfer {
    /// Queues fragment `index` on `out`, asking for an ack when `ask`
    /// and it is not the last. Frames are encoded under the activity
    /// guard and handed to the transport after it drops: a send can
    /// block, and blocking under the activity lock would stall the
    /// receiver.
    fn encode(
        &self,
        ctx: &SendCtx,
        out: &mut Batch,
        dst: SocketAddr,
        index: u16,
        ask: bool,
    ) -> Result<()> {
        let count = self.window.count;
        debug_assert!(index < count, "fragment {index} of {count}");
        let builder = ctx
            .builder_from(&self.header, dst)
            .fragment(index, count)
            .please_ack(ask && index + 1 < count);
        out.encode(&builder, crate::fragment::chunk(&self.data, index), dst)
    }
}

impl Retained {
    /// Queues on `out` the frame a duplicate call or a probe gets again:
    /// the one frame of a single-packet result, or a transfer's first
    /// unacknowledged fragment, asking where the caller's hole is. False
    /// when nothing is retained.
    fn resend(&self, ctx: &SendCtx, out: &mut Batch, dst: SocketAddr) -> bool {
        match self {
            Retained::None => false,
            Retained::Pooled(b) => {
                out.push(b, dst);
                true
            }
            Retained::Heap(v) => {
                out.push(v, dst);
                true
            }
            Retained::Transfer(t) => t.encode(ctx, out, dst, t.window.unacked, true).is_ok(),
        }
    }
}

struct ActState {
    /// When the activity last carried traffic (for idle reclamation).
    last_used: Instant,
    /// Highest call sequence number seen from this activity.
    last_seq: u32,
    /// True while a thread executes the current call.
    in_progress: bool,
    /// Result of the last completed call.
    retained: Retained,
    /// Partial multi-packet call, with its sequence number.
    reassembly: Option<(u32, Reassembly)>,
}

struct Activity {
    state: Mutex<ActState>,
}

struct ServiceEntry {
    service: Arc<dyn Service>,
    stubs: Vec<CompiledStub>,
    /// Per-procedure service-time estimate in ns (gate + stub + service
    /// code), 0 while unmeasured; see [`note_service_time`].
    service_ns: Vec<AtomicU64>,
    name: String,
    version: u16,
}

/// The four-row witness groups of a `Call` against a settled activity
/// slot, indexed by [`call_slot`].
const DUP_RETAINED_ROWS: [usize; 4] = [
    row::SERVER_DUP_RETAINED_CALL_LF_RETRANSMIT_RESULT,
    row::SERVER_DUP_RETAINED_CALL_PA_LF_RETRANSMIT_RESULT,
    row::SERVER_DUP_RETAINED_CALL_PA_RETRANSMIT_RESULT,
    row::SERVER_DUP_RETAINED_CALL_RETRANSMIT_RESULT,
];
const DUP_RELEASED_ROWS: [usize; 4] = [
    row::SERVER_DUP_RELEASED_CALL_LF_DROP_DUPLICATE,
    row::SERVER_DUP_RELEASED_CALL_PA_LF_DROP_DUPLICATE,
    row::SERVER_DUP_RELEASED_CALL_PA_DROP_DUPLICATE,
    row::SERVER_DUP_RELEASED_CALL_DROP_DUPLICATE,
];
const STALE_ROWS: [usize; 4] = [
    row::SERVER_STALE_CALL_LF_DROP_STALE,
    row::SERVER_STALE_CALL_PA_LF_DROP_STALE,
    row::SERVER_STALE_CALL_PA_DROP_STALE,
    row::SERVER_STALE_CALL_DROP_STALE,
];

/// No procedure estimated slower than this runs on the receiving thread,
/// however expensive a hand-off has been measured to be: the endpoint is
/// deaf while it runs. (The hand-off estimate is a mean of samples
/// clamped here, so it never exceeds it.)
const INLINE_CEILING_NS: u64 = 20_000;

/// Folds one service-time sample into a procedure's estimate: the
/// largest recent sample, decaying by an eighth per call. One slow
/// sample therefore demotes a procedure at once, and it takes a run of
/// fast ones to promote it back.
fn note_service_time(estimate: &AtomicU64, sample_ns: u64) {
    let old = estimate.load(Ordering::Relaxed);
    estimate.store(sample_ns.max(old - old / 8).max(1), Ordering::Relaxed);
}

/// Folds one queue-wait sample into the hand-off estimate: a running
/// mean (weight an eighth) of samples clamped to [`INLINE_CEILING_NS`],
/// so one descheduled worker moves it by a couple of µs at most and it
/// can never argue for more than the ceiling allows anyway.
fn note_handoff(estimate: &AtomicU64, sample_ns: u64) {
    let sample = sample_ns.clamp(1, INLINE_CEILING_NS);
    let new = match estimate.load(Ordering::Relaxed) {
        0 => sample,
        old => old - old / 8 + sample / 8,
    };
    estimate.store(new.max(1), Ordering::Relaxed);
}

/// A call on its way to a server thread.
struct Work {
    call: Assembled,
    src: SocketAddr,
    /// The caller activity's slot, looked up once at receipt.
    act: Arc<Activity>,
    /// Receive stamp ([`crate::trace`] nanos); 0 when tracing was off at
    /// receipt.
    received_at: u64,
    /// When the call was queued, for the hand-off estimate.
    queued_at: u64,
}

/// An executing thread's single-packet results wait in its [`Batch`]
/// until the thread runs out of immediately-available work, or until
/// this many are pending even if more local work remains, which bounds
/// the latency batching can add under load. They then go out in one
/// [`Transport::send_batch`], which packs consecutive frames to the same
/// caller into single datagrams.
///
/// Frames are *copied* in: retransmission retention keeps the pool
/// buffer in the activity slot independently, so deferring the send
/// never extends a buffer's lifetime.
///
/// [`Transport::send_batch`]: crate::transport::Transport::send_batch
const MAX_BATCHED_RESULTS: usize = 16;

/// The server half of an endpoint.
pub(crate) struct ServerSide {
    services: RwLock<HashMap<u64, ServiceEntry>>,
    gate: RwLock<Option<Arc<dyn crate::auth::CallGate>>>,
    activities: Mutex<HashMap<ActivityId, Arc<Activity>>>,
    /// Per-worker receive queues with ascending-index work stealing;
    /// the demux enqueues each call on `shard_for(activity)`'s queue.
    queues: WorkQueues<Work>,
    /// What handing a call to a worker costs here, in ns (enqueue to
    /// pick-up), 0 while unmeasured; see [`note_handoff`].
    handoff_ns: AtomicU64,
    ctx: Arc<SendCtx>,
}

impl ServerSide {
    pub fn new(ctx: Arc<SendCtx>, workers: usize) -> Arc<ServerSide> {
        Arc::new(ServerSide {
            services: RwLock::new(HashMap::new()),
            gate: RwLock::new(None),
            activities: Mutex::new(HashMap::new()),
            queues: WorkQueues::new(workers),
            handoff_ns: AtomicU64::new(0),
            ctx,
        })
    }

    /// Spawns one server thread per work queue; they wait for calls
    /// until shutdown. Fails with the underlying I/O error if the OS
    /// refuses a thread.
    pub fn spawn_workers(self: &Arc<Self>) -> std::io::Result<Vec<std::thread::JoinHandle<()>>> {
        (0..self.queues.worker_count())
            .map(|i| {
                let me = Arc::clone(self);
                std::thread::Builder::new()
                    // lint:allow(no-alloc-on-fast-path): one-time worker
                    // naming at endpoint startup, not the per-call path.
                    .name(format!("firefly-server-{i}"))
                    .spawn(move || me.worker_loop(i))
            })
            .collect()
    }

    /// Stops all workers once their queued work is drained.
    pub fn shutdown(&self) {
        self.queues.shutdown();
    }

    /// Looks up an exported service by interface UID.
    pub fn service_for(&self, uid: u64) -> Option<Arc<dyn Service>> {
        self.services
            .read()
            .get(&uid)
            .map(|e| Arc::clone(&e.service))
    }

    /// See [`crate::Endpoint::service_time_estimate`].
    pub fn service_time_estimate(&self, uid: u64, procedure: u16) -> Option<Duration> {
        let ns = self.service_ns(uid, procedure);
        (ns != 0).then(|| Duration::from_nanos(ns))
    }

    /// See [`crate::Endpoint::handoff_estimate`].
    pub fn handoff_estimate(&self) -> Option<Duration> {
        let ns = self.handoff_ns.load(Ordering::Relaxed);
        (ns != 0).then(|| Duration::from_nanos(ns))
    }

    fn service_ns(&self, uid: u64, procedure: u16) -> u64 {
        self.services
            .read()
            .get(&uid)
            .and_then(|e| e.service_ns.get(procedure as usize))
            .map_or(0, |ns| ns.load(Ordering::Relaxed))
    }

    /// Whether the receiving thread should execute this call itself:
    /// only a procedure *measured* to take less than the hand-off it
    /// would avoid, itself measured here (and never above
    /// [`INLINE_CEILING_NS`]). Unmeasured procedures (every procedure's
    /// first call) go to a worker. How many packets the call or its
    /// result takes does not enter into it: nothing waits for an ack.
    fn runs_inline(&self, rpc: &RpcHeader) -> bool {
        let service = self.service_ns(rpc.interface_uid, rpc.procedure);
        service != 0 && service < self.handoff_ns.load(Ordering::Relaxed)
    }

    /// Installs (or clears) the authorization gate.
    pub fn set_gate(&self, gate: Option<Arc<dyn crate::auth::CallGate>>) {
        *self.gate.write() = gate;
    }

    /// Reclaims per-activity state idle for longer than `max_idle`.
    ///
    /// The paper's call table similarly holds state only while "other
    /// calls from this caller address space to the same remote server
    /// address space have occurred recently, within a few seconds"
    /// (§3.1); older conversations fall off the fast path and their
    /// retained buffers return to the pool. Returns the number of
    /// activities reclaimed.
    pub fn prune_idle(&self, max_idle: Duration) -> usize {
        let mut map = self.activities.lock();
        let before = map.len();
        map.retain(|_, act| {
            let st = act.state.lock();
            st.in_progress || st.last_used.elapsed() < max_idle
        });
        before - map.len()
    }

    /// Number of tracked caller activities.
    pub fn activity_count(&self) -> usize {
        self.activities.lock().len()
    }

    /// Lists exported interfaces as `(name, uid, version)`.
    pub fn exported(&self) -> Vec<(String, u64, u16)> {
        self.services
            .read()
            .iter()
            // lint:allow(no-alloc-on-fast-path): introspection for the
            // binder and tooling, never on the per-call path.
            .map(|(uid, e)| (e.name.clone(), *uid, e.version))
            .collect()
    }

    /// Registers an exported service.
    pub fn export(&self, service: Arc<dyn Service>) -> Result<()> {
        // lint:allow(no-alloc-on-fast-path): export happens once at
        // bind time (§3.1), before any call traffic.
        let interface = service.interface().clone();
        let stubs = CompiledStub::for_interface(&interface);
        let service_ns = stubs.iter().map(|_| AtomicU64::new(0)).collect();
        let mut services = self.services.write();
        if services.contains_key(&interface.uid()) {
            return Err(RpcError::Binding(format!(
                "interface `{}` is already exported",
                interface.name()
            )));
        }
        services.insert(
            interface.uid(),
            ServiceEntry {
                service,
                stubs,
                service_ns,
                name: interface.name().to_string(),
                version: interface.version(),
            },
        );
        Ok(())
    }

    fn activity(&self, id: ActivityId) -> Arc<Activity> {
        let mut map = self.activities.lock();
        Arc::clone(map.entry(id).or_insert_with(|| {
            Arc::new(Activity {
                state: Mutex::new(ActState {
                    last_used: Instant::now(),
                    last_seq: 0,
                    in_progress: false,
                    retained: Retained::None,
                    reassembly: None,
                }),
            })
        }))
    }

    /// The duplicate-group slot of a call's flag shape, or `None` for a
    /// shape no legal sender produces (stray ack/failed bits on a Call):
    /// the witness records only rows the spec names.
    fn call_witness_slot(rpc: &RpcHeader) -> Option<usize> {
        if rpc.flags.acks_result || rpc.flags.call_failed {
            return None;
        }
        Some(call_slot(rpc.flags.please_ack, rpc.flags.last_fragment))
    }

    /// Interrupt-level handling of an incoming call packet.
    ///
    /// `out` is the receiving thread's own batch, for what it sends;
    /// `inline` says whether that thread may run service code (the
    /// resident receiver may, a caller thread holding the receive role
    /// may not).
    pub(crate) fn handle_call_packet(
        &self,
        pkt: Packet,
        src: SocketAddr,
        out: &mut Batch,
        inline: bool,
    ) {
        // Stamp receipt first, before any protocol work, so the server
        // account starts at the receive boundary (0 with tracing off).
        let received_at = self.ctx.tracer.stamp_if_enabled();
        let stats = &self.ctx.stats;
        RpcStats::bump(&stats.calls_received);
        let rpc = pkt.rpc;
        let slot = Self::call_witness_slot(&rpc);
        let act = self.activity(rpc.activity);
        let mut st = act.state.lock();
        st.last_used = Instant::now();

        if rpc.call_seq < st.last_seq {
            // A stale call from a past round; drop and recycle.
            if let Some(s) = slot {
                self.ctx.witness.record(STALE_ROWS[s]);
            }
            self.recycle(pkt);
            return;
        }
        if rpc.call_seq == st.last_seq && st.last_seq != 0 {
            // Duplicate of the current call (a caller retransmission).
            RpcStats::bump(&stats.duplicate_calls);
            let resent = st.retained.resend(&self.ctx, out, src);
            let executing = st.in_progress;
            drop(st);
            if resent {
                // "the last result packet … must be retained for possible
                // retransmission": answer the duplicate from it —
                // mid-transfer, with the first fragment not acknowledged.
                if let Some(s) = slot {
                    self.ctx.witness.record(DUP_RETAINED_ROWS[s]);
                }
                self.transmit(out);
                RpcStats::bump(&stats.retransmissions);
            } else if executing && rpc.flags.please_ack {
                // The call is executing; tell the caller to stop
                // retransmitting: the ack names the whole call.
                if slot.is_some() {
                    self.ctx.witness.record(if rpc.flags.last_fragment {
                        row::SERVER_DUP_EXECUTING_CALL_PA_LF_ACK_EXECUTING
                    } else {
                        row::SERVER_DUP_EXECUTING_CALL_PA_ACK_EXECUTING
                    });
                }
                let whole = RpcHeader {
                    fragment: rpc.fragment_count.saturating_sub(1),
                    ..RpcHeader::ack_for(&rpc)
                };
                let _ = self.ctx.send_ack(&whole, src);
            } else if let Some(s) = slot {
                // Dropped without answer: still executing (no ack asked),
                // or the result was already delivered and released.
                if executing {
                    self.ctx.witness.record(if rpc.flags.last_fragment {
                        row::SERVER_DUP_EXECUTING_CALL_LF_DROP_DUPLICATE
                    } else {
                        row::SERVER_DUP_EXECUTING_CALL_DROP_DUPLICATE
                    });
                } else {
                    self.ctx.witness.record(DUP_RELEASED_ROWS[s]);
                }
            }
            self.recycle(pkt);
            return;
        }

        // A new call (or the first fragment(s) of one).
        let call = if rpc.fragment_count > 1 {
            let reass = match &mut st.reassembly {
                Some((seq, r)) if *seq == rpc.call_seq => r,
                // A different (or no) sequence in the slot: start fresh.
                // `Option::insert` hands back the new value without an
                // expect(), so this path cannot panic the receiver.
                slot => &mut slot.insert((rpc.call_seq, Reassembly::new(rpc.fragment_count))).1,
            };
            let accepted = reass.accept(rpc.fragment, rpc.fragment_count, pkt.data());
            if accepted == Accepted::Refused {
                drop(st);
                RpcStats::bump(&stats.validation_drops);
                self.recycle(pkt);
                return;
            }
            RpcStats::bump(&stats.fragments_received);
            // Only a fragment that asks is acked — after the activity
            // guard drops, since the ack hits the wire — with the prefix
            // held, if there is one. The Result acks a whole call.
            let (pa, lf) = (rpc.flags.please_ack, rpc.flags.last_fragment);
            let ack = crate::fragment::prefix_ack(&rpc, reass).filter(|_| pa);
            let Accepted::Complete(data) = accepted else {
                if slot.is_some() {
                    self.ctx.witness.record(match (pa, lf, ack.is_some()) {
                        (false, false, _) => row::SERVER_NEW_CALL_ASSEMBLE,
                        (true, false, true) => row::SERVER_NEW_CALL_PA_ASSEMBLE_ACK,
                        (true, false, false) => row::SERVER_NEW_CALL_PA_ASSEMBLE,
                        (false, true, _) => row::SERVER_NEW_CALL_LF_ASSEMBLE,
                        (true, true, true) => row::SERVER_NEW_CALL_PA_LF_ASSEMBLE_ACK,
                        (true, true, false) => row::SERVER_NEW_CALL_PA_LF_ASSEMBLE,
                    });
                }
                drop(st);
                if let Some(ack) = ack {
                    let _ = self.ctx.send_ack(&ack, src);
                }
                self.recycle(pkt);
                return;
            };
            st.reassembly = None;
            if slot.is_some() {
                self.ctx.witness.record(match (pa, lf) {
                    (true, false) => row::SERVER_NEW_CALL_PA_DISPATCH,
                    (false, false) => row::SERVER_NEW_CALL_DISPATCH,
                    (true, true) => row::SERVER_NEW_CALL_PA_LF_DISPATCH,
                    (false, true) => row::SERVER_NEW_CALL_LF_DISPATCH,
                });
            }
            self.begin_call(&mut st, rpc.call_seq);
            drop(st);
            self.recycle(pkt);
            Assembled::Multi { rpc, data }
        } else {
            if slot.is_some() && rpc.flags.last_fragment {
                self.ctx.witness.record(if rpc.flags.please_ack {
                    row::SERVER_NEW_CALL_PA_LF_DISPATCH
                } else {
                    row::SERVER_NEW_CALL_LF_DISPATCH
                });
            }
            self.begin_call(&mut st, rpc.call_seq);
            drop(st);
            Assembled::Single(pkt)
        };
        if inline && self.runs_inline(&rpc) {
            // Never block the receiver for a buffer: a dry pool sends the
            // call round by the workers, which may wait.
            let shard = shard_for(rpc.activity, self.ctx.pool.shard_count());
            if let Ok(result_buf) = self.ctx.pool.alloc_from(shard) {
                // Reached its executing thread without queueing.
                RpcStats::bump(&stats.direct_wakeups);
                RpcStats::bump(&stats.inline_calls);
                self.dispatch(call, src, &act, received_at, Some(result_buf), out);
                return;
            }
        }
        self.enqueue(call, src, act, received_at);
    }

    /// Marks a new call in progress and releases the previous retained
    /// result — the arrival of a newer call is its implicit ack (§3.2).
    fn begin_call(&self, st: &mut ActState, seq: u32) {
        st.last_seq = seq;
        st.in_progress = true;
        if let Retained::Pooled(buf) = std::mem::replace(&mut st.retained, Retained::None) {
            // "the interrupt handler removes the buffer found in that
            // call table entry and adds it to the … receive queue."
            // `recycle` returns it to the shard that allocated it.
            buf.recycle();
            RpcStats::bump(&self.ctx.stats.buffers_recycled);
        }
    }

    /// Routes a call to the worker owning its activity's shard. A
    /// `true` from the push means a parked worker was woken directly —
    /// the paper's direct-handoff fast path; `false` means every worker
    /// was busy and the call waits in the queue (the slow path).
    fn enqueue(&self, call: Assembled, src: SocketAddr, act: Arc<Activity>, received_at: u64) {
        let target = shard_for(call.rpc().activity, self.queues.worker_count());
        let work = Work {
            call,
            src,
            act,
            received_at,
            queued_at: self.ctx.tracer.now_nanos(),
        };
        if self.queues.push(target, work) {
            RpcStats::bump(&self.ctx.stats.direct_wakeups);
        } else {
            RpcStats::bump(&self.ctx.stats.slow_path_queued);
        }
    }

    /// Interrupt-level handling of a probe.
    ///
    /// Four cases: the call is still executing — answer ProbeResponse so
    /// the caller keeps waiting; the call already completed — the result
    /// packet must have been lost, so retransmit the retained result —
    /// of a multi-packet one, the first fragment not acknowledged — (a
    /// ProbeResponse here would livelock: the caller would keep probing
    /// and the server would keep saying "in progress" forever); the call
    /// is being put together — ack the prefix held, which tells the
    /// caller where the hole is; the call is unknown — stay silent and
    /// let the caller's transmission budget expire.
    pub(crate) fn handle_probe(&self, rpc: &RpcHeader, src: SocketAddr, out: &mut Batch) {
        // Probes on the wire carry exactly last-fragment; the witness
        // records only that spec shape.
        let spec_probe = rpc.flags.last_fragment
            && !rpc.flags.please_ack
            && !rpc.flags.acks_result
            && !rpc.flags.call_failed;
        let record = |row| {
            if spec_probe {
                self.ctx.witness.record(row);
            }
        };
        let act = self.activity(rpc.activity);
        let st = act.state.lock();
        if st.last_seq != rpc.call_seq {
            let ack = match &st.reassembly {
                Some((seq, r)) if *seq == rpc.call_seq => Some(crate::fragment::prefix_ack(rpc, r)),
                _ => None,
            };
            drop(st);
            match ack {
                Some(None) => record(row::SERVER_ASSEMBLING_PROBE_LF_DROP_SILENT),
                Some(Some(ack)) => {
                    record(row::SERVER_ASSEMBLING_PROBE_LF_ACK_PREFIX);
                    let _ = self.ctx.send_ack(&ack, src);
                }
                None => record(row::SERVER_UNKNOWN_PROBE_LF_DROP_SILENT),
            }
            return;
        }
        let resent = st.retained.resend(&self.ctx, out, src);
        let executing = st.in_progress;
        drop(st);
        if resent {
            record(row::SERVER_RETAINED_PROBE_LF_RETRANSMIT_RESULT);
            self.transmit(out);
            RpcStats::bump(&self.ctx.stats.retransmissions);
            RpcStats::bump(&self.ctx.stats.probes_answered);
            return;
        }
        if executing {
            record(row::SERVER_EXECUTING_PROBE_LF_PROBE_RESPONSE);
            let response = RpcHeader {
                packet_type: PacketType::ProbeResponse,
                data_len: 0,
                ..*rpc
            };
            let _ = self
                .ctx
                .send_built(&self.ctx.builder_from(&response, src), &[], src);
            RpcStats::bump(&self.ctx.stats.probes_answered);
        } else {
            // Result delivered and released: stay silent (the caller's
            // next call starts a fresh round).
            record(row::SERVER_RELEASED_PROBE_LF_DROP_SILENT);
        }
    }

    /// Interrupt-level handling of a caller's ack of our result
    /// fragments, on whichever thread holds the receive role.
    ///
    /// The ack names the prefix the caller holds, and *is* the event that
    /// sends what comes next: the next window when it covers everything
    /// sent, the hole again when it stops short — handed to the
    /// transport by this thread itself, through its batch `out`, so no
    /// server thread sleeps through the round trip and none is woken by
    /// it.
    pub(crate) fn handle_result_ack(&self, rpc: &RpcHeader, src: SocketAddr, out: &mut Batch) {
        RpcStats::bump(&self.ctx.stats.acks_received);
        // Caller result-acks carry acks-result, optionally with
        // last-fragment for the final (releasing) ack; anything else is
        // off-spec and goes unrecorded.
        let spec_ack = rpc.packet_type == PacketType::Ack
            && rpc.flags.acks_result
            && !rpc.flags.please_ack
            && !rpc.flags.call_failed;
        let record = |row| {
            if spec_ack {
                self.ctx.witness.record(row);
            }
        };
        let act = self.activity(rpc.activity);
        let mut st = act.state.lock();
        if rpc.call_seq != st.last_seq {
            record(if rpc.flags.last_fragment {
                row::SERVER_UNKNOWN_ACK_LF_AR_DROP_STALE
            } else {
                row::SERVER_UNKNOWN_ACK_AR_DROP_STALE
            });
            return;
        }
        if rpc.flags.last_fragment {
            // Explicit ack of the complete result: release retention.
            record(row::SERVER_KNOWN_ACK_LF_AR_RELEASE_RETAINED);
            if let Retained::Pooled(buf) = std::mem::replace(&mut st.retained, Retained::None) {
                buf.recycle();
                RpcStats::bump(&self.ctx.stats.buffers_recycled);
            }
            return;
        }
        // An ack for a single-packet result is as stale as one of another
        // call: it moves nothing.
        let Retained::Transfer(t) = &mut st.retained else {
            record(row::SERVER_UNKNOWN_ACK_AR_DROP_STALE);
            return;
        };
        match t.window.ack(crate::fragment::held(rpc)) {
            Acked::Open => {
                drop(st);
                record(row::SERVER_KNOWN_ACK_AR_ADVANCE_FRAGMENT);
                self.send_window(&act, src, out);
            }
            Acked::Hole(index) => {
                // The caller lacks that fragment: again, asking where the
                // next hole is.
                let queued = t.encode(&self.ctx, out, src, index, true).is_ok();
                drop(st);
                record(row::SERVER_KNOWN_ACK_AR_RESEND_HOLE);
                if queued {
                    self.transmit(out);
                    RpcStats::bump(&self.ctx.stats.retransmissions);
                }
            }
            Acked::Stale => record(row::SERVER_UNKNOWN_ACK_AR_DROP_STALE),
        }
    }

    /// Sends one window of `act`'s result transfer — the fragments it
    /// lets out that nobody has sent yet — in one batch, encoded under
    /// the activity guard and handed to the transport after it drops.
    /// Called by the thread that opened the window: the one that
    /// executed the call, or the one that received the ack of the last
    /// window's edge. Holding the guard while it encodes, it sees no ack
    /// of this window's edge: the next window is that ack's receiver's
    /// to send.
    fn send_window(&self, act: &Activity, dst: SocketAddr, out: &mut Batch) {
        let mut st = act.state.lock();
        let Retained::Transfer(t) = &mut st.retained else {
            return;
        };
        let (mut sent, mut finished) = (0, None);
        while let Some((index, edge)) = t.window.advance() {
            if t.encode(&self.ctx, out, dst, index, edge).is_ok() {
                sent += 1;
            }
            if index + 1 == t.window.count {
                finished = t.record.take();
            }
        }
        drop(st);
        self.transmit(out);
        self.ctx.stats.fragments_sent.fetch_add(sent, Ordering::Relaxed);
        if let Some(record) = finished {
            // The account's boundary is the hand-off of the last fragment.
            self.ctx.tracer.finish_detached(record, Stamp::ResultSent);
            RpcStats::bump(&self.ctx.stats.trace_records);
        }
    }

    fn recycle(&self, pkt: Packet) {
        pkt.into_buf().recycle();
        RpcStats::bump(&self.ctx.stats.buffers_recycled);
    }

    /// Hands what `out` holds to the transport, with no lock held. A send
    /// failure is indistinguishable from loss on the wire; the caller's
    /// retransmission recovers either.
    fn transmit(&self, out: &mut Batch) {
        let _ = out.send(&*self.ctx.transport);
    }

    fn worker_loop(self: Arc<Self>, worker: usize) {
        // The worker's private batch: a whole queue drained (own or
        // stolen) is processed from here without further locking.
        let mut local = VecDeque::new();
        // Pending result frames. Sent when the batch fills or the
        // queues go quiet (never later than the pre-park check inside
        // `pop_with`), so no caller ever waits on a parked worker's
        // buffered result; while work keeps arriving, results
        // accumulate and go out packed.
        let mut results = Batch::default();
        loop {
            // `pop_with` sends the pending results once the queues have
            // stayed quiet for a few rescans (and always before this
            // worker could park), so during a busy streak results keep
            // packing across drains and steals, while an idle lull
            // bounds their latency at a handful of yields.
            let next = self
                .queues
                .pop_with(worker, &mut local, || self.transmit(&mut results));
            let Some(work) = next else {
                break;
            };
            let waited = self.ctx.tracer.now_nanos().saturating_sub(work.queued_at);
            note_handoff(&self.handoff_ns, waited);
            self.dispatch(work.call, work.src, &work.act, work.received_at, None, &mut results);
        }
        self.transmit(&mut results);
    }

    /// The Receiver: execute one call and transmit its result through the
    /// executing thread's batch `out`, on a server thread or on the
    /// receiving thread itself. `inline_buf` is the result buffer when
    /// this is the receiving thread, which does not wait for one.
    fn dispatch(
        &self,
        call: Assembled,
        src: SocketAddr,
        act: &Activity,
        received_at: u64,
        inline_buf: Option<PacketBuf>,
        out: &mut Batch,
    ) {
        let rpc = *call.rpc();
        // The server half of the latency account: `Received` carries the
        // receive stamp, `Dispatched` is stamped here — the queue wait,
        // or next to nothing when the receiving thread executes.
        let mut span = self.ctx.tracer.server_span(rpc.procedure, received_at);
        let outcome = self.execute(&call, src, inline_buf, &mut span, out);
        // A single-packet result is out and its record complete. A
        // multi-packet one took the record along (`Span::detach`): it
        // ends where the last fragment is sent.
        if outcome.is_ok() && span.finish() {
            RpcStats::bump(&self.ctx.stats.trace_records);
        }
        self.complete(&rpc, src, act, outcome, out);
    }

    /// Ends a call's execution: retains what was sent, starts what is
    /// still to send, or sends (and retains) the error result.
    fn complete(
        &self,
        rpc: &RpcHeader,
        src: SocketAddr,
        act: &Activity,
        outcome: Result<Retained>,
        out: &mut Batch,
    ) {
        let mut st = act.state.lock();
        if st.last_seq != rpc.call_seq {
            // A newer call superseded us while executing; discard.
            return;
        }
        st.in_progress = false;
        match outcome {
            Ok(retained) => {
                let transfer = matches!(retained, Retained::Transfer(_));
                st.retained = retained;
                drop(st);
                if transfer {
                    // The first window goes out only now, with the
                    // transfer where the receiver will look for it: an
                    // ack may arrive on another thread before `send`
                    // returns.
                    self.send_window(act, src, out);
                }
            }
            Err(e) => {
                // Error result: single packet, call_failed flag, message
                // as data.
                drop(st);
                let msg = e.to_string();
                let data = &msg.as_bytes()[..msg.len().min(MAX_SINGLE_PACKET_DATA)];
                // `result_for` resets the flag word to the single-packet
                // shape; spelling the header as `..rpc` here used to leak
                // the call's please-ack bit into the error result, making
                // the caller send an ack nobody consumed.
                let header = RpcHeader::result_for(rpc, data.len());
                let builder = self.ctx.builder_from(&header, src).call_failed(true);
                let _ = self.ctx.send_built(&builder, data, src);
                let mut st = act.state.lock();
                if st.last_seq == rpc.call_seq {
                    if let Ok(frame) = builder.build(data) {
                        st.retained = Retained::Heap(frame.into_bytes());
                    }
                }
            }
        }
    }

    /// Runs the stub + service and hands back the result: a single
    /// packet already queued for transmission, or a [`Transfer`] for
    /// [`ServerSide::complete`] to start.
    fn execute(
        &self,
        call: &Assembled,
        src: SocketAddr,
        inline_buf: Option<PacketBuf>,
        span: &mut crate::trace::Span<'_>,
        out: &mut Batch,
    ) -> Result<Retained> {
        let rpc = *call.rpc();
        let started = self.ctx.tracer.now_nanos();
        // The authorization hook runs after duplicate filtering, before
        // any service code (§7's "structural hooks").
        if let Some(gate) = self.gate.read().as_ref() {
            gate.authorize(rpc.activity, rpc.interface_uid, rpc.procedure)
                .map_err(|reason| RpcError::Remote(format!("call refused: {reason}")))?;
        }
        let services = self.services.read();
        let entry = services.get(&rpc.interface_uid).ok_or_else(|| {
            RpcError::Remote(format!("no such interface {:#x}", rpc.interface_uid))
        })?;
        if entry.version != rpc.interface_version {
            return Err(RpcError::Remote(format!(
                "interface version mismatch: have {}, caller wants {}",
                entry.version, rpc.interface_version
            )));
        }
        let stub = entry
            .stubs
            .get(rpc.procedure as usize)
            .ok_or_else(|| RpcError::Remote(format!("no procedure #{}", rpc.procedure)))?;

        // Unmarshal in place: CHAR arrays borrow the call packet.
        let args = stub.unmarshal_call(call.data())?;

        // Marshal the result straight into a fresh pool buffer from the
        // activity's shard (caller threads on other shards contend on
        // nothing); large results spill to the heap transparently.
        let mut result_buf = match inline_buf {
            Some(buf) => buf,
            None => {
                let shard = shard_for(rpc.activity, self.ctx.pool.shard_count());
                self.ctx
                    .pool
                    .alloc_timeout_from(shard, Duration::from_secs(1))?
            }
        };
        let raw = result_buf.raw_mut();
        let mut writer = stub.result_writer(&mut raw[DATA_OFFSET..]);
        entry.service.dispatch(rpc.procedure, &args, &mut writer)?;
        let written = writer.finish()?;
        drop(args);
        if let Some(estimate) = entry.service_ns.get(rpc.procedure as usize) {
            let took = self.ctx.tracer.now_nanos().saturating_sub(started);
            note_service_time(estimate, took);
        }
        drop(services);
        span.stamp(Stamp::StubDone);

        let header = RpcHeader::result_for(&rpc, written.len());
        match written {
            Written::InPlace { len } => {
                // Single packet: headers in place around the data, queue
                // a copy of the frame on the executing thread's batch
                // (packed into shared datagrams when it is sent), retain
                // the pool buffer — no per-call list around it.
                let total = self
                    .ctx
                    .builder_from(&header, src)
                    .encode_into(result_buf.raw_mut(), len)?;
                result_buf.set_len(total);
                out.push(&result_buf, src);
                if out.len() >= MAX_BATCHED_RESULTS {
                    self.transmit(out);
                }
                span.stamp(Stamp::ResultSent);
                Ok(Retained::Pooled(result_buf))
            }
            Written::Spilled(data) => Ok(Retained::Transfer(Transfer {
                header,
                window: Window::new(crate::fragment::fragment_count(data.len())?),
                data,
                record: span.detach(),
            })),
        }
    }
}
