//! The server side: Receiver, server threads, duplicate filtering, and
//! result retention.
//!
//! One `ServerSide` per endpoint. The thread holding the receive role
//! routes call packets here and performs the interrupt-level work —
//! duplicate filtering, fragment reassembly, retained-result
//! retransmission — then gets the fresh call executed by the cheapest
//! thread that may run it. Every call frame comes validated where it
//! landed in the receiving thread's datagram. A single-packet call
//! (`handle_call`) is read there by the receiving thread when it runs
//! the call itself. One bound for a server thread must outlive the
//! datagram: it is copied into a buffer of the server's one pool, taken
//! once the call is known to be new and before it touches its activity
//! — or, when none is free, shed like a lost packet (`calls_shed`) for
//! the caller's retransmission to recover. The receiving thread never
//! waits for a buffer, and the pool carries nothing else. The fragments of a multi-packet call come as a run
//! (`handle_call_fragments`): the activity is found, locked and marked
//! used (a clock read) once for the run, and each fragment's data is
//! copied straight from the datagram into the call's reassembly — no
//! pool buffer, no copy before that one. Either way the packet's round
//! is decided once, by the same `seen`: stale, a duplicate, or new.
//!
//! A caller activity's state is one entry of a table keyed by its 8-byte
//! id, found once per packet; only a call
//! makes one, so a probe or an ack for an activity never seen leaves
//! nothing behind. The entry owns the frame its calls' results are
//! marshalled into, made at its first call and lent to the thread that
//! executes each call, which hands it back with the result. It keeps the
//! activity's last result for retransmission (§3.2's "last result
//! packet"): a one-packet result, a failure's included, as the frame's
//! first bytes; a multi-packet one as its bytes and window, with the
//! frame kept for the next call. The next call's arrival acknowledges
//! the result and lends the frame again; an explicit ack of the last
//! result frees it. No result takes a pool buffer, and a call the
//! receiving thread runs itself takes none at all. The exported service
//! is looked up once per call, by the thread that runs it.
//!
//! The executing thread is:
//!
//! * the **receiving thread itself**, when that is the resident receiver
//!   and the call is for a procedure whose measured service time is
//!   below what waking a worker costs here — the eRPC rule ("the thread
//!   that polls the network runs the handler to completion"), and the
//!   Firefly's two-threads-per-call shape;
//! * otherwise a **server thread**: "if the interrupt routine can find a
//!   server thread … it attaches the buffer containing the call packet
//!   to the call table entry and awakens the server thread directly"
//!   (§3.1.3). Server threads are taken on demand: a new call handed off
//!   when every thread taken is busy takes one more, up to
//!   `Config::server_threads` — an idle server thread of the process
//!   when one waits (`crate::reservoir`), a new one otherwise — so an
//!   endpoint that only calls, or whose calls all run on the receiving
//!   thread, takes none. A call of a round already seen is answered
//!   first, and takes neither a buffer nor a thread. Whether a thread is
//!   there, or can be taken, is decided with the pool buffer, before a
//!   new call touches its activity; one that finds none — after
//!   shutdown, or when the OS refuses a thread and none runs — is shed
//!   like one that finds the pool dry.
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

use crate::fragment::{Accepted, Acked, Reassembly, Window};
use crate::packet::{Assembled, Fragment, Packet};
use crate::reservoir::{Running, SERVERS};
use crate::send::{Batch, SendCtx};
use crate::service::Service;
use crate::shard::WorkQueues;
use crate::stats::RpcStats;
use crate::trace::{Stamp, TraceRecord};
use crate::witness::{Action, State};
use crate::{Result, RpcError};
use firefly_idl::{CompiledStub, Written};
use firefly_pool::BufferPool;
use firefly_sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard};
use firefly_wire::{
    ActivityId, FrameBuilder, FrameView, PacketType, RpcHeader, DATA_OFFSET, MAX_FRAME_LEN,
    MAX_SINGLE_PACKET_DATA,
};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// The retained result of an activity's last call, kept for
/// retransmission until the next call from the same activity implicitly
/// acknowledges it.
enum Retained {
    /// Nothing retained (initial state, or released by an explicit ack).
    None,
    /// A one-packet result — a call's or a failure's: the first `len`
    /// bytes of the activity's result frame.
    Frame(usize),
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

struct ActState {
    /// When the activity last carried traffic (for idle reclamation).
    last_used: Instant,
    /// Highest call sequence number seen from this activity.
    last_seq: u32,
    /// True while a thread executes the current call.
    in_progress: bool,
    /// Result of the last completed call.
    retained: Retained,
    /// The frame the activity's results are marshalled into: made at its
    /// first call, lent to the thread that executes each call and handed
    /// back with the result, freed by an explicit ack. It holds a
    /// one-packet result while that is retained.
    frame: Option<Box<[u8]>>,
    /// Partial multi-packet call, with its sequence number.
    reassembly: Option<(u32, Reassembly)>,
}

impl ActState {
    /// Queues on `out` the frame a duplicate call or a probe gets again:
    /// the one frame of a single-packet result, or a transfer's first
    /// unacknowledged fragment, asking where the caller's hole is. False
    /// when nothing is retained.
    fn resend(&self, ctx: &SendCtx, out: &mut Batch, dst: SocketAddr) -> bool {
        match (&self.retained, &self.frame) {
            (Retained::Frame(len), Some(frame)) => {
                out.push(&frame[..*len], dst);
                true
            }
            (Retained::Transfer(t), _) => t.encode(ctx, out, dst, t.window.unacked, true).is_ok(),
            _ => false,
        }
    }
}

struct Activity {
    state: Mutex<ActState>,
}

/// An activity's key in the activity table: its 8 bytes.
fn activity_key(id: ActivityId) -> u64 {
    u64::from(id.machine) << 32 | u64::from(id.space) << 16 | u64::from(id.thread)
}

/// Where a call packet stands against its activity's slot — one
/// decision for single packets and fragments alike.
enum Seen {
    /// From a round before the current call.
    Stale,
    /// Of the current call: a retransmission.
    Duplicate,
    /// Of a call newer than any seen (or a fragment of one).
    New,
}

fn seen(st: &ActState, rpc: &RpcHeader) -> Seen {
    if rpc.call_seq < st.last_seq {
        Seen::Stale
    } else if rpc.call_seq == st.last_seq && st.last_seq != 0 {
        Seen::Duplicate
    } else {
        Seen::New
    }
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

impl ServiceEntry {
    fn service_ns(&self, procedure: u16) -> u64 {
        self.service_ns
            .get(procedure as usize)
            .map_or(0, |ns| ns.load(Ordering::Relaxed))
    }
}

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

/// The failure a procedure's panic becomes, naming its message when the
/// payload is one (`panic!` with a literal or a format string).
fn procedure_panicked(payload: &(dyn std::any::Any + Send)) -> RpcError {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a payload that is not a message");
    RpcError::Remote(format!("procedure panicked: {message}"))
}

/// A call on its way to a server thread.
struct Work {
    call: Assembled,
    src: SocketAddr,
    /// The caller activity's slot, looked up once at receipt.
    act: Arc<Activity>,
    /// The activity's result frame, lent for this call's result.
    frame: Box<[u8]>,
    /// Receive stamp ([`crate::trace`] nanos); 0 when tracing was off at
    /// receipt.
    received_at: u64,
    /// When the call was queued, for the hand-off estimate.
    queued_at: u64,
}

/// Size of the server's packet-buffer pool. It holds nothing but the
/// single-packet calls handed to server threads, each copied out of the
/// datagram it landed in: callers, results and calls the receiving
/// thread runs itself take no pool buffer.
pub(crate) const POOL_SIZE: usize = 64;

/// What the endpoint exports, and who may call it: read once per call.
#[derive(Default)]
struct Exports {
    services: HashMap<u64, ServiceEntry>,
    gate: Option<Arc<dyn crate::auth::CallGate>>,
}

/// The server half of an endpoint.
pub(crate) struct ServerSide {
    exports: RwLock<Exports>,
    activities: Mutex<HashMap<u64, Arc<Activity>>>,
    /// The one queue calls are handed to server threads on; whichever
    /// thread looks next takes the next call.
    queues: WorkQueues<Work>,
    /// The worker loops running on server threads taken so far, waited
    /// for at shutdown.
    threads: Mutex<Vec<Running>>,
    /// Server threads with no call in hand: looking for one, parked, or
    /// done executing the last and sending its result.
    free: AtomicUsize,
    /// This server side, for the worker loops it starts to share.
    me: Weak<ServerSide>,
    /// What handing a call to a worker costs here, in ns (enqueue to
    /// pick-up), 0 while unmeasured; see [`note_handoff`].
    handoff_ns: AtomicU64,
    /// The buffers single-packet calls bound for a worker are copied
    /// into.
    pool: BufferPool,
    ctx: Arc<SendCtx>,
}

impl ServerSide {
    /// A server side that takes up to `workers` server threads (at
    /// least one), none of them yet.
    pub fn new(ctx: Arc<SendCtx>, workers: usize) -> Arc<ServerSide> {
        // lint:allow(no-alloc-on-fast-path): once per endpoint.
        Arc::new_cyclic(|me| ServerSide {
            exports: RwLock::default(),
            activities: Mutex::default(),
            queues: WorkQueues::new(workers),
            threads: Mutex::default(),
            free: AtomicUsize::new(0),
            me: Weak::clone(me),
            handoff_ns: AtomicU64::new(0),
            pool: BufferPool::new(POOL_SIZE),
            ctx,
        })
    }

    /// Whether a new call handed off now will be taken by a server
    /// thread: one is free; or every one taken is busy and one more is
    /// taken for it here, below the cap — an idle server thread of the
    /// process, or a new one; or, at the cap, a busy one will get to it.
    /// False after shutdown, and when no thread runs and the OS refuses
    /// one.
    fn worker_ready(&self) -> bool {
        if self.queues.is_down() {
            return false;
        }
        if self.free.load(Ordering::Relaxed) > 0 {
            return true;
        }
        let cap = self.queues.worker_count();
        if self.threads.lock().len() >= cap {
            return true;
        }
        // The idle thread is taken before `threads` is locked: the
        // reservoir's lock is never taken under it.
        let thread = SERVERS.reserve();
        let mut threads = self.threads.lock();
        // Read again under the lock, which `shutdown` takes after setting
        // it: a loop is started only if `shutdown` will wait for it.
        if self.queues.is_down() {
            return false;
        }
        let taken = threads.len();
        if taken < cap {
            let started = self
                .me
                .upgrade()
                .map(|me| thread.run(move || me.worker_loop()));
            if let Some(Ok(running)) = started {
                threads.push(running);
                RpcStats::bump(&self.ctx.stats.workers_started);
                return true;
            }
        }
        taken > 0
    }

    /// The pool calls handed to server threads are copied into.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Stops the worker loops once their queued work is drained, and
    /// waits for every one started — one started while this runs
    /// included — to end; their threads go back idle.
    pub fn shutdown(&self) {
        self.queues.shutdown();
        // Taken out under the guard, waited for after it drops: a
        // receiving thread deciding a hand-off meanwhile must not wait
        // on a loop.
        let threads = std::mem::take(&mut *self.threads.lock());
        for thread in threads {
            thread.wait();
        }
    }

    /// Looks up an exported service by interface UID.
    pub fn service_for(&self, uid: u64) -> Option<Arc<dyn Service>> {
        self.exports
            .read()
            .services
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
        self.exports
            .read()
            .services
            .get(&uid)
            .map_or(0, |e| e.service_ns(procedure))
    }

    /// Whether the receiving thread should execute a call of `procedure`
    /// of `entry` itself: only a procedure *measured* to take less than
    /// the hand-off it would avoid, itself measured here (and never above
    /// [`INLINE_CEILING_NS`]). Unmeasured procedures (every procedure's
    /// first call) go to a worker. How many packets the call or its
    /// result takes does not enter into it: nothing waits for an ack.
    fn runs_inline(&self, entry: &ServiceEntry, procedure: u16) -> bool {
        let service = entry.service_ns(procedure);
        service != 0 && service < self.handoff_ns.load(Ordering::Relaxed)
    }

    /// Installs (or clears) the authorization gate.
    pub fn set_gate(&self, gate: Option<Arc<dyn crate::auth::CallGate>>) {
        self.exports.write().gate = gate;
    }

    /// Reclaims per-activity state idle for longer than `max_idle`.
    ///
    /// The paper's call table similarly holds state only while "other
    /// calls from this caller address space to the same remote server
    /// address space have occurred recently, within a few seconds"
    /// (§3.1); older conversations fall off the fast path and their
    /// result frames are freed. Returns the number of activities
    /// reclaimed.
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
        self.exports
            .read()
            .services
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
        let mut exports = self.exports.write();
        let services = &mut exports.services;
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

    /// The state of activity `id`, made on its first call.
    fn activity(&self, id: ActivityId) -> Arc<Activity> {
        let mut map = self.activities.lock();
        Arc::clone(map.entry(activity_key(id)).or_insert_with(|| {
            // lint:allow(no-alloc-on-fast-path): once per caller
            // activity, at its first call; pruned when idle.
            Arc::new(Activity {
                state: Mutex::new(ActState {
                    last_used: Instant::now(),
                    last_seq: 0,
                    in_progress: false,
                    retained: Retained::None,
                    frame: None,
                    reassembly: None,
                }),
            })
        }))
    }

    /// The state of activity `id`, if it has made a call: a probe or an
    /// ack makes none.
    fn find(&self, id: ActivityId) -> Option<Arc<Activity>> {
        self.activities.lock().get(&activity_key(id)).map(Arc::clone)
    }

    /// Interrupt-level handling of an incoming single-packet call,
    /// validated where it landed (`view`, over `frame`).
    ///
    /// `out` is the receiving thread's own batch, for what it sends;
    /// `inline` says whether that thread may run service code (the
    /// resident receiver may, a caller thread holding the receive role
    /// may not). Who runs the call is decided first, with the exports
    /// read once. A call of an activity already seen is then classified,
    /// and one of a round already seen is answered as usual: its answer
    /// needs neither a buffer nor a thread. Only a new call bound for a
    /// server thread takes the pool buffer it is copied into and makes
    /// sure of a thread to take it (taking one if every one taken is
    /// busy); when either is missing it is shed, like a lost packet, and
    /// leaves no trace but `calls_shed`.
    pub(crate) fn handle_call(
        &self,
        view: &FrameView<'_>,
        frame: &[u8],
        src: SocketAddr,
        out: &mut Batch,
        inline: bool,
    ) {
        // Stamp receipt first, before any protocol work, so the server
        // account starts at the receive boundary (0 with tracing off).
        let received_at = self.ctx.tracer.stamp_if_enabled();
        let rpc = view.rpc;
        let exports = self.exports.read();
        let service = exports.services.get(&rpc.interface_uid);
        let here = inline && service.is_some_and(|entry| self.runs_inline(entry, rpc.procedure));
        let found = self.find(rpc.activity);
        if let Some(act) = &found {
            let mut st = act.state.lock();
            match seen(&st, &rpc) {
                // A call run here goes on under the guard it was
                // classified under.
                Seen::New if here => {
                    return self.begin(exports, st, act, None, view, src, received_at, out);
                }
                Seen::New => {}
                old => {
                    drop(exports);
                    RpcStats::bump(&self.ctx.stats.calls_received);
                    st.last_used = Instant::now();
                    self.answer_old(st, old, &rpc, src, out);
                    return;
                }
            }
        }
        // A new call. Only the receiving thread moves an activity to a
        // new round, so it is still new when its guard is taken again.
        let copy = if here {
            None
        } else {
            match self.pool.alloc().ok().filter(|_| self.worker_ready()) {
                Some(mut buf) => {
                    buf.fill_from(frame);
                    Some(buf)
                }
                None => {
                    RpcStats::bump(&self.ctx.stats.calls_shed);
                    return;
                }
            }
        };
        let act = found.unwrap_or_else(|| self.activity(rpc.activity));
        let st = act.state.lock();
        self.begin(exports, st, &act, copy, view, src, received_at, out);
    }

    /// Begins a new single-packet call under its activity's guard `st`:
    /// runs it here when there is no `copy` of it, and hands the copy to
    /// the server threads otherwise.
    #[allow(clippy::too_many_arguments)]
    fn begin(
        &self,
        exports: RwLockReadGuard<'_, Exports>,
        mut st: MutexGuard<'_, ActState>,
        act: &Arc<Activity>,
        copy: Option<firefly_pool::PacketBuf>,
        view: &FrameView<'_>,
        src: SocketAddr,
        received_at: u64,
        out: &mut Batch,
    ) {
        let rpc = view.rpc;
        RpcStats::bump(&self.ctx.stats.calls_received);
        // The one clock read of a call run here: when its activity was
        // last used, and where its service-time sample starts.
        let now = Instant::now();
        st.last_used = now;
        let result = self.begin_call(&mut st, rpc.call_seq);
        drop(st);
        self.ctx.witness.record(State::ServerNew, &rpc, Action::Dispatch);
        match copy {
            None => {
                self.run_here(exports, &rpc, view.data, src, act, result, received_at, now, out);
            }
            Some(buf) => {
                drop(exports);
                let call = Assembled::Single(Packet::validated(buf, rpc, view.data.len()));
                self.enqueue(call, src, Arc::clone(act), result, received_at);
            }
        }
    }

    /// Interrupt-level handling of a run of fragments of one multi-packet
    /// call — consecutive frames of one datagram, of one activity and
    /// call — validated where they landed.
    ///
    /// The activity is found, locked and marked used (a clock read) once
    /// for the run, and each fragment is decided and taken in turn, its data
    /// copied from the datagram straight into the call's reassembly. The
    /// guard is given up only for a duplicate's answer or to run the
    /// completed call, and taken again for the next fragment, so every
    /// fragment sees and does exactly what it would alone. An ack a
    /// fragment asks for is queued on `out`. `out` and `inline` as for
    /// [`ServerSide::handle_call`]: who runs the call the run may
    /// complete is decided first, and a run of a new call bound for a
    /// server thread when none is there or can be taken is shed whole,
    /// before its activity is touched.
    pub(crate) fn handle_call_fragments(
        &self,
        run: &[Fragment<'_>],
        src: SocketAddr,
        out: &mut Batch,
        inline: bool,
    ) {
        let Some(first) = run.first() else {
            return;
        };
        let stats = &self.ctx.stats;
        let witness = &self.ctx.witness;
        let here = inline && {
            let exports = self.exports.read();
            let service = exports.services.get(&first.rpc.interface_uid);
            service.is_some_and(|entry| self.runs_inline(entry, first.rpc.procedure))
        };
        // The fragments of a run are of one call, so the first classifies
        // it: only a new call takes a thread.
        let found = self.find(first.rpc.activity);
        let new = |act: &Arc<Activity>| matches!(seen(&act.state.lock(), &first.rpc), Seen::New);
        if !here && found.as_ref().is_none_or(new) && !self.worker_ready() {
            stats.calls_shed.fetch_add(run.len() as u64, Ordering::Relaxed);
            return;
        }
        let act = found.unwrap_or_else(|| self.activity(first.rpc.activity));
        let mut st = act.state.lock();
        st.last_used = Instant::now();
        let mut held = Some(st);
        for f in run {
            // The server account of a multi-packet call starts at the
            // receipt of the fragment that completes it (0 with tracing
            // off): reassembly is the caller's send step.
            let received_at = self.ctx.tracer.stamp_if_enabled();
            RpcStats::bump(&stats.calls_received);
            let rpc = f.rpc;
            let mut st = match held.take() {
                Some(st) => st,
                None => act.state.lock(),
            };
            match seen(&st, &rpc) {
                Seen::New => {}
                old => {
                    self.answer_old(st, old, &rpc, src, out);
                    continue;
                }
            }
            let reass = match &mut st.reassembly {
                Some((seq, r)) if *seq == rpc.call_seq => r,
                // A different (or no) sequence in the slot: start fresh.
                // `Option::insert` hands back the new value without an
                // expect(), so this path cannot panic the receiver.
                slot => &mut slot.insert((rpc.call_seq, Reassembly::new(rpc.fragment_count))).1,
            };
            let accepted = reass.accept(rpc.fragment, rpc.fragment_count, f.data);
            if accepted == Accepted::Refused {
                RpcStats::bump(&stats.validation_drops);
                held = Some(st);
                continue;
            }
            RpcStats::bump(&stats.fragments_received);
            // Only a fragment that asks is acked — on `out`, to go with
            // the receiving thread's batch — with the prefix held, if
            // there is one. The Result acks a whole call.
            let ack = crate::fragment::prefix_ack(&rpc, reass).filter(|_| rpc.flags.please_ack);
            let Accepted::Complete(data) = accepted else {
                match ack {
                    Some(ack) => {
                        witness.record(State::ServerNew, &rpc, Action::AssembleAck);
                        let _ = self.ctx.encode_ack(out, &ack, src);
                    }
                    None => witness.record(State::ServerNew, &rpc, Action::Assemble),
                }
                held = Some(st);
                continue;
            };
            st.reassembly = None;
            let result = self.begin_call(&mut st, rpc.call_seq);
            drop(st);
            witness.record(State::ServerNew, &rpc, Action::Dispatch);
            if here {
                let (exports, now) = (self.exports.read(), Instant::now());
                self.run_here(exports, &rpc, &data, src, &act, result, received_at, now, out);
            } else {
                let call = Assembled::Owned { rpc, data };
                self.enqueue(call, src, Arc::clone(&act), result, received_at);
            }
        }
    }

    /// Answers a call packet of a round already seen, on `out`: a stale
    /// one is dropped; a duplicate of the current call gets the retained
    /// result again (sent at once, with the activity guard released), an
    /// ack that the call is executing, or nothing.
    fn answer_old(
        &self,
        st: MutexGuard<'_, ActState>,
        old: Seen,
        rpc: &RpcHeader,
        src: SocketAddr,
        out: &mut Batch,
    ) {
        let witness = &self.ctx.witness;
        if let Seen::Stale = old {
            // A stale call from a past round.
            drop(st);
            witness.record(State::ServerStale, rpc, Action::DropStale);
            return;
        }
        // Duplicate of the current call (a caller retransmission).
        RpcStats::bump(&self.ctx.stats.duplicate_calls);
        let resent = st.resend(&self.ctx, out, src);
        let executing = st.in_progress;
        drop(st);
        if resent {
            // "the last result packet … must be retained for possible
            // retransmission": answer the duplicate from it —
            // mid-transfer, with the first fragment not acknowledged.
            witness.record(State::ServerDupRetained, rpc, Action::RetransmitResult);
            self.transmit(out);
            RpcStats::bump(&self.ctx.stats.retransmissions);
        } else if executing && rpc.flags.please_ack {
            // The call is executing; tell the caller to stop
            // retransmitting: the ack names the whole call.
            witness.record(State::ServerDupExecuting, rpc, Action::AckExecuting);
            let whole = RpcHeader {
                fragment: rpc.fragment_count.saturating_sub(1),
                ..RpcHeader::ack_for(rpc)
            };
            let _ = self.ctx.encode_ack(out, &whole, src);
        } else {
            // Dropped without answer: still executing (no ack asked),
            // or the result was already delivered and released.
            let state = if executing {
                State::ServerDupExecuting
            } else {
                State::ServerDupReleased
            };
            witness.record(state, rpc, Action::DropDuplicate);
        }
    }

    /// Executes a fresh call on the receiving thread, which has found
    /// it may, under the `exports` it decided by: the call reached its
    /// executing thread without queueing. `started` is where the call's
    /// service-time sample starts: for a single packet, the clock read
    /// that marked its activity used.
    #[allow(clippy::too_many_arguments)]
    fn run_here(
        &self,
        exports: RwLockReadGuard<'_, Exports>,
        rpc: &RpcHeader,
        data: &[u8],
        src: SocketAddr,
        act: &Activity,
        frame: Box<[u8]>,
        received_at: u64,
        started: Instant,
        out: &mut Batch,
    ) {
        RpcStats::bump(&self.ctx.stats.direct_wakeups);
        RpcStats::bump(&self.ctx.stats.inline_calls);
        let span = self.ctx.tracer.server_span(rpc.procedure, received_at);
        self.run(exports, rpc, data, src, act, frame, span, started, false, out);
    }

    /// Marks a new call in progress and takes the previous retained
    /// result out — the arrival of a newer call is its implicit ack
    /// (§3.2) — and with it the activity's result frame, lent to the
    /// thread that executes the call: "the interrupt handler removes the
    /// buffer found in that call table entry", and here the entry's next
    /// result is built in it. The activity's first call makes the frame.
    fn begin_call(&self, st: &mut ActState, seq: u32) -> Box<[u8]> {
        st.last_seq = seq;
        st.in_progress = true;
        st.retained = Retained::None;
        st.frame.take().unwrap_or_else(|| {
            // lint:allow(no-alloc-on-fast-path): once per caller activity,
            // at its first call — again only after an explicit ack freed
            // the frame, or while a superseded execution still has it.
            vec![0; MAX_FRAME_LEN].into_boxed_slice()
        })
    }

    /// Hands a call to the server threads, with the activity's result
    /// frame. An `Ok(true)` from the queue means a parked thread was
    /// woken directly — the paper's direct-handoff fast path; `Ok(false)`
    /// means none was parked and the call waits in the queue (the slow
    /// path). A refusal means `shutdown` ran since `worker_ready` said
    /// yes: nobody will take the call, and it is shed.
    fn enqueue(
        &self,
        call: Assembled,
        src: SocketAddr,
        act: Arc<Activity>,
        frame: Box<[u8]>,
        received_at: u64,
    ) {
        let work = Work {
            call,
            src,
            act,
            frame,
            received_at,
            queued_at: self.ctx.tracer.now_nanos(),
        };
        let counter = match self.queues.offer(work) {
            Ok(true) => &self.ctx.stats.direct_wakeups,
            Ok(false) => &self.ctx.stats.slow_path_queued,
            Err(_) => &self.ctx.stats.calls_shed,
        };
        RpcStats::bump(counter);
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
        let record = |state, action| self.ctx.witness.record(state, rpc, action);
        let Some(act) = self.find(rpc.activity) else {
            record(State::ServerUnknown, Action::DropSilent);
            return;
        };
        let st = act.state.lock();
        if st.last_seq != rpc.call_seq {
            let ack = match &st.reassembly {
                Some((seq, r)) if *seq == rpc.call_seq => Some(crate::fragment::prefix_ack(rpc, r)),
                _ => None,
            };
            drop(st);
            match ack {
                Some(None) => record(State::ServerAssembling, Action::DropSilent),
                Some(Some(ack)) => {
                    record(State::ServerAssembling, Action::AckPrefix);
                    let _ = self.ctx.encode_ack(out, &ack, src);
                }
                None => record(State::ServerUnknown, Action::DropSilent),
            }
            return;
        }
        let resent = st.resend(&self.ctx, out, src);
        let executing = st.in_progress;
        drop(st);
        if resent {
            record(State::ServerRetained, Action::RetransmitResult);
            self.transmit(out);
            RpcStats::bump(&self.ctx.stats.retransmissions);
            RpcStats::bump(&self.ctx.stats.probes_answered);
            return;
        }
        if executing {
            record(State::ServerExecuting, Action::ProbeResponse);
            let response = RpcHeader {
                packet_type: PacketType::ProbeResponse,
                data_len: 0,
                ..*rpc
            };
            let _ = out.encode(&self.ctx.builder_from(&response, src), &[], src);
            RpcStats::bump(&self.ctx.stats.probes_answered);
        } else {
            // Result delivered and released: stay silent (the caller's
            // next call starts a fresh round).
            record(State::ServerReleased, Action::DropSilent);
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
        let record = |state, action| self.ctx.witness.record(state, rpc, action);
        let Some(act) = self.find(rpc.activity) else {
            record(State::ServerUnknown, Action::DropStale);
            return;
        };
        let mut st = act.state.lock();
        if rpc.call_seq != st.last_seq {
            record(State::ServerUnknown, Action::DropStale);
            return;
        }
        if rpc.flags.last_fragment {
            // Explicit ack of the complete result: release retention and
            // the frame with it.
            record(State::ServerKnown, Action::ReleaseRetained);
            st.frame = None;
            if !matches!(std::mem::replace(&mut st.retained, Retained::None), Retained::None) {
                RpcStats::bump(&self.ctx.stats.buffers_recycled);
            }
            return;
        }
        // An ack for a single-packet result is as stale as one of another
        // call: it moves nothing.
        let Retained::Transfer(t) = &mut st.retained else {
            record(State::ServerUnknown, Action::DropStale);
            return;
        };
        match t.window.ack(crate::fragment::held(rpc)) {
            Acked::Open => {
                drop(st);
                record(State::ServerKnown, Action::AdvanceFragment);
                self.send_window(&act, src, out);
            }
            Acked::Hole(index) => {
                // The caller lacks that fragment: again, asking where the
                // next hole is.
                let queued = t.encode(&self.ctx, out, src, index, true).is_ok();
                drop(st);
                record(State::ServerKnown, Action::ResendHole);
                if queued {
                    self.transmit(out);
                    RpcStats::bump(&self.ctx.stats.retransmissions);
                }
            }
            Acked::Stale => record(State::ServerUnknown, Action::DropStale),
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

    /// Hands what `out` holds to the transport, with no lock held. A send
    /// failure is indistinguishable from loss on the wire; the caller's
    /// retransmission recovers either.
    fn transmit(&self, out: &mut Batch) {
        let _ = out.send(&*self.ctx.transport);
    }

    fn worker_loop(self: Arc<Self>) {
        // What the call being executed sends, reused from call to call.
        let mut out = Batch::default();
        // Whether this thread counts as free. A thread just taken does
        // not: the call it was taken for is waiting for it.
        let mut free = false;
        loop {
            // Each call's result goes out when the call ends: nothing
            // waits behind the next item.
            self.transmit(&mut out);
            let work = self.queues.pop(0, &mut VecDeque::new());
            if free {
                self.free.fetch_sub(1, Ordering::Relaxed);
            }
            let Some(work) = work else {
                return;
            };
            let waited = self.ctx.tracer.now_nanos().saturating_sub(work.queued_at);
            note_handoff(&self.handoff_ns, waited);
            free = true;
            self.dispatch(work, &mut out);
        }
    }

    /// The Receiver on a server thread: execute one handed-over call and
    /// queue its result on the thread's batch `out`. The thread counts
    /// as free once the call has executed, before its result goes out:
    /// a caller's next call, which that result may prompt at once, then
    /// finds it free instead of starting another thread.
    fn dispatch(&self, work: Work, out: &mut Batch) {
        let Work {
            call, src, act, frame, received_at, ..
        } = work;
        let rpc = call.rpc();
        // The server half of the latency account: `Received` carries the
        // receive stamp, `Dispatched` is stamped here — the queue wait.
        let span = self.ctx.tracer.server_span(rpc.procedure, received_at);
        // The service-time sample starts here, past the queue wait.
        let started = Instant::now();
        let exports = self.exports.read();
        self.run(exports, rpc, call.data(), src, &act, frame, span, started, true, out);
    }

    /// Executes a call under `exports` and finishes it, with the guard
    /// released before the result goes out. `started` is where the
    /// call's service-time sample starts; `then_free` says a server
    /// thread runs it, counted free once it has executed (see
    /// [`ServerSide::dispatch`]).
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        exports: RwLockReadGuard<'_, Exports>,
        rpc: &RpcHeader,
        data: &[u8],
        src: SocketAddr,
        act: &Activity,
        mut frame: Box<[u8]>,
        mut span: crate::trace::Span<'_>,
        started: Instant,
        then_free: bool,
        out: &mut Batch,
    ) {
        RpcStats::bump(&self.ctx.stats.calls_executed);
        let service = exports.services.get(&rpc.interface_uid);
        let outcome =
            self.execute(&exports, service, rpc, data, src, started, &mut frame, &mut span, out);
        drop(exports);
        if then_free {
            self.free.fetch_add(1, Ordering::Relaxed);
        }
        self.finish(rpc, src, act, span, outcome, frame, out);
    }

    /// Ends a call's execution: closes its trace record, retains what
    /// was sent — a failure's result encoded into the activity's result
    /// `frame` and queued on `out` first, like any one-packet result —
    /// and hands the activity its frame back, or starts what is still to
    /// send. A single-packet result is out and its record complete; a
    /// multi-packet one took the record along (`Span::detach`): it ends
    /// where the last fragment is sent. A call superseded while it
    /// executed retains nothing, and gives the frame back only to an
    /// activity that has none.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        rpc: &RpcHeader,
        src: SocketAddr,
        act: &Activity,
        span: crate::trace::Span<'_>,
        outcome: Result<Retained>,
        mut frame: Box<[u8]>,
        out: &mut Batch,
    ) {
        let retained = match outcome {
            Ok(retained) => {
                if span.finish() {
                    RpcStats::bump(&self.ctx.stats.trace_records);
                }
                retained
            }
            Err(e) => {
                // Call-failed flag, message as data. `result_for` resets
                // the flag word to the single-packet shape: spelling the
                // header as `..rpc` used to leak the call's please-ack
                // bit into the error result.
                let msg = e.to_string();
                let len = msg.len().min(MAX_SINGLE_PACKET_DATA);
                let data = frame.get_mut(DATA_OFFSET..DATA_OFFSET + len);
                if let (Some(data), Some(msg)) = (data, msg.as_bytes().get(..len)) {
                    data.copy_from_slice(msg);
                }
                let header = RpcHeader::result_for(rpc, len);
                let builder = self.ctx.builder_from(&header, src).call_failed(true);
                let queued = self.queue_frame(&builder, &mut frame, len, src, out);
                queued.unwrap_or(Retained::None)
            }
        };
        let mut st = act.state.lock();
        if st.last_seq != rpc.call_seq {
            // A newer call superseded us while executing; discard.
            st.frame.get_or_insert(frame);
            return;
        }
        st.in_progress = false;
        let transfer = matches!(retained, Retained::Transfer(_));
        st.retained = retained;
        st.frame = Some(frame);
        drop(st);
        if transfer {
            // The first window goes out only now, with the transfer where
            // the receiver will look for it: an ack may arrive on another
            // thread before `send` returns.
            self.send_window(act, src, out);
        }
    }

    /// Puts the headers `builder` makes around the `len` data bytes
    /// marshalled in `frame` and queues a copy of the frame on the
    /// executing thread's batch `out`, which the thread sends when the
    /// call ends (the resident receiver, at the end of its burst); the
    /// frame's first bytes are then the retained result.
    fn queue_frame(
        &self,
        builder: &FrameBuilder,
        frame: &mut [u8],
        len: usize,
        src: SocketAddr,
        out: &mut Batch,
    ) -> Result<Retained> {
        let total = builder.encode_into(frame, len)?;
        out.push(&frame[..total], src);
        Ok(Retained::Frame(total))
    }

    /// Runs the stub + service on the call's `data`, marshalling the
    /// result straight into the activity's result `frame`, and hands back
    /// the result: a single packet already queued for transmission, or a
    /// [`Transfer`] for [`ServerSide::finish`] to start. `service` is
    /// the call's interface as `exports` has it, looked up once by the
    /// thread that runs the call; `started` is where its service-time
    /// sample starts.
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &self,
        exports: &Exports,
        service: Option<&ServiceEntry>,
        rpc: &RpcHeader,
        data: &[u8],
        src: SocketAddr,
        started: Instant,
        frame: &mut [u8],
        span: &mut crate::trace::Span<'_>,
        out: &mut Batch,
    ) -> Result<Retained> {
        // The authorization hook runs after duplicate filtering, before
        // any service code (§7's "structural hooks").
        if let Some(gate) = exports.gate.as_ref() {
            gate.authorize(rpc.activity, rpc.interface_uid, rpc.procedure)
                .map_err(|reason| RpcError::Remote(format!("call refused: {reason}")))?;
        }
        let entry = service.ok_or_else(|| {
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
        let args = stub.unmarshal_call(data)?;

        // Marshal the result straight into the result frame; large
        // results spill to the heap transparently.
        let mut writer = stub.result_writer(frame.get_mut(DATA_OFFSET..).unwrap_or_default());
        // A procedure that panics fails its own call: unwinding further
        // would end the receiver (the endpoint goes deaf) or the server
        // thread (the call stays in progress for ever). What it half
        // wrote is dropped with `writer`.
        let dispatched = panic::catch_unwind(AssertUnwindSafe(|| {
            entry.service.dispatch(rpc.procedure, &args, &mut writer)
        }));
        dispatched.map_err(|payload| procedure_panicked(&*payload))??;
        let written = writer.finish()?;
        drop(args);
        if let Some(estimate) = entry.service_ns.get(rpc.procedure as usize) {
            note_service_time(estimate, started.elapsed().as_nanos() as u64);
        }
        span.stamp(Stamp::StubDone);

        let header = RpcHeader::result_for(rpc, written.len());
        match written {
            Written::InPlace { len } => {
                // Single packet: headers in place around the data, queued,
                // and the frame retained — no per-call list around it.
                let builder = self.ctx.builder_from(&header, src);
                let retained = self.queue_frame(&builder, frame, len, src, out)?;
                span.stamp(Stamp::ResultSent);
                Ok(retained)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackNet;
    use std::collections::HashSet;
    use std::hash::BuildHasher;
    use std::sync::mpsc;

    fn server() -> Arc<ServerSide> {
        let station = LoopbackNet::new().station(1);
        let stats = Arc::new(RpcStats::default());
        let ctx = SendCtx::new(station, stats, 0);
        ServerSide::new(Arc::new(ctx), 1)
    }

    /// A server exporting `Gate.Wait()`, which returns once a message
    /// comes on the returned sender; and the frame of call `seq` of it
    /// from one activity, asking for an ack.
    fn gated_server() -> (Arc<ServerSide>, mpsc::Sender<()>, impl Fn(u32) -> Vec<u8>) {
        let iface = firefly_idl::parse_interface(
            "DEFINITION MODULE Gate; PROCEDURE Wait(); END Gate.",
        )
        .unwrap();
        let (open, gate) = mpsc::channel();
        let gate = Mutex::new(gate);
        let service = crate::ServiceBuilder::new(iface.clone())
            .on_call("Wait", move |_args, _w| {
                let _ = gate.lock().recv();
                Ok(())
            })
            .build()
            .unwrap();
        let server = server();
        server.export(service).unwrap();
        let call = move |seq| {
            firefly_wire::FrameBuilder::new(PacketType::Call)
                .activity(ActivityId::new(5, 1, 2))
                .call_seq(seq)
                .interface(iface.uid(), iface.version())
                .procedure(0)
                .please_ack(true)
                .build(&[])
                .unwrap()
                .into_bytes()
        };
        (server, open, call)
    }

    #[test]
    fn a_call_dropped_for_want_of_a_buffer_is_not_received() {
        let server = server();
        // Every pool buffer is out.
        let _held: Vec<_> = (0..POOL_SIZE).map(|_| server.pool.alloc().unwrap()).collect();
        let frame = firefly_wire::FrameBuilder::new(PacketType::Call)
            .activity(ActivityId::new(5, 1, 2))
            .call_seq(1)
            .build(&[])
            .unwrap()
            .into_bytes();
        let view = FrameView::parse(&frame).unwrap();
        let src = "10.0.0.2:3072".parse().unwrap();
        let mut out = Batch::default();
        // A caller thread holding the receive role, then the resident:
        // the procedure is unmeasured, so either hands it to a worker.
        for (shed, inline) in [(1, false), (2, true)] {
            server.handle_call(&view, &frame, src, &mut out, inline);
            assert_eq!(server.ctx.stats.calls_shed(), shed);
            assert_eq!(server.ctx.stats.calls_received(), 0);
            assert_eq!(server.activity_count(), 0, "the shed call made an activity");
            assert!(out.is_empty(), "the shed call was answered");
        }
        assert_eq!(server.ctx.stats.workers_started(), 0, "a thread started for a shed call");
    }

    #[test]
    fn a_call_handed_off_after_shutdown_is_shed() {
        let server = server();
        server.shutdown();
        let src = "10.0.0.2:3072".parse().unwrap();
        let mut out = Batch::default();
        let call = |fragment, count| {
            firefly_wire::FrameBuilder::new(PacketType::Call)
                .activity(ActivityId::new(5, 1, 2))
                .call_seq(1)
                .fragment(fragment, count)
                .build(&[0; 8])
                .unwrap()
                .into_bytes()
        };
        // A single packet, then a run of two fragments: with no server
        // thread to take them, and none to be started, both are shed.
        let single = call(0, 1);
        server.handle_call(&FrameView::parse(&single).unwrap(), &single, src, &mut out, true);
        let frames = [call(0, 2), call(1, 2)];
        let views: Vec<_> = frames.iter().map(|f| FrameView::parse(f).unwrap()).collect();
        let run: Vec<_> = views.iter().map(|v| Fragment::of(v).unwrap()).collect();
        server.handle_call_fragments(&run, src, &mut out, true);
        let stats = &server.ctx.stats;
        assert_eq!((stats.calls_shed(), stats.calls_received()), (3, 0));
        assert_eq!(server.activity_count(), 0, "a shed call made an activity");
        assert_eq!(stats.workers_started(), 0);
        assert!(server.queues.is_empty(), "a call was queued for nobody");
        assert_eq!(server.pool.stats().outstanding(), 0);
        assert!(out.is_empty(), "a shed call was answered");
    }

    /// `shutdown` may run between `worker_ready`'s yes and the hand-off:
    /// the queue then refuses the call, which counts as shed, not queued.
    #[test]
    fn a_call_the_closed_queue_refuses_is_shed() {
        let server = server();
        let frame = firefly_wire::FrameBuilder::new(PacketType::Call)
            .activity(ActivityId::new(5, 1, 2))
            .call_seq(1)
            .build(&[0; 8])
            .unwrap()
            .into_bytes();
        let view = FrameView::parse(&frame).unwrap();
        let mut buf = server.pool.alloc().unwrap();
        buf.fill_from(&frame);
        let call = Assembled::Single(Packet::validated(buf, view.rpc, view.data.len()));
        let act = server.activity(view.rpc.activity);
        server.shutdown();
        let src = "10.0.0.2:3072".parse().unwrap();
        server.enqueue(call, src, act, vec![0; MAX_FRAME_LEN].into_boxed_slice(), 0);
        let stats = &server.ctx.stats;
        assert_eq!(stats.calls_shed(), 1);
        assert_eq!((stats.slow_path_queued(), stats.direct_wakeups()), (0, 0));
        assert!(server.queues.is_empty());
        assert_eq!(server.pool.stats().outstanding(), 0, "the refused call kept its buffer");
    }

    #[test]
    fn a_dry_pool_still_answers_a_call_already_seen() {
        let (server, open, call) = gated_server();
        let frame = call(1);
        let view = FrameView::parse(&frame).unwrap();
        let src = "10.0.0.2:3072".parse().unwrap();
        let mut out = Batch::default();
        // Every call comes to a caller thread holding the receive role,
        // which runs none itself: `Wait` may come to look fast enough for
        // the resident, and would block it.
        // Handed to a server thread, started for it, with one buffer,
        // which it keeps while the procedure waits; then every other
        // buffer is out.
        server.handle_call(&view, &frame, src, &mut out, false);
        let stats = &server.ctx.stats;
        assert_eq!(stats.workers_started(), 1);
        let _held: Vec<_> = std::iter::from_fn(|| server.pool.alloc().ok()).collect();
        // A retransmission while it runs is acked as executing.
        server.handle_call(&view, &frame, src, &mut out, false);
        assert_eq!(out.len(), 1, "the executing call's duplicate was not acked");
        assert_eq!(stats.duplicate_calls(), 1);
        // Let it finish; then the buffer it held is out too.
        open.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let _last = loop {
            match server.pool.alloc() {
                Ok(buf) => break buf,
                Err(_) => assert!(Instant::now() < deadline, "the call never ended"),
            }
            std::thread::yield_now();
        };
        assert_eq!(stats.calls_executed(), 1);
        // A retransmission now gets the retained result again.
        server.handle_call(&view, &frame, src, &mut out, false);
        assert_eq!(stats.duplicate_calls(), 2);
        assert_eq!(stats.retransmissions(), 1, "the retained result was not resent");
        // A new call of the activity is shed, and leaves it as it was.
        let next = call(2);
        server.handle_call(&FrameView::parse(&next).unwrap(), &next, src, &mut out, false);
        assert_eq!(stats.calls_shed(), 1);
        assert_eq!(stats.calls_received(), 3);
        server.handle_call(&view, &frame, src, &mut out, false);
        assert_eq!(stats.retransmissions(), 2, "the shed call moved the activity on");
        assert_eq!(stats.workers_started(), 1);
        server.shutdown();
    }

    #[test]
    fn ids_differing_only_in_the_top_machine_bits_spread_over_buckets() {
        // A hash table takes the bucket from a hash's low bits, and the
        // machine number comes off the wire: ids a peer forges by varying
        // only its top bits must not share one probe sequence.
        let server = server();
        let table = server.activities.lock();
        let low: HashSet<u64> = (0..256u32)
            .map(|top| activity_key(ActivityId::new(top << 24 | 7, 1, 1)))
            .map(|key| table.hasher().hash_one(key) & 0xffff)
            .collect();
        // 256 random 16-bit values collide about once in expectation.
        assert!(low.len() >= 250, "{} distinct low 16 bits of 256", low.len());
    }
}
