//! Endpoints: one transport, one call table, one receive role.
//!
//! An `Endpoint` is this reproduction's Firefly: it can export services
//! (server role) and bind clients (caller role) simultaneously over one
//! transport. The kernel's socket wake-up is the Ethernet receive
//! interrupt of §3.1.3, and whichever thread holds the endpoint's
//! receive role ([`crate::role`]) runs the interrupt routine's work —
//! validate headers and the UDP checksum, consult the call table or the
//! server dispatcher — through the one `process_datagram` below. That
//! thread is the waiting caller itself when it can be, and otherwise the
//! resident receiver (`demux_loop`), which also executes measured-short
//! calls to completion instead of waking a worker for them. It never
//! waits for a buffer: a new call bound for a worker that finds the
//! server's pool dry is shed like a lost packet. Every frame it answers with — a
//! result, an ack, a probe response — is queued on its batch and goes
//! to the transport with it.

use crate::calltable::{CallEntry, Delivered, ShardedCallTable, Wait, SHARDS};
use crate::client::Client;
use crate::config::Config;
use crate::local::LocalClient;
use crate::packet::{Fragment, MAX_RUN};
use crate::reservoir::{Running, RECEIVERS};
use crate::role::{Polled, ReceiveRole};
use crate::send::{Batch, SendCtx};
use crate::server::ServerSide;
use crate::service::Service;
use crate::stats::RpcStats;
use crate::transport::{Transport, MAX_DATAGRAM_LEN};
use crate::{Result, RpcError};
use firefly_idl::InterfaceDef;
use firefly_pool::BufferPool;
use firefly_wire::{coalesced_frame_len, ActivityId, FrameView, PacketType, RpcHeader};
use firefly_sync::Mutex;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// State shared between an endpoint, its clients, and its resident
/// receiver.
pub(crate) struct EndpointShared {
    pub ctx: Arc<SendCtx>,
    pub calls: ShardedCallTable,
    pub server: Arc<ServerSide>,
    pub role: ReceiveRole,
    pub config: Config,
    /// The machine and address space every activity minted here names.
    pub machine_id: u32,
    pub space: u16,
    /// Endpoint-wide activity thread-id allocator: activities must be
    /// unique across every client bound through this endpoint.
    pub next_thread: std::sync::atomic::AtomicU16,
}

/// The address space of an endpoint's activities: the wall clock's
/// nanoseconds, the endpoint's address and a process-wide count of
/// endpoints, hashed to a non-zero `u16`. A caller re-created at the same
/// address thus names new activities, whose restarted sequence numbers
/// the server does not take for stale ones (docs/PROTOCOL.md, "RPC header").
fn space_nonce(addr: &SocketAddr) -> u16 {
    use std::hash::{DefaultHasher, Hash, Hasher};
    static ENDPOINTS: AtomicU64 = AtomicU64::new(0);
    let mut h = DefaultHasher::new();
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
        .hash(&mut h);
    addr.hash(&mut h);
    ENDPOINTS.fetch_add(1, Ordering::Relaxed).hash(&mut h);
    (h.finish() as u16).max(1)
}

/// A caller/server endpoint bound to one transport.
///
/// It runs one thread from the start, the resident receiver; its server
/// threads join on demand, when a new call is handed off and every one
/// taken is busy, up to `Config::server_threads`. Each is one of the
/// process's idle RPC threads of its kind when one is waiting, and a new
/// thread only when none is; at shutdown each goes back idle
/// (docs/SHARDING.md, "The threads an endpoint runs").
pub struct Endpoint {
    shared: Arc<EndpointShared>,
    demux: Mutex<Option<Running>>,
}

impl Endpoint {
    /// Creates an endpoint over `transport` and starts its resident
    /// receiver, on an idle `firefly-demux` thread when the process has
    /// one (a wake) and on a new thread otherwise. No server thread, pool
    /// slab or trace ring slot is taken before something uses it.
    pub fn new(transport: Arc<dyn Transport>, config: Config) -> Result<Arc<Endpoint>> {
        // lint:allow(no-alloc-on-fast-path): once per endpoint.
        let stats = Arc::new(RpcStats::default());
        // lint:allow(no-alloc-on-fast-path): once per endpoint.
        let ctx = Arc::new(SendCtx::new(transport, Arc::clone(&stats), config.trace_capacity));
        ctx.tracer.set_enabled(config.trace);
        // A stable nonzero machine id from the transport address.
        let addr = ctx.transport.local_addr();
        let mac = crate::send::mac_for(&addr).0;
        let machine_id = u32::from_be_bytes([mac[2], mac[3], mac[4], mac[5]]) | 1;
        let server = ServerSide::new(Arc::clone(&ctx), config.server_threads);
        // Every endpoint exports the built-in binder, so callers can
        // verify interfaces before their first real call.
        // lint:allow(no-alloc-on-fast-path): once per endpoint.
        server.export(Arc::new(crate::binder::Binder::new(&server)))?;
        let calls = ShardedCallTable::new(SHARDS);
        // lint:allow(no-alloc-on-fast-path): once per endpoint.
        let shared = Arc::new(EndpointShared {
            ctx,
            role: ReceiveRole::new(calls.parked_counter()),
            calls,
            server,
            machine_id,
            space: space_nonce(&addr),
            config,
            next_thread: std::sync::atomic::AtomicU16::new(1),
        });

        // lint:allow(no-alloc-on-fast-path): once per endpoint.
        let endpoint = Arc::new(Endpoint {
            shared: Arc::clone(&shared),
            demux: Mutex::new(None),
        });
        let demux = {
            let shared = Arc::clone(&shared);
            RECEIVERS.run(move || demux_loop(shared))?
        };
        *endpoint.demux.lock() = Some(demux);
        Ok(endpoint)
    }

    /// The address remote endpoints should bind to.
    pub fn address(&self) -> SocketAddr {
        self.shared.ctx.transport.local_addr()
    }

    /// Exports a service (server role).
    pub fn export(&self, service: Arc<dyn Service>) -> Result<()> {
        self.shared.server.export(service)
    }

    /// Binds `interface` at the remote endpoint, returning a caller stub.
    ///
    /// The returned [`Client`] uses the endpoint's transport — the
    /// bind-time transport choice of §3.1.
    pub fn bind(&self, interface: &InterfaceDef, remote: SocketAddr) -> Result<Client> {
        Ok(Client::new(
            Arc::clone(&self.shared),
            // lint:allow(no-alloc-on-fast-path): an `InterfaceDef` clone
            // shares everything, its stubs included, and allocates nothing.
            interface.clone(),
            remote,
        ))
    }

    /// Binds `interface` at the remote endpoint after verifying through
    /// the remote binder that it is exported there with a matching UID
    /// and version.
    ///
    /// This is the explicit version of §3.1.1's precondition, "assuming
    /// that binding to a suitable remote instance of the interface has
    /// already occurred".
    pub fn bind_checked(&self, interface: &InterfaceDef, remote: SocketAddr) -> Result<Client> {
        use firefly_idl::Value;
        let binder = self.bind(crate::binder::binder_interface(), remote)?;
        let r = binder.call(
            "Describe",
            // lint:allow(no-alloc-on-fast-path): binder handshake runs
            // once per bind, before any call traffic.
            &[Value::text(interface.name()), Value::Bytes(Vec::new())],
        )?;
        let uid_hex = String::from_utf8_lossy(r[0].as_bytes().unwrap_or(&[])).into_owned();
        let version = r[1].as_integer().unwrap_or(-1);
        if uid_hex != crate::binder::uid_hex(interface.uid()) {
            return Err(RpcError::Binding(format!(
                "remote `{}` has uid {uid_hex}, local definition has {} — \
                 the interface signatures differ",
                interface.name(),
                crate::binder::uid_hex(interface.uid())
            )));
        }
        if version != i32::from(interface.version()) {
            return Err(RpcError::Binding(format!(
                "remote `{}` is version {version}, local is {}",
                interface.name(),
                interface.version()
            )));
        }
        self.bind(interface, remote)
    }

    /// Binds an interface exported by **this** endpoint through the
    /// shared-memory local transport (the paper's same-machine RPC).
    pub fn bind_local(&self, interface: &InterfaceDef) -> Result<LocalClient> {
        let service = self.shared.server.service_for(interface.uid()).ok_or_else(|| {
            RpcError::Binding(format!(
                "interface `{}` is not exported locally",
                interface.name()
            ))
        })?;
        // A local call takes no pool buffer: it marshals through frames
        // the calling thread keeps (local.rs), so the client needs no
        // pool handle.
        // lint:allow(no-alloc-on-fast-path): an `InterfaceDef` clone
        // shares everything, its stubs included, and allocates nothing.
        Ok(LocalClient::new(interface.clone(), service))
    }

    /// Reclaims server-side state for caller activities idle longer than
    /// `max_idle`; returns how many were dropped. The paper keeps
    /// fast-path state only for conversations active "within a few
    /// seconds" (§3.1).
    pub fn prune_idle_activities(&self, max_idle: Duration) -> usize {
        self.shared.server.prune_idle(max_idle)
    }

    /// Number of caller activities currently tracked by the server side.
    pub fn tracked_activities(&self) -> usize {
        self.shared.server.activity_count()
    }

    /// Number of call-table entries the caller side holds: one per
    /// activity slot of a live client, each reused by every call the
    /// slot makes.
    pub fn call_entries(&self) -> usize {
        self.shared.calls.entries()
    }

    /// Installs an authorization gate consulted for every incoming call
    /// (`None` clears it). See [`crate::auth::CallGate`].
    pub fn set_call_gate(&self, gate: Option<Arc<dyn crate::auth::CallGate>>) {
        self.shared.server.set_gate(gate);
    }

    /// Runtime counters.
    pub fn stats(&self) -> &RpcStats {
        &self.shared.ctx.stats
    }

    /// The per-call step tracer — the live Table VII latency account.
    pub fn tracer(&self) -> &crate::trace::Tracer {
        &self.shared.ctx.tracer
    }

    /// Turns per-call step tracing on or off at runtime. Pure
    /// observability: protocol behaviour and results are unaffected.
    pub fn set_tracing(&self, on: bool) {
        self.shared.ctx.tracer.set_enabled(on);
    }

    /// Drains the completed-trace ring and aggregates per-step latency
    /// histograms for both the caller and server roles of this endpoint.
    pub fn trace_report(&self) -> crate::trace::TraceReport {
        self.shared.ctx.tracer.report()
    }

    /// The server's packet-buffer pool: it carries only the
    /// single-packet calls handed to server threads.
    pub fn pool(&self) -> &BufferPool {
        self.shared.server.pool()
    }

    /// The distinct protocol.toml transition rows this endpoint has
    /// taken so far, in table order, across its server demux
    /// (send-context witness) and its call table, followed by the first
    /// tuple each recorded that is no spec row, rendered like one. This
    /// is what `firefly-check`'s wire scenario reads for the protocol
    /// coverage gate.
    pub fn protocol_transitions(&self) -> Vec<String> {
        let witnesses = [&self.shared.ctx.witness, self.shared.calls.witness()];
        crate::witness::ProtocolWitness::union(&witnesses)
    }

    /// The server's current estimate of how long procedure `procedure`
    /// of the exported interface `interface_uid` keeps a thread busy
    /// (gate, stub and service code), or `None` while it has no sample.
    /// Together with [`Endpoint::handoff_estimate`] this is the whole
    /// input of the inline-execution decision (docs/SHARDING.md, "Who
    /// receives").
    pub fn service_time_estimate(&self, interface_uid: u64, procedure: u16) -> Option<Duration> {
        self.shared.server.service_time_estimate(interface_uid, procedure)
    }

    /// The server's estimate of what handing a call to a worker costs
    /// here (enqueue to worker pick-up), measured on the calls that do
    /// go through the queues; `None` before the first one.
    pub fn handoff_estimate(&self) -> Option<Duration> {
        self.shared.server.handoff_estimate()
    }

    /// Stops the receiver and every server thread taken, and unblocks
    /// the transport. It returns once their loops have ended and dropped
    /// what they held of the endpoint; the threads go back idle.
    pub fn shutdown(&self) {
        self.shared.ctx.transport.shutdown();
        self.shared.role.shutdown();
        // Waits for the server threads' loops; from here on a call
        // handed off is shed.
        self.shared.server.shutdown();
        // Take the handle out under the guard, wait after it drops:
        // waiting for a loop that is itself draining the transport while
        // holding this mutex would deadlock against `Drop` callers.
        let demux = self.demux.lock().take();
        if let Some(demux) = demux {
            demux.wait();
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What a thread owns so that it can hold the receive role: a buffer any
/// datagram fits in — where every frame is validated and read: a result
/// or a result fragment is copied from there into its call entry, a call
/// the resident runs itself is read in place, and only a call handed to
/// a server thread is copied into a pool buffer — and the batch it sends
/// every frame it answers with through (the results it executes, a
/// result window an ack opens, a fragment sent again, the acks and probe
/// responses it owes). The resident receiver allocates its own when it starts;
/// a caller's lives in its activity slot, so every call the activity
/// makes reuses it, and a call that service code makes on the resident,
/// which receives for itself, brings its own instead of overwriting the
/// datagram the resident is in the middle of.
pub(crate) struct RoleBuffers {
    datagram: Box<[u8]>,
    /// Also where a caller encodes the windows of its own multi-packet
    /// calls, its probes and its acks, between its waits.
    pub out: Batch,
}

impl RoleBuffers {
    pub fn new() -> RoleBuffers {
        RoleBuffers {
            // lint:allow(no-alloc-on-fast-path): once per resident
            // receiver and per activity slot, then reused for every
            // datagram they receive.
            datagram: vec![0; MAX_DATAGRAM_LEN].into_boxed_slice(),
            out: Batch::default(),
        }
    }
}

/// What the thread holding the receive role carries from datagram to
/// datagram.
struct Receiving<'a> {
    out: &'a mut Batch,
    /// Whether this is the resident receiver, which executes
    /// measured-short calls itself; every call a caller thread holding
    /// the role receives goes to the workers.
    resident: bool,
    /// The call entry of the waiting caller that is doing the receiving;
    /// a packet for it is delivered there directly and needs no wake-up.
    own: Option<&'a CallEntry>,
}

impl<'a> Receiving<'a> {
    /// The receiving thread's own entry, if the packet `rpc` heads is
    /// for it.
    fn owns(&self, rpc: &RpcHeader) -> Option<&'a CallEntry> {
        self.own.filter(|entry| entry.activity() == rpc.activity)
    }
}

/// Nonblocking receive attempts (each yielding the processor) the
/// holder of the receive role makes before giving up polling: the
/// resident receiver then blocks in `recv`, a waiting caller hands the
/// role to the resident and parks on its call entry.
const POLLS_BEFORE_BLOCK: usize = 32;

/// Upper bound on the extra datagrams the resident receiver drains with
/// nonblocking receives after each blocking receive, amortizing wakeups
/// and syscalls across a burst.
pub const RECV_BATCH: usize = 16;

impl EndpointShared {
    /// Waits on a call entry — the caller half of the receive role.
    ///
    /// When the role is free this thread takes it and receives for the
    /// whole endpoint until its own packet arrives: that packet then
    /// completes the entry with no condvar signal, other activities'
    /// packets are delivered and woken as the resident receiver would,
    /// and incoming calls go to the server workers. What it answers with
    /// goes out after each datagram. When the role is
    /// taken, or [`POLLS_BEFORE_BLOCK`] attempts found nothing, it
    /// parks on the entry.
    pub fn wait_on(&self, entry: &CallEntry, deadline: Instant, bufs: &mut RoleBuffers) -> Wait {
        let RoleBuffers { datagram, out } = bufs;
        let mut rx = Receiving {
            out,
            resident: false,
            own: Some(entry),
        };
        self.role.wait_receiving(entry, deadline, POLLS_BEFORE_BLOCK, || {
            match self.ctx.transport.try_recv(datagram) {
                Ok(Some((n, src))) => {
                    process_datagram(self, &mut rx, &datagram[..n], src);
                    // A send failure is loss on the wire; the timers
                    // recover it.
                    let _ = rx.out.send(&*self.ctx.transport);
                    Polled::Datagram
                }
                Ok(None) => Polled::Empty,
                Err(_) => Polled::Closed,
            }
        })
    }
}

/// The resident receiver's loop.
///
/// It holds the receive role whenever no caller does and is the only
/// thread that blocks in `recv`. Batching: the first datagram of a burst
/// is taken by polling or a blocking receive; up to [`RECV_BATCH`]
/// more are then drained with nonblocking receives, so one wakeup (and,
/// over UDP, one blocking-mode transition) serves the whole burst. The
/// result of the first datagram's inline calls is sent at once — a lone
/// caller never waits for a batch — and the rest of the burst's results
/// go out packed when the drain ends. It takes a pool buffer only for a
/// call it hands to a server thread, and never waits for one.
fn demux_loop(shared: Arc<EndpointShared>) {
    let stats = &shared.ctx.stats;
    let transport = &*shared.ctx.transport;
    let RoleBuffers { mut datagram, mut out } = RoleBuffers::new();
    let mut rx = Receiving {
        out: &mut out,
        resident: true,
        own: None,
    };
    shared.role.adopt_resident();
    loop {
        // Cooperative poll before the blocking receive: during a steady
        // call stream the next datagram arrives within a few yields
        // (the sender is runnable on this very machine in tests and
        // benchmarks), and catching it nonblocking saves the sender the
        // futex wake and this thread the scheduler round trip. The
        // budget is small enough to cost only a bounded handful of
        // no-op syscalls before an idle endpoint genuinely parks.
        let mut polled = None;
        for _ in 0..POLLS_BEFORE_BLOCK {
            // A waiting caller asked for the role and every caller is
            // awake: let the thread that waits be the thread that
            // receives, and stay out of its way until it stops.
            if shared.role.should_cede() {
                RpcStats::bump(&stats.role_handovers);
                if !shared.role.cede() {
                    return; // Shutdown.
                }
                RpcStats::bump(&stats.role_handovers);
            }
            match transport.try_recv(&mut datagram) {
                Ok(Some(x)) => {
                    polled = Some(x);
                    break;
                }
                Ok(None) => std::thread::yield_now(),
                Err(_) => return, // Shutdown.
            }
        }
        let (n, src) = match polled {
            Some(x) => x,
            None => match transport.recv(&mut datagram) {
                Ok(x) => x,
                Err(_) => return, // Shutdown.
            },
        };
        process_datagram(&shared, &mut rx, &datagram[..n], src);
        // A send failure is loss on the wire; the callers' timers
        // recover it.
        let _ = rx.out.send(transport);
        let mut drained = 0;
        while drained < RECV_BATCH {
            match transport.try_recv(&mut datagram) {
                Ok(Some((n, src))) => {
                    process_datagram(&shared, &mut rx, &datagram[..n], src);
                    drained += 1;
                }
                Ok(None) => break,
                Err(_) => return, // Shutdown.
            }
        }
        let _ = rx.out.send(transport);
    }
}

/// Processes the frames of one received datagram, each in turn and in
/// wire order, so replies within one activity are never reordered.
///
/// The sending transport may pack several complete frames back to back
/// into one datagram ([`Transport::send_batch`]) — a window of a
/// transfer, or results for several callers; each frame's IP
/// total-length field gives its boundary. Every frame is validated where
/// it landed ([`FrameView::parse`]: every check, once), and read there.
/// Each run of consecutive fragments of one transfer goes to the server
/// or the call table as a unit, and reassembly copies its data once, into
/// the body; a single-packet result's data is copied once, into its call
/// entry's result frame; an ack or a probe is its header. Only a
/// single-packet call that goes to a server thread is copied into a pool
/// buffer, since it must outlive the datagram — or shed, when none is
/// free, without holding up the frames after it.
fn process_datagram(shared: &EndpointShared, rx: &mut Receiving, datagram: &[u8], src: SocketAddr) {
    let stats = &shared.ctx.stats;
    let mut rest = datagram;
    let mut first: Option<ActivityId> = None;
    let mut run: Option<Run<'_>> = None;
    while !rest.is_empty() {
        let Some(len) = coalesced_frame_len(rest) else {
            // Shorter than any frame, an implausible length field, or a
            // truncated pack: without a boundary there is nothing more
            // to walk.
            RpcStats::bump(&stats.validation_drops);
            break;
        };
        let (frame, tail) = rest.split_at(len);
        rest = tail;
        let view = match FrameView::parse(frame) {
            Ok(view) => view,
            Err(e) => {
                // A garbage packet-type byte is counted apart from other
                // validation failures: it is the shape a version-skewed
                // or hostile peer produces, and the chaos garbage-frame
                // mix asserts it never errors the demux loop.
                match e {
                    firefly_wire::WireError::BadPacketType(_) => {
                        RpcStats::bump(&stats.unknown_type_drops);
                    }
                    _ => RpcStats::bump(&stats.validation_drops),
                }
                continue;
            }
        };
        // Frames for more than one activity mean batched peer traffic:
        // several local threads are being woken at once, so arm the
        // send-side combining window. The first of them is woken before
        // this, but it is not running yet; a caller receiving for itself
        // goes on to the end of the datagram before it sends again.
        match first {
            None => first = Some(view.rpc.activity),
            Some(a) if a != view.rpc.activity => shared.ctx.note_batched_delivery(),
            Some(_) => {}
        }
        if let Some(fragment) = Fragment::of(&view) {
            // Another transfer's fragment, or one past a full run, starts
            // a run of its own; the run so far goes first.
            if !run.as_mut().is_some_and(|r| r.push(fragment)) {
                if let Some(done) = run.replace(Run::new(fragment)) {
                    hand_over(shared, rx, done.frames(), src);
                }
            }
            continue;
        }
        if let Some(done) = run.take() {
            hand_over(shared, rx, done.frames(), src);
        }
        process_frame(shared, rx, &view, frame, src);
    }
    if let Some(done) = run {
        hand_over(shared, rx, done.frames(), src);
    }
}

/// Consecutive fragments of one transfer in the datagram being processed,
/// up to [`MAX_RUN`] of them.
struct Run<'d> {
    frames: [Fragment<'d>; MAX_RUN],
    len: usize,
}

impl<'d> Run<'d> {
    fn new(first: Fragment<'d>) -> Run<'d> {
        Run {
            frames: [first; MAX_RUN],
            len: 1,
        }
    }

    /// Adds `next` if it is of the run's transfer and there is room.
    fn push(&mut self, next: Fragment<'d>) -> bool {
        let same = self.frames[0].same_transfer(&next);
        match self.frames.get_mut(self.len) {
            Some(slot) if same => {
                *slot = next;
                self.len += 1;
                true
            }
            _ => false,
        }
    }

    fn frames(&self) -> &[Fragment<'d>] {
        &self.frames[..self.len]
    }
}

/// Hands a run of fragments of one transfer to the side it is for: a
/// call's to the server, a result's to the call table — which tells,
/// fragment by fragment, what each became, for the counters and the acks
/// the sender asked for (queued on the receiving thread's batch).
fn hand_over(shared: &EndpointShared, rx: &mut Receiving, run: &[Fragment<'_>], src: SocketAddr) {
    let Some(first) = run.first() else {
        return;
    };
    if first.rpc.packet_type == PacketType::Call {
        shared.server.handle_call_fragments(run, src, rx.out, rx.resident);
        return;
    }
    let stats = &shared.ctx.stats;
    let own = rx.owns(&first.rpc);
    let out = &mut *rx.out;
    shared.calls.deliver_fragments(run, own, |delivered| match delivered {
        Delivered::Orphan => RpcStats::bump(&stats.orphan_results),
        Delivered::Accepted => count_result(stats, own.is_some()),
        Delivered::AcceptedNeedsAck(ack) => {
            count_result(stats, own.is_some());
            let _ = shared.ctx.encode_ack(out, &ack, src);
        }
    });
}

/// Counts a result packet or fragment the call table took:
/// `results_received = self_received_results + result_wakeups` — one the
/// waiting thread received itself woke nobody.
fn count_result(stats: &RpcStats, own: bool) {
    RpcStats::bump(&stats.results_received);
    if own {
        RpcStats::bump(&stats.self_received_results);
    } else {
        RpcStats::bump(&stats.direct_wakeups);
        RpcStats::bump(&stats.result_wakeups);
    }
}

/// Demultiplexes one frame validated where it landed — routing, direct
/// wakeup (§3.1.3).
fn process_frame(
    shared: &EndpointShared,
    rx: &mut Receiving,
    view: &FrameView<'_>,
    frame: &[u8],
    src: SocketAddr,
) {
    let stats = &shared.ctx.stats;
    let server = &shared.server;
    let rpc = &view.rpc;
    match rpc.packet_type {
        PacketType::Call => server.handle_call(view, frame, src, rx.out, rx.resident),
        PacketType::Probe => server.handle_probe(rpc, src, rx.out),
        PacketType::Result => {
            let own = rx.owns(rpc);
            if shared.calls.deliver_frame(rpc, view.data, own) {
                count_result(stats, own.is_some());
            } else {
                RpcStats::bump(&stats.orphan_results);
            }
        }
        PacketType::Ack | PacketType::ProbeResponse => {
            if rpc.flags.acks_result {
                // The caller acknowledged one of our result fragments;
                // this thread sends the next one, if there is one.
                server.handle_result_ack(rpc, src, rx.out);
            } else {
                RpcStats::bump(&stats.acks_received);
                let own = rx.owns(rpc);
                if shared.calls.deliver_frame(rpc, view.data, own) {
                    if own.is_none() {
                        RpcStats::bump(&stats.direct_wakeups);
                    }
                } else if rpc.packet_type == PacketType::ProbeResponse {
                    // A ProbeResponse with no outstanding probe (the
                    // probing call already completed, or the probe was a
                    // duplicate) is protocol noise, not an error.
                    RpcStats::bump(&stats.stray_probe_responses);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{LoopbackNet, LoopbackStation};
    use crate::ServiceBuilder;
    use firefly_idl::{parse_interface, Value};
    use firefly_wire::{Frame, FrameBuilder, DATA_OFFSET};

    fn sum_interface() -> InterfaceDef {
        parse_interface(
            "DEFINITION MODULE Frag;
               PROCEDURE Sum(VAR IN data: ARRAY OF CHAR): INTEGER;
             END Frag.",
        )
        .unwrap()
    }

    #[test]
    fn export_bind_and_bind_local_share_the_interfaces_stubs() {
        let net = LoopbackNet::new();
        let server = Endpoint::new(net.station(1), Config::default()).unwrap();
        let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
        let iface = sum_interface();
        let service = ServiceBuilder::new(iface.clone())
            .on_call("Sum", |_args, w| Ok(w.next_value(&Value::Integer(0))?))
            .build()
            .unwrap();
        server.export(service).unwrap();
        let compiled = iface.stubs();
        let exported = server.shared.server.exported_stubs(iface.uid()).unwrap();
        assert!(Arc::ptr_eq(compiled, &exported), "export");
        let remote = caller.bind(&iface, server.address()).unwrap();
        assert!(Arc::ptr_eq(compiled, remote.interface().stubs()), "bind");
        let local = server.bind_local(&iface).unwrap();
        assert!(Arc::ptr_eq(compiled, local.interface().stubs()), "bind_local");
        // A copy parsed apart is compiled apart.
        assert!(!Arc::ptr_eq(compiled, sum_interface().stubs()));
    }

    /// An endpoint exporting `Sum`, which adds up its argument's bytes,
    /// and how many times it ran.
    fn summing_server(net: &LoopbackNet) -> (Arc<Endpoint>, Arc<AtomicU64>) {
        let executed = Arc::new(AtomicU64::new(0));
        let runs = Arc::clone(&executed);
        let service = ServiceBuilder::new(sum_interface())
            .on_call("Sum", move |args, w| {
                runs.fetch_add(1, Ordering::SeqCst);
                let sum = args[0].bytes().unwrap().iter().map(|&b| i32::from(b)).sum();
                w.next_value(&Value::Integer(sum))?;
                Ok(())
            })
            .build()
            .unwrap();
        let server = Endpoint::new(net.station(1), Config::default()).unwrap();
        server.export(service).unwrap();
        (server, executed)
    }

    /// The frames of call `seq` of `Sum(data)` from `activity`, the
    /// fragment at `ask` asking for an ack.
    fn sum_call(activity: ActivityId, seq: u32, data: &[u8], ask: Option<u16>) -> Vec<Vec<u8>> {
        let iface = sum_interface();
        let mut args = vec![0; data.len() + 64];
        let len = iface.stubs()[0]
            .marshal_call(&[Value::Bytes(data.to_vec())], &mut args)
            .unwrap();
        let args = &args[..len];
        let count = crate::fragment::fragment_count(len).unwrap();
        (0..count)
            .map(|i| {
                FrameBuilder::new(PacketType::Call)
                    .activity(activity)
                    .call_seq(seq)
                    .interface(iface.uid(), iface.version())
                    .procedure(0)
                    .fragment(i, count)
                    .please_ack(ask == Some(i))
                    .build(crate::fragment::chunk(args, i))
                    .unwrap()
                    .into_bytes()
            })
            .collect()
    }

    /// The next frame the peer receives, within ten seconds.
    fn next_frame(peer: &LoopbackStation) -> Frame {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut buf = vec![0; MAX_DATAGRAM_LEN];
        loop {
            assert!(Instant::now() < deadline, "nothing came");
            match peer.try_recv(&mut buf).unwrap() {
                Some((n, _)) => return Frame::parse(&buf[..n]).unwrap(),
                None => std::thread::yield_now(),
            }
        }
    }

    /// What the peer receives of type `ty` within ten seconds.
    fn next_of(peer: &LoopbackStation, ty: PacketType) -> Frame {
        loop {
            let frame = next_frame(peer);
            if frame.rpc.packet_type == ty {
                return frame;
            }
        }
    }

    fn wait_until(what: &str, stats: &RpcStats, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}; stats:\n{stats}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_bad_fragment_in_a_good_datagram_costs_only_itself() {
        let net = LoopbackNet::new();
        let (server, executed) = summing_server(&net);
        let peer = net.station(2);
        let stats = server.stats();
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let expected: i32 = data.iter().map(|&b| i32::from(b)).sum();
        let frames = sum_call(ActivityId::new(9, 1, 1), 1, &data, None);
        assert_eq!(frames.len(), 4);
        // One datagram, the whole window; fragment 1 corrupted on the way.
        let mut datagram = frames.concat();
        let bad = frames[0].len() + DATA_OFFSET + 100;
        datagram[bad] ^= 0x10;
        let drops = stats.validation_drops();
        peer.send(&datagram, server.address()).unwrap();
        wait_until("three of four held", stats, || stats.fragments_received() == 3);
        assert_eq!(stats.validation_drops(), drops + 1);
        assert_eq!(executed.load(Ordering::SeqCst), 0, "ran with a hole");
        // The hole sent again completes the call, which runs once.
        peer.send(&frames[1], server.address()).unwrap();
        let result = next_of(&peer, PacketType::Result);
        assert_eq!(result.rpc.call_seq, 1);
        let iface = sum_interface();
        let stub = &iface.stubs()[0];
        assert_eq!(stub.unmarshal_result(&result.data).unwrap(), [Value::Integer(expected)]);
        assert_eq!(executed.load(Ordering::SeqCst), 1);
        assert_eq!(stats.fragments_received(), 4);
        assert_eq!(stats.validation_drops(), drops + 1);
        // No fragment took a pool buffer, and the result retained for
        // retransmission is in the activity's own frame.
        assert_eq!(server.pool().stats().allocs(), 0, "stats:\n{stats}");
        assert_eq!(server.pool().stats().outstanding(), 0);
        let pool = server.pool().clone();
        drop(server);
        assert_eq!(pool.stats().outstanding(), 0, "leaked buffers at shutdown");
    }

    #[test]
    fn two_transfers_back_to_back_in_one_datagram_each_complete() {
        let net = LoopbackNet::new();
        let (server, executed) = summing_server(&net);
        let peer = net.station(2);
        let (a, b) = (ActivityId::new(9, 1, 1), ActivityId::new(9, 1, 2));
        let data = vec![1u8; 3000];
        // Three fragments each; `a`'s middle one asks for an ack, which
        // names the two fragments `a` holds by then.
        let datagram = [sum_call(a, 1, &data, Some(1)), sum_call(b, 1, &data, None)].concat();
        assert_eq!(datagram.len(), 6);
        peer.send(&datagram.concat(), server.address()).unwrap();
        // The ack goes out when the resident is done with the datagram,
        // and a worker may send a result before that.
        let (acks, results): (Vec<_>, Vec<_>) = (0..3)
            .map(|_| next_frame(&peer))
            .partition(|f| f.rpc.packet_type == PacketType::Ack);
        let [ack] = &acks[..] else { panic!("{} acks", acks.len()) };
        assert_eq!((ack.rpc.activity, ack.rpc.fragment), (a, 1));
        let mut done: Vec<ActivityId> = results.iter().map(|r| r.rpc.activity).collect();
        done.sort_by_key(|id| id.thread);
        assert_eq!(done, [a, b]);
        assert_eq!(executed.load(Ordering::SeqCst), 2);
        let stats = server.stats();
        assert_eq!((stats.fragments_received(), stats.acks_sent()), (6, 1), "stats:\n{stats}");
        // Each fragment took the row it takes alone: `a`'s asking one
        // the acked assembly, the others plain assembly, each transfer's
        // last its dispatch.
        assert_eq!(
            server.protocol_transitions(),
            [
                "server-new Call last_fragment -> dispatch",
                "server-new Call - -> assemble",
                "server-new Call please_ack -> assemble-ack",
            ]
        );
    }

    #[test]
    fn only_results_for_several_activities_arm_the_combining_window() {
        let net = LoopbackNet::new();
        let endpoint = Endpoint::new(net.station(1), Config::default()).unwrap();
        let peer = net.station(2);
        let stats = endpoint.stats();
        // One datagram of results, `(thread, fragment, count)` each, for
        // calls nobody made here: every frame is orphaned once processed.
        let deliver = |frames: &[(u16, u16, u16)]| {
            let before = stats.orphan_results();
            let mut datagram = Vec::new();
            for &(thread, fragment, count) in frames {
                let frame = FrameBuilder::new(PacketType::Result)
                    .activity(ActivityId::new(9, 1, thread))
                    .call_seq(1)
                    .fragment(fragment, count)
                    .build(&[])
                    .unwrap();
                datagram.extend_from_slice(frame.bytes());
            }
            peer.send(&datagram, endpoint.address()).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while stats.orphan_results() < before + frames.len() as u64 {
                assert!(Instant::now() < deadline, "stats:\n{stats}");
                std::thread::yield_now();
            }
        };
        // A window of one transfer wakes one caller: nothing to combine.
        deliver(&[(1, 0, 4), (1, 1, 4), (1, 2, 4), (1, 3, 4)]);
        assert!(!endpoint.shared.ctx.combining());
        // Results for two callers wake both at once.
        deliver(&[(2, 0, 1), (3, 0, 1)]);
        assert!(endpoint.shared.ctx.combining());
    }
}
