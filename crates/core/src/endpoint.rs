//! Endpoints: one transport, one buffer pool, one receive role.
//!
//! An `Endpoint` is this reproduction's Firefly: it can export services
//! (server role) and bind clients (caller role) simultaneously over one
//! transport. The kernel's socket wake-up is the Ethernet receive
//! interrupt of §3.1.3, and whichever thread holds the endpoint's
//! receive role ([`crate::role`]) runs the interrupt routine's work —
//! validate headers and the UDP checksum, consult the call table or the
//! server dispatcher, recycle buffers on the fly — through the one
//! `process_datagram` below. That thread is the waiting caller itself
//! when it can be, and otherwise the resident receiver (`demux_loop`),
//! which also executes measured-short single-packet calls to completion
//! instead of waking a worker for them.

use crate::calltable::{CallEntry, Deliver, ShardedCallTable, Wait, SHARDS};
use crate::client::Client;
use crate::config::Config;
use crate::local::LocalClient;
use crate::packet::Packet;
use crate::role::{Polled, ReceiveRole};
use crate::send::{Batch, SendCtx};
use crate::server::ServerSide;
use crate::service::Service;
use crate::stats::RpcStats;
use crate::transport::{Transport, MAX_DATAGRAM_LEN};
use crate::{Result, RpcError};
use firefly_idl::InterfaceDef;
use firefly_pool::{PacketBuf, ShardedPool};
use firefly_wire::{coalesced_frame_len, ActivityId, PacketType};
use firefly_sync::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// State shared between an endpoint, its clients, and its resident
/// receiver.
pub(crate) struct EndpointShared {
    pub ctx: Arc<SendCtx>,
    pub calls: ShardedCallTable,
    pub server: Arc<ServerSide>,
    pub role: ReceiveRole,
    pub config: Config,
    pub machine_id: u32,
    pub space_id: u16,
    /// Endpoint-wide activity thread-id allocator: activities must be
    /// unique across every client bound through this endpoint.
    pub next_thread: std::sync::atomic::AtomicU16,
}

/// A caller/server endpoint bound to one transport.
pub struct Endpoint {
    shared: Arc<EndpointShared>,
    demux: Mutex<Option<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Endpoint {
    /// Creates an endpoint over `transport` and starts its resident
    /// receiver and server threads.
    pub fn new(transport: Arc<dyn Transport>, config: Config) -> Result<Arc<Endpoint>> {
        let pool = ShardedPool::new(config.pool_size, SHARDS);
        let stats = Arc::new(RpcStats::default());
        let ctx = Arc::new(SendCtx::new(
            transport,
            pool,
            Arc::clone(&stats),
            config.checksum,
            config.trace_capacity,
        ));
        ctx.tracer.set_enabled(config.trace);
        let machine_id = if config.machine_id != 0 {
            config.machine_id
        } else {
            // Derive a stable nonzero id from the transport address.
            let addr = ctx.transport.local_addr();
            let mac = crate::send::mac_for(&addr).0;
            u32::from_be_bytes([mac[2], mac[3], mac[4], mac[5]]) | 1
        };
        let server = ServerSide::new(Arc::clone(&ctx), config.server_threads);
        // Every endpoint exports the built-in binder, so callers can
        // verify interfaces before their first real call.
        server.export(crate::binder::binder_service(&server)?)?;
        let workers = server.spawn_workers()?;
        let calls = ShardedCallTable::new(SHARDS);
        let shared = Arc::new(EndpointShared {
            ctx,
            role: ReceiveRole::new(calls.parked_counter()),
            calls,
            server,
            machine_id,
            space_id: config.space_id,
            config,
            next_thread: std::sync::atomic::AtomicU16::new(1),
        });

        let endpoint = Arc::new(Endpoint {
            shared: Arc::clone(&shared),
            demux: Mutex::new(None),
            workers: Mutex::new(workers),
        });
        let demux = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("firefly-demux".into())
                .spawn(move || demux_loop(shared))?
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
            // lint:allow(no-alloc-on-fast-path): bind-time setup (§3.1);
            // the stub keeps its own copy of the interface definition.
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
        let binder = self.bind(&crate::binder::binder_interface(), remote)?;
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
        // Local RPC is lock-free per call, so one pool shard suffices.
        // lint:allow(no-alloc-on-fast-path): bind-time setup; the local
        // client holds its own interface copy and pool handle.
        LocalClient::new(interface.clone(), service, self.shared.ctx.pool.shard(0).clone())
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

    /// The shared (sharded) packet-buffer pool.
    pub fn pool(&self) -> &ShardedPool {
        &self.shared.ctx.pool
    }

    /// The distinct protocol.toml transition rows this endpoint has
    /// taken so far, across its server demux (send-context witness) and
    /// every caller call-table shard. This is what `firefly-check`'s
    /// wire scenario reads for the protocol coverage gate.
    pub fn protocol_transitions(&self) -> Vec<&'static str> {
        let mut rows = std::collections::BTreeSet::new();
        self.shared.ctx.witness.merge_into(&mut rows);
        self.shared.calls.merge_witnesses(&mut rows);
        // Table order reads better than BTreeSet's lexicographic order.
        crate::witness::TRANSITIONS
            .iter()
            .copied()
            .filter(|t| rows.contains(t))
            .collect()
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

    /// Stops the receiver and server threads and unblocks the transport.
    pub fn shutdown(&self) {
        self.shared.ctx.transport.shutdown();
        self.shared.role.shutdown();
        self.shared.server.shutdown();
        // Take the handles out under the guards, join after they drop:
        // joining a thread that is itself draining the transport while
        // holding these mutexes would deadlock against `Drop` callers.
        let demux = self.demux.lock().take();
        if let Some(h) = demux {
            let _ = h.join();
        }
        let workers = std::mem::take(&mut *self.workers.lock());
        for h in workers {
            let _ = h.join();
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What a thread owns so that it can hold the receive role: a buffer any
/// datagram fits in, and the batch it sends the server's frames through
/// (the results it executes, a result window an ack opens, a fragment
/// sent again). The resident receiver allocates its own when it starts;
/// a caller's lives in its activity slot, so every call the activity
/// makes reuses it, and a call that service code makes on the resident,
/// which receives for itself, brings its own instead of overwriting the
/// datagram the resident is in the middle of.
pub(crate) struct RoleBuffers {
    datagram: Box<[u8]>,
    /// Also where a caller encodes the windows of its own multi-packet
    /// calls, between its waits.
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
    /// Rotating pool-shard cursor, so receive-buffer pressure spreads
    /// across shards.
    cursor: usize,
    /// A waiting caller's pool buffer for a datagram's first frame, taken
    /// before it receives: it takes none, and so receives nothing, while
    /// the pool is dry.
    spare: Option<PacketBuf>,
    out: &'a mut Batch,
    /// Whether this is the resident receiver. It waits for pool buffers
    /// and executes measured-short calls itself; a caller thread holding
    /// the role does neither: every call it receives goes to the
    /// workers.
    resident: bool,
    /// The activity of the waiting caller that is doing the receiving;
    /// a packet for it needs no wake-up.
    own: Option<ActivityId>,
}

/// Takes a receive buffer, preferring recycled ones; rotates the shard
/// cursor so receive-buffer pressure spreads across shards.
fn take_receive_buf(shared: &EndpointShared, cursor: &mut usize) -> PacketBuf {
    loop {
        *cursor = cursor.wrapping_add(1);
        match shared.ctx.pool.take_receive_buffer_from(*cursor) {
            Ok(b) => return b,
            Err(_) => {
                // Every shard exhausted: wait briefly for a free.
                if let Ok(b) = shared
                    .ctx
                    .pool
                    .alloc_timeout_from(*cursor, Duration::from_millis(100))
                {
                    return b;
                }
            }
        }
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
    /// and incoming calls go to the server workers. When the role is
    /// taken, or [`POLLS_BEFORE_BLOCK`] attempts found nothing, it
    /// parks on the entry.
    pub fn wait_on(
        &self,
        entry: &CallEntry,
        activity: ActivityId,
        deadline: Instant,
        bufs: &mut RoleBuffers,
    ) -> Wait {
        let RoleBuffers { datagram, out } = bufs;
        let mut rx = Receiving {
            cursor: crate::calltable::shard_for(activity, self.ctx.pool.shard_count()),
            spare: None,
            out,
            resident: false,
            own: Some(activity),
        };
        self.role.wait_receiving(entry, deadline, POLLS_BEFORE_BLOCK, || {
            if rx.spare.is_none() {
                // Never block for a buffer with the role in hand.
                match self.ctx.pool.take_receive_buffer_from(rx.cursor) {
                    Ok(b) => rx.spare = Some(b),
                    Err(_) => return Polled::Closed,
                }
            }
            match self.ctx.transport.try_recv(datagram) {
                Ok(Some((n, src))) => {
                    process_datagram(self, &mut rx, &datagram[..n], src);
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
/// go out packed when the drain ends. It takes a pool buffer per frame
/// received, and holds none while it waits.
fn demux_loop(shared: Arc<EndpointShared>) {
    let stats = &shared.ctx.stats;
    let transport = &*shared.ctx.transport;
    let RoleBuffers { mut datagram, mut out } = RoleBuffers::new();
    let mut rx = Receiving {
        cursor: 0,
        spare: None,
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
/// total-length field gives its boundary. Each frame is copied into a
/// pool buffer of its own, so every frame flows through the same owned
/// [`Packet`] path and the datagram buffer is free for the next receive.
fn process_datagram(shared: &EndpointShared, rx: &mut Receiving, datagram: &[u8], src: SocketAddr) {
    let stats = &shared.ctx.stats;
    let mut rest = datagram;
    let mut first: Option<ActivityId> = None;
    while !rest.is_empty() {
        let Some(len) = coalesced_frame_len(rest) else {
            // Shorter than any frame, an implausible length field, or a
            // truncated pack: without a boundary there is nothing more
            // to walk.
            RpcStats::bump(&stats.validation_drops);
            return;
        };
        let Some(mut buf) = frame_buf(shared, rx) else {
            // A waiting caller never blocks for a buffer with the role
            // in hand. The frames it has no buffer for are lost like any
            // dropped packet, and retransmission recovers them.
            RpcStats::bump(&stats.validation_drops);
            return;
        };
        buf.fill_from(&rest[..len]);
        rest = &rest[len..];
        let pkt = match Packet::from_buf(buf) {
            Ok(p) => p,
            Err(e) => {
                // A garbage packet-type byte is counted apart from other
                // validation failures: it is the shape a version-skewed
                // or hostile peer produces, and the chaos garbage-frame
                // mix asserts it never errors the demux loop.
                match e {
                    crate::RpcError::Wire(firefly_wire::WireError::BadPacketType(_)) => {
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
            None => first = Some(pkt.rpc.activity),
            Some(a) if a != pkt.rpc.activity => shared.ctx.note_batched_delivery(),
            Some(_) => {}
        }
        process_packet(shared, rx, pkt, src);
    }
}

/// A pool buffer for the next frame of a datagram: a caller's spare, then
/// fresh ones — which the resident waits for, and a caller holding the
/// role does not.
fn frame_buf(shared: &EndpointShared, rx: &mut Receiving) -> Option<PacketBuf> {
    if let Some(b) = rx.spare.take() {
        return Some(b);
    }
    if rx.resident {
        return Some(take_receive_buf(shared, &mut rx.cursor));
    }
    rx.cursor = rx.cursor.wrapping_add(1);
    shared.ctx.pool.take_receive_buffer_from(rx.cursor).ok()
}

/// Demultiplexes one received packet — routing, direct wakeup,
/// on-the-fly buffer recycling (§3.1.3).
fn process_packet(shared: &EndpointShared, rx: &mut Receiving, pkt: Packet, src: SocketAddr) {
    let stats = &shared.ctx.stats;
    let server = &shared.server;
    match pkt.rpc.packet_type {
        PacketType::Call => server.handle_call_packet(pkt, src, rx.out, rx.resident),
        PacketType::Probe => {
            server.handle_probe(&pkt.rpc, src, rx.out);
            pkt.into_buf().recycle();
        }
        PacketType::Result => {
            let own = rx.own == Some(pkt.rpc.activity);
            let ack = match shared.calls.deliver_from(pkt, own) {
                Deliver::Accepted => None,
                Deliver::AcceptedNeedsAck(ack) => Some(ack),
                Deliver::Orphan(pkt) => {
                    RpcStats::bump(&stats.orphan_results);
                    pkt.into_buf().recycle();
                    RpcStats::bump(&stats.buffers_recycled);
                    return;
                }
            };
            RpcStats::bump(&stats.results_received);
            // `results_received = self_received_results + the
            // direct_wakeups a result packet caused`: a result the
            // waiting thread received itself woke nobody.
            if own {
                RpcStats::bump(&stats.self_received_results);
            } else {
                RpcStats::bump(&stats.direct_wakeups);
            }
            if let Some(ack) = ack {
                let _ = shared.ctx.send_ack(&ack, src);
            }
        }
        PacketType::Ack | PacketType::ProbeResponse => {
            if pkt.rpc.flags.acks_result {
                // The caller acknowledged one of our result fragments;
                // this thread sends the next one, if there is one.
                server.handle_result_ack(&pkt.rpc, src, rx.out);
                pkt.into_buf().recycle();
            } else {
                RpcStats::bump(&stats.acks_received);
                let is_probe_response = pkt.rpc.packet_type == PacketType::ProbeResponse;
                let own = rx.own == Some(pkt.rpc.activity);
                match shared.calls.deliver_from(pkt, own) {
                    Deliver::Accepted | Deliver::AcceptedNeedsAck(_) => {
                        if !own {
                            RpcStats::bump(&stats.direct_wakeups);
                        }
                    }
                    Deliver::Orphan(pkt) => {
                        // A ProbeResponse with no outstanding probe (the
                        // probing call already completed, or the probe was
                        // a duplicate) is protocol noise, not an error.
                        if is_probe_response {
                            RpcStats::bump(&stats.stray_probe_responses);
                        }
                        pkt.into_buf().recycle();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackNet;
    use firefly_wire::FrameBuilder;

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
