//! The caller side: binding, Starter, Transporter and Ender.
//!
//! A [`Client`] is the result of binding an interface to a remote
//! endpoint. Its [`Client::call`] follows the five caller-stub steps of
//! §3.1.1 exactly:
//!
//! 1. **Starter** — obtain a packet buffer with a partially filled-in
//!    header,
//! 2. **marshal** the arguments into the call packet (compiled stubs),
//! 3. **Transporter** — register the call in the call table, transmit,
//!    and wait for the result with retransmission and probing — receiving
//!    it itself when the endpoint's receive role is free
//!    ([`crate::role`]),
//! 4. **unmarshal** the result packet into caller values,
//! 5. **Ender** — return the packet buffer to the pool (recycled straight
//!    to the receive queue, as the paper's interrupt handler does).
//!
//! Each OS thread making calls concurrently gets its own *activity*; an
//! activity has at most one outstanding call, and its monotonically
//! increasing sequence number gives the protocol its implicit-ack and
//! duplicate-filtering structure.

use crate::calltable::Wait;
use crate::endpoint::EndpointShared;
use crate::packet::Assembled;
use crate::{Result, RpcError};
use firefly_idl::{ArgReader, ArgWriter, CompiledStub, IdlError, InterfaceDef, Value};
use firefly_wire::{ActivityId, PacketFlags, PacketType, RpcHeader, DATA_OFFSET};
use firefly_sync::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// One reusable activity slot with its sequence counter and the header of
/// the last result received (so an explicit ack can be sent at teardown).
struct Slot {
    activity: ActivityId,
    next_seq: u32,
    last_result: Option<RpcHeader>,
}

/// Pool of activity slots: one per concurrently calling thread.
///
/// Thread ids come from the endpoint-wide allocator so activities are
/// unique even when several clients are bound through one endpoint.
struct ActivityPool {
    free: Mutex<Vec<Slot>>,
    shared: Arc<EndpointShared>,
    machine: u32,
    space: u16,
}

impl ActivityPool {
    fn acquire(&self) -> Slot {
        if let Some(slot) = self.free.lock().pop() {
            return slot;
        }
        let next = self
            .shared
            .next_thread
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Slot {
            activity: ActivityId::new(self.machine, self.space, next),
            next_seq: 1,
            last_result: None,
        }
    }

    fn release(&self, slot: Slot) {
        self.free.lock().push(slot);
    }
}

/// A bound caller stub for one interface at one remote endpoint.
///
/// Cloneable and thread-safe: concurrent calls from many threads use
/// distinct activities, which is exactly how Table I's multi-threaded
/// caller works.
#[derive(Clone)]
pub struct Client {
    inner: Arc<ClientInner>,
}

struct ClientInner {
    shared: Arc<EndpointShared>,
    interface: InterfaceDef,
    stubs: Vec<CompiledStub>,
    remote: SocketAddr,
    activities: ActivityPool,
}

impl Client {
    pub(crate) fn new(
        shared: Arc<EndpointShared>,
        interface: InterfaceDef,
        remote: SocketAddr,
    ) -> Client {
        let stubs = CompiledStub::for_interface(&interface);
        let machine = shared.machine_id;
        let space = shared.space_id;
        Client {
            inner: Arc::new(ClientInner {
                activities: ActivityPool {
                    // lint:allow(no-alloc-on-fast-path): one-time Client
                    // construction at bind time, not the per-call path.
                    free: Mutex::new(Vec::new()),
                    shared: Arc::clone(&shared),
                    machine,
                    space,
                },
                shared,
                interface,
                stubs,
                remote,
            }),
        }
    }

    /// The bound interface.
    pub fn interface(&self) -> &InterfaceDef {
        &self.inner.interface
    }

    /// The remote endpoint address.
    pub fn remote(&self) -> SocketAddr {
        self.inner.remote
    }

    /// Calls a procedure by name; returns the result-direction values in
    /// plan order.
    pub fn call(&self, procedure: &str, args: &[Value]) -> Result<Vec<Value>> {
        let p = self.inner.interface.procedure(procedure)?;
        self.call_values(p.index(), args, None)
    }

    /// Calls a procedure by name with an overall deadline.
    ///
    /// The paper's semantics wait indefinitely while the server is alive
    /// (probing); a deadline bounds the caller's patience instead. On
    /// [`RpcError::DeadlineExceeded`] the call may still execute at the
    /// server — callers needing exactly-once observability must design
    /// idempotent procedures.
    pub fn call_with_deadline(
        &self,
        procedure: &str,
        args: &[Value],
        deadline: std::time::Duration,
    ) -> Result<Vec<Value>> {
        let p = self.inner.interface.procedure(procedure)?;
        self.call_values(p.index(), args, Some(Instant::now() + deadline))
    }

    /// Calls a procedure by its on-wire index.
    pub fn call_index(&self, index: u16, args: &[Value]) -> Result<Vec<Value>> {
        self.call_values(index, args, None)
    }

    /// The dynamic API: [`Client::call_with`] with the procedure's plan
    /// doing the writing and the reading.
    fn call_values(
        &self,
        index: u16,
        args: &[Value],
        deadline: Option<Instant>,
    ) -> Result<Vec<Value>> {
        let stub = self
            .inner
            .stubs
            .get(index as usize)
            .ok_or_else(|| IdlError::NoSuchProcedure(format!("#{index}")))?;
        self.call_inner(
            index,
            deadline,
            |w| stub.write_call(args, w),
            |r| stub.read_result(r),
        )
    }

    /// Calls procedure `index` with the caller doing its own marshalling:
    /// `marshal` writes the arguments straight into the call packet and
    /// `unmarshal` reads the results in place from the result packet —
    /// the paper's direct-assignment stubs (§2.2). This is the one path
    /// every call takes; generated typed stubs call it through
    /// [`firefly_idl::RpcCall`].
    ///
    /// `marshal` runs a second time, into a heap buffer that is then
    /// fragmented, when the arguments outgrow one packet; `unmarshal`
    /// must read the result to its end.
    pub fn call_with<R>(
        &self,
        index: u16,
        marshal: impl FnMut(&mut ArgWriter<'_>) -> firefly_idl::Result<()>,
        unmarshal: impl FnOnce(&mut ArgReader<'_>) -> firefly_idl::Result<R>,
    ) -> Result<R> {
        self.call_inner(index, None, marshal, unmarshal)
    }

    fn call_inner<R>(
        &self,
        index: u16,
        deadline: Option<Instant>,
        mut marshal: impl FnMut(&mut ArgWriter<'_>) -> firefly_idl::Result<()>,
        unmarshal: impl FnOnce(&mut ArgReader<'_>) -> firefly_idl::Result<R>,
    ) -> Result<R> {
        let inner = &self.inner;
        let shared = &inner.shared;
        // The live latency account (Table VII): stamp each step boundary
        // into the stack-resident span. Inert unless tracing is enabled.
        let mut span = shared.ctx.tracer.caller_span(index);

        // --- Starter: obtain an activity and a packet buffer. ---
        // The activity is acquired first so the buffer can come from the
        // activity's home shard: caller, demultiplexer and server worker
        // then all touch the same pool shard for this call.
        let mut slot = inner.activities.acquire();
        let seq = slot.next_seq;
        slot.next_seq += 1;
        let activity = slot.activity;
        let shard = crate::calltable::shard_for(activity, shared.ctx.pool.shard_count());
        let mut call_buf = match shared
            .ctx
            .pool
            .alloc_timeout_from(shard, std::time::Duration::from_secs(2))
        {
            Ok(buf) => buf,
            Err(e) => {
                inner.activities.release(slot);
                return Err(e.into());
            }
        };
        span.stamp(crate::trace::Stamp::BufferAcquired);

        // --- Marshal the arguments. ---
        // Fast path straight into the packet buffer; an argument list
        // that does not fit goes to the heap for fragmentation.
        let mut heap_data: Option<Vec<u8>> = None;
        let packet = &mut call_buf.raw_mut()[DATA_OFFSET..];
        let marshalled = match ArgWriter::fill(packet, &mut marshal) {
            Ok(n) => Ok(n),
            Err(IdlError::BufferTooSmall { needed, .. }) => {
                crate::fragment::marshal_spilled(marshal, needed)
                    .map(|big| heap_data.insert(big).len())
            }
            Err(e) => Err(e.into()),
        };
        let data_len = match marshalled {
            Ok(n) => n,
            Err(e) => {
                inner.activities.release(slot);
                return Err(e);
            }
        };
        span.stamp(crate::trace::Stamp::MarshalDone);

        // --- Transporter: register, send, await, retransmit. ---
        let header = RpcHeader {
            packet_type: PacketType::Call,
            flags: PacketFlags::single_packet(),
            activity,
            call_seq: seq,
            fragment: 0,
            fragment_count: 1,
            interface_uid: inner.interface.uid(),
            interface_version: inner.interface.version(),
            procedure: index,
            data_len: data_len as u16,
        };

        let result = (|| -> Result<Assembled> {
            let entry = shared.calls.register(activity, seq);
            let outcome = match &heap_data {
                None => {
                    // Single packet, zero copy: headers around the data in
                    // the pool buffer.
                    let total = shared
                        .ctx
                        .builder_from(&header, inner.remote)
                        .encode_into(call_buf.raw_mut(), data_len)?;
                    call_buf.set_len(total);
                    self.transact_single(&header, &call_buf, &entry, deadline, &mut span)
                }
                Some(data) => {
                    self.transact_multi(&header, data, &mut call_buf, &entry, deadline, &mut span)
                }
            };
            shared.calls.unregister(activity);
            outcome
        })();

        // --- Unmarshal + Ender. ---
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                inner.activities.release(slot);
                return Err(e);
            }
        };
        crate::stats::RpcStats::bump(&shared.ctx.stats.calls_completed);
        slot.last_result = Some(*outcome.rpc());
        if outcome.rpc().flags.call_failed {
            let msg = String::from_utf8_lossy(outcome.data()).into_owned();
            inner.activities.release(slot);
            return Err(RpcError::Remote(msg));
        }
        let values = ArgReader::read_all(outcome.data(), unmarshal);
        span.stamp(crate::trace::Stamp::UnmarshalDone);
        inner.activities.release(slot);
        // Ender: recycle the call buffer straight onto its home shard's
        // receive queue, the paper's on-the-fly buffer replacement.
        call_buf.recycle();
        crate::stats::RpcStats::bump(&shared.ctx.stats.buffers_recycled);
        span.stamp(crate::trace::Stamp::CallEnd);
        if span.finish() {
            crate::stats::RpcStats::bump(&shared.ctx.stats.trace_records);
        }
        Ok(values?)
    }

    /// Sends a single-packet call and waits for the result.
    fn transact_single(
        &self,
        header: &RpcHeader,
        frame: &[u8],
        entry: &crate::calltable::CallEntry,
        deadline: Option<Instant>,
        span: &mut crate::trace::Span<'_>,
    ) -> Result<Assembled> {
        let shared = &self.inner.shared;
        let cfg = &shared.config;
        shared.ctx.send_call(frame, self.inner.remote)?;
        // First-write-wins: for fragmented calls the `Sent` stamp was
        // already taken at the first fragment.
        span.stamp(crate::trace::Stamp::Sent);
        crate::stats::RpcStats::bump(&shared.ctx.stats.calls_sent);

        // Backoff jitter is seeded from the endpoint config (mixed with
        // the activity and sequence number so concurrent callers
        // decorrelate), which keeps retry timing reproducible in tests.
        let mut jitter = firefly_rng::Rng::new(
            cfg.rng_seed
                ^ (u64::from(header.activity.machine) << 32)
                ^ (u64::from(header.activity.space) << 16)
                ^ u64::from(header.activity.thread)
                ^ (u64::from(header.call_seq) << 48),
        );
        let mut timeout = cfg.retransmit_initial;
        let mut transmissions = 1u32;
        let mut acked = false;
        let mut probes = 0u32;
        let mut result_fragments = 0u16;
        loop {
            let mut wake_at = Instant::now() + timeout;
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Err(RpcError::DeadlineExceeded);
                }
                wake_at = wake_at.min(d);
            }
            match shared.wait_on(entry, header.activity, wake_at) {
                Wait::Complete(a) => {
                    span.stamp(crate::trace::Stamp::ResultReceived);
                    return Ok(a);
                }
                Wait::Acked { fragment, .. } => {
                    // Only an ack that covers *this* packet proves the
                    // server holds the complete call. Acks of earlier
                    // fragments can surface here (delayed, duplicated,
                    // or left in the slot by the fragment loop) while
                    // the final fragment itself was lost; believing
                    // them would switch to probing a call the server
                    // never started — which it answers with silence —
                    // instead of retransmitting the missing packet.
                    if fragment >= header.fragment {
                        acked = true;
                        probes = 0;
                        timeout = cfg.retransmit_max;
                    }
                }
                Wait::TimedOut => {
                    if progressed(entry, &mut result_fragments) {
                        transmissions = 1;
                        probes = 0;
                        timeout = cfg.retransmit_initial;
                    }
                    if acked {
                        // The server said it is working; probe instead of
                        // retransmitting the call.
                        probes += 1;
                        if probes > 120 {
                            return Err(RpcError::CallFailed { transmissions });
                        }
                        let probe = RpcHeader {
                            packet_type: PacketType::Probe,
                            data_len: 0,
                            ..*header
                        };
                        shared.ctx.send_built(
                            &shared.ctx.builder_from(&probe, self.inner.remote),
                            &[],
                            self.inner.remote,
                        )?;
                    } else {
                        if transmissions >= cfg.max_transmissions {
                            return Err(RpcError::CallFailed { transmissions });
                        }
                        // Retransmit with please-ack so the server answers
                        // even while the call executes.
                        let retransmit = shared
                            .ctx
                            .builder_from(header, self.inner.remote)
                            .please_ack(true);
                        shared.ctx.send_built(
                            &retransmit,
                            frame_data(frame, header),
                            self.inner.remote,
                        )?;
                        transmissions += 1;
                        crate::stats::RpcStats::bump(&shared.ctx.stats.retransmissions);
                        // Exponential backoff with up to +25% deterministic
                        // jitter so synchronized callers spread out.
                        timeout = (timeout * 2)
                            .min(cfg.retransmit_max)
                            .mul_f64(1.0 + jitter.f64() * 0.25);
                    }
                }
            }
        }
    }

    /// Sends a multi-packet call stop-and-wait, then waits for the result.
    ///
    /// `call_buf` is the call's own pool buffer, still unused (the
    /// arguments did not fit it): the final fragment is encoded there.
    fn transact_multi(
        &self,
        header: &RpcHeader,
        data: &[u8],
        call_buf: &mut firefly_pool::PacketBuf,
        entry: &crate::calltable::CallEntry,
        deadline: Option<Instant>,
        span: &mut crate::trace::Span<'_>,
    ) -> Result<Assembled> {
        let shared = &self.inner.shared;
        let cfg = &shared.config;
        let count = crate::fragment::fragment_count(data.len())?;
        if cfg.fragment_blast && count > 1 {
            return self.transact_blast(header, data, count, entry, deadline, span);
        }
        for (index, chunk) in crate::fragment::fragments(data) {
            let frag_header = RpcHeader {
                fragment: index,
                fragment_count: count,
                data_len: chunk.len() as u16,
                ..*header
            };
            let builder = shared.ctx.builder_from(&frag_header, self.inner.remote);
            crate::stats::RpcStats::bump(&shared.ctx.stats.fragments_sent);
            if index + 1 == count {
                // The final fragment behaves like a single-packet call.
                call_buf.raw_mut()[DATA_OFFSET..DATA_OFFSET + chunk.len()].copy_from_slice(chunk);
                let total = builder.encode_into(call_buf.raw_mut(), chunk.len())?;
                call_buf.set_len(total);
                return self.transact_single(&frag_header, call_buf, entry, deadline, span);
            }
            // Every fragment but the last goes stop-and-wait.
            let builder = builder.please_ack(true);
            shared.ctx.send_built(&builder, chunk, self.inner.remote)?;
            // The account's "send" boundary is the first transmission of
            // the first fragment (first-write-wins on later fragments).
            span.stamp(crate::trace::Stamp::Sent);
            let mut attempts = 1;
            loop {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(RpcError::DeadlineExceeded);
                    }
                }
                match shared.wait_on(
                    entry,
                    header.activity,
                    Instant::now()
                        + cfg
                            .retransmit_initial
                            .max(std::time::Duration::from_millis(20)),
                ) {
                    Wait::Acked { fragment, .. } if fragment >= index => break,
                    Wait::Acked { .. } => continue,
                    Wait::Complete(a) => {
                        // Server already answered (dup of an earlier call).
                        span.stamp(crate::trace::Stamp::ResultReceived);
                        return Ok(a);
                    }
                    Wait::TimedOut => {
                        attempts += 1;
                        if attempts > cfg.max_transmissions {
                            return Err(RpcError::CallFailed {
                                transmissions: attempts,
                            });
                        }
                        shared.ctx.send_built(&builder, chunk, self.inner.remote)?;
                        crate::stats::RpcStats::bump(&shared.ctx.stats.retransmissions);
                    }
                }
            }
        }
        Err(RpcError::Internal {
            context: "fragmented transfer produced zero fragments",
        })
    }

    /// Sends a multi-packet call as one back-to-back fragment blast —
    /// the batching ablation ([`Config::fragment_blast`]).
    ///
    /// The whole window goes out at once and the caller waits only for
    /// the result. Timeout recovery re-blasts the entire window (with
    /// please-ack on the final fragment so progress is observable);
    /// server-side reassembly is idempotent, so duplicates are harmless.
    /// The ack/probe state machine mirrors [`Client::transact_single`]:
    /// only an acknowledgement covering the final fragment proves the
    /// server holds the complete call and switches us to probing.
    fn transact_blast(
        &self,
        header: &RpcHeader,
        data: &[u8],
        count: u16,
        entry: &crate::calltable::CallEntry,
        deadline: Option<Instant>,
        span: &mut crate::trace::Span<'_>,
    ) -> Result<Assembled> {
        let shared = &self.inner.shared;
        let cfg = &shared.config;
        let final_index = count - 1;
        let send_window = |please_ack_final: bool| -> Result<()> {
            for (index, chunk) in crate::fragment::fragments(data) {
                let frag_header = RpcHeader {
                    fragment: index,
                    fragment_count: count,
                    data_len: chunk.len() as u16,
                    ..*header
                };
                let builder = shared
                    .ctx
                    .builder_from(&frag_header, self.inner.remote)
                    .please_ack(please_ack_final && index == final_index);
                shared.ctx.send_built(&builder, chunk, self.inner.remote)?;
                crate::stats::RpcStats::bump(&shared.ctx.stats.fragments_sent);
            }
            Ok(())
        };
        send_window(false)?;
        span.stamp(crate::trace::Stamp::Sent);
        crate::stats::RpcStats::bump(&shared.ctx.stats.calls_sent);

        let final_header = RpcHeader {
            fragment: final_index,
            fragment_count: count,
            ..*header
        };
        let mut timeout = cfg.retransmit_initial;
        let mut transmissions = 1u32;
        let mut acked = false;
        let mut probes = 0u32;
        let mut result_fragments = 0u16;
        loop {
            let mut wake_at = Instant::now() + timeout;
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Err(RpcError::DeadlineExceeded);
                }
                wake_at = wake_at.min(d);
            }
            match shared.wait_on(entry, header.activity, wake_at) {
                Wait::Complete(a) => {
                    span.stamp(crate::trace::Stamp::ResultReceived);
                    return Ok(a);
                }
                Wait::Acked { fragment, .. } => {
                    // The server acks every non-final fragment it
                    // buffers; only an ack covering the final fragment
                    // proves it holds the complete call.
                    if fragment >= final_index {
                        acked = true;
                        probes = 0;
                        timeout = cfg.retransmit_max;
                    }
                }
                Wait::TimedOut => {
                    if progressed(entry, &mut result_fragments) {
                        transmissions = 1;
                        probes = 0;
                        timeout = cfg.retransmit_initial;
                    }
                    if acked {
                        // The server is executing; probe, don't re-blast.
                        probes += 1;
                        if probes > 120 {
                            return Err(RpcError::CallFailed { transmissions });
                        }
                        let probe = RpcHeader {
                            packet_type: PacketType::Probe,
                            data_len: 0,
                            ..final_header
                        };
                        shared.ctx.send_built(
                            &shared.ctx.builder_from(&probe, self.inner.remote),
                            &[],
                            self.inner.remote,
                        )?;
                    } else {
                        if transmissions >= cfg.max_transmissions {
                            return Err(RpcError::CallFailed { transmissions });
                        }
                        send_window(true)?;
                        transmissions += 1;
                        crate::stats::RpcStats::bump(&shared.ctx.stats.retransmissions);
                        timeout = (timeout * 2).min(cfg.retransmit_max);
                    }
                }
            }
        }
    }
}

impl firefly_idl::RpcCall for Client {
    type Error = RpcError;

    fn call_with<R>(
        &self,
        index: u16,
        marshal: impl FnMut(&mut ArgWriter<'_>) -> firefly_idl::Result<()>,
        unmarshal: impl FnOnce(&mut ArgReader<'_>) -> firefly_idl::Result<R>,
    ) -> Result<R> {
        Client::call_with(self, index, marshal, unmarshal)
    }
}

/// Whether fragments of a multi-packet result have arrived since the last
/// look (`seen`). They are acked by the receiving thread without waking
/// this one, so a timer that fires mid-transfer finds its evidence here:
/// the transfer is alive, and the caller's transmission budget, probe
/// count and back-off start over — or a long result under loss would be
/// given up on while it was getting through.
fn progressed(entry: &crate::calltable::CallEntry, seen: &mut u16) -> bool {
    let now = entry.result_fragments();
    std::mem::replace(seen, now) < now
}

/// Extracts the data region from an encoded call frame for retransmission.
fn frame_data<'f>(frame: &'f [u8], header: &RpcHeader) -> &'f [u8] {
    &frame[DATA_OFFSET..DATA_OFFSET + header.data_len as usize]
}

impl Drop for ClientInner {
    fn drop(&mut self) {
        // Explicitly acknowledge the last results so the server can free
        // its retained result packets (otherwise they wait for an implicit
        // ack that will never come).
        let slots = std::mem::take(&mut *self.activities.free.lock());
        for slot in slots {
            if let Some(res) = slot.last_result {
                let mut ack = firefly_wire::RpcHeader::ack_for(&res);
                // The retained result may be multi-packet and the slot
                // remembers whichever fragment's header completed the
                // call. The teardown ack must name the final fragment
                // with last-fragment set, or the server treats it as a
                // mid-transfer fragment ack and never frees retention.
                ack.fragment = ack.fragment_count.saturating_sub(1);
                ack.flags.last_fragment = true;
                let _ = self.shared.ctx.send_ack(&ack, self.remote);
            }
        }
    }
}
