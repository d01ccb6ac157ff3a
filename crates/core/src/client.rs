//! The caller side: binding, Starter, Transporter and Ender.
//!
//! A [`Client`] is the result of binding an interface to a remote
//! endpoint. Its [`Client::call`] follows the five caller-stub steps of
//! §3.1.1 exactly:
//!
//! 1. **Starter** — obtain an activity slot, which owns the call frame
//!    the call is built in,
//! 2. **marshal** the arguments into the call frame (compiled stubs),
//! 3. **Transporter** — open the call on the slot's call-table entry,
//!    transmit, and wait for the result with retransmission and probing
//!    — receiving it itself when the endpoint's receive role is free
//!    ([`crate::role`]),
//! 4. **unmarshal** the result in place from the entry's result frame,
//! 5. **Ender** — give the slot back, frames and all.
//!
//! Each OS thread making calls concurrently gets its own *activity*; an
//! activity has at most one outstanding call, and its monotonically
//! increasing sequence number gives the protocol its implicit-ack and
//! duplicate-filtering structure. An activity's slot owns everything its
//! calls touch, made at its first call and reused by every later one (as
//! an eRPC session slot is, or the argument frames of a local call,
//! [`crate::local`]): its call-table entry, the heap frame a one-packet
//! call is marshalled and encoded in, the result frame its entry copies a
//! one-packet result into, and the buffers it receives and sends windows
//! with. A remote call therefore takes no pool buffer and makes no hash
//! lookup.
//!
//! What it allocates depends on what it carries. Counted with a counting
//! global allocator in a program apart from this workspace, a
//! `Null()` makes no allocation per call. A `MaxResult(b)` through the
//! dynamic API makes two, the owned `Vec<Value>` it returns and that
//! value's bytes. A 5760-byte `Blob` echo makes eight, about 28.9 KB,
//! six of them the runtime's own: the spilled argument and result
//! buffers and the reassembled bodies. No test pins these counts: a
//! counting allocator needs `unsafe`, which every crate here forbids
//! (DESIGN.md §7).

use crate::calltable::{CallEntry, Wait};
use crate::endpoint::{EndpointShared, RoleBuffers};
use crate::fragment::{Acked, Window};
use crate::packet::Assembled;
use crate::send::Batch;
use crate::stats::RpcStats;
use crate::{Result, RpcError};
use firefly_idl::{ArgReader, ArgWriter, IdlError, InterfaceDef, Value};
use firefly_pool::BUFFER_SIZE;
use firefly_wire::{ActivityId, PacketFlags, PacketType, RpcHeader, DATA_OFFSET};
use firefly_sync::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// One reusable activity slot with its sequence counter, the header of
/// the last result received (so an explicit ack can be sent at teardown),
/// and everything its calls touch.
struct Slot {
    activity: ActivityId,
    next_seq: u32,
    last_result: Option<RpcHeader>,
    /// The activity's call-table entry, made with the slot.
    entry: Arc<CallEntry>,
    /// The call frame: a [`BUFFER_SIZE`]-byte buffer a one-packet call is
    /// marshalled into and encoded around.
    frame: Box<[u8]>,
    /// The result frame between calls: the last result came in it, and
    /// the next call hands it back to the entry.
    result: Option<Vec<u8>>,
    bufs: RoleBuffers,
}

/// Pool of activity slots: one per concurrently calling thread.
///
/// Thread ids come from the endpoint-wide allocator so activities are
/// unique even when several clients are bound through one endpoint.
struct ActivityPool {
    free: Mutex<Vec<Slot>>,
    shared: Arc<EndpointShared>,
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
        let activity = ActivityId::new(self.shared.machine_id, self.shared.space, next);
        Slot {
            activity,
            next_seq: 1,
            last_result: None,
            entry: self.shared.calls.entry(activity),
            // lint:allow(no-alloc-on-fast-path): once per activity slot,
            // at its first call; every later call reuses the frame.
            frame: vec![0; BUFFER_SIZE].into_boxed_slice(),
            result: None,
            bufs: RoleBuffers::new(),
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
    /// The bound interface, whose stubs the calls run.
    interface: InterfaceDef,
    remote: SocketAddr,
    activities: ActivityPool,
}

impl Client {
    pub(crate) fn new(
        shared: Arc<EndpointShared>,
        interface: InterfaceDef,
        remote: SocketAddr,
    ) -> Client {
        Client {
            // lint:allow(no-alloc-on-fast-path): once per binding.
            inner: Arc::new(ClientInner {
                activities: ActivityPool {
                    // lint:allow(no-alloc-on-fast-path): one-time Client
                    // construction at bind time, not the per-call path.
                    free: Mutex::new(Vec::new()),
                    shared: Arc::clone(&shared),
                },
                shared,
                interface,
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
            .interface
            .stubs()
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

        // --- Starter: obtain an activity slot and its call frame. ---
        let mut slot = inner.activities.acquire();
        let seq = slot.next_seq;
        slot.next_seq += 1;
        let activity = slot.activity;
        span.stamp(crate::trace::Stamp::BufferAcquired);

        // --- Marshal the arguments. ---
        // Fast path straight into the call frame; an argument list that
        // does not fit goes to the heap for fragmentation.
        let mut heap_data: Option<Vec<u8>> = None;
        let packet = slot.frame.get_mut(DATA_OFFSET..).unwrap_or_default();
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

        // Registration: the slot's entry opens the call, and gets back
        // the result frame the last call's result came in.
        slot.entry.open(seq, slot.result.take());
        let Slot {
            entry, frame, bufs, ..
        } = &mut slot;
        let result = self.transact(
            &header,
            heap_data.as_deref(),
            frame,
            bufs,
            entry,
            deadline,
            &mut span,
        );

        // --- Unmarshal + Ender. ---
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                slot.entry.close();
                inner.activities.release(slot);
                return Err(e);
            }
        };
        crate::stats::RpcStats::bump(&shared.ctx.stats.calls_completed);
        slot.last_result = Some(*outcome.rpc());
        if outcome.rpc().flags.call_failed {
            let msg = String::from_utf8_lossy(outcome.data()).into_owned();
            slot.result = outcome.into_frame();
            inner.activities.release(slot);
            return Err(RpcError::Remote(msg));
        }
        let values = ArgReader::read_all(outcome.data(), unmarshal);
        span.stamp(crate::trace::Stamp::UnmarshalDone);
        // Ender: the result frame goes back with the slot.
        slot.result = outcome.into_frame();
        inner.activities.release(slot);
        span.stamp(crate::trace::Stamp::CallEnd);
        if span.finish() {
            crate::stats::RpcStats::bump(&shared.ctx.stats.trace_records);
        }
        Ok(values?)
    }

    /// The Transporter: sends the call and waits for its result. A call
    /// of one packet goes out as it is, encoded around its bytes in
    /// `frame`, the slot's call frame; a spilled one (`spilled`) a
    /// window of fragments at a time ([`Window`]), encoded back to back
    /// on the activity's batch and handed to the transport in one
    /// `send_batch`: over UDP, one datagram per window. Silences are the
    /// timer's: a lost lone packet is sent again; a call that went out in
    /// fragments is probed first, which the server answers with the
    /// prefix it holds, so only what is missing goes out again, one
    /// fragment at a time; a result with a hole gets the ack that names
    /// the hole. An answer that names no more than the last ack did moves
    /// nothing (a copy looks the same), so the silence after it sends the
    /// first unacknowledged fragment — or has the server send it — again.
    /// A call that went out and ends without a result counts in
    /// `calls_failed`.
    #[allow(clippy::too_many_arguments)]
    fn transact(
        &self,
        header: &RpcHeader,
        spilled: Option<&[u8]>,
        frame: &mut [u8],
        bufs: &mut RoleBuffers,
        entry: &CallEntry,
        deadline: Option<Instant>,
        span: &mut crate::trace::Span<'_>,
    ) -> Result<Assembled> {
        let shared = &self.inner.shared;
        let (cfg, stats, remote) = (&shared.config, &shared.ctx.stats, self.inner.remote);
        let count = match spilled {
            Some(data) => crate::fragment::fragment_count(data.len())?,
            None => 1,
        };
        let mut window = Window::new(count);
        // Fragment `index` of a spilled call, queued on `out`; a one-packet
        // call, sent through the combining sender.
        let mut send = |out: &mut Batch, index: u16, please_ack: bool| -> Result<()> {
            let builder = shared
                .ctx
                .builder_from(header, remote)
                .fragment(index, count)
                .please_ack(please_ack);
            match spilled {
                Some(data) => out.encode(&builder, crate::fragment::chunk(data, index), remote),
                None => {
                    let total = builder.encode_into(frame, header.data_len as usize)?;
                    shared.ctx.send_call(frame.get(..total).unwrap_or_default(), remote)
                }
            }
        };
        let flush = |out: &mut Batch| -> Result<()> { Ok(out.send(&*shared.ctx.transport)?) };
        let probe = RpcHeader {
            packet_type: PacketType::Probe,
            fragment: count - 1,
            fragment_count: count,
            data_len: 0,
            ..*header
        };
        let send_probe = |out: &mut Batch| {
            out.encode(&shared.ctx.builder_from(&probe, remote), &[], remote)?;
            flush(out)
        };

        while let Some((index, ask)) = window.advance() {
            send(&mut bufs.out, index, ask)?;
            if count > 1 {
                RpcStats::bump(&stats.fragments_sent);
            }
        }
        flush(&mut bufs.out)?;
        // The account's "send" boundary: the first window is on the wire.
        span.stamp(crate::trace::Stamp::Sent);
        RpcStats::bump(&stats.calls_sent);
        // From here on the call is out: it ends with its result, or counts
        // as failed.
        let mut wait = || -> Result<Assembled> {
            // Backoff jitter is seeded from the endpoint config (mixed with
            // the activity and sequence number so concurrent callers
            // decorrelate), which keeps retry timing reproducible in tests.
            // The activity's space is left out: it is a nonce drawn per
            // endpoint, and retry timing stays a function of the seed.
            let mut jitter = firefly_rng::Rng::new(
                cfg.rng_seed
                    ^ (u64::from(header.activity.machine) << 32)
                    ^ u64::from(header.activity.thread)
                    ^ (u64::from(header.call_seq) << 48),
            );
            let mut timeout = cfg.retransmit_initial;
            let mut transmissions = 1u32;
            // The server holds the whole call: it said so, or its result is
            // arriving.
            let mut whole = false;
            let mut probes = 0u32;
            // The last silence asked where a hole is instead of re-sending: a
            // probe asked the server where the call's is, or an ack told it
            // where the result's is. If nothing came of it, the next silence
            // re-sends the first fragment not acknowledged.
            let mut asked = false;
            let mut result_fragments = 0u16;
            loop {
                let mut wake_at = Instant::now() + timeout;
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(RpcError::DeadlineExceeded);
                    }
                    wake_at = wake_at.min(d);
                }
                match shared.wait_on(entry, wake_at, bufs) {
                    Wait::Complete(a) => {
                        span.stamp(crate::trace::Stamp::ResultReceived);
                        return Ok(a);
                    }
                    Wait::Acked { last: true, .. } => {
                        // Only an ack covering the final fragment proves the
                        // server holds the complete call: stop sending it.
                        (whole, probes, asked) = (true, 0, false);
                        timeout = cfg.retransmit_max;
                    }
                    Wait::Acked { .. } if whole => {}
                    Wait::Acked { held, .. } => {
                        // A prefix: it opens the next window, or shows a hole.
                        match window.ack(held) {
                            Acked::Open => {
                                while let Some((index, ask)) = window.advance() {
                                    send(&mut bufs.out, index, ask)?;
                                    RpcStats::bump(&stats.fragments_sent);
                                }
                                flush(&mut bufs.out)?;
                            }
                            Acked::Hole(index) => {
                                send(&mut bufs.out, index, true)?;
                                flush(&mut bufs.out)?;
                                RpcStats::bump(&stats.retransmissions);
                            }
                            Acked::Stale => continue,
                        }
                        (transmissions, asked, timeout) = (1, false, cfg.retransmit_initial);
                    }
                    Wait::TimedOut => {
                        if progressed(entry, &mut result_fragments) {
                            (transmissions, probes, asked) = (1, 0, false);
                            timeout = cfg.retransmit_initial;
                        }
                        whole |= result_fragments > 0;
                        // Name the result's hole, unless the last silence did
                        // and nothing came of it: the server had heard that
                        // prefix, so its window starts at the hole.
                        let hole = entry.hole_ack().filter(|_| !asked);
                        if whole && hole.is_none() {
                            // The server is working on it, or is to re-send
                            // its first unacknowledged result fragment:
                            // probe, don't send the call again.
                            probes += 1;
                            if probes > 120 {
                                return Err(RpcError::CallFailed { transmissions });
                            }
                            asked = false;
                            send_probe(&mut bufs.out)?;
                            continue;
                        }
                        if transmissions >= cfg.max_transmissions {
                            return Err(RpcError::CallFailed { transmissions });
                        }
                        transmissions += 1;
                        if let Some(ack) = hole {
                            // The result has a hole: name the prefix held.
                            asked = true;
                            shared.ctx.encode_ack(&mut bufs.out, &ack, remote)?;
                            flush(&mut bufs.out)?;
                        } else if count > 1 && !asked {
                            // Where is the call's hole? The server answers a
                            // probe with the prefix it holds.
                            asked = true;
                            send_probe(&mut bufs.out)?;
                        } else {
                            // Again, with please-ack, so the server answers
                            // even while the call executes.
                            asked = false;
                            send(&mut bufs.out, window.unacked, true)?;
                            flush(&mut bufs.out)?;
                            RpcStats::bump(&stats.retransmissions);
                        }
                        // Exponential backoff with up to +25% deterministic
                        // jitter so synchronized callers spread out.
                        timeout = (timeout * 2)
                            .min(cfg.retransmit_max)
                            .mul_f64(1.0 + jitter.f64() * 0.25);
                    }
                }
            }
        };
        let outcome = wait();
        if outcome.is_err() {
            RpcStats::bump(&stats.calls_failed);
        }
        outcome
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
/// look (`seen`). They are taken in by the receiving thread without
/// waking this one, so a timer that fires mid-transfer finds its evidence
/// here: the transfer is alive, and the caller's transmission budget,
/// probe count and back-off start over — or a long result under loss
/// would be given up on while it was getting through.
fn progressed(entry: &crate::calltable::CallEntry, seen: &mut u16) -> bool {
    let now = entry.result_fragments();
    std::mem::replace(seen, now) < now
}

impl Drop for ClientInner {
    fn drop(&mut self) {
        // Explicitly acknowledge the last results so the server can free
        // its retained result packets (otherwise they wait for an implicit
        // ack that will never come), and take the slots' entries out of
        // the call table.
        let slots = std::mem::take(&mut *self.activities.free.lock());
        for mut slot in slots {
            self.shared.calls.remove(slot.activity);
            if let Some(res) = slot.last_result {
                let mut ack = firefly_wire::RpcHeader::ack_for(&res);
                // The retained result may be multi-packet and the slot
                // remembers whichever fragment's header completed the
                // call. The teardown ack must name the final fragment
                // with last-fragment set, or the server treats it as a
                // mid-transfer fragment ack and never frees retention.
                ack.fragment = ack.fragment_count.saturating_sub(1);
                ack.flags.last_fragment = true;
                let out = &mut slot.bufs.out;
                let _ = self.shared.ctx.encode_ack(out, &ack, self.remote);
                let _ = out.send(&*self.shared.ctx.transport);
            }
        }
    }
}
