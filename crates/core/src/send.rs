//! Frame construction and transmission shared by caller and server paths.
//!
//! This is the runtime's `Sender` procedure (§3.1.3): it fills in the
//! Ethernet, IP and UDP headers — including the software UDP checksum —
//! around marshalled data and hands the frame to the bound transport.

use crate::stats::RpcStats;
use crate::trace::Tracer;
use crate::transport::Transport;
use crate::Result;
use firefly_sync::Mutex;
use firefly_wire::{FrameBuilder, MacAddr, PacketType, RpcHeader, DATA_OFFSET};
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicBool, AtomicU16, Ordering};
use std::sync::Arc;

/// Derives a deterministic locally-administered MAC for a socket address.
pub(crate) fn mac_for(addr: &SocketAddr) -> MacAddr {
    let mut h: u32 = 0x811c_9dc5;
    let mut eat = |b: u8| {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    };
    match addr.ip() {
        IpAddr::V4(v4) => v4.octets().iter().copied().for_each(&mut eat),
        IpAddr::V6(v6) => v6.octets().iter().copied().for_each(&mut eat),
    }
    addr.port().to_be_bytes().iter().copied().for_each(&mut eat);
    MacAddr::from_host_id(h)
}

/// The IPv4 address used in the inner IP header for an endpoint.
pub(crate) fn ipv4_of(addr: &SocketAddr) -> Ipv4Addr {
    match addr.ip() {
        IpAddr::V4(v4) => v4,
        // The inner header is IPv4-only; synthesize a stable stand-in.
        IpAddr::V6(_) => Ipv4Addr::new(10, 255, 255, 254),
    }
}

/// Frames laid back to back for one [`Transport::send_batch`]: their
/// bytes, and each one's length and destination. Whoever sends through
/// one owns it and reuses it, so it allocates only while it grows past
/// the largest batch it has carried.
#[derive(Default)]
pub(crate) struct Batch {
    bytes: Vec<u8>,
    frames: Vec<(usize, SocketAddr)>,
}

impl Batch {
    /// Frames queued.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Queues a copy of `frame`.
    pub fn push(&mut self, frame: &[u8], dst: SocketAddr) {
        self.bytes.extend_from_slice(frame);
        self.frames.push((frame.len(), dst));
    }

    /// Queues the frame `builder` makes around `data`, encoded in place.
    pub fn encode(&mut self, builder: &FrameBuilder, data: &[u8], dst: SocketAddr) -> Result<()> {
        let start = self.bytes.len();
        self.bytes.resize(start + DATA_OFFSET, 0);
        self.bytes.extend_from_slice(data);
        match builder.encode_into(&mut self.bytes[start..], data.len()) {
            Ok(len) => {
                self.frames.push((len, dst));
                Ok(())
            }
            Err(e) => {
                self.bytes.truncate(start);
                Err(e.into())
            }
        }
    }

    /// Hands every queued frame to `transport` in one
    /// [`Transport::send_batch`] and empties the batch, whatever the
    /// outcome.
    pub fn send(&mut self, transport: &dyn Transport) -> std::io::Result<()> {
        if self.is_empty() {
            return Ok(());
        }
        let sent = transport.send_batch(&self.bytes, &self.frames);
        self.bytes.clear();
        self.frames.clear();
        sent
    }
}

/// Call frames queued by concurrent caller threads for one combined
/// transmission (see [`SendCtx::send_call`]).
#[derive(Default)]
struct Combined {
    queued: Batch,
    /// The batch the active sender ships from, swapped with `queued` so
    /// enqueuers keep a queue while it is in the send syscall; empty
    /// here whenever nobody is sending.
    shipping: Batch,
    /// True while one caller thread drains the queue through the
    /// transport. Enqueuers seeing this return immediately; the active
    /// sender re-checks the queue before clearing the flag, so no
    /// enqueued frame is ever stranded.
    sending: bool,
}

/// Everything needed to build and send frames from one endpoint.
pub(crate) struct SendCtx {
    pub transport: Arc<dyn Transport>,
    pub stats: Arc<RpcStats>,
    /// Per-call step tracer (the live latency account); rides here so
    /// both the caller path and the server path reach it through the
    /// context they already hold.
    pub tracer: Tracer,
    pub src_mac: MacAddr,
    pub src_ip: Ipv4Addr,
    /// Server-side protocol-transition witness (protocol.toml rows the
    /// demux/server handlers took); the caller-side rows live on the
    /// call table's one witness. Relaxed counters, safe under any lock.
    pub witness: crate::witness::ProtocolWitness,
    ip_ident: AtomicU16,
    combiner: Mutex<Combined>,
    /// Set when the last combiner drain shipped more than one frame —
    /// concurrent callers are in flight, so the next sender opens a
    /// brief combining window before shipping. Cleared by a drain that
    /// found only its own frame, so an uncontended caller never pays
    /// the window's scheduler hop.
    combining_hot: AtomicBool,
}

impl SendCtx {
    pub fn new(
        transport: Arc<dyn Transport>,
        stats: Arc<RpcStats>,
        trace_capacity: usize,
    ) -> SendCtx {
        let addr = transport.local_addr();
        SendCtx {
            src_mac: mac_for(&addr),
            src_ip: ipv4_of(&addr),
            transport,
            stats,
            tracer: Tracer::new(trace_capacity),
            witness: crate::witness::ProtocolWitness::default(),
            ip_ident: AtomicU16::new(1),
            combiner: Mutex::new(Combined::default()),
            combining_hot: AtomicBool::new(false),
        }
    }

    /// Demux hint: one datagram carried frames for several activities,
    /// so several local threads are about to be woken near-simultaneously
    /// (batched results wake their callers back-to-back). Arms the
    /// combining window for the next sender; a drain that finds only
    /// its own frame disarms it again. A window of one transfer wakes one
    /// thread and arms nothing.
    pub fn note_batched_delivery(&self) {
        self.combining_hot.store(true, Ordering::Relaxed);
    }

    /// Whether the next sender opens the combining window.
    #[cfg(test)]
    pub fn combining(&self) -> bool {
        self.combining_hot.load(Ordering::Relaxed)
    }

    /// Transmits a call frame through the flat-combining sender.
    ///
    /// Concurrent caller threads on one endpoint enqueue their call
    /// frames under a short critical section; exactly one becomes the
    /// sender and ships everything queued in one
    /// [`Transport::send_batch`] call, which coalesces consecutive
    /// same-destination frames into shared datagrams (the receiving
    /// demux splits them back apart). While the sender sits in the send
    /// syscall more callers can enqueue, so under true parallelism k
    /// calls share one syscall; an uncontended caller degenerates to an
    /// immediate single-frame send.
    ///
    /// Within one activity calls are strictly sequential (the caller
    /// blocks for its result), so combining never reorders an
    /// activity's calls.
    pub fn send_call(&self, frame: &[u8], dst: SocketAddr) -> Result<()> {
        let mut q = self.combiner.lock();
        q.queued.push(frame, dst);
        if q.sending {
            // The active sender's re-check loop picks this frame up
            // before it clears `sending`; that is as good as sent.
            return Ok(());
        }
        self.drain_combiner(q)
    }

    /// Becomes the sender: repeatedly takes the queued frames, ships
    /// them with the lock released, and re-checks for frames enqueued
    /// during the syscall, so nothing is ever stranded behind the
    /// `sending` flag.
    fn drain_combiner<'a>(
        &'a self,
        mut q: firefly_sync::MutexGuard<'a, Combined>,
    ) -> Result<()> {
        q.sending = true;
        // Combining window, opened only while callers are observably
        // concurrent (`combining_hot`): coalesced result delivery wakes
        // several callers back-to-back, so the first one to reach the
        // transport yields once before shipping — long enough for
        // just-woken peers to marshal and enqueue their next call,
        // turning k near-simultaneous calls into one datagram. A lone
        // caller keeps the flag cold and ships immediately.
        if self.combining_hot.load(Ordering::Relaxed) {
            drop(q);
            std::thread::yield_now();
            q = self.combiner.lock();
        }
        // The queued frames ship from a batch of their own, swapped out
        // of the lock, so the queue stays usable while this thread is in
        // the send syscall; both batches keep their capacity, and the
        // emptied one goes back when the queue is found empty.
        let mut shipping = std::mem::take(&mut q.shipping);
        let mut outcome = Ok(());
        let mut max_batch = 0;
        loop {
            std::mem::swap(&mut shipping, &mut q.queued);
            drop(q);
            max_batch = max_batch.max(shipping.len());
            if let Err(e) = shipping.send(&*self.transport) {
                // Report the failure to the sender; enqueuers already
                // returned and rely on retransmission, exactly as for a
                // frame lost on the wire.
                outcome = Err(e.into());
            }
            q = self.combiner.lock();
            if q.queued.is_empty() {
                q.shipping = shipping;
                self.combining_hot.store(max_batch > 1, Ordering::Relaxed);
                q.sending = false;
                return outcome;
            }
        }
    }

    /// Starts a frame builder addressed to `dst` with this endpoint's
    /// identity filled in; the frame carries a UDP checksum.
    pub fn builder(&self, packet_type: PacketType, dst: SocketAddr) -> FrameBuilder {
        FrameBuilder::new(packet_type)
            .macs(self.src_mac, mac_for(&dst))
            .ips(self.src_ip, ipv4_of(&dst))
            .ip_ident(self.ip_ident.fetch_add(1, Ordering::Relaxed))
    }

    /// Starts a builder whose RPC header fields are copied from `hdr`.
    pub fn builder_from(&self, hdr: &RpcHeader, dst: SocketAddr) -> FrameBuilder {
        self.builder(hdr.packet_type, dst)
            .activity(hdr.activity)
            .call_seq(hdr.call_seq)
            .fragment(hdr.fragment, hdr.fragment_count)
            .interface(hdr.interface_uid, hdr.interface_version)
            .procedure(hdr.procedure)
            .please_ack(hdr.flags.please_ack)
            .acks_result(hdr.flags.acks_result)
            .call_failed(hdr.flags.call_failed)
    }

    /// Queues on `out` an explicit acknowledgement described by `ack`,
    /// to go to the transport with the rest of the batch.
    pub fn encode_ack(&self, out: &mut Batch, ack: &RpcHeader, dst: SocketAddr) -> Result<()> {
        out.encode(&self.builder_from(ack, dst), &[], dst)?;
        RpcStats::bump(&self.stats.acks_sent);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macs_are_stable_and_distinct() {
        let a: SocketAddr = "10.0.0.1:3072".parse().unwrap();
        let b: SocketAddr = "10.0.0.2:3072".parse().unwrap();
        assert_eq!(mac_for(&a), mac_for(&a));
        assert_ne!(mac_for(&a), mac_for(&b));
        assert_ne!(mac_for(&a), mac_for(&"10.0.0.1:3073".parse().unwrap()));
    }

    #[test]
    fn builder_from_copies_every_header_field() {
        use firefly_wire::{ActivityId, Frame, PacketFlags, PacketType, RpcHeader};
        let stats = Arc::new(RpcStats::default());
        let a: SocketAddr = "127.0.0.1:9".parse().unwrap();
        // A loopback-ish transport stub is unnecessary: build the frame
        // and parse it back directly.
        struct Nop(SocketAddr);
        impl Transport for Nop {
            fn send(&self, _f: &[u8], _d: SocketAddr) -> std::io::Result<()> {
                Ok(())
            }
            fn recv(&self, _b: &mut [u8]) -> std::io::Result<(usize, SocketAddr)> {
                Err(std::io::Error::other("nop"))
            }
            fn local_addr(&self) -> SocketAddr {
                self.0
            }
            fn shutdown(&self) {}
        }
        let ctx = SendCtx::new(Arc::new(Nop(a)), stats, 8);
        let hdr = RpcHeader {
            packet_type: PacketType::Result,
            flags: PacketFlags {
                please_ack: true,
                last_fragment: false,
                acks_result: true,
                call_failed: true,
            },
            activity: ActivityId::new(7, 8, 9),
            call_seq: 1234,
            fragment: 2,
            fragment_count: 5,
            interface_uid: 0xabcd,
            interface_version: 3,
            procedure: 11,
            data_len: 4,
        };
        let dst: SocketAddr = "127.0.0.1:10".parse().unwrap();
        let frame = ctx.builder_from(&hdr, dst).build(&[1, 2, 3, 4]).unwrap();
        let parsed = Frame::parse(frame.bytes()).unwrap();
        assert_eq!(parsed.rpc, hdr);
    }

    #[test]
    fn ipv4_passthrough() {
        let a: SocketAddr = "192.168.7.9:99".parse().unwrap();
        assert_eq!(ipv4_of(&a), Ipv4Addr::new(192, 168, 7, 9));
        let v6: SocketAddr = "[::1]:99".parse().unwrap();
        assert_eq!(ipv4_of(&v6), Ipv4Addr::new(10, 255, 255, 254));
    }
}
