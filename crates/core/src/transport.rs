//! Transports: how frames reach the other machine.
//!
//! "Firefly RPC allows choosing from several different transport mechanisms
//! at RPC bind time" (§3.1). The runtime is written against the
//! [`Transport`] trait; the choice is made when an [`Endpoint`] is created
//! and when a [`Client`] binds.
//!
//! * [`UdpTransport`] sends frames — each with its own Ethernet, IP, UDP
//!   and RPC headers and checksum — as the payload of real UDP datagrams.
//!   The inner headers are redundant with the host stack's, but they keep
//!   every byte the paper counts observable and checksummed end to end.
//!   A datagram carries one frame, or the frames of one
//!   [`Transport::send_batch`] that go to one destination, back to back,
//!   up to [`MAX_DATAGRAM_LEN`]: a whole window of a multi-packet call or
//!   result ([`WINDOW`] full fragments), or a burst of small results.
//!   The receiver walks a datagram frame by frame by each inner IP
//!   header's total length. Over loopback a window datagram costs one
//!   send and one receive instead of one per fragment; over a real link
//!   the kernel IP-fragments it to the link's MTU, and losing any piece
//!   loses the whole window. Recovery is then what it is for any lost
//!   window: the caller's timer and the prefix ack find the holes, one
//!   fragment per round trip (docs/PROTOCOL.md).
//! * [`LoopbackNet`] is an in-process Ethernet segment: deterministic,
//!   instant delivery, with injectable loss, duplication, corruption and
//!   delay for protocol tests (the paper's §5 "lost packet" pathology is
//!   reproduced this way). It sends a batch frame by frame, so its faults
//!   strike single fragments. Each station draws its frames' faults from
//!   its own stream, seeded from the segment's seed and the station id,
//!   so how one station's frames fare does not depend on when the other
//!   stations send.
//!
//! [`Endpoint`]: crate::Endpoint
//! [`Client`]: crate::Client
//! [`WINDOW`]: crate::fragment::WINDOW

use firefly_rng::Rng;
use firefly_sync::channel::{unbounded, Receiver, Sender};
use firefly_sync::Mutex;
use firefly_wire::MAX_FRAME_LEN;
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The most a datagram carries: one window of full fragments, 12 112
/// bytes, well under UDP's 65 507. A thread that receives does so into a
/// buffer this large.
pub const MAX_DATAGRAM_LEN: usize = crate::fragment::WINDOW as usize * MAX_FRAME_LEN;

/// The frame of `len` bytes at offset `at` of a batch's bytes.
fn framed(bytes: &[u8], at: usize, len: usize) -> io::Result<&[u8]> {
    let overrun = || io::Error::new(io::ErrorKind::InvalidInput, "frame lengths overrun the batch");
    bytes.get(at..at.saturating_add(len)).ok_or_else(overrun)
}

/// A datagram-style transport carrying complete RPC frames.
pub trait Transport: Send + Sync + 'static {
    /// Sends one frame to the destination endpoint.
    fn send(&self, frame: &[u8], dst: SocketAddr) -> io::Result<()>;

    /// Blocks until a frame arrives; copies it into `buf` and returns its
    /// length and source address.
    ///
    /// Returns an error of kind [`io::ErrorKind::ConnectionAborted`] after
    /// [`Transport::shutdown`].
    fn recv(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)>;

    /// Nonblocking receive: copies an already-arrived frame into `buf`
    /// and returns its length and source, or `Ok(None)` when nothing is
    /// waiting right now.
    ///
    /// The demultiplexer uses this to drain a burst of datagrams after
    /// each blocking [`Transport::recv`], amortizing the wakeup across
    /// the burst. The default implementation reports nothing waiting,
    /// which degrades batching transports back to one blocking receive
    /// per frame — correct for any transport that cannot poll.
    fn try_recv(&self, buf: &mut [u8]) -> io::Result<Option<(usize, SocketAddr)>> {
        let _ = buf;
        Ok(None)
    }

    /// Sends a batch of frames, stopping at the first error. The frames
    /// lie back to back in `bytes`; `frames` gives each one's length and
    /// destination, in order.
    ///
    /// The default implementation sends them one [`Transport::send`] at a
    /// time; transports with a cheaper aggregate path can override it.
    fn send_batch(&self, bytes: &[u8], frames: &[(usize, SocketAddr)]) -> io::Result<()> {
        let mut at = 0;
        for &(len, dst) in frames {
            self.send(framed(bytes, at, len)?, dst)?;
            at += len;
        }
        Ok(())
    }

    /// The address remote endpoints should send to.
    fn local_addr(&self) -> SocketAddr;

    /// Unblocks any thread in [`Transport::recv`] permanently.
    fn shutdown(&self);
}

fn aborted() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionAborted, "transport shut down")
}

// ---------------------------------------------------------------------
// UDP.
// ---------------------------------------------------------------------

/// The system calls a [`UdpTransport`] has made, by kind, since it was
/// bound: what a call costs in the kernel, counted where it is paid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdpCounts {
    /// Datagrams handed to `sendto` (the shutdown poison excepted).
    pub datagrams_sent: u64,
    /// Datagrams a `recvfrom` returned, blocking or not.
    pub datagrams_received: u64,
    /// Nonblocking receives that found nothing waiting.
    pub empty_polls: u64,
    /// `set_nonblocking` calls: the socket changing hands between a
    /// polling thread and the blocking resident receiver.
    pub mode_flips: u64,
}

/// A [`Transport`] over a real UDP socket.
pub struct UdpTransport {
    socket: UdpSocket,
    addr: SocketAddr,
    down: AtomicBool,
    /// Cached nonblocking mode so the batched-drain path pays the
    /// `fcntl` syscall only when the mode actually changes, not per
    /// `try_recv`.
    nonblocking: AtomicBool,
    // The fields of `UdpCounts`: statistics, so `Relaxed`.
    sent: AtomicU64,
    received: AtomicU64,
    empty_polls: AtomicU64,
    mode_flips: AtomicU64,
}

impl UdpTransport {
    /// Binds to the given address (use port 0 for an ephemeral port).
    pub fn bind(addr: SocketAddr) -> io::Result<Arc<UdpTransport>> {
        let socket = UdpSocket::bind(addr)?;
        let addr = socket.local_addr()?;
        // lint:allow(no-alloc-on-fast-path): once per socket, at bind.
        Ok(Arc::new(UdpTransport {
            socket,
            addr,
            down: AtomicBool::new(false),
            nonblocking: AtomicBool::new(false),
            sent: AtomicU64::new(0),
            received: AtomicU64::new(0),
            empty_polls: AtomicU64::new(0),
            mode_flips: AtomicU64::new(0),
        }))
    }

    /// Binds to an ephemeral localhost port.
    pub fn localhost() -> io::Result<Arc<UdpTransport>> {
        Self::bind(SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)))
    }

    /// The system calls made so far.
    pub fn counts(&self) -> UdpCounts {
        UdpCounts {
            datagrams_sent: self.sent.load(Ordering::Relaxed),
            datagrams_received: self.received.load(Ordering::Relaxed),
            empty_polls: self.empty_polls.load(Ordering::Relaxed),
            mode_flips: self.mode_flips.load(Ordering::Relaxed),
        }
    }

    fn set_mode(&self, nonblocking: bool) -> io::Result<()> {
        if self.nonblocking.swap(nonblocking, Ordering::AcqRel) != nonblocking {
            self.mode_flips.fetch_add(1, Ordering::Relaxed);
            self.socket.set_nonblocking(nonblocking)?;
        }
        Ok(())
    }
}

impl Transport for UdpTransport {
    fn send(&self, frame: &[u8], dst: SocketAddr) -> io::Result<()> {
        // `set_nonblocking` affects the whole socket, so a send racing
        // the demux's nonblocking drain can observe WouldBlock when the
        // kernel send buffer is momentarily full; retry after yielding
        // (UDP sends never otherwise block for long).
        loop {
            match self.socket.send_to(frame, dst) {
                Ok(_) => {
                    self.sent.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => return Err(e),
            }
        }
    }

    fn recv(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        loop {
            if self.down.load(Ordering::Acquire) {
                return Err(aborted());
            }
            self.set_mode(false)?;
            let (n, src) = match self.socket.recv_from(buf) {
                Ok(r) => r,
                // A concurrent try_recv may flip the socket nonblocking
                // between our set_mode and the recv syscall.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => return Err(e),
            };
            if self.down.load(Ordering::Acquire) {
                return Err(aborted());
            }
            // Zero-length datagrams are the shutdown poison; real frames
            // are at least 74 bytes.
            if n > 0 {
                self.received.fetch_add(1, Ordering::Relaxed);
                return Ok((n, src));
            }
        }
    }

    fn try_recv(&self, buf: &mut [u8]) -> io::Result<Option<(usize, SocketAddr)>> {
        loop {
            if self.down.load(Ordering::Acquire) {
                return Err(aborted());
            }
            self.set_mode(true)?;
            match self.socket.recv_from(buf) {
                Ok((n, src)) if n > 0 => {
                    self.received.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some((n, src)));
                }
                Ok(_) => continue, // shutdown poison while still up: skip
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.empty_polls.fetch_add(1, Ordering::Relaxed);
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Packs each run of consecutive frames to one destination into as
    /// few datagrams of at most [`MAX_DATAGRAM_LEN`] bytes as it fits,
    /// each sent straight from `bytes` — no staging copy.
    ///
    /// Each RPC frame carries its own Ethernet/IP/UDP/RPC headers with a
    /// self-describing IP total length, so a receiver can walk the
    /// datagram with [`firefly_wire::coalesced_frame_len`] and recover
    /// every frame boundary. One `sendto`/`recvfrom` pair then carries a
    /// window of a multi-packet transfer, or a burst of results, instead
    /// of one pair per frame — the same observation that drives the
    /// paper's §4 "fewer packets" arguments. A lone frame is one datagram.
    fn send_batch(&self, bytes: &[u8], frames: &[(usize, SocketAddr)]) -> io::Result<()> {
        // The run being packed: `bytes[start..end]`, all to `dst`.
        let (mut start, mut end) = (0, 0);
        let mut dst = None;
        for &(len, to) in frames {
            if dst != Some(to) || end - start + len > MAX_DATAGRAM_LEN {
                if let Some(d) = dst.filter(|_| end > start) {
                    self.send(framed(bytes, start, end - start)?, d)?;
                }
                (start, dst) = (end, Some(to));
            }
            end += len;
        }
        match dst.filter(|_| end > start) {
            Some(d) => self.send(framed(bytes, start, end - start)?, d),
            None => Ok(()),
        }
    }

    fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn shutdown(&self) {
        self.down.store(true, Ordering::Release);
        // Poison the socket so a blocked recv wakes up: a zero-length
        // datagram from the socket to itself, which is routable whatever
        // family (or wildcard) it is bound to.
        let _ = self.socket.send_to(&[], self.addr);
    }
}

// ---------------------------------------------------------------------
// In-process loopback Ethernet with fault injection.
// ---------------------------------------------------------------------

/// Fault-injection plan for a [`LoopbackNet`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability a frame is silently dropped.
    pub loss: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability one byte of the frame is flipped in transit.
    pub corrupt: f64,
    /// Fixed extra delivery delay.
    pub delay: Option<Duration>,
}

enum Msg {
    Frame(Vec<u8>, SocketAddr),
    Shutdown,
}

struct NetInner {
    stations: Mutex<HashMap<SocketAddr, Sender<Msg>>>,
    faults: Mutex<FaultPlan>,
    seed: u64,
    frames_sent: AtomicU64,
    frames_dropped: AtomicU64,
}

/// An in-process "private Ethernet" connecting any number of stations.
///
/// The paper's timings "were done with the two Fireflies attached to a
/// private Ethernet to eliminate variance due to other network traffic";
/// this is that private segment, with deterministic fault injection on
/// top.
#[derive(Clone)]
pub struct LoopbackNet {
    inner: Arc<NetInner>,
}

impl Default for LoopbackNet {
    fn default() -> Self {
        Self::new()
    }
}

impl LoopbackNet {
    /// Creates an empty segment with no faults and a fixed RNG seed.
    pub fn new() -> LoopbackNet {
        Self::with_seed(0x5eed_f1ef)
    }

    /// Creates a segment whose stations' fault streams derive from the
    /// given seed.
    pub fn with_seed(seed: u64) -> LoopbackNet {
        LoopbackNet {
            // lint:allow(no-alloc-on-fast-path): once per simulated
            // segment, before any traffic.
            inner: Arc::new(NetInner {
                stations: Mutex::new(HashMap::new()),
                faults: Mutex::new(FaultPlan::default()),
                seed,
                frames_sent: AtomicU64::new(0),
                frames_dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Installs a fault plan affecting all subsequent frames.
    pub fn set_faults(&self, plan: FaultPlan) {
        *self.inner.faults.lock() = plan;
    }

    /// Total frames offered to the segment.
    pub fn frames_sent(&self) -> u64 {
        self.inner.frames_sent.load(Ordering::Relaxed)
    }

    /// Frames dropped by loss injection.
    pub fn frames_dropped(&self) -> u64 {
        self.inner.frames_dropped.load(Ordering::Relaxed)
    }

    /// Attaches a new station with the given small id; its address is
    /// `10.0.0.<id>:3072`.
    ///
    /// # Panics
    ///
    /// Panics if the id is 0 or already attached.
    pub fn station(&self, id: u8) -> Arc<LoopbackStation> {
        assert!(id != 0, "station id 0 is reserved");
        let addr = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, id), 3072));
        let (tx, rx) = unbounded();
        let mut stations = self.inner.stations.lock();
        assert!(
            !stations.contains_key(&addr),
            "station {id} already attached"
        );
        stations.insert(addr, tx);
        let mut state = u64::from(id);
        let rng = Mutex::new(Rng::new(self.inner.seed ^ firefly_rng::splitmix64(&mut state)));
        // lint:allow(no-alloc-on-fast-path): once per station attached,
        // before any traffic.
        Arc::new(LoopbackStation {
            // lint:allow(no-alloc-on-fast-path): station attach is test
            // topology setup, run once before traffic starts.
            net: self.clone(),
            addr,
            rx,
            rng,
            down: AtomicBool::new(false),
        })
    }

    /// Offers `frame` from `src` to `dst`, drawing its faults from the
    /// sending station's `rng`.
    fn deliver(
        &self,
        frame: &[u8],
        src: SocketAddr,
        dst: SocketAddr,
        rng: &Mutex<Rng>,
    ) -> io::Result<()> {
        self.inner.frames_sent.fetch_add(1, Ordering::Relaxed);
        // lint:allow(no-alloc-on-fast-path): LoopbackNet is the simulated
        // Ethernet for tests; it copies the frame so fault injection can
        // corrupt or duplicate it without aliasing the sender's buffer.
        let plan = self.inner.faults.lock().clone();
        // lint:allow(no-alloc-on-fast-path): see above — simulation copy.
        let mut frame = frame.to_vec();
        let copies = {
            let mut rng = rng.lock();
            if plan.loss > 0.0 && rng.f64() < plan.loss {
                self.inner.frames_dropped.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            if plan.corrupt > 0.0 && rng.f64() < plan.corrupt && !frame.is_empty() {
                let i = rng.range_usize(0..frame.len());
                frame[i] ^= 0x01;
            }
            if plan.duplicate > 0.0 && rng.f64() < plan.duplicate {
                2
            } else {
                1
            }
        };
        let tx = {
            let stations = self.inner.stations.lock();
            match stations.get(&dst) {
                // lint:allow(no-alloc-on-fast-path): cloning the channel
                // sender lets the stations lock drop before delivery.
                Some(tx) => tx.clone(),
                None => {
                    // Like a real Ethernet: frames to absent stations vanish.
                    self.inner.frames_dropped.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
            }
        };
        let send_one = move |tx: Sender<Msg>, frame: Vec<u8>| {
            if let Some(d) = plan.delay {
                std::thread::spawn(move || {
                    // lint:allow(no-sleep-in-lib): fault injection — the
                    // sleep models in-flight latency on the simulated
                    // net, on a thread spawned for that purpose.
                    std::thread::sleep(d);
                    let _ = tx.send(Msg::Frame(frame, src));
                });
            } else {
                let _ = tx.send(Msg::Frame(frame, src));
            }
        };
        for _ in 0..copies - 1 {
            // lint:allow(no-alloc-on-fast-path): duplicate-delivery fault
            // injection; each copy needs its own frame buffer.
            send_one(tx.clone(), frame.clone());
        }
        send_one(tx, frame);
        Ok(())
    }
}

fn copy_msg(msg: Msg, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
    match msg {
        Msg::Frame(frame, src) => {
            let n = frame.len().min(buf.len());
            buf[..n].copy_from_slice(&frame[..n]);
            Ok((n, src))
        }
        Msg::Shutdown => Err(aborted()),
    }
}

/// One station attached to a [`LoopbackNet`].
pub struct LoopbackStation {
    net: LoopbackNet,
    addr: SocketAddr,
    rx: Receiver<Msg>,
    /// This station's fault stream.
    rng: Mutex<Rng>,
    down: AtomicBool,
}

impl Transport for LoopbackStation {
    fn send(&self, frame: &[u8], dst: SocketAddr) -> io::Result<()> {
        if self.down.load(Ordering::Acquire) {
            return Err(aborted());
        }
        self.net.deliver(frame, self.addr, dst, &self.rng)
    }

    fn recv(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        match self.rx.recv() {
            Ok(msg) => copy_msg(msg, buf),
            Err(_) => Err(aborted()),
        }
    }

    fn try_recv(&self, buf: &mut [u8]) -> io::Result<Option<(usize, SocketAddr)>> {
        match self.rx.try_recv() {
            Ok(Some(msg)) => copy_msg(msg, buf).map(Some),
            Ok(None) => Ok(None),
            Err(_) => Err(aborted()),
        }
    }

    fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn shutdown(&self) {
        self.down.store(true, Ordering::Release);
        let stations = self.net.inner.stations.lock();
        if let Some(tx) = stations.get(&self.addr) {
            let _ = tx.send(Msg::Shutdown);
        }
    }
}

impl Drop for LoopbackStation {
    fn drop(&mut self) {
        self.net.inner.stations.lock().remove(&self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_delivers_frames() {
        let net = LoopbackNet::new();
        let a = net.station(1);
        let b = net.station(2);
        a.send(b"hello", b.local_addr()).unwrap();
        let mut buf = [0u8; 64];
        let (n, src) = b.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
        assert_eq!(src, a.local_addr());
    }

    #[test]
    fn loopback_loss_drops_everything_at_probability_one() {
        let net = LoopbackNet::new();
        let a = net.station(1);
        let b = net.station(2);
        net.set_faults(FaultPlan {
            loss: 1.0,
            ..FaultPlan::default()
        });
        for _ in 0..5 {
            a.send(b"x", b.local_addr()).unwrap();
        }
        assert_eq!(net.frames_dropped(), 5);
        assert_eq!(net.frames_sent(), 5);
    }

    #[test]
    fn loopback_duplication() {
        let net = LoopbackNet::new();
        let a = net.station(1);
        let b = net.station(2);
        net.set_faults(FaultPlan {
            duplicate: 1.0,
            ..FaultPlan::default()
        });
        a.send(b"dup", b.local_addr()).unwrap();
        let mut buf = [0u8; 8];
        assert!(b.recv(&mut buf).is_ok());
        assert!(b.recv(&mut buf).is_ok());
    }

    #[test]
    fn loopback_corruption_flips_a_byte() {
        let net = LoopbackNet::new();
        let a = net.station(1);
        let b = net.station(2);
        net.set_faults(FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::default()
        });
        a.send(&[0u8; 16], b.local_addr()).unwrap();
        let mut buf = [0u8; 16];
        let (n, _) = b.recv(&mut buf).unwrap();
        assert_eq!(n, 16);
        assert_eq!(buf.iter().filter(|&&x| x != 0).count(), 1);
    }

    #[test]
    fn loopback_shutdown_unblocks_recv() {
        let net = LoopbackNet::new();
        let a = net.station(1);
        let a2 = Arc::clone(&a);
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 8];
            a2.recv(&mut buf)
        });
        firefly_sync::test_sleep();
        a.shutdown();
        assert!(t.join().unwrap().is_err());
    }

    #[test]
    fn frames_to_unknown_stations_vanish() {
        let net = LoopbackNet::new();
        let a = net.station(1);
        let ghost = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 99), 3072));
        a.send(b"?", ghost).unwrap();
        assert_eq!(net.frames_dropped(), 1);
    }

    #[test]
    fn udp_round_trip() {
        let a = UdpTransport::localhost().unwrap();
        let b = UdpTransport::localhost().unwrap();
        a.send(b"over udp", b.local_addr()).unwrap();
        let mut buf = [0u8; 64];
        let (n, src) = b.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"over udp");
        assert_eq!(src, a.local_addr());
    }

    fn shutdown_unblocks_recv(t: Arc<UdpTransport>) {
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            let mut buf = [0u8; 64];
            t2.recv(&mut buf)
        });
        firefly_sync::test_sleep();
        t.shutdown();
        assert!(h.join().unwrap().is_err());
    }

    #[test]
    fn udp_shutdown_unblocks_recv() {
        shutdown_unblocks_recv(UdpTransport::localhost().unwrap());
        shutdown_unblocks_recv(UdpTransport::bind("0.0.0.0:0".parse().unwrap()).unwrap());
        // The poison used to come from a fresh 127.0.0.1 socket, which
        // cannot send to `[::1]`: the receiver stayed blocked for good.
        match UdpTransport::bind("[::1]:0".parse().unwrap()) {
            Ok(v6) => shutdown_unblocks_recv(v6),
            Err(e) => eprintln!("skipped: this host has no IPv6 loopback ({e})"),
        }
    }

    #[test]
    fn loopback_try_recv_drains_then_reports_empty() {
        let net = LoopbackNet::new();
        let a = net.station(1);
        let b = net.station(2);
        a.send(b"one", b.local_addr()).unwrap();
        a.send(b"two", b.local_addr()).unwrap();
        let mut buf = [0u8; 8];
        let (n, _) = b.try_recv(&mut buf).unwrap().unwrap();
        assert_eq!(&buf[..n], b"one");
        let (n, _) = b.try_recv(&mut buf).unwrap().unwrap();
        assert_eq!(&buf[..n], b"two");
        assert!(b.try_recv(&mut buf).unwrap().is_none());
    }

    #[test]
    fn udp_try_recv_drains_then_reports_empty() {
        let a = UdpTransport::localhost().unwrap();
        let b = UdpTransport::localhost().unwrap();
        a.send(b"first", b.local_addr()).unwrap();
        a.send(b"second", b.local_addr()).unwrap();
        let mut buf = [0u8; 64];
        // A blocking recv first: delivery to a bound socket is not
        // instantaneous, and recv also exercises the mode switch back.
        let (n, _) = b.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"first");
        // The second datagram is already queued (UDP preserves order on
        // loopback), so the nonblocking drain must find it — poll
        // briefly to absorb scheduler jitter.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match b.try_recv(&mut buf).unwrap() {
                Some((n, src)) => {
                    assert_eq!(&buf[..n], b"second");
                    assert_eq!(src, a.local_addr());
                    break;
                }
                None => {
                    assert!(std::time::Instant::now() < deadline, "datagram never arrived");
                    std::thread::yield_now();
                }
            }
        }
        assert!(b.try_recv(&mut buf).unwrap().is_none());
        // And a blocking recv still works after the nonblocking drain.
        a.send(b"third", b.local_addr()).unwrap();
        let (n, _) = b.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"third");
        // Every system call was counted: the socket went nonblocking for
        // the drain and back for the last receive.
        let counts = b.counts();
        assert_eq!((counts.datagrams_received, counts.mode_flips), (3, 2), "{counts:?}");
        assert!(counts.empty_polls >= 1, "{counts:?}");
        assert_eq!(a.counts().datagrams_sent, 3);
    }

    /// `frames` laid out as [`Transport::send_batch`] takes them.
    fn batch(frames: &[(&[u8], SocketAddr)]) -> (Vec<u8>, Vec<(usize, SocketAddr)>) {
        let bytes = frames.iter().flat_map(|(f, _)| f.iter().copied()).collect();
        (bytes, frames.iter().map(|&(f, dst)| (f.len(), dst)).collect())
    }

    #[test]
    fn send_batch_default_sends_every_frame() {
        let net = LoopbackNet::new();
        let a = net.station(1);
        let b = net.station(2);
        let dst = b.local_addr();
        let (bytes, frames) = batch(&[(b"x", dst), (b"yz", dst)]);
        a.send_batch(&bytes, &frames).unwrap();
        let mut buf = [0u8; 8];
        let (n, _) = b.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"x");
        let (n, _) = b.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"yz");
        // Lengths that overrun the bytes are refused, not read past.
        assert!(a.send_batch(b"short", &[(9, dst)]).is_err());
    }

    #[test]
    fn udp_send_batch_coalesces_same_destination_frames() {
        use firefly_wire::{coalesced_frame_len, FrameBuilder, PacketType, MIN_FRAME_LEN};
        let a = UdpTransport::localhost().unwrap();
        let b = UdpTransport::localhost().unwrap();
        let f1 = FrameBuilder::new(PacketType::Result).build(&[]).unwrap();
        let f2 = FrameBuilder::new(PacketType::Result).build(&[5; 8]).unwrap();
        let dst = b.local_addr();
        let (bytes, frames) = batch(&[(f1.bytes(), dst), (f2.bytes(), dst)]);
        a.send_batch(&bytes, &frames).unwrap();
        // Both frames arrive in ONE datagram, back to back.
        let mut buf = [0u8; MAX_DATAGRAM_LEN];
        let (n, _) = b.recv(&mut buf).unwrap();
        assert_eq!(n, f1.len() + f2.len());
        let first = coalesced_frame_len(&buf[..n]).unwrap();
        assert_eq!(first, MIN_FRAME_LEN);
        let second = coalesced_frame_len(&buf[first..n]).unwrap();
        assert_eq!(first + second, n);
        let (sent, received) = (a.counts(), b.counts());
        assert_eq!((sent.datagrams_sent, received.datagrams_received), (1, 1));
    }

    #[test]
    fn udp_send_batch_flushes_on_destination_change() {
        use firefly_wire::{FrameBuilder, PacketType, MIN_FRAME_LEN};
        let a = UdpTransport::localhost().unwrap();
        let b = UdpTransport::localhost().unwrap();
        let c = UdpTransport::localhost().unwrap();
        let f = FrameBuilder::new(PacketType::Result).build(&[]).unwrap();
        let (bytes, frames) = batch(&[
            (f.bytes(), b.local_addr()),
            (f.bytes(), c.local_addr()),
            (f.bytes(), b.local_addr()),
        ]);
        a.send_batch(&bytes, &frames).unwrap();
        let mut buf = [0u8; MAX_DATAGRAM_LEN];
        // b gets two separate datagrams (the run was broken by c's frame).
        assert_eq!(b.recv(&mut buf).unwrap().0, MIN_FRAME_LEN);
        assert_eq!(b.recv(&mut buf).unwrap().0, MIN_FRAME_LEN);
        assert_eq!(c.recv(&mut buf).unwrap().0, MIN_FRAME_LEN);
        assert_eq!(a.counts().datagrams_sent, 3);
    }

    #[test]
    fn udp_send_batch_splits_at_datagram_capacity() {
        use crate::fragment::WINDOW;
        use firefly_wire::{FrameBuilder, PacketType, MAX_SINGLE_PACKET_DATA};
        let a = UdpTransport::localhost().unwrap();
        let b = UdpTransport::localhost().unwrap();
        let small = FrameBuilder::new(PacketType::Result).build(&[]).unwrap();
        let max = FrameBuilder::new(PacketType::Result)
            .build(&vec![0u8; MAX_SINGLE_PACKET_DATA])
            .unwrap();
        let dst = b.local_addr();
        // A window of full frames fills a datagram exactly; one more frame
        // of any size starts the next.
        let mut frames = vec![(max.bytes(), dst); WINDOW as usize];
        frames.push((small.bytes(), dst));
        let (bytes, frames) = batch(&frames);
        a.send_batch(&bytes, &frames).unwrap();
        let mut buf = [0u8; MAX_DATAGRAM_LEN + 1];
        assert_eq!(b.recv(&mut buf).unwrap().0, MAX_DATAGRAM_LEN);
        assert_eq!(b.recv(&mut buf).unwrap().0, small.len());
        assert_eq!(a.counts().datagrams_sent, 2);
    }

    #[test]
    fn a_datagram_of_forty_frames_is_processed_whole() {
        use firefly_wire::{ActivityId, FrameBuilder, PacketType, MIN_FRAME_LEN};
        // Forty results for calls nobody made: each is processed — and
        // orphaned — on its own. A receiver that kept at most twenty
        // frames of a datagram dropped the rest.
        let socket = UdpTransport::localhost().unwrap();
        let endpoint = crate::Endpoint::new(socket, crate::Config::default()).unwrap();
        let peer = UdpTransport::localhost().unwrap();
        let frames: Vec<_> = (0..40u16)
            .map(|i| {
                let frame = FrameBuilder::new(PacketType::Result)
                    .activity(ActivityId::new(9, 1, i + 1))
                    .call_seq(1)
                    .build(&[])
                    .unwrap();
                (frame.into_bytes(), endpoint.address())
            })
            .collect();
        let frames: Vec<_> = frames.iter().map(|(f, dst)| (&f[..], *dst)).collect();
        let (bytes, frames) = batch(&frames);
        assert_eq!(bytes.len(), 40 * MIN_FRAME_LEN);
        peer.send_batch(&bytes, &frames).unwrap();
        assert_eq!(peer.counts().datagrams_sent, 1);
        let stats = endpoint.stats();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while stats.orphan_results() < 40 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(stats.orphan_results(), 40, "stats:\n{stats}");
        assert_eq!(stats.validation_drops(), 0, "stats:\n{stats}");
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn duplicate_station_rejected() {
        let net = LoopbackNet::new();
        let _a = net.station(1);
        let _b = net.station(1);
    }
}
