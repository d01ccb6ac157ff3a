//! Splitting large calls and results into packet-sized fragments, and
//! putting them back together ([`Reassembly`], one type for both sides).
//!
//! "The RPC implementation allows arguments and results larger than 1440
//! bytes, but such larger arguments and results necessarily are
//! transmitted in multiple packets." (§2.) Both directions send them the
//! same way, through a window (the shape eRPC gives a session's packets
//! in flight, and the §4.2.5 "redesign the RPC protocol" what-if): up to
//! [`WINDOW`] fragments beyond the last acknowledged one go out back to
//! back. Only the fragment at a window's edge asks for an ack; the ack
//! names the prefix the receiver holds ([`prefix_ack`]), so it both
//! opens the next window and points at the first hole, which is all a
//! loss costs: that fragment is sent again, asking where the next hole
//! is. A transfer that fits one window sends no ack at all — the Result
//! acks the Call, the next Call acks the Result.

use firefly_idl::{ArgWriter, IdlError};
use firefly_wire::{RpcHeader, MAX_SINGLE_PACKET_DATA};

use crate::{Result, RpcError};

/// Maximum marshalled bytes a single fragment carries.
pub const MAX_FRAGMENT_DATA: usize = MAX_SINGLE_PACKET_DATA;

/// Maximum total marshalled size of one call or result.
pub const MAX_TRANSFER: usize = MAX_FRAGMENT_DATA * u16::MAX as usize;

/// Number of fragments needed for `len` bytes (at least 1 — a zero-byte
/// body still sends one packet).
pub fn fragment_count(len: usize) -> Result<u16> {
    if len > MAX_TRANSFER {
        return Err(RpcError::TooLarge(len));
    }
    Ok(len.div_ceil(MAX_FRAGMENT_DATA).max(1) as u16)
}

/// Fragment `index` of `data` (empty past its end).
pub(crate) fn chunk(data: &[u8], index: u16) -> &[u8] {
    let start = (index as usize * MAX_FRAGMENT_DATA).min(data.len());
    &data[start..(start + MAX_FRAGMENT_DATA).min(data.len())]
}

/// A sender's view of one transfer: what the receiver has acknowledged
/// holding, and what has gone out. The caller keeps one for a call, the
/// server's activity slot one for a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Window {
    /// The first fragment the receiver has not acknowledged: it holds
    /// every one below.
    pub unacked: u16,
    /// The first fragment not sent yet.
    pub next: u16,
    pub count: u16,
}

/// What an ack told a [`Window`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Acked {
    /// It holds everything sent: send what the window now lets out.
    Open,
    /// It lacks this fragment, which was sent: send it again.
    Hole(u16),
    /// It named no more than an earlier ack, or more than was sent.
    Stale,
}

impl Window {
    pub fn new(count: u16) -> Window {
        Window { unacked: 0, next: 0, count }
    }

    /// The next fragment to send for the first time, if the window lets
    /// one out, and whether it asks for an ack: only the window's edge
    /// does, and never the last fragment (the Result, or the next Call,
    /// acknowledges that).
    pub fn advance(&mut self) -> Option<(u16, bool)> {
        let edge = self.unacked.saturating_add(WINDOW).min(self.count);
        let index = self.next;
        if index >= edge {
            return None;
        }
        self.next += 1;
        Some((index, self.next == edge && self.next < self.count))
    }

    /// Takes in an ack naming a prefix of `held` fragments. Only one that
    /// names more than the last moves anything: a copy of an ack is
    /// stale, and so, indistinguishably, is a hole at the fragment the
    /// last ack opened the window at — the sender's timer finds that one.
    /// No prefix ack names the whole transfer, so `unacked` is always a
    /// fragment of it.
    pub fn ack(&mut self, held: u16) -> Acked {
        if held <= self.unacked || held > self.next || held == self.count {
            return Acked::Stale;
        }
        self.unacked = held;
        if held < self.next {
            Acked::Hole(held)
        } else {
            Acked::Open
        }
    }
}

/// The ack of `asked`, a fragment that asks for one, by the receiver
/// reassembling its transfer in `r`: it names the prefix held, as the
/// index of its last fragment. `None` while fragment 0 is missing (there
/// is no prefix to name) and once the transfer is whole (its Result, or
/// the next Call, acks it).
pub(crate) fn prefix_ack(asked: &RpcHeader, r: &Reassembly) -> Option<RpcHeader> {
    let held = r.contiguous;
    (held > 0 && held < r.count).then(|| {
        let mut ack = RpcHeader::ack_for(asked);
        ack.fragment = held - 1;
        ack.flags.last_fragment = false;
        ack
    })
}

/// The prefix a [`prefix_ack`] names: the fragments the receiver holds.
pub(crate) fn held(ack: &RpcHeader) -> u16 {
    ack.fragment.saturating_add(1)
}

/// Runs `marshal` again for an argument list that did not fit a packet
/// buffer, into a heap buffer for fragmentation (or, locally, for a
/// size-independent hand-over). `needed` is what the failed in-packet
/// attempt reported: the bytes up to and including the argument that did
/// not fit, so the first retry fits unless more arguments follow.
/// Marshalling is pure, which makes the retry safe.
pub(crate) fn marshal_spilled(
    mut marshal: impl FnMut(&mut ArgWriter<'_>) -> firefly_idl::Result<()>,
    needed: usize,
) -> Result<Vec<u8>> {
    let mut size = needed;
    loop {
        if size > MAX_TRANSFER {
            return Err(RpcError::TooLarge(size));
        }
        // lint:allow(no-alloc-on-fast-path): oversized argument lists
        // take the fragmentation slow path; single-packet calls marshal
        // straight into the pooled buffer.
        let mut big = vec![0u8; size];
        match ArgWriter::fill(&mut big, &mut marshal) {
            Ok(n) => {
                big.truncate(n);
                return Ok(big);
            }
            Err(IdlError::BufferTooSmall { needed, .. }) => size = needed.max(size * 2),
            Err(e) => return Err(e.into()),
        }
    }
}

/// How far past the fragments already buffered a fragment's index may
/// lie: the number of *holes* a reassembly tolerates below it. A window
/// in flight has one per frame lost or overtaken, and never more than
/// [`WINDOW`]. What lies further ahead is refused and comes again with
/// the sender's next retransmission.
const MAX_HOLES: usize = 32;

/// Fragments a sender puts on the wire beyond the last one acknowledged,
/// and so how often a long transfer asks for an ack: at each window's
/// edge. Chosen from a measured table of 2 / 4 / 8 / 16 (EXPERIMENTS.md,
/// "A window, not stop-and-wait"): from 4 up `blob_4f_1c`'s 5760-byte
/// body fits one window and draws no ack; a larger window stalls a long
/// body less often, but under loss a smaller one finds more of its holes
/// at an edge instead of by the caller's timer. 8 is the best or tied on
/// both counts.
pub const WINDOW: u16 = 8;

// A window's fragments are never refused for being too far ahead: the
// sender only sends past what the receiver has acknowledged holding.
const _: () = assert!(WINDOW as usize <= MAX_HOLES);

/// What [`Reassembly::accept`] made of one fragment.
#[derive(Debug, PartialEq, Eq)]
pub enum Accepted {
    /// Buffered (or already held); more fragments are missing.
    Buffered,
    /// That was the last missing fragment: the complete body.
    Complete(Vec<u8>),
    /// Inconsistent with the transfer (another count, an index outside
    /// it, a short fragment that is not the last) or too far ahead of
    /// what has arrived; nothing was buffered.
    Refused,
}

/// One multi-packet call or result being put back together, on either
/// side of the wire.
///
/// The body is a single contiguous buffer: fragment `i` is copied once,
/// to `i × MAX_FRAGMENT_DATA` (only the last fragment is short), and
/// completion hands that buffer over as it is. Memory is committed for
/// fragments *received* — at most [`MAX_HOLES`] fragments' worth beyond
/// them — never for the count or the index a header merely claims, so a
/// forged header costs its sender more than its target.
#[derive(Debug, Default)]
pub struct Reassembly {
    count: u16,
    /// Distinct fragments buffered.
    received: u16,
    /// Fragments `0..contiguous` are all buffered; `contiguous` is not.
    contiguous: u16,
    /// Length of the final fragment, once it has arrived.
    last_len: Option<usize>,
    /// One bit per fragment buffered, grown like `body`.
    have: Vec<u64>,
    body: Vec<u8>,
}

impl Reassembly {
    /// Starts reassembling a transfer of `count` fragments.
    pub fn new(count: u16) -> Reassembly {
        Reassembly {
            count,
            ..Reassembly::default()
        }
    }

    /// Distinct fragments buffered so far.
    pub fn received(&self) -> u16 {
        self.received
    }

    /// How many fragments from the first on are all buffered: the prefix
    /// an ack names, and the index of the first hole.
    pub fn contiguous(&self) -> u16 {
        self.contiguous
    }

    fn holds(&self, index: usize) -> bool {
        self.have.get(index / 64).is_some_and(|w| w & (1u64 << (index % 64)) != 0)
    }

    /// Bytes of heap this reassembly holds.
    pub fn committed(&self) -> usize {
        self.body.capacity() + self.have.capacity() * 8
    }

    /// Copies fragment `index` of a transfer claiming `count` fragments
    /// into place. Idempotent: a fragment already held is not copied
    /// again.
    pub fn accept(&mut self, index: u16, count: u16, chunk: &[u8]) -> Accepted {
        let idx = index as usize;
        let last = idx + 1 == count as usize;
        if count != self.count
            || index >= count
            || chunk.len() > MAX_FRAGMENT_DATA
            || (!last && chunk.len() != MAX_FRAGMENT_DATA)
            || idx > self.received as usize + MAX_HOLES
        {
            return Accepted::Refused;
        }
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if self.have.len() <= word {
            self.have.resize(word + 1, 0);
        }
        if self.have[word] & bit == 0 {
            let start = idx * MAX_FRAGMENT_DATA;
            if self.body.len() == start {
                // In order: one copy, nothing zeroed first.
                self.body.extend_from_slice(chunk);
            } else {
                if self.body.len() < start + chunk.len() {
                    self.body.resize(start + chunk.len(), 0);
                }
                self.body[start..start + chunk.len()].copy_from_slice(chunk);
            }
            self.have[word] |= bit;
            self.received += 1;
            if last {
                self.last_len = Some(chunk.len());
            }
            while self.contiguous < self.count && self.holds(self.contiguous as usize) {
                self.contiguous += 1;
            }
        }
        match self.last_len {
            Some(last_len) if self.received == self.count => {
                let mut body = std::mem::take(&mut self.body);
                body.truncate((self.count as usize - 1) * MAX_FRAGMENT_DATA + last_len);
                Accepted::Complete(body)
            }
            _ => Accepted::Buffered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bodies_are_one_fragment() {
        assert_eq!(fragment_count(0).unwrap(), 1);
        assert_eq!(fragment_count(1).unwrap(), 1);
        assert_eq!(fragment_count(1440).unwrap(), 1);
        assert_eq!(fragment_count(1441).unwrap(), 2);
    }

    /// Every `(index, chunk)` of `data`, as a sender sends them.
    fn fragments(data: &[u8]) -> Vec<(u16, &[u8])> {
        (0..fragment_count(data.len()).unwrap()).map(|i| (i, chunk(data, i))).collect()
    }

    #[test]
    fn fragments_cover_data_exactly() {
        let data: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
        let parts = fragments(&data);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].1.len(), 1440);
        assert_eq!(parts[1].1.len(), 1440);
        assert_eq!(parts[2].1.len(), 1120);
        let rejoined: Vec<u8> = parts.iter().flat_map(|(_, c)| c.iter().copied()).collect();
        assert_eq!(rejoined, data);
        assert_eq!(parts[2].0, 2);
        assert!(chunk(&data, 3).is_empty(), "past the end");
    }

    #[test]
    fn empty_data_yields_one_empty_fragment() {
        let parts = fragments(&[]);
        assert_eq!(parts.len(), 1);
        assert!(parts[0].1.is_empty());
    }

    #[test]
    fn a_window_asks_only_at_its_edge_and_never_on_the_last_fragment() {
        let sent = |w: &mut Window| std::iter::from_fn(|| w.advance()).collect::<Vec<_>>();
        // A transfer that fits one window asks for nothing.
        let mut w = Window::new(4);
        assert_eq!(sent(&mut w), [(0, false), (1, false), (2, false), (3, false)]);
        // A longer one asks at each edge; an ack of the edge opens the
        // next window, which ends at the last fragment.
        let n = WINDOW + 3;
        let mut w = Window::new(n);
        let first = sent(&mut w);
        assert_eq!(first.len(), WINDOW as usize);
        assert!(first.iter().all(|&(i, ask)| ask == (i + 1 == WINDOW)));
        assert_eq!(w.ack(WINDOW), Acked::Open);
        // A copy of that ack, arriving after the next window went out,
        // moves nothing and sends nothing.
        assert_eq!(sent(&mut w), [(WINDOW, false), (WINDOW + 1, false), (WINDOW + 2, false)]);
        assert_eq!(w.ack(WINDOW), Acked::Stale);
        assert_eq!((w.unacked, w.next), (WINDOW, WINDOW + 3));
    }

    #[test]
    fn an_ack_short_of_what_was_sent_names_the_hole() {
        let mut w = Window::new(WINDOW * 2);
        while w.advance().is_some() {}
        // Fragment 2 lost: the edge's ack names two.
        assert_eq!(w.ack(2), Acked::Hole(2));
        // A copy of that report is stale: the hole was sent again once
        // (if that is lost too, the sender's timer finds it).
        assert_eq!(w.ack(2), Acked::Stale);
        // An older ack, or one claiming what was never sent, is stale.
        assert_eq!(w.ack(1), Acked::Stale);
        assert_eq!(w.ack(WINDOW + 1), Acked::Stale);
        assert_eq!(Window { unacked: 0, next: 3, count: 3 }.ack(3), Acked::Stale, "the whole");
        assert_eq!(w.unacked, 2);
        // The hole filled, everything sent is held: the window moves on.
        assert_eq!(w.ack(WINDOW), Acked::Open);
        assert_eq!(w.advance(), Some((WINDOW, false)));
    }

    #[test]
    fn oversize_rejected() {
        assert!(matches!(
            fragment_count(MAX_TRANSFER + 1),
            Err(RpcError::TooLarge(_))
        ));
    }

    fn body(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn reassembles_in_any_order_and_ignores_duplicates() {
        let data = body(4000);
        let parts = fragments(&data);
        for order in [[0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]] {
            let mut r = Reassembly::new(3);
            for (n, &i) in order.iter().enumerate() {
                let (index, chunk) = parts[i];
                // Every fragment but the completing one twice.
                if n < 2 {
                    assert_eq!(r.accept(index, 3, chunk), Accepted::Buffered);
                    assert_eq!(r.accept(index, 3, chunk), Accepted::Buffered);
                    assert_eq!(r.received() as usize, n + 1);
                } else {
                    assert_eq!(r.accept(index, 3, chunk), Accepted::Complete(data.clone()));
                }
            }
        }
    }

    #[test]
    fn inconsistent_fragments_are_refused_and_change_nothing() {
        let full = [7u8; MAX_FRAGMENT_DATA];
        let mut r = Reassembly::new(3);
        assert_eq!(r.accept(0, 3, &full), Accepted::Buffered);
        assert_eq!(r.accept(7, 3, &full), Accepted::Refused); // Outside.
        assert_eq!(r.accept(1, 5, &full), Accepted::Refused); // Other count.
        assert_eq!(r.accept(1, 3, &full[..9]), Accepted::Refused); // Short middle.
        assert_eq!(r.received(), 1);
        assert_eq!(r.accept(1, 3, &full), Accepted::Buffered);
        assert_eq!(r.accept(2, 3, &[1, 2]), Accepted::Complete({
            let mut all = full.repeat(2);
            all.extend([1, 2]);
            all
        }));
    }

    #[test]
    fn a_forged_header_commits_memory_for_what_arrived_not_what_it_claims() {
        // ROADMAP robustness (1): one cheap packet claiming the largest
        // transfer there is (94 MB) must not make its target reserve it.
        let chunk = [0u8; MAX_FRAGMENT_DATA];
        let mut lone = Reassembly::new(u16::MAX);
        assert_eq!(lone.accept(0, u16::MAX, &chunk), Accepted::Buffered);
        assert!(lone.committed() < 64 * 1024, "committed {}", lone.committed());
        // Nor by claiming to be the far end of it: that is refused, and
        // the furthest index a lone packet can have accepted stays small.
        let mut far = Reassembly::new(u16::MAX);
        assert_eq!(far.accept(u16::MAX - 1, u16::MAX, &[1]), Accepted::Refused);
        assert_eq!(far.accept(4000, u16::MAX, &chunk), Accepted::Refused);
        assert_eq!(far.committed(), 0);
        assert_eq!(far.accept(MAX_HOLES as u16, u16::MAX, &chunk), Accepted::Buffered);
        assert!(far.committed() < 64 * 1024, "committed {}", far.committed());
        // Memory follows the fragments received: a thousand of them hold
        // their 1.4 MB (doubling growth, so at most twice that).
        let mut long = Reassembly::new(u16::MAX);
        for i in 0..1000 {
            assert_eq!(long.accept(i, u16::MAX, &chunk), Accepted::Buffered);
        }
        assert!(long.committed() <= 2 * 1001 * MAX_FRAGMENT_DATA + 1024);
    }

    #[test]
    fn a_window_with_holes_is_buffered_up_to_the_hole_limit() {
        let chunk = [3u8; MAX_FRAGMENT_DATA];
        let mut r = Reassembly::new(200);
        // Fragment 0 lost; the rest of a blasted window arrives.
        for i in 1..100 {
            assert_eq!(r.accept(i, 200, &chunk), Accepted::Buffered, "fragment {i}");
        }
        assert_eq!(r.received(), 99);
        assert_eq!(r.contiguous(), 0, "the hole is fragment 0");
        assert_eq!(r.accept(0, 200, &chunk), Accepted::Buffered);
        assert_eq!(r.contiguous(), 100);
    }

    #[test]
    fn contiguous_is_the_prefix_held_and_points_at_the_first_hole() {
        let chunk = [5u8; MAX_FRAGMENT_DATA];
        let mut r = Reassembly::new(5);
        for (index, prefix) in [(0, 1), (2, 1), (2, 1), (4, 1), (1, 3), (3, 5)] {
            let chunk = if index == 4 { &chunk[..7] } else { &chunk[..] };
            let _ = r.accept(index, 5, chunk);
            assert_eq!(r.contiguous(), prefix, "after fragment {index}");
        }
        // Refused fragments move nothing.
        let mut r = Reassembly::new(3);
        assert_eq!(r.accept(1, 3, &chunk[..9]), Accepted::Refused);
        assert_eq!(r.contiguous(), 0);
    }

    #[test]
    fn a_prefix_ack_names_what_is_held_and_only_while_there_is_a_prefix() {
        let chunk = [5u8; MAX_FRAGMENT_DATA];
        let asked = RpcHeader {
            fragment: 2,
            fragment_count: 3,
            ..RpcHeader::call(Default::default(), 1, 7, 1, 0, MAX_FRAGMENT_DATA)
        };
        let mut r = Reassembly::new(3);
        let _ = r.accept(2, 3, &chunk[..4]);
        assert_eq!(prefix_ack(&asked, &r), None, "fragment 0 is the hole");
        let _ = r.accept(0, 3, &chunk);
        let ack = prefix_ack(&asked, &r).expect("a prefix of one");
        assert_eq!((held(&ack), ack.fragment_count), (1, 3));
        assert!(!ack.flags.last_fragment && !ack.flags.please_ack);
        assert!(matches!(r.accept(1, 3, &chunk), Accepted::Complete(_)));
        assert_eq!(prefix_ack(&asked, &r), None, "whole: the Result acks it");
    }
}
