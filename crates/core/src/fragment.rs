//! Splitting large calls and results into packet-sized fragments, and
//! putting them back together ([`Reassembly`], one type for both sides).
//!
//! "The RPC implementation allows arguments and results larger than 1440
//! bytes, but such larger arguments and results necessarily are
//! transmitted in multiple packets." (§2.) Following Birrell–Nelson,
//! every fragment except the last is sent stop-and-wait: it carries the
//! please-ack flag and the sender waits for the explicit acknowledgement
//! before sending the next, so no more than one packet per call is ever
//! outstanding without an ack. (The batching ablation,
//! `Config::fragment_blast`, replaces the caller's stop-and-wait with a
//! back-to-back window blast; see `Client::transact_blast`.)

use firefly_idl::{ArgWriter, IdlError};
use firefly_wire::MAX_SINGLE_PACKET_DATA;

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

/// Iterates `(index, chunk)` fragments of `data`.
pub fn fragments(data: &[u8]) -> impl Iterator<Item = (u16, &[u8])> {
    let count = data.len().div_ceil(MAX_FRAGMENT_DATA).max(1);
    (0..count).map(move |i| {
        let start = i * MAX_FRAGMENT_DATA;
        let end = (start + MAX_FRAGMENT_DATA).min(data.len());
        (i as u16, &data[start..end])
    })
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
/// lie: the number of *holes* a reassembly tolerates below it. In-order
/// (stop-and-wait) traffic has none; a blasted window has one per frame
/// lost or overtaken. What lies further ahead is refused and comes
/// again with the sender's next retransmission.
const MAX_HOLES: usize = 32;

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

    #[test]
    fn fragments_cover_data_exactly() {
        let data: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
        let parts: Vec<_> = fragments(&data).collect();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].1.len(), 1440);
        assert_eq!(parts[1].1.len(), 1440);
        assert_eq!(parts[2].1.len(), 1120);
        let rejoined: Vec<u8> = parts.iter().flat_map(|(_, c)| c.iter().copied()).collect();
        assert_eq!(rejoined, data);
        assert_eq!(parts[2].0, 2);
    }

    #[test]
    fn empty_data_yields_one_empty_fragment() {
        let parts: Vec<_> = fragments(&[]).collect();
        assert_eq!(parts.len(), 1);
        assert!(parts[0].1.is_empty());
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
        let parts: Vec<_> = fragments(&data).collect();
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
    }
}
