//! Received packets: the one kind that outlives its datagram, and the
//! fragments read where they landed.
//!
//! Every frame is validated and read where it landed in the receiving
//! thread's datagram buffer. Only one kind of frame must outlive that
//! buffer: a single-packet call handed to a server thread, which the
//! receiving thread copies into a buffer of the server's pool and wraps
//! as a [`Packet`] — or sheds, when the pool is dry. A fragment of a
//! multi-packet call or result is a [`Fragment`]: its validated header
//! and its data borrowed where they landed, copied once, into the body.

use firefly_pool::{PacketBuf, BUFFER_SIZE};
use firefly_wire::{FrameView, PacketType, RpcHeader, DATA_OFFSET};

use crate::Result;

/// A validated received packet.
///
/// Owns the pool buffer and remembers where the data region lies, so the
/// payload can be read in place — the packet is what the demultiplexer
/// hands to a directly awakened thread, buffer and all, just as the
/// Firefly interrupt routine "attaches the buffer containing the call
/// packet to the call table entry and awakens the server thread directly".
#[derive(Debug)]
pub struct Packet {
    buf: PacketBuf,
    /// The validated RPC header.
    pub rpc: RpcHeader,
    data_len: usize,
}

impl Packet {
    /// Validates the frame held in `buf` (headers, checksum, lengths) and
    /// wraps it. `checksum` selects whether UDP checksums are verified —
    /// frames sent with checksums disabled carry a zero checksum field,
    /// which the wire layer accepts either way.
    pub fn from_buf(buf: PacketBuf) -> Result<Packet> {
        let view = FrameView::parse(&buf)?;
        let rpc = view.rpc;
        let data_len = view.data.len();
        Ok(Packet { buf, rpc, data_len })
    }

    /// Wraps `buf`, holding a copy of a frame whose validation
    /// ([`FrameView::parse`]) produced `rpc` and a data region of
    /// `data_len` bytes where it landed: the checks are not made twice.
    pub(crate) fn validated(buf: PacketBuf, rpc: RpcHeader, data_len: usize) -> Packet {
        Packet { buf, rpc, data_len }
    }

    /// The marshalled data region, in place in the pool buffer.
    pub fn data(&self) -> &[u8] {
        &self.buf[DATA_OFFSET..DATA_OFFSET + self.data_len]
    }
}

/// The most fragments handed over as one run: a window, which is as many
/// full frames as one datagram carries
/// ([`crate::transport::MAX_DATAGRAM_LEN`]). A longer run of one
/// transfer's fragments is handed over in pieces of this size.
pub const MAX_RUN: usize = crate::fragment::WINDOW as usize;

/// One fragment of a multi-packet call or result, validated where it
/// landed: its header, and its data borrowed from the datagram buffer it
/// arrived in. Reassembly copies the data from there into the body — the
/// one copy a fragment's bytes get (§3.1.3's "zero remapping/copy"
/// receive buffer; eRPC copies a multi-packet message once, from the
/// receive ring into its message buffer).
#[derive(Debug, Clone, Copy)]
pub struct Fragment<'d> {
    /// The validated RPC header.
    pub rpc: RpcHeader,
    /// The fragment's marshalled data.
    pub data: &'d [u8],
}

impl<'d> Fragment<'d> {
    /// The fragment a validated frame carries, if it is one: a Call or a
    /// Result of more than one packet.
    pub fn of(view: &FrameView<'d>) -> Option<Fragment<'d>> {
        let rpc = view.rpc;
        let transfer = matches!(rpc.packet_type, PacketType::Call | PacketType::Result);
        (transfer && rpc.fragment_count > 1).then_some(Fragment {
            rpc,
            data: view.data,
        })
    }

    /// Whether `next` belongs to the same transfer: the same activity,
    /// call and packet type.
    pub fn same_transfer(&self, next: &Fragment<'_>) -> bool {
        let (a, b) = (&self.rpc, &next.rpc);
        a.activity == b.activity && a.call_seq == b.call_seq && a.packet_type == b.packet_type
    }
}

/// A complete incoming call or result: a single packet in a pool buffer
/// (data read in place), or data its receiver holds in a buffer of its
/// own.
#[derive(Debug)]
pub enum Assembled {
    /// A single-packet call handed to a server thread: data still in the
    /// pool buffer it was copied into at receipt.
    Single(Packet),
    /// Data copied once, from the datagram it landed in, into a heap
    /// buffer of its receiver's: a reassembled multi-packet call or
    /// result, or a single-packet result in its call entry's result
    /// frame.
    Owned {
        /// Header of the packet, or of the final fragment.
        rpc: RpcHeader,
        /// The complete data.
        data: Vec<u8>,
    },
}

impl Assembled {
    /// The RPC header (of the single packet, or the final fragment).
    pub fn rpc(&self) -> &RpcHeader {
        match self {
            Assembled::Single(p) => &p.rpc,
            Assembled::Owned { rpc, .. } => rpc,
        }
    }

    /// The complete marshalled data.
    pub fn data(&self) -> &[u8] {
        match self {
            Assembled::Single(p) => p.data(),
            Assembled::Owned { data, .. } => data,
        }
    }

    /// The buffer an [`Assembled::Owned`] holds, for its receiver to use
    /// again as a one-packet result's frame; `None` for a packet, whose
    /// buffer goes back to its pool, and for a buffer bigger than a
    /// packet buffer (a reassembled result), which is freed.
    pub(crate) fn into_frame(self) -> Option<Vec<u8>> {
        match self {
            Assembled::Owned { data, .. } if data.capacity() <= BUFFER_SIZE => Some(data),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firefly_pool::BufferPool;
    use firefly_wire::{ActivityId, FrameBuilder, PacketType};

    fn packet_with_data(data: &[u8]) -> Packet {
        let frame = FrameBuilder::new(PacketType::Call)
            .activity(ActivityId::new(5, 1, 2))
            .call_seq(9)
            .build(data)
            .unwrap();
        let pool = BufferPool::new(1);
        let mut buf = pool.alloc().unwrap();
        buf.fill_from(frame.bytes());
        Packet::from_buf(buf).unwrap()
    }

    #[test]
    fn data_read_in_place() {
        let p = packet_with_data(&[1, 2, 3, 4]);
        assert_eq!(p.data(), &[1, 2, 3, 4]);
        assert_eq!(p.rpc.call_seq, 9);
    }

    #[test]
    fn corrupt_frame_rejected() {
        let frame = FrameBuilder::new(PacketType::Call).build(&[7; 16]).unwrap();
        let mut bytes = frame.into_bytes();
        bytes[80] ^= 1;
        let pool = BufferPool::new(1);
        let mut buf = pool.alloc().unwrap();
        buf.fill_from(&bytes);
        assert!(Packet::from_buf(buf).is_err());
    }

    #[test]
    fn assembled_views() {
        let p = packet_with_data(&[9, 9]);
        let rpc = p.rpc;
        let single = Assembled::Single(p);
        assert_eq!(single.data(), &[9, 9]);
        let multi = Assembled::Owned {
            rpc,
            data: vec![1, 2, 3],
        };
        assert_eq!(multi.data(), &[1, 2, 3]);
        assert_eq!(multi.rpc().call_seq, 9);
    }

    #[test]
    fn a_dropped_packet_releases_its_buffer() {
        let pool = BufferPool::new(1);
        let frame = FrameBuilder::new(PacketType::Call).build(&[]).unwrap();
        let mut buf = pool.alloc().unwrap();
        buf.fill_from(frame.bytes());
        let p = Packet::from_buf(buf).unwrap();
        assert_eq!(pool.free_count(), 0);
        drop(p);
        assert_eq!(pool.free_count(), 1);
    }
}
