//! The 20-byte IPv4 header (no options), as used under Firefly RPC.
//!
//! The paper's protocol is "built on IP/UDP" so that RPCs can cross IP
//! gateways (§4.2.6 weighs removing this layering and estimates it would
//! save only ~100 µs per RPC). Firefly RPC never sends IP options, so the
//! header is always 20 bytes.

use crate::checksum::{internet_checksum, Checksum};
use crate::{Result, WireError};
use std::net::Ipv4Addr;

/// Length in bytes of an encoded IPv4 header without options.
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol number for UDP.
pub const PROTO_UDP: u8 = 17;

/// Default time-to-live for transmitted RPC packets.
pub const DEFAULT_TTL: u8 = 32;

/// An IPv4 header with no options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Total length of IP header plus payload, in bytes.
    pub total_len: u16,
    /// Datagram identification (used only for diagnostics; RPC packets are
    /// never fragmented at the IP layer — the RPC layer fragments instead).
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol; always [`PROTO_UDP`] for RPC.
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Builds a UDP-carrying header for a payload of `udp_len` bytes.
    pub fn udp(src: Ipv4Addr, dst: Ipv4Addr, udp_len: usize, ident: u16) -> Self {
        Ipv4Header {
            total_len: (IPV4_HEADER_LEN + udp_len) as u16,
            ident,
            ttl: DEFAULT_TTL,
            protocol: PROTO_UDP,
            src,
            dst,
        }
    }

    /// Encodes the header, computing the header checksum, into the first
    /// [`IPV4_HEADER_LEN`] bytes of `out`.
    #[inline]
    pub fn encode(&self, out: &mut [u8]) -> Result<()> {
        if out.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: IPV4_HEADER_LEN,
                available: out.len(),
            });
        }
        out[0] = 0x45; // Version 4, IHL 5.
        out[1] = 0; // DSCP/ECN.
        out[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        out[4..6].copy_from_slice(&self.ident.to_be_bytes());
        out[6..8].copy_from_slice(&[0x40, 0x00]); // Don't fragment.
        out[8] = self.ttl;
        out[9] = self.protocol;
        out[10..12].copy_from_slice(&[0, 0]); // Checksum placeholder.
        out[12..16].copy_from_slice(&self.src.octets());
        out[16..20].copy_from_slice(&self.dst.octets());
        let c = internet_checksum(&out[..IPV4_HEADER_LEN]);
        out[10..12].copy_from_slice(&c.to_be_bytes());
        Ok(())
    }

    /// Decodes a header from the front of `bytes`, verifying the version,
    /// header length and header checksum.
    #[inline]
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let Some(header) = bytes.first_chunk() else {
            return Err(WireError::Truncated {
                needed: IPV4_HEADER_LEN,
                available: bytes.len(),
            });
        };
        Self::check(header)?;
        Ok(Self::read(header))
    }

    /// The checks [`Ipv4Header::decode`] makes of a whole header: version
    /// and header length, then the header checksum.
    #[inline]
    pub(crate) fn check(b: &[u8; IPV4_HEADER_LEN]) -> Result<()> {
        if b[0] != 0x45 {
            return Err(WireError::BadIpHeader(b[0]));
        }
        if internet_checksum(b) != 0 {
            return Err(bad_checksum(b));
        }
        Ok(())
    }

    /// Reads the header's fields; nothing here can fail.
    #[inline]
    pub(crate) fn read(b: &[u8; IPV4_HEADER_LEN]) -> Self {
        Ipv4Header {
            total_len: u16::from_be_bytes([b[2], b[3]]),
            ident: u16::from_be_bytes([b[4], b[5]]),
            ttl: b[8],
            protocol: b[9],
            src: Ipv4Addr::new(b[12], b[13], b[14], b[15]),
            dst: Ipv4Addr::new(b[16], b[17], b[18], b[19]),
        }
    }

    /// Decodes and additionally requires the payload protocol to be UDP.
    #[inline]
    pub fn decode_udp(bytes: &[u8]) -> Result<Self> {
        let h = Self::decode(bytes)?;
        if h.protocol != PROTO_UDP {
            return Err(WireError::NotUdp(h.protocol));
        }
        Ok(h)
    }

    /// Adds this header's IPv4 pseudo-header contribution (source,
    /// destination, protocol, UDP length) to a UDP checksum accumulator.
    #[inline]
    pub fn add_pseudo_header(&self, c: &mut Checksum, udp_len: u16) {
        c.add_bytes(&self.src.octets());
        c.add_bytes(&self.dst.octets());
        c.add_word(u16::from(self.protocol));
        c.add_word(udp_len);
    }
}

/// The error for a header whose sum does not fold to zero: what its
/// checksum field holds and what it should. Out of line, so the check
/// that passes carries none of it.
#[cold]
#[inline(never)]
fn bad_checksum(b: &[u8; IPV4_HEADER_LEN]) -> WireError {
    let mut c = Checksum::new();
    c.add_bytes(&b[..10]);
    c.add_bytes(&[0, 0]);
    c.add_bytes(&b[12..]);
    WireError::BadIpChecksum {
        found: u16::from_be_bytes([b[10], b[11]]),
        computed: c.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header::udp(
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(192, 168, 1, 20),
            48,
            0x1234,
        )
    }

    #[test]
    fn round_trip() {
        let h = sample();
        let mut buf = [0u8; IPV4_HEADER_LEN];
        h.encode(&mut buf).unwrap();
        assert_eq!(Ipv4Header::decode(&buf).unwrap(), h);
    }

    #[test]
    fn checksum_detects_corruption() {
        let h = sample();
        let mut buf = [0u8; IPV4_HEADER_LEN];
        h.encode(&mut buf).unwrap();
        buf[16] ^= 0x01; // Flip a destination-address bit.
        assert!(matches!(
            Ipv4Header::decode(&buf),
            Err(WireError::BadIpChecksum { .. })
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let h = sample();
        let mut buf = [0u8; IPV4_HEADER_LEN];
        h.encode(&mut buf).unwrap();
        buf[0] = 0x46; // IHL 6 — options present, unsupported.
        assert_eq!(Ipv4Header::decode(&buf), Err(WireError::BadIpHeader(0x46)));
    }

    #[test]
    fn total_len_covers_header_and_payload() {
        let h = Ipv4Header::udp(Ipv4Addr::LOCALHOST, Ipv4Addr::LOCALHOST, 100, 1);
        assert_eq!(h.total_len as usize, IPV4_HEADER_LEN + 100);
    }

    #[test]
    fn non_udp_rejected_by_strict_decode() {
        let mut h = sample();
        h.protocol = 6; // TCP.
        let mut buf = [0u8; IPV4_HEADER_LEN];
        h.encode(&mut buf).unwrap();
        assert_eq!(Ipv4Header::decode_udp(&buf), Err(WireError::NotUdp(6)));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            Ipv4Header::decode(&[0x45; 19]),
            Err(WireError::Truncated { .. })
        ));
    }
}
