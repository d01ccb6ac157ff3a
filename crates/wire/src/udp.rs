//! The 8-byte UDP header and the end-to-end UDP checksum.
//!
//! Firefly RPC calculates and verifies UDP checksums in software on every
//! packet: 45 µs for a minimal packet and 440 µs for a maximal one
//! (Table VI). §4.2.4 of the paper estimates that omitting them would save
//! 180 µs on `Null()` and 1000 µs on `MaxResult(b)`, but keeps them because
//! "the Ethernet controller occasionally makes errors after checking the
//! Ethernet CRC". Encoding here therefore supports both checksummed and
//! checksum-disabled (zero) modes so the harness can measure the same
//! trade-off.

use crate::checksum::Checksum;
use crate::ip::Ipv4Header;
use crate::{Result, WireError};

/// Length in bytes of an encoded UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// The well-known UDP port this stack uses for the RPC packet exchange
/// protocol (arbitrary; the historical implementation used a Taos-specific
/// port).
pub const RPC_UDP_PORT: u16 = 3072;

/// A UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of UDP header plus data, in bytes.
    pub length: u16,
    /// Transmitted checksum; zero means "not computed".
    pub checksum: u16,
}

impl UdpHeader {
    /// Builds a header for `data_len` bytes of payload between the RPC
    /// ports.
    pub fn rpc(data_len: usize) -> Self {
        UdpHeader {
            src_port: RPC_UDP_PORT,
            dst_port: RPC_UDP_PORT,
            length: (UDP_HEADER_LEN + data_len) as u16,
            checksum: 0,
        }
    }

    /// Encodes the header and, when `with_checksum` is set, computes the
    /// UDP checksum over the pseudo-header (from `ip`), this header and
    /// `data`, storing it in the checksum field.
    #[inline]
    pub fn encode(
        &self,
        out: &mut [u8],
        ip: &Ipv4Header,
        data: &[u8],
        with_checksum: bool,
    ) -> Result<()> {
        if out.len() < UDP_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: UDP_HEADER_LEN,
                available: out.len(),
            });
        }
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..6].copy_from_slice(&self.length.to_be_bytes());
        out[6..8].copy_from_slice(&[0, 0]);
        if with_checksum {
            let mut c = Checksum::new();
            ip.add_pseudo_header(&mut c, self.length);
            c.add_bytes(&out[..6]);
            c.add_bytes(&[0, 0]);
            c.add_bytes(data);
            let sum = c.finish_udp();
            out[6..8].copy_from_slice(&sum.to_be_bytes());
        }
        Ok(())
    }

    /// Decodes a header from the front of `bytes` without verifying the
    /// checksum (use [`UdpHeader::verify_checksum`] for that).
    #[inline]
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        match bytes.first_chunk() {
            Some(header) => Ok(Self::read(header)),
            None => Err(WireError::Truncated {
                needed: UDP_HEADER_LEN,
                available: bytes.len(),
            }),
        }
    }

    /// Reads the header's fields; nothing here can fail.
    #[inline]
    pub(crate) fn read(b: &[u8; UDP_HEADER_LEN]) -> Self {
        UdpHeader {
            src_port: u16::from_be_bytes([b[0], b[1]]),
            dst_port: u16::from_be_bytes([b[2], b[3]]),
            length: u16::from_be_bytes([b[4], b[5]]),
            checksum: u16::from_be_bytes([b[6], b[7]]),
        }
    }

    /// Verifies the UDP checksum over pseudo-header, header and data.
    ///
    /// A transmitted checksum of zero means the sender did not compute one;
    /// per RFC 768 the packet is then accepted without verification (this is
    /// exactly the §4.2.4 "omit UDP checksums" mode).
    #[inline]
    pub fn verify_checksum(&self, ip: &Ipv4Header, header_bytes: &[u8], data: &[u8]) -> Result<()> {
        if self.checksum == 0 {
            return Ok(());
        }
        let mut c = Checksum::new();
        ip.add_pseudo_header(&mut c, self.length);
        c.add_bytes(&header_bytes[..UDP_HEADER_LEN]);
        c.add_bytes(data);
        // Including the transmitted checksum, the sum must fold to zero
        // (finish() returns the complement, so a valid packet yields 0).
        if c.finish() != 0 {
            return Err(self.bad_checksum(ip, header_bytes, data));
        }
        Ok(())
    }

    /// The error for a sum that does not fold to zero: the checksum the
    /// sender should have stored. Out of line, so the check that passes
    /// carries none of it.
    #[cold]
    #[inline(never)]
    pub(crate) fn bad_checksum(
        &self,
        ip: &Ipv4Header,
        header_bytes: &[u8],
        data: &[u8],
    ) -> WireError {
        let mut c = Checksum::new();
        ip.add_pseudo_header(&mut c, self.length);
        c.add_bytes(&header_bytes[..6]);
        c.add_bytes(&[0, 0]);
        c.add_bytes(data);
        WireError::BadUdpChecksum {
            found: self.checksum,
            computed: c.finish_udp(),
        }
    }

    /// Returns the payload length implied by the header.
    pub fn data_len(&self) -> usize {
        (self.length as usize).saturating_sub(UDP_HEADER_LEN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip_for(data_len: usize) -> Ipv4Header {
        Ipv4Header::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            UDP_HEADER_LEN + data_len,
            7,
        )
    }

    #[test]
    fn round_trip_with_checksum() {
        let data = b"firefly rpc payload";
        let ip = ip_for(data.len());
        let h = UdpHeader::rpc(data.len());
        let mut buf = [0u8; UDP_HEADER_LEN];
        h.encode(&mut buf, &ip, data, true).unwrap();
        let d = UdpHeader::decode(&buf).unwrap();
        assert_eq!(d.src_port, RPC_UDP_PORT);
        assert_eq!(d.data_len(), data.len());
        assert_ne!(d.checksum, 0);
        d.verify_checksum(&ip, &buf, data).unwrap();
    }

    #[test]
    fn corrupt_data_detected() {
        let mut data = *b"firefly rpc payload!";
        let ip = ip_for(data.len());
        let h = UdpHeader::rpc(data.len());
        let mut buf = [0u8; UDP_HEADER_LEN];
        h.encode(&mut buf, &ip, &data, true).unwrap();
        data[3] ^= 0x40;
        let d = UdpHeader::decode(&buf).unwrap();
        assert!(matches!(
            d.verify_checksum(&ip, &buf, &data),
            Err(WireError::BadUdpChecksum { .. })
        ));
    }

    #[test]
    fn corrupt_pseudo_header_detected() {
        // A packet delivered to the wrong IP destination must fail the
        // end-to-end check even though header and data are intact.
        let data = b"abcd";
        let ip = ip_for(data.len());
        let h = UdpHeader::rpc(data.len());
        let mut buf = [0u8; UDP_HEADER_LEN];
        h.encode(&mut buf, &ip, data, true).unwrap();
        let wrong_ip = Ipv4Header::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 99),
            UDP_HEADER_LEN + data.len(),
            7,
        );
        let d = UdpHeader::decode(&buf).unwrap();
        assert!(d.verify_checksum(&wrong_ip, &buf, data).is_err());
    }

    #[test]
    fn disabled_checksum_accepts_anything() {
        let data = b"unchecked";
        let ip = ip_for(data.len());
        let h = UdpHeader::rpc(data.len());
        let mut buf = [0u8; UDP_HEADER_LEN];
        h.encode(&mut buf, &ip, data, false).unwrap();
        let d = UdpHeader::decode(&buf).unwrap();
        assert_eq!(d.checksum, 0);
        d.verify_checksum(&ip, &buf, b"completely different")
            .unwrap();
    }

    #[test]
    fn empty_payload_checksums() {
        let ip = ip_for(0);
        let h = UdpHeader::rpc(0);
        let mut buf = [0u8; UDP_HEADER_LEN];
        h.encode(&mut buf, &ip, &[], true).unwrap();
        let d = UdpHeader::decode(&buf).unwrap();
        d.verify_checksum(&ip, &buf, &[]).unwrap();
        assert_eq!(d.data_len(), 0);
    }
}
