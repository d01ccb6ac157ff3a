//! The 14-byte Ethernet (DIX) frame header.
//!
//! The Fireflies in the paper were attached to a 10 megabit/second Ethernet
//! through a DEQNA controller. An Ethernet frame carries a 6-byte
//! destination address, 6-byte source address, and a 2-byte EtherType. The
//! frame check sequence is generated and checked by the controller and is
//! not represented here (the paper's 74- and 1514-byte frame sizes also
//! exclude it).

use crate::{Result, WireError};

/// Length in bytes of an encoded Ethernet header.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Builds a locally administered unicast address from a small host id,
    /// convenient for simulated machines.
    ///
    /// # Examples
    ///
    /// ```
    /// use firefly_wire::MacAddr;
    /// let a = MacAddr::from_host_id(7);
    /// assert!(!a.is_broadcast());
    /// ```
    pub fn from_host_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Returns true if this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }
}

impl core::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// EtherType values this stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4, `0x0800` — all Firefly RPC packets.
    Ipv4,
    /// Any other value, preserved for diagnostics.
    Other(u16),
}

impl EtherType {
    /// Returns the 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Other(v) => v,
        }
    }

    /// Interprets a 16-bit wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            other => EtherType::Other(other),
        }
    }
}

/// The Ethernet header: destination, source, EtherType.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// Payload type; IPv4 for all RPC traffic.
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Builds an IPv4 header between two stations.
    pub fn ipv4(src: MacAddr, dst: MacAddr) -> Self {
        EthernetHeader {
            dst,
            src,
            ethertype: EtherType::Ipv4,
        }
    }

    /// Encodes the header into the first [`ETHERNET_HEADER_LEN`] bytes of
    /// `out`.
    pub fn encode(&self, out: &mut [u8]) -> Result<()> {
        if out.len() < ETHERNET_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: ETHERNET_HEADER_LEN,
                available: out.len(),
            });
        }
        out[0..6].copy_from_slice(&self.dst.0);
        out[6..12].copy_from_slice(&self.src.0);
        out[12..14].copy_from_slice(&self.ethertype.to_u16().to_be_bytes());
        Ok(())
    }

    /// Decodes a header from the front of `bytes`.
    #[inline]
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        match bytes.first_chunk() {
            Some(header) => Ok(Self::read(header)),
            None => Err(WireError::Truncated {
                needed: ETHERNET_HEADER_LEN,
                available: bytes.len(),
            }),
        }
    }

    /// Reads the header's fields; nothing here can fail.
    #[inline]
    pub(crate) fn read(b: &[u8; ETHERNET_HEADER_LEN]) -> Self {
        EthernetHeader {
            dst: MacAddr([b[0], b[1], b[2], b[3], b[4], b[5]]),
            src: MacAddr([b[6], b[7], b[8], b[9], b[10], b[11]]),
            ethertype: EtherType::from_u16(u16::from_be_bytes([b[12], b[13]])),
        }
    }

    /// Decodes and additionally requires the payload to be IPv4.
    #[inline]
    pub fn decode_ipv4(bytes: &[u8]) -> Result<Self> {
        let h = Self::decode(bytes)?;
        match h.ethertype {
            EtherType::Ipv4 => Ok(h),
            other => Err(WireError::NotIpv4(other.to_u16())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = EthernetHeader::ipv4(MacAddr::from_host_id(1), MacAddr::from_host_id(2));
        let mut buf = [0u8; ETHERNET_HEADER_LEN];
        h.encode(&mut buf).unwrap();
        assert_eq!(EthernetHeader::decode(&buf).unwrap(), h);
    }

    #[test]
    fn encode_needs_room() {
        let h = EthernetHeader::ipv4(MacAddr::default(), MacAddr::BROADCAST);
        let mut buf = [0u8; 13];
        assert!(matches!(
            h.encode(&mut buf),
            Err(WireError::Truncated { needed: 14, .. })
        ));
    }

    #[test]
    fn non_ipv4_rejected_by_strict_decode() {
        let h = EthernetHeader {
            dst: MacAddr::BROADCAST,
            src: MacAddr::from_host_id(3),
            ethertype: EtherType::Other(0x0806), // ARP.
        };
        let mut buf = [0u8; ETHERNET_HEADER_LEN];
        h.encode(&mut buf).unwrap();
        assert_eq!(
            EthernetHeader::decode_ipv4(&buf),
            Err(WireError::NotIpv4(0x0806))
        );
    }

    #[test]
    fn host_ids_are_distinct() {
        assert_ne!(MacAddr::from_host_id(1), MacAddr::from_host_id(2));
        assert_eq!(MacAddr::from_host_id(9), MacAddr::from_host_id(9));
    }

    #[test]
    fn display_format() {
        assert_eq!(
            MacAddr([1, 2, 3, 4, 5, 0xff]).to_string(),
            "01:02:03:04:05:ff"
        );
    }

    #[test]
    fn ethertype_round_trip() {
        for v in [0x0800u16, 0x0806, 0x86dd, 0] {
            assert_eq!(EtherType::from_u16(v).to_u16(), v);
        }
    }
}
