//! The 32-byte Firefly RPC packet header.
//!
//! The RPC packet exchange protocol "follows closely the design described
//! by Birrell and Nelson for Cedar RPC" (§3.1) and "uses implicit
//! acknowledgements in the fast path cases". The header therefore carries:
//!
//! * a **packet type** (call, result, explicit ack, probe, probe response),
//! * the **activity identifier** — calling machine, address space and
//!   thread — which names one serial conversation; at most one call is
//!   outstanding per activity, so `(activity, call_seq)` uniquely
//!   identifies a call and a result with the same pair implicitly
//!   acknowledges it, while the *next* call from the activity implicitly
//!   acknowledges the previous result,
//! * a **call sequence number** and, for multi-packet calls/results, a
//!   **fragment number** and count,
//! * the **interface binding** (a 64-bit UID plus version) and **procedure
//!   index** used by the Receiver to up-call the right server stub,
//! * **flags**, notably *please-ack* (set on retransmissions and on all
//!   non-final fragments) and *last-fragment*.
//!
//! The encoded size is exactly [`RPC_HEADER_LEN`] = 32 bytes, so the full
//! header stack is 14 + 20 + 8 + 32 = 74 bytes — the paper's minimum RPC
//! packet.

use crate::{Result, WireError};

/// Length in bytes of an encoded RPC header.
pub const RPC_HEADER_LEN: usize = 32;

/// Maximum RPC data bytes in a single Ethernet packet (1514 − 74).
pub const MAX_SINGLE_PACKET_DATA: usize = 1440;

/// The kind of an RPC packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PacketType {
    /// A call packet carrying marshalled arguments.
    Call = 1,
    /// A result packet carrying marshalled results; implicitly acknowledges
    /// the call with the same `(activity, call_seq)`.
    Result = 2,
    /// An explicit acknowledgement, sent when the implicit one will not
    /// arrive soon (idle activity, or a please-ack fragment).
    Ack = 3,
    /// A caller probe asking whether a long-running call is still alive.
    Probe = 4,
    /// The server's answer to a probe.
    ProbeResponse = 5,
}

impl PacketType {
    /// Every packet type, in wire-byte order. Introspection surface for
    /// the protocol-conformance tooling: protocol.toml must list each of
    /// these (tests/verify.rs's spec-drift test enumerates them through
    /// [`PacketType::from_u8`]).
    pub const ALL: [PacketType; 5] = [
        PacketType::Call,
        PacketType::Result,
        PacketType::Ack,
        PacketType::Probe,
        PacketType::ProbeResponse,
    ];

    /// The spec name of this type, exactly as protocol.toml spells it.
    pub fn name(self) -> &'static str {
        match self {
            PacketType::Call => "Call",
            PacketType::Result => "Result",
            PacketType::Ack => "Ack",
            PacketType::Probe => "Probe",
            PacketType::ProbeResponse => "ProbeResponse",
        }
    }

    /// Interprets a wire byte.
    pub fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            1 => PacketType::Call,
            2 => PacketType::Result,
            3 => PacketType::Ack,
            4 => PacketType::Probe,
            5 => PacketType::ProbeResponse,
            other => return Err(WireError::BadPacketType(other)),
        })
    }
}

/// Header flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketFlags {
    /// The receiver must acknowledge this packet explicitly (set on
    /// retransmissions and on every fragment except the last).
    pub please_ack: bool,
    /// This is the final fragment of a multi-packet call or result.
    pub last_fragment: bool,
    /// On an [`PacketType::Ack`]: the acknowledged packet was a result
    /// (caller→server ack); clear means it was a call (server→caller ack).
    pub acks_result: bool,
    /// On a [`PacketType::Result`]: the call failed at the RPC layer (no
    /// such interface, marshalling error, …) and the data region carries a
    /// UTF-8 error description instead of results.
    pub call_failed: bool,
}

impl PacketFlags {
    const PLEASE_ACK: u8 = 0b0000_0001;
    const LAST_FRAGMENT: u8 = 0b0000_0010;
    const ACKS_RESULT: u8 = 0b0000_0100;
    const CALL_FAILED: u8 = 0b0000_1000;

    /// Flag names in the canonical rendering order used by
    /// protocol.toml's `[flags].order` and the transition table.
    pub const NAMES: [&'static str; 4] =
        ["please_ack", "last_fragment", "acks_result", "call_failed"];

    /// Renders the set flags in canonical order, `+`-joined; `-` when
    /// none is set. This is the flags column of a spec transition row.
    pub fn canonical(self) -> String {
        let set = [
            self.please_ack,
            self.last_fragment,
            self.acks_result,
            self.call_failed,
        ];
        let mut out = String::new();
        for (name, on) in Self::NAMES.iter().zip(set) {
            if on {
                if !out.is_empty() {
                    out.push('+');
                }
                out.push_str(name);
            }
        }
        if out.is_empty() {
            out.push('-');
        }
        out
    }

    /// Flags for an ordinary single-packet call or result.
    pub fn single_packet() -> Self {
        PacketFlags {
            please_ack: false,
            last_fragment: true,
            acks_result: false,
            call_failed: false,
        }
    }

    /// Returns the wire byte.
    pub fn to_u8(self) -> u8 {
        let mut v = 0;
        if self.please_ack {
            v |= Self::PLEASE_ACK;
        }
        if self.last_fragment {
            v |= Self::LAST_FRAGMENT;
        }
        if self.acks_result {
            v |= Self::ACKS_RESULT;
        }
        if self.call_failed {
            v |= Self::CALL_FAILED;
        }
        v
    }

    /// Interprets a wire byte; unknown bits are ignored for forward
    /// compatibility.
    pub fn from_u8(v: u8) -> Self {
        PacketFlags {
            please_ack: v & Self::PLEASE_ACK != 0,
            last_fragment: v & Self::LAST_FRAGMENT != 0,
            acks_result: v & Self::ACKS_RESULT != 0,
            call_failed: v & Self::CALL_FAILED != 0,
        }
    }
}

/// The activity identifier: one calling thread's serial conversation.
///
/// "Each call table entry occupied by a waiting thread also contains a
/// packet buffer" — the call table is keyed by activity, and the Ethernet
/// interrupt routine uses this identifier to find and directly awaken the
/// waiting thread (§3.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ActivityId {
    /// Identifies the calling machine.
    pub machine: u32,
    /// Identifies the caller's address space on that machine.
    pub space: u16,
    /// Identifies the calling thread within the address space.
    pub thread: u16,
}

impl ActivityId {
    /// Creates an activity identifier.
    pub fn new(machine: u32, space: u16, thread: u16) -> Self {
        ActivityId {
            machine,
            space,
            thread,
        }
    }
}

impl core::fmt::Display for ActivityId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/{}/{}", self.machine, self.space, self.thread)
    }
}

/// The Firefly RPC packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcHeader {
    /// Packet type.
    pub packet_type: PacketType,
    /// Flag bits.
    pub flags: PacketFlags,
    /// The calling activity.
    pub activity: ActivityId,
    /// Sequence number of the call within the activity; monotonically
    /// increasing, never reused, so late duplicates are recognized.
    pub call_seq: u32,
    /// Fragment index within a multi-packet call/result (0-based).
    pub fragment: u16,
    /// Total number of fragments in this call/result.
    pub fragment_count: u16,
    /// 64-bit unique identifier of the remote interface instance.
    pub interface_uid: u64,
    /// Version of the interface, checked at the server.
    pub interface_version: u16,
    /// Index of the procedure within the interface.
    pub procedure: u16,
    /// Number of marshalled data bytes following the header.
    pub data_len: u16,
}

impl RpcHeader {
    /// Builds a single-packet call header.
    pub fn call(
        activity: ActivityId,
        call_seq: u32,
        interface_uid: u64,
        interface_version: u16,
        procedure: u16,
        data_len: usize,
    ) -> Self {
        RpcHeader {
            packet_type: PacketType::Call,
            flags: PacketFlags::single_packet(),
            activity,
            call_seq,
            fragment: 0,
            fragment_count: 1,
            interface_uid,
            interface_version,
            procedure,
            data_len: data_len as u16,
        }
    }

    /// Builds the result header matching a call header.
    pub fn result_for(call: &RpcHeader, data_len: usize) -> Self {
        RpcHeader {
            packet_type: PacketType::Result,
            flags: PacketFlags::single_packet(),
            data_len: data_len as u16,
            fragment: 0,
            fragment_count: 1,
            ..*call
        }
    }

    /// Builds an explicit acknowledgement for the given packet.
    ///
    /// The `acks_result` flag records which side of the exchange is being
    /// acknowledged so the receiver's demultiplexer can route the ack to a
    /// waiting caller (call acked by server) or a waiting server thread
    /// (result fragment acked by caller).
    pub fn ack_for(pkt: &RpcHeader) -> Self {
        RpcHeader {
            packet_type: PacketType::Ack,
            flags: PacketFlags {
                please_ack: false,
                // Echo the acknowledged fragment's position: acking a
                // non-final fragment must not read as acking the whole
                // call/result, or the sender would release retained
                // state early. (On the wire the frame layer re-derives
                // this from the fragment fields; keeping the in-memory
                // header consistent matters for paths that inspect the
                // ack before encoding, e.g. the teardown ack.)
                last_fragment: pkt.flags.last_fragment,
                acks_result: pkt.packet_type == PacketType::Result,
                call_failed: false,
            },
            data_len: 0,
            // The fragment fields identify which fragment is acknowledged.
            ..*pkt
        }
    }

    /// Encodes the header into the first [`RPC_HEADER_LEN`] bytes of `out`.
    pub fn encode(&self, out: &mut [u8]) -> Result<()> {
        if out.len() < RPC_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: RPC_HEADER_LEN,
                available: out.len(),
            });
        }
        out[0] = self.packet_type as u8;
        out[1] = self.flags.to_u8();
        out[2..6].copy_from_slice(&self.activity.machine.to_be_bytes());
        out[6..8].copy_from_slice(&self.activity.space.to_be_bytes());
        out[8..10].copy_from_slice(&self.activity.thread.to_be_bytes());
        out[10..14].copy_from_slice(&self.call_seq.to_be_bytes());
        out[14..16].copy_from_slice(&self.fragment.to_be_bytes());
        out[16..18].copy_from_slice(&self.fragment_count.to_be_bytes());
        out[18..26].copy_from_slice(&self.interface_uid.to_be_bytes());
        out[26..28].copy_from_slice(&self.interface_version.to_be_bytes());
        out[28..30].copy_from_slice(&self.procedure.to_be_bytes());
        out[30..32].copy_from_slice(&self.data_len.to_be_bytes());
        Ok(())
    }

    /// Decodes a header from the front of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < RPC_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: RPC_HEADER_LEN,
                available: bytes.len(),
            });
        }
        Ok(RpcHeader {
            packet_type: PacketType::from_u8(bytes[0])?,
            flags: PacketFlags::from_u8(bytes[1]),
            activity: ActivityId {
                machine: u32::from_be_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]),
                space: u16::from_be_bytes([bytes[6], bytes[7]]),
                thread: u16::from_be_bytes([bytes[8], bytes[9]]),
            },
            call_seq: u32::from_be_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]),
            fragment: u16::from_be_bytes([bytes[14], bytes[15]]),
            fragment_count: u16::from_be_bytes([bytes[16], bytes[17]]),
            interface_uid: u64::from_be_bytes([
                bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23], bytes[24],
                bytes[25],
            ]),
            interface_version: u16::from_be_bytes([bytes[26], bytes[27]]),
            procedure: u16::from_be_bytes([bytes[28], bytes[29]]),
            data_len: u16::from_be_bytes([bytes[30], bytes[31]]),
        })
    }

    /// Returns the `(activity, call_seq)` pair that names this call.
    pub fn call_id(&self) -> (ActivityId, u32) {
        (self.activity, self.call_seq)
    }
}

impl core::fmt::Display for RpcHeader {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{:?} {}#{} if={:#x} proc={} frag {}/{} {}B{}{}",
            self.packet_type,
            self.activity,
            self.call_seq,
            self.interface_uid,
            self.procedure,
            self.fragment + 1,
            self.fragment_count,
            self.data_len,
            if self.flags.please_ack {
                " please-ack"
            } else {
                ""
            },
            if self.flags.call_failed {
                " FAILED"
            } else {
                ""
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_call() -> RpcHeader {
        RpcHeader::call(
            ActivityId::new(42, 3, 17),
            1001,
            0xdead_beef_cafe_f00d,
            2,
            5,
            128,
        )
    }

    #[test]
    fn header_is_exactly_32_bytes() {
        // 14 (Ethernet) + 20 (IP) + 8 (UDP) + 32 (RPC) = 74, the paper's
        // minimum RPC packet size; this constant is what makes that true.
        assert_eq!(RPC_HEADER_LEN, 32);
    }

    #[test]
    fn round_trip() {
        let h = sample_call();
        let mut buf = [0u8; RPC_HEADER_LEN];
        h.encode(&mut buf).unwrap();
        assert_eq!(RpcHeader::decode(&buf).unwrap(), h);
    }

    #[test]
    fn result_preserves_call_identity() {
        let call = sample_call();
        let res = RpcHeader::result_for(&call, 1440);
        assert_eq!(res.packet_type, PacketType::Result);
        assert_eq!(res.call_id(), call.call_id());
        assert_eq!(res.interface_uid, call.interface_uid);
        assert_eq!(res.procedure, call.procedure);
        assert_eq!(res.data_len, 1440);
    }

    #[test]
    fn ack_has_no_data() {
        let call = sample_call();
        let ack = RpcHeader::ack_for(&call);
        assert_eq!(ack.packet_type, PacketType::Ack);
        assert_eq!(ack.data_len, 0);
        assert_eq!(ack.call_id(), call.call_id());
    }

    #[test]
    fn bad_type_rejected() {
        let mut buf = [0u8; RPC_HEADER_LEN];
        sample_call().encode(&mut buf).unwrap();
        buf[0] = 99;
        assert_eq!(RpcHeader::decode(&buf), Err(WireError::BadPacketType(99)));
    }

    #[test]
    fn flags_round_trip() {
        for bits in 0u8..16 {
            let f = PacketFlags {
                please_ack: bits & 1 != 0,
                last_fragment: bits & 2 != 0,
                acks_result: bits & 4 != 0,
                call_failed: bits & 8 != 0,
            };
            assert_eq!(PacketFlags::from_u8(f.to_u8()), f);
        }
    }

    #[test]
    fn ack_direction_follows_acked_packet() {
        let call = sample_call();
        assert!(!RpcHeader::ack_for(&call).flags.acks_result);
        let result = RpcHeader::result_for(&call, 8);
        assert!(RpcHeader::ack_for(&result).flags.acks_result);
    }

    #[test]
    fn unknown_flag_bits_ignored() {
        let f = PacketFlags::from_u8(0xff);
        assert!(f.please_ack && f.last_fragment);
    }

    #[test]
    fn all_packet_types_round_trip() {
        for t in PacketType::ALL {
            assert_eq!(PacketType::from_u8(t as u8).unwrap(), t);
        }
    }

    #[test]
    fn type_names_are_distinct_and_spec_spelled() {
        let names: Vec<&str> = PacketType::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            ["Call", "Result", "Ack", "Probe", "ProbeResponse"]
        );
    }

    #[test]
    fn canonical_flags_render_in_spec_order() {
        assert_eq!(PacketFlags::default().canonical(), "-");
        assert_eq!(PacketFlags::single_packet().canonical(), "last_fragment");
        let all = PacketFlags::from_u8(0x0f);
        assert_eq!(
            all.canonical(),
            "please_ack+last_fragment+acks_result+call_failed"
        );
        let ack = PacketFlags {
            acks_result: true,
            last_fragment: true,
            ..PacketFlags::default()
        };
        assert_eq!(ack.canonical(), "last_fragment+acks_result");
    }

    #[test]
    fn ack_echoes_fragment_finality() {
        // Acking a non-final fragment must not claim last-fragment: the
        // receiver of the ack uses that bit to decide whether the whole
        // result is acknowledged (retention release) or just one
        // fragment (advance).
        let mut frag = sample_call();
        frag.fragment = 0;
        frag.fragment_count = 3;
        frag.flags.last_fragment = false;
        frag.flags.please_ack = true;
        let ack = RpcHeader::ack_for(&frag);
        assert!(!ack.flags.last_fragment);
        assert_eq!((ack.fragment, ack.fragment_count), (0, 3));

        let mut last = frag;
        last.fragment = 2;
        last.flags.last_fragment = true;
        assert!(RpcHeader::ack_for(&last).flags.last_fragment);
    }

    #[test]
    fn activity_display() {
        assert_eq!(ActivityId::new(1, 2, 3).to_string(), "1/2/3");
    }

    #[test]
    fn header_display_is_one_line() {
        let h = sample_call();
        let s = h.to_string();
        assert!(s.contains("Call"));
        assert!(s.contains("42/3/17#1001"));
        assert!(!s.contains('\n'));
        let mut failed = RpcHeader::result_for(&h, 5);
        failed.flags.call_failed = true;
        assert!(failed.to_string().contains("FAILED"));
    }
}
