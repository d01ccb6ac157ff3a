//! Property-based tests for the wire formats.

use firefly_propcheck::{check, prop_assert, prop_assert_eq, Gen};
use firefly_wire::{
    internet_checksum, ActivityId, EthernetHeader, Frame, FrameBuilder, FrameView, Ipv4Header,
    MacAddr, PacketFlags, PacketType, RpcHeader, UdpHeader, WireError, ETHERNET_HEADER_LEN,
    IPV4_HEADER_LEN, MAX_FRAME_LEN, MAX_SINGLE_PACKET_DATA, RPC_HEADERS_LEN, RPC_HEADER_LEN,
    UDP_HEADER_LEN,
};
use std::net::Ipv4Addr;

fn arb_packet_type(g: &mut Gen) -> PacketType {
    *g.choose(&[
        PacketType::Call,
        PacketType::Result,
        PacketType::Ack,
        PacketType::Probe,
        PacketType::ProbeResponse,
    ])
}

fn arb_header(g: &mut Gen) -> RpcHeader {
    let count = g.u16_in(1..16);
    let frag = g.u16_in(0..16);
    RpcHeader {
        packet_type: arb_packet_type(g),
        flags: PacketFlags {
            please_ack: g.bool(),
            last_fragment: g.bool(),
            acks_result: false,
            call_failed: false,
        },
        activity: ActivityId::new(g.u32(), g.u16(), g.u16()),
        call_seq: g.u32(),
        fragment: frag.min(count - 1),
        fragment_count: count,
        interface_uid: g.u64(),
        interface_version: g.u16(),
        procedure: g.u16(),
        data_len: g.u16_in(0..MAX_SINGLE_PACKET_DATA as u16 + 1),
    }
}

#[test]
fn rpc_header_round_trips() {
    check("rpc_header_round_trips", 256, |g| {
        let h = arb_header(g);
        let mut buf = [0u8; RPC_HEADER_LEN];
        h.encode(&mut buf).unwrap();
        prop_assert_eq!(RpcHeader::decode(&buf).unwrap(), h);
        Ok(())
    });
}

#[test]
fn frame_round_trips() {
    check("frame_round_trips", 256, |g| {
        let data = g.bytes(0..MAX_SINGLE_PACKET_DATA + 1);
        let seq = g.u32();
        let uid = g.u64();
        let proc_ = g.u16();
        let with_checksum = g.bool();
        let frame = FrameBuilder::new(PacketType::Call)
            .macs(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
            .ips(Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 1, 0, 2))
            .activity(ActivityId::new(9, 8, 7))
            .call_seq(seq)
            .interface(uid, 1)
            .procedure(proc_)
            .with_checksum(with_checksum)
            .build(&data)
            .unwrap();
        prop_assert_eq!(frame.len(), RPC_HEADERS_LEN + data.len());
        let parsed = Frame::parse(frame.bytes()).unwrap();
        prop_assert_eq!(parsed.rpc.call_seq, seq);
        prop_assert_eq!(parsed.rpc.interface_uid, uid);
        prop_assert_eq!(parsed.rpc.procedure, proc_);
        prop_assert_eq!(parsed.data, data);
        Ok(())
    });
}

#[test]
fn single_bit_corruption_never_passes_checksum() {
    check("single_bit_corruption_never_passes_checksum", 256, |g| {
        let data = g.bytes(1..512);
        let bit = g.usize_in(0..8);
        // Corrupt somewhere in the RPC payload region.
        let pos_frac = g.f64_unit();
        let frame = FrameBuilder::new(PacketType::Result)
            .ips(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .build(&data)
            .unwrap();
        let mut bytes = frame.into_bytes();
        let payload_start = RPC_HEADERS_LEN - RPC_HEADER_LEN;
        let span = bytes.len() - payload_start;
        let pos = payload_start + ((span as f64 * pos_frac) as usize).min(span - 1);
        bytes[pos] ^= 1 << bit;
        // Either a validation error or (for header fields that decode the
        // same way, which a one-bit flip in the payload never is) a
        // different payload. A flip in the checksummed region must fail.
        prop_assert!(Frame::parse(&bytes).is_err());
        Ok(())
    });
}

/// A checksummed frame of random shape: packet type, flags, addresses,
/// identifiers and 0–256 data bytes.
fn arb_frame(g: &mut Gen) -> Vec<u8> {
    let count = g.u16_in(1..16);
    FrameBuilder::new(arb_packet_type(g))
        .macs(MacAddr::from_host_id(g.u32()), MacAddr::from_host_id(g.u32()))
        .ips(Ipv4Addr::from(g.u32()), Ipv4Addr::from(g.u32()))
        .activity(ActivityId::new(g.u32(), g.u16(), g.u16()))
        .call_seq(g.u32())
        .fragment(g.u16_in(0..count), count)
        .please_ack(g.bool())
        .acks_result(g.bool())
        .call_failed(g.bool())
        .interface(g.u64(), g.u16())
        .procedure(g.u16())
        .ip_ident(g.u16())
        .build(&g.bytes(0..257))
        .unwrap()
        .into_bytes()
}

/// Byte offset of the UDP checksum field in a frame.
const UDP_CHECKSUM_AT: usize = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + 6;

#[test]
fn every_single_bit_flip_outside_the_macs_is_rejected() {
    // The two MAC addresses (bytes 0..12) are the only bytes no check
    // covers: the EtherType is compared, the IP header summed, and the
    // UDP checksum covers the UDP header, the RPC header and the data.
    // One flip cannot slip through: it changes the one's-complement sum
    // it falls in. The one exception is the UDP checksum field itself: a
    // checksum with a single bit set, flipped to zero, says "the sender
    // computed none" (RFC 768) and is accepted as unchecked — with every
    // other byte as it was sent.
    check("every_single_bit_flip_outside_the_macs_is_rejected", 48, |g| {
        let mut bytes = arb_frame(g);
        let sent = FrameView::parse(&bytes).unwrap().rpc;
        for at in 12..bytes.len() {
            for bit in 0..8 {
                bytes[at] ^= 1 << bit;
                let unchecked = bytes[UDP_CHECKSUM_AT..UDP_CHECKSUM_AT + 2] == [0, 0];
                match FrameView::parse(&bytes) {
                    Err(_) => prop_assert!(!unchecked, "byte {at} bit {bit}"),
                    Ok(view) => {
                        prop_assert!(unchecked, "byte {at} bit {bit} passed every check");
                        prop_assert_eq!(view.rpc, sent);
                    }
                }
                bytes[at] ^= 1 << bit;
            }
        }
        Ok(())
    });
}

/// The frame parser spelled the long way: each header through its own
/// public decoder, the checks in the order `FrameView::parse` documents.
fn parse_by_decoders(bytes: &[u8]) -> Result<(RpcHeader, &[u8]), WireError> {
    if bytes.len() > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLong(bytes.len()));
    }
    EthernetHeader::decode_ipv4(bytes)?;
    let ip_bytes = &bytes[ETHERNET_HEADER_LEN..];
    let ip = Ipv4Header::decode_udp(ip_bytes)?;
    let udp_bytes = &ip_bytes[IPV4_HEADER_LEN..];
    let udp = UdpHeader::decode(udp_bytes)?;
    let available = udp_bytes.len() - UDP_HEADER_LEN;
    if udp.data_len() < RPC_HEADER_LEN || udp.data_len() > available {
        return Err(WireError::BadUdpLength {
            claimed: udp.length as usize,
            available: udp_bytes.len(),
        });
    }
    let payload = &udp_bytes[UDP_HEADER_LEN..UDP_HEADER_LEN + udp.data_len()];
    udp.verify_checksum(&ip, udp_bytes, payload)?;
    let rpc = RpcHeader::decode(payload)?;
    let data = &payload[RPC_HEADER_LEN..];
    if rpc.data_len as usize != data.len() {
        return Err(WireError::BadDataLength {
            claimed: rpc.data_len as usize,
            available: data.len(),
        });
    }
    Ok((rpc, data))
}

#[test]
fn parse_agrees_with_the_header_decoders_on_any_input() {
    // Same verdict, same error, same header and data: nothing the
    // decoders check is skipped or checked in another order.
    check("parse_agrees_with_the_header_decoders_on_any_input", 512, |g| {
        let mut bytes = arb_frame(g);
        match g.usize_in(0..4) {
            0 => {}
            1 => {
                let at = g.usize_in(0..bytes.len());
                bytes[at] = g.u8();
            }
            2 => bytes.truncate(g.usize_in(0..bytes.len())),
            _ => bytes = g.bytes(0..MAX_FRAME_LEN + 2),
        }
        let parsed = FrameView::parse(&bytes).map(|v| (v.rpc, v.data));
        prop_assert_eq!(parsed, parse_by_decoders(&bytes));
        Ok(())
    });
}

#[test]
fn checksum_is_order_sensitive_but_split_insensitive() {
    check("checksum_is_order_sensitive_but_split_insensitive", 256, |g| {
        let data = g.bytes(2..256);
        let split = g.usize_in(1..255) % data.len();
        if split == 0 {
            return Ok(()); // The original property assumed split > 0.
        }
        let whole = internet_checksum(&data);
        let mut acc = firefly_wire::Checksum::new();
        acc.add_bytes(&data[..split]);
        acc.add_bytes(&data[split..]);
        prop_assert_eq!(acc.finish(), whole);
        Ok(())
    });
}

/// RFC 1071 by its definition: big-endian 16-bit words (an odd last byte
/// padded with zero), summed with end-around carry, complemented.
fn reference_checksum(data: &[u8]) -> u16 {
    let mut sum: u64 = 0;
    for pair in data.chunks(2) {
        let word = u16::from_be_bytes([pair[0], pair.get(1).copied().unwrap_or(0)]);
        sum += u64::from(word);
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[test]
fn checksum_matches_the_definition_in_any_split() {
    check("checksum_matches_the_definition_in_any_split", 512, |g| {
        let len = g.usize_in(0..3001);
        // All-ones data drives every carry the folding has to handle.
        let data = if g.bool() {
            g.bytes(len..len + 1)
        } else {
            vec![0xff; len]
        };
        let expected = reference_checksum(&data);
        prop_assert_eq!(internet_checksum(&data), expected);
        // The same bytes in random pieces: short ones (the 16-bit loop,
        // odd lengths leaving a byte pending) and long ones (the bulk
        // kernel, starting on either byte of a word).
        let mut acc = firefly_wire::Checksum::new();
        let mut rest = &data[..];
        while !rest.is_empty() {
            let take = if g.bool() {
                g.usize_in(0..8)
            } else {
                g.usize_in(0..rest.len() + 1)
            }
            .min(rest.len());
            let (piece, tail) = rest.split_at(take);
            acc.add_bytes(piece);
            rest = tail;
        }
        prop_assert_eq!(acc.finish(), expected);
        Ok(())
    });
}
