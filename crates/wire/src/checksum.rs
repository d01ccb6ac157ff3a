//! The Internet checksum (RFC 1071), implemented from scratch.
//!
//! The paper's RPC fast path computes a UDP checksum over every call and
//! result packet — 45 µs for a 74-byte packet and 440 µs for a 1514-byte
//! packet on a MicroVAX II (Table VI) — "because the Ethernet controller
//! occasionally makes errors after checking the Ethernet CRC" (§4.2.4).
//! This module provides the same one's-complement 16-bit sum used for the
//! IPv4 header checksum and, combined with the pseudo-header, the UDP
//! checksum.

/// Incremental one's-complement checksum accumulator.
///
/// Feed byte slices with [`Checksum::add_bytes`] (and 16-bit words with
/// [`Checksum::add_word`]); obtain the final folded, complemented checksum
/// with [`Checksum::finish`].
///
/// # Examples
///
/// ```
/// use firefly_wire::Checksum;
///
/// let mut c = Checksum::new();
/// c.add_bytes(&[0x00, 0x01, 0xf2, 0x03]);
/// // 0x0001 + 0xf203 = 0xf204; !0xf204 = 0x0dfb.
/// assert_eq!(c.finish(), 0x0dfb);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    sum: u32,
    /// Pending odd byte from a previous `add_bytes` call, if any.
    ///
    /// RFC 1071 treats the data as a sequence of 16-bit big-endian words;
    /// when slices are fed in odd-length pieces we must pair the trailing
    /// byte of one slice with the leading byte of the next.
    pending: Option<u8>,
}

impl Checksum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a single 16-bit word to the sum.
    pub fn add_word(&mut self, word: u16) {
        // Flush through the byte path so word/byte interleavings stay
        // consistent with the big-endian byte stream.
        self.add_bytes(&word.to_be_bytes());
    }

    /// Adds a byte slice to the sum, pairing bytes into big-endian words.
    pub fn add_bytes(&mut self, mut bytes: &[u8]) {
        if let Some(hi) = self.pending.take() {
            if let Some((&lo, rest)) = bytes.split_first() {
                self.sum += u32::from(u16::from_be_bytes([hi, lo]));
                bytes = rest;
            } else {
                self.pending = Some(hi);
                return;
            }
        }
        let mut chunks = bytes.chunks_exact(2);
        if bytes.len() >= BULK_MIN {
            self.sum += u32::from(bulk_sum(&bytes[..bytes.len() & !1]));
        } else {
            for chunk in &mut chunks {
                self.sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
            }
        }
        if let [last] = chunks.remainder() {
            self.pending = Some(*last);
        }
    }

    /// Folds carries and returns the one's-complement checksum.
    ///
    /// A trailing odd byte is padded with a zero byte as RFC 1071 requires.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            self.sum += u32::from(u16::from_be_bytes([hi, 0]));
        }
        let mut sum = self.sum;
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// Folds carries and returns the checksum, substituting `0xffff` for a
    /// computed zero as UDP requires (a transmitted zero means "no
    /// checksum").
    pub fn finish_udp(self) -> u16 {
        match self.finish() {
            0 => 0xffff,
            c => c,
        }
    }
}

/// Slices at least this long take [`bulk_sum`]; shorter ones (headers,
/// the pseudo-header's words) stay on the 16-bit loop, whose set-up is
/// nothing.
const BULK_MIN: usize = 64;

/// The one's-complement sum of an even-length slice's big-endian 16-bit
/// words, folded to 16 bits.
///
/// It adds the words, read native-endian, into eight 32-bit lanes (one
/// 16-byte vector, which the compiler keeps in a register), folds the
/// lanes, and byte-swaps the folded sum on a little-endian machine: a
/// one's-complement sum of byte-swapped words is the byte-swapped sum
/// (RFC 1071 §2(B)). A lane gains at most `0xffff` per 16-byte block, so
/// the lanes are emptied into a 64-bit sum every [`BULK_PIECE`] bytes,
/// before one could carry out. Over 1514 bytes this takes ≈ 53 ns where
/// 32-bit words into 64-bit lanes take 49–60 on a quiet host, and it keeps
/// ≈ 94 ns in the host's slow phases where they take 120–133.
///
/// Never inlined, and the header encoders (`Ipv4Header::encode`,
/// `add_pseudo_header`, `UdpHeader::encode`) are `#[inline]`: `add_bytes`
/// is inlined at every header-checksum site, and the bigger bodies that
/// made pushed the encoders out of `FrameBuilder::encode_into` (building a
/// null frame went 22 → 30 ns, 45 with this loop inlined too).
#[inline(never)]
fn bulk_sum(bytes: &[u8]) -> u16 {
    let mut sum = 0u64;
    for piece in bytes.chunks(BULK_PIECE) {
        let mut lanes = [0u32; 8];
        let mut blocks = piece.chunks_exact(16);
        for block in &mut blocks {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(2)) {
                *lane += u32::from(u16::from_ne_bytes([word[0], word[1]]));
            }
        }
        sum += lanes.iter().map(|&lane| u64::from(lane)).sum::<u64>();
        for word in blocks.remainder().chunks_exact(2) {
            sum += u64::from(u16::from_ne_bytes([word[0], word[1]]));
        }
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    let sum = sum as u16;
    if cfg!(target_endian = "little") {
        sum.swap_bytes()
    } else {
        sum
    }
}

/// Bytes [`bulk_sum`] adds into its 32-bit lanes before emptying them:
/// 65 536 blocks of 16 bytes, each adding at most `0xffff` to a lane.
const BULK_PIECE: usize = 16 << 16;

/// Computes the Internet checksum of `bytes` in one shot.
///
/// # Examples
///
/// ```
/// use firefly_wire::internet_checksum;
///
/// // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 sums to 0xddf2,
/// // so the checksum is !0xddf2 = 0x220d.
/// let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
/// assert_eq!(internet_checksum(&data), 0x220d);
/// ```
pub fn internet_checksum(bytes: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(bytes);
    c.finish()
}

/// Verifies data that embeds its own checksum: the sum over the whole
/// region (checksum field included) must fold to zero.
pub fn verify_embedded(bytes: &[u8]) -> bool {
    internet_checksum(bytes) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn empty_input_checksums_to_ffff() {
        assert_eq!(internet_checksum(&[]), 0xffff);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(internet_checksum(&[0xab]), !0xab00);
        assert_eq!(internet_checksum(&[0x12, 0x34, 0x56]), !(0x1234 + 0x5600));
    }

    #[test]
    fn split_points_do_not_matter() {
        let data: Vec<u8> = (0u16..200).map(|i| (i * 7 % 251) as u8).collect();
        let whole = internet_checksum(&data);
        for split in [1usize, 2, 3, 7, 99, 199] {
            let mut c = Checksum::new();
            c.add_bytes(&data[..split]);
            c.add_bytes(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
        // Byte-at-a-time.
        let mut c = Checksum::new();
        for b in &data {
            c.add_bytes(std::slice::from_ref(b));
        }
        assert_eq!(c.finish(), whole);
    }

    #[test]
    fn words_equal_bytes() {
        let mut w = Checksum::new();
        w.add_word(0x1234);
        w.add_word(0x5678);
        let mut b = Checksum::new();
        b.add_bytes(&[0x12, 0x34, 0x56, 0x78]);
        assert_eq!(w.finish(), b.finish());
    }

    #[test]
    fn embedded_checksum_verifies() {
        // Build a block with its checksum stored at offset 2.
        let mut block = vec![0x45u8, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef];
        let c = internet_checksum(&block);
        block[2..4].copy_from_slice(&c.to_be_bytes());
        assert!(verify_embedded(&block));
        block[5] ^= 1;
        assert!(!verify_embedded(&block));
    }

    #[test]
    fn carry_folding() {
        // 0xffff + 0xffff = 0x1fffe -> fold -> 0xffff -> !0xffff = 0.
        let data = [0xff, 0xff, 0xff, 0xff];
        assert_eq!(internet_checksum(&data), 0);
    }

    #[test]
    fn udp_zero_becomes_ffff() {
        let mut c = Checksum::new();
        c.add_bytes(&[0xff, 0xff]);
        // Sum folds to 0xffff, complement is 0, UDP transmits 0xffff.
        assert_eq!(c.finish_udp(), 0xffff);
    }

    #[test]
    fn bulk_lanes_never_carry_out() {
        // All-ones words fill every lane as fast as possible; three pieces
        // and a few words more cross each point where the lanes empty.
        let len = 3 * BULK_PIECE + 6;
        assert_eq!(internet_checksum(&vec![0xff; len]), 0);
        let data: Vec<u8> = (0..len).map(|i| 0xc0 | (i % 61) as u8).collect();
        let mut sum: u64 = data
            .chunks(2)
            .map(|w| u64::from(u16::from_be_bytes([w[0], w[1]])))
            .sum();
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        assert_eq!(internet_checksum(&data), !(sum as u16));
    }

    #[test]
    fn pending_byte_survives_empty_add() {
        let mut c = Checksum::new();
        c.add_bytes(&[0x12]);
        c.add_bytes(&[]);
        c.add_bytes(&[0x34]);
        assert_eq!(c.finish(), !0x1234);
    }
}
