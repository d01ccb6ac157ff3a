//! The in-place codec: the only code that moves argument bytes.
//!
//! Firefly stubs marshal "by direct assignment statements" into the call
//! packet and out of the result packet (§2.2). [`ArgWriter`] and
//! [`ArgReader`] are those assignments: cursors over the packet's data
//! region with one bounds check per item, no allocation, and borrowed
//! results (`text()` → `&str`, `bytes(n)` → `&[u8]`, both pointing into
//! the packet). Every stub front end sits on them — the plan-driven
//! [`CompiledStub`](crate::CompiledStub), the interpreted baseline
//! [`InterpStub`](crate::InterpStub) and the generated typed stubs of
//! [`codegen`](crate::codegen) — so there is one definition of the wire
//! encoding (see [`plan`](crate::plan) for the format).
//!
//! A writer that runs out of room fails with
//! [`IdlError::BufferTooSmall`] whose `needed` is exact for the item
//! that did not fit; the runtime uses it to size the heap buffer an
//! oversized argument list is re-marshalled into before fragmentation.

use crate::{IdlError, Result};

/// The `Text.T` NIL marker on the wire.
const TEXT_NIL: u32 = 0xffff_ffff;

/// Writes call arguments (or results) straight into a packet's data
/// region.
pub struct ArgWriter<'a> {
    /// What is left of the region.
    rest: &'a mut [u8],
    written: usize,
}

impl<'a> ArgWriter<'a> {
    /// A writer over `out`, starting at its first byte.
    pub fn new(out: &'a mut [u8]) -> Self {
        ArgWriter {
            rest: out,
            written: 0,
        }
    }

    /// Runs `write` over `out` and returns how many bytes it wrote.
    #[inline]
    pub fn fill(
        out: &mut [u8],
        write: impl FnOnce(&mut ArgWriter<'_>) -> Result<()>,
    ) -> Result<usize> {
        let mut w = ArgWriter::new(out);
        write(&mut w)?;
        Ok(w.written)
    }

    /// Bytes written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Claims the next `n` bytes of the region — the one bounds check
    /// every item pays. Public so a caller can produce a CHAR array in
    /// place instead of copying it in.
    #[inline]
    pub fn reserve(&mut self, n: usize) -> Result<&'a mut [u8]> {
        if n > self.rest.len() {
            return Err(IdlError::BufferTooSmall {
                needed: self.written + n,
                available: self.written + self.rest.len(),
            });
        }
        let (slot, rest) = std::mem::take(&mut self.rest).split_at_mut(n);
        self.rest = rest;
        self.written += n;
        Ok(slot)
    }

    /// `INTEGER`: 4 bytes, big-endian.
    #[inline]
    pub fn put_i32(&mut self, v: i32) -> Result<()> {
        self.reserve(4)?.copy_from_slice(&v.to_be_bytes());
        Ok(())
    }

    /// `CARDINAL`: 4 bytes, big-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) -> Result<()> {
        self.reserve(4)?.copy_from_slice(&v.to_be_bytes());
        Ok(())
    }

    /// `CHAR`: 1 byte.
    #[inline]
    pub fn put_char(&mut self, v: u8) -> Result<()> {
        self.reserve(1)?[0] = v;
        Ok(())
    }

    /// `BOOLEAN`: 1 byte, 0 or 1.
    #[inline]
    pub fn put_bool(&mut self, v: bool) -> Result<()> {
        self.put_char(u8::from(v))
    }

    /// `LONGREAL`: 8 bytes, the IEEE bits big-endian.
    #[inline]
    pub fn put_real(&mut self, v: f64) -> Result<()> {
        self.reserve(8)?.copy_from_slice(&v.to_bits().to_be_bytes());
        Ok(())
    }

    /// The element count in front of an open array.
    #[inline]
    pub fn put_count(&mut self, n: usize) -> Result<()> {
        self.put_u32(wire_count(n)?)
    }

    /// `Text.T`: the NIL marker, or a byte count and the UTF-8 bytes.
    #[inline]
    pub fn put_text(&mut self, v: Option<&str>) -> Result<()> {
        match v {
            None => self.put_u32(TEXT_NIL),
            Some(t) if t.len() as u64 >= u64::from(TEXT_NIL) => {
                Err(IdlError::Marshal("Text.T too long".into()))
            }
            Some(t) => self.put_open_bytes(t.as_bytes()),
        }
    }

    /// A CHAR array whose length the receiver knows: fixed arrays (the
    /// length is part of the type) and an open array that is the last
    /// item of its packet (the length is what remains).
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) -> Result<()> {
        self.reserve(v.len())?.copy_from_slice(v);
        Ok(())
    }

    /// An open CHAR array: a 4-byte count, then the bytes.
    #[inline]
    pub fn put_open_bytes(&mut self, v: &[u8]) -> Result<()> {
        let count = wire_count(v.len())?;
        let (head, body) = self.reserve(4 + v.len())?.split_at_mut(4);
        head.copy_from_slice(&count.to_be_bytes());
        body.copy_from_slice(v);
        Ok(())
    }
}

/// `n` as the 4-byte count in front of an open array.
pub(crate) fn wire_count(n: usize) -> Result<u32> {
    u32::try_from(n).map_err(|_| IdlError::Marshal(format!("{n} elements do not fit a count")))
}

/// Reads call arguments (or results) in place from a packet's data
/// region. Everything borrowed from it points into the packet.
pub struct ArgReader<'a> {
    /// What is left of the region.
    rest: &'a [u8],
    total: usize,
}

impl<'a> ArgReader<'a> {
    /// A reader over `data`, starting at its first byte.
    pub fn new(data: &'a [u8]) -> Self {
        ArgReader {
            rest: data,
            total: data.len(),
        }
    }

    /// Runs `read` over `data` and checks it read all of it.
    #[inline]
    pub fn read_all<R>(
        data: &[u8],
        read: impl FnOnce(&mut ArgReader<'_>) -> Result<R>,
    ) -> Result<R> {
        let mut r = ArgReader::new(data);
        let value = read(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes, in place — the one bounds check every item
    /// pays, and a fixed-length CHAR array.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(self.short(n));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let Some((head, rest)) = self.rest.split_first_chunk::<N>() else {
            return Err(self.short(N));
        };
        self.rest = rest;
        Ok(*head)
    }

    fn short(&self, n: usize) -> IdlError {
        IdlError::BufferTooSmall {
            needed: self.total - self.rest.len() + n,
            available: self.total,
        }
    }

    /// Everything that remains: an open CHAR array that is the last item
    /// of its packet.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    /// `INTEGER`.
    #[inline]
    pub fn i32(&mut self) -> Result<i32> {
        self.array().map(i32::from_be_bytes)
    }

    /// `CARDINAL`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_be_bytes)
    }

    /// `CHAR`.
    #[inline]
    pub fn char(&mut self) -> Result<u8> {
        self.array::<1>().map(|[b]| b)
    }

    /// `BOOLEAN`; any byte but 0 and 1 is refused.
    #[inline]
    pub fn bool(&mut self) -> Result<bool> {
        match self.char()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(IdlError::Marshal(format!("bad BOOLEAN byte {b}"))),
        }
    }

    /// `LONGREAL`.
    #[inline]
    pub fn real(&mut self) -> Result<f64> {
        self.array().map(|b| f64::from_bits(u64::from_be_bytes(b)))
    }

    /// The element count in front of an open array of `elem_size`-byte
    /// elements, refused unless that many elements are actually there:
    /// a count off the wire never sizes an allocation the packet could
    /// not fill.
    #[inline]
    pub fn count(&mut self, elem_size: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.rest.len() / elem_size.max(1) {
            return Err(IdlError::Marshal(format!(
                "count {n} exceeds the {} bytes that remain",
                self.rest.len()
            )));
        }
        Ok(n)
    }

    /// An open CHAR array: a 4-byte count, then that many bytes in place.
    #[inline]
    pub fn open_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.bytes(n)
    }

    /// `Text.T`, in place; `None` is NIL.
    #[inline]
    pub fn text(&mut self) -> Result<Option<&'a str>> {
        let n = self.u32()?;
        if n == TEXT_NIL {
            return Ok(None);
        }
        std::str::from_utf8(self.bytes(n as usize)?)
            .map(Some)
            .map_err(|_| IdlError::Marshal("Text.T is not valid UTF-8".into()))
    }

    /// Checks the region was read to its end: a packet that carries more
    /// than its plan declares is malformed.
    #[inline]
    pub fn finish(&self) -> Result<()> {
        if self.rest.is_empty() {
            return Ok(());
        }
        Err(IdlError::Marshal(format!(
            "packet has {} trailing bytes",
            self.rest.len()
        )))
    }
}

/// The call surface a typed stub drives: "procedure `index`, with this
/// to write the call packet and this to read the result packet".
///
/// `firefly_rpc::Client` and `LocalClient` implement it, so a generated
/// `…Client<C>` wraps either directly.
pub trait RpcCall {
    /// The runtime's error; absorbs marshalling errors.
    type Error: From<IdlError>;

    /// Performs one call. `marshal` writes the arguments into the call
    /// packet and may run twice (an argument list that outgrows the
    /// packet is written again into a larger buffer, so it must write
    /// the same bytes each time); `unmarshal` reads the results in place
    /// from the result packet and must consume all of it.
    fn call_with<R>(
        &self,
        index: u16,
        marshal: impl FnMut(&mut ArgWriter<'_>) -> Result<()>,
        unmarshal: impl FnOnce(&mut ArgReader<'_>) -> Result<R>,
    ) -> core::result::Result<R, Self::Error>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_item_round_trips() {
        let mut buf = [0u8; 64];
        let mut w = ArgWriter::new(&mut buf);
        w.put_i32(-42).unwrap();
        w.put_u32(7).unwrap();
        w.put_char(b'Q').unwrap();
        w.put_bool(true).unwrap();
        w.put_real(3.25).unwrap();
        w.put_text(Some("hé")).unwrap();
        w.put_text(None).unwrap();
        w.put_open_bytes(&[1, 2, 3]).unwrap();
        w.put_count(2).unwrap();
        w.put_bytes(&[9, 8]).unwrap();
        let n = w.written();
        assert_eq!(n, 4 + 4 + 1 + 1 + 8 + (4 + 3) + 4 + (4 + 3) + 4 + 2);

        let mut r = ArgReader::new(&buf[..n]);
        assert_eq!(r.i32().unwrap(), -42);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.char().unwrap(), b'Q');
        assert!(r.bool().unwrap());
        assert_eq!(r.real().unwrap(), 3.25);
        assert_eq!(r.text().unwrap(), Some("hé"));
        assert_eq!(r.text().unwrap(), None);
        assert_eq!(r.open_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.count(1).unwrap(), 2);
        assert!(r.finish().is_err(), "two bytes are still unread");
        assert_eq!(r.rest(), &[9, 8]);
        assert_eq!(r.remaining(), 0);
        r.finish().unwrap();
    }

    #[test]
    fn a_writer_that_runs_out_says_exactly_how_much_it_needed() {
        let mut buf = [0u8; 8];
        let mut w = ArgWriter::new(&mut buf);
        w.put_i32(1).unwrap();
        let e = w.put_open_bytes(&[0; 100]).unwrap_err();
        assert_eq!(
            e,
            IdlError::BufferTooSmall {
                needed: 4 + 4 + 100,
                available: 8
            }
        );
        // Nothing was claimed by the failed item.
        assert_eq!(w.written(), 4);
        w.put_i32(2).unwrap();
        assert!(w.put_char(0).is_err());
    }

    #[test]
    fn reserved_regions_are_filled_in_place() {
        let mut buf = [0u8; 6];
        let mut w = ArgWriter::new(&mut buf);
        let slot = w.reserve(4).unwrap();
        w.put_char(7).unwrap();
        slot.fill(0xaa);
        assert_eq!(w.written(), 5);
        assert_eq!(buf, [0xaa, 0xaa, 0xaa, 0xaa, 7, 0]);
    }

    #[test]
    fn a_reader_refuses_short_data_and_bad_encodings() {
        assert!(ArgReader::new(&[0, 0, 1]).i32().is_err());
        assert!(ArgReader::new(&[]).char().is_err());
        assert!(ArgReader::new(&[7]).bool().is_err());
        assert!(ArgReader::new(&[0, 0, 0, 9, 1]).open_bytes().is_err());
        assert!(ArgReader::new(&[0, 0, 0, 2, 0xff, 0xfe]).text().is_err());
        // The position in the error is the reader's, not the item's.
        let mut r = ArgReader::new(&[0; 6]);
        r.i32().unwrap();
        assert_eq!(
            r.i32().unwrap_err(),
            IdlError::BufferTooSmall {
                needed: 8,
                available: 6
            }
        );
    }

    #[test]
    fn a_forged_count_is_bounded_by_what_is_there() {
        // 0xfffffff0 four-byte elements "follow"; none do.
        let forged = [0xff, 0xff, 0xff, 0xf0];
        assert!(ArgReader::new(&forged).count(4).is_err());
        // Exactly as many as fit is fine, one more is not.
        let mut data = vec![0, 0, 0, 3];
        data.extend_from_slice(&[0; 12]);
        assert_eq!(ArgReader::new(&data).count(4).unwrap(), 3);
        data[3] = 4;
        assert!(ArgReader::new(&data).count(4).is_err());
    }
}
