//! Zero-copy result construction: the server stub's side of `VAR OUT`.
//!
//! "The server stub passes the … address in the … packet buffer to the
//! server procedure, which can directly write it, so no copy is performed
//! at the server" (§2.2). [`ResultWriter`] is that address, handed out
//! one result parameter at a time in plan order; [`OutBytes`] is the
//! same for a typed procedure that should not see a writer.

use crate::codec::{wire_count, ArgWriter};
use crate::engine::{encoded_size, marshal_one_value, put_scalar};
use crate::plan::{MarshalOp, MarshalPlan, PlannedParam, ScalarKind};
use crate::value::Value;
use crate::{IdlError, Result};

/// Writes result-direction values directly into the result packet buffer.
///
/// The server stub obtains a writer over the (reused) call packet buffer
/// and emits each result-direction parameter **in plan order**; CHAR-array
/// outputs are returned as mutable slices into the packet so the server
/// procedure "can directly write it, so no copy is performed at the
/// server" (§2.2).
pub struct ResultWriter<'a> {
    /// The plan's result-packet sequence.
    ops: &'a [PlannedParam],
    out: &'a mut [u8],
    /// Once results outgrow `out`, everything written so far moves here
    /// and all further writes append to it.
    spill: Option<Vec<u8>>,
    pos: usize,
    next: usize,
}

/// The outcome of a [`ResultWriter`]: where the marshalled result data
/// ended up.
#[derive(Debug)]
pub enum Written {
    /// All data fit the packet buffer supplied to [`ResultWriter::new`]
    /// and occupies its first `len` bytes — the zero-copy fast path.
    InPlace {
        /// Data bytes written.
        len: usize,
    },
    /// The data outgrew one packet and was spilled to the heap; the RPC
    /// layer will fragment it into multiple packets.
    Spilled(Vec<u8>),
}

impl Written {
    /// Total marshalled data length.
    pub fn len(&self) -> usize {
        match self {
            Written::InPlace { len } => *len,
            Written::Spilled(v) => v.len(),
        }
    }

    /// True for a zero-byte result (e.g. `Null()`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'a> ResultWriter<'a> {
    /// Creates a writer over `out` for the given plan.
    ///
    /// Data that fits stays in `out` (the result packet buffer, making
    /// the server's array writes zero-copy); larger results transparently
    /// spill to the heap for fragmentation.
    pub fn new(plan: &'a MarshalPlan, out: &'a mut [u8]) -> Self {
        ResultWriter {
            ops: &plan.result_seq,
            out,
            spill: None,
            pos: 0,
            next: 0,
        }
    }

    /// The op of the next result parameter; a write that succeeds moves
    /// past it.
    fn next_op(&self) -> Result<&'a MarshalOp> {
        let ops = self.ops;
        let p = ops.get(self.next).ok_or_else(|| {
            IdlError::Marshal("more results written than the plan declares".into())
        })?;
        Ok(&p.op)
    }

    /// Returns a writable region of `n` bytes at the current position,
    /// moving to the heap if the packet buffer is too small.
    #[inline]
    fn reserve(&mut self, n: usize) -> &mut [u8] {
        let pos = self.pos;
        if self.spill.is_none() && n <= self.out.len() - pos {
            self.pos += n;
            return &mut self.out[pos..pos + n];
        }
        self.reserve_spilled(n)
    }

    #[cold]
    fn reserve_spilled(&mut self, n: usize) -> &mut [u8] {
        let pos = self.pos;
        self.pos += n;
        let out = &*self.out;
        let v = self.spill.get_or_insert_with(|| {
            // lint:allow(no-alloc-on-fast-path): a result that outgrows
            // its packet moves to the heap once, to be fragmented.
            let mut v = Vec::with_capacity(pos + n);
            v.extend_from_slice(&out[..pos]);
            v
        });
        v.resize(pos + n, 0);
        &mut v[pos..]
    }

    /// Writes the next result parameter: reserves exactly `size` bytes
    /// and has `put` fill them through the codec. A `put` that fails
    /// leaves the writer where it was.
    fn put_sized(
        &mut self,
        size: usize,
        put: impl FnOnce(&mut ArgWriter<'_>) -> Result<()>,
    ) -> Result<()> {
        let start = self.pos;
        let mut w = ArgWriter::new(self.reserve(size));
        let put = put(&mut w).and_then(|()| match w.written() {
            n if n == size => Ok(()),
            n => Err(IdlError::Marshal(format!(
                "result of {size} bytes wrote {n}"
            ))),
        });
        self.settle(put, start)
    }

    /// Writes a scalar result straight into its slot: its size is its
    /// kind's, and `put_scalar` writes exactly that many bytes or, for a
    /// value of another kind, none.
    #[inline]
    fn next_scalar(&mut self, kind: ScalarKind, v: &Value) -> Result<()> {
        let start = self.pos;
        let put = put_scalar(&mut ArgWriter::new(self.reserve(kind.size())), kind, v);
        self.settle(put, start)
    }

    /// Moves past the result just written, or, if `put` failed, back to
    /// `start`, where it began.
    #[inline]
    fn settle(&mut self, put: Result<()>, start: usize) -> Result<()> {
        match put {
            Ok(()) => self.next += 1,
            Err(_) => {
                self.pos = start;
                if let Some(v) = &mut self.spill {
                    v.truncate(start);
                }
            }
        }
        put
    }

    /// Reserves space for the next result parameter, which must be a CHAR
    /// array, and returns the in-packet slice for the server to fill.
    ///
    /// For open arrays `len` chooses the transmitted length; for fixed
    /// arrays it must equal the declared length.
    pub fn next_bytes(&mut self, len: usize) -> Result<&mut [u8]> {
        let count = match *self.next_op()? {
            MarshalOp::FixedBytes(n) if n == len => None,
            MarshalOp::OpenBytesTail => None,
            MarshalOp::OpenBytes => Some(wire_count(len)?),
            MarshalOp::FixedBytes(n) => {
                return Err(IdlError::Marshal(format!(
                    "fixed array is {n} bytes, requested {len}"
                )))
            }
            ref other => {
                return Err(IdlError::Marshal(format!(
                    "next result parameter is {other:?}, not a CHAR array"
                )))
            }
        };
        self.next += 1;
        match count {
            Some(count) => {
                let (head, body) = self.reserve(4 + len).split_at_mut(4);
                head.copy_from_slice(&count.to_be_bytes());
                Ok(body)
            }
            None => Ok(self.reserve(len)),
        }
    }

    /// Writes the next result parameter from a value (scalars, texts,
    /// scalar arrays, records; a CHAR array is copied in).
    pub fn next_value(&mut self, v: &Value) -> Result<()> {
        match self.next_op()? {
            MarshalOp::Scalar(kind) => self.next_scalar(*kind, v),
            op => self.put_sized(encoded_size(op, v), |w| marshal_one_value(w, op, v)),
        }
    }

    /// Writes the next result parameter through the codec, with no
    /// [`Value`] in between: `put` must write exactly `size` bytes. This
    /// is what generated server stubs call; the encoding is theirs to
    /// get right (they are generated from the same plan).
    pub fn next_with(
        &mut self,
        size: usize,
        put: impl FnOnce(&mut ArgWriter<'_>) -> Result<()>,
    ) -> Result<()> {
        self.next_op()?;
        self.put_sized(size, put)
    }

    /// Finishes, checking every result parameter was written.
    pub fn finish(self) -> Result<Written> {
        if self.next != self.ops.len() {
            return Err(IdlError::Marshal(format!(
                "only {} of {} results written",
                self.next,
                self.ops.len()
            )));
        }
        Ok(match self.spill {
            Some(v) => Written::Spilled(v),
            None => Written::InPlace { len: self.pos },
        })
    }
}

/// A typed server procedure's handle on a `VAR OUT` CHAR array that
/// leads the result packet: the procedure chooses the length and fills
/// the array where it will be transmitted from (§2.2), with no
/// [`ResultWriter`] in its signature. Generated server stubs create one,
/// lend it to the procedure and check [`OutBytes::done`] afterwards.
pub struct OutBytes<'w, 'a> {
    w: &'w mut ResultWriter<'a>,
    /// `None` until [`OutBytes::reserve`] is called, then how it went.
    outcome: Option<Result<()>>,
}

impl<'w, 'a> OutBytes<'w, 'a> {
    /// The handle for the next result parameter of `w`.
    pub fn new(w: &'w mut ResultWriter<'a>) -> Self {
        OutBytes { w, outcome: None }
    }

    /// The array, `len` bytes long, in the result packet. Call it once;
    /// if the array cannot be had (a fixed array of another length, a
    /// second call) the slice is empty and [`OutBytes::done`] says why.
    pub fn reserve(&mut self, len: usize) -> &mut [u8] {
        if self.outcome.is_some() {
            self.outcome = Some(Err(IdlError::Marshal(
                "VAR OUT array reserved twice".into(),
            )));
            return &mut [];
        }
        match self.w.next_bytes(len) {
            Ok(slot) => {
                self.outcome = Some(Ok(()));
                slot
            }
            Err(e) => {
                self.outcome = Some(Err(e));
                &mut []
            }
        }
    }

    /// Whether the procedure produced the array.
    pub fn done(self) -> Result<()> {
        self.outcome
            .unwrap_or_else(|| Err(IdlError::Marshal("VAR OUT array never reserved".into())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{compiled, RICH};

    #[test]
    fn zero_copy_result_writer_matches_copy_path() {
        let c = compiled(RICH, "Everything");
        let payload = [9u8, 8, 7];
        // Copy path.
        let outputs = vec![
            Value::Bytes(payload.to_vec()),
            Value::Integer(101),
            Value::Integer(55),
        ];
        let mut copy_buf = vec![0u8; 128];
        let copy_n = c.marshal_result(&outputs, &mut copy_buf).unwrap();
        // Zero-copy path: the "server" writes straight into the packet,
        // one result through a value and one through the codec.
        let mut zc_buf = vec![0u8; 128];
        let mut w = c.result_writer(&mut zc_buf);
        let slot = w.next_bytes(3).unwrap();
        slot.copy_from_slice(&payload);
        w.next_value(&Value::Integer(101)).unwrap();
        w.next_with(4, |w| w.put_i32(55)).unwrap();
        let zc_n = w.finish().unwrap().len();
        assert_eq!(copy_n, zc_n);
        assert_eq!(&copy_buf[..copy_n], &zc_buf[..zc_n]);
    }

    #[test]
    fn result_writer_rejects_wrong_order_and_underfill() {
        let c = compiled(RICH, "Everything");
        let mut buf = vec![0u8; 128];
        let mut w = c.result_writer(&mut buf);
        // First result param is a CHAR array; writing a scalar fails.
        assert!(w.next_value(&Value::Integer(1)).is_err());
        let mut buf2 = vec![0u8; 128];
        let mut w2 = c.result_writer(&mut buf2);
        w2.next_bytes(4).unwrap();
        assert!(w2.finish().is_err()); // Two results missing.
    }

    #[test]
    fn a_refused_result_leaves_the_writer_where_it_was() {
        let c = compiled(
            "DEFINITION MODULE T; PROCEDURE P(): RECORD a: INTEGER; t: Text.T END; END T.",
            "P",
        );
        let mut buf = vec![0u8; 32];
        let mut w = c.result_writer(&mut buf);
        // The second field has the wrong type: the first was written.
        let bad = Value::Record(vec![Value::Integer(1), Value::Integer(2)]);
        assert!(w.next_value(&bad).is_err());
        assert!(
            w.next_with(3, |w| w.put_i32(1)).is_err(),
            "size must be exact"
        );
        assert!(matches!(w.finish(), Err(IdlError::Marshal(_))));
    }

    #[test]
    fn a_scalar_of_another_kind_is_refused_where_it_would_go() {
        let c = compiled(
            "DEFINITION MODULE T; PROCEDURE P(VAR OUT t: Text.T; VAR OUT r: LONGREAL): BOOLEAN; END T.",
            "P",
        );
        // In the packet, and after a spill: the refused scalar writes
        // nothing, and the right one then goes where it would have.
        for size in [32, 4] {
            let mut buf = vec![0u8; size];
            let mut w = c.result_writer(&mut buf);
            w.next_value(&Value::text("ab")).unwrap();
            assert!(w.next_value(&Value::Integer(1)).is_err());
            w.next_value(&Value::Real(0.5)).unwrap();
            assert!(w.next_value(&Value::Char(1)).is_err());
            w.next_value(&Value::Boolean(true)).unwrap();
            let written = w.finish().unwrap();
            assert_eq!(written.len(), 4 + 2 + 8 + 1, "{size}-byte packet");
            let data = match &written {
                Written::InPlace { len } => &buf[..*len],
                Written::Spilled(v) => &v[..],
            };
            assert_eq!(
                c.unmarshal_result(data).unwrap(),
                [Value::text("ab"), Value::Real(0.5), Value::Boolean(true)]
            );
        }
    }

    #[test]
    fn results_that_outgrow_the_packet_spill_and_read_back() {
        let c = compiled(
            "DEFINITION MODULE T;
               PROCEDURE P(VAR OUT a: ARRAY OF CHAR; VAR OUT t: Text.T): INTEGER;
             END T.",
            "P",
        );
        let mut small = vec![0u8; 16];
        let mut w = c.result_writer(&mut small);
        w.next_bytes(10).unwrap().fill(0xab);
        w.next_value(&Value::text("spilled")).unwrap();
        w.next_value(&Value::Integer(-7)).unwrap();
        let Written::Spilled(data) = w.finish().unwrap() else {
            panic!("25 bytes do not fit 16");
        };
        let mut big = vec![0u8; 64];
        let n = c
            .marshal_result(
                &[
                    Value::Bytes(vec![0xab; 10]),
                    Value::text("spilled"),
                    Value::Integer(-7),
                ],
                &mut big,
            )
            .unwrap();
        assert_eq!(data, &big[..n]);
        assert_eq!(c.unmarshal_result(&data).unwrap()[2], Value::Integer(-7));
    }
}
