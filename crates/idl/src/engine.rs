//! The plan-driven stub engine: a [`MarshalPlan`] executed over the
//! in-place [`codec`](crate::codec).
//!
//! The paper distinguishes stubs that use "direct assignment statements"
//! (fast, generated by the stub compiler) from marshalling through "library
//! marshalling procedures or an interpreter" (§3.2 notes the stubs avoid
//! the latter on the fast path). [`CompiledStub`] is the first kind for
//! callers that hold [`Value`]s: it walks the plan's pre-flattened op
//! list — one `match` per parameter, each arm one codec call — and is
//! what the runtime's dynamic API (`call`, `call_index`) runs. The
//! second kind, [`InterpStub`](crate::InterpStub), is kept as the
//! Table IX baseline; both implement [`StubEngine`] and produce
//! byte-identical wire data. Generated typed stubs
//! ([`codegen`](crate::codegen)) skip the `Value`s and call the codec
//! directly.
//!
//! Zero-copy server semantics (§2.2) are preserved:
//!
//! * `VAR IN` arrays are handed to the server procedure as a borrowed
//!   slice **into the call packet** ([`ServerArg::Bytes`]) — "the server
//!   stub passes the argument's address in the … packet buffer";
//! * `VAR OUT` arrays are produced through a
//!   [`ResultWriter`](crate::ResultWriter), which gives the server a
//!   mutable slice **into the result packet**, so the server writes its
//!   output directly where it will be transmitted from.

use crate::codec::{ArgReader, ArgWriter};
use crate::plan::{MarshalOp, MarshalPlan, ScalarKind};
use crate::value::Value;
use crate::writer::ResultWriter;
use crate::{IdlError, Result};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

// ---------------------------------------------------------------------
// One `Value` in or out of the codec, as the plan says.
// ---------------------------------------------------------------------

#[inline]
pub(crate) fn put_scalar(w: &mut ArgWriter<'_>, kind: ScalarKind, v: &Value) -> Result<()> {
    match (kind, v) {
        (ScalarKind::Integer, Value::Integer(i)) => w.put_i32(*i),
        (ScalarKind::Cardinal, Value::Cardinal(c)) => w.put_u32(*c),
        (ScalarKind::Char, Value::Char(c)) => w.put_char(*c),
        (ScalarKind::Boolean, Value::Boolean(b)) => w.put_bool(*b),
        (ScalarKind::Real, Value::Real(r)) => w.put_real(*r),
        _ => Err(IdlError::Marshal(format!(
            "scalar kind mismatch: {:?} vs {}",
            kind,
            v.describe()
        ))),
    }
}

#[inline]
fn read_scalar(r: &mut ArgReader<'_>, kind: ScalarKind) -> Result<Value> {
    read_scalar_into(r, kind, |v| v)
}

/// Reads a scalar and hands it to `put` in the arm that read it, so that
/// each kind's value goes where `put` stores it straight from registers.
/// (Built first and stored after a common join, a `Value` is assembled
/// in a stack temporary by narrow stores and copied out by wide loads,
/// which the processor cannot forward: that stall was most of a scalar
/// argument's decoding.)
#[inline(always)]
fn read_scalar_into<T>(
    r: &mut ArgReader<'_>,
    kind: ScalarKind,
    put: impl FnOnce(Value) -> T,
) -> Result<T> {
    Ok(match kind {
        ScalarKind::Integer => put(Value::Integer(r.i32()?)),
        ScalarKind::Cardinal => put(Value::Cardinal(r.u32()?)),
        ScalarKind::Char => put(Value::Char(r.char()?)),
        ScalarKind::Boolean => put(Value::Boolean(r.bool()?)),
        ScalarKind::Real => put(Value::Real(r.real()?)),
    })
}

pub(crate) fn expect_bytes<'v>(v: &'v Value, op: &MarshalOp) -> Result<&'v [u8]> {
    match v {
        Value::Bytes(b) => {
            if let MarshalOp::FixedBytes(n) = op {
                if b.len() != *n {
                    return Err(IdlError::Marshal(format!(
                        "fixed array needs {} bytes, value has {}",
                        n,
                        b.len()
                    )));
                }
            }
            Ok(b)
        }
        other => Err(IdlError::Marshal(format!(
            "expected ARRAY OF CHAR, found {}",
            other.describe()
        ))),
    }
}

fn expect_array(v: &Value, len: Option<usize>) -> Result<&[Value]> {
    match v {
        Value::Array(a) => {
            if let Some(n) = len {
                if a.len() != n {
                    return Err(IdlError::Marshal(format!(
                        "fixed array needs {} elements, value has {}",
                        n,
                        a.len()
                    )));
                }
            }
            Ok(a)
        }
        other => Err(IdlError::Marshal(format!(
            "expected ARRAY, found {}",
            other.describe()
        ))),
    }
}

/// Marshals one value according to `op`.
pub(crate) fn marshal_one_value(w: &mut ArgWriter<'_>, op: &MarshalOp, v: &Value) -> Result<()> {
    match op {
        MarshalOp::Scalar(k) => put_scalar(w, *k, v),
        // A tail array's length is implied by the packet's data length;
        // only the raw bytes travel.
        MarshalOp::FixedBytes(_) | MarshalOp::OpenBytesTail => w.put_bytes(expect_bytes(v, op)?),
        MarshalOp::OpenBytes => w.put_open_bytes(expect_bytes(v, op)?),
        MarshalOp::FixedArray { len, elem } => {
            for item in expect_array(v, Some(*len))? {
                put_scalar(w, *elem, item)?;
            }
            Ok(())
        }
        MarshalOp::OpenArray { elem } => {
            let a = expect_array(v, None)?;
            w.put_count(a.len())?;
            for item in a {
                put_scalar(w, *elem, item)?;
            }
            Ok(())
        }
        MarshalOp::Text => match v {
            Value::Text(t) => w.put_text(t.as_deref()),
            other => Err(IdlError::Marshal(format!(
                "expected Text.T, found {}",
                other.describe()
            ))),
        },
        MarshalOp::Record(fields) => match v {
            Value::Record(vs) if vs.len() == fields.len() => {
                for (f, fv) in fields.iter().zip(vs) {
                    marshal_one_value(w, f, fv)?;
                }
                Ok(())
            }
            Value::Record(vs) => Err(IdlError::Marshal(format!(
                "record needs {} fields, value has {}",
                fields.len(),
                vs.len()
            ))),
            other => Err(IdlError::Marshal(format!(
                "expected RECORD, found {}",
                other.describe()
            ))),
        },
    }
}

/// The exact marshalled size of `v` under `op`. A value of the wrong
/// shape has no meaningful size; [`marshal_one_value`] refuses it at the
/// item that does not match, before writing that item.
pub(crate) fn encoded_size(op: &MarshalOp, v: &Value) -> usize {
    match (op, v) {
        (MarshalOp::Scalar(k), _) => k.size(),
        (MarshalOp::FixedBytes(n), _) => *n,
        (MarshalOp::OpenBytes, Value::Bytes(b)) => 4 + b.len(),
        (MarshalOp::OpenBytesTail, Value::Bytes(b)) => b.len(),
        (MarshalOp::FixedArray { len, elem }, _) => len * elem.size(),
        (MarshalOp::OpenArray { elem }, Value::Array(a)) => 4 + a.len() * elem.size(),
        (MarshalOp::Text, Value::Text(Some(t))) => 4 + t.len(),
        (MarshalOp::Text, _) => 4,
        (MarshalOp::Record(fields), Value::Record(vs)) => fields
            .iter()
            .zip(vs)
            .map(|(f, fv)| encoded_size(f, fv))
            .sum(),
        _ => 0,
    }
}

/// A CHAR array as an owned value.
fn owned_bytes(b: &[u8]) -> Value {
    // lint:allow(no-alloc-on-fast-path): the dynamic API returns owned
    // values; this is the caller stub's one copy of a result array "back
    // into the caller's variable" (§2.2). Typed stubs read it in place.
    Value::Bytes(b.to_vec())
}

/// Unmarshals one owned value according to `op`.
pub(crate) fn unmarshal_one_value(r: &mut ArgReader<'_>, op: &MarshalOp) -> Result<Value> {
    match op {
        MarshalOp::Scalar(k) => read_scalar(r, *k),
        MarshalOp::FixedBytes(n) => r.bytes(*n).map(owned_bytes),
        MarshalOp::OpenBytes => r.open_bytes().map(owned_bytes),
        MarshalOp::OpenBytesTail => Ok(owned_bytes(r.rest())),
        MarshalOp::FixedArray { len, elem } => {
            // The same bound `ArgReader::count` puts on a wire count: a
            // declared length sizes no allocation the packet cannot fill.
            if *len > r.remaining() / elem.size() {
                return Err(IdlError::Marshal(format!(
                    "fixed array of {len} elements in {} bytes",
                    r.remaining()
                )));
            }
            read_scalars(r, *len, *elem)
        }
        MarshalOp::OpenArray { elem } => {
            let len = r.count(elem.size())?;
            read_scalars(r, len, *elem)
        }
        // The Table V cost is dominated by this allocation: "the server
        // stub must allocate a new Text.T from garbage collected storage
        // at the server" — here, a fresh Arc<str>.
        MarshalOp::Text => Ok(Value::Text(r.text()?.map(Arc::from))),
        MarshalOp::Record(fields) => {
            // lint:allow(no-alloc-on-fast-path): the dynamic API's values
            // are owned; a record is a list of its fields' values.
            let mut vs = Vec::with_capacity(fields.len());
            for f in fields.iter() {
                vs.push(unmarshal_one_value(r, f)?);
            }
            Ok(Value::Record(vs))
        }
    }
}

/// `len` scalars, `len` already checked against what remains.
fn read_scalars(r: &mut ArgReader<'_>, len: usize, elem: ScalarKind) -> Result<Value> {
    // lint:allow(no-alloc-on-fast-path): the dynamic API's values are
    // owned; an array is a list of them, sized by the checked count.
    let mut items = Vec::with_capacity(len);
    for _ in 0..len {
        items.push(read_scalar(r, elem)?);
    }
    Ok(Value::Array(items))
}

// ---------------------------------------------------------------------
// The server's view of unmarshalled call arguments.
// ---------------------------------------------------------------------

/// One argument as seen by the server procedure.
///
/// The lifetime ties borrowed variants to the call packet buffer: the
/// argument is valid exactly as long as the packet is retained, which the
/// protocol guarantees because "the call packet is not freed" until the
/// result is marshalled (§3.1.2).
#[derive(Debug, PartialEq)]
pub enum ServerArg<'a> {
    /// A copied scalar or scalar-array value.
    Val(Value),
    /// A CHAR array referenced **in place** in the call packet (`VAR IN`
    /// or by-value arrays) — the paper's zero-copy case.
    Bytes(&'a [u8]),
    /// A result-direction-only parameter: nothing arrives in the call
    /// packet; the server produces it through the [`ResultWriter`].
    Out,
}

impl<'a> ServerArg<'a> {
    /// The byte payload for in-place array arguments.
    pub fn bytes(&self) -> Option<&'a [u8]> {
        match self {
            ServerArg::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The copied value, when present.
    pub fn value(&self) -> Option<&Value> {
        match self {
            ServerArg::Val(v) => Some(v),
            _ => None,
        }
    }
}

/// How many arguments [`ServerArgs`] holds without touching the heap.
/// The runtime no longer makes one: its server stubs lend the decoded
/// arguments from their own frame ([`CompiledStub::with_call_args`],
/// [`FRAME_ARGS`]). A `ServerArgs` is what [`StubEngine::unmarshal_call`]
/// returns by value, to a bench's stub cycle or a test, and for a value
/// that moves the size was measured: past 128 bytes every move of it is a
/// call to `memcpy` instead of a few inline stores — four 32-byte slots
/// and a length (136 bytes) decoded *slower* than the `Vec` they
/// replaced (one array argument 34 ns against 23), three (104 bytes) as
/// fast or faster.
const INLINE_ARGS: usize = 3;

/// How many arguments [`CompiledStub::with_call_args`] decodes into an
/// array on its own stack frame; a procedure with more takes the heap.
/// The array never moves, but every call fills and drops all of it:
/// four slots covered `local_args`' three shapes ≈ 5 ns a call faster
/// than eight did. Four covers the paper's procedures: `Null`,
/// `MaxResult` and `MaxArg`, Table II's calls of up to four integers
/// and Table V's text.
pub const FRAME_ARGS: usize = 4;

/// The unmarshalled call arguments, one per declared parameter
/// ([`ServerArg::Out`] where nothing travels in the call packet): a
/// `[ServerArg]` (it derefs to one) stored inline for procedures of up
/// to three parameters, on the heap above.
#[derive(Debug)]
pub struct ServerArgs<'a>(Repr<'a>);

#[derive(Debug)]
enum Repr<'a> {
    Inline {
        len: usize,
        slots: [ServerArg<'a>; INLINE_ARGS],
    },
    Heap(Vec<ServerArg<'a>>),
}

/// `arity` slots, all [`ServerArg::Out`] until decoded.
fn heap_args<'a>(arity: usize) -> Vec<ServerArg<'a>> {
    // lint:allow(no-alloc-on-fast-path): only a procedure with more
    // parameters than the stub's inline slots; sized by its arity.
    let mut v = Vec::with_capacity(arity);
    v.resize_with(arity, || ServerArg::Out);
    v
}

impl<'a> ServerArgs<'a> {
    /// `arity` arguments, all [`ServerArg::Out`] until decoded.
    pub(crate) fn with_arity(arity: usize) -> Self {
        ServerArgs(if arity <= INLINE_ARGS {
            Repr::Inline {
                len: arity,
                slots: [const { ServerArg::Out }; INLINE_ARGS],
            }
        } else {
            Repr::Heap(heap_args(arity))
        })
    }
}

impl<'a> Deref for ServerArgs<'a> {
    type Target = [ServerArg<'a>];

    #[inline]
    fn deref(&self) -> &[ServerArg<'a>] {
        match &self.0 {
            Repr::Inline { len, slots } => &slots[..*len],
            Repr::Heap(v) => v,
        }
    }
}

impl<'a> DerefMut for ServerArgs<'a> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [ServerArg<'a>] {
        match &mut self.0 {
            Repr::Inline { len, slots } => &mut slots[..*len],
            Repr::Heap(v) => v,
        }
    }
}

// ---------------------------------------------------------------------
// The engine trait and the plan-driven implementation.
// ---------------------------------------------------------------------

/// A stub engine: everything the caller and server stubs need for one
/// procedure. The runtime holds [`CompiledStub`]s by value; the trait is
/// what lets a bench run the same cycle over [`InterpStub`](crate::InterpStub).
pub trait StubEngine: Send + Sync {
    /// The marshalling plan driving this engine.
    fn plan(&self) -> &Arc<MarshalPlan>;

    /// Marshals caller arguments (one per declared parameter) into the
    /// call packet's data region; returns bytes written.
    fn marshal_call(&self, args: &[Value], out: &mut [u8]) -> Result<usize>;

    /// Unmarshals the call packet into server-side arguments, one per
    /// declared parameter; CHAR arrays are borrowed in place.
    fn unmarshal_call<'a>(&self, data: &'a [u8]) -> Result<ServerArgs<'a>>;

    /// Unmarshals the call packet and lends the arguments to `run`, as
    /// the runtime's server stubs do ([`CompiledStub::with_call_args`]).
    /// An engine with no lending path of its own lends what
    /// [`StubEngine::unmarshal_call`] returns.
    fn lend_call_args(&self, data: &[u8], run: &mut dyn FnMut(&[ServerArg<'_>])) -> Result<()> {
        run(&self.unmarshal_call(data)?);
        Ok(())
    }

    /// Marshals server outputs (one value per result-direction parameter,
    /// in plan order) into the result packet; returns bytes written.
    ///
    /// This is the copying path; zero-copy servers use [`ResultWriter`]
    /// directly.
    fn marshal_result(&self, outputs: &[Value], out: &mut [u8]) -> Result<usize>;

    /// Unmarshals the result packet back into caller-side values, one per
    /// result-direction parameter in plan order.
    fn unmarshal_result(&self, data: &[u8]) -> Result<Vec<Value>>;

    /// A zero-copy result writer over `out`.
    fn result_writer<'a>(&'a self, out: &'a mut [u8]) -> ResultWriter<'a> {
        ResultWriter::new(self.plan(), out)
    }
}

pub(crate) fn check_arity(plan: &MarshalPlan, supplied: usize, procedure: &str) -> Result<()> {
    if supplied != plan.arity {
        return Err(IdlError::ArityMismatch {
            procedure: procedure.to_string(),
            expected: plan.arity,
            found: supplied,
        });
    }
    Ok(())
}

pub(crate) fn check_result_count(
    plan: &MarshalPlan,
    supplied: usize,
    procedure: &str,
) -> Result<()> {
    if supplied != plan.result_seq.len() {
        return Err(IdlError::Marshal(format!(
            "procedure `{procedure}` produces {} results, {supplied} supplied",
            plan.result_seq.len()
        )));
    }
    Ok(())
}

/// The compiled (direct-assignment) stub engine.
///
/// Built once per procedure; per call it walks the plan's call or result
/// sequence — already flattened, tail arrays already resolved — and does
/// one codec operation per parameter.
#[derive(Debug, Clone)]
pub struct CompiledStub {
    plan: Arc<MarshalPlan>,
    name: String,
}

impl CompiledStub {
    /// Compiles the stub for one procedure. An interface compiles one
    /// per procedure when it is built ([`InterfaceDef::from_ast`](crate::InterfaceDef::from_ast)):
    /// take those from [`InterfaceDef::stubs`](crate::InterfaceDef::stubs).
    pub fn new(name: &str, plan: Arc<MarshalPlan>) -> Self {
        CompiledStub {
            plan,
            name: name.to_string(),
        }
    }

    /// Writes the call packet: what [`StubEngine::marshal_call`] does,
    /// on a cursor the runtime already holds.
    #[inline]
    pub fn write_call(&self, args: &[Value], w: &mut ArgWriter<'_>) -> Result<()> {
        check_arity(&self.plan, args.len(), &self.name)?;
        for p in &self.plan.call_seq {
            // Scalars here; everything else is an out-of-line (recursive)
            // call. The same split is in `read_result` and
            // `decode_call`.
            match &p.op {
                MarshalOp::Scalar(k) => put_scalar(w, *k, &args[p.index])?,
                op => marshal_one_value(w, op, &args[p.index])?,
            }
        }
        Ok(())
    }

    /// Reads the result packet: what [`StubEngine::unmarshal_result`]
    /// does, short of checking the packet was read to its end.
    #[inline]
    pub fn read_result(&self, r: &mut ArgReader<'_>) -> Result<Vec<Value>> {
        // lint:allow(no-alloc-on-fast-path): the dynamic API's currency
        // is an owned list of owned values. (Held inline like
        // `ServerArgs` it came out no faster: the 104-byte move cost what
        // the 32-byte allocation did.)
        let mut values = Vec::with_capacity(self.plan.result_seq.len());
        for p in &self.plan.result_seq {
            match &p.op {
                MarshalOp::Scalar(k) => read_scalar_into(r, *k, |v| values.push(v))?,
                op => values.push(unmarshal_one_value(r, op)?),
            }
        }
        Ok(values)
    }

    /// See [`StubEngine::marshal_call`].
    #[inline]
    pub fn marshal_call(&self, args: &[Value], out: &mut [u8]) -> Result<usize> {
        ArgWriter::fill(out, |w| self.write_call(args, w))
    }

    /// The server stub's one decode loop: reads the call packet into
    /// `slots` (one per declared parameter, each [`ServerArg::Out`] on
    /// entry), CHAR arrays borrowed in place, and checks the packet was
    /// read to its end.
    #[inline]
    fn decode_call<'a>(&self, data: &'a [u8], slots: &mut [ServerArg<'a>]) -> Result<()> {
        let mut r = ArgReader::new(data);
        for p in &self.plan.call_seq {
            // Each arm stores its own argument (see `read_scalar_into`).
            let slot = &mut slots[p.index];
            match &p.op {
                MarshalOp::FixedBytes(n) => *slot = ServerArg::Bytes(r.bytes(*n)?),
                MarshalOp::OpenBytes => *slot = ServerArg::Bytes(r.open_bytes()?),
                MarshalOp::OpenBytesTail => *slot = ServerArg::Bytes(r.rest()),
                MarshalOp::Scalar(k) => {
                    read_scalar_into(&mut r, *k, |v| *slot = ServerArg::Val(v))?
                }
                MarshalOp::Text => *slot = ServerArg::Val(Value::Text(r.text()?.map(Arc::from))),
                op => *slot = ServerArg::Val(unmarshal_one_value(&mut r, op)?),
            }
        }
        r.finish()
    }

    /// Decodes the call packet and lends the arguments, one per declared
    /// parameter, to `run`: what the runtime's server stubs do. The list
    /// is an array on this function's own frame (the LRPC argument stack
    /// of the paper's footnote 1), on the heap only past [`FRAME_ARGS`]
    /// parameters, and it never moves. The same arguments, or the same
    /// error, as [`CompiledStub::unmarshal_call`]; `run` is not called
    /// for a call that does not decode.
    #[inline]
    pub fn with_call_args<'a, R>(
        &self,
        data: &'a [u8],
        run: impl FnOnce(&[ServerArg<'a>]) -> R,
    ) -> Result<R> {
        let arity = self.plan.arity;
        if arity <= FRAME_ARGS {
            let mut frame = [const { ServerArg::Out }; FRAME_ARGS];
            let slots = &mut frame[..arity];
            self.decode_call(data, slots)?;
            Ok(run(slots))
        } else {
            let mut slots = heap_args(arity);
            self.decode_call(data, &mut slots)?;
            Ok(run(&slots))
        }
    }

    /// See [`StubEngine::unmarshal_call`]: the decode loop of
    /// [`CompiledStub::with_call_args`], into a list returned by value.
    #[inline]
    pub fn unmarshal_call<'a>(&self, data: &'a [u8]) -> Result<ServerArgs<'a>> {
        let mut args = ServerArgs::with_arity(self.plan.arity);
        self.decode_call(data, &mut args)?;
        Ok(args)
    }

    /// See [`StubEngine::marshal_result`].
    pub fn marshal_result(&self, outputs: &[Value], out: &mut [u8]) -> Result<usize> {
        check_result_count(&self.plan, outputs.len(), &self.name)?;
        ArgWriter::fill(out, |w| {
            self.plan
                .result_seq
                .iter()
                .zip(outputs)
                .try_for_each(|(p, v)| marshal_one_value(w, &p.op, v))
        })
    }

    /// See [`StubEngine::unmarshal_result`].
    #[inline]
    pub fn unmarshal_result(&self, data: &[u8]) -> Result<Vec<Value>> {
        ArgReader::read_all(data, |r| self.read_result(r))
    }

    /// See [`StubEngine::result_writer`].
    #[inline]
    pub fn result_writer<'a>(&'a self, out: &'a mut [u8]) -> ResultWriter<'a> {
        ResultWriter::new(&self.plan, out)
    }
}

impl StubEngine for CompiledStub {
    fn plan(&self) -> &Arc<MarshalPlan> {
        &self.plan
    }

    fn marshal_call(&self, args: &[Value], out: &mut [u8]) -> Result<usize> {
        CompiledStub::marshal_call(self, args, out)
    }

    fn unmarshal_call<'a>(&self, data: &'a [u8]) -> Result<ServerArgs<'a>> {
        CompiledStub::unmarshal_call(self, data)
    }

    fn lend_call_args(&self, data: &[u8], run: &mut dyn FnMut(&[ServerArg<'_>])) -> Result<()> {
        self.with_call_args(data, |args| run(args))
    }

    fn marshal_result(&self, outputs: &[Value], out: &mut [u8]) -> Result<usize> {
        CompiledStub::marshal_result(self, outputs, out)
    }

    fn unmarshal_result(&self, data: &[u8]) -> Result<Vec<Value>> {
        CompiledStub::unmarshal_result(self, data)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{parse_interface, InterpStub};

    pub(crate) fn engines_for(src: &str, proc_name: &str) -> (CompiledStub, InterpStub) {
        let i = parse_interface(src).unwrap();
        let p = i.procedure(proc_name).unwrap();
        (
            i.stubs()[p.index() as usize].clone(),
            InterpStub::new(p.name(), Arc::clone(p.plan())),
        )
    }

    pub(crate) fn compiled(src: &str, proc_name: &str) -> CompiledStub {
        engines_for(src, proc_name).0
    }

    pub(crate) const RICH: &str = "DEFINITION MODULE Rich;
        PROCEDURE Everything(
            n: INTEGER;
            c: CARDINAL;
            ch: CHAR;
            flag: BOOLEAN;
            x: LONGREAL;
            name: Text.T;
            VAR IN blob: ARRAY OF CHAR;
            VAR OUT result: ARRAY OF CHAR;
            VAR counter: INTEGER
        ): INTEGER;
    END Rich.";

    pub(crate) fn rich_args() -> Vec<Value> {
        vec![
            Value::Integer(-42),
            Value::Cardinal(7),
            Value::Char(b'Q'),
            Value::Boolean(true),
            Value::Real(3.25),
            Value::text("hello"),
            Value::Bytes(vec![1, 2, 3, 4, 5]),
            Value::char_array(8), // VAR OUT placeholder.
            Value::Integer(100),
        ]
    }

    #[test]
    fn call_round_trip_preserves_values() {
        let c = compiled(RICH, "Everything");
        let args = rich_args();
        let mut buf = vec![0u8; 256];
        let n = c.marshal_call(&args, &mut buf).unwrap();
        let server = c.unmarshal_call(&buf[..n]).unwrap();
        assert_eq!(server.len(), 9, "nine parameters: past the inline arity");
        assert_eq!(server[0].value(), Some(&Value::Integer(-42)));
        assert_eq!(server[1].value(), Some(&Value::Cardinal(7)));
        assert_eq!(server[2].value(), Some(&Value::Char(b'Q')));
        assert_eq!(server[3].value(), Some(&Value::Boolean(true)));
        assert_eq!(server[4].value(), Some(&Value::Real(3.25)));
        assert_eq!(server[5].value().unwrap().as_text(), Some("hello"));
        // VAR IN arrays are borrowed in place — zero copy.
        assert_eq!(server[6].bytes(), Some(&[1u8, 2, 3, 4, 5][..]));
        // VAR OUT has nothing in the call packet.
        assert_eq!(server[7], ServerArg::Out);
        // Plain VAR comes through in the call packet.
        assert_eq!(server[8].value(), Some(&Value::Integer(100)));
    }

    #[test]
    fn small_arities_decode_inline_in_declaration_order() {
        let c = compiled(
            "DEFINITION MODULE T;
               PROCEDURE P(VAR OUT o: INTEGER; a: INTEGER; VAR IN b: ARRAY OF CHAR);
             END T.",
            "P",
        );
        let args = [
            Value::Integer(0),
            Value::Integer(5),
            Value::Bytes(vec![7, 8]),
        ];
        let mut buf = vec![0u8; 16];
        let n = c.marshal_call(&args, &mut buf).unwrap();
        let server = c.unmarshal_call(&buf[..n]).unwrap();
        assert!(matches!(server.0, Repr::Inline { len: 3, .. }));
        assert!(
            std::mem::size_of::<ServerArgs<'_>>() <= 128,
            "moves stay inline"
        );
        assert_eq!(server.len(), 3);
        assert_eq!(server[0], ServerArg::Out);
        assert_eq!(server[1].value(), Some(&Value::Integer(5)));
        assert_eq!(server[2].bytes(), Some(&[7u8, 8][..]));
        assert_eq!(server.iter().filter(|a| a.value().is_some()).count(), 1);
    }

    #[test]
    fn lent_arguments_are_the_returned_ones_on_the_frame_and_past_it() {
        // Nine parameters take the heap; two stay on the frame.
        let c = compiled(RICH, "Everything");
        let mut buf = vec![0u8; 256];
        let n = c.marshal_call(&rich_args(), &mut buf).unwrap();
        let returned = c.unmarshal_call(&buf[..n]).unwrap();
        assert!(returned.len() > FRAME_ARGS);
        assert!(c
            .with_call_args(&buf[..n], |lent| lent == &returned[..])
            .unwrap());
        let c = compiled(
            "DEFINITION MODULE T; PROCEDURE P(a: INTEGER; VAR IN b: ARRAY OF CHAR); END T.",
            "P",
        );
        let n = c
            .marshal_call(&[Value::Integer(-3), Value::Bytes(vec![4, 5])], &mut buf)
            .unwrap();
        let lent = c.with_call_args(&buf[..n], |lent| {
            (
                lent[0].value().cloned(),
                lent[1].bytes().map(<[u8]>::to_vec),
            )
        });
        assert_eq!(lent.unwrap(), (Some(Value::Integer(-3)), Some(vec![4, 5])));
    }

    #[test]
    fn a_call_that_does_not_decode_runs_nothing() {
        let c = compiled("DEFINITION MODULE T; PROCEDURE P(x: INTEGER); END T.", "P");
        let mut ran = false;
        for data in [&[0u8, 0, 0][..], &[0, 0, 0, 1, 9]] {
            let e = c.with_call_args(data, |_| ran = true).unwrap_err();
            assert_eq!(Some(e), c.unmarshal_call(data).err());
        }
        assert!(!ran);
    }

    #[test]
    fn result_round_trip_preserves_values() {
        let c = compiled(RICH, "Everything");
        // Result-direction params: result (VAR OUT), counter (VAR), return.
        let outputs = vec![
            Value::Bytes(vec![9, 8, 7]),
            Value::Integer(101),
            Value::Integer(55),
        ];
        let mut buf = vec![0u8; 128];
        let n = c.marshal_result(&outputs, &mut buf).unwrap();
        let back = c.unmarshal_result(&buf[..n]).unwrap();
        assert_eq!(back, outputs);
    }

    #[test]
    fn nil_text_round_trips() {
        let c = compiled("DEFINITION MODULE T; PROCEDURE P(t: Text.T); END T.", "P");
        let mut buf = vec![0u8; 16];
        let n = c.marshal_call(&[Value::nil_text()], &mut buf).unwrap();
        assert_eq!(n, 4);
        let server = c.unmarshal_call(&buf[..n]).unwrap();
        assert_eq!(server[0].value(), Some(&Value::Text(None)));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let c = compiled(RICH, "Everything");
        let mut buf = vec![0u8; 64];
        let e = c.marshal_call(&[Value::Integer(1)], &mut buf).unwrap_err();
        assert!(matches!(
            e,
            IdlError::ArityMismatch {
                expected: 9,
                found: 1,
                ..
            }
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        let c = compiled("DEFINITION MODULE T; PROCEDURE P(x: INTEGER); END T.", "P");
        let mut buf = vec![0u8; 16];
        assert!(c.marshal_call(&[Value::Boolean(true)], &mut buf).is_err());
    }

    #[test]
    fn buffer_too_small_says_what_the_failing_item_needed() {
        let c = compiled(
            "DEFINITION MODULE T; PROCEDURE P(n: INTEGER; VAR IN b: ARRAY OF CHAR); END T.",
            "P",
        );
        let mut buf = vec![0u8; 8];
        let e = c
            .marshal_call(&[Value::Integer(1), Value::Bytes(vec![0; 100])], &mut buf)
            .unwrap_err();
        assert_eq!(
            e,
            IdlError::BufferTooSmall {
                needed: 104,
                available: 8
            }
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let c = compiled("DEFINITION MODULE T; PROCEDURE P(x: INTEGER); END T.", "P");
        let mut buf = vec![0u8; 8];
        let n = c.marshal_call(&[Value::Integer(1)], &mut buf).unwrap();
        assert!(c.unmarshal_call(&buf[..n + 2]).is_err());
        assert!(c.unmarshal_result(&buf[..1]).is_err());
    }

    #[test]
    fn bad_boolean_byte_rejected() {
        let c = compiled("DEFINITION MODULE T; PROCEDURE P(b: BOOLEAN); END T.", "P");
        assert!(c.unmarshal_call(&[7]).is_err());
    }

    #[test]
    fn invalid_utf8_text_rejected() {
        let c = compiled("DEFINITION MODULE T; PROCEDURE P(t: Text.T); END T.", "P");
        let data = [0, 0, 0, 2, 0xff, 0xfe];
        assert!(c.unmarshal_call(&data).is_err());
    }

    #[test]
    fn a_forged_element_count_is_refused_not_allocated() {
        // `Vec::with_capacity(0xfffffff0)` of 32-byte values is a 137 GB
        // request: an abort, not a panic. Both directions.
        let forged = [0xff, 0xff, 0xff, 0xf0];
        let c = compiled(
            "DEFINITION MODULE T; PROCEDURE Sum(xs: ARRAY OF INTEGER); END T.",
            "Sum",
        );
        assert!(matches!(
            c.unmarshal_call(&forged),
            Err(IdlError::Marshal(_))
        ));
        let c = compiled(
            "DEFINITION MODULE T; PROCEDURE Get(VAR OUT xs: ARRAY OF LONGREAL): INTEGER; END T.",
            "Get",
        );
        assert!(c.unmarshal_result(&forged).is_err());
        // A count the data does back is still fine.
        let ok = c.unmarshal_result(&[0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9]);
        assert_eq!(ok.unwrap()[1], Value::Integer(9));
    }

    #[test]
    fn a_huge_declared_array_is_not_allocated_for_a_short_packet() {
        let c = compiled(
            "DEFINITION MODULE T;
               PROCEDURE P(VAR IN m: ARRAY [0..999999999] OF INTEGER);
             END T.",
            "P",
        );
        assert!(c.unmarshal_call(&[0; 8]).is_err());
    }

    #[test]
    fn scalar_arrays_round_trip() {
        let c = compiled(
            "DEFINITION MODULE T;
               PROCEDURE P(VAR IN v: ARRAY OF INTEGER; VAR IN m: ARRAY [0..1] OF LONGREAL);
             END T.",
            "P",
        );
        let args = vec![
            Value::Array(vec![Value::Integer(1), Value::Integer(-2)]),
            Value::Array(vec![Value::Real(1.5), Value::Real(-0.25)]),
        ];
        let mut buf = vec![0u8; 64];
        let n = c.marshal_call(&args, &mut buf).unwrap();
        assert_eq!(n, 4 + 8 + 16);
        let server = c.unmarshal_call(&buf[..n]).unwrap();
        assert_eq!(server[0].value(), Some(&args[0]));
        assert_eq!(server[1].value(), Some(&args[1]));
    }

    #[test]
    fn max_result_shape_matches_paper() {
        // MaxResult(b) with the paper's 1440-byte buffer: the call packet
        // carries no data (74-byte frame) and the result packet carries
        // exactly 1440 data bytes (1514-byte frame) thanks to the
        // tail-open-array optimization — no count prefix.
        let i = crate::test_interface();
        let p = i.procedure("MaxResult").unwrap();
        let c = &i.stubs()[p.index() as usize];
        let mut buf = vec![0u8; 0];
        let n = c
            .marshal_call(&[Value::char_array(1440)], &mut buf)
            .unwrap();
        assert_eq!(n, 0, "MaxResult's call packet carries no data");
        let mut rbuf = vec![0u8; 1440];
        let rn = c
            .marshal_result(&[Value::Bytes(vec![0xab; 1440])], &mut rbuf)
            .unwrap();
        assert_eq!(
            rn, 1440,
            "the 1440-byte array fills the data region exactly"
        );
        // And the caller recovers the full array.
        let back = c.unmarshal_result(&rbuf[..rn]).unwrap();
        assert_eq!(back[0].as_bytes().unwrap().len(), 1440);
    }

    #[test]
    fn records_round_trip() {
        let (c, i) = engines_for(
            "DEFINITION MODULE R;
               PROCEDURE Save(item: RECORD
                   id: INTEGER;
                   price: LONGREAL;
                   tag: CHAR;
                   flags: RECORD a, b: BOOLEAN END;
                   name: Text.T
               END): INTEGER;
             END R.",
            "Save",
        );
        let record = Value::Record(vec![
            Value::Integer(7),
            Value::Real(19.99),
            Value::Char(b'k'),
            Value::Record(vec![Value::Boolean(true), Value::Boolean(false)]),
            Value::text("widget"),
        ]);
        let mut a = vec![0u8; 128];
        let mut b = vec![0u8; 128];
        let na = c
            .marshal_call(std::slice::from_ref(&record), &mut a)
            .unwrap();
        let nb = i
            .marshal_call(std::slice::from_ref(&record), &mut b)
            .unwrap();
        assert_eq!(&a[..na], &b[..nb], "engines agree on record layout");
        let server = c.unmarshal_call(&a[..na]).unwrap();
        assert_eq!(server[0].value(), Some(&record));
    }

    #[test]
    fn record_field_count_mismatch_rejected() {
        let c = compiled(
            "DEFINITION MODULE R;
               PROCEDURE P(pt: RECORD x, y: INTEGER END);
             END R.",
            "P",
        );
        let mut buf = vec![0u8; 32];
        let short = Value::Record(vec![Value::Integer(1)]);
        assert!(c.marshal_call(&[short], &mut buf).is_err());
        let wrong = Value::Integer(1);
        assert!(c.marshal_call(&[wrong], &mut buf).is_err());
    }

    #[test]
    fn record_as_function_result() {
        let c = compiled(
            "DEFINITION MODULE R;
               PROCEDURE Stat(): RECORD size: INTEGER; dirty: BOOLEAN END;
             END R.",
            "Stat",
        );
        let rec = Value::Record(vec![Value::Integer(4096), Value::Boolean(true)]);
        let mut buf = vec![0u8; 16];
        let n = c
            .marshal_result(std::slice::from_ref(&rec), &mut buf)
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(c.unmarshal_result(&buf[..n]).unwrap()[0], rec);
        // The writer sizes a record exactly, too.
        let mut buf2 = vec![0u8; 16];
        let mut w = c.result_writer(&mut buf2);
        w.next_value(&rec).unwrap();
        assert_eq!(w.finish().unwrap().len(), 5);
        assert_eq!(buf[..5], buf2[..5]);
    }

    #[test]
    fn max_arg_is_tail_in_call_packet() {
        let i = crate::test_interface();
        let p = i.procedure("MaxArg").unwrap();
        let c = &i.stubs()[p.index() as usize];
        let mut buf = vec![0u8; 1440];
        let n = c
            .marshal_call(&[Value::char_array(1440)], &mut buf)
            .unwrap();
        assert_eq!(n, 1440);
        let server = c.unmarshal_call(&buf[..n]).unwrap();
        assert_eq!(server[0].bytes().unwrap().len(), 1440);
    }
}
