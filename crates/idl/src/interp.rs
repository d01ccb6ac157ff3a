//! The interpreted (library-procedure) stub engine: the Table IX baseline.
//!
//! Functionally identical to [`CompiledStub`](crate::CompiledStub) but
//! deliberately structured the slow way: the plan's sequence is
//! re-derived on every call, every argument is copied out of the packet
//! (no zero-copy analysis), and byte arrays move element by element
//! through an out-of-line helper, the way generic library marshalling
//! routines worked. Table IX's Modula-2+/assembly gap is the historical
//! version of the difference measured between the two engines. Nothing
//! in the runtime uses this engine; `rpcbench` (`idl.interp_over_compiled`)
//! and `table9` measure it.

use crate::codec::{ArgReader, ArgWriter};
use crate::engine::{
    check_arity, check_result_count, expect_bytes, marshal_one_value, unmarshal_one_value,
    ServerArg, ServerArgs, StubEngine,
};
use crate::plan::{MarshalOp, MarshalPlan};
use crate::value::Value;
use crate::Result;
use std::sync::Arc;

/// The interpreted stub engine for one procedure.
#[derive(Debug, Clone)]
pub struct InterpStub {
    plan: Arc<MarshalPlan>,
    name: String,
}

impl InterpStub {
    /// Creates the interpreter for one procedure.
    pub fn new(name: &str, plan: Arc<MarshalPlan>) -> Self {
        InterpStub {
            plan,
            name: name.to_string(),
        }
    }
}

#[inline(never)]
fn move_byte(w: &mut ArgWriter<'_>, b: u8) -> Result<()> {
    w.put_char(b)
}

#[inline(never)]
fn read_byte(r: &mut ArgReader<'_>) -> Result<u8> {
    r.char()
}

fn marshal_one(w: &mut ArgWriter<'_>, op: &MarshalOp, v: &Value) -> Result<()> {
    match op {
        MarshalOp::FixedBytes(_) | MarshalOp::OpenBytes | MarshalOp::OpenBytesTail => {
            let b = expect_bytes(v, op)?;
            if matches!(op, MarshalOp::OpenBytes) {
                w.put_count(b.len())?;
            }
            for &byte in b {
                move_byte(w, byte)?;
            }
            Ok(())
        }
        other => marshal_one_value(w, other, v),
    }
}

fn unmarshal_one(r: &mut ArgReader<'_>, op: &MarshalOp) -> Result<Value> {
    let len = match op {
        MarshalOp::FixedBytes(n) => *n,
        MarshalOp::OpenBytes => r.count(1)?,
        MarshalOp::OpenBytesTail => r.remaining(),
        other => return unmarshal_one_value(r, other),
    };
    let mut bytes = Vec::with_capacity(len.min(r.remaining()));
    for _ in 0..len {
        bytes.push(read_byte(r)?);
    }
    Ok(Value::Bytes(bytes))
}

impl StubEngine for InterpStub {
    fn plan(&self) -> &Arc<MarshalPlan> {
        &self.plan
    }

    fn marshal_call(&self, args: &[Value], out: &mut [u8]) -> Result<usize> {
        check_arity(&self.plan, args.len(), &self.name)?;
        // Re-derive the call sequence on every call: the interpreter pays
        // its dispatch costs at call time, by construction.
        let seq = self.plan.call_seq.clone();
        ArgWriter::fill(out, |w| {
            seq.iter()
                .try_for_each(|p| marshal_one(w, &p.op, &args[p.index]))
        })
    }

    fn unmarshal_call<'a>(&self, data: &'a [u8]) -> Result<ServerArgs<'a>> {
        ArgReader::read_all(data, |r| {
            let mut args = ServerArgs::with_arity(self.plan.arity);
            for p in self.plan.call_seq.clone() {
                args[p.index] = ServerArg::Val(unmarshal_one(r, &p.op)?);
            }
            Ok(args)
        })
    }

    fn marshal_result(&self, outputs: &[Value], out: &mut [u8]) -> Result<usize> {
        check_result_count(&self.plan, outputs.len(), &self.name)?;
        let seq = self.plan.result_seq.clone();
        ArgWriter::fill(out, |w| {
            seq.iter()
                .zip(outputs)
                .try_for_each(|(p, v)| marshal_one(w, &p.op, v))
        })
    }

    fn unmarshal_result(&self, data: &[u8]) -> Result<Vec<Value>> {
        ArgReader::read_all(data, |r| {
            let mut values = Vec::new();
            for p in self.plan.result_seq.clone() {
                values.push(unmarshal_one(r, &p.op)?);
            }
            Ok(values)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{engines_for, rich_args, RICH};

    #[test]
    fn compiled_and_interp_produce_identical_wire_bytes() {
        let (c, i) = engines_for(RICH, "Everything");
        let args = rich_args();
        let mut buf_c = vec![0u8; 256];
        let mut buf_i = vec![0u8; 256];
        let n_c = c.marshal_call(&args, &mut buf_c).unwrap();
        let n_i = i.marshal_call(&args, &mut buf_i).unwrap();
        assert_eq!(n_c, n_i);
        assert_eq!(&buf_c[..n_c], &buf_i[..n_i]);
    }

    #[test]
    fn interp_copies_what_compiled_borrows() {
        let (c, i) = engines_for(RICH, "Everything");
        let mut buf = vec![0u8; 256];
        let n = c.marshal_call(&rich_args(), &mut buf).unwrap();
        let borrowed = c.unmarshal_call(&buf[..n]).unwrap();
        let copied = i.unmarshal_call(&buf[..n]).unwrap();
        assert_eq!(borrowed[6].bytes(), Some(&[1u8, 2, 3, 4, 5][..]));
        assert_eq!(copied[6].value(), Some(&Value::Bytes(vec![1, 2, 3, 4, 5])));
        assert_eq!(copied[7], ServerArg::Out);
    }

    #[test]
    fn interp_and_compiled_results_agree() {
        let (c, i) = engines_for(RICH, "Everything");
        let outputs = vec![
            Value::Bytes(vec![1; 64]),
            Value::Integer(-1),
            Value::Integer(2),
        ];
        let mut a = vec![0u8; 256];
        let mut b = vec![0u8; 256];
        let na = c.marshal_result(&outputs, &mut a).unwrap();
        let nb = i.marshal_result(&outputs, &mut b).unwrap();
        assert_eq!(&a[..na], &b[..nb]);
        assert_eq!(i.unmarshal_result(&a[..na]).unwrap(), outputs);
    }

    #[test]
    fn a_forged_byte_count_is_refused_not_allocated() {
        let (_, i) = engines_for(
            "DEFINITION MODULE T; PROCEDURE P(VAR IN a: ARRAY OF CHAR; n: INTEGER); END T.",
            "P",
        );
        assert!(i
            .unmarshal_call(&[0xff, 0xff, 0xff, 0xf0, 1, 2, 3, 4])
            .is_err());
    }
}
