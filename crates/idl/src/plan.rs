//! Marshalling plans: the stub compiler's intermediate representation.
//!
//! For each procedure the stub compiler decides, per parameter, **which
//! packet(s)** the value travels in and **how** it is encoded. The paper's
//! §2.2 semantics are encoded in [`Direction`]:
//!
//! * by-value parameters go in the call packet only ("not included in the
//!   result packet"),
//! * `VAR IN` goes in the call packet only,
//! * `VAR OUT` goes in the result packet only,
//! * plain `VAR` goes in both,
//! * a function result is an implicit `VAR OUT`.
//!
//! Wire encoding, all big-endian:
//!
//! * `INTEGER`/`CARDINAL`: 4 bytes; `CHAR`/`BOOLEAN`: 1 byte; reals: 8,
//! * fixed arrays: elements back to back, no length prefix (the length is
//!   part of the type),
//! * open arrays: 4-byte element count, then elements,
//! * `Text.T`: 4-byte length with `0xffff_ffff` meaning `NIL`, then bytes.

use crate::ast::{Mode, ParamDecl, TypeExpr};
use crate::{IdlError, Result};
use std::sync::Arc;

/// Which packet(s) a parameter travels in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Call packet only.
    Call,
    /// Result packet only.
    Result,
    /// Both packets.
    Both,
}

impl Direction {
    /// Maps a parameter mode to its transport direction.
    pub fn from_mode(mode: Mode) -> Direction {
        match mode {
            Mode::Value | Mode::VarIn => Direction::Call,
            Mode::VarOut => Direction::Result,
            Mode::VarInOut => Direction::Both,
        }
    }

    /// True if the value appears in the call packet.
    pub fn in_call(self) -> bool {
        matches!(self, Direction::Call | Direction::Both)
    }

    /// True if the value appears in the result packet.
    pub fn in_result(self) -> bool {
        matches!(self, Direction::Result | Direction::Both)
    }
}

/// Scalar kinds with their wire sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarKind {
    /// 4-byte signed.
    Integer,
    /// 4-byte unsigned.
    Cardinal,
    /// 1 byte.
    Char,
    /// 1 byte (0 or 1).
    Boolean,
    /// 8-byte IEEE double.
    Real,
}

impl ScalarKind {
    /// Wire size in bytes.
    pub fn size(self) -> usize {
        match self {
            ScalarKind::Integer | ScalarKind::Cardinal => 4,
            ScalarKind::Char | ScalarKind::Boolean => 1,
            ScalarKind::Real => 8,
        }
    }

    fn from_type(ty: &TypeExpr) -> Option<ScalarKind> {
        Some(match ty {
            TypeExpr::Integer => ScalarKind::Integer,
            TypeExpr::Cardinal => ScalarKind::Cardinal,
            TypeExpr::Char => ScalarKind::Char,
            TypeExpr::Boolean => ScalarKind::Boolean,
            TypeExpr::Real => ScalarKind::Real,
            _ => return None,
        })
    }
}

/// One marshalling operation for one parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MarshalOp {
    /// A single scalar.
    Scalar(ScalarKind),
    /// A fixed-length CHAR array of exactly `n` bytes; one block copy.
    FixedBytes(usize),
    /// An open CHAR array: 4-byte count then bytes.
    OpenBytes,
    /// An open CHAR array that is the **last** item in its packet: no
    /// count is transmitted — the length is whatever remains of the data
    /// region (known from the RPC header's `data_len`).
    ///
    /// This layering-collapsing trick is what lets the paper's 1440-byte
    /// `MaxResult(b)` argument fill a 1514-byte Ethernet frame exactly:
    /// 74 bytes of headers + 1440 bytes of array, nothing else. §3.2 owns
    /// up to it: "Several of the structural features used to improve RPC
    /// performance collapse layers of abstraction in a somewhat unseemly
    /// way."
    OpenBytesTail,
    /// A fixed-length array of `len` non-CHAR scalars.
    FixedArray {
        /// Total (flattened) element count.
        len: usize,
        /// Element kind.
        elem: ScalarKind,
    },
    /// An open array of non-CHAR scalars: 4-byte count then elements.
    OpenArray {
        /// Element kind.
        elem: ScalarKind,
    },
    /// A `Text.T`.
    Text,
    /// A record: fields marshalled back to back in declaration order.
    Record(Arc<[MarshalOp]>),
}

impl MarshalOp {
    /// Lowers a type expression to an op, flattening nested fixed arrays.
    pub fn from_type(ty: &TypeExpr) -> Result<MarshalOp> {
        match ty {
            TypeExpr::Text => Ok(MarshalOp::Text),
            TypeExpr::FixedArray { .. } => {
                let (count, elem) = flatten_fixed(ty)?;
                if elem == ScalarKind::Char {
                    Ok(MarshalOp::FixedBytes(count))
                } else {
                    Ok(MarshalOp::FixedArray { len: count, elem })
                }
            }
            TypeExpr::OpenArray { elem } => {
                let k = ScalarKind::from_type(elem).ok_or_else(|| {
                    IdlError::Semantic(format!(
                        "open array elements must be scalar, found {}",
                        elem.to_modula()
                    ))
                })?;
                if k == ScalarKind::Char {
                    Ok(MarshalOp::OpenBytes)
                } else {
                    Ok(MarshalOp::OpenArray { elem: k })
                }
            }
            TypeExpr::Record { fields } => {
                let ops: Result<Vec<MarshalOp>> = fields
                    .iter()
                    .map(|(_, t)| MarshalOp::from_type(t))
                    .collect();
                Ok(MarshalOp::Record(ops?.into()))
            }
            scalar => ScalarKind::from_type(scalar)
                .map(MarshalOp::Scalar)
                .ok_or_else(|| IdlError::Semantic(format!("no plan for {}", scalar.to_modula()))),
        }
    }

    /// Wire size when statically known.
    pub fn fixed_size(&self) -> Option<usize> {
        match self {
            MarshalOp::Scalar(k) => Some(k.size()),
            MarshalOp::FixedBytes(n) => Some(*n),
            MarshalOp::FixedArray { len, elem } => Some(len * elem.size()),
            MarshalOp::Record(fields) => fields.iter().map(|f| f.fixed_size()).sum(),
            _ => None,
        }
    }
}

/// Flattens nested fixed arrays to `(total element count, scalar kind)`.
fn flatten_fixed(ty: &TypeExpr) -> Result<(usize, ScalarKind)> {
    match ty {
        TypeExpr::FixedArray { len, elem } => {
            if let Some(k) = ScalarKind::from_type(elem) {
                Ok((*len, k))
            } else {
                let (inner, k) = flatten_fixed(elem)?;
                Ok((len * inner, k))
            }
        }
        other => Err(IdlError::Semantic(format!(
            "fixed array elements must be scalar or fixed arrays, found {}",
            other.to_modula()
        ))),
    }
}

/// One planned parameter: its op, direction, and index in the declared
/// parameter list (the function result uses index `params.len()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedParam {
    /// Declared parameter index.
    pub index: usize,
    /// How to encode it.
    pub op: MarshalOp,
    /// Which packets it travels in.
    pub direction: Direction,
}

/// The complete marshalling plan for one procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarshalPlan {
    /// All parameters in declaration order (plus the function result, last,
    /// when present).
    pub params: Vec<PlannedParam>,
    /// The call-packet encoding sequence, with the tail-open-array
    /// optimization applied.
    pub call_seq: Vec<PlannedParam>,
    /// The result-packet encoding sequence, with the tail-open-array
    /// optimization applied.
    pub result_seq: Vec<PlannedParam>,
    /// Count of declared parameters (excludes the function result slot).
    pub arity: usize,
    /// True when the procedure returns a value.
    pub has_result: bool,
}

/// Rewrites a trailing `OpenBytes` to the prefix-free tail form.
fn apply_tail_optimization(seq: &mut [PlannedParam]) {
    if let Some(last) = seq.last_mut() {
        if last.op == MarshalOp::OpenBytes {
            last.op = MarshalOp::OpenBytesTail;
        }
    }
}

impl MarshalPlan {
    /// Builds the plan for a procedure.
    pub fn build(params: &[ParamDecl], result: Option<&TypeExpr>) -> Result<MarshalPlan> {
        // lint:allow(no-alloc-on-fast-path): stub-compile time, once per
        // procedure.
        let mut planned = Vec::with_capacity(params.len() + 1);
        for (index, p) in params.iter().enumerate() {
            planned.push(PlannedParam {
                index,
                op: MarshalOp::from_type(&p.ty)?,
                direction: Direction::from_mode(p.mode),
            });
        }
        if let Some(rt) = result {
            planned.push(PlannedParam {
                index: params.len(),
                op: MarshalOp::from_type(rt)?,
                direction: Direction::Result,
            });
        }
        let mut call_seq: Vec<PlannedParam> = planned
            .iter()
            .filter(|p| p.direction.in_call())
            .cloned()
            .collect();
        let mut result_seq: Vec<PlannedParam> = planned
            .iter()
            .filter(|p| p.direction.in_result())
            .cloned()
            .collect();
        apply_tail_optimization(&mut call_seq);
        apply_tail_optimization(&mut result_seq);
        Ok(MarshalPlan {
            arity: params.len(),
            has_result: result.is_some(),
            params: planned,
            call_seq,
            result_seq,
        })
    }

    /// Parameters that travel in the call packet, in encoding order.
    pub fn call_params(&self) -> impl Iterator<Item = &PlannedParam> {
        self.call_seq.iter()
    }

    /// Parameters that travel in the result packet, in encoding order.
    pub fn result_params(&self) -> impl Iterator<Item = &PlannedParam> {
        self.result_seq.iter()
    }

    /// Static size of the call packet data, when every call-direction
    /// parameter has a fixed size.
    pub fn call_fixed_size(&self) -> Option<usize> {
        self.call_params().map(|p| p.op.fixed_size()).sum()
    }

    /// Static size of the result packet data, when known.
    pub fn result_fixed_size(&self) -> Option<usize> {
        self.result_params().map(|p| p.op.fixed_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn plan_for(src: &str) -> MarshalPlan {
        let m = parse_module(src).unwrap();
        let p = &m.procedures[0];
        MarshalPlan::build(&p.params, p.result.as_ref()).unwrap()
    }

    #[test]
    fn null_plan_is_empty() {
        let plan = plan_for("DEFINITION MODULE T; PROCEDURE Null(); END T.");
        assert!(plan.params.is_empty());
        assert_eq!(plan.call_fixed_size(), Some(0));
        assert_eq!(plan.result_fixed_size(), Some(0));
    }

    #[test]
    fn var_out_travels_only_in_result() {
        let plan = plan_for(
            "DEFINITION MODULE T;
               PROCEDURE MaxResult(VAR OUT b: ARRAY OF CHAR);
             END T.",
        );
        assert_eq!(plan.call_params().count(), 0);
        assert_eq!(plan.result_params().count(), 1);
        assert_eq!(plan.params[0].op, MarshalOp::OpenBytes);
    }

    #[test]
    fn var_in_travels_only_in_call() {
        let plan = plan_for(
            "DEFINITION MODULE T;
               PROCEDURE MaxArg(VAR IN b: ARRAY OF CHAR);
             END T.",
        );
        assert_eq!(plan.call_params().count(), 1);
        assert_eq!(plan.result_params().count(), 0);
    }

    #[test]
    fn plain_var_travels_both_ways() {
        let plan = plan_for(
            "DEFINITION MODULE T;
               PROCEDURE Bump(VAR x: INTEGER);
             END T.",
        );
        assert_eq!(plan.call_params().count(), 1);
        assert_eq!(plan.result_params().count(), 1);
    }

    #[test]
    fn function_result_is_implicit_var_out() {
        let plan = plan_for(
            "DEFINITION MODULE T;
               PROCEDURE Add(a, b: INTEGER): INTEGER;
             END T.",
        );
        assert_eq!(plan.arity, 2);
        assert!(plan.has_result);
        assert_eq!(plan.call_params().count(), 2);
        let results: Vec<_> = plan.result_params().collect();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].index, 2);
        assert_eq!(plan.call_fixed_size(), Some(8));
        assert_eq!(plan.result_fixed_size(), Some(4));
    }

    #[test]
    fn fixed_char_array_is_block_copy() {
        let plan = plan_for(
            "DEFINITION MODULE T;
               PROCEDURE P(VAR OUT b: ARRAY [0..1439] OF CHAR);
             END T.",
        );
        assert_eq!(plan.params[0].op, MarshalOp::FixedBytes(1440));
        assert_eq!(plan.result_fixed_size(), Some(1440));
    }

    #[test]
    fn nested_fixed_arrays_flatten() {
        let plan = plan_for(
            "DEFINITION MODULE T;
               PROCEDURE P(VAR IN m: ARRAY [0..3] OF ARRAY [0..4] OF INTEGER);
             END T.",
        );
        assert_eq!(
            plan.params[0].op,
            MarshalOp::FixedArray {
                len: 20,
                elem: ScalarKind::Integer
            }
        );
        assert_eq!(plan.call_fixed_size(), Some(80));
    }

    #[test]
    fn open_array_of_text_rejected() {
        let m = parse_module(
            "DEFINITION MODULE T;
               PROCEDURE P(x: ARRAY OF Text.T);
             END T.",
        )
        .unwrap();
        let p = &m.procedures[0];
        assert!(MarshalPlan::build(&p.params, None).is_err());
    }

    #[test]
    fn tail_open_array_loses_its_count_prefix() {
        // MaxResult(b): the single VAR OUT open array is the last (only)
        // result item, so no count travels — 1440 bytes of array fill the
        // packet's data region exactly.
        let plan = plan_for(
            "DEFINITION MODULE T;
               PROCEDURE MaxResult(VAR OUT b: ARRAY OF CHAR);
             END T.",
        );
        assert_eq!(plan.result_seq[0].op, MarshalOp::OpenBytesTail);
        // The declaration-order view keeps the logical op.
        assert_eq!(plan.params[0].op, MarshalOp::OpenBytes);
    }

    #[test]
    fn non_tail_open_array_keeps_prefix() {
        let plan = plan_for(
            "DEFINITION MODULE T;
               PROCEDURE P(VAR OUT b: ARRAY OF CHAR; VAR OUT n: INTEGER);
             END T.",
        );
        assert_eq!(plan.result_seq[0].op, MarshalOp::OpenBytes);
        assert_eq!(
            plan.result_seq[1].op,
            MarshalOp::Scalar(ScalarKind::Integer)
        );
    }

    #[test]
    fn tail_applies_per_direction() {
        // A plain VAR open array is tail in the result packet but also the
        // last call item, so it is tail in both sequences here.
        let plan = plan_for(
            "DEFINITION MODULE T;
               PROCEDURE P(n: INTEGER; VAR b: ARRAY OF CHAR);
             END T.",
        );
        assert_eq!(plan.call_seq[1].op, MarshalOp::OpenBytesTail);
        assert_eq!(plan.result_seq[0].op, MarshalOp::OpenBytesTail);
    }

    #[test]
    fn open_sizes_are_dynamic() {
        let plan = plan_for(
            "DEFINITION MODULE T;
               PROCEDURE P(VAR IN b: ARRAY OF CHAR);
             END T.",
        );
        assert_eq!(plan.call_fixed_size(), None);
    }
}
