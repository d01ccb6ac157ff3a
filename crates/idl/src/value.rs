//! Runtime values exchanged through stubs.

use crate::ast::TypeExpr;
use std::sync::Arc;

/// The type of a value, shared with the AST.
pub type Type = TypeExpr;

/// A dynamically typed Modula-2+ value as seen by the stub engines.
///
/// `ARRAY … OF CHAR` values use the dedicated [`Value::Bytes`]
/// representation (the case the paper's tables measure), so marshalling
/// them is a single block copy; arrays of other scalars use
/// [`Value::Array`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 32-bit signed `INTEGER`.
    Integer(i32),
    /// 32-bit unsigned `CARDINAL`.
    Cardinal(u32),
    /// 8-bit `CHAR`.
    Char(u8),
    /// `BOOLEAN`.
    Boolean(bool),
    /// 64-bit real.
    Real(f64),
    /// `Text.T`: an immutable, garbage-collected (here: reference-counted)
    /// text string; `None` is `NIL` (Table V measures the NIL case
    /// separately).
    Text(Option<Arc<str>>),
    /// `ARRAY … OF CHAR`, fixed or open.
    Bytes(Vec<u8>),
    /// An array of non-CHAR scalars.
    Array(Vec<Value>),
    /// A record: one value per field, in declaration order.
    Record(Vec<Value>),
}

impl Value {
    /// A `Text.T` from a `&str`.
    pub fn text(s: &str) -> Value {
        Value::Text(Some(Arc::from(s)))
    }

    /// The `NIL` `Text.T`.
    pub fn nil_text() -> Value {
        Value::Text(None)
    }

    /// A zero-filled CHAR array of the given length — the paper's
    /// `VAR b: ARRAY [0..1439] OF CHAR` test variable.
    pub fn char_array(len: usize) -> Value {
        // lint:allow(no-alloc-on-fast-path): a constructor for the
        // caller's own variable, run before any call is made.
        Value::Bytes(vec![0; len])
    }

    /// Checks whether this value conforms to `ty`.
    pub fn matches(&self, ty: &Type) -> bool {
        match (self, ty) {
            (Value::Integer(_), TypeExpr::Integer) => true,
            (Value::Cardinal(_), TypeExpr::Cardinal) => true,
            (Value::Char(_), TypeExpr::Char) => true,
            (Value::Boolean(_), TypeExpr::Boolean) => true,
            (Value::Real(_), TypeExpr::Real) => true,
            (Value::Text(_), TypeExpr::Text) => true,
            (Value::Bytes(b), TypeExpr::FixedArray { len, elem }) => {
                **elem == TypeExpr::Char && b.len() == *len
            }
            (Value::Bytes(_), TypeExpr::OpenArray { elem }) => **elem == TypeExpr::Char,
            (Value::Array(vs), TypeExpr::FixedArray { len, elem }) => {
                vs.len() == *len && vs.iter().all(|v| v.matches(elem))
            }
            (Value::Array(vs), TypeExpr::OpenArray { elem }) => vs.iter().all(|v| v.matches(elem)),
            (Value::Record(vs), TypeExpr::Record { fields }) => {
                vs.len() == fields.len() && vs.iter().zip(fields).all(|(v, (_, t))| v.matches(t))
            }
            _ => false,
        }
    }

    /// One-word description of the value's own type, for error messages.
    pub fn describe(&self) -> &'static str {
        match self {
            Value::Integer(_) => "INTEGER",
            Value::Cardinal(_) => "CARDINAL",
            Value::Char(_) => "CHAR",
            Value::Boolean(_) => "BOOLEAN",
            Value::Real(_) => "LONGREAL",
            Value::Text(_) => "Text.T",
            Value::Bytes(_) => "ARRAY OF CHAR",
            Value::Array(_) => "ARRAY",
            Value::Record(_) => "RECORD",
        }
    }

    /// The integer payload, if this is an `INTEGER`.
    pub fn as_integer(&self) -> Option<i32> {
        match self {
            Value::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// The byte payload, if this is an `ARRAY OF CHAR`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The text payload, if this is a non-NIL `Text.T`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(Some(t)) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_basic_types() {
        assert!(Value::Integer(5).matches(&TypeExpr::Integer));
        assert!(!Value::Integer(5).matches(&TypeExpr::Cardinal));
        assert!(Value::text("hi").matches(&TypeExpr::Text));
        assert!(Value::nil_text().matches(&TypeExpr::Text));
    }

    #[test]
    fn matches_char_arrays() {
        let fixed = TypeExpr::FixedArray {
            len: 4,
            elem: Box::new(TypeExpr::Char),
        };
        assert!(Value::Bytes(vec![0; 4]).matches(&fixed));
        assert!(!Value::Bytes(vec![0; 5]).matches(&fixed));
        let open = TypeExpr::OpenArray {
            elem: Box::new(TypeExpr::Char),
        };
        assert!(Value::Bytes(vec![0; 999]).matches(&open));
    }

    #[test]
    fn matches_scalar_arrays() {
        let ty = TypeExpr::FixedArray {
            len: 2,
            elem: Box::new(TypeExpr::Integer),
        };
        assert!(Value::Array(vec![Value::Integer(1), Value::Integer(2)]).matches(&ty));
        assert!(!Value::Array(vec![Value::Integer(1)]).matches(&ty));
        assert!(!Value::Array(vec![Value::Boolean(true), Value::Integer(2)]).matches(&ty));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Integer(-3).as_integer(), Some(-3));
        assert_eq!(Value::Bytes(vec![1, 2]).as_bytes(), Some(&[1u8, 2][..]));
        assert_eq!(Value::text("x").as_text(), Some("x"));
        assert_eq!(Value::nil_text().as_text(), None);
    }

    #[test]
    fn char_array_constructor() {
        let v = Value::char_array(1440);
        assert_eq!(v.as_bytes().unwrap().len(), 1440);
    }
}
