//! Modula-2+ interface definitions and RPC stub generation.
//!
//! Firefly RPC stubs were "automatically generated from a Modula-2+
//! interface definition" and compiled to "direct assignment statements to
//! copy the argument or result to/from the call or result packet", with
//! "some complex types … marshalled by calling library marshalling
//! procedures" (§2.2). This crate reproduces that pipeline:
//!
//! ```text
//! DEFINITION MODULE text ──lexer──▶ tokens ──parser──▶ ast::Module
//!        ──typecheck──▶ InterfaceDef ──plan──▶ MarshalPlan
//!                 ├──▶ engine::CompiledStub    (the plan over `Value`s: the dynamic API)
//!                 ├──▶ codegen::rust_stubs     (what the stub compiler emitted: typed,
//!                 │                             direct assignment, no `Value`s)
//!                 └──▶ interp::InterpStub      (library-procedure style: Table IX's baseline)
//!                          all three over codec::{ArgWriter, ArgReader}
//! ```
//!
//! The type system covers what the paper measures: by-value scalars
//! (Table II), fixed-length arrays (Table III), open `ARRAY OF CHAR`
//! arrays (Table IV) and the garbage-collected immutable `Text.T`
//! (Table V) — each with `VAR IN` / `VAR OUT` direction annotations whose
//! copy-avoidance semantics (§2.2) are reproduced exactly: a `VAR OUT`
//! argument travels only in the result packet and is written by the server
//! **directly into the result packet buffer**; the single copy happens when
//! the caller stub moves the value back into the caller's variable.
//!
//! [`cost`] additionally captures the paper's *measured marshalling costs*
//! on the MicroVAX II, which the simulator charges for stub work.
//!
//! # Examples
//!
//! ```
//! use firefly_idl::{parse_interface, Value};
//!
//! let interface = parse_interface(
//!     "DEFINITION MODULE Test;
//!        PROCEDURE Null();
//!        PROCEDURE MaxResult(VAR OUT buffer: ARRAY OF CHAR);
//!        PROCEDURE MaxArg(VAR IN buffer: ARRAY OF CHAR);
//!      END Test.",
//! ).unwrap();
//! assert_eq!(interface.name(), "Test");
//! assert_eq!(interface.procedures().len(), 3);
//! ```

// No unsafe anywhere in this crate — see DESIGN.md ("Unsafe policy").
#![forbid(unsafe_code)]

pub mod ast;
pub mod codec;
pub mod codegen;
pub mod cost;
pub mod engine;
pub mod error;
pub mod interface;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod value;
pub mod writer;

pub use codec::{ArgReader, ArgWriter, RpcCall};
pub use engine::{CompiledStub, ServerArg, ServerArgs, StubEngine};
pub use error::IdlError;
pub use interface::{InterfaceDef, ProcedureDef};
pub use interp::InterpStub;
pub use plan::{Direction, MarshalOp, MarshalPlan};
pub use value::{Type, Value};
pub use writer::{OutBytes, ResultWriter, Written};

/// Result alias used throughout the crate.
pub type Result<T> = core::result::Result<T, IdlError>;

/// Parses a `DEFINITION MODULE` source text into a ready-to-bind
/// [`InterfaceDef`].
///
/// This is the one-call equivalent of running the Firefly stub compiler on
/// an interface definition.
pub fn parse_interface(source: &str) -> Result<InterfaceDef> {
    let module = parser::parse_module(source)?;
    interface::InterfaceDef::from_ast(module)
}

/// The `Test` interface from §2 of the paper, used by measurements,
/// examples and benchmarks throughout this reproduction:
///
/// ```modula2
/// PROCEDURE Null();
/// PROCEDURE MaxResult(VAR OUT buffer: ARRAY OF CHAR);
/// PROCEDURE MaxArg(VAR IN buffer: ARRAY OF CHAR);
/// ```
pub const TEST_INTERFACE_SOURCE: &str = "\
DEFINITION MODULE Test;
  PROCEDURE Null();
  PROCEDURE MaxResult(VAR OUT buffer: ARRAY OF CHAR);
  PROCEDURE MaxArg(VAR IN buffer: ARRAY OF CHAR);
END Test.
";

/// Parses [`TEST_INTERFACE_SOURCE`].
///
/// # Panics
///
/// Never panics; the source is a compile-time constant covered by tests.
pub fn test_interface() -> InterfaceDef {
    parse_interface(TEST_INTERFACE_SOURCE).expect("built-in Test interface parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_interface_parses() {
        let i = test_interface();
        assert_eq!(i.name(), "Test");
        let names: Vec<&str> = i.procedures().iter().map(|p| p.name()).collect();
        assert_eq!(names, ["Null", "MaxResult", "MaxArg"]);
    }

    #[test]
    fn interface_uid_is_stable() {
        let a = test_interface();
        let b = test_interface();
        assert_eq!(a.uid(), b.uid());
        assert_ne!(a.uid(), 0);
    }
}
