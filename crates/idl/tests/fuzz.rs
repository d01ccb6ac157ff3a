//! Robustness: the parser and unmarshallers must reject garbage without
//! panicking — stubs face wire data from untrusted peers.

use firefly_idl::{parse_interface, InterpStub, StubEngine, Value};
use firefly_propcheck::{check, prop_assert, Gen};
use std::sync::Arc;

#[test]
fn parser_never_panics() {
    check("parser_never_panics", 256, |g| {
        let source = g.string(0..300);
        let _ = parse_interface(&source);
        Ok(())
    });
}

#[test]
fn parser_never_panics_on_idl_like_soup() {
    const WORDS: &[&str] = &[
        "DEFINITION", "MODULE", "PROCEDURE", "VAR", "IN", "OUT", "ARRAY", "OF", "CHAR",
        "INTEGER", "RECORD", "END", "Text", "T", ";", ":", "(", ")", ".", "..", "[", "]",
        ",", "x", "0", "1439",
    ];
    check("parser_never_panics_on_idl_like_soup", 256, |g: &mut Gen| {
        let words = g.vec(0..60, |g| *g.choose(WORDS));
        let source = words.join(" ");
        let _ = parse_interface(&source);
        Ok(())
    });
}

/// Every op a plan can hold, in both directions, tail and non-tail.
const SHAPES: &str = "DEFINITION MODULE Shapes;
  PROCEDURE Scalars(VAR n: INTEGER; VAR c: CARDINAL; VAR ch: CHAR; VAR b: BOOLEAN; VAR x: LONGREAL);
  PROCEDURE Texts(VAR a: Text.T; VAR b: Text.T);
  PROCEDURE Bytes(VAR fixed: ARRAY [0..7] OF CHAR; VAR counted: ARRAY OF CHAR; VAR tail: ARRAY OF CHAR);
  PROCEDURE OpenArrays(VAR xs: ARRAY OF INTEGER; VAR cs: ARRAY OF CHAR; VAR rs: ARRAY OF LONGREAL);
  PROCEDURE FixedArrays(VAR m: ARRAY [0..3] OF ARRAY [0..4] OF INTEGER; VAR big: ARRAY [0..99999999] OF LONGREAL);
  PROCEDURE Records(VAR r: RECORD a: INTEGER; t: Text.T; b: BOOLEAN;
                                  inner: RECORD xs: ARRAY OF INTEGER; s: ARRAY OF CHAR END END);
END Shapes.";

/// The heap a decoded value holds, in bytes.
fn footprint(v: &Value) -> usize {
    match v {
        Value::Bytes(b) => b.len(),
        Value::Text(Some(t)) => t.len(),
        Value::Array(vs) | Value::Record(vs) => {
            vs.len() * std::mem::size_of::<Value>() + vs.iter().map(footprint).sum::<usize>()
        }
        _ => 0,
    }
}

#[test]
fn hostile_packets_are_refused_without_panic_or_outsized_allocation() {
    // `#![forbid(unsafe_code)]` rules out a counting allocator, so the
    // allocation bound is checked on what decoding *returns*: whatever a
    // packet decodes to holds at most a small multiple of the packet's
    // size (a 4-byte element becomes a 32-byte `Value`). The other half —
    // that a refused packet allocated nothing for its forged count — is
    // `ArgReader::count`'s, unit-tested there: before this bound a
    // four-byte packet asked for 137 GB and aborted the process.
    let iface = parse_interface(SHAPES).unwrap();
    let stubs = iface.stubs();
    check("hostile_packets", 2048, |g| {
        let mut data = g.bytes(0..96);
        // Often, a length field that lies: all ones, or just too large.
        if g.bool() && data.len() >= 4 {
            let at = g.usize_in(0..data.len() - 3);
            let lie = *g.choose(&[u32::MAX, 0xffff_fff0, 0x7fff_ffff, data.len() as u32 + 1]);
            data[at..at + 4].copy_from_slice(&lie.to_be_bytes());
        }
        let budget = 16 * data.len() + 64;
        for stub in stubs.iter() {
            if let Ok(args) = stub.unmarshal_call(&data) {
                let held: usize = args.iter().filter_map(|a| a.value()).map(footprint).sum();
                prop_assert!(held <= budget, "call decoded to {held} bytes from {}", data.len());
            }
            if let Ok(values) = stub.unmarshal_result(&data) {
                let held: usize = values.iter().map(footprint).sum();
                prop_assert!(held <= budget, "result decoded to {held} bytes from {}", data.len());
            }
            let interp = InterpStub::new("fuzz", Arc::clone(StubEngine::plan(stub)));
            let _ = interp.unmarshal_call(&data);
            let _ = interp.unmarshal_result(&data);
        }
        Ok(())
    });
}

#[test]
fn a_four_byte_forged_count_is_an_error_in_both_directions() {
    let iface = parse_interface(SHAPES).unwrap();
    let p = iface.procedure("OpenArrays").unwrap();
    let stub = &iface.stubs()[p.index() as usize];
    let forged = [0xff, 0xff, 0xff, 0xf0];
    assert!(stub.unmarshal_call(&forged).is_err());
    assert!(stub.unmarshal_result(&forged).is_err());
}
