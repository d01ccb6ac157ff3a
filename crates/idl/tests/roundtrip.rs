//! Property tests: marshalling round-trips for arbitrary values, and
//! engine equivalence (interpreted vs compiled).

use firefly_idl::{parse_interface, CompiledStub, InterpStub, StubEngine, Value};
use firefly_propcheck::{check, prop_assert_eq};
use std::sync::Arc;

fn engines(src: &str, name: &str) -> (CompiledStub, InterpStub) {
    let i = parse_interface(src).unwrap();
    let p = i.procedure(name).unwrap();
    (
        i.stubs()[p.index() as usize].clone(),
        InterpStub::new(p.name(), Arc::clone(p.plan())),
    )
}

#[test]
fn scalar_quintuple_round_trips() {
    check("scalar_quintuple_round_trips", 256, |g| {
        let (comp, interp) = engines(
            "DEFINITION MODULE S;
               PROCEDURE P(n: INTEGER; c: CARDINAL; ch: CHAR; b: BOOLEAN; r: LONGREAL);
             END S.",
            "P",
        );
        let args = vec![
            Value::Integer(g.i32()),
            Value::Cardinal(g.u32()),
            Value::Char(g.u8()),
            Value::Boolean(g.bool()),
            Value::Real(g.f64_finite()),
        ];
        let mut buf = vec![0u8; 64];
        let len = comp.marshal_call(&args, &mut buf).unwrap();
        prop_assert_eq!(len, 18);
        let mut buf2 = vec![0u8; 64];
        let len2 = interp.marshal_call(&args, &mut buf2).unwrap();
        prop_assert_eq!(&buf[..len], &buf2[..len2]);
        let server = comp.unmarshal_call(&buf[..len]).unwrap();
        for (got, want) in server.iter().zip(&args) {
            prop_assert_eq!(got.value().unwrap(), want);
        }
        Ok(())
    });
}

#[test]
fn open_char_array_round_trips() {
    check("open_char_array_round_trips", 256, |g| {
        let data = g.bytes(0..1436);
        let (comp, interp) = engines(
            "DEFINITION MODULE A;
               PROCEDURE P(VAR IN blob: ARRAY OF CHAR);
             END A.",
            "P",
        );
        let args = vec![Value::Bytes(data.clone())];
        let mut buf = vec![0u8; 1600];
        let len = comp.marshal_call(&args, &mut buf).unwrap();
        // The sole open array is the last call item, so the tail
        // optimization drops the count prefix entirely.
        prop_assert_eq!(len, data.len());
        // Compiled server borrows in place, zero copy.
        let server = comp.unmarshal_call(&buf[..len]).unwrap();
        prop_assert_eq!(server[0].bytes().unwrap(), &data[..]);
        // Interpreter copies but sees identical content.
        let iserver = interp.unmarshal_call(&buf[..len]).unwrap();
        prop_assert_eq!(iserver[0].value().unwrap().as_bytes().unwrap(), &data[..]);
        Ok(())
    });
}

#[test]
fn text_round_trips() {
    check("text_round_trips", 256, |g| {
        let s = g.string(0..200);
        let use_nil = g.bool();
        let (comp, _) = engines("DEFINITION MODULE T; PROCEDURE P(t: Text.T); END T.", "P");
        let v = if use_nil { Value::nil_text() } else { Value::text(&s) };
        let mut buf = vec![0u8; 1024];
        let len = comp.marshal_call(std::slice::from_ref(&v), &mut buf).unwrap();
        let server = comp.unmarshal_call(&buf[..len]).unwrap();
        prop_assert_eq!(server[0].value().unwrap(), &v);
        Ok(())
    });
}

#[test]
fn result_zero_copy_equals_copy_for_any_payload() {
    check("result_zero_copy_equals_copy_for_any_payload", 256, |g| {
        let data = g.bytes(1..1400);
        let (comp, _) = engines(
            "DEFINITION MODULE R;
               PROCEDURE P(VAR OUT out: ARRAY OF CHAR): INTEGER;
             END R.",
            "P",
        );
        let outputs = vec![Value::Bytes(data.clone()), Value::Integer(42)];
        let mut copy_buf = vec![0u8; 1600];
        let copy_len = comp.marshal_result(&outputs, &mut copy_buf).unwrap();

        let mut zc_buf = vec![0u8; 1600];
        let mut w = comp.result_writer(&mut zc_buf);
        w.next_bytes(data.len()).unwrap().copy_from_slice(&data);
        w.next_value(&Value::Integer(42)).unwrap();
        let zc_len = w.finish().unwrap().len();

        prop_assert_eq!(copy_len, zc_len);
        prop_assert_eq!(&copy_buf[..copy_len], &zc_buf[..zc_len]);
        let back = comp.unmarshal_result(&copy_buf[..copy_len]).unwrap();
        prop_assert_eq!(back, outputs);
        Ok(())
    });
}

#[test]
fn scalar_array_round_trips() {
    check("scalar_array_round_trips", 256, |g| {
        let xs = g.vec(0..100, |g| g.i32());
        let (comp, interp) = engines(
            "DEFINITION MODULE V;
               PROCEDURE P(VAR IN v: ARRAY OF INTEGER);
             END V.",
            "P",
        );
        let args = vec![Value::Array(xs.iter().map(|&x| Value::Integer(x)).collect())];
        let mut buf = vec![0u8; 4 + 400];
        let len = comp.marshal_call(&args, &mut buf).unwrap();
        let a = comp.unmarshal_call(&buf[..len]).unwrap();
        let b = interp.unmarshal_call(&buf[..len]).unwrap();
        prop_assert_eq!(a[0].value().unwrap(), &args[0]);
        prop_assert_eq!(b[0].value().unwrap(), &args[0]);
        Ok(())
    });
}

#[test]
fn flat_records_round_trip() {
    check("flat_records_round_trip", 256, |g| {
        let (a, b, c) = (g.i32(), g.bool(), g.u8());
        let (comp, interp) = engines(
            "DEFINITION MODULE R;
               PROCEDURE P(r: RECORD a: INTEGER; b: BOOLEAN; c: CHAR END): RECORD x, y: INTEGER END;
             END R.",
            "P",
        );
        let rec = Value::Record(vec![Value::Integer(a), Value::Boolean(b), Value::Char(c)]);
        let mut buf = vec![0u8; 64];
        let n = comp.marshal_call(std::slice::from_ref(&rec), &mut buf).unwrap();
        prop_assert_eq!(n, 6);
        let mut buf2 = vec![0u8; 64];
        let n2 = interp.marshal_call(std::slice::from_ref(&rec), &mut buf2).unwrap();
        prop_assert_eq!(&buf[..n], &buf2[..n2]);
        let back = comp.unmarshal_call(&buf[..n]).unwrap();
        prop_assert_eq!(back[0].value(), Some(&rec));
        // Function-result records too.
        let out = Value::Record(vec![Value::Integer(a), Value::Integer(a.wrapping_add(1))]);
        let m = comp.marshal_result(std::slice::from_ref(&out), &mut buf).unwrap();
        prop_assert_eq!(comp.unmarshal_result(&buf[..m]).unwrap()[0].clone(), out);
        Ok(())
    });
}

#[test]
fn corrupt_length_prefix_never_panics() {
    check("corrupt_length_prefix_never_panics", 256, |g| {
        let data = g.bytes(0..64);
        let (comp, _) = engines(
            "DEFINITION MODULE C;
               PROCEDURE P(VAR IN b: ARRAY OF CHAR; t: Text.T);
             END C.",
            "P",
        );
        // Feeding arbitrary bytes must produce Ok or Err, never a panic.
        let _ = comp.unmarshal_call(&data);
        let _ = comp.unmarshal_result(&data);
        Ok(())
    });
}

// ---------------------------------------------------------------------
// One codec under three front ends, for any interface.
// ---------------------------------------------------------------------

use firefly_idl::{ArgReader, ArgWriter, IdlError};
use firefly_propcheck::Gen;

/// A type the stub compiler supports, as the test generates them.
#[derive(Debug, Clone)]
enum Ty {
    Int,
    Card,
    Char,
    Bool,
    Real,
    Text,
    FixedBytes(usize),
    OpenBytes,
    /// Element type is a scalar `Ty`.
    FixedArr(usize, Box<Ty>),
    OpenArr(Box<Ty>),
    Record(Vec<Ty>),
}

fn gen_scalar(g: &mut Gen) -> Ty {
    g.choose(&[Ty::Int, Ty::Card, Ty::Bool, Ty::Real]).clone()
}

fn gen_ty(g: &mut Gen, depth: usize) -> Ty {
    match g.usize_in(0..if depth < 2 { 11 } else { 10 }) {
        0 => Ty::Int,
        1 => Ty::Card,
        2 => Ty::Char,
        3 => Ty::Bool,
        4 => Ty::Real,
        5 => Ty::Text,
        6 => Ty::FixedBytes(g.usize_in(1..20)),
        7 => Ty::OpenBytes,
        8 => Ty::FixedArr(g.usize_in(1..6), Box::new(gen_scalar(g))),
        9 => Ty::OpenArr(Box::new(gen_scalar(g))),
        _ => Ty::Record(g.vec(1..4, |g| gen_ty(g, depth + 1))),
    }
}

fn modula(ty: &Ty) -> String {
    match ty {
        Ty::Int => "INTEGER".into(),
        Ty::Card => "CARDINAL".into(),
        Ty::Char => "CHAR".into(),
        Ty::Bool => "BOOLEAN".into(),
        Ty::Real => "LONGREAL".into(),
        Ty::Text => "Text.T".into(),
        Ty::FixedBytes(n) => format!("ARRAY [0..{}] OF CHAR", n - 1),
        Ty::OpenBytes => "ARRAY OF CHAR".into(),
        Ty::FixedArr(n, elem) => format!("ARRAY [0..{}] OF {}", n - 1, modula(elem)),
        Ty::OpenArr(elem) => format!("ARRAY OF {}", modula(elem)),
        Ty::Record(fields) => {
            let fields: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| format!("f{i}: {}", modula(f)))
                .collect();
            format!("RECORD {} END", fields.join("; "))
        }
    }
}

fn gen_value(g: &mut Gen, ty: &Ty) -> Value {
    match ty {
        Ty::Int => Value::Integer(g.i32()),
        Ty::Card => Value::Cardinal(g.u32()),
        Ty::Char => Value::Char(g.u8()),
        Ty::Bool => Value::Boolean(g.bool()),
        Ty::Real => Value::Real(g.f64_finite()),
        Ty::Text if g.usize_in(0..5) == 0 => Value::nil_text(),
        Ty::Text => Value::text(&g.string(0..30)),
        Ty::FixedBytes(n) => Value::Bytes(g.bytes(*n..*n + 1)),
        Ty::OpenBytes => Value::Bytes(g.bytes(0..40)),
        Ty::FixedArr(n, elem) => Value::Array((0..*n).map(|_| gen_value(g, elem)).collect()),
        Ty::OpenArr(elem) => Value::Array(g.vec(0..8, |g| gen_value(g, elem))),
        Ty::Record(fields) => Value::Record(fields.iter().map(|f| gen_value(g, f)).collect()),
    }
}

/// What a generated stub does for one value: codec calls chosen by the
/// *type*, with no plan and no engine in between. `tail` says the value
/// is the last item of its packet.
fn put_typed(w: &mut ArgWriter<'_>, ty: &Ty, v: &Value, tail: bool) -> Result<(), IdlError> {
    match (ty, v) {
        (Ty::Int, Value::Integer(x)) => w.put_i32(*x),
        (Ty::Card, Value::Cardinal(x)) => w.put_u32(*x),
        (Ty::Char, Value::Char(x)) => w.put_char(*x),
        (Ty::Bool, Value::Boolean(x)) => w.put_bool(*x),
        (Ty::Real, Value::Real(x)) => w.put_real(*x),
        (Ty::Text, Value::Text(t)) => w.put_text(t.as_deref()),
        (Ty::FixedBytes(_), Value::Bytes(b)) => w.put_bytes(b),
        (Ty::OpenBytes, Value::Bytes(b)) if tail => w.put_bytes(b),
        (Ty::OpenBytes, Value::Bytes(b)) => w.put_open_bytes(b),
        (Ty::FixedArr(_, elem), Value::Array(xs)) => {
            xs.iter().try_for_each(|x| put_typed(w, elem, x, false))
        }
        (Ty::OpenArr(elem), Value::Array(xs)) => {
            w.put_count(xs.len())?;
            xs.iter().try_for_each(|x| put_typed(w, elem, x, false))
        }
        (Ty::Record(fields), Value::Record(vs)) => fields
            .iter()
            .zip(vs)
            .try_for_each(|(f, v)| put_typed(w, f, v, false)),
        other => panic!("generated value does not fit its type: {other:?}"),
    }
}

fn elem_size(ty: &Ty) -> usize {
    match ty {
        Ty::Real => 8,
        Ty::Char | Ty::Bool => 1,
        _ => 4,
    }
}

fn read_typed(r: &mut ArgReader<'_>, ty: &Ty, tail: bool) -> Result<Value, IdlError> {
    Ok(match ty {
        Ty::Int => Value::Integer(r.i32()?),
        Ty::Card => Value::Cardinal(r.u32()?),
        Ty::Char => Value::Char(r.char()?),
        Ty::Bool => Value::Boolean(r.bool()?),
        Ty::Real => Value::Real(r.real()?),
        Ty::Text => r.text()?.map_or(Value::nil_text(), Value::text),
        Ty::FixedBytes(n) => Value::Bytes(r.bytes(*n)?.to_vec()),
        Ty::OpenBytes if tail => Value::Bytes(r.rest().to_vec()),
        Ty::OpenBytes => Value::Bytes(r.open_bytes()?.to_vec()),
        Ty::FixedArr(n, elem) => Value::Array(
            (0..*n)
                .map(|_| read_typed(r, elem, false))
                .collect::<Result<_, _>>()?,
        ),
        Ty::OpenArr(elem) => {
            let n = r.count(elem_size(elem))?;
            Value::Array(
                (0..n)
                    .map(|_| read_typed(r, elem, false))
                    .collect::<Result<_, _>>()?,
            )
        }
        Ty::Record(fields) => Value::Record(
            fields
                .iter()
                .map(|f| read_typed(r, f, false))
                .collect::<Result<_, _>>()?,
        ),
    })
}

/// One packet's worth of `(type, value)` items written by the typed path.
fn typed_bytes(items: &[(&Ty, &Value)]) -> Vec<u8> {
    let mut buf = vec![0u8; 4096];
    let mut w = ArgWriter::new(&mut buf);
    for (i, (ty, v)) in items.iter().enumerate() {
        put_typed(&mut w, ty, v, i + 1 == items.len()).unwrap();
    }
    let n = w.written();
    buf.truncate(n);
    buf
}

fn typed_values(data: &[u8], types: &[&Ty]) -> Vec<Value> {
    let mut r = ArgReader::new(data);
    let values = types
        .iter()
        .enumerate()
        .map(|(i, ty)| read_typed(&mut r, ty, i + 1 == types.len()).unwrap())
        .collect();
    r.finish().unwrap();
    values
}

#[test]
fn compiled_interpreted_and_typed_stubs_are_one_wire_format() {
    // What `Config::stub_style` used to test by configuration (an
    // interpreted caller against a compiled server over the loopback
    // net), as a property of the three front ends themselves: for any
    // procedure and any arguments, the plan-driven engine, the
    // interpreted baseline and straight-line codec calls write the same
    // bytes, and each reads what the others wrote — calls and results.
    const MODES: [&str; 4] = ["", "VAR IN ", "VAR OUT ", "VAR "];
    check("one_wire_format", 256, |g| {
        let params: Vec<(usize, Ty)> = g.vec(0..6, |g| (g.usize_in(0..4), gen_ty(g, 0)));
        let result = g.bool().then(|| gen_ty(g, 0));
        let decls: Vec<String> = params
            .iter()
            .enumerate()
            .map(|(i, (mode, ty))| format!("{}p{i}: {}", MODES[*mode], modula(ty)))
            .collect();
        let ret = result.as_ref().map_or(String::new(), |t| format!(": {}", modula(t)));
        let source = format!(
            "DEFINITION MODULE G; PROCEDURE P({}){ret}; END G.",
            decls.join("; ")
        );
        let (comp, interp) = engines(&source, "P");

        // --- The call packet. ---
        let args: Vec<Value> = params.iter().map(|(_, ty)| gen_value(g, ty)).collect();
        let in_call: Vec<(&Ty, &Value)> = params
            .iter()
            .zip(&args)
            .filter(|((mode, _), _)| *mode != 2)
            .map(|((_, ty), v)| (ty, v))
            .collect();
        let typed = typed_bytes(&in_call);
        let mut buf = vec![0u8; 4096];
        let n = comp.marshal_call(&args, &mut buf).unwrap();
        prop_assert_eq!(&buf[..n], &typed[..], "compiled vs typed: {source}");
        let mut buf = vec![0u8; 4096];
        let n = interp.marshal_call(&args, &mut buf).unwrap();
        prop_assert_eq!(&buf[..n], &typed[..], "interpreted vs typed: {source}");

        let sent: Vec<Value> = in_call.iter().map(|(_, v)| (*v).clone()).collect();
        let decoded = |engine: &dyn StubEngine| -> Vec<Value> {
            let server = engine.unmarshal_call(&typed).unwrap();
            assert_eq!(server.len(), params.len());
            server
                .iter()
                .filter_map(|a| match a {
                    firefly_idl::ServerArg::Val(v) => Some(v.clone()),
                    firefly_idl::ServerArg::Bytes(b) => Some(Value::Bytes(b.to_vec())),
                    firefly_idl::ServerArg::Out => None,
                })
                .collect()
        };
        prop_assert_eq!(decoded(&comp), sent.clone(), "compiled reads the call: {source}");
        prop_assert_eq!(decoded(&interp), sent.clone(), "interpreted reads it: {source}");
        let types: Vec<&Ty> = in_call.iter().map(|(ty, _)| *ty).collect();
        prop_assert_eq!(typed_values(&typed, &types), sent, "typed reads it: {source}");

        // --- The result packet. ---
        let out_types: Vec<&Ty> = params
            .iter()
            .filter(|(mode, _)| *mode >= 2)
            .map(|(_, ty)| ty)
            .chain(result.as_ref())
            .collect();
        let outputs: Vec<Value> = out_types.iter().map(|ty| gen_value(g, ty)).collect();
        let items: Vec<(&Ty, &Value)> = out_types.iter().copied().zip(&outputs).collect();
        let typed = typed_bytes(&items);
        let mut buf = vec![0u8; 4096];
        let n = comp.marshal_result(&outputs, &mut buf).unwrap();
        prop_assert_eq!(&buf[..n], &typed[..], "compiled result vs typed: {source}");
        let mut buf = vec![0u8; 4096];
        let n = interp.marshal_result(&outputs, &mut buf).unwrap();
        prop_assert_eq!(&buf[..n], &typed[..], "interpreted result vs typed: {source}");
        // The zero-copy writer too, into a packet it may outgrow.
        let mut small = vec![0u8; 24];
        let mut w = comp.result_writer(&mut small);
        for v in &outputs {
            w.next_value(v).unwrap();
        }
        let written = w.finish().unwrap();
        let via_writer: &[u8] = match &written {
            firefly_idl::Written::InPlace { len } => &small[..*len],
            firefly_idl::Written::Spilled(data) => data,
        };
        prop_assert_eq!(via_writer, &typed[..], "result writer vs typed: {source}");

        prop_assert_eq!(comp.unmarshal_result(&typed).unwrap(), outputs.clone());
        prop_assert_eq!(interp.unmarshal_result(&typed).unwrap(), outputs.clone());
        prop_assert_eq!(typed_values(&typed, &out_types), outputs);
        Ok(())
    });
}

#[test]
fn lent_arguments_equal_returned_arguments_or_errors() {
    // The runtime's server stubs decode onto their own frame and lend the
    // arguments (`with_call_args`); a bench's stub cycle takes them by
    // value (`unmarshal_call`). One decode loop is behind both, so for any
    // plan — fewer parameters than the frame holds, as many, or more —
    // and any packet — whole, cut short, or with bytes left over — they
    // give equal arguments, or the same error and no call of the
    // procedure.
    const MODES: [&str; 4] = ["", "VAR IN ", "VAR OUT ", "VAR "];
    let most = firefly_idl::engine::FRAME_ARGS + 3;
    check("lent_arguments_equal_returned_arguments", 256, |g| {
        let params: Vec<(usize, Ty)> = g.vec(0..most + 1, |g| (g.usize_in(0..4), gen_ty(g, 0)));
        let decls: Vec<String> = params
            .iter()
            .enumerate()
            .map(|(i, (mode, ty))| format!("{}p{i}: {}", MODES[*mode], modula(ty)))
            .collect();
        let source = format!(
            "DEFINITION MODULE G; PROCEDURE P({}); END G.",
            decls.join("; ")
        );
        let (comp, _) = engines(&source, "P");
        let args: Vec<Value> = params.iter().map(|(_, ty)| gen_value(g, ty)).collect();
        let mut buf = vec![0u8; 8192];
        let n = comp.marshal_call(&args, &mut buf).unwrap();
        let mut data = buf[..n].to_vec();
        let packet = match g.usize_in(0..3) {
            0 => "whole",
            1 => {
                data.truncate(g.usize_in(0..n.max(1)));
                "cut short"
            }
            _ => {
                data.extend(g.bytes(1..5));
                "with bytes left over"
            }
        };
        let returned = comp.unmarshal_call(&data);
        let mut ran = false;
        let lent = comp.with_call_args(&data, |lent| {
            ran = true;
            returned.as_ref().is_ok_and(|r| lent == &r[..])
        });
        match (&returned, lent) {
            (Ok(r), Ok(same)) => {
                prop_assert_eq!(r.len(), params.len(), "{source}");
                prop_assert_eq!(same, true, "{packet}: lent arguments differ: {source}");
            }
            (Err(e), Err(f)) => {
                prop_assert_eq!(e, &f, "{packet}: {source}");
                prop_assert_eq!(ran, false, "{packet}: ran on a refused call: {source}");
            }
            (r, l) => {
                return Err(format!("{packet}: returned {r:?}, lent {l:?}: {source}"));
            }
        }
        Ok(())
    });
}
