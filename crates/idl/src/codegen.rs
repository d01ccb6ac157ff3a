//! Rust source generation for static stubs.
//!
//! The historical stub compiler emitted Modula-2+ source that was "compiled
//! by the normal compiler" (§2.2), and its stubs moved arguments with
//! "direct assignment statements". The equivalent here emits Rust whose
//! stub bodies are straight-line calls on the in-place
//! [`codec`](crate::codec) — `w.put_i32(n)?`, `r.text()?` — with no
//! [`Value`](crate::Value) and no plan in between:
//!
//! * a **caller stub** `…Client<C>` over any [`RpcCall`](crate::RpcCall)
//!   (`firefly_rpc::Client` and `LocalClient` implement it): each method
//!   writes its arguments into the call packet and reads its results out
//!   of the result packet inside one `call_with`,
//! * a **server trait** `…Server` and the **server stub** `dispatch_…`
//!   that routes a decoded call to it: CHAR arrays reach the procedure as
//!   `&[u8]` in place in the call packet, a `VAR OUT` CHAR array that
//!   leads the result packet is filled in place through an
//!   [`OutBytes`](crate::OutBytes), and every other result is written
//!   through the [`ResultWriter`](crate::ResultWriter)'s codec path.
//!
//! [`rust_stubs`] output is self-contained modulo `firefly_idl`. The
//! umbrella crate's build script generates it for the paper's `Test`
//! interface (`firefly::generated`, pinned by `tests/golden/test_stubs.rs`)
//! and, for the tests, for an interface with every supported shape.
//!
//! Typed signatures follow the marshalling plan: scalars map to
//! `i32`/`u32`/`u8`/`bool`/`f64`; `Text.T` to `Option<&str>` going in and
//! `Option<String>` coming out; CHAR arrays to `&[u8]` / `Vec<u8>`; scalar
//! arrays to `&[T]` / `Vec<T>`; records to tuples of their fields. A
//! caller passes call-direction parameters (a `VAR` parameter's current
//! value included) and gets the result-direction ones back, in declaration
//! order with the function result last, as one value or a tuple.

use crate::ast::Mode;
use crate::interface::{InterfaceDef, ProcedureDef};
use crate::plan::{MarshalOp, PlannedParam, ScalarKind};
use std::fmt::Write;

/// Appends formatted text to a `String` (which cannot fail).
macro_rules! emit {
    ($out:expr, $($arg:tt)*) => {{ let _ = write!($out, $($arg)*); }};
}

fn snake(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// A Modula-2+ name as a Rust identifier: snake case, and clear of
/// Rust's keywords and of the cursor the caller stub's closure binds.
fn ident(name: &str) -> String {
    const TAKEN: &[&str] = &[
        "abstract", "as", "async", "await", "become", "box", "break", "const", "continue", "crate",
        "do", "dyn", "else", "enum", "extern", "false", "final", "fn", "for", "if", "impl", "in",
        "let", "loop", "macro", "match", "mod", "move", "mut", "override", "priv", "pub", "ref",
        "return", "self", "static", "struct", "super", "trait", "true", "try", "type", "typeof",
        "unsafe", "unsized", "use", "virtual", "where", "while", "yield", "w",
    ];
    let mut id = snake(name);
    if TAKEN.contains(&id.as_str()) {
        id.push('_');
    }
    id
}

fn scalar_type(kind: ScalarKind) -> &'static str {
    match kind {
        ScalarKind::Integer => "i32",
        ScalarKind::Cardinal => "u32",
        ScalarKind::Char => "u8",
        ScalarKind::Boolean => "bool",
        ScalarKind::Real => "f64",
    }
}

/// The `ArgWriter::put_…` / `ArgReader::…` method pair of a scalar.
fn scalar_codec(kind: ScalarKind) -> (&'static str, &'static str) {
    match kind {
        ScalarKind::Integer => ("put_i32", "i32"),
        ScalarKind::Cardinal => ("put_u32", "u32"),
        ScalarKind::Char => ("put_char", "char"),
        ScalarKind::Boolean => ("put_bool", "bool"),
        ScalarKind::Real => ("put_real", "real"),
    }
}

fn scalar_variant(kind: ScalarKind) -> &'static str {
    match kind {
        ScalarKind::Integer => "Integer",
        ScalarKind::Cardinal => "Cardinal",
        ScalarKind::Char => "Char",
        ScalarKind::Boolean => "Boolean",
        ScalarKind::Real => "Real",
    }
}

fn is_char_array(op: &MarshalOp) -> bool {
    matches!(
        op,
        MarshalOp::FixedBytes(_) | MarshalOp::OpenBytes | MarshalOp::OpenBytesTail
    )
}

fn tuple(parts: &[String]) -> String {
    match parts {
        [one] => format!("({one},)"),
        _ => format!("({})", parts.join(", ")),
    }
}

/// The Rust type of a value travelling under `op`: borrowed where a
/// caller hands it in (`owned` false), owned where it is handed back.
fn rust_type(op: &MarshalOp, owned: bool) -> String {
    let pick =
        |owned_type: &str, borrowed: &str| if owned { owned_type } else { borrowed }.to_string();
    match op {
        MarshalOp::Scalar(k) => scalar_type(*k).into(),
        MarshalOp::Text => pick("Option<String>", "Option<&str>"),
        MarshalOp::FixedBytes(_) | MarshalOp::OpenBytes | MarshalOp::OpenBytesTail => {
            pick("Vec<u8>", "&[u8]")
        }
        MarshalOp::FixedArray { elem, .. } | MarshalOp::OpenArray { elem } => {
            let elem = scalar_type(*elem);
            pick(&format!("Vec<{elem}>"), &format!("&[{elem}]"))
        }
        MarshalOp::Record(fields) => {
            let parts: Vec<String> = fields.iter().map(|f| rust_type(f, owned)).collect();
            tuple(&parts)
        }
    }
}

/// A parameter as a server procedure receives it: like the caller's
/// borrowed form, except that scalar arrays arrive owned (they are
/// rebuilt from the decoded call, not borrowed from the packet).
fn server_type(op: &MarshalOp) -> String {
    match op {
        MarshalOp::FixedArray { .. } | MarshalOp::OpenArray { .. } => rust_type(op, true),
        MarshalOp::Record(fields) => {
            let parts: Vec<String> = fields.iter().map(server_type).collect();
            tuple(&parts)
        }
        _ => rust_type(op, false),
    }
}

/// Statements that write `expr` (a value of `rust_type(op, owned)`)
/// through the `ArgWriter` `w`.
fn put_stmts(out: &mut String, pad: &str, op: &MarshalOp, expr: &str, owned: bool, context: &str) {
    // A byte array is borrowed for the codec unless it already is a borrow.
    let bytes = if owned {
        format!("&{expr}")
    } else {
        expr.to_string()
    };
    let length_check = |out: &mut String, len: usize| {
        emit!(
            out,
            "{pad}if {expr}.len() != {len} {{\n{pad}    return Err(IdlError::Marshal(format!(\
             \"{context}: fixed array needs {len} elements, value has {{}}\", {expr}.len())));\n{pad}}}\n"
        );
    };
    match op {
        MarshalOp::Scalar(k) => emit!(out, "{pad}w.{}({expr})?;\n", scalar_codec(*k).0),
        MarshalOp::FixedBytes(len) => {
            length_check(out, *len);
            emit!(out, "{pad}w.put_bytes({bytes})?;\n");
        }
        MarshalOp::OpenBytes => emit!(out, "{pad}w.put_open_bytes({bytes})?;\n"),
        MarshalOp::OpenBytesTail => emit!(out, "{pad}w.put_bytes({bytes})?;\n"),
        MarshalOp::FixedArray { elem, .. } | MarshalOp::OpenArray { elem } => {
            if let MarshalOp::FixedArray { len, .. } = op {
                length_check(out, *len);
            } else {
                emit!(out, "{pad}w.put_count({expr}.len())?;\n");
            }
            emit!(
                out,
                "{pad}for x in {expr}.iter() {{\n{pad}    w.{}(*x)?;\n{pad}}}\n",
                scalar_codec(*elem).0
            );
        }
        MarshalOp::Text => emit!(out, "{pad}w.put_text({expr}.as_deref())?;\n"),
        MarshalOp::Record(fields) => {
            for (i, f) in fields.iter().enumerate() {
                put_stmts(out, pad, f, &format!("{expr}.{i}"), owned, context);
            }
        }
    }
}

/// An expression for the encoded size of `expr` under `op`.
fn size_expr(op: &MarshalOp, expr: &str) -> String {
    match op {
        MarshalOp::OpenBytes => format!("4 + {expr}.len()"),
        MarshalOp::OpenBytesTail => format!("{expr}.len()"),
        MarshalOp::OpenArray { elem } => format!("4 + {expr}.len() * {}", elem.size()),
        MarshalOp::Text => format!("4 + {expr}.as_deref().map_or(0, str::len)"),
        MarshalOp::Record(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| size_expr(f, &format!("{expr}.{i}")))
                .collect();
            parts.join(" + ")
        }
        fixed => fixed
            .fixed_size()
            .map_or_else(String::new, |n| n.to_string()),
    }
}

/// An expression that reads one owned value of `op` from the `ArgReader`
/// `r` (it uses `?`).
fn read_expr(op: &MarshalOp) -> String {
    // `count` is a statement binding `n`, already checked against what
    // remains of the packet: neither a wire count nor a declared length
    // sizes an allocation the packet cannot fill.
    let scalars = |count: String, elem: ScalarKind| {
        format!(
            "{{\n                    {count}\n                    \
             let mut a = Vec::with_capacity(n);\n                    \
             for _ in 0..n {{\n                        a.push(r.{}()?);\n                    }}\n                    \
             a\n                }}",
            scalar_codec(elem).1
        )
    };
    match op {
        MarshalOp::Scalar(k) => format!("r.{}()?", scalar_codec(*k).1),
        MarshalOp::FixedBytes(len) => format!("r.bytes({len})?.to_vec()"),
        MarshalOp::OpenBytes => "r.open_bytes()?.to_vec()".into(),
        MarshalOp::OpenBytesTail => "r.rest().to_vec()".into(),
        MarshalOp::FixedArray { len, elem } => scalars(
            format!(
                "let n = {len};\n                    \
                 if n > r.remaining() / {} {{\n                        \
                 return Err(IdlError::Marshal(\"fixed array of {len} elements in a short packet\".into()));\n                    \
                 }}",
                elem.size()
            ),
            *elem,
        ),
        MarshalOp::OpenArray { elem } => {
            scalars(format!("let n = r.count({})?;", elem.size()), *elem)
        }
        MarshalOp::Text => "r.text()?.map(str::to_owned)".into(),
        MarshalOp::Record(fields) => {
            let parts: Vec<String> = fields.iter().map(read_expr).collect();
            tuple(&parts)
        }
    }
}

/// What a procedure's stubs are generated from: its parameters with
/// their plan ops, and the two packet sequences.
struct Shape<'p> {
    procedure: &'p ProcedureDef,
    /// `interface.procedure` for error messages.
    context: String,
}

impl<'p> Shape<'p> {
    fn new(interface: &InterfaceDef, procedure: &'p ProcedureDef) -> Self {
        Shape {
            procedure,
            context: format!("{}.{}", interface.name(), procedure.name()),
        }
    }

    fn mode(&self, index: usize) -> Mode {
        // The function result, planned at index `params.len()`, behaves
        // like a trailing VAR OUT.
        self.procedure
            .params()
            .get(index)
            .map_or(Mode::VarOut, |p| p.mode)
    }

    /// The Rust identifier of planned parameter `index`.
    fn name(&self, index: usize) -> String {
        self.procedure
            .params()
            .get(index)
            .map_or_else(|| "result".into(), |p| ident(&p.name))
    }

    fn call_seq(&self) -> &'p [PlannedParam] {
        &self.procedure.plan().call_seq
    }

    fn result_seq(&self) -> &'p [PlannedParam] {
        &self.procedure.plan().result_seq
    }

    /// The `VAR OUT` CHAR array a server fills in place, if the result
    /// packet starts with one.
    fn leading_out_array(&self) -> Option<&'p PlannedParam> {
        self.result_seq()
            .first()
            .filter(|p| is_char_array(&p.op) && self.mode(p.index) == Mode::VarOut)
    }

    /// The return type of a method handing back `types`.
    fn returns(types: &[String]) -> String {
        match types {
            [] => "()".into(),
            [one] => one.clone(),
            many => format!("({})", many.join(", ")),
        }
    }
}

/// Generates the Rust server trait for an interface.
///
/// Each procedure becomes a method taking its call-direction parameters
/// (CHAR arrays as `&[u8]` in place in the call packet, `VAR` parameters
/// as `&mut` to an owned copy) and returning its `VAR OUT` parameters
/// and function result — except a `VAR OUT` CHAR array that leads the
/// result packet, which the method fills in place through an `OutBytes`.
pub fn server_trait(interface: &InterfaceDef) -> String {
    let mut out = String::new();
    emit!(
        out,
        "/// Server implementation of the `{}` interface (uid {:#018x}).\n",
        interface.name(),
        interface.uid()
    );
    emit!(
        out,
        "pub trait {}Server: Send + Sync {{\n",
        interface.name()
    );
    for p in interface.procedures() {
        let shape = Shape::new(interface, p);
        let in_place = shape.leading_out_array().map(|o| o.index);
        let mut args = vec!["&self".to_string()];
        let mut outs = Vec::new();
        for planned in &p.plan().params {
            let name = shape.name(planned.index);
            match shape.mode(planned.index) {
                Mode::Value | Mode::VarIn => {
                    args.push(format!("{name}: {}", server_type(&planned.op)));
                }
                Mode::VarInOut => {
                    args.push(format!("{name}: &mut {}", rust_type(&planned.op, true)));
                }
                Mode::VarOut if in_place == Some(planned.index) => {
                    args.push(format!("{name}: &mut OutBytes<'_, '_>"));
                }
                Mode::VarOut => outs.push(rust_type(&planned.op, true)),
            }
        }
        emit!(out, "    /// `{}`\n", p.to_modula());
        let ret = match outs.as_slice() {
            [] => String::new(),
            types => format!(" -> {}", Shape::returns(types)),
        };
        emit!(
            out,
            "    fn {}({}){ret};\n",
            ident(p.name()),
            args.join(", ")
        );
    }
    out.push_str("}\n");
    out
}

/// Generates a typed client wrapper (caller stub) for an interface.
pub fn client_stub(interface: &InterfaceDef) -> String {
    let mut out = String::new();
    let name = interface.name();
    emit!(
        out,
        "/// Caller stub for the `{name}` interface (uid {:#018x}).\n",
        interface.uid()
    );
    emit!(out, "pub struct {name}Client<C> {{\n    inner: C,\n}}\n\n");
    emit!(out, "impl<C: RpcCall> {name}Client<C> {{\n");
    out.push_str("    /// Wraps a bound RPC handle.\n");
    out.push_str("    pub fn new(inner: C) -> Self {\n        Self { inner }\n    }\n");
    for p in interface.procedures() {
        let shape = Shape::new(interface, p);
        let mut args = vec!["&self".to_string()];
        for planned in shape.call_seq() {
            // `call_seq` is in declaration order; its op may be the tail
            // form, which has the same Rust type.
            args.push(format!(
                "{}: {}",
                shape.name(planned.index),
                rust_type(&planned.op, false)
            ));
        }
        let outs: Vec<String> = shape
            .result_seq()
            .iter()
            .map(|planned| rust_type(&planned.op, true))
            .collect();
        emit!(out, "\n    /// `{}`\n", p.to_modula());
        emit!(
            out,
            "    pub fn {}({}) -> Result<{}, C::Error> {{\n",
            ident(p.name()),
            args.join(", "),
            Shape::returns(&outs)
        );
        emit!(
            out,
            "        self.inner.call_with(\n            {},\n",
            p.index()
        );
        if shape.call_seq().is_empty() {
            out.push_str("            |_w| Ok(()),\n");
        } else {
            out.push_str("            |w| {\n");
            for planned in shape.call_seq() {
                put_stmts(
                    &mut out,
                    "                ",
                    &planned.op,
                    &shape.name(planned.index),
                    false,
                    &shape.context,
                );
            }
            out.push_str("                Ok(())\n            },\n");
        }
        if shape.result_seq().is_empty() {
            out.push_str("            |_r| Ok(()),\n");
        } else {
            out.push_str("            |r| {\n");
            let mut binds = Vec::new();
            for (i, planned) in shape.result_seq().iter().enumerate() {
                emit!(
                    out,
                    "                let r{i} = {};\n",
                    read_expr(&planned.op)
                );
                binds.push(format!("r{i}"));
            }
            emit!(
                out,
                "                Ok({})\n            }},\n",
                Shape::returns(&binds)
            );
        }
        out.push_str("        )\n    }\n");
    }
    out.push_str("}\n");
    out
}

/// An expression turning the decoded `&Value` `expr` into the server's
/// form of a parameter (see [`server_type`]); `bail` is the expression
/// of type `!` to take when the value has another shape.
fn from_value_expr(op: &MarshalOp, expr: &str, bail: &str) -> String {
    match op {
        MarshalOp::Scalar(k) => format!(
            "match {expr} {{ Value::{}(x) => *x, _ => {bail} }}",
            scalar_variant(*k)
        ),
        MarshalOp::Text => {
            format!("match {expr} {{ Value::Text(t) => t.as_deref(), _ => {bail} }}")
        }
        MarshalOp::FixedBytes(_) | MarshalOp::OpenBytes | MarshalOp::OpenBytesTail => {
            format!("match {expr} {{ Value::Bytes(b) => &b[..], _ => {bail} }}")
        }
        MarshalOp::FixedArray { elem, .. } | MarshalOp::OpenArray { elem } => format!(
            "match {expr} {{\n                    \
             Value::Array(a) => {{\n                        \
             let mut xs = Vec::with_capacity(a.len());\n                        \
             for v in a {{\n                            \
             xs.push(match v {{ Value::{}(x) => *x, _ => {bail} }});\n                        \
             }}\n                        xs\n                    }}\n                    \
             _ => {bail},\n                }}",
            scalar_variant(*elem)
        ),
        MarshalOp::Record(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| from_value_expr(f, &format!("&f[{i}]"), bail))
                .collect();
            format!(
                "match {expr} {{\n                    \
                 Value::Record(f) if f.len() == {} => {},\n                    \
                 _ => {bail},\n                }}",
                fields.len(),
                tuple(&parts)
            )
        }
    }
}

/// An expression turning call argument `args[index]` into the server's
/// form of the parameter.
fn from_server_arg_expr(op: &MarshalOp, index: usize, bail: &str) -> String {
    if is_char_array(op) {
        // In place in the call packet; an engine that copies hands over
        // an owned value instead.
        return format!(
            "match &args[{index}] {{\n                \
             ServerArg::Bytes(b) => *b,\n                \
             ServerArg::Val(Value::Bytes(b)) => &b[..],\n                \
             _ => {bail},\n            }}"
        );
    }
    match op {
        MarshalOp::Scalar(k) => format!(
            "match &args[{index}] {{ ServerArg::Val(Value::{}(x)) => *x, _ => {bail} }}",
            scalar_variant(*k)
        ),
        MarshalOp::Text => format!(
            "match &args[{index}] {{ ServerArg::Val(Value::Text(t)) => t.as_deref(), _ => {bail} }}"
        ),
        _ => format!(
            "match &args[{index}] {{\n                \
             ServerArg::Val(v) => {},\n                \
             _ => {bail},\n            }}",
            from_value_expr(op, "v", bail)
        ),
    }
}

/// An expression giving an owned copy of the borrowed `expr` (a `VAR`
/// parameter's incoming value, which the procedure may overwrite).
fn to_owned_expr(op: &MarshalOp, expr: &str) -> String {
    match op {
        MarshalOp::Text => format!("{expr}.map(str::to_owned)"),
        MarshalOp::FixedBytes(_) | MarshalOp::OpenBytes | MarshalOp::OpenBytesTail => {
            format!("{expr}.to_vec()")
        }
        MarshalOp::Record(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| to_owned_expr(f, &format!("{expr}.{i}")))
                .collect();
            tuple(&parts)
        }
        // Scalars are `Copy`; scalar arrays arrive owned.
        _ => expr.to_string(),
    }
}

/// Generates the server-side dispatch glue: a function that takes the
/// typed arguments out of the decoded call, calls the `{Name}Server`
/// trait, and writes the results through the
/// [`ResultWriter`](crate::ResultWriter) — the generated server stub of
/// §3.1.2.
pub fn server_dispatch(interface: &InterfaceDef) -> String {
    let name = interface.name();
    let mut out = String::new();
    emit!(
        out,
        "/// Generated server stub: routes procedure `index` of `{name}` to a\n\
         /// [`{name}Server`] implementation.\n"
    );
    emit!(
        out,
        "#[allow(unused_variables, clippy::all)]\n\
         pub fn dispatch_{sn}<S: {name}Server>(\n    \
         server: &S,\n    index: u16,\n    args: &[ServerArg<'_>],\n    \
         w: &mut ResultWriter<'_>,\n) -> Result<(), IdlError> {{\n    match index {{\n",
        sn = snake(name)
    );
    for p in interface.procedures() {
        let shape = Shape::new(interface, p);
        let in_place = shape.leading_out_array().map(|o| o.index);
        emit!(out, "        {} => {{\n", p.index());
        emit!(
            out,
            "            if args.len() != {arity} {{\n                \
             return Err(IdlError::Marshal(format!(\"{}: {arity} arguments expected, {{}} decoded\", args.len())));\n            \
             }}\n",
            shape.context,
            arity = p.params().len()
        );
        emit!(
            out,
            "            let bad = |i: usize| IdlError::Marshal(format!(\"{} argument {{i}}: unexpected {{:?}}\", args[i]));\n",
            shape.context
        );
        // Typed arguments, in declaration order.
        let mut call_args = Vec::new();
        let mut returned = Vec::new();
        for planned in &p.plan().params {
            let index = planned.index;
            let var = format!("a{index}");
            let bail = format!("return Err(bad({index}))");
            match shape.mode(index) {
                Mode::Value | Mode::VarIn => {
                    emit!(
                        out,
                        "            let {var} = {};\n",
                        from_server_arg_expr(&planned.op, index, &bail)
                    );
                    call_args.push(var);
                }
                Mode::VarInOut => {
                    emit!(
                        out,
                        "            let {var} = {};\n",
                        from_server_arg_expr(&planned.op, index, &bail)
                    );
                    emit!(
                        out,
                        "            let mut {var} = {};\n",
                        to_owned_expr(&planned.op, &var)
                    );
                    call_args.push(format!("&mut {var}"));
                }
                Mode::VarOut if in_place == Some(index) => {
                    emit!(out, "            let mut {var} = OutBytes::new(w);\n");
                    call_args.push(format!("&mut {var}"));
                }
                Mode::VarOut => returned.push(format!("a{index}")),
            }
        }
        // The up-call. VAR parameters come back through their `&mut`
        // binding, VAR OUT parameters and the function result as the
        // return value.
        let call = format!("server.{}({})", ident(p.name()), call_args.join(", "));
        match returned.as_slice() {
            [] => emit!(out, "            {call};\n"),
            binds => emit!(out, "            let {} = {call};\n", Shape::returns(binds)),
        }
        // The result packet, in plan order.
        for planned in shape.result_seq() {
            let var = format!("a{}", planned.index);
            if in_place == Some(planned.index) {
                emit!(out, "            {var}.done()?;\n");
                continue;
            }
            emit!(
                out,
                "            w.next_with({}, |w| {{\n",
                size_expr(&planned.op, &var)
            );
            put_stmts(
                &mut out,
                "                ",
                &planned.op,
                &var,
                true,
                &shape.context,
            );
            out.push_str("                Ok(())\n            })?;\n");
        }
        out.push_str("            Ok(())\n        }\n");
    }
    out.push_str(
        "        other => Err(IdlError::NoSuchProcedure(format!(\"#{other}\"))),\n    }\n}\n",
    );
    out
}

/// Generates the full stub module: imports, server trait, client
/// wrapper, server dispatch.
pub fn rust_stubs(interface: &InterfaceDef) -> String {
    format!(
        "// Generated by firefly-idl from DEFINITION MODULE {}; do not edit.\n\n\
         pub use firefly_idl::RpcCall;\n\
         #[allow(unused_imports)]\n\
         use firefly_idl::{{IdlError, OutBytes, ResultWriter, ServerArg, Value}};\n\n\
         {}\n{}\n{}",
        interface.name(),
        server_trait(interface),
        client_stub(interface),
        server_dispatch(interface)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_interface;

    #[test]
    fn test_interface_server_trait() {
        let i = crate::test_interface();
        let src = server_trait(&i);
        assert!(src.contains("pub trait TestServer"));
        assert!(src.contains("fn null(&self);"));
        // The paper's two arrays never leave the packets.
        assert!(src.contains("fn max_result(&self, buffer: &mut OutBytes<'_, '_>);"));
        assert!(src.contains("fn max_arg(&self, buffer: &[u8]);"));
    }

    #[test]
    fn function_results_become_returns() {
        let i =
            parse_interface("DEFINITION MODULE M; PROCEDURE Add(a, b: INTEGER): INTEGER; END M.")
                .unwrap();
        let src = server_trait(&i);
        assert!(src.contains("fn add(&self, a: i32, b: i32) -> i32;"));
    }

    #[test]
    fn client_methods_assign_straight_into_the_packet() {
        let i = crate::test_interface();
        let src = client_stub(&i);
        assert!(src.contains("pub fn null(&self) -> Result<(), C::Error>"));
        assert!(src.contains("pub fn max_result(&self) -> Result<Vec<u8>, C::Error>"));
        assert!(src.contains("pub fn max_arg(&self, buffer: &[u8]) -> Result<(), C::Error>"));
        assert!(src.contains("self.inner.call_with(\n            1,"));
        // Tail arrays travel without a count, both ways.
        assert!(src.contains("w.put_bytes(buffer)?;"));
        assert!(src.contains("let r0 = r.rest().to_vec();"));
        assert!(!src.contains("Value"), "no dynamic values in a caller stub");
    }

    #[test]
    fn var_out_scalars_and_records() {
        let i = parse_interface(
            "DEFINITION MODULE M;
               PROCEDURE Stat(VAR OUT size: INTEGER): RECORD ok: BOOLEAN; code: INTEGER END;
             END M.",
        )
        .unwrap();
        let src = client_stub(&i);
        assert!(
            src.contains("-> Result<(i32, (bool, i32)), C::Error>"),
            "{src}"
        );
        assert!(src.contains("let r1 = (r.bool()?, r.i32()?);"), "{src}");
        let src = server_dispatch(&i);
        assert!(src.contains("let (a0, a1) = server.stat();"), "{src}");
        assert!(src.contains("w.next_with(1 + 4, |w| {"), "{src}");
    }

    #[test]
    fn scalar_arrays_map_to_typed_slices() {
        let i = parse_interface(
            "DEFINITION MODULE M;
               PROCEDURE Sum(VAR IN xs: ARRAY OF INTEGER): INTEGER;
             END M.",
        )
        .unwrap();
        let src = client_stub(&i);
        assert!(src.contains("xs: &[i32]"), "{src}");
        assert!(src.contains("w.put_count(xs.len())?;"), "{src}");
        assert!(server_trait(&i).contains("fn sum(&self, xs: Vec<i32>) -> i32;"));
    }

    #[test]
    fn only_a_leading_var_out_array_is_filled_in_place() {
        let i = parse_interface(
            "DEFINITION MODULE M;
               PROCEDURE A(VAR OUT n: INTEGER; VAR OUT b: ARRAY OF CHAR);
               PROCEDURE B(VAR b: ARRAY OF CHAR);
               PROCEDURE C(VAR OUT b: ARRAY [0..3] OF CHAR; VAR OUT c: ARRAY OF CHAR);
             END M.",
        )
        .unwrap();
        let src = server_trait(&i);
        assert!(src.contains("fn a(&self) -> (i32, Vec<u8>);"), "{src}");
        assert!(src.contains("fn b(&self, b: &mut Vec<u8>);"), "{src}");
        assert!(
            src.contains("fn c(&self, b: &mut OutBytes<'_, '_>) -> Vec<u8>;"),
            "{src}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = rust_stubs(&crate::test_interface());
        let b = rust_stubs(&crate::test_interface());
        assert_eq!(a, b);
        assert!(a.starts_with("// Generated by firefly-idl"));
        assert!(a.contains("pub use firefly_idl::RpcCall;"));
    }

    #[test]
    fn names_become_rust_identifiers() {
        assert_eq!(snake("MaxResult"), "max_result");
        assert_eq!(snake("Null"), "null");
        assert_eq!(snake("already_snake"), "already_snake");
        assert_eq!(ident("Type"), "type_");
        assert_eq!(ident("w"), "w_", "`w` is the caller stub's writer");
        assert_eq!(ident("Buffer"), "buffer");
    }
}
