//! Property: rendering an interface back to Modula-2+ source and
//! reparsing it yields the same interface (same UID, hence the same wire
//! identity) — over *randomly generated* interfaces.

use firefly_idl::ast::{Mode, TypeExpr};
use firefly_idl::parse_interface;
use firefly_propcheck::{check, prop_assert_eq, Gen};

fn arb_scalar(g: &mut Gen) -> TypeExpr {
    g.choose(&[
        TypeExpr::Integer,
        TypeExpr::Cardinal,
        TypeExpr::Char,
        TypeExpr::Boolean,
        TypeExpr::Real,
    ])
    .clone()
}

/// Types the IDL accepts in any position: scalars, Text.T, CHAR/scalar
/// arrays (fixed and open), and flat records — weighted like the
/// original proptest strategy (4:1:2:2:1).
fn arb_type(g: &mut Gen) -> TypeExpr {
    match g.usize_in(0..10) {
        0..=3 => arb_scalar(g),
        4 => TypeExpr::Text,
        5 | 6 => TypeExpr::FixedArray {
            len: g.usize_in(1..100),
            elem: Box::new(arb_scalar(g)),
        },
        7 | 8 => TypeExpr::OpenArray {
            elem: Box::new(arb_scalar(g)),
        },
        _ => TypeExpr::Record {
            fields: (0..g.usize_in(1..4))
                .map(|i| (format!("f{i}"), arb_scalar(g)))
                .collect(),
        },
    }
}

/// A generated procedure: its parameters and its return type.
type Proc = (Vec<(Mode, TypeExpr)>, Option<TypeExpr>);

fn arb_mode(g: &mut Gen) -> Mode {
    *g.choose(&[Mode::Value, Mode::VarIn, Mode::VarOut, Mode::VarInOut])
}

#[test]
fn render_then_parse_is_identity() {
    check("render_then_parse_is_identity", 64, |g| {
        let procs: Vec<Proc> = g.vec(1..5, |g| {
            let params = g.vec(0..4, |g| (arb_mode(g), arb_type(g)));
            let ret = if g.bool() { Some(arb_type(g)) } else { None };
            (params, ret)
        });

        // Build a source text from the generated shapes.
        let mut src = String::from("DEFINITION MODULE Gen;\n");
        for (pi, (params, ret)) in procs.iter().enumerate() {
            let ps: Vec<String> = params
                .iter()
                .enumerate()
                .map(|(ai, (mode, ty))| format!("{}a{ai}: {}", mode.to_modula(), ty.to_modula()))
                .collect();
            let ret_s = match ret {
                Some(t) => format!(": {}", t.to_modula()),
                None => String::new(),
            };
            src.push_str(&format!("  PROCEDURE P{pi}({}){ret_s};\n", ps.join("; ")));
        }
        src.push_str("END Gen.\n");

        let first = parse_interface(&src).expect("generated source parses");
        let rendered = first.to_modula_source();
        let second = parse_interface(&rendered).expect("rendered source reparses");
        prop_assert_eq!(first.uid(), second.uid(), "rendered:\n{}", rendered);
        prop_assert_eq!(first.procedures().len(), second.procedures().len());
        // And the rendered text is a fixed point.
        prop_assert_eq!(rendered.clone(), second.to_modula_source());
        Ok(())
    });
}

#[test]
fn test_interface_source_round_trips() {
    let i = firefly_idl::test_interface();
    let again = parse_interface(&i.to_modula_source()).unwrap();
    assert_eq!(i.uid(), again.uid());
}
