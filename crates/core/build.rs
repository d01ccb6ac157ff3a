//! Generates the protocol-transition table the witness records against
//! from the workspace's `protocol.toml`, so the spec has exactly one
//! copy: `witness::TRANSITIONS` (the rows), the `witness::State` and
//! `witness::Action` enums (the tokens the rows name), `witness::ROWS`
//! (each row taken apart) and `witness::row`, the lookup from a
//! `(state, packet type, flags, action)` tuple to its row. A state or
//! action renamed or removed there renames or removes its variant here,
//! and every instrumentation site naming the old one stops compiling; so
//! does a packet type or flag the wire crate lacks. The output lands in
//! `OUT_DIR/protocol_rows.rs`.

#![forbid(unsafe_code)]

use std::error::Error;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The `PacketFlags` fields, in the order the spec's flags column lists
/// them. The generated patterns name every field, so a field renamed in
/// the wire crate fails the build rather than this list drifting.
const FLAGS: [&str; 4] = ["please_ack", "last_fragment", "acks_result", "call_failed"];

fn main() -> Result<(), Box<dyn Error>> {
    let spec = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR")?).join("../../protocol.toml");
    println!("cargo:rerun-if-changed={}", spec.display());
    println!("cargo:rerun-if-changed=build.rs");
    let text = std::fs::read_to_string(&spec).map_err(|e| {
        format!(
            "cannot read {}: {e} (the packet-protocol spec must sit at the workspace root)",
            spec.display()
        )
    })?;
    let rows = legal_rows(&text)?;
    let out = PathBuf::from(std::env::var("OUT_DIR")?).join("protocol_rows.rs");
    std::fs::write(&out, render(&rows)?)?;
    Ok(())
}

/// The quoted rows of `[transitions].legal`, in file order.
fn legal_rows(text: &str) -> Result<Vec<&str>, String> {
    let mut section = "";
    let mut in_legal = false;
    let mut rows = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') && !in_legal {
            section = line;
        } else if section == "[transitions]" && line.starts_with("legal") {
            in_legal = true;
        } else if in_legal && line.starts_with(']') {
            break;
        } else if in_legal && line.starts_with('"') {
            let row = line.trim_end_matches(',').trim_matches('"');
            rows.push(row);
        }
    }
    if rows.is_empty() {
        return Err("protocol.toml has no rows in [transitions].legal".to_string());
    }
    Ok(rows)
}

/// `CamelCase` of one spec token: `dup-retained` → `DupRetained`.
fn camel(token: &str) -> String {
    let mut out = String::new();
    for word in token.split('-') {
        let mut chars = word.chars();
        out.extend(chars.next().map(|c| c.to_ascii_uppercase()));
        out.extend(chars);
    }
    out
}

/// A `#[repr(u8)]` enum of spec tokens, with `ALL` and `name()`.
fn token_enum(out: &mut String, name: &str, tokens: &[&str]) {
    let n = tokens.len();
    let variants: Vec<String> = tokens.iter().map(|t| camel(t)).collect();
    let _ = writeln!(
        out,
        "/// The {name} tokens protocol.toml's rows name, in order of first appearance.\n\
         #[derive(Clone, Copy, Debug, PartialEq, Eq)]\n#[repr(u8)]\n\
         pub enum {name} {{ {} }}\n\n\
         impl {name} {{\n    \
         /// Every variant, in declaration order.\n    \
         pub const ALL: [{name}; {n}] = [{name}::{}];\n    \
         const NAMES: [&'static str; {n}] = {tokens:?};\n\n    \
         /// The spec token, exactly as protocol.toml spells it.\n    \
         pub fn name(self) -> &'static str {{\n        Self::NAMES[self as usize]\n    }}\n}}\n",
        variants.join(", "),
        variants.join(&format!(", {name}::")),
    );
}

fn render(rows: &[&str]) -> Result<String, String> {
    let (mut states, mut actions, mut tuples) = (Vec::new(), Vec::new(), Vec::new());
    for (i, row) in rows.iter().enumerate() {
        let malformed = || format!("protocol.toml row {row:?} is not `state Type flags -> action`");
        let (lhs, action) = row.split_once(" -> ").ok_or_else(malformed)?;
        let [state, ty, flags] = lhs.split(' ').collect::<Vec<_>>()[..] else {
            return Err(malformed());
        };
        let set: Vec<&str> = flags.split('+').filter(|f| *f != "-").collect();
        if let Some(unknown) = set.iter().find(|f| !FLAGS.contains(f)) {
            return Err(format!(
                "protocol.toml row {row:?} names an unknown flag {unknown:?}"
            ));
        }
        if rows[..i].contains(row) {
            return Err(format!("protocol.toml lists the row {row:?} twice"));
        }
        for (token, seen) in [(state, &mut states), (action, &mut actions)] {
            if !seen.contains(&token) {
                seen.push(token);
            }
        }
        let fields: Vec<String> = FLAGS
            .iter()
            .map(|f| format!("{f}: {}", set.contains(f)))
            .collect();
        tuples.push(format!(
            "(State::{}, PacketType::{ty}, PacketFlags {{ {} }}, Action::{})",
            camel(state),
            fields.join(", "),
            camel(action)
        ));
    }

    let n = rows.len();
    let mut out = format!(
        "/// The legal transition table, in protocol.toml order.\n\
         pub const TRANSITIONS: [&str; {n}] = {rows:?};\n\n"
    );
    token_enum(&mut out, "State", &states);
    token_enum(&mut out, "Action", &actions);
    let arms: String = tuples
        .iter()
        .enumerate()
        .map(|(i, t)| format!("        {t} => Some({i}),\n"))
        .collect();
    let _ = write!(
        out,
        "/// Each row of [`TRANSITIONS`] taken apart, in the same order.\n\
         pub const ROWS: [(State, PacketType, PacketFlags, Action); {n}] = [\n    {}\n];\n\n\
         /// The index in [`TRANSITIONS`] of the row `state Type flags -> action`,\n\
         /// or `None` when the spec has no such row.\n\
         #[inline]\n\
         pub fn row(state: State, ty: PacketType, flags: PacketFlags, action: Action) -> Option<usize> {{\n    \
         match (state, ty, flags, action) {{\n{arms}        _ => None,\n    }}\n}}\n",
        tuples.join(",\n    ")
    );
    Ok(out)
}
