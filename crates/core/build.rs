//! Generates the protocol-transition table the witness records against
//! (`witness::TRANSITIONS` and the `witness::row::*` indices) from the
//! workspace's `protocol.toml`, so the spec has exactly one copy: a row
//! renamed, added or removed there renames, adds or removes the constant
//! here, and every instrumentation site naming the old row stops
//! compiling. The output lands in `OUT_DIR/protocol_rows.rs`.

#![forbid(unsafe_code)]

use std::error::Error;
use std::fmt::Write as _;
use std::path::PathBuf;

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

/// `SCREAMING_SNAKE` of one spec token: `dup-retained` → `DUP_RETAINED`,
/// `ProbeResponse` → `PROBE_RESPONSE`.
fn screaming(token: &str) -> String {
    let mut out = String::new();
    for (i, c) in token.chars().enumerate() {
        if !c.is_ascii_alphanumeric() {
            out.push('_');
            continue;
        }
        if c.is_ascii_uppercase() && i > 0 && !out.ends_with('_') {
            out.push('_');
        }
        out.push(c.to_ascii_uppercase());
    }
    out
}

/// The constant naming a row: state, packet type, each flag's initials
/// (`please_ack+last_fragment` → `PA_LF`, nothing for `-`), action.
fn row_name(row: &str) -> Result<String, String> {
    let malformed = || format!("protocol.toml row {row:?} is not `state Type flags -> action`");
    let (lhs, action) = row.split_once(" -> ").ok_or_else(malformed)?;
    let [state, ty, flags] = lhs.split(' ').collect::<Vec<_>>()[..] else {
        return Err(malformed());
    };
    let mut parts = vec![screaming(state), screaming(ty)];
    if flags != "-" {
        for flag in flags.split('+') {
            parts.push(
                flag.split('_')
                    .filter_map(|w| w.chars().next())
                    .collect::<String>()
                    .to_uppercase(),
            );
        }
    }
    parts.push(screaming(action));
    Ok(parts.join("_"))
}

fn render(rows: &[&str]) -> Result<String, String> {
    let mut table = String::new();
    let mut consts = String::new();
    let mut names: Vec<String> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let name = row_name(row)?;
        if let Some(prev) = names.iter().position(|n| *n == name) {
            return Err(format!(
                "protocol.toml rows {:?} and {row:?} both generate `row::{name}`",
                rows[prev]
            ));
        }
        let _ = writeln!(table, "    {row:?},");
        let _ = writeln!(
            consts,
            "    /// `{row}`\n    pub const {name}: usize = {i};"
        );
        names.push(name);
    }
    Ok(format!(
        "/// The legal transition table, in protocol.toml order.\n\
         pub const TRANSITIONS: [&str; {n}] = [\n{table}];\n\n\
         /// Row indices, named after the spec rows they record: state, packet\n\
         /// type, flag initials, action.\n\
         pub mod row {{\n{consts}}}\n",
        n = rows.len()
    ))
}
