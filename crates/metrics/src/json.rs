//! A minimal, dependency-free JSON value with a canonical writer and a
//! strict parser — the serialization layer of the `BENCH_*.json` perf
//! trajectory.
//!
//! Design constraints, in order:
//!
//! * **Serialization-safe.** IEEE 754 has values JSON cannot express;
//!   [`Json::num`] maps non-finite input to `null` instead of emitting
//!   the invalid tokens `inf`/`NaN` (the bug that motivated this module:
//!   an empty histogram's `min()` once returned `+∞`, which would have
//!   poisoned the very first snapshot). Consumers that must not see
//!   `null` assert that at the schema level (`firefly-bench gate` does).
//! * **Round-trip stable.** `parse(s).to_string() == s` for any string
//!   this writer produced: object key order is preserved (objects are
//!   association lists, not maps), numbers use Rust's shortest-exact
//!   `f64` display, and strings escape through one canonical path. The
//!   propcheck property in `tests/props.rs` holds this invariant for
//!   arbitrary trees.
//! * **Small.** Only what the bench snapshot and its gate need; this is
//!   not a general-purpose JSON library.

use std::fmt;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (construction via [`Json::num`] enforces this).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and significant for
    /// round-tripping. Duplicate keys are not rejected but [`Json::get`]
    /// returns the first.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Wraps a number, mapping non-finite values to `Json::Null` so the
    /// emitted document is always valid JSON.
    pub fn num(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }

    /// Wraps a string.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An empty object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a field to an object (panics on non-objects — builder
    /// misuse is a programming error, caught by every test that builds a
    /// snapshot).
    pub fn set(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Field lookup on objects (first match); `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Nested lookup: `root.at(&["latency_us", "null", "p50"])`.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        let mut cur = self;
        for key in path {
            cur = cur.get(key)?;
        }
        Some(cur)
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// True if any node in the tree is `null` (the writer's image of a
    /// non-finite number; snapshot tests assert its absence).
    pub fn contains_null(&self) -> bool {
        match self {
            Json::Null => true,
            Json::Bool(_) | Json::Num(_) | Json::Str(_) => false,
            Json::Arr(items) => items.iter().any(Json::contains_null),
            Json::Obj(fields) => fields.iter().any(|(_, v)| v.contains_null()),
        }
    }

    /// Serializes with two-space indentation and a trailing newline —
    /// the on-disk `BENCH_*.json` format.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict: one value, trailing whitespace
    /// only).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError::at(pos, "trailing characters after value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    /// Compact (single-line) serialization.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Shortest `f64` representation that parses back exactly; this is what
/// makes emit → parse → re-emit byte-identical.
fn write_number(out: &mut String, v: f64) {
    use fmt::Write;
    let _ = write!(out, "{v}");
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    fn at(offset: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(ParseError::at(*pos, format!("expected `{lit}`")))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    match bytes.get(*pos) {
        None => Err(ParseError::at(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(ParseError::at(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                skip_ws(bytes, pos);
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(ParseError::at(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError::at(*pos, "expected `\"`"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(ParseError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| ParseError::at(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| ParseError::at(*pos, "invalid \\u escape"))?;
                        // Surrogate pairs are not produced by our writer;
                        // lone surrogates decode to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(ParseError::at(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is &str, so slicing on
                // the next char boundary is safe).
                let rest = &bytes[*pos..];
                let s = std::str::from_utf8(rest)
                    .map_err(|_| ParseError::at(*pos, "invalid UTF-8"))?;
                let c = s.chars().next().ok_or_else(|| {
                    ParseError::at(*pos, "unterminated string")
                })?;
                if (c as u32) < 0x20 {
                    return Err(ParseError::at(*pos, "unescaped control character"));
                }
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| ParseError::at(start, "invalid number"))?;
    let v: f64 = text
        .parse()
        .map_err(|_| ParseError::at(start, format!("invalid number `{text}`")))?;
    if !v.is_finite() {
        // A literal too large for f64 (e.g. 1e999); JSON allows it,
        // round-tripping does not.
        return Err(ParseError::at(start, "number overflows f64"));
    }
    Ok(Json::Num(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::num(f64::INFINITY), Json::Null);
        assert_eq!(Json::num(f64::NEG_INFINITY), Json::Null);
        assert_eq!(Json::num(2.5), Json::Num(2.5));
    }

    #[test]
    fn builder_and_lookup() {
        let doc = Json::obj()
            .set("a", Json::num(1.0))
            .set("b", Json::obj().set("c", Json::str("x")));
        assert_eq!(doc.at(&["b", "c"]).and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(1.0));
        assert!(doc.get("missing").is_none());
        assert!(!doc.contains_null());
        assert!(doc.set("d", Json::num(f64::NAN)).contains_null());
    }

    #[test]
    fn round_trips_basic_documents() {
        for text in [
            "null",
            "true",
            "[1,2.5,-3e-7]",
            "{\"k\":\"v\",\"n\":[{},[]]}",
            "\"esc \\\" \\\\ \\n \\u0001\"",
        ] {
            let v = Json::parse(text).expect(text);
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn pretty_output_parses_back() {
        let doc = Json::obj()
            .set("arr", Json::Arr(vec![Json::num(1.0), Json::Bool(false)]))
            .set("obj", Json::obj().set("x", Json::str("y")));
        let pretty = doc.to_pretty();
        assert!(pretty.ends_with('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_input() {
        for text in ["", "{", "[1,]", "{\"a\"}", "nul", "1e999", "\"\\x\"", "1 2"] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }
}
