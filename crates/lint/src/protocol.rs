//! Protocol-conformance: extract the implemented packet state machine
//! from the token streams and diff it against the declared spec in
//! `protocol.toml`.
//!
//! The spec file declares the packet types, the flag vocabulary, which
//! functions implement each type's receive side, which flags each
//! receive side must read, who may build explicit acknowledgements, and
//! the full `(state, type, flags) -> action` transition table. The scan
//! extracts four kinds of implementation facts:
//!
//! * **construction sites** — `PacketType::T` used as a value (not a
//!   match pattern, not a comparison), with the flags set alongside it
//!   (struct-literal fields or builder calls);
//! * **dispatch matches** — every `match` whose scrutinee mentions
//!   `packet_type`, with the set of types its arms cover;
//! * **flag reads** — `flags.F` accesses inside the declared handler
//!   functions;
//! * **ack discipline** — `ack_for` call sites and the retransmission
//!   functions' presence, retry counters and sends.
//!
//! [`evaluate`] diffs the facts against the spec into four rules (see
//! docs/LINTS.md, family `protocol-conformance`):
//! `protocol-unhandled-type`, `protocol-missing-arm`,
//! `protocol-unread-flag`, `protocol-ack-discipline`. The spec's
//! transition table itself is not evaluated here:
//! `firefly_check::gates::protocol` checks it against the transitions
//! `firefly-check` observes dynamically (the fourth gate).

use std::collections::{BTreeMap, BTreeSet};

use crate::config::{parse_sections, Config};
use crate::rules::{is_test_path, name};
use crate::scope::functions;
use crate::source::{match_brace, SourceFile};
use crate::tokenizer::{Token, TokenKind};
use crate::Diagnostic;

/// The declared protocol, parsed from `protocol.toml`.
#[derive(Debug, Clone)]
pub struct ProtocolSpec {
    /// Packet type names (`Call`, `Result`, ...).
    pub types: Vec<String>,
    /// Flag names in canonical rendering order.
    pub flag_order: Vec<String>,
    /// Path prefixes the extractor scans for constructions/dispatches.
    pub scope_files: Vec<String>,
    /// Path prefixes containing the receive-side handler functions.
    pub handler_files: Vec<String>,
    /// Packet type -> functions implementing its receive side.
    pub handlers: BTreeMap<String, Vec<String>>,
    /// Packet type -> flags its receive side must read.
    pub flag_reads: BTreeMap<String, Vec<String>>,
    /// Functions allowed to call `RpcHeader::ack_for`.
    pub ack_allowed_callers: Vec<String>,
    /// Retransmission functions that must exist with a retry counter
    /// and a send.
    pub retransmit_functions: Vec<String>,
    /// The legal `(state, type, flags) -> action` rows, verbatim.
    pub transitions: Vec<String>,
    /// Legal rows deliberately not exercised dynamically.
    pub coverage_allowlist: Vec<String>,
}

impl ProtocolSpec {
    /// Parses the spec from `protocol.toml` text. Missing sections
    /// parse as empty lists — the evaluation then has nothing to
    /// require, so a partial spec degrades to fewer checks, never a
    /// panic.
    pub fn from_toml(text: &str) -> ProtocolSpec {
        let sections = parse_sections(text);
        let list = |sec: &str, key: &str| -> Vec<String> {
            sections
                .get(sec)
                .and_then(|s| s.get(key))
                .cloned()
                .unwrap_or_default()
        };
        let map = |sec: &str| -> BTreeMap<String, Vec<String>> {
            sections
                .get(sec)
                .map(|s| s.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
                .unwrap_or_default()
        };
        ProtocolSpec {
            types: list("packet-types", "types"),
            flag_order: list("flags", "order"),
            scope_files: list("scope", "files"),
            handler_files: list("scope", "handler-files"),
            handlers: map("handlers"),
            flag_reads: map("flag-reads"),
            ack_allowed_callers: list("ack-discipline", "allowed-callers"),
            retransmit_functions: list("ack-discipline", "retransmit-functions"),
            transitions: list("transitions", "legal"),
            coverage_allowlist: list("coverage", "allowlist"),
        }
    }
}

/// One dispatch `match` over a `packet_type` scrutinee.
#[derive(Debug, Clone)]
pub struct DispatchSite {
    pub path: String,
    pub line: usize,
    /// Packet types named by the arms (over-approximated: any
    /// `PacketType::T` inside the body counts).
    pub covered: BTreeSet<String>,
    /// True when a `_ =>` arm appears in the body.
    pub wildcard: bool,
}

/// Implementation facts accumulated per file and merged workspace-wide.
#[derive(Debug, Default)]
pub struct ProtocolFacts {
    /// `(type, path, line, flags-set-at-site)` per construction.
    pub constructions: Vec<(String, String, usize, BTreeSet<String>)>,
    /// `(type, path, line)` per match-arm pattern mention.
    pub arm_types: Vec<(String, String, usize)>,
    /// Dispatch matches over `packet_type`.
    pub dispatches: Vec<DispatchSite>,
    /// `(function, flag, path, line)` per `flags.F` read in a handler
    /// file.
    pub flag_reads: Vec<(String, String, String, usize)>,
    /// `(function, path, line)` of declared handler-function bodies.
    pub handler_fns: Vec<(String, String, usize)>,
    /// `(enclosing function, path, line)` per `ack_for` call.
    pub ack_sites: Vec<(String, String, usize)>,
    /// `(name, path, line, has_counter, has_send)` per retransmission
    /// function body found.
    pub retransmit_fns: Vec<(String, String, usize, bool, bool)>,
}

impl ProtocolFacts {
    /// Unions another accumulation into this one.
    pub fn merge(&mut self, other: ProtocolFacts) {
        self.constructions.extend(other.constructions);
        self.arm_types.extend(other.arm_types);
        self.dispatches.extend(other.dispatches);
        self.flag_reads.extend(other.flag_reads);
        self.handler_fns.extend(other.handler_fns);
        self.ack_sites.extend(other.ack_sites);
        self.retransmit_fns.extend(other.retransmit_fns);
    }
}

/// Extracts this file's protocol facts. Test files and files outside
/// the spec's scope contribute nothing.
pub fn scan_file(file: &SourceFile, spec: &ProtocolSpec, facts: &mut ProtocolFacts) {
    if is_test_path(&file.rel_path) {
        return;
    }
    let in_scope = Config::path_matches(&file.rel_path, &spec.scope_files);
    let in_handlers = Config::path_matches(&file.rel_path, &spec.handler_files);
    if !in_scope && !in_handlers {
        return;
    }
    let toks = &file.tokens.tokens;
    if in_scope {
        scan_type_mentions(file, toks, spec, facts);
        scan_dispatches(file, toks, spec, facts);
        scan_ack_discipline(file, toks, spec, facts);
    }
    if in_handlers {
        scan_handler_flag_reads(file, toks, spec, facts);
    }
}

/// True when the token at `i` is an identifier with the given text.
fn ident_at(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn punct_at(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.text == text)
}

/// Classifies every `PacketType::T` mention as a match-arm pattern, a
/// comparison operand (ignored), or a value-construction site (with
/// the flags set alongside it).
fn scan_type_mentions(
    file: &SourceFile,
    toks: &[Token],
    spec: &ProtocolSpec,
    facts: &mut ProtocolFacts,
) {
    for i in 0..toks.len() {
        if !ident_at(toks, i, "PacketType")
            || !punct_at(toks, i + 1, ":")
            || !punct_at(toks, i + 2, ":")
        {
            continue;
        }
        let Some(ty) = toks.get(i + 3).filter(|t| {
            t.kind == TokenKind::Ident && spec.types.iter().any(|s| s == &t.text)
        }) else {
            continue;
        };
        if file.is_test_line(ty.line) {
            continue;
        }
        let after_arrow = punct_at(toks, i + 4, "=") && punct_at(toks, i + 5, ">");
        let after_or = punct_at(toks, i + 4, "|");
        if after_arrow || after_or {
            facts
                .arm_types
                .push((ty.text.clone(), file.rel_path.clone(), ty.line));
            continue;
        }
        // `== PacketType::T` / `!= PacketType::T` are reads, not
        // constructions.
        let compared = i >= 2
            && punct_at(toks, i - 1, "=")
            && (punct_at(toks, i - 2, "=") || punct_at(toks, i - 2, "!"));
        if compared {
            continue;
        }
        let flags = flags_set_near(toks, i, spec);
        facts
            .constructions
            .push((ty.text.clone(), file.rel_path.clone(), ty.line, flags));
    }
}

/// The flags set alongside a construction at token `i0` (the
/// `PacketType` ident). A `packet_type: PacketType::T` struct-literal
/// field scans the enclosing literal's braces for `F: <non-false>`
/// fields; any other shape (builder argument, match-arm body) scans
/// forward to the statement end for `.F(<non-false>)` setter calls.
fn flags_set_near(toks: &[Token], i0: usize, spec: &ProtocolSpec) -> BTreeSet<String> {
    let mut flags = BTreeSet::new();
    let is_flag = |t: &Token| t.kind == TokenKind::Ident && spec.flag_order.iter().any(|f| f == &t.text);
    let struct_field = i0 >= 2 && ident_at(toks, i0 - 2, "packet_type") && punct_at(toks, i0 - 1, ":");
    if struct_field {
        // Walk back to the literal's opening brace (bounded).
        let mut depth = 0usize;
        let mut open = None;
        for j in (i0.saturating_sub(500)..i0.saturating_sub(1)).rev() {
            match toks[j].text.as_str() {
                "}" => depth += 1,
                "{" => {
                    if depth == 0 {
                        open = Some(j);
                        break;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        let Some(open) = open else {
            return flags;
        };
        let close = match_brace(toks, open);
        for j in open..close {
            // `F: value` with value != `false`; skip `::F` paths and
            // `F::` paths (a single `:` on each side means a field).
            if is_flag(&toks[j])
                && punct_at(toks, j + 1, ":")
                && !punct_at(toks, j + 2, ":")
                && !(j >= 1 && punct_at(toks, j - 1, ":"))
                && !ident_at(toks, j + 2, "false")
            {
                flags.insert(toks[j].text.clone());
            }
        }
    } else {
        // Builder chain: `.F(arg)` until the statement ends.
        for j in i0..(i0 + 300).min(toks.len()) {
            if punct_at(toks, j, ";") {
                break;
            }
            if j >= 1
                && punct_at(toks, j - 1, ".")
                && is_flag(&toks[j])
                && punct_at(toks, j + 1, "(")
                && !ident_at(toks, j + 2, "false")
            {
                flags.insert(toks[j].text.clone());
            }
        }
    }
    flags
}

/// Finds every `match` whose scrutinee mentions `packet_type` and
/// records which types its body names and whether it has a wildcard.
fn scan_dispatches(
    file: &SourceFile,
    toks: &[Token],
    spec: &ProtocolSpec,
    facts: &mut ProtocolFacts,
) {
    for i in 0..toks.len() {
        if !ident_at(toks, i, "match") || file.is_test_line(toks[i].line) {
            continue;
        }
        // Scrutinee: tokens up to the body's `{` (bounded — a missing
        // brace means this isn't a match expression we understand).
        let Some(open) = (i + 1..(i + 60).min(toks.len())).find(|&j| toks[j].text == "{") else {
            continue;
        };
        let mentions = toks[i + 1..open]
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "packet_type");
        if !mentions {
            continue;
        }
        let close = match_brace(toks, open);
        let mut covered = BTreeSet::new();
        let mut wildcard = false;
        for j in open..close {
            if ident_at(toks, j, "PacketType")
                && punct_at(toks, j + 1, ":")
                && punct_at(toks, j + 2, ":")
            {
                if let Some(t) = toks
                    .get(j + 3)
                    .filter(|t| spec.types.iter().any(|s| s == &t.text))
                {
                    covered.insert(t.text.clone());
                }
            }
            if punct_at(toks, j, "_") && punct_at(toks, j + 1, "=") && punct_at(toks, j + 2, ">") {
                wildcard = true;
            }
        }
        facts.dispatches.push(DispatchSite {
            path: file.rel_path.clone(),
            line: toks[i].line,
            covered,
            wildcard,
        });
    }
}

/// Records `flags.F` reads inside declared handler-function bodies,
/// and the handler definitions themselves (diagnostic anchors).
fn scan_handler_flag_reads(
    file: &SourceFile,
    toks: &[Token],
    spec: &ProtocolSpec,
    facts: &mut ProtocolFacts,
) {
    let is_handler =
        |name: &str| spec.handlers.values().any(|fns| fns.iter().any(|f| f == name));
    for f in functions(toks) {
        if !is_handler(&f.name) || file.is_test_line(f.line) {
            continue;
        }
        facts
            .handler_fns
            .push((f.name.clone(), file.rel_path.clone(), f.line));
        for j in f.open..f.close {
            if ident_at(toks, j, "flags") && punct_at(toks, j + 1, ".") {
                if let Some(flag) = toks.get(j + 2).filter(|t| {
                    t.kind == TokenKind::Ident && spec.flag_order.iter().any(|fl| fl == &t.text)
                }) {
                    facts.flag_reads.push((
                        f.name.clone(),
                        flag.text.clone(),
                        file.rel_path.clone(),
                        flag.line,
                    ));
                }
            }
        }
    }
}

/// Records `ack_for` call sites with their enclosing function, and the
/// retransmission-function bodies with their counter/send evidence.
fn scan_ack_discipline(
    file: &SourceFile,
    toks: &[Token],
    spec: &ProtocolSpec,
    facts: &mut ProtocolFacts,
) {
    let fns = functions(toks);
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident
            || tok.text != "ack_for"
            || !punct_at(toks, i + 1, "(")
            || file.is_test_line(tok.line)
        {
            continue;
        }
        // `fn ack_for(...)` is the definition, not a call.
        if i >= 1 && ident_at(toks, i - 1, "fn") {
            continue;
        }
        // Innermost enclosing function (largest `open` still before i).
        let enclosing = fns
            .iter()
            .filter(|f| f.open < i && i < f.close)
            .max_by_key(|f| f.open)
            .map(|f| f.name.clone())
            .unwrap_or_else(|| "<top-level>".to_string());
        facts
            .ack_sites
            .push((enclosing, file.rel_path.clone(), tok.line));
    }
    for f in &fns {
        if !spec.retransmit_functions.iter().any(|r| r == &f.name) || file.is_test_line(f.line) {
            continue;
        }
        let body = &toks[f.open..f.close];
        let has = |names: &[&str]| {
            body.iter()
                .any(|t| t.kind == TokenKind::Ident && names.iter().any(|n| *n == t.text))
        };
        facts.retransmit_fns.push((
            f.name.clone(),
            file.rel_path.clone(),
            f.line,
            has(&["attempts", "transmissions"]),
            has(&["send_built", "send_batch", "send", "send_to"]),
        ));
    }
}

/// Diffs the accumulated facts against the spec: the four
/// `protocol-conformance` rules.
pub fn evaluate(facts: &ProtocolFacts, spec: &ProtocolSpec) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let spec_anchor = |rule: &'static str, message: String| Diagnostic {
        rule,
        path: "protocol.toml".to_string(),
        line: 1,
        message,
        witness: Vec::new(),
    };

    // protocol-unhandled-type: every declared type needs at least one
    // construction site and at least one dispatch arm in scope.
    for ty in &spec.types {
        let constructed = facts.constructions.iter().any(|(t, ..)| t == ty);
        let dispatched = facts.arm_types.iter().any(|(t, ..)| t == ty)
            || facts.dispatches.iter().any(|d| d.covered.contains(ty));
        if !constructed || !dispatched {
            let missing = match (constructed, dispatched) {
                (false, false) => "no construction site and no dispatch arm",
                (false, true) => "no construction site",
                _ => "no dispatch arm",
            };
            diags.push(spec_anchor(
                name::PROTOCOL_UNHANDLED_TYPE,
                format!(
                    "packet type `{ty}` is declared in protocol.toml but the scanned \
                     sources have {missing} for it; implement both sides or remove \
                     the type from the spec"
                ),
            ));
        }
    }

    // protocol-missing-arm: a dispatch over `packet_type` must name
    // every declared type or carry a `_` arm.
    for d in &facts.dispatches {
        if d.wildcard {
            continue;
        }
        let missing: Vec<&String> = spec.types.iter().filter(|t| !d.covered.contains(*t)).collect();
        if !missing.is_empty() {
            diags.push(Diagnostic {
                rule: name::PROTOCOL_MISSING_ARM,
                path: d.path.clone(),
                line: d.line,
                message: format!(
                    "this `match` on a packet type has no arm for {} and no `_` \
                     wildcard; every declared packet type must be routed (or \
                     explicitly dropped)",
                    missing
                        .iter()
                        .map(|t| format!("`{t}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                witness: Vec::new(),
            });
        }
    }

    // protocol-unread-flag, direction 1: a flag set at a construction
    // site of type T that [flag-reads].T does not declare is dead on
    // the wire.
    let empty: Vec<String> = Vec::new();
    for (ty, path, line, flags) in &facts.constructions {
        let declared = spec.flag_reads.get(ty).unwrap_or(&empty);
        for flag in flags {
            if !declared.iter().any(|f| f == flag) {
                diags.push(Diagnostic {
                    rule: name::PROTOCOL_UNREAD_FLAG,
                    path: path.clone(),
                    line: *line,
                    message: format!(
                        "`{flag}` is set at this `{ty}` construction site but \
                         [flag-reads].{ty} in protocol.toml does not declare it — \
                         the receive side never reads it, so the bit is dead on \
                         the wire (or the spec is stale)"
                    ),
                    witness: Vec::new(),
                });
            }
        }
    }
    // Direction 2: every declared flag read must occur in one of the
    // type's handler bodies.
    for (ty, flags) in &spec.flag_reads {
        let handler_fns = spec.handlers.get(ty).unwrap_or(&empty);
        for flag in flags {
            let read = facts
                .flag_reads
                .iter()
                .any(|(func, f, ..)| f == flag && handler_fns.iter().any(|h| h == func));
            if !read {
                let anchor = facts
                    .handler_fns
                    .iter()
                    .find(|(func, ..)| handler_fns.iter().any(|h| h == func));
                let mut d = spec_anchor(
                    name::PROTOCOL_UNREAD_FLAG,
                    format!(
                        "[flag-reads].{ty} declares `{flag}` but none of its handlers \
                         ({}) reads `flags.{flag}` — the receive side cannot \
                         distinguish the spec's `{ty}` transition rows",
                        handler_fns.join(", ")
                    ),
                );
                if let Some((_, path, line)) = anchor {
                    d.path = path.clone();
                    d.line = *line;
                }
                diags.push(d);
            }
        }
    }

    // protocol-ack-discipline: explicit acks only from the allowed
    // callers; every retransmission path exists with a retry counter
    // and a send.
    for (func, path, line) in &facts.ack_sites {
        if !spec.ack_allowed_callers.iter().any(|a| a == func) {
            diags.push(Diagnostic {
                rule: name::PROTOCOL_ACK_DISCIPLINE,
                path: path.clone(),
                line: *line,
                message: format!(
                    "`ack_for` called from `{func}`, which is not in \
                     [ack-discipline].allowed-callers — the protocol acks \
                     implicitly everywhere else (a Result acks its Call, the next \
                     Call acks the previous Result)"
                ),
                witness: Vec::new(),
            });
        }
    }
    for rf in &spec.retransmit_functions {
        let found: Vec<_> = facts
            .retransmit_fns
            .iter()
            .filter(|(n, ..)| n == rf)
            .collect();
        if found.is_empty() {
            diags.push(spec_anchor(
                name::PROTOCOL_ACK_DISCIPLINE,
                format!(
                    "retransmission function `{rf}` declared in \
                     [ack-discipline].retransmit-functions was not found in the \
                     scanned sources — the implicit-ack design depends on it"
                ),
            ));
            continue;
        }
        for (_, path, line, has_counter, has_send) in found {
            if !has_counter || !has_send {
                let lacks = match (has_counter, has_send) {
                    (false, false) => "a retry counter or a send",
                    (false, true) => "a retry counter",
                    _ => "a send",
                };
                diags.push(Diagnostic {
                    rule: name::PROTOCOL_ACK_DISCIPLINE,
                    path: path.clone(),
                    line: *line,
                    message: format!(
                        "retransmission function `{rf}` no longer contains {lacks}; \
                         a silent refactor here orphans the recovery path the \
                         implicit-ack protocol depends on"
                    ),
                    witness: Vec::new(),
                });
            }
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
[packet-types]
types = ["Call", "Result"]

[flags]
order = ["please_ack", "last_fragment"]

[scope]
files = ["src"]
handler-files = ["src/handler.rs"]

[handlers]
Call = ["handle_call"]
Result = ["deliver"]

[flag-reads]
Call = ["last_fragment"]
Result = []

[ack-discipline]
allowed-callers = ["handle_call"]
retransmit-functions = ["transact"]

[transitions]
legal = [
    "server-new Call last_fragment -> dispatch",
]

[coverage]
allowlist = []
"#;

    fn scan(spec: &ProtocolSpec, files: &[(&str, &str)]) -> ProtocolFacts {
        let mut facts = ProtocolFacts::default();
        for (path, text) in files {
            scan_file(&SourceFile::new(path, text), spec, &mut facts);
        }
        facts
    }

    /// A minimal conforming implementation for the test spec.
    const GOOD_HANDLER: &str = "fn handle_call(rpc: &RpcHeader) {\n\
        if rpc.flags.last_fragment { dispatch(); }\n\
        let a = RpcHeader::ack_for(rpc);\n\
        }\n\
        fn deliver(pkt: Packet) {\n\
        match pkt.rpc.packet_type {\n\
        PacketType::Call => route(pkt),\n\
        PacketType::Result => accept(pkt),\n\
        }\n\
        }\n\
        fn transact() { let mut attempts = 0; send_built(&b); }\n\
        fn build() -> RpcHeader {\n\
        RpcHeader { packet_type: PacketType::Call, flags: f(), last_fragment: true }\n\
        }\n\
        fn build_res() -> RpcHeader {\n\
        RpcHeader { packet_type: PacketType::Result, data_len: 0 }\n\
        }\n";

    #[test]
    fn spec_parses_every_section() {
        let spec = ProtocolSpec::from_toml(SPEC);
        assert_eq!(spec.types, vec!["Call", "Result"]);
        assert_eq!(spec.flag_order.len(), 2);
        assert_eq!(spec.handlers["Call"], vec!["handle_call"]);
        assert_eq!(spec.flag_reads["Result"], Vec::<String>::new());
        assert_eq!(spec.transitions.len(), 1);
        assert_eq!(
            spec.transitions[0],
            "server-new Call last_fragment -> dispatch"
        );
        assert!(spec.coverage_allowlist.is_empty());
    }

    #[test]
    fn conforming_sources_are_clean() {
        let spec = ProtocolSpec::from_toml(SPEC);
        let facts = scan(&spec, &[("src/handler.rs", GOOD_HANDLER)]);
        let diags = evaluate(&facts, &spec);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(spec.transitions.len(), 1);
        assert!(facts.constructions.len() >= 2);
    }

    #[test]
    fn missing_construction_or_arm_fires_unhandled_type() {
        let spec = ProtocolSpec::from_toml(SPEC);
        // `Result` is matched but never constructed.
        let src = "fn deliver(pkt: Packet) {\n\
            match pkt.rpc.packet_type {\n\
            PacketType::Call => route(pkt),\n\
            PacketType::Result => accept(pkt),\n\
            }\n\
            }\n\
            fn handle_call(rpc: &RpcHeader) { let _ = rpc.flags.last_fragment; }\n\
            fn transact() { let mut attempts = 0; send_built(&b); }\n\
            fn build() -> RpcHeader {\n\
            RpcHeader { packet_type: PacketType::Call }\n\
            }\n";
        let facts = scan(&spec, &[("src/handler.rs", src)]);
        let diags = evaluate(&facts, &spec);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == name::PROTOCOL_UNHANDLED_TYPE && d.message.contains("`Result`")),
            "{diags:?}"
        );
    }

    #[test]
    fn incomplete_match_fires_missing_arm() {
        let spec = ProtocolSpec::from_toml(SPEC);
        let src = "fn route(pkt: Packet) {\n\
            match pkt.rpc.packet_type {\n\
            PacketType::Call => go(pkt),\n\
            }\n\
            }\n";
        let facts = scan(&spec, &[("src/route.rs", src)]);
        let diags = evaluate(&facts, &spec);
        let hit = diags
            .iter()
            .find(|d| d.rule == name::PROTOCOL_MISSING_ARM)
            .expect("missing-arm fires");
        assert_eq!(hit.line, 2);
        assert!(hit.message.contains("`Result`"));
    }

    #[test]
    fn wildcard_satisfies_missing_arm() {
        let spec = ProtocolSpec::from_toml(SPEC);
        let src = "fn route(pkt: Packet) {\n\
            match pkt.rpc.packet_type {\n\
            PacketType::Call => go(pkt),\n\
            _ => drop(pkt),\n\
            }\n\
            }\n";
        let facts = scan(&spec, &[("src/route.rs", src)]);
        let diags = evaluate(&facts, &spec);
        assert!(!diags.iter().any(|d| d.rule == name::PROTOCOL_MISSING_ARM));
    }

    #[test]
    fn undeclared_flag_set_fires_unread_flag() {
        let spec = ProtocolSpec::from_toml(SPEC);
        // `please_ack` is set on a Result, whose flag-reads list is
        // empty: the bit is dead on the wire.
        let src = "fn build() -> RpcHeader {\n\
            RpcHeader { packet_type: PacketType::Result, please_ack: true }\n\
            }\n";
        let facts = scan(&spec, &[("src/build.rs", src)]);
        let diags = evaluate(&facts, &spec);
        let hit = diags
            .iter()
            .find(|d| d.rule == name::PROTOCOL_UNREAD_FLAG && d.path == "src/build.rs")
            .expect("unread-flag fires");
        assert_eq!(hit.line, 2);
        assert!(hit.message.contains("please_ack"));
    }

    #[test]
    fn unread_declared_flag_fires_at_the_handler() {
        let spec = ProtocolSpec::from_toml(SPEC);
        // handle_call never reads flags.last_fragment.
        let src = "fn handle_call(rpc: &RpcHeader) { dispatch(); }\n";
        let facts = scan(&spec, &[("src/handler.rs", src)]);
        let diags = evaluate(&facts, &spec);
        let hit = diags
            .iter()
            .find(|d| d.rule == name::PROTOCOL_UNREAD_FLAG && d.message.contains("handle_call"))
            .expect("unread declared flag fires");
        assert_eq!(hit.path, "src/handler.rs");
    }

    #[test]
    fn ack_from_unlisted_caller_fires_ack_discipline() {
        let spec = ProtocolSpec::from_toml(SPEC);
        let src = "fn rogue(rpc: &RpcHeader) { let a = RpcHeader::ack_for(rpc); }\n";
        let facts = scan(&spec, &[("src/rogue.rs", src)]);
        let diags = evaluate(&facts, &spec);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == name::PROTOCOL_ACK_DISCIPLINE && d.message.contains("rogue")),
            "{diags:?}"
        );
    }

    #[test]
    fn gutted_retransmit_function_fires_ack_discipline() {
        let spec = ProtocolSpec::from_toml(SPEC);
        let src = "fn transact() { just_once(); }\n";
        let facts = scan(&spec, &[("src/client.rs", src)]);
        let diags = evaluate(&facts, &spec);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == name::PROTOCOL_ACK_DISCIPLINE
                    && d.message.contains("transact")
                    && d.path == "src/client.rs"),
            "{diags:?}"
        );
    }

    #[test]
    fn missing_retransmit_function_fires_at_the_spec() {
        let spec = ProtocolSpec::from_toml(SPEC);
        let facts = scan(&spec, &[("src/empty.rs", "fn other() {}\n")]);
        let diags = evaluate(&facts, &spec);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == name::PROTOCOL_ACK_DISCIPLINE && d.path == "protocol.toml"),
            "{diags:?}"
        );
    }

    #[test]
    fn comparisons_and_test_code_are_not_constructions() {
        let spec = ProtocolSpec::from_toml(SPEC);
        let src = "fn is_res(rpc: &RpcHeader) -> bool { rpc.packet_type == PacketType::Result }\n\
            #[cfg(test)]\n\
            mod tests {\n\
            fn t() { let h = RpcHeader { packet_type: PacketType::Result }; }\n\
            }\n";
        let facts = scan(&spec, &[("src/q.rs", src)]);
        assert!(
            !facts.constructions.iter().any(|(t, ..)| t == "Result"),
            "{:?}",
            facts.constructions
        );
    }
}
