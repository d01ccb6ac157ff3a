//! Fire / allow / suppress coverage for every rule, driven by the
//! fixture files in `tests/fixtures/`, plus a property test that the
//! tokenizer total-functions over arbitrary byte soup.

use firefly_lint::callgraph::CallGraph;
use firefly_lint::config::Config;
use firefly_lint::rules::{check_source, name};
use firefly_lint::source::SourceFile;
use firefly_lint::tokenizer::tokenize;
use firefly_lint::{dataflow, Diagnostic, Engine, Facts};

/// Lints a fixture as if it lived at a fast-path location so every
/// path-scoped rule is in force.
fn lint(source: &str) -> Vec<Diagnostic> {
    Engine::new(Config::default()).check_source_text("crates/core/src/client.rs", source)
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn no_panic_fires_and_tests_are_exempt() {
    let diags = lint(include_str!("fixtures/no_panic_fire.rs"));
    // `unwrap` on line 2 and `panic!` on line 7; the `unwrap` inside
    // `#[test]` must not be reported.
    assert_eq!(rules_of(&diags), vec![name::NO_PANIC, name::NO_PANIC]);
    assert_eq!(diags[0].line, 2);
    assert_eq!(diags[1].line, 7);
}

#[test]
fn no_panic_justified_allow_suppresses() {
    let diags = lint(include_str!("fixtures/no_panic_allow.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn no_panic_unjustified_allow_is_flagged() {
    let diags = lint(include_str!("fixtures/no_panic_unjustified.rs"));
    assert_eq!(rules_of(&diags), vec![name::UNJUSTIFIED_ALLOW]);
}

#[test]
fn no_alloc_fires_and_error_lines_are_exempt() {
    let diags = lint(include_str!("fixtures/no_alloc_fire.rs"));
    // `.to_vec()` and `Vec::new` fire; the `format!` inside the
    // `ok_or_else` error constructor is exempt.
    assert_eq!(rules_of(&diags), vec![name::NO_ALLOC, name::NO_ALLOC]);
    assert_eq!(diags[0].line, 2);
    assert_eq!(diags[1].line, 3);
}

#[test]
fn no_alloc_fires_on_vec_with_capacity() {
    // The per-call staging of a flat-combining sender: both reservations
    // allocate, the `capacity()` query does not.
    let diags = lint(include_str!("fixtures/no_alloc_with_capacity_fire.rs"));
    assert_eq!(rules_of(&diags), vec![name::NO_ALLOC, name::NO_ALLOC]);
    assert_eq!((diags[0].line, diags[1].line), (2, 3));
}

#[test]
fn no_alloc_justified_allow_suppresses() {
    let diags = lint(include_str!("fixtures/no_alloc_allow.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn nested_lock_fires_on_nesting_only() {
    let diags = lint(include_str!("fixtures/nested_lock_fire.rs"));
    // `element_then_container` takes the table's lock under an entry's
    // — one diagnostic; `one_at_a_time` below it is clean.
    assert_eq!(rules_of(&diags), vec![name::NESTED_LOCK]);
    assert_eq!(diags[0].line, 3);
    assert!(diags[0].message.contains("activities"));
    assert!(diags[0].message.contains("line 2"));
}

#[test]
fn nested_lock_justified_allow_suppresses() {
    let diags = lint(include_str!("fixtures/nested_lock_allow.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn nested_lock_accepts_drop_then_relock_without_suppression() {
    // The guard-lifetime analysis must see that `drop(st)` (and a
    // closing brace) end the entry's guard before the table's lock is
    // taken — no `lint:allow` anywhere in this fixture.
    let diags = lint(include_str!("fixtures/nested_lock_drop_relock.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn no_blocking_fires_on_a_batch_send_under_a_guard() {
    // Every frame the runtime sends leaves through `send_batch`.
    let diags = lint(include_str!("fixtures/no_blocking_send_batch.rs"));
    assert_eq!(rules_of(&diags), vec![name::NO_BLOCKING]);
    assert_eq!(diags[0].line, 3);
    assert!(
        diags[0].message.contains("send_batch"),
        "{}",
        diags[0].message
    );
}

#[test]
fn no_blocking_fires_on_a_send_under_a_guard_retaken_by_assignment() {
    // `st = t.state.lock();` after `drop(st)` takes the guard again, for
    // the rest of the scope `st` was declared in, not just the `if`.
    let diags = lint(include_str!("fixtures/no_blocking_retaken_guard.rs"));
    assert_eq!(rules_of(&diags), vec![name::NO_BLOCKING]);
    assert_eq!(diags[0].line, 8);
}

#[test]
fn no_sleep_fires_outside_tests_only() {
    let diags = lint(include_str!("fixtures/no_sleep_fire.rs"));
    assert_eq!(rules_of(&diags), vec![name::NO_SLEEP]);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn no_sleep_justified_allow_suppresses() {
    let diags = lint(include_str!("fixtures/no_sleep_allow.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn stale_scope_ignores_a_call_of_a_local_closure() {
    // `codec.rs::read_all` calls its parameter `read`; a function named
    // `read` in another package must not join the fast path through it.
    // Before the resolver knew locals, this walk reached `layers.rs`.
    let mut graph = CallGraph::default();
    for (path, text) in [
        ("crates/core/src/client.rs", "fn call() { read_all(&[]); count_all(&[]); }"),
        ("crates/idl/src/codec.rs", include_str!("fixtures/callgraph_local_call.rs")),
        ("rpcbench/src/layers.rs", "fn read() {} fn scan() {}"),
    ] {
        graph.add_file(&SourceFile::new(path, text));
    }
    let reachable = graph.reachable(&["crates/core/src/client.rs::call".into()], &[]);
    let files = CallGraph::reachable_files(&reachable);
    assert!(files.contains("crates/idl/src/codec.rs"), "{files:?}");
    assert!(!files.contains("rpcbench/src/layers.rs"), "{files:?}");
}

#[test]
fn condvar_notify_reads_an_indexed_mutex_as_the_guard_rules_do() {
    // The waiters' mutex is `slots[i]`: `poke` notifies without it,
    // `fill` after it.
    let diags = lint(include_str!("fixtures/condvar_indexed_mutex.rs"));
    assert_eq!(rules_of(&diags), vec![name::CONDVAR_NOTIFY], "{diags:?}");
    assert_eq!(diags[0].line, 17);
    assert!(diags[0].message.contains("`slots`"), "{}", diags[0].message);
}

#[test]
fn a_nested_fn_owns_its_calls_locks_and_waits() {
    let path = "crates/core/src/client.rs";
    let src = include_str!("fixtures/nested_fn_attribution.rs");
    // `outer` takes no lock of its own, so its notify is flagged.
    let diags = lint(src);
    assert_eq!(rules_of(&diags), vec![name::CONDVAR_NOTIFY], "{diags:?}");
    assert_eq!(diags[0].line, 11);
    assert!(diags[0].message.contains("`outer`"), "{}", diags[0].message);
    let facts = dataflow::scan_text(path, src, &Config::default());
    let waits: Vec<&str> = facts.waits.iter().map(|w| w.func.as_str()).collect();
    assert_eq!(waits, ["inner"]);
    // Nothing calls `inner`, so nothing it calls is reachable.
    let mut graph = CallGraph::default();
    graph.add_file(&SourceFile::new(path, src));
    let reachable = graph.reachable(&[format!("{path}::outer")], &[]);
    assert!(
        !reachable.iter().any(|(_, f)| f == "settle"),
        "{reachable:?}"
    );
}

#[test]
fn a_closure_parameter_named_like_a_lock_helper_excuses_no_notify() {
    let diags = lint(include_str!("fixtures/closure_param_notify.rs"));
    assert_eq!(rules_of(&diags), vec![name::CONDVAR_NOTIFY], "{diags:?}");
    assert_eq!(diags[0].line, 17);
}

#[test]
fn rules_stay_quiet_off_the_fast_path() {
    // The same allocating/panicking source at a non-fast-path location
    // only answers to the everywhere-rule (sleep), which it does not
    // violate.
    let engine = Engine::new(Config::default());
    let diags = engine.check_source_text(
        "crates/sim/src/engine.rs",
        include_str!("fixtures/no_panic_fire.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn tokenizer_never_panics_on_arbitrary_bytes() {
    firefly_propcheck::check("tokenize-total", 500, |g| {
        let bytes = g.bytes(0..256);
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let t = tokenize(&text);
        // Weak sanity bound: token count can never exceed char count.
        if t.tokens.len() > text.chars().count() {
            return Err(format!(
                "{} tokens from {} chars",
                t.tokens.len(),
                text.chars().count()
            ));
        }
        Ok(())
    });
}

#[test]
fn tokenizer_never_panics_on_rusty_fragments() {
    // Biased generator: glue together Rust-ish fragments (including
    // pathological unterminated literals) and tokenize the result.
    const PIECES: &[&str] = &[
        "fn f() {", "}", "\"str", "r#\"raw\"#", "r#\"", "'a", "'a'", "b'\\x", "//", "/*", "*/",
        "0.5", "0..5", "x.lock()", "#[test]", "unsafe", "\\", "\"", "\n", "é", "🦀", "r#fn",
        "r#match", "r#", "b'",
    ];
    firefly_propcheck::check("tokenize-rusty-total", 500, |g| {
        let n = g.usize_in(0..40);
        let mut text = String::new();
        for _ in 0..n {
            text.push_str(g.choose::<&str>(PIECES));
        }
        let _ = tokenize(&text);
        Ok(())
    });
}

/// Regression: an unterminated char-literal-ish sequence must never
/// swallow the newline that ends it, or every later diagnostic would
/// point one line too high. Pieces are chosen so that nothing can
/// *legitimately* span lines (no strings, no block comments); a marker
/// after the newline must therefore always land on line 2.
#[test]
fn char_literal_soup_never_drifts_line_numbers() {
    const PIECES: &[&str] = &[
        "'a", "' ", "'abc", "'", "'_", "b'", "b'x", "'a'", "b'x'", "x", "lock", "(", ")", ".",
        "0.5", "r#fn", "r#x",
    ];
    firefly_propcheck::check("char-literal-line-honesty", 500, |g| {
        let n = g.usize_in(0..20);
        let mut text = String::new();
        for _ in 0..n {
            text.push_str(g.choose::<&str>(PIECES));
            text.push(' ');
        }
        text.push_str("\nzz_marker");
        let t = tokenize(&text);
        match t.tokens.iter().find(|tok| tok.text == "zz_marker") {
            Some(tok) if tok.line == 2 => Ok(()),
            Some(tok) => Err(format!("marker on line {} in {text:?}", tok.line)),
            None => Err(format!("marker token swallowed in {text:?}")),
        }
    });
}

/// The interprocedural dataflow engine must be total and deterministic
/// on arbitrary token streams: scanning Rust-ish soup (biased toward
/// the wait/notify/atomic constructs it models, plus bindings, calls
/// and returns around them) never panics, and
/// scanning + evaluating the same text twice yields identical facts,
/// diagnostics, and summaries. So must the whole per-file pass that
/// produces those facts (`check_source` into fresh `Facts`): its
/// diagnostics and every fact it records, the call graph included.
#[test]
fn dataflow_engine_is_total_and_deterministic_on_token_soup() {
    const PIECES: &[&str] = &[
        "fn f(p: &P) {",
        "}",
        "{",
        "let mut g = p.free.lock();",
        "while busy(&g) {",
        "loop {",
        "p.available.wait(&mut g);",
        "p.available.wait_until(&mut g, d);",
        "p.available.notify_one();",
        "p.cond.notify_all();",
        "s.flag.store(1, Ordering::Release);",
        "s.flag.load(Ordering::Relaxed)",
        "s.flag.fetch_add(1, Ordering::AcqRel);",
        "s.flag.compare_exchange(0, 1, Ordering::SeqCst, Ordering::Relaxed)",
        "let b = p.pool.alloc()?;",
        "let Ok(b) = p.pool.alloc()",
        "b.recycle();",
        "stash.lock().push(b);",
        "p.receive_queue.lock().push_back(b);",
        "std::mem::forget(b);",
        "return Ok(b);",
        "b: PacketBuf",
        "Ordering::",
        "&mut",
        "(",
        ")",
        "\"str",
        "/*",
        "'a",
        "?",
        "let mut s = self.m[i].lock();",
        "fn g(read: impl Fn()) {",
        "read();",
        "drop(g);",
        "t.transport.send_batch(b, r);",
    ];
    let config = Config::default();
    firefly_propcheck::check("dataflow-total-deterministic", 300, |g| {
        let n = g.usize_in(0..30);
        let mut text = String::new();
        for _ in 0..n {
            text.push_str(g.choose::<&str>(PIECES));
            text.push(if g.usize_in(0..4) == 0 { '\n' } else { ' ' });
        }
        let first = firefly_lint::dataflow::scan_text("crates/core/src/client.rs", &text, &config);
        let second = firefly_lint::dataflow::scan_text("crates/core/src/client.rs", &text, &config);
        if format!("{first:?}") != format!("{second:?}") {
            return Err(format!("non-deterministic facts for {text:?}"));
        }
        let (diags_a, summary_a) = firefly_lint::dataflow::evaluate(&first, &config);
        let (diags_b, summary_b) = firefly_lint::dataflow::evaluate(&second, &config);
        if summary_a != summary_b {
            return Err(format!("non-deterministic summary for {text:?}"));
        }
        if format!("{diags_a:?}") != format!("{diags_b:?}") {
            return Err(format!("non-deterministic diagnostics for {text:?}"));
        }
        let pass = || {
            let mut facts = Facts::default();
            let diags = check_source(
                &SourceFile::new("crates/core/src/client.rs", &text),
                &config,
                &mut facts,
            );
            format!("{diags:?} {facts:?}")
        };
        if pass() != pass() {
            return Err(format!("non-deterministic per-file pass for {text:?}"));
        }
        Ok(())
    });
}

/// Regression: `r#ident` must tokenize as one plain identifier, not a
/// phantom `r`, `#`, and a bare keyword token that the fn extractor
/// would mistake for a definition.
#[test]
fn raw_identifiers_never_leak_keyword_tokens() {
    const KEYWORDS: &[&str] = &["fn", "match", "loop", "struct", "impl", "type", "move", "let"];
    firefly_propcheck::check("raw-ident-regression", 200, |g| {
        let kw = g.choose::<&str>(KEYWORDS);
        let text = format!("call(r#{kw}); let r#{kw} = 1;");
        let t = tokenize(&text);
        // The keyword text may appear (as the raw identifier's name),
        // but no stray `#` may survive, and tokenizing the same text
        // twice must be deterministic.
        if t.tokens.iter().any(|tok| tok.text == "#") {
            return Err(format!("stray `#` token in {text:?}: {:?}", t.tokens));
        }
        let again = tokenize(&text);
        if again.tokens.len() != t.tokens.len() {
            return Err("non-deterministic tokenization".to_string());
        }
        Ok(())
    });
}
