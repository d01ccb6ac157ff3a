//! Everything behind the one `firefly-bench <experiment>` executable.
//!
//! Each table experiment prints the paper's published numbers next to
//! this reproduction's, plus relative deltas, in plain text (default) or
//! Markdown (`--markdown`), so EXPERIMENTS.md can be regenerated
//! mechanically. [`snapshot`] and [`gate`] keep the repo's own
//! performance ledger (`BENCH_NNNN.json`, docs/BENCH.md).

// No unsafe anywhere in this crate — see DESIGN.md ("Unsafe policy").
#![forbid(unsafe_code)]

use firefly_idl::{InterfaceDef, InterpStub, StubEngine};
use firefly_metrics::{Stopwatch, Table};
use std::sync::Arc;

pub mod account;
pub mod experiments;
pub mod gate;
pub mod snapshot;

/// Output mode selected by the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Human-readable aligned text.
    Text,
    /// Markdown table fragments for EXPERIMENTS.md.
    Markdown,
}

/// What follows the experiment's name on the command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--markdown`, parsed once for every experiment.
    pub mode: Mode,
    /// Every other word, in order.
    pub rest: Vec<String>,
}

impl Args {
    /// Splits `--markdown` off the words after the experiment's name.
    pub fn parse(words: impl IntoIterator<Item = String>) -> Args {
        let (markdown, rest): (Vec<String>, Vec<String>) =
            words.into_iter().partition(|w| w == "--markdown");
        Args {
            mode: if markdown.is_empty() {
                Mode::Text
            } else {
                Mode::Markdown
            },
            rest,
        }
    }

    /// Whether `name` (e.g. `--smoke`) was given.
    pub fn flag(&self, name: &str) -> bool {
        self.rest.iter().any(|w| w == name)
    }

    /// The word after `name` (e.g. `--calls 500`), if both are there.
    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.rest.iter().position(|w| w == name)?;
        self.rest.get(at + 1).map(String::as_str)
    }
}

/// Renders a table in the selected mode.
pub fn emit(table: &Table, mode: Mode) {
    match mode {
        Mode::Text => println!("{table}"),
        Mode::Markdown => println!("{}", table.render_markdown()),
    }
}

/// Nanoseconds per run of `f`, averaged over `iters` runs.
pub fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let w = Stopwatch::start();
    for _ in 0..iters {
        f();
    }
    w.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// One marshalling round in nanoseconds, done the three ways the stub
/// layer offers: straight-line codec calls (what a generated stub is),
/// the plan-driven engine over `Value`s (the dynamic API), and the
/// interpreted engine (Table IX's baseline).
#[derive(Debug, Clone, Copy)]
pub struct StubTimes {
    pub typed: f64,
    pub dynamic: f64,
    pub interpreted: f64,
}

impl StubTimes {
    /// Column headings matching [`StubTimes::cells`].
    pub const COLUMNS: [&'static str; 3] = ["typed ns", "dynamic ns", "interpreted ns"];

    /// Times `typed` and, over both engines of `interface`'s
    /// `procedure` (its compiled stub and an interpreter of the same
    /// plan), `round`; each gets the same `buf_len`-byte packet buffer to
    /// work in.
    pub fn measure(
        interface: &InterfaceDef,
        procedure: &str,
        iters: u32,
        buf_len: usize,
        mut typed: impl FnMut(&mut [u8]),
        round: impl Fn(&dyn StubEngine, &mut [u8]),
    ) -> StubTimes {
        let procedure = interface.procedure(procedure).expect("the procedure is declared");
        let compiled = &interface.stubs()[procedure.index() as usize];
        let interp = InterpStub::new(procedure.name(), Arc::clone(procedure.plan()));
        let mut buf = vec![0u8; buf_len];
        StubTimes {
            typed: time_ns(iters, || typed(&mut buf)),
            dynamic: time_ns(iters, || round(compiled, &mut buf)),
            interpreted: time_ns(iters, || round(&interp, &mut buf)),
        }
    }

    /// The three times less `base`'s (the paper states marshalling costs
    /// as increments over a call without the argument).
    pub fn over(&self, base: &StubTimes) -> StubTimes {
        StubTimes {
            typed: self.typed - base.typed,
            dynamic: self.dynamic - base.dynamic,
            interpreted: self.interpreted - base.interpreted,
        }
    }

    /// The three times as table cells.
    pub fn cells(&self) -> [String; 3] {
        [self.typed, self.dynamic, self.interpreted].map(|ns| format!("{ns:.0}"))
    }
}

/// Formats a measured-vs-paper pair with a relative delta.
///
/// When the paper does not state a value (`f64::NAN` in the published
/// tables, e.g. [`IMPROVEMENTS`]) or states zero, there is no meaningful
/// delta, so only the bare measured value is emitted — the delta used to
/// render as the literal string `NaN%`.
pub fn vs(ours: f64, paper: f64, digits: usize) -> String {
    if paper == 0.0 || !paper.is_finite() {
        return format!("{ours:.*}", digits);
    }
    let delta = (ours - paper) / paper * 100.0;
    format!("{ours:.*} ({delta:+.0}%)", digits)
}

/// Formats a published value for table output: `f64::NAN` (the marker
/// for numbers the paper does not state) renders as `n/s` — "not
/// stated" — instead of the literal `NaN`.
pub fn paper_num(paper: f64, digits: usize) -> String {
    if paper.is_finite() {
        format!("{paper:.*}", digits)
    } else {
        "n/s".to_string()
    }
}

/// Published cross-system results for Table XII (machine, processor,
/// approximate MIPS expression, latency ms, throughput Mbit/s).
pub const OTHER_SYSTEMS: &[(&str, &str, &str, f64, f64)] = &[
    ("Cedar", "Dorado - custom", "1 x 4", 1.1, 2.0),
    ("Amoeba", "Tadpole - M68020", "1 x 1.5", 1.4, 5.3),
    ("V", "Sun 3/75 - M68020", "1 x 2", 2.5, 4.4),
    ("Sprite", "Sun 3/75 - M68020", "1 x 2", 2.8, 5.6),
    ("Amoeba/Unix", "Sun 3/50 - M68020", "1 x 1.5", 7.0, 1.8),
];

/// The paper's own Firefly rows in Table XII (uniprocessor and
/// five-processor), for comparison against simulated values.
pub const FIREFLY_ROWS: &[(&str, &str, f64, f64)] = &[
    ("Firefly (1 CPU)", "FF - MicroVAX II 1x1", 4.8, 2.5),
    ("Firefly (5 CPUs)", "FF - MicroVAX II 5x1", 2.7, 4.6),
];

/// Table I as published: (threads, Null seconds, Null RPCs/s, MaxResult
/// seconds, MaxResult Mbit/s), for 10000 calls.
pub const TABLE_I: &[(usize, f64, f64, f64, f64)] = &[
    (1, 26.61, 375.0, 63.47, 1.82),
    (2, 16.80, 595.0, 35.28, 3.28),
    (3, 16.26, 615.0, 27.28, 4.25),
    (4, 15.45, 647.0, 24.93, 4.65),
    (5, 15.11, 662.0, 24.69, 4.69),
    (6, 14.69, 680.0, 24.65, 4.70),
    (7, 13.49, 741.0, 24.72, 4.69),
    (8, 13.67, 732.0, 24.68, 4.69),
];

/// Table X as published: (caller CPUs, server CPUs, seconds per 1000
/// Null() calls with the RPC Exerciser).
pub const TABLE_X: &[(usize, usize, f64)] = &[
    (5, 5, 2.69),
    (4, 5, 2.73),
    (3, 5, 2.85),
    (2, 5, 2.98),
    (1, 5, 3.96),
    (1, 4, 3.98),
    (1, 3, 4.13),
    (1, 2, 4.21),
    (1, 1, 4.81),
];

/// Table XI as published: throughput (Mbit/s) of MaxResult(b) for
/// (caller CPUs, server CPUs) = (5,5), (1,5), (1,1) × 1–5 caller threads.
pub const TABLE_XI: [[f64; 5]; 3] = [
    [2.0, 3.4, 4.6, 4.7, 4.7],
    [1.5, 2.3, 2.7, 2.7, 2.7],
    [1.3, 2.0, 2.4, 2.5, 2.5],
];

/// §4.2's published estimates: (name, Null µs saved, Null %, MaxResult µs
/// saved, MaxResult %). `f64::NAN` marks values the paper does not state.
pub const IMPROVEMENTS: &[(&str, f64, f64, f64, f64)] = &[
    (
        "4.2.1 Different network controller",
        300.0,
        11.0,
        1800.0,
        28.0,
    ),
    ("4.2.2 Faster network (100 Mb/s)", 110.0, 4.0, 1160.0, 18.0),
    ("4.2.3 Faster CPUs (3x)", 1380.0, 52.0, 2280.0, 36.0),
    ("4.2.4 Omit UDP checksums", 180.0, 7.0, 1000.0, 16.0),
    ("4.2.5 Redesign RPC protocol", 200.0, 8.0, 200.0, 3.0),
    ("4.2.6 Omit IP/UDP layering", 100.0, 4.0, 100.0, 1.5),
    ("4.2.7 Busy wait", 440.0, 17.0, 440.0, 7.0),
    ("4.2.8 Recode RPC runtime", 280.0, 10.0, 280.0, 4.0),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_take_markdown_out_and_keep_the_rest() {
        let words = ["--calls", "500", "--markdown", "--smoke"].map(String::from);
        let args = Args::parse(words);
        assert_eq!(args.mode, Mode::Markdown);
        assert_eq!(args.rest, ["--calls", "500", "--smoke"]);
        assert!(args.flag("--smoke") && !args.flag("--flame"));
        assert_eq!(args.value("--calls"), Some("500"));
        assert_eq!(args.value("--smoke"), None);
        assert_eq!(Args::parse(Vec::new()).mode, Mode::Text);
    }

    #[test]
    fn vs_formats_deltas() {
        assert_eq!(vs(110.0, 100.0, 0), "110 (+10%)");
        assert_eq!(vs(95.0, 100.0, 1), "95.0 (-5%)");
    }

    #[test]
    fn vs_with_unstated_paper_value_emits_bare_measurement() {
        // Regression: a NAN paper value (the IMPROVEMENTS marker for
        // numbers the paper does not state) rendered as "123 (NaN%)".
        assert_eq!(vs(123.0, f64::NAN, 0), "123");
        assert_eq!(vs(123.4, f64::NAN, 1), "123.4");
        assert_eq!(vs(123.0, f64::INFINITY, 0), "123");
        // Zero already took the bare-value path; keep it that way.
        assert_eq!(vs(7.0, 0.0, 0), "7");
    }

    #[test]
    fn paper_num_marks_unstated_values() {
        assert_eq!(paper_num(440.0, 0), "440");
        assert_eq!(paper_num(4.65, 2), "4.65");
        assert_eq!(paper_num(f64::NAN, 0), "n/s");
    }

    #[test]
    fn table_constants_are_consistent() {
        assert_eq!(TABLE_I.len(), 8);
        assert_eq!(TABLE_X.len(), 9);
        assert_eq!(IMPROVEMENTS.len(), 8);
        // Table I's own arithmetic: RPCs/s ≈ 10000 / seconds.
        for (_, secs, rps, _, _) in TABLE_I {
            assert!((10_000.0 / secs - rps).abs() < 6.0);
        }
        // Every IMPROVEMENTS cell must render NaN-free through the
        // table helpers, whether the paper states it or marks it NAN.
        for &(name, a, b, c, d) in IMPROVEMENTS {
            for v in [a, b, c, d] {
                assert!(!vs(100.0, v, 0).contains("NaN"), "{name}");
                assert!(!paper_num(v, 0).contains("NaN"), "{name}");
            }
        }
    }
}
