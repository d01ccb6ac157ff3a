//! Property-based tests for the measurement substrate: the histogram's
//! percentile accuracy contract and the JSON round-trip invariant the
//! `BENCH_*.json` perf trajectory depends on.

use firefly_metrics::json::Json;
use firefly_metrics::Histogram;
use firefly_propcheck::{check, prop_assert, prop_assert_eq, Gen};

/// The histogram's growth factor (kept in sync with `hist.rs` by the
/// accuracy assertion itself: if `GROWTH` changed, the ratio bound here
/// would fail).
const GROWTH: f64 = 1.022;

/// Exact order statistic matching the histogram's target rule:
/// the ceil(p/100 · n)-th smallest value (1-based), at least the 1st.
fn exact_percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len() as f64;
    let k = ((p / 100.0) * n).ceil().max(1.0) as usize;
    sorted[k.min(sorted.len()) - 1]
}

#[test]
fn percentile_is_within_one_bucket_of_the_order_statistic() {
    check("hist_percentile_accuracy", 200, |g: &mut Gen| {
        // Positive inputs spanning the histogram's useful range, from
        // a few ns (the sub-µs trace steps) to a second; start at 2 ns
        // so a value and its bucket never straddle the clamped bucket 0
        // (values ≤ 1 ns all share it by design).
        let values = g.vec(1..400, |g| {
            let exp = g.rng().f64() * 8.5 - 2.5; // 10^-2.5 .. 10^6 µs
            0.002 + 10f64.powf(exp)
        });
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));

        for _ in 0..8 {
            let p = g.rng().f64() * 100.0;
            let got = h.percentile(p);
            let exact = exact_percentile(&sorted, p);
            // Same bucket ⇒ the reported midpoint and the exact order
            // statistic differ by less than one bucket width; allow one
            // extra factor of GROWTH for ln()-truncation at the edges.
            let ratio = got / exact;
            let bound = GROWTH * GROWTH;
            prop_assert!(
                ratio > 1.0 / bound && ratio < bound,
                "p{p:.2}: got {got}, exact {exact} (ratio {ratio})"
            );
        }

        // min ≤ p0 ≤ p100 ≤ max, always.
        let p0 = h.percentile(0.0);
        let p100 = h.percentile(100.0);
        prop_assert!(
            h.min() <= p0 && p0 <= p100 && p100 <= h.max(),
            "min {} p0 {} p100 {} max {}",
            h.min(),
            p0,
            p100,
            h.max()
        );
        Ok(())
    });
}

fn arb_json(g: &mut Gen, depth: usize) -> Json {
    let kind = if depth == 0 {
        g.usize_in(0..4)
    } else {
        g.usize_in(0..6)
    };
    match kind {
        0 => Json::Null,
        1 => Json::Bool(g.bool()),
        2 => {
            // Finite numbers of every magnitude, including negatives,
            // zero, and values that exercise shortest-repr printing.
            let v = match g.usize_in(0..4) {
                0 => g.rng().f64() * 2.0 - 1.0,
                1 => (g.i32() as f64) / 7.0,
                2 => g.rng().f64() * 1e18 - 5e17,
                _ => 0.0,
            };
            Json::num(v)
        }
        3 => Json::Str(g.string(0..12)),
        4 => Json::Arr(g.vec(0..4, |g| arb_json(g, depth - 1))),
        _ => {
            let n = g.usize_in(0..4);
            let mut fields = Vec::new();
            for _ in 0..n {
                fields.push((g.string(0..8), arb_json(g, depth - 1)));
            }
            Json::Obj(fields)
        }
    }
}

#[test]
fn json_emit_parse_reemit_is_identical() {
    check("json_roundtrip", 300, |g: &mut Gen| {
        let doc = arb_json(g, 3);
        let compact = doc.to_string();
        let parsed = Json::parse(&compact).map_err(|e| format!("{e}: {compact}"))?;
        prop_assert_eq!(&parsed, &doc);
        prop_assert_eq!(parsed.to_string(), compact);

        // The pretty form (the on-disk snapshot format) parses back to
        // the same tree, and its re-emission is byte-identical too.
        let pretty = doc.to_pretty();
        let reparsed = Json::parse(&pretty).map_err(|e| format!("{e}: {pretty}"))?;
        prop_assert_eq!(&reparsed, &doc);
        prop_assert_eq!(reparsed.to_pretty(), pretty);
        Ok(())
    });
}
