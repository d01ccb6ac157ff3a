//! The real stack's own Table VII/VIII: a per-step latency account of
//! live RPCs over the loopback Ethernet, built from `firefly_rpc::trace`
//! records.
//!
//! The paper's methodology is to break one call into steps and check
//! that the steps *sum to* the measured end-to-end time ("The sum of the
//! [steps] ... accounts for all but a few percent"). [`run_account`]
//! reproduces that: it drives traced calls, pairs each call's stopwatch
//! measurement with its drained trace record, and reports the per-step
//! means next to an accounted-vs-measured comparison. The
//! `latency_account` experiment prints it; `tests/latency_account.rs`
//! asserts the ±10% bound so the account cannot silently rot.

use firefly_idl::{test_interface, Value};
use firefly_metrics::table::{fnum, Align, Table};
use firefly_metrics::Stopwatch;
use firefly_rpc::trace::{Role, RoleReport, TraceRecord, TraceReport};
use firefly_rpc::transport::LoopbackNet;
use firefly_rpc::{Config, Endpoint, ServiceBuilder};

/// Fraction of the slowest calls dropped before comparing accounted and
/// measured means. A call descheduled between the stopwatch start and
/// the span start (outside the traced window) would otherwise charge an
/// arbitrary amount of time to neither side of the comparison.
const TRIM_FRACTION: f64 = 0.10;

/// One procedure's completed account.
pub struct Account {
    /// Procedure name as called.
    pub procedure: String,
    /// Calls measured (after warmup).
    pub calls: usize,
    /// Calls kept after trimming the slowest [`TRIM_FRACTION`].
    pub kept: usize,
    /// Aggregated per-step histograms from the kept caller records and
    /// all server records.
    pub report: TraceReport,
    /// Mean of the kept per-call stopwatch times, µs.
    pub measured_mean_us: f64,
    /// Sum of the kept caller-step means, µs — what the trace explains.
    pub accounted_mean_us: f64,
}

impl Account {
    /// accounted / measured, as a fraction (1.0 = perfect account).
    pub fn coverage(&self) -> f64 {
        if self.measured_mean_us == 0.0 {
            return 0.0;
        }
        self.accounted_mean_us / self.measured_mean_us
    }

    /// Renders the caller-side account as a paper-style table.
    pub fn caller_table(&self) -> Table {
        let mut t = Table::new(&["Step", "Mean µs", "p50", "p95", "p99"])
            .title(&format!(
                "Latency account: {} ({} calls, {} kept)",
                self.procedure, self.calls, self.kept
            ))
            .aligns(&[
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
            ]);
        for (name, h) in &self.report.caller.steps {
            t.row_owned(vec![
                name.to_string(),
                fnum(h.mean(), 2),
                fnum(h.percentile(50.0), 2),
                fnum(h.percentile(95.0), 2),
                fnum(h.percentile(99.0), 2),
            ]);
        }
        t.row_owned(vec![
            "TOTAL accounted (step sum)".into(),
            fnum(self.accounted_mean_us, 2),
            "".into(),
            "".into(),
            "".into(),
        ]);
        t.row_owned(vec![
            "Measured end-to-end (stopwatch)".into(),
            fnum(self.measured_mean_us, 2),
            "".into(),
            "".into(),
            "".into(),
        ]);
        t.row_owned(vec![
            "Accounted / measured".into(),
            format!("{:.1}%", self.coverage() * 100.0),
            "".into(),
            "".into(),
            "".into(),
        ]);
        t
    }

    /// Renders the server-side breakdown of the caller's "Wire + server
    /// + wakeup" step.
    pub fn server_table(&self) -> Table {
        let mut t = Table::new(&["Server step", "Mean µs", "p50", "p95", "p99"])
            .title(&format!(
                "Inside \"Wire + server + wakeup\": {} ({} server records)",
                self.procedure, self.report.server.records
            ))
            .aligns(&[
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
            ]);
        for (name, h) in &self.report.server.steps {
            t.row_owned(vec![
                name.to_string(),
                fnum(h.mean(), 2),
                fnum(h.percentile(50.0), 2),
                fnum(h.percentile(95.0), 2),
                fnum(h.percentile(99.0), 2),
            ]);
        }
        let wire_step = self
            .report
            .caller
            .steps
            .iter()
            .find(|(name, _)| name.contains("Wire"))
            .map(|(_, h)| h.mean())
            .unwrap_or(0.0);
        let server_total = self.report.server.accounted_mean_us();
        t.row_owned(vec![
            "Wire transit + result delivery (residual)".into(),
            fnum((wire_step - server_total).max(0.0), 2),
            "".into(),
            "".into(),
            "".into(),
        ]);
        t
    }
}

/// Drives `calls` traced calls of `procedure` over a fresh loopback pair
/// and returns the paired account.
///
/// `args` travel on every call; `warmup` untimed calls run first so the
/// account describes the steady state (pools warm, activity registered,
/// caches hot), matching the paper's measurement discipline.
/// Renders one role's per-step histograms as a paper-style table.
/// Shared by the `latency_account` experiment and the RPC exerciser, which
/// drains [`Endpoint::trace_report`](firefly_rpc::Endpoint) directly.
pub fn role_table(title: &str, role: &RoleReport) -> Table {
    let mut t = Table::new(&["Step", "Mean µs", "p50", "p95", "p99"])
        .title(title)
        .aligns(&[
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
    for (name, h) in &role.steps {
        t.row_owned(vec![
            name.to_string(),
            fnum(h.mean(), 2),
            fnum(h.percentile(50.0), 2),
            fnum(h.percentile(95.0), 2),
            fnum(h.percentile(99.0), 2),
        ]);
    }
    t.row_owned(vec![
        "TOTAL (step sum)".into(),
        fnum(role.accounted_mean_us(), 2),
        "".into(),
        "".into(),
        "".into(),
    ]);
    t
}

/// A flat "top offenders" profile: every caller- and server-side step
/// of one report, ranked by total time spent in it. The cumulative
/// column answers the profiler question — how many steps explain 90%
/// of the latency — without reading two histogram tables side by side.
pub fn profile_table(title: &str, report: &TraceReport) -> Table {
    let mut rows: Vec<(String, f64, f64, u64)> = Vec::new();
    for (prefix, role) in [("caller", &report.caller), ("server", &report.server)] {
        for (name, h) in &role.steps {
            if h.count() > 0 {
                rows.push((format!("{prefix}: {name}"), h.sum(), h.mean(), h.count()));
            }
        }
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let grand: f64 = rows.iter().map(|r| r.1).sum();
    let mut t = Table::new(&["#", "Step", "Total ms", "Mean µs", "Samples", "Cum %"])
        .title(title)
        .aligns(&[
            Align::Right,
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
    let mut cum = 0.0;
    for (i, (name, total, mean, count)) in rows.iter().enumerate() {
        cum += total;
        let share = if grand > 0.0 { cum / grand * 100.0 } else { 0.0 };
        t.row_owned(vec![
            (i + 1).to_string(),
            name.clone(),
            fnum(total / 1000.0, 2),
            fnum(*mean, 2),
            count.to_string(),
            format!("{share:.1}%"),
        ]);
    }
    t
}

/// Renders one report as folded stacks — the `flamegraph.pl` input
/// format, one `frame;frame;frame weight` line per stack, weight in
/// integer microseconds of total time spent in that step. The stack is
/// `procedure;role;step`, so a flamegraph groups by procedure, splits
/// caller vs server, and sizes each step by its histogram sum:
///
/// ```text
/// Null;caller;Wire + server + wakeup 104212
/// ```
pub fn folded_stacks(procedure: &str, report: &TraceReport) -> Vec<String> {
    let mut lines = Vec::new();
    for (role_name, role) in [("caller", &report.caller), ("server", &report.server)] {
        for (name, h) in &role.steps {
            if h.count() > 0 {
                lines.push(format!(
                    "{procedure};{role_name};{name} {}",
                    h.sum().round() as u64
                ));
            }
        }
    }
    lines
}

pub fn run_account(procedure: &str, args: &[Value], calls: usize, warmup: usize) -> Account {
    // Ring sized so no record of the measured window is ever dropped.
    let config = Config {
        trace: true,
        trace_capacity: calls + warmup + 64,
        ..Config::default()
    };
    let net = LoopbackNet::new();
    let server = Endpoint::new(net.station(1), config.clone()).expect("server endpoint");
    let caller = Endpoint::new(net.station(2), config).expect("caller endpoint");
    let service = ServiceBuilder::new(test_interface())
        .on_call("Null", |_a, _w| Ok(()))
        .on_call("MaxResult", |_a, w| {
            w.next_bytes(1440)?.fill(0xab);
            Ok(())
        })
        .on_call("MaxArg", |_a, _w| Ok(()))
        .build()
        .expect("test service");
    server.export(service).expect("export");
    let client = caller
        .bind(&test_interface(), server.address())
        .expect("bind");

    for _ in 0..warmup {
        client.call(procedure, args).expect("warmup call");
    }
    // Discard warmup records so the account starts clean. The server
    // pushes its record after sending the result, so wait for the last
    // warmup record to land before draining.
    // The wait is microseconds (the record lands just after the result
    // send), so yielding is enough — and keeps this library sleep-free.
    for _ in 0..10_000 {
        if server.tracer().recorded() >= warmup as u64 {
            break;
        }
        std::thread::yield_now();
    }
    caller.tracer().drain(|_| {});
    server.tracer().drain(|_| {});

    let mut measured = Vec::with_capacity(calls);
    for _ in 0..calls {
        let w = Stopwatch::start();
        client.call(procedure, args).expect("measured call");
        measured.push(w.elapsed_micros());
    }

    // One caller thread: records drain in call order, so record i pairs
    // with measured[i].
    let mut records: Vec<TraceRecord> = Vec::with_capacity(calls);
    caller.tracer().drain(|rec| {
        if rec.role == Role::Caller && rec.is_complete() {
            records.push(*rec);
        }
    });
    let paired = records.len().min(measured.len());
    let mut order: Vec<usize> = (0..paired).collect();
    order.sort_by(|&a, &b| {
        measured[a]
            .partial_cmp(&measured[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let kept = paired - ((paired as f64 * TRIM_FRACTION) as usize).min(paired.saturating_sub(1));
    order.truncate(kept);

    let mut report = TraceReport::empty();
    let mut measured_sum = 0.0;
    for &i in &order {
        report.add(&records[i]);
        measured_sum += measured[i];
    }
    // Same post-result race on the measured window's final record.
    for _ in 0..10_000 {
        if server.tracer().recorded() >= (warmup + calls) as u64 {
            break;
        }
        std::thread::yield_now();
    }
    server.tracer().drain(|rec| {
        if rec.role == Role::Server && rec.is_complete() {
            report.add(rec);
        }
    });

    let measured_mean_us = if kept > 0 {
        measured_sum / kept as f64
    } else {
        0.0
    };
    let accounted_mean_us = report.caller.accounted_mean_us();
    Account {
        procedure: procedure.to_string(),
        calls,
        kept,
        report,
        measured_mean_us,
        accounted_mean_us,
    }
}

/// The two procedures the paper's latency tables account for: `Null()`
/// (Table VII) and a MaxResult-style call (Table VIII's large-transfer
/// analog). Returns `(procedure, args)` pairs for [`run_account`].
pub fn paper_procedures() -> Vec<(&'static str, Vec<Value>)> {
    vec![
        ("Null", Vec::new()),
        ("MaxResult", vec![Value::char_array(1440)]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_account_is_complete_and_plausible() {
        let account = run_account("Null", &[], 50, 10);
        assert!(account.kept >= 40, "kept {} of 50", account.kept);
        assert_eq!(account.report.caller.records, account.kept as u64);
        assert!(account.report.server.records > 0);
        assert!(account.measured_mean_us > 0.0);
        assert!(account.accounted_mean_us > 0.0);
        // Accounted time can never exceed what the stopwatch saw by much;
        // the strict ±10% bound lives in tests/latency_account.rs.
        assert!(account.coverage() > 0.5 && account.coverage() < 1.5);
    }
}
