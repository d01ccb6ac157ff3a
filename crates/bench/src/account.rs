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
//! asserts the ±10% bound so the account cannot silently rot. Beside it,
//! [`run_udp_account`] counts what the same calls cost in system calls
//! over real sockets.

use firefly_idl::{test_interface, InterfaceDef, Value};
use firefly_metrics::table::{fnum, Align, Table};
use firefly_metrics::Stopwatch;
use firefly_rpc::binder::binder_interface;
use firefly_rpc::trace::{step_table, Role, TraceRecord, TraceReport};
use firefly_rpc::transport::{LoopbackNet, UdpTransport};
use firefly_rpc::{Config, Endpoint, Service, ServiceBuilder};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
        let title = format!(
            "Latency account: {} ({} calls, {} kept)",
            self.procedure, self.calls, self.kept
        );
        let mut t = step_table(&title, "Step", &self.report.caller);
        t.row(&["TOTAL accounted (step sum)", &fnum(self.accounted_mean_us, 2)]);
        t.row(&["Measured end-to-end (stopwatch)", &fnum(self.measured_mean_us, 2)]);
        t.row(&["Accounted / measured", &format!("{:.1}%", self.coverage() * 100.0)]);
        t
    }

    /// Renders the server-side breakdown of the caller's "Wire + server
    /// + wakeup" step.
    pub fn server_table(&self) -> Table {
        let title = format!(
            "Inside \"Wire + server + wakeup\": {} ({} server records)",
            self.procedure, self.report.server.records
        );
        let mut t = step_table(&title, "Server step", &self.report.server);
        let wire_step = self
            .report
            .caller
            .steps
            .iter()
            .find(|(name, _)| name.contains("Wire"))
            .map(|(_, h)| h.mean())
            .unwrap_or(0.0);
        let server_total = self.report.server.accounted_mean_us();
        t.row(&[
            "Wire transit + result delivery (residual)",
            &fnum((wire_step - server_total).max(0.0), 2),
        ]);
        t
    }
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

/// The paper's test interface, served: `Null` and `MaxArg` return nothing,
/// `MaxResult` 1440 bytes.
fn test_service(interface: &InterfaceDef) -> Arc<dyn Service> {
    ServiceBuilder::new(interface.clone())
        .on_call("Null", |_a, _w| Ok(()))
        .on_call("MaxResult", |_a, w| {
            w.next_bytes(1440)?.fill(0xab);
            Ok(())
        })
        .on_call("MaxArg", |_a, _w| Ok(()))
        .build()
        .expect("test service")
}

/// Drives `calls` traced calls of `procedure` over a fresh loopback pair
/// and returns the paired account.
///
/// `args` travel on every call; `warmup` untimed calls run first so the
/// account describes the steady state (pools warm, activity registered,
/// caches hot), matching the paper's measurement discipline.
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
    let interface = test_interface();
    server.export(test_service(&interface)).expect("export");
    let client = caller.bind(&interface, server.address()).expect("bind");

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

/// The system calls one call costs over real UDP sockets, per call and
/// per side: what [`UdpTransport::counts`] gives, read before and after
/// the measured calls.
pub struct UdpAccount {
    /// Procedure name as called.
    pub procedure: String,
    /// Calls measured (after warmup).
    pub calls: usize,
    /// The caller's socket, then the server's: datagrams sent, datagrams
    /// received, empty polls, blocking-mode flips, each per call.
    pub per_call: [[f64; 4]; 2],
}

impl UdpAccount {
    /// The four counts, as [`UdpAccount::per_call`] orders them.
    pub const COUNTS: [&'static str; 4] = [
        "datagrams sent",
        "datagrams received",
        "empty polls (nonblocking receives that found nothing)",
        "mode flips (blocking <-> nonblocking)",
    ];

    /// Renders the account: one row per count, caller and server.
    pub fn table(&self) -> Table {
        let title = format!(
            "System calls per call over UDP: {} ({} calls)",
            self.procedure, self.calls
        );
        let mut t = Table::new(&["Per call", "caller", "server"]).title(&title);
        for (i, count) in Self::COUNTS.iter().enumerate() {
            t.row(&[
                count,
                &fnum(self.per_call[0][i], 4),
                &fnum(self.per_call[1][i], 4),
            ]);
        }
        t
    }
}

/// Drives `calls` untraced calls of `procedure` between two endpoints on
/// localhost UDP sockets, after `warmup` untimed ones, and counts the
/// system calls each socket made for them.
pub fn run_udp_account(procedure: &str, args: &[Value], calls: usize, warmup: usize) -> UdpAccount {
    let sockets = [
        UdpTransport::localhost().expect("caller socket"),
        UdpTransport::localhost().expect("server socket"),
    ];
    // A thread stalled on a busy machine must not count as a lost packet:
    // the account is of the calls, not of retransmissions.
    let config = Config {
        retransmit_initial: Duration::from_secs(5),
        ..Config::default()
    };
    let server = Endpoint::new(sockets[1].clone(), config.clone()).expect("server endpoint");
    let caller = Endpoint::new(sockets[0].clone(), config).expect("caller endpoint");
    let interface = test_interface();
    server.export(test_service(&interface)).expect("export");
    let client = caller.bind(&interface, server.address()).expect("bind");
    for _ in 0..warmup {
        client.call(procedure, args).expect("warmup call");
    }
    let counts = |socket: &UdpTransport| {
        let c = socket.counts();
        [
            c.datagrams_sent,
            c.datagrams_received,
            c.empty_polls,
            c.mode_flips,
        ]
    };
    let before = sockets.each_ref().map(|s| counts(s));
    for _ in 0..calls {
        client.call(procedure, args).expect("measured call");
    }
    // The server counts a datagram once `sendto` has returned, which can
    // be after the caller received it: wait until it has counted every
    // one the caller did.
    let mut after = sockets.each_ref().map(|s| counts(s));
    for _ in 0..100_000 {
        if after[1][0] - before[1][0] >= after[0][1] - before[0][1] {
            break;
        }
        std::thread::yield_now();
        after = sockets.each_ref().map(|s| counts(s));
    }
    let per_call = std::array::from_fn(|side| {
        std::array::from_fn(|i| (after[side][i] - before[side][i]) as f64 / calls.max(1) as f64)
    });
    UdpAccount {
        procedure: procedure.to_string(),
        calls,
        per_call,
    }
}

/// The steps of one set-up over UDP, in the order a rig takes them: what
/// `rpcbench`'s `setup_s` times, from the first `Config` to the first
/// result, and then a second call for comparison. The first two are done
/// once per process, the first time anything needs them (a rig's
/// `Config::default()`, its first `Endpoint::new`); the account does
/// them as steps of their own, so that every later set-up finds them
/// done.
pub const SETUP_STEPS: [&str; 11] = [
    "Config::default() (processor count, once per process)",
    "binder_interface() (binder parse, once per process)",
    "bind the server's socket",
    "bind the caller's socket",
    "Endpoint::new (server)",
    "Endpoint::new (caller)",
    "build the service",
    "export it",
    "bind the stub",
    "first call (Null)",
    "second call (Null)",
];

/// The steps up to the first result, which `setup_s` times.
const TO_FIRST_RESULT: usize = 10;

/// Per-step times of repeated set-ups in one process, µs.
pub struct SetupAccount {
    /// The set-ups timed.
    pub rounds: usize,
    /// Each step of the first set-up.
    pub first: [f64; SETUP_STEPS.len()],
    /// Each step's fastest over every set-up.
    pub fastest: [f64; SETUP_STEPS.len()],
    /// The first set-up from its first bind to its first result.
    pub first_total: f64,
    /// The fastest set-up from its first bind to its first result.
    pub fastest_total: f64,
}

impl SetupAccount {
    /// Renders the account: one row per step, then the set-up's total.
    pub fn table(&self) -> Table {
        let fastest = format!("fastest of {} (us)", self.rounds);
        let title = format!(
            "Set-up account: a Null() rig over UDP, {} set-ups",
            self.rounds
        );
        let mut t = Table::new(&["Step", "first set-up (us)", &fastest]).title(&title);
        for (i, step) in SETUP_STEPS.iter().enumerate() {
            t.row(&[step, &fnum(self.first[i], 1), &fnum(self.fastest[i], 1)]);
        }
        t.row(&[
            "first Config to first result (setup_s)",
            &fnum(self.first_total, 1),
            &fnum(self.fastest_total, 1),
        ]);
        t
    }
}

/// Sets a Null() rig up over UDP `rounds` times through the public API
/// alone, as `rpcbench`'s `setup_rounds` does, and times each step. Each
/// rig is dropped, its endpoints shut down, before the next is made. Run
/// it before anything else in the process makes an endpoint, or its first
/// set-up is not the process's first.
pub fn run_setup_account(rounds: usize) -> SetupAccount {
    let rounds = rounds.max(1);
    let mut first = [0.0; SETUP_STEPS.len()];
    let mut fastest = [f64::INFINITY; SETUP_STEPS.len()];
    let (mut first_total, mut fastest_total) = (0.0, f64::INFINITY);
    for round in 0..rounds {
        let steps = set_up_once();
        let total = steps[..TO_FIRST_RESULT].iter().sum::<f64>();
        if round == 0 {
            (first, first_total) = (steps, total);
        }
        for (best, step) in fastest.iter_mut().zip(steps) {
            *best = best.min(step);
        }
        fastest_total = fastest_total.min(total);
    }
    SetupAccount {
        rounds,
        first,
        fastest,
        first_total,
        fastest_total,
    }
}

/// One set-up, each of [`SETUP_STEPS`] timed, µs. The interface is
/// parsed before the clock starts, as `rpcbench` parses its own.
fn set_up_once() -> [f64; SETUP_STEPS.len()] {
    let interface = test_interface();
    let mut steps = [0.0; SETUP_STEPS.len()];
    let mut at = Instant::now();
    let mut lap = |step: usize| {
        let now = Instant::now();
        steps[step] = (now - at).as_secs_f64() * 1e6;
        at = now;
    };
    let config = Config::default();
    lap(0);
    binder_interface();
    lap(1);
    let server_socket = UdpTransport::localhost().expect("server socket");
    lap(2);
    let caller_socket = UdpTransport::localhost().expect("caller socket");
    lap(3);
    let server = Endpoint::new(server_socket, config.clone()).expect("server endpoint");
    lap(4);
    let caller = Endpoint::new(caller_socket, config).expect("caller endpoint");
    lap(5);
    let service = test_service(&interface);
    lap(6);
    server.export(service).expect("export");
    lap(7);
    let client = caller.bind(&interface, server.address()).expect("bind");
    lap(8);
    client.call("Null", &[]).expect("first call");
    lap(9);
    client.call("Null", &[]).expect("second call");
    lap(10);
    steps
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

    #[test]
    fn udp_account_counts_a_datagram_each_way_per_null() {
        let account = run_udp_account("Null", &[], 50, 10);
        let [caller, server] = account.per_call;
        // One call packet out and one result packet back per call.
        assert_eq!((caller[0], caller[1]), (1.0, 1.0), "{caller:?}");
        assert_eq!((server[0], server[1]), (1.0, 1.0), "{server:?}");
        assert_eq!(account.table().len(), UdpAccount::COUNTS.len());
    }

    #[test]
    fn setup_account_times_every_step_of_every_round() {
        let account = run_setup_account(3);
        assert_eq!(account.rounds, 3);
        for (i, step) in SETUP_STEPS.iter().enumerate() {
            assert!(
                account.first[i] > 0.0,
                "{step} of the first set-up took no time"
            );
            assert!(
                account.fastest[i] > 0.0 && account.fastest[i] <= account.first[i],
                "{step}"
            );
        }
        assert!(account.fastest_total <= account.first_total);
        assert_eq!(account.table().len(), SETUP_STEPS.len() + 1);
    }
}
