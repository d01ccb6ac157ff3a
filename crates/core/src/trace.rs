//! Per-call step tracing: the paper's latency account, live.
//!
//! The paper's central artifact is Tables VI–VIII: one RPC broken into
//! steps whose sum matches the measured end-to-end time within a few
//! percent. This module gives the real Rust stack the same account of
//! itself. Each in-flight call carries a fixed-size [`Span`] on its own
//! thread's stack; the runtime stamps `Instant`-derived nanoseconds into
//! preallocated slots at the step boundaries of §3.1 — Starter, marshal,
//! Transporter send, wire wait, unmarshal, Ender on the caller;
//! demux hand-off, server stub, result send on the server — and completed
//! records drain into a preallocated ring buffer per endpoint.
//!
//! Fast-path discipline (enforced by `firefly-lint`, see `lint.toml`):
//!
//! * **no allocation** on the write path — the record is a stack-local
//!   `Copy` struct, the ring slots are preallocated at endpoint creation,
//!   and a push is a single array-slot overwrite;
//! * **no panics** — stamping and pushing are total functions;
//! * **no new lock-order classes above the leaves** — the ring mutex
//!   (`ring`) is the last class in the global order (`calltable → pool →
//!   stats → trace`) and is only ever taken with no other lock held;
//! * **no behaviour change** — tracing never touches protocol state;
//!   with tracing disabled the entire cost is one relaxed atomic load
//!   per call.
//!
//! Aggregation ([`Tracer::report`]) happens off the fast path: drained
//! records feed per-step [`firefly_metrics::Histogram`]s (mean + p50/p95/
//! p99), which `Endpoint::trace_report`, the `latency_account` bench
//! binary and `firefly-rpcd --trace` render as a Table VII/VIII-style
//! account. See `docs/TRACING.md` for the record format and the mapping
//! from steps to the paper's rows.

use firefly_metrics::Histogram;
use firefly_sync::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Number of stamp slots in a record — enough for the caller's seven
/// step boundaries (the server uses the first four).
pub const STAMP_SLOTS: usize = 8;

/// Default ring capacity per endpoint (records, not bytes); at ~80 bytes
/// per record this is ~80 KiB, preallocated once at endpoint creation.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// Which half of the RPC a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The caller side: Starter → marshal → Transporter → unmarshal →
    /// Ender (§3.1.1).
    Caller,
    /// The server side: demux hand-off → Receiver/stub → result send
    /// (§3.1.3).
    Server,
}

/// A stamped step boundary. Caller and server boundaries map to
/// disjoint slot ranges of one record; a record only ever carries one
/// role's stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stamp {
    // Caller-side boundaries, in call order.
    /// Entry to the call path, after procedure lookup.
    CallStart,
    /// Starter done: a pool packet buffer is in hand.
    BufferAcquired,
    /// Arguments marshalled into the call packet (or the heap staging
    /// buffer for multi-packet calls).
    MarshalDone,
    /// Transporter handed the first transmission to the transport.
    Sent,
    /// The demultiplexer woke this thread with the complete result.
    ResultReceived,
    /// Result values unmarshalled.
    UnmarshalDone,
    /// Ender done: the call buffer is recycled to the receive queue.
    CallEnd,
    // Server-side boundaries, in call order.
    /// The demux thread accepted the (complete) call packet.
    Received,
    /// A server thread picked the call off the work queue.
    Dispatched,
    /// Server stub finished: arguments unmarshalled, service executed,
    /// results marshalled into the result packet.
    StubDone,
    /// The (last) result packet was handed to the transport.
    ResultSent,
}

impl Stamp {
    /// The record slot this boundary stamps.
    pub const fn slot(self) -> usize {
        match self {
            Stamp::CallStart => 0,
            Stamp::BufferAcquired => 1,
            Stamp::MarshalDone => 2,
            Stamp::Sent => 3,
            Stamp::ResultReceived => 4,
            Stamp::UnmarshalDone => 5,
            Stamp::CallEnd => 6,
            Stamp::Received => 0,
            Stamp::Dispatched => 1,
            Stamp::StubDone => 2,
            Stamp::ResultSent => 3,
        }
    }
}

/// Caller steps as `(name, from-slot, to-slot)` — the rows of the real
/// stack's Table VII. Each step is the delta between two stamps.
pub const CALLER_STEPS: [(&str, usize, usize); 6] = [
    ("Starter (acquire call buffer)", 0, 1),
    ("Caller stub: marshal arguments", 1, 2),
    ("Transporter: register + send call", 2, 3),
    ("Wire + server + wakeup", 3, 4),
    ("Caller stub: unmarshal result", 4, 5),
    ("Ender (recycle buffer)", 5, 6),
];

/// Server steps as `(name, from-slot, to-slot)`.
pub const SERVER_STEPS: [(&str, usize, usize); 3] = [
    ("Demux hand-off / server wakeup", 0, 1),
    ("Server stub + service procedure", 1, 2),
    ("Result marshal + send", 2, 3),
];

/// Number of stamps a complete record of each role carries.
pub const CALLER_STAMP_COUNT: usize = 7;
/// Number of stamps a complete server record carries.
pub const SERVER_STAMP_COUNT: usize = 4;

/// One completed call's stamps. `Copy` and fixed-size by design: the
/// in-flight record lives on the calling thread's stack and moves into
/// a preallocated ring slot on completion — never the heap.
#[derive(Debug, Clone, Copy)]
pub struct TraceRecord {
    /// Caller- or server-side record.
    pub role: Role,
    /// On-wire procedure index of the traced call.
    pub procedure: u16,
    /// Nanoseconds since the owning tracer's epoch; 0 means "not
    /// stamped" (real stamps are clamped to ≥ 1).
    pub stamps: [u64; STAMP_SLOTS],
}

impl TraceRecord {
    /// An unstamped record (ring slots start in this state).
    pub const fn empty() -> TraceRecord {
        TraceRecord {
            role: Role::Caller,
            procedure: 0,
            stamps: [0; STAMP_SLOTS],
        }
    }

    /// The number of stamps a complete record of this role carries.
    pub fn expected_stamps(&self) -> usize {
        match self.role {
            Role::Caller => CALLER_STAMP_COUNT,
            Role::Server => SERVER_STAMP_COUNT,
        }
    }

    /// True when every slot this role uses is stamped.
    pub fn is_complete(&self) -> bool {
        self.stamps[..self.expected_stamps()].iter().all(|&s| s != 0)
    }

    /// Signed delta in nanoseconds between two stamped slots, or `None`
    /// when either is unstamped. Stamps come from one monotonic clock,
    /// so a negative delta indicates record corruption — tests assert
    /// it never happens.
    pub fn step_delta(&self, from: usize, to: usize) -> Option<i64> {
        let (a, b) = (self.stamps[from], self.stamps[to]);
        if a == 0 || b == 0 {
            return None;
        }
        Some(b as i64 - a as i64)
    }

    /// First-to-last stamped nanoseconds: the whole traced span.
    pub fn span_nanos(&self) -> u64 {
        let used = &self.stamps[..self.expected_stamps()];
        let first = used.iter().copied().find(|&s| s != 0).unwrap_or(0);
        let last = used.iter().copied().filter(|&s| s != 0).max().unwrap_or(0);
        last.saturating_sub(first)
    }

    /// The step table for this record's role.
    pub fn steps(&self) -> &'static [(&'static str, usize, usize)] {
        match self.role {
            Role::Caller => &CALLER_STEPS,
            Role::Server => &SERVER_STEPS,
        }
    }
}

/// The preallocated completed-record ring: fixed capacity, overwrites
/// the oldest record when full (counting what it dropped).
struct Ring {
    records: Vec<TraceRecord>,
    /// Next slot to write.
    head: usize,
    /// Number of valid records (≤ capacity).
    len: usize,
    /// Records overwritten before being drained, total.
    dropped: u64,
}

impl Ring {
    fn with_capacity(capacity: usize) -> Ring {
        // lint:allow(no-alloc-on-fast-path): preallocated once at
        // endpoint creation (bind time, §3.1); the per-call push below
        // only overwrites these slots.
        let mut records = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            records.push(TraceRecord::empty());
        }
        Ring {
            records,
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, rec: TraceRecord) {
        let cap = self.records.len();
        if cap == 0 {
            self.dropped += 1;
            return;
        }
        self.records[self.head] = rec;
        self.head = (self.head + 1) % cap;
        if self.len < cap {
            self.len += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// Visits the buffered records oldest-first and empties the ring.
    fn drain(&mut self, mut f: impl FnMut(&TraceRecord)) {
        let cap = self.records.len();
        if cap == 0 || self.len == 0 {
            self.len = 0;
            return;
        }
        let start = (self.head + cap - self.len) % cap;
        for i in 0..self.len {
            f(&self.records[(start + i) % cap]);
        }
        self.len = 0;
    }
}

/// Per-endpoint trace collector: an enable flag, a monotonic epoch, and
/// the completed-record ring.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    recorded: AtomicU64,
    ring: Mutex<Ring>,
}

impl Tracer {
    /// Creates a tracer with a ring of `capacity` records, disabled.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            recorded: AtomicU64::new(0),
            ring: Mutex::new(Ring::with_capacity(capacity)),
        }
    }

    /// Turns tracing on or off. Spans created while disabled are inert;
    /// flipping the flag never affects protocol behaviour.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether call paths are currently being stamped.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.ring.lock().records.len()
    }

    /// Labels the ring lock for `firefly-check` with its lint
    /// lock-order class ("trace"). No-op outside a checked schedule.
    pub fn check_labels(&self) {
        self.ring.check_label("trace");
    }

    /// Completed records pushed since creation (including any later
    /// overwritten).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Records overwritten before being drained, total.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Nanoseconds since this tracer's epoch, clamped to ≥ 1 so a real
    /// stamp is always distinguishable from an empty slot.
    pub fn now_nanos(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }

    /// `now_nanos()` when enabled, 0 otherwise — for carrying a receive
    /// timestamp across the demux → worker hand-off as a bare integer.
    pub fn stamp_if_enabled(&self) -> u64 {
        if self.enabled() {
            self.now_nanos()
        } else {
            0
        }
    }

    /// Starts a caller-side span with `CallStart` stamped; inert when
    /// tracing is disabled.
    pub fn caller_span(&self, procedure: u16) -> Span<'_> {
        if !self.enabled() {
            return Span::inert();
        }
        let mut record = TraceRecord::empty();
        record.role = Role::Caller;
        record.procedure = procedure;
        record.stamps[Stamp::CallStart.slot()] = self.now_nanos();
        Span {
            tracer: Some(self),
            record,
        }
    }

    /// Starts a server-side span from the demux-level receive stamp
    /// (`received_at`, from [`Tracer::stamp_if_enabled`]) with
    /// `Dispatched` stamped now. Inert when tracing is disabled or the
    /// packet was received while it was.
    pub fn server_span(&self, procedure: u16, received_at: u64) -> Span<'_> {
        if !self.enabled() || received_at == 0 {
            return Span::inert();
        }
        let mut record = TraceRecord::empty();
        record.role = Role::Server;
        record.procedure = procedure;
        record.stamps[Stamp::Received.slot()] = received_at;
        record.stamps[Stamp::Dispatched.slot()] = self.now_nanos();
        Span {
            tracer: Some(self),
            record,
        }
    }

    /// Completes a record that left its span ([`Span::detach`]): stamps
    /// `last` now and pushes it, on whichever thread got there.
    pub fn finish_detached(&self, mut record: TraceRecord, last: Stamp) {
        record.stamps[last.slot()] = self.now_nanos();
        self.push(record);
    }

    /// Pushes a completed record into the ring. Public so tests and
    /// tools can exercise the ring without driving a real call.
    pub fn push(&self, rec: TraceRecord) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        self.ring.lock().push(rec);
    }

    /// Visits all buffered records oldest-first, empties the ring, and
    /// returns the number of records dropped (overwritten) so far.
    pub fn drain(&self, f: impl FnMut(&TraceRecord)) -> u64 {
        let mut ring = self.ring.lock();
        ring.drain(f);
        ring.dropped
    }

    /// Drains the ring and aggregates per-step latency histograms —
    /// the real stack's Table VII, as data.
    pub fn report(&self) -> TraceReport {
        let mut report = TraceReport::empty();
        report.dropped = self.drain(|rec| report.add(rec));
        report
    }
}

/// One in-flight call's trace handle. Stack-allocated and fixed-size;
/// when inert (tracing disabled) every operation is a no-op.
pub struct Span<'t> {
    tracer: Option<&'t Tracer>,
    record: TraceRecord,
}

impl<'t> Span<'t> {
    /// A span that records nothing.
    pub fn inert() -> Span<'t> {
        Span {
            tracer: None,
            record: TraceRecord::empty(),
        }
    }

    /// True when this span is actually recording.
    pub fn is_recording(&self) -> bool {
        self.tracer.is_some()
    }

    /// Stamps a step boundary with the current time. First-write-wins:
    /// retransmission loops revisit boundaries, and the account wants
    /// the first transmission (the paper's fast path has exactly one).
    pub fn stamp(&mut self, stamp: Stamp) {
        if let Some(tracer) = self.tracer {
            let slot = &mut self.record.stamps[stamp.slot()];
            if *slot == 0 {
                *slot = tracer.now_nanos();
            }
        }
    }

    /// Takes the record out of the span, which goes inert: the stamps
    /// so far travel on as plain data — in a multi-packet result's
    /// transfer state — to the thread that will take the last one
    /// ([`Tracer::finish_detached`]). `None` from an inert span.
    pub fn detach(&mut self) -> Option<TraceRecord> {
        self.tracer.take().map(|_| self.record)
    }

    /// Completes the span, pushing its record into the tracer's ring.
    /// Returns true when a record was actually pushed. Dropping a span
    /// without finishing (error paths) records nothing — only calls
    /// that completed belong in the account.
    pub fn finish(mut self) -> bool {
        match self.tracer.take() {
            Some(tracer) => {
                tracer.push(self.record);
                true
            }
            None => false,
        }
    }
}

/// Aggregated per-step histograms for one role.
pub struct RoleReport {
    /// `(step name, latency histogram in µs)` in step order.
    pub steps: Vec<(&'static str, Histogram)>,
    /// First-to-last span per record, µs.
    pub total: Histogram,
    /// Records aggregated.
    pub records: u64,
}

impl RoleReport {
    fn empty(steps: &'static [(&'static str, usize, usize)]) -> RoleReport {
        // lint:allow(no-alloc-on-fast-path): a report is built when the
        // ring is drained for reading, never per call.
        let mut out = Vec::with_capacity(steps.len());
        for (name, _, _) in steps {
            out.push((*name, Histogram::new()));
        }
        RoleReport {
            steps: out,
            total: Histogram::new(),
            records: 0,
        }
    }

    fn add(&mut self, rec: &TraceRecord, steps: &'static [(&'static str, usize, usize)]) {
        self.records += 1;
        for (i, (_, from, to)) in steps.iter().enumerate() {
            if let Some(delta) = rec.step_delta(*from, *to) {
                self.steps[i].1.record(delta.max(0) as f64 / 1000.0);
            }
        }
        self.total.record(rec.span_nanos() as f64 / 1000.0);
    }

    /// Sum of the per-step means, µs — the "accounted" total.
    pub fn accounted_mean_us(&self) -> f64 {
        self.steps.iter().map(|(_, h)| h.mean()).sum()
    }
}

/// A drained, aggregated account: per-step histograms for both roles.
pub struct TraceReport {
    /// Caller-side steps (Starter … Ender).
    pub caller: RoleReport,
    /// Server-side steps (demux hand-off … result send).
    pub server: RoleReport,
    /// Records overwritten in the ring before this drain.
    pub dropped: u64,
}

impl TraceReport {
    /// An empty report.
    pub fn empty() -> TraceReport {
        TraceReport {
            caller: RoleReport::empty(&CALLER_STEPS),
            server: RoleReport::empty(&SERVER_STEPS),
            dropped: 0,
        }
    }

    /// Folds one record into the per-role histograms.
    pub fn add(&mut self, rec: &TraceRecord) {
        match rec.role {
            Role::Caller => self.caller.add(rec, &CALLER_STEPS),
            Role::Server => self.server.add(rec, &SERVER_STEPS),
        }
    }

    /// Merges another report into this one (e.g. caller + server
    /// endpoints of one process).
    pub fn merge(&mut self, other: &TraceReport) {
        for (a, b) in self.caller.steps.iter_mut().zip(&other.caller.steps) {
            a.1.merge(&b.1);
        }
        self.caller.total.merge(&other.caller.total);
        self.caller.records += other.caller.records;
        for (a, b) in self.server.steps.iter_mut().zip(&other.server.steps) {
            a.1.merge(&b.1);
        }
        self.server.total.merge(&other.server.total);
        self.server.records += other.server.records;
        self.dropped += other.dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_span_records_nothing() {
        let tracer = Tracer::new(8);
        let mut span = tracer.caller_span(1); // Disabled: inert.
        assert!(!span.is_recording());
        span.stamp(Stamp::BufferAcquired);
        assert!(!span.finish());
        assert_eq!(tracer.recorded(), 0);
        assert_eq!(tracer.report().caller.records, 0);
    }

    #[test]
    fn enabled_span_round_trips_through_the_ring() {
        let tracer = Tracer::new(8);
        tracer.set_enabled(true);
        let mut span = tracer.caller_span(3);
        assert!(span.is_recording());
        for s in [
            Stamp::BufferAcquired,
            Stamp::MarshalDone,
            Stamp::Sent,
            Stamp::ResultReceived,
            Stamp::UnmarshalDone,
            Stamp::CallEnd,
        ] {
            span.stamp(s);
        }
        assert!(span.finish());
        let mut seen = 0;
        let dropped = tracer.drain(|rec| {
            seen += 1;
            assert_eq!(rec.procedure, 3);
            assert_eq!(rec.role, Role::Caller);
            assert!(rec.is_complete());
            for (_, from, to) in CALLER_STEPS {
                assert!(rec.step_delta(from, to).unwrap() >= 0);
            }
        });
        assert_eq!(seen, 1);
        assert_eq!(dropped, 0);
        assert_eq!(tracer.recorded(), 1);
    }

    #[test]
    fn stamps_are_first_write_wins() {
        let tracer = Tracer::new(2);
        tracer.set_enabled(true);
        let mut span = tracer.caller_span(0);
        span.stamp(Stamp::Sent);
        let first = {
            // Peek through a drain after finishing a clone of the state.
            span.stamp(Stamp::Sent); // Second stamp must not move it.
            span.finish();
            let mut v = 0;
            tracer.drain(|r| v = r.stamps[Stamp::Sent.slot()]);
            v
        };
        assert!(first > 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let tracer = Tracer::new(3);
        tracer.set_enabled(true);
        for i in 0..5u16 {
            let mut rec = TraceRecord::empty();
            rec.procedure = i;
            rec.stamps[0] = u64::from(i) + 1;
            tracer.push(rec);
        }
        let mut procs = Vec::new();
        let dropped = tracer.drain(|r| procs.push(r.procedure));
        assert_eq!(procs, vec![2, 3, 4]);
        assert_eq!(dropped, 2);
        // Drained: the next drain sees nothing new.
        let mut again = 0;
        tracer.drain(|_| again += 1);
        assert_eq!(again, 0);
    }

    #[test]
    fn server_span_requires_a_receive_stamp() {
        let tracer = Tracer::new(4);
        tracer.set_enabled(true);
        assert!(!tracer.server_span(0, 0).is_recording());
        let received = tracer.now_nanos();
        let mut span = tracer.server_span(7, received);
        assert!(span.is_recording());
        span.stamp(Stamp::StubDone);
        span.stamp(Stamp::ResultSent);
        span.finish();
        let mut seen = 0;
        tracer.drain(|rec| {
            seen += 1;
            assert_eq!(rec.role, Role::Server);
            assert!(rec.is_complete());
            assert_eq!(rec.stamps[Stamp::Received.slot()], received);
            assert!(rec.span_nanos() > 0);
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn a_detached_record_is_finished_by_the_tracer_and_not_by_its_span() {
        let tracer = Tracer::new(4);
        tracer.set_enabled(true);
        let mut span = tracer.server_span(7, tracer.now_nanos());
        span.stamp(Stamp::StubDone);
        let record = span.detach().expect("a recording span has a record");
        assert!(span.detach().is_none());
        assert!(!span.finish(), "the span must not push what it gave away");
        assert_eq!(tracer.recorded(), 0);
        assert!(!record.is_complete());
        tracer.finish_detached(record, Stamp::ResultSent);
        let mut seen = 0;
        tracer.drain(|rec| {
            seen += 1;
            assert!(rec.is_complete());
            assert!(rec.step_delta(2, 3).unwrap() >= 0);
        });
        assert_eq!(seen, 1);
        assert!(Span::inert().detach().is_none());
    }

    #[test]
    fn report_aggregates_per_step() {
        let tracer = Tracer::new(16);
        tracer.set_enabled(true);
        for _ in 0..4 {
            let mut rec = TraceRecord::empty();
            rec.role = Role::Caller;
            // 1 µs per step: stamps at 0.. in 1000 ns increments.
            for (i, s) in rec.stamps[..CALLER_STAMP_COUNT].iter_mut().enumerate() {
                *s = 1 + (i as u64) * 1000;
            }
            tracer.push(rec);
        }
        let report = tracer.report();
        assert_eq!(report.caller.records, 4);
        assert_eq!(report.server.records, 0);
        for (_, h) in &report.caller.steps {
            assert_eq!(h.count(), 4);
            assert!((h.mean() - 1.0).abs() < 0.01, "step mean {}", h.mean());
        }
        assert!((report.caller.total.mean() - 6.0).abs() < 0.05);
        assert!((report.caller.accounted_mean_us() - 6.0).abs() < 0.05);
    }

    #[test]
    fn zero_capacity_ring_only_counts() {
        let tracer = Tracer::new(0);
        tracer.set_enabled(true);
        tracer.push(TraceRecord::empty());
        let mut seen = 0;
        let dropped = tracer.drain(|_| seen += 1);
        assert_eq!(seen, 0);
        assert_eq!(dropped, 1);
    }
}
