//! The conservation laws of a quiescent endpoint's counters: an oracle
//! a test runs once every call it made has returned. Shared by path
//! (`#[path = …] mod conservation;`) between the test crates that use it.

use firefly_rpc::Endpoint;
use std::time::{Duration, Instant};

/// Asserts that each endpoint's counters balance, as they are defined:
///
/// * calls sent = calls completed + calls that failed;
/// * results received = results the waiting caller received itself +
///   wake-ups results caused;
/// * no pool buffer is out: the pool holds only calls on their way to
///   a server thread, and a retained result is in its activity's own
///   frame;
///
/// and that, with every call the test made sent between `endpoints`,
/// their calls ran exactly once: summed over them, calls completed ≤
/// calls executed ≤ calls completed + calls failed. (A completed call
/// ran once; a failed one at most once.)
///
/// What is still in flight when the test's last call returns settles
/// first — a worker finishing a call, a late duplicate being answered —
/// so the laws are given ten seconds to hold.
pub fn assert_conserved(endpoints: &[&Endpoint]) {
    for (i, endpoint) in endpoints.iter().enumerate() {
        hold(&format!("endpoint {i}"), || broken_laws(endpoint), endpoint);
    }
    if let Some(first) = endpoints.first() {
        hold("the endpoints together", || ran_once(endpoints), first);
    }
}

/// Waits up to ten seconds for `broken` to come back empty, and fails
/// naming `who` and `shown`'s counters if it never does.
fn hold(who: &str, broken: impl Fn() -> Vec<String>, shown: &Endpoint) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let broken = broken();
        if broken.is_empty() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{who}: {}\nstats:\n{}",
            broken.join("; "),
            shown.stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The exactly-once law of `endpoints` together, if it is broken.
fn ran_once(endpoints: &[&Endpoint]) -> Vec<String> {
    let sum = |count: fn(&Endpoint) -> u64| endpoints.iter().map(|e| count(e)).sum::<u64>();
    let completed = sum(|e| e.stats().calls_completed());
    let failed = sum(|e| e.stats().calls_failed());
    let executed = sum(|e| e.stats().calls_executed());
    if completed <= executed && executed <= completed + failed {
        return Vec::new();
    }
    vec![format!(
        "calls_executed {executed} outside [calls_completed {completed}, \
         calls_completed + calls_failed {}]",
        completed + failed
    )]
}

/// The laws `endpoint`'s counters break right now.
fn broken_laws(endpoint: &Endpoint) -> Vec<String> {
    let s = endpoint.stats();
    let mut broken = Vec::new();
    let (sent, completed, failed) = (s.calls_sent(), s.calls_completed(), s.calls_failed());
    if sent != completed + failed {
        broken.push(format!(
            "calls_sent {sent} != calls_completed {completed} + calls_failed {failed}"
        ));
    }
    let (results, own, woke) = (
        s.results_received(),
        s.self_received_results(),
        s.result_wakeups(),
    );
    if results != own + woke {
        broken.push(format!(
            "results_received {results} != self_received_results {own} + result_wakeups {woke}"
        ));
    }
    match endpoint.pool().stats().outstanding() {
        0 => {}
        out => broken.push(format!("{out} pool buffer(s) out")),
    }
    broken
}
