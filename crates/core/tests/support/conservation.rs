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
///   frame.
///
/// What is still in flight when the test's last call returns settles
/// first — a worker finishing a call, a late duplicate being answered —
/// so the laws are given ten seconds to hold.
pub fn assert_conserved(endpoints: &[&Endpoint]) {
    for (i, endpoint) in endpoints.iter().enumerate() {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let broken = broken_laws(endpoint);
            if broken.is_empty() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "endpoint {i}: {}\nstats:\n{}",
                broken.join("; "),
                endpoint.stats()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
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
