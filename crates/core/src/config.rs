//! Endpoint configuration.

use std::sync::OnceLock;
use std::time::Duration;

/// Tunable parameters of an [`Endpoint`](crate::Endpoint).
///
/// Only what some caller, test or benchmark sets is a field: the endpoint
/// fixes its pool size, machine id and address space itself. UDP
/// checksums are always on, as the measured Firefly kept them (§4.2.4
/// prices turning them off); a received zero checksum is still accepted.
#[derive(Debug, Clone)]
pub struct Config {
    /// The most server threads the endpoint starts (at least one).
    ///
    /// None runs at first: a call handed off when every server thread
    /// started is busy starts one more, up to this cap, and those
    /// started wait for calls until shutdown. The fast path requires
    /// "having enough server threads waiting" (§3.1); at the cap, with
    /// all busy, call packets take the slow path through the work queue.
    /// Defaults to the machine's available parallelism (clamped to
    /// [1, 4]): the Firefly ran one Receiver per processor, and extra
    /// workers on fewer cores only contend for them. The processor count
    /// is read once per process, by the first default made; every later
    /// [`Config::default`] reuses it and makes no system call.
    pub server_threads: usize,
    /// First retransmission timeout; doubles on every retry.
    pub retransmit_initial: Duration,
    /// Upper bound on the retransmission timeout after backoff.
    pub retransmit_max: Duration,
    /// Total transmissions (first send + retransmissions) before a call
    /// fails.
    pub max_transmissions: u32,
    /// Seed for the endpoint's deterministic RNG (retransmission-backoff
    /// jitter). Fixed by default so test runs are reproducible; vary it
    /// per endpoint to decorrelate retry storms between machines.
    pub rng_seed: u64,
    /// Start with per-call step tracing enabled (see [`crate::trace`]).
    ///
    /// Tracing is pure observability — the paper's Table VII latency
    /// account, live — and can also be toggled at runtime with
    /// [`Endpoint::set_tracing`](crate::Endpoint::set_tracing). Off by
    /// default: the disabled cost is one relaxed atomic load per call.
    pub trace: bool,
    /// Capacity (in records) of the per-endpoint completed-trace ring
    /// buffer, allocated when tracing is first enabled.
    pub trace_capacity: usize,
}

/// Default worker count: one server thread per available processor,
/// clamped to [1, 4] (the Firefly itself had at most five processors,
/// one of which serviced the Ethernet). Read once per process:
/// `available_parallelism` parses cgroup files on Linux, which cost
/// more than the rest of an endpoint's set-up together.
fn default_server_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 4)
    })
}

impl Default for Config {
    fn default() -> Self {
        Config {
            server_threads: default_server_threads(),
            retransmit_initial: Duration::from_millis(50),
            retransmit_max: Duration::from_secs(2),
            max_transmissions: 10,
            rng_seed: 0x5eed_f1ef_0001,
            trace: false,
            trace_capacity: crate::trace::DEFAULT_RING_CAPACITY,
        }
    }
}

impl Config {
    /// Convenience: tight timeouts for loss-injection tests.
    pub fn fast_retry() -> Self {
        Config {
            retransmit_initial: Duration::from_millis(5),
            retransmit_max: Duration::from_millis(100),
            ..Config::default()
        }
    }

    /// Convenience: a config with per-call step tracing enabled.
    pub fn traced() -> Self {
        Config {
            trace: true,
            ..Config::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = Config::default();
        assert!((1..=4).contains(&c.server_threads));
        assert!(c.max_transmissions > 1);
        assert!(c.retransmit_max >= c.retransmit_initial);
    }

    #[test]
    fn presets() {
        assert!(Config::fast_retry().retransmit_initial < Duration::from_millis(50));
        assert!(!Config::default().trace);
        assert!(Config::traced().trace);
        assert!(Config::traced().trace_capacity > 0);
    }

    #[test]
    fn defaults_read_the_processor_count_once() {
        // Reading the count per default costs ≈ 13 µs on a cgroup-v1
        // host, 1.3 s for these calls; reusing it costs nanoseconds.
        const DEFAULTS: usize = 100_000;
        let first = Config::default().server_threads;
        let started = std::time::Instant::now();
        let same = (0..DEFAULTS)
            .filter(|_| Config::default().server_threads == first)
            .count();
        let took = started.elapsed();
        assert_eq!(same, DEFAULTS, "the default server thread count changed");
        assert!(took < Duration::from_millis(50), "{DEFAULTS} defaults took {took:?}");
    }
}
