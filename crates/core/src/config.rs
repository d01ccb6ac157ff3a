//! Endpoint configuration.

use std::time::Duration;

/// Tunable parameters of an [`Endpoint`](crate::Endpoint).
#[derive(Debug, Clone)]
pub struct Config {
    /// Size of the shared packet-buffer pool.
    ///
    /// The paper's pool is shared between all user address spaces and the
    /// Nub. Here it holds only the single-packet calls handed to server
    /// threads, each copied out of the datagram it landed in until its
    /// worker is done with it. A caller takes nothing from it (each
    /// activity slot owns its call and result frames), and neither does
    /// a result: each server activity owns the frame its results are
    /// marshalled into and retained in.
    pub pool_size: usize,
    /// Number of server threads kept waiting for incoming calls.
    ///
    /// The fast path requires "having enough server threads waiting"
    /// (§3.1); when all are busy, call packets take the slow path through
    /// the work queue. Defaults to the machine's available parallelism
    /// (clamped to [1, 4]): the Firefly ran one Receiver per processor,
    /// and extra workers on fewer cores only break up the receive-burst
    /// waves that the result batcher coalesces.
    pub server_threads: usize,
    /// First retransmission timeout; doubles on every retry.
    pub retransmit_initial: Duration,
    /// Upper bound on the retransmission timeout after backoff.
    pub retransmit_max: Duration,
    /// Total transmissions (first send + retransmissions) before a call
    /// fails.
    pub max_transmissions: u32,
    /// Compute and verify software UDP checksums (§4.2.4 measures the cost
    /// of turning this off).
    pub checksum: bool,
    /// Machine identifier carried in activity IDs; must differ between
    /// endpoints that talk to each other.
    pub machine_id: u32,
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
    /// buffer, preallocated at endpoint creation.
    pub trace_capacity: usize,
}

/// Default worker count: one server thread per available processor,
/// clamped to [1, 4] (the Firefly itself had at most five processors,
/// one of which serviced the Ethernet).
fn default_server_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 4)
}

impl Default for Config {
    fn default() -> Self {
        Config {
            pool_size: 64,
            server_threads: default_server_threads(),
            retransmit_initial: Duration::from_millis(50),
            retransmit_max: Duration::from_secs(2),
            max_transmissions: 10,
            checksum: true,
            machine_id: 0, // 0 means "derive from the transport address".
            rng_seed: 0x5eed_f1ef_0001,
            trace: false,
            trace_capacity: crate::trace::DEFAULT_RING_CAPACITY,
        }
    }
}

impl Config {
    /// Convenience: a config with checksums disabled (§4.2.4).
    pub fn without_checksums() -> Self {
        Config {
            checksum: false,
            ..Config::default()
        }
    }

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
        assert!(c.pool_size >= 2 * c.server_threads);
        assert!(c.max_transmissions > 1);
        assert!(c.retransmit_max >= c.retransmit_initial);
        assert!(c.checksum);
        // Each shard must get at least a couple of buffers.
        assert!(c.pool_size >= 2 * crate::calltable::SHARDS);
    }

    #[test]
    fn presets() {
        assert!(!Config::without_checksums().checksum);
        assert!(Config::fast_retry().retransmit_initial < Duration::from_millis(50));
        assert!(!Config::default().trace);
        assert!(Config::traced().trace);
        assert!(Config::traced().trace_capacity > 0);
    }
}
