//! Runtime counters proving fast-path behaviour.
//!
//! The paper's performance story rests on structural claims — one wakeup
//! per packet, demultiplexing in the interrupt routine, buffers recycled
//! on the fly, retransmissions absent from the fast path. These counters
//! make the same claims checkable on the Rust stack: integration tests
//! assert, for example, that a healthy run performs zero retransmissions
//! and never takes the slow path.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Monotonic counters for one endpoint.
        #[derive(Debug, Default)]
        pub struct RpcStats {
            $($(#[$doc])* pub(crate) $name: AtomicU64,)+
        }

        impl RpcStats {
            $(
                $(#[$doc])*
                pub fn $name(&self) -> u64 {
                    self.$name.load(Ordering::Relaxed)
                }
            )+

            /// Renders all counters for diagnostics.
            pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
                // lint:allow(no-alloc-on-fast-path): snapshot() is a
                // reporting helper called after runs, never per packet.
                vec![$((stringify!($name), self.$name()),)+]
            }
        }
    };
}

counters! {
    /// Call packets sent (first transmissions only).
    calls_sent,
    /// Calls completed with a result delivered to the caller.
    calls_completed,
    /// Call/result retransmissions performed by callers on this endpoint.
    retransmissions,
    /// Result packets received that completed a waiting call.
    results_received,
    /// Call packets received by the server side.
    calls_received,
    /// Duplicate call packets answered from the retained result.
    duplicate_calls,
    /// Duplicate or orphaned result packets dropped.
    orphan_results,
    /// Explicit acknowledgements sent.
    acks_sent,
    /// Explicit acknowledgements received.
    acks_received,
    /// Probe packets answered.
    probes_answered,
    /// Frames dropped because validation failed (bad checksum, bad
    /// header), and the rest of a coalesced datagram a receiving caller
    /// thread found no buffer for (it never waits for one).
    validation_drops,
    /// Frames dropped because the packet-type byte is not a known type.
    /// Split from `validation_drops` so the chaos garbage-frame mix can
    /// prove unknown types are counted and dropped, never demux errors.
    unknown_type_drops,
    /// ProbeResponse packets with no outstanding probe, dropped silently.
    stray_probe_responses,
    /// Packets that reached the thread they were for without queueing
    /// (the fast path): a result or ack that woke its waiting caller, a
    /// call that woke a parked server thread, or a call executed by the
    /// receiving thread itself (`inline_calls`). A result received by
    /// its own waiter wakes nobody and is counted in
    /// `self_received_results` instead.
    direct_wakeups,
    /// Call packets queued because no server thread was waiting (slow path).
    slow_path_queued,
    /// Single-packet calls executed to completion by the receiving
    /// thread; a subset of `direct_wakeups`, never of `slow_path_queued`.
    inline_calls,
    /// Result packets received by the very thread waiting for them:
    /// `results_received` minus the ones that needed a wake-up.
    self_received_results,
    /// Times the receive role changed hands between the resident
    /// receiver and caller threads (a cede, or the resident's return).
    role_handovers,
    /// Receive buffers recycled straight back to the receive queue.
    buffers_recycled,
    /// Multi-packet fragments sent.
    fragments_sent,
    /// Multi-packet fragments received.
    fragments_received,
    /// Completed per-call trace records pushed into the trace ring.
    /// Observability of the observability: stays 0 with tracing off.
    trace_records,
}

impl RpcStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Display for RpcStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (name, value)) in self.snapshot().into_iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{name:>20}  {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_and_bump() {
        let s = RpcStats::default();
        assert_eq!(s.calls_sent(), 0);
        RpcStats::bump(&s.calls_sent);
        RpcStats::bump(&s.calls_sent);
        assert_eq!(s.calls_sent(), 2);
        assert_eq!(s.retransmissions(), 0);
    }

    #[test]
    fn display_renders_every_counter() {
        let s = RpcStats::default();
        RpcStats::bump(&s.calls_sent);
        let text = s.to_string();
        assert!(text.contains("calls_sent  1"));
        assert!(text.lines().count() >= 15);
    }

    #[test]
    fn snapshot_lists_all_counters() {
        let s = RpcStats::default();
        let snap = s.snapshot();
        assert!(snap.len() >= 15);
        assert!(snap.iter().any(|(n, _)| *n == "direct_wakeups"));
    }
}
