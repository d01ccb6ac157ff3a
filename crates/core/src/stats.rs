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
    /// Calls sent that ended without a result: the transmission or probe
    /// budget ran out, the deadline passed, or a retransmission could not
    /// be sent. With no call in flight, `calls_sent = calls_completed +
    /// calls_failed`.
    calls_failed,
    /// Call/result retransmissions performed by callers on this endpoint.
    retransmissions,
    /// Result packets received that completed a waiting call.
    results_received,
    /// Call packets received by the server side. A shed call is not one
    /// of them: it counts in `calls_shed`.
    calls_received,
    /// New single-packet calls bound for a server thread that found no
    /// pool buffer to be copied into, or no server thread to take them
    /// (after shutdown, or when none runs and the OS refuses one), and
    /// were dropped like a lost packet — leaving their activity as it
    /// was — for the caller's retransmission to recover; and the call
    /// fragments of a run shed whole for want of a server thread. A
    /// duplicate of a call already seen needs neither and is answered as
    /// usual. The receiving thread never waits for a buffer or a thread.
    /// Also a call received whose hand-off `shutdown` overtook: it
    /// counts in `calls_received` too, and is never executed.
    calls_shed,
    /// Calls the server ran — gate, stub and procedure, on the receiving
    /// thread or a server thread — once each, whatever the outcome: a
    /// call refused or failed counts too. Between two endpoints at
    /// quiescence, `calls_completed ≤ calls_executed ≤ calls_completed +
    /// calls_failed`.
    calls_executed,
    /// Server threads taken, whether new or idle ones of the process:
    /// each at a new call's hand-off that found every one taken busy,
    /// never more than `Config::server_threads`.
    workers_started,
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
    /// header).
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
    /// Calls executed to completion by the receiving thread, single- or
    /// multi-packet (a multi-packet one once its last fragment is in); a
    /// subset of `direct_wakeups`, never of `slow_path_queued`.
    inline_calls,
    /// Result packets received by the very thread waiting for them:
    /// `results_received` minus the ones that needed a wake-up.
    self_received_results,
    /// Result packets or fragments taken that woke their waiting caller:
    /// the part of `direct_wakeups` results caused, so that
    /// `results_received = self_received_results + result_wakeups`.
    result_wakeups,
    /// Times the receive role changed hands between the resident
    /// receiver and caller threads (a cede, or the resident's return).
    role_handovers,
    /// Retained results released by an explicit ack of the last result
    /// (a caller's teardown ack), which frees the activity's result
    /// frame.
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
