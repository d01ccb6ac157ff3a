//! Protocol-transition witness: the runtime half of protocol.toml.
//!
//! Every receive-side dispatch decision in the endpoint (server
//! demultiplexer, caller call table) records the `(state, packet-type,
//! flags) -> action` row it just took. The rows are the spec's
//! `[transitions].legal` table itself: build.rs generates
//! [`TRANSITIONS`] and the [`row`] indices from protocol.toml, so there
//! is no second copy to drift. `firefly-check verify` reads which rows
//! its models and wire scenario drove and fails on any observed
//! transition the spec does not allow and on any spec row nothing
//! exercises (docs/CHECKING.md, "Static-vs-dynamic gates").
//!
//! Only *seen / not seen* is recorded: one relaxed load per packet, and
//! one relaxed store the first time a row fires. The cells are shared
//! by the receiver, every worker and every caller, so a row that has
//! already fired must not dirty its cache line again. Deliberately free
//! of locks, so recording can sit inside lock-held regions without
//! entering the lint lock graph.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

// `TRANSITIONS` (the legal table, in protocol.toml order) and the
// `row::*` indices, generated from protocol.toml by build.rs.
include!(concat!(env!("OUT_DIR"), "/protocol_rows.rs"));

/// Slot of a `Call`'s flag shape inside a four-row duplicate group
/// (retained / released / stale; `server.rs` holds the groups):
/// `last_fragment` 0, `please_ack + last_fragment` 1, `please_ack` 2,
/// bare 3.
pub fn call_slot(please_ack: bool, last_fragment: bool) -> usize {
    match (please_ack, last_fragment) {
        (false, true) => 0,
        (true, true) => 1,
        (true, false) => 2,
        (false, false) => 3,
    }
}

/// Which spec rows this component has taken.
pub struct ProtocolWitness {
    seen: [AtomicBool; TRANSITIONS.len()],
}

impl Default for ProtocolWitness {
    fn default() -> Self {
        ProtocolWitness { seen: std::array::from_fn(|_| AtomicBool::new(false)) }
    }
}

impl std::fmt::Debug for ProtocolWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtocolWitness").field("observed", &self.observed()).finish()
    }
}

impl ProtocolWitness {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one traversal of a spec row. Out-of-range rows are a
    /// programming error at the instrumentation site.
    pub fn record(&self, row: usize) {
        let seen = &self.seen[row];
        if !seen.load(Ordering::Relaxed) {
            seen.store(true, Ordering::Relaxed);
        }
    }

    /// Record a row by its canonical spec string. Returns false (and
    /// records nothing) for a string not in the table, which keeps
    /// harness annotations an exact subset of the spec instead of
    /// silently inventing transitions — callers assert on the result.
    #[must_use]
    pub fn record_named(&self, name: &str) -> bool {
        match TRANSITIONS.iter().position(|t| *t == name) {
            Some(row) => {
                self.record(row);
                true
            }
            None => false,
        }
    }

    /// The distinct spec rows taken so far, in table order.
    pub fn observed(&self) -> Vec<&'static str> {
        self.seen
            .iter()
            .zip(TRANSITIONS)
            .filter(|(seen, _)| seen.load(Ordering::Relaxed))
            .map(|(_, row)| row)
            .collect()
    }

    /// Union this witness's observations into a shared set.
    pub fn merge_into(&self, out: &mut BTreeSet<&'static str>) {
        out.extend(self.observed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_distinct() {
        let mut set = BTreeSet::new();
        for t in TRANSITIONS {
            assert!(set.insert(t), "duplicate spec row {t:?}");
        }
    }

    #[test]
    fn generated_indices_name_their_rows() {
        assert_eq!(
            TRANSITIONS[row::SERVER_NEW_CALL_LF_DISPATCH],
            "server-new Call last_fragment -> dispatch"
        );
        assert_eq!(
            TRANSITIONS[row::CALLER_ORPHAN_PROBE_RESPONSE_LF_DROP_STRAY],
            "caller-orphan ProbeResponse last_fragment -> drop-stray"
        );
        assert_eq!(
            TRANSITIONS[row::SERVER_UNKNOWN_ACK_LF_AR_DROP_STALE],
            "server-unknown Ack last_fragment+acks_result -> drop-stale"
        );
        assert_eq!(
            TRANSITIONS[row::CALLER_ASSEMBLING_RESULT_PA_ASSEMBLE_ACK],
            "caller-assembling Result please_ack -> assemble-ack"
        );
    }

    #[test]
    fn record_named_round_trips_every_row() {
        let w = ProtocolWitness::new();
        for t in TRANSITIONS {
            assert!(w.record_named(t), "{t:?} not accepted");
            assert!(w.record_named(t), "a second traversal is still a legal row");
        }
        assert_eq!(w.observed(), TRANSITIONS);
    }

    #[test]
    fn call_slot_covers_all_shapes() {
        let rows: BTreeSet<usize> = [
            call_slot(false, true),
            call_slot(true, true),
            call_slot(true, false),
            call_slot(false, false),
        ]
        .into_iter()
        .collect();
        assert_eq!(rows, (0..4).collect());
    }

    #[test]
    fn record_named_rejects_unknown_rows() {
        let w = ProtocolWitness::new();
        assert!(!w.record_named("server-new Call - -> explode"));
        assert!(w.observed().is_empty());
    }
}
