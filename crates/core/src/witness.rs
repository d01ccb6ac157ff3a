//! Protocol-transition witness: the runtime half of protocol.toml.
//!
//! Every receive-side dispatch decision in the endpoint (server
//! demultiplexer, caller call table) records the state it found, the
//! packet and the action it took; the packet's type and flags come from
//! its header, so no site works out a row itself. build.rs generates the
//! [`State`] and [`Action`] tokens, [`TRANSITIONS`] and the [`row`]
//! lookup from protocol.toml, so there is no second copy to drift. A
//! tuple the spec has no row for is kept too, and reported rendered as
//! one. `firefly-check verify` reads which transitions its wire scenario
//! and caller drill drove and fails on any the spec does not allow and on
//! any spec row nothing exercises (docs/CHECKING.md, "Static-vs-dynamic
//! gates").
//!
//! Only *seen / not seen* is recorded: one lookup and one relaxed load
//! per packet, and one relaxed store the first time a row fires. The
//! cells are shared by the receiver, every worker and every caller, so a
//! row that has already fired must not dirty its cache line again.
//! Deliberately free of locks, so recording can sit inside lock-held
//! regions without nesting a lock (the lint's `nested-lock` rule).

use firefly_wire::{PacketFlags, PacketType, RpcHeader};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

// `TRANSITIONS`, `State`, `Action`, `ROWS` and `row`, generated from
// protocol.toml by build.rs.
include!(concat!(env!("OUT_DIR"), "/protocol_rows.rs"));

/// Which spec rows this component has taken, and the first tuple it
/// recorded that is no row.
pub struct ProtocolWitness {
    seen: [AtomicBool; TRANSITIONS.len()],
    /// The first off-spec tuple as the bytes `[state, type, flags,
    /// action]`; 0 until there is one (no packet type is 0 on the wire).
    off_spec: AtomicU32,
}

impl Default for ProtocolWitness {
    fn default() -> Self {
        ProtocolWitness {
            seen: std::array::from_fn(|_| AtomicBool::new(false)),
            off_spec: AtomicU32::new(0),
        }
    }
}

impl std::fmt::Debug for ProtocolWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtocolWitness")
            .field("transitions", &Self::union(&[self]))
            .finish()
    }
}

/// `state Type flags -> action`, the way protocol.toml spells a row.
fn render(state: State, ty: PacketType, flags: PacketFlags, action: Action) -> String {
    [
        state.name(),
        ty.name(),
        &flags.canonical(),
        "->",
        action.name(),
    ]
    .join(" ")
}

impl ProtocolWitness {
    /// Records that a packet with header `rpc`, found in `state`, was
    /// handled by `action`.
    #[inline]
    pub fn record(&self, state: State, rpc: &RpcHeader, action: Action) {
        match row(state, rpc.packet_type, rpc.flags, action) {
            Some(row) => {
                let seen = &self.seen[row];
                if !seen.load(Ordering::Relaxed) {
                    seen.store(true, Ordering::Relaxed);
                }
            }
            None => {
                let first = &self.off_spec;
                if first.load(Ordering::Relaxed) == 0 {
                    let ty = rpc.packet_type as u8;
                    let word =
                        u32::from_le_bytes([state as u8, ty, rpc.flags.to_u8(), action as u8]);
                    let _ = first.compare_exchange(0, word, Ordering::Relaxed, Ordering::Relaxed);
                }
            }
        }
    }

    /// The first recorded tuple the spec has no row for, rendered like
    /// one.
    pub fn off_spec(&self) -> Option<String> {
        let [state, ty, flags, action] = self.off_spec.load(Ordering::Relaxed).to_le_bytes();
        let ty = PacketType::from_u8(ty).ok()?;
        Some(render(
            State::ALL[usize::from(state)],
            ty,
            PacketFlags::from_u8(flags),
            Action::ALL[usize::from(action)],
        ))
    }

    /// Every transition `witnesses` took: the rows any of them saw, in
    /// table order, then each one's off-spec tuple.
    pub fn union(witnesses: &[&ProtocolWitness]) -> Vec<String> {
        let rows = TRANSITIONS
            .iter()
            .enumerate()
            .filter(|&(i, _)| witnesses.iter().any(|w| w.seen[i].load(Ordering::Relaxed)))
            .map(|(_, row)| row.to_string());
        rows.chain(witnesses.iter().filter_map(|w| w.off_spec()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(packet_type: PacketType, flags: PacketFlags) -> RpcHeader {
        RpcHeader {
            packet_type,
            flags,
            ..RpcHeader::call(Default::default(), 1, 0, 0, 0, 0)
        }
    }

    #[test]
    fn every_row_looks_up_to_its_index_renders_back_and_is_recorded() {
        let w = ProtocolWitness::default();
        for (i, &(state, ty, flags, action)) in ROWS.iter().enumerate() {
            assert_eq!(row(state, ty, flags, action), Some(i), "{}", TRANSITIONS[i]);
            assert_eq!(render(state, ty, flags, action), TRANSITIONS[i]);
            w.record(state, &header(ty, flags), action);
        }
        assert_eq!(ProtocolWitness::union(&[&w]), TRANSITIONS);
    }

    #[test]
    fn the_first_off_spec_tuple_is_kept_and_reported() {
        let w = ProtocolWitness::default();
        let mut failed = RpcHeader::call(Default::default(), 1, 0, 0, 0, 0);
        failed.flags.call_failed = true;
        w.record(State::ServerNew, &failed, Action::Dispatch);
        failed.packet_type = PacketType::Probe;
        w.record(State::CallerOrphan, &failed, Action::DropStray);
        let first = "server-new Call last_fragment+call_failed -> dispatch";
        assert_eq!(w.off_spec().as_deref(), Some(first));
        assert_eq!(ProtocolWitness::union(&[&w, &ProtocolWitness::default()]), [first]);
    }
}
