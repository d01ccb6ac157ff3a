//! Tier-1 home of the two static-vs-dynamic cross-validation gates
//! (`firefly_check::gates`, docs/CHECKING.md): the live workspace must
//! pass both — the same call `firefly-check verify` makes — and
//! each gate must reject its seeded inconsistency. Everything runs
//! in-process on typed values, so no missing tool can skip it.

use std::collections::BTreeSet;
use std::path::Path;

use firefly_check::gates;
use firefly_lint::dataflow::LocationSummary;
use firefly_rpc::witness::{Action, ProtocolWitness, State, TRANSITIONS};
use firefly_wire::{ActivityId, PacketType, RpcHeader};

/// `firefly-check verify` on this checkout: lint-clean, every model and
/// seeded bug as expected, both gates quiet, and every row of
/// protocol.toml observed.
#[test]
fn live_workspace_passes_all_three_gates() {
    let mut log = Vec::new();
    let ok =
        gates::verify(Path::new(env!("CARGO_MANIFEST_DIR")), &mut log).expect("walk workspace");
    let log = String::from_utf8_lossy(&log);
    assert!(ok, "firefly-check verify failed:\n{log}");
    let rows = TRANSITIONS.len();
    assert!(
        log.contains(&format!(
            "{rows} legal transition(s): {rows} observed, 0 gap(s), 0 off-spec"
        )),
        "protocol coverage is not {rows}/{rows}:\n{log}"
    );
    // The publication gate's evidence is really being collected: the
    // release->acquire edge the race detector consumes in the channel
    // model.
    let evidence = "publication class senders: statically paired at senders";
    assert!(log.contains(evidence), "missing {evidence:?}:\n{log}");
}

/// Spec drift, both directions: every `PacketType` the wire crate can
/// decode has a row in protocol.toml's legal table, and the table names
/// no type the wire crate lacks. The variants are enumerated through the
/// decoder itself, so a new wire byte cannot hide from this.
#[test]
fn packet_types_match_the_spec_both_ways() {
    let decoded: BTreeSet<&str> = (0..=u8::MAX)
        .filter_map(|byte| PacketType::from_u8(byte).ok())
        .map(PacketType::name)
        .collect();
    // `state Type flags -> action`: the second word names the type.
    let named: BTreeSet<&str> = TRANSITIONS
        .iter()
        .map(|row| row.split(' ').nth(1).expect("a row names its packet type"))
        .collect();
    assert_eq!(
        decoded, named,
        "wire PacketType variants (left) and the types protocol.toml's rows name (right) drifted"
    );
}

fn set<T: Ord + Clone>(items: &[T]) -> BTreeSet<T> {
    items.iter().cloned().collect()
}

#[test]
fn publication_gate_pairs_by_name_and_rejects_a_ghost_class() {
    let locations = [
        LocationSummary {
            name: "senders".to_string(),
            paired: true,
            allowlisted: false,
        },
        LocationSummary {
            name: "ghost".to_string(), // present, but never proved paired
            paired: false,
            allowlisted: false,
        },
    ];
    let found = gates::publications(&locations, &set(&["senders".to_string()]));
    assert!(found.passed(), "{found:?}");
    assert_eq!(
        found.notes,
        ["publication class senders: statically paired at senders"]
    );

    let found = gates::publications(&locations, &set(&["ghost".to_string()]));
    assert_eq!(found.problems.len(), 1, "{found:?}");
    assert!(found.problems[0].contains("\"ghost\""), "{found:?}");
}

const DISPATCH: &str = "server-new Call last_fragment -> dispatch";
const DROP_STALE: &str = "server-stale Call - -> drop-stale";

/// The gate over a two-row legal table.
fn protocol_gate(observed: &[&str]) -> gates::Findings {
    gates::protocol(
        &[DISPATCH, DROP_STALE],
        &observed.iter().map(|r| r.to_string()).collect(),
    )
}

#[test]
fn protocol_gate_accepts_exactly_the_legal_rows() {
    let found = protocol_gate(&[DISPATCH, DROP_STALE]);
    assert!(found.passed(), "{found:?}");
    assert_eq!(
        found.notes,
        ["2 legal transition(s): 2 observed, 0 gap(s), 0 off-spec"]
    );
}

#[test]
fn protocol_gate_rejects_illegal_rows_and_gaps() {
    // A transition outside the legal table.
    let found = protocol_gate(&[DISPATCH, DROP_STALE, "server-new Probe - -> explode"]);
    assert_eq!(found.problems.len(), 1, "{found:?}");
    assert!(
        found.problems[0].contains("not in the spec's legal table"),
        "{found:?}"
    );
    // A legal row not observed.
    let found = protocol_gate(&[DISPATCH]);
    assert_eq!(found.problems.len(), 1, "{found:?}");
    assert!(found.problems[0].contains("coverage gap"), "{found:?}");
}

/// A shape no row names, recorded by a real witness, reaches the gate
/// rendered like a row, and the gate rejects it by that name.
#[test]
fn protocol_gate_rejects_an_off_spec_shape_a_witness_recorded() {
    let witness = ProtocolWitness::default();
    let mut call = RpcHeader::call(ActivityId::new(1, 1, 1), 1, 0, 0, 0, 0);
    witness.record(State::ServerNew, &call, Action::Dispatch);
    call.flags.acks_result = true;
    witness.record(State::ServerNew, &call, Action::Dispatch);

    let observed = ProtocolWitness::union(&[&witness]).into_iter().collect();
    let found = gates::protocol(&[DISPATCH], &observed);
    let shape = "server-new Call last_fragment+acks_result -> dispatch";
    assert_eq!(found.problems.len(), 1, "{found:?}");
    assert!(found.problems[0].contains(shape), "{found:?}");
    assert_eq!(
        found.notes,
        ["1 legal transition(s): 1 observed, 0 gap(s), 1 off-spec"]
    );
}
