//! Tier-1 home of the four static-vs-dynamic cross-validation gates
//! (`firefly_check::gates`, docs/CHECKING.md): the live workspace must
//! pass all of them — the same call `firefly-check verify` makes — and
//! each gate must reject its seeded inconsistency. Everything runs
//! in-process on typed values, so no missing tool can skip it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use firefly_check::gates;
use firefly_lint::config::LockClass;
use firefly_lint::dataflow::LocationSummary;
use firefly_lint::lockgraph::LockEdge;
use firefly_wire::PacketType;

/// `firefly-check verify` on this checkout: lint-clean, every model and
/// seeded bug as expected, all four gates quiet, and every row of
/// protocol.toml observed with nothing allowlisted.
#[test]
fn live_workspace_passes_all_four_gates() {
    let mut log = Vec::new();
    let ok =
        gates::verify(Path::new(env!("CARGO_MANIFEST_DIR")), &mut log).expect("walk workspace");
    let log = String::from_utf8_lossy(&log);
    assert!(ok, "firefly-check verify failed:\n{log}");
    let rows = firefly_rpc::witness::TRANSITIONS.len();
    assert!(
        log.contains(&format!(
            "{rows} legal transition(s): {rows} observed, 0 allowlisted, 0 gap(s)"
        )),
        "protocol coverage is not {rows}/{rows} with an empty allowlist:\n{log}"
    );
    // The evidence the other gates need is really being collected: the
    // retention model's audit, and the publication edges the race
    // detector consumes in the install-gate and channel models.
    for evidence in [
        "accounting activity-retention: outstanding",
        "publication class installed: statically paired at INSTALLED",
        "publication class senders: statically paired at senders",
    ] {
        assert!(log.contains(evidence), "missing {evidence:?}:\n{log}");
    }
}

/// Spec drift, both directions: every `PacketType` the wire crate can
/// decode is declared in protocol.toml `[packet-types]`, and the spec
/// names no type the wire crate lacks. The variants are enumerated
/// through the decoder itself, so a new wire byte cannot hide from this.
#[test]
fn packet_types_match_the_spec_both_ways() {
    let decoded: BTreeSet<&str> = (0..=u8::MAX)
        .filter_map(|byte| PacketType::from_u8(byte).ok())
        .map(PacketType::name)
        .collect();
    let engine = firefly_lint::Engine::for_root(Path::new(env!("CARGO_MANIFEST_DIR")));
    let spec = engine
        .protocol
        .expect("protocol.toml is committed at the workspace root");
    let listed: BTreeSet<&str> = spec.types.iter().map(String::as_str).collect();
    assert_eq!(
        decoded, listed,
        "wire PacketType variants (left) and protocol.toml [packet-types] (right) drifted"
    );
}

fn order() -> Vec<LockClass> {
    ["calltable", "shard", "pool"]
        .into_iter()
        .map(|name| LockClass {
            name: name.to_string(),
            receivers: Vec::new(),
            parametric: name == "shard",
        })
        .collect()
}

fn static_edge(from: &str, to: &str) -> LockEdge {
    LockEdge {
        from: from.to_string(),
        to: to.to_string(),
        path: "src/lib.rs".to_string(),
        line: 1,
    }
}

fn set<T: Ord + Clone>(items: &[T]) -> BTreeSet<T> {
    items.iter().cloned().collect()
}

fn edge(from: &str, to: &str) -> (String, String) {
    (from.to_string(), to.to_string())
}

#[test]
fn lock_gate_accepts_ranked_static_edges_and_ascending_instances() {
    let found = gates::lock_edges(
        &order(),
        &[
            static_edge("calltable", "pool"),
            static_edge("shard[1]", "pool"),
        ],
        &set(&[
            edge("calltable", "pool"),
            edge("shard[0]", "pool"),
            edge("shard[2]", "shard[3]"),
            edge("src/lib.rs::scratch", "pool"), // unclassified: outside the model
        ]),
    );
    assert!(found.passed(), "{found:?}");
    assert!(
        found
            .notes
            .contains(&"static edge calltable -> pool: observed".to_string()),
        "{found:?}"
    );
}

#[test]
fn lock_gate_rejects_a_descending_index_nesting() {
    let found = gates::lock_edges(&order(), &[], &set(&[edge("shard[3]", "shard[1]")]));
    assert_eq!(found.problems.len(), 1, "{found:?}");
    assert!(
        found.problems[0].contains("descending index order"),
        "{found:?}"
    );
    // Re-acquiring the held index is not ascending either.
    assert!(!gates::lock_edges(&order(), &[], &set(&[edge("shard[2]", "shard[2]")])).passed());
    // And a same-class nesting needs the class declared parametric.
    let found = gates::lock_edges(&order(), &[], &set(&[edge("pool[0]", "pool[1]")]));
    assert!(
        found.problems[0].contains("not declared parametric"),
        "{found:?}"
    );
}

#[test]
fn lock_gate_rejects_an_edge_the_static_graph_lacks() {
    let observed = set(&[edge("calltable", "pool")]);
    let found = gates::lock_edges(&order(), &[], &observed);
    assert_eq!(found.problems.len(), 1, "{found:?}");
    assert!(
        found.problems[0].contains("missing from the static lock graph"),
        "{found:?}"
    );
    // Present statically but against the rank order is a violation too.
    let found = gates::lock_edges(
        &order(),
        &[static_edge("pool", "calltable")],
        &set(&[edge("pool", "calltable")]),
    );
    assert!(
        found.problems[0].contains("violates rank order"),
        "{found:?}"
    );
}

/// One paired (and allowlisted) location, reachable from the dynamic
/// `installed` class through the label map.
fn static_publications() -> (Vec<(String, Vec<String>)>, Vec<LocationSummary>) {
    let labels = vec![("installed".to_string(), vec!["INSTALLED".to_string()])];
    let locations = vec![
        LocationSummary {
            name: "INSTALLED".to_string(),
            paired: true,
            allowlisted: true,
        },
        LocationSummary {
            name: "ghost".to_string(), // present, but never proved paired
            paired: false,
            allowlisted: false,
        },
    ];
    (labels, locations)
}

#[test]
fn publication_gate_pairs_through_the_label_map_and_rejects_a_ghost_class() {
    let (labels, locations) = static_publications();
    let found = gates::publications(&labels, &locations, &set(&["installed".to_string()]));
    assert!(found.passed(), "{found:?}");
    assert_eq!(
        found.notes,
        ["publication class installed: statically paired at INSTALLED"]
    );

    let found = gates::publications(&labels, &locations, &set(&["ghost".to_string()]));
    assert_eq!(found.problems.len(), 1, "{found:?}");
    assert!(found.problems[0].contains("\"ghost\""), "{found:?}");
}

#[test]
fn accounting_gate_rejects_drift_and_missing_counters() {
    let audit = |outstanding, retained| {
        BTreeMap::from([(
            "pool",
            vec![
                ("outstanding".to_string(), outstanding),
                ("retained".to_string(), retained),
            ],
        )])
    };
    assert!(gates::accounting(&audit(1, 1)).passed());
    assert!(gates::accounting(&BTreeMap::new()).passed());
    let found = gates::accounting(&audit(2, 1));
    assert!(found.problems[0].contains("accounting drift"), "{found:?}");
    let found = gates::accounting(&BTreeMap::from([(
        "pool",
        vec![("outstanding".to_string(), 1)],
    )]));
    assert!(
        found.problems[0].contains("missing outstanding/retained"),
        "{found:?}"
    );
}

const DISPATCH: &str = "server-new Call last_fragment -> dispatch";
const DROP_STALE: &str = "server-stale Call - -> drop-stale";

/// A two-row spec whose second row is deliberately allowlisted.
fn protocol_gate(allowlist: &[&str], observed: &[&str]) -> gates::Findings {
    let strings = |rows: &[&str]| rows.iter().map(|r| r.to_string()).collect::<Vec<_>>();
    gates::protocol(
        &strings(&[DISPATCH, DROP_STALE]),
        &strings(allowlist),
        &strings(observed).into_iter().collect(),
    )
}

#[test]
fn protocol_gate_accepts_observed_plus_allowlisted_coverage() {
    let found = protocol_gate(&[DROP_STALE], &[DISPATCH]);
    assert!(found.passed(), "{found:?}");
    assert!(
        found
            .notes
            .iter()
            .any(|n| n.contains("allowlisted (unexercised by design)")),
        "{found:?}"
    );
    assert!(protocol_gate(&[], &[DISPATCH, DROP_STALE]).passed());
}

#[test]
fn protocol_gate_rejects_illegal_rows_gaps_and_a_dishonest_allowlist() {
    // A transition outside the legal table.
    let found = protocol_gate(&[DROP_STALE], &[DISPATCH, "server-new Probe - -> explode"]);
    assert!(
        found.problems[0].contains("not in the spec's legal table"),
        "{found:?}"
    );
    // A legal row neither observed nor allowlisted.
    let found = protocol_gate(&[DROP_STALE], &[]);
    assert_eq!(found.problems.len(), 1, "{found:?}");
    assert!(found.problems[0].contains("coverage gap"), "{found:?}");
    // An allowlisted row that is now observed.
    let found = protocol_gate(&[DROP_STALE], &[DISPATCH, DROP_STALE]);
    assert!(
        found.problems[0].contains("stale coverage allowlist"),
        "{found:?}"
    );
    // An allowlisted row the spec does not contain.
    let found = protocol_gate(&[DROP_STALE, "server-new Call - -> vanish"], &[DISPATCH]);
    assert!(
        found.problems[0].contains("the spec does not contain"),
        "{found:?}"
    );
}
