//! Ablations of the fast-path design features of §3.2.
//!
//! The paper lists the structural decisions that make Firefly RPC fast:
//! demultiplexing inside the receive interrupt (one wakeup per packet),
//! the shared packet-buffer pool (no mapping or copying), procedure
//! variables bound at bind time (no table lookup), direct-assignment
//! stubs (no interpreter), and on-the-fly receive-buffer recycling.
//!
//! Each ablation *undoes* one feature in the cost model and reruns the
//! simulator, quantifying what that feature buys on `Null()` and
//! `MaxResult(b)` — numbers the paper implies but never tabulates.

use crate::{emit, Args};
use firefly_metrics::Table;
use firefly_sim::workload::{run, Procedure, WorkloadSpec};
use firefly_sim::CostModel;

fn latency(cost: CostModel, p: Procedure) -> f64 {
    run(&WorkloadSpec {
        threads: 1,
        calls: 300,
        procedure: p,
        cost,
        background: false,
        ..WorkloadSpec::default()
    })
    .mean_latency_us
}

struct Ablation {
    name: &'static str,
    rationale: &'static str,
    build: fn() -> CostModel,
}

pub fn main(args: &Args) {
    let ablations = [
        Ablation {
            name: "demux via datalink thread",
            rationale: "§3.2: the traditional approach \"doubles the number \
                        of wakeups required for an RPC\"",
            build: || {
                let mut m = CostModel::paper();
                // A second wakeup per received packet, plus requeueing
                // through the datalink thread's dispatch.
                m.wakeup *= 2.0;
                m
            },
        },
        Ablation {
            name: "no shared buffer pool",
            rationale: "§3.2: shared buffers eliminate \"extra address \
                        mapping operations or copying\"; undoing them costs \
                        one copy per packet plus a map operation",
            build: || {
                let mut m = CostModel::paper();
                // One extra copy of the packet (~0.3 µs/byte on a
                // MicroVAX, cf. Table III slope) + ~80 µs of mapping per
                // packet, charged to the receive interrupt path.
                m.rx_interrupt += 80.0;
                m.checksum_small += 74.0 * 0.3;
                m.checksum_large += 1514.0 * 0.3;
                m
            },
        },
        Ablation {
            name: "transport lookup per call",
            rationale: "§3.2: Starter/Transporter/Ender are \"procedure \
                        variables filled in at binding time, rather than \
                        finding the procedures by a table lookup\"",
            build: || {
                let mut m = CostModel::paper();
                // A hash + dispatch per runtime entry point (3 per call).
                m.starter += 20.0;
                m.transporter_send += 20.0;
                m.ender += 20.0;
                m
            },
        },
        Ablation {
            name: "interpreted marshalling",
            rationale: "§2.2/§3.2: stubs use \"custom generated assignment \
                        statements … rather than library procedures or an \
                        interpreter\"; Table IX prices interpretation at ~3x",
            build: || {
                let mut m = CostModel::paper();
                m.caller_stub *= 3.0;
                m.server_stub *= 3.0;
                m.marshal_scale *= 3.0;
                m
            },
        },
        Ablation {
            name: "no receive-buffer recycling",
            rationale: "§3.2: the interrupt handler recycles the call-table \
                        buffer to the receive queue; without it every packet \
                        pays a pool round trip in the handler",
            build: || {
                let mut m = CostModel::paper();
                m.rx_interrupt += 40.0;
                m
            },
        },
    ];

    let base_null = latency(CostModel::paper(), Procedure::Null);
    let base_max = latency(CostModel::paper(), Procedure::MaxResult);

    let mut t = Table::new(&[
        "Feature removed",
        "Null µs (+delta)",
        "MaxResult µs (+delta)",
    ])
    .title("Ablations of the Section 3.2 fast-path features (simulated)");
    t.row_owned(vec![
        "none (shipped system)".into(),
        format!("{base_null:.0}"),
        format!("{base_max:.0}"),
    ]);
    for a in &ablations {
        let n = latency((a.build)(), Procedure::Null);
        let m = latency((a.build)(), Procedure::MaxResult);
        t.row_owned(vec![
            a.name.into(),
            format!("{n:.0} (+{:.0})", n - base_null),
            format!("{m:.0} (+{:.0})", m - base_max),
        ]);
    }
    emit(&t, args.mode);
    println!("Rationale, per ablation:");
    for a in &ablations {
        println!("  - {}: {}", a.name, a.rationale);
    }
    println!(
        "\nAll five together would roughly undo the paper's \"factor of \
         three or so\" improvement over the initial implementation (§4)."
    );
}
