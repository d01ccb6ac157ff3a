//! Table IX: execution time of the Ethernet interrupt routine across code
//! versions (758 µs original Modula-2+, 547 µs final Modula-2+, 177 µs
//! assembly), its effect on end-to-end RPC, and the modern analog:
//! interpreted vs plan-driven vs typed stubs on the real codec.

use crate::{emit, Args, StubTimes};
use firefly_idl::{test_interface, ArgWriter, Value};
use firefly_metrics::Table;
use firefly_sim::workload::{run, Procedure, WorkloadSpec};
use firefly_sim::{CodeVersion, CostModel};

pub fn main(args: &Args) {
    let mut t = Table::new(&[
        "Version",
        "Interrupt routine µs (paper)",
        "Simulated Null() latency µs",
    ])
    .title("Table IX: Execution time for main path of the Ethernet interrupt routine");
    for (name, version) in [
        ("Original Modula-2+", CodeVersion::OriginalModula),
        ("Final Modula-2+", CodeVersion::FinalModula),
        ("Assembly language", CodeVersion::Assembly),
    ] {
        let cost = CostModel::with_code_version(version);
        let r = run(&WorkloadSpec {
            threads: 1,
            calls: 300,
            procedure: Procedure::Null,
            cost,
            background: false,
            ..WorkloadSpec::default()
        });
        t.row_owned(vec![
            name.to_string(),
            format!("{:.0}", version.interrupt_routine_us()),
            format!("{:.0}", r.mean_latency_us),
        ]);
    }
    emit(&t, args.mode);

    // Modern analog: one 1440-byte array marshalled by the interpreted
    // engine (per-element dispatch), by the plan-driven engine (a block
    // copy found through the plan) and by a typed stub (the block copy
    // alone) — the Modula-2+-vs-assembly theme on today's metal.
    let iface = test_interface();
    let out = vec![Value::Bytes(vec![0xabu8; 1440])];
    let array = vec![0xabu8; 1440];
    let times = StubTimes::measure(
        &iface,
        "MaxResult",
        50_000,
        1500,
        |buf| {
            let mut w = ArgWriter::new(buf);
            w.put_bytes(std::hint::black_box(&array)).unwrap();
            std::hint::black_box(w.written());
        },
        |stub, buf| {
            std::hint::black_box(stub.marshal_result(&out, buf).unwrap());
        },
    );

    let mut a = Table::new(&["Stubs", "1440-byte marshal ns", "ratio"])
        .title("Modern analog: interpreted vs plan-driven vs typed stubs (this machine)");
    for (name, ns) in [
        ("Interpreted (library style)", times.interpreted),
        ("Dynamic (the plan over values)", times.dynamic),
        ("Typed (direct assignment)", times.typed),
    ] {
        a.row_owned(vec![
            name.into(),
            format!("{ns:.0}"),
            format!("{:.1}x", ns / times.typed),
        ]);
    }
    emit(&a, args.mode);
    println!(
        "The paper's assembly rewrite bought 758/177 = {:.1}x on the interrupt routine.",
        758.0 / 177.0
    );
}
