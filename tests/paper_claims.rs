//! Cross-crate assertions of the paper's quantitative claims — the
//! fidelity checklist of DESIGN.md §6.

use firefly::idl::{test_interface, CompiledStub, Value};
use firefly::sim::workload::{run, Procedure, WorkloadSpec};
use firefly::sim::{CostModel, Improvement};
use firefly::wire::{FrameBuilder, PacketType, MAX_FRAME_LEN, MIN_FRAME_LEN, RPC_HEADERS_LEN};
use std::sync::Arc;

#[test]
fn abstract_claim_frame_sizes() {
    // "The Ethernet packets generated for the call and return of this
    // procedure … are the 74-byte minimum size generated for Ethernet
    // RPC" and "a result packet with 1514 bytes, the maximum allowed on
    // an Ethernet."
    assert_eq!(RPC_HEADERS_LEN, 74);
    assert_eq!(MAX_FRAME_LEN, 1514);
    let null_call = FrameBuilder::new(PacketType::Call).build(&[]).unwrap();
    assert_eq!(null_call.len(), 74);
    let iface = test_interface();
    let p = iface.procedure("MaxResult").unwrap();
    let stub = CompiledStub::new(p.name(), Arc::clone(p.plan()));
    let mut data = vec![0u8; 1440];
    let n = stub
        .marshal_result(&[Value::Bytes(vec![1; 1440])], &mut data)
        .unwrap();
    let result = FrameBuilder::new(PacketType::Result)
        .build(&data[..n])
        .unwrap();
    assert_eq!(result.len(), 1514);
}

#[test]
fn abstract_claim_null_latency() {
    // "The elapsed time for an inter-machine call to a remote procedure
    // that accepts no arguments and produces no results is 2.66
    // milliseconds."
    let r = run(&WorkloadSpec {
        threads: 1,
        calls: 1000,
        procedure: Procedure::Null,
        ..WorkloadSpec::default()
    });
    let ms = r.mean_latency_us / 1000.0;
    assert!((ms - 2.66).abs() < 0.05, "Null latency {ms:.3} ms");
}

#[test]
fn abstract_claim_max_result_latency() {
    // "The elapsed time for an RPC that has a single 1440-byte result …
    // is 6.35 milliseconds."
    let r = run(&WorkloadSpec {
        threads: 1,
        calls: 1000,
        procedure: Procedure::MaxResult,
        ..WorkloadSpec::default()
    });
    let ms = r.mean_latency_us / 1000.0;
    assert!((ms - 6.35).abs() < 0.1, "MaxResult latency {ms:.3} ms");
}

#[test]
fn abstract_claim_max_throughput() {
    // "Maximum inter-machine throughput using RPC is 4.65
    // megabits/second, achieved with 4 threads."
    let r = run(&WorkloadSpec {
        threads: 4,
        calls: 3000,
        procedure: Procedure::MaxResult,
        ..WorkloadSpec::default()
    });
    assert!(
        (r.megabits_per_sec - 4.65).abs() < 0.35,
        "max throughput {:.2} Mb/s",
        r.megabits_per_sec
    );
    // "CPU utilization at maximum throughput is about 1.2 on the calling
    // machine and a little less on the server."
    assert!(
        (0.8..1.5).contains(&r.caller_cpus_used),
        "caller {:.2} CPUs",
        r.caller_cpus_used
    );
    assert!(r.server_cpus_used <= r.caller_cpus_used + 0.15);
}

#[test]
fn section_3_3_account_within_5_percent() {
    let m = CostModel::paper();
    assert_eq!(m.send_receive_total(MIN_FRAME_LEN), 954.0);
    assert_eq!(m.send_receive_total(MAX_FRAME_LEN), 4414.0);
    assert_eq!(m.runtime_total(), 606.0);
    assert_eq!(m.null_composed(), 2514.0);
    assert_eq!(m.max_result_composed(), 6524.0);
    // Measured (simulated) vs accounted within 5%.
    for (proc_, composed) in [
        (Procedure::Null, m.null_composed()),
        (Procedure::MaxResult, m.max_result_composed()),
    ] {
        let r = run(&WorkloadSpec {
            threads: 1,
            calls: 300,
            procedure: proc_,
            background: false,
            ..WorkloadSpec::default()
        });
        let gap = (r.mean_latency_us - composed).abs() / composed;
        // The paper's own Null() gap is 131/2514 = 5.2% ("within about
        // 5%"); ours carries the Table-I-average residual explicitly, so
        // allow the same "about 5%" (≤6%).
        assert!(gap < 0.06, "{proc_:?}: gap {:.1}%", gap * 100.0);
    }
}

#[test]
fn section_4_2_all_eight_improvements() {
    let base = CostModel::paper();
    let cases: [(Improvement, f64, f64); 6] = [
        (Improvement::FasterNetwork, 110.0, 1160.0),
        (Improvement::FasterCpus, 1380.0, 2280.0),
        (Improvement::OmitChecksums, 180.0, 1000.0),
        (Improvement::RedesignProtocol, 200.0, 200.0),
        (Improvement::OmitIpUdp, 100.0, 100.0),
        (Improvement::BusyWait, 440.0, 440.0),
    ];
    for (imp, d_null, d_max) in cases {
        let m = CostModel::with_improvement(imp);
        let got_null = base.null_composed() - m.null_composed();
        let got_max = base.max_result_composed() - m.max_result_composed();
        assert!(
            (got_null - d_null).abs() / d_null < 0.08,
            "{imp:?} Null: {got_null:.0} vs {d_null}"
        );
        assert!(
            (got_max - d_max).abs() / d_max < 0.08,
            "{imp:?} MaxResult: {got_max:.0} vs {d_max}"
        );
    }
    // 4.2.8 saves ~280 µs (a 3x speedup of the 422 µs of runtime code).
    let m = CostModel::with_improvement(Improvement::RecodeRuntime);
    let d = base.null_composed() - m.null_composed();
    assert!((d - 281.0).abs() < 2.0, "recode runtime saves {d:.0}");
    // 4.2.1 saves ~300 µs on Null (the QBus latencies leave the path).
    let m = CostModel::with_improvement(Improvement::BetterController);
    let d = base.null_composed() - m.null_composed();
    assert!((d - 300.0).abs() < 5.0, "better controller saves {d:.0}");
}

#[test]
fn section_5_uniprocessor_75_percent_slower() {
    // "Latency with uniprocessor caller and server machines is 75% longer
    // than for 5 processor machines."
    let five = run(&WorkloadSpec {
        threads: 1,
        calls: 600,
        procedure: Procedure::Null,
        cost: CostModel::exerciser(),
        caller_cpus: 5,
        server_cpus: 5,
        background: true,
    });
    let uni = run(&WorkloadSpec {
        threads: 1,
        calls: 600,
        procedure: Procedure::Null,
        cost: CostModel::exerciser(),
        caller_cpus: 1,
        server_cpus: 1,
        background: true,
    });
    let ratio = uni.mean_latency_us / five.mean_latency_us;
    // Paper: 4.81/2.69 = 1.79; accept a broad band around it.
    assert!((1.5..2.6).contains(&ratio), "uni/5p ratio {ratio:.2}");
}

#[test]
fn marshalling_tables_ii_to_v() {
    use firefly::idl::cost;
    assert_eq!(cost::int_by_value_micros(1), 8.0);
    assert_eq!(cost::int_by_value_micros(4), 32.0);
    assert_eq!(cost::fixed_array_micros(4), 20.0);
    assert_eq!(cost::fixed_array_micros(400), 140.0);
    assert_eq!(cost::open_array_micros(1), 115.0);
    assert_eq!(cost::open_array_micros(1440), 550.0);
    assert_eq!(cost::text_micros(None), 89.0);
    assert_eq!(cost::text_micros(Some(1)), 378.0);
    assert_eq!(cost::text_micros(Some(128)), 659.0);
}
