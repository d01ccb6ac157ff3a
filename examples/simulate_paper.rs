//! Reproduces the paper's headline numbers on the Firefly simulator in
//! one run — a quick tour of what `firefly-sim` models.
//!
//! Run with `cargo run --release --example simulate_paper`.

#![forbid(unsafe_code)]

use firefly::sim::workload::{run, Procedure, WorkloadSpec};
use firefly::sim::{CodeVersion, CostModel, Improvement};

fn main() {
    println!("== The shipped system (Table I row 1) ==");
    let null = run(&WorkloadSpec {
        threads: 1,
        calls: 2000,
        procedure: Procedure::Null,
        ..WorkloadSpec::default()
    });
    let max = run(&WorkloadSpec {
        threads: 1,
        calls: 2000,
        procedure: Procedure::MaxResult,
        ..WorkloadSpec::default()
    });
    println!(
        "Null(): {:.2} ms   (paper: 2.66 ms)",
        null.mean_latency_us / 1000.0
    );
    println!(
        "MaxResult(b): {:.2} ms   (paper: 6.35 ms)",
        max.mean_latency_us / 1000.0
    );

    println!("\n== Saturation (Table I rows 4-8) ==");
    let sat_null = run(&WorkloadSpec {
        threads: 7,
        calls: 4000,
        procedure: Procedure::Null,
        ..WorkloadSpec::default()
    });
    let sat_max = run(&WorkloadSpec {
        threads: 4,
        calls: 4000,
        procedure: Procedure::MaxResult,
        ..WorkloadSpec::default()
    });
    println!(
        "Null() with 7 threads: {:.0} RPCs/s   (paper: ~741)",
        sat_null.rpcs_per_sec
    );
    println!(
        "MaxResult(b) with 4 threads: {:.2} Mbit/s   (paper: 4.65), caller {:.2} CPUs (paper ~1.2)",
        sat_max.megabits_per_sec, sat_max.caller_cpus_used
    );

    println!("\n== The account (Tables VI-VIII) ==");
    let m = CostModel::paper();
    println!(
        "send+receive 74 B: {:.0} µs (paper 954); 1514 B: {:.0} µs (paper 4414)",
        m.send_receive_total(74),
        m.send_receive_total(1514)
    );
    println!(
        "stubs+runtime: {:.0} µs (paper 606); composed Null: {:.0} (2514), MaxResult: {:.0} (6524)",
        m.runtime_total(),
        m.null_composed(),
        m.max_result_composed()
    );

    println!("\n== Code versions (Table IX) ==");
    for v in [
        CodeVersion::OriginalModula,
        CodeVersion::FinalModula,
        CodeVersion::Assembly,
    ] {
        let r = run(&WorkloadSpec {
            threads: 1,
            calls: 300,
            procedure: Procedure::Null,
            cost: CostModel::with_code_version(v),
            background: false,
            ..WorkloadSpec::default()
        });
        println!(
            "{v:?}: interrupt routine {:.0} µs -> Null() {:.2} ms",
            v.interrupt_routine_us(),
            r.mean_latency_us / 1000.0
        );
    }

    println!("\n== Fewer processors (Tables X-XI) ==");
    for (c, s) in [(5, 5), (2, 5), (1, 5), (1, 1)] {
        let r = run(&WorkloadSpec {
            threads: 1,
            calls: 1000,
            procedure: Procedure::Null,
            cost: CostModel::exerciser(),
            caller_cpus: c,
            server_cpus: s,
            background: true,
        });
        println!(
            "{c} caller x {s} server CPUs: {:.2} s / 1000 Null() calls",
            r.seconds
        );
    }

    println!("\n== What-ifs (Section 4.2) ==");
    let base = run(&WorkloadSpec {
        threads: 1,
        calls: 500,
        procedure: Procedure::Null,
        background: false,
        ..WorkloadSpec::default()
    })
    .mean_latency_us;
    for (name, imp) in [
        ("3x faster CPUs", Improvement::FasterCpus),
        ("100 Mbit/s Ethernet", Improvement::FasterNetwork),
        ("no UDP checksums", Improvement::OmitChecksums),
        ("busy-wait (no wakeups)", Improvement::BusyWait),
    ] {
        let r = run(&WorkloadSpec {
            threads: 1,
            calls: 500,
            procedure: Procedure::Null,
            cost: CostModel::with_improvement(imp),
            background: false,
            ..WorkloadSpec::default()
        });
        println!(
            "{name}: Null() {:.2} ms (saves {:.0} µs)",
            r.mean_latency_us / 1000.0,
            base - r.mean_latency_us
        );
    }
}
