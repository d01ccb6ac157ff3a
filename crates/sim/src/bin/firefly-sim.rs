//! Command-line driver for the Firefly simulator.
//!
//! ```text
//! firefly-sim [--threads N] [--calls N] [--procedure null|maxresult|maxarg]
//!             [--caller-cpus N] [--server-cpus N] [--exerciser]
//!             [--code original|final|assembly] [--no-checksums]
//!             [--no-background] [--improvement <name>]...
//! ```
//!
//! Improvement names: controller, network, cpus, checksums, protocol,
//! raw-ethernet, busy-wait, runtime.

#![forbid(unsafe_code)]

use firefly_sim::workload::{run, Procedure, WorkloadSpec};
use firefly_sim::{CodeVersion, CostModel, Improvement};

fn usage() -> ! {
    eprintln!(
        "usage: firefly-sim [--threads N] [--calls N] \
         [--procedure null|maxresult|maxarg] [--caller-cpus N] \
         [--server-cpus N] [--exerciser] [--code original|final|assembly] \
         [--no-checksums] [--no-background] [--improvement NAME]..."
    );
    std::process::exit(2);
}

fn main() {
    let mut spec = WorkloadSpec {
        calls: 1000,
        ..WorkloadSpec::default()
    };
    let mut cost = CostModel::paper();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--threads" => spec.threads = value().parse().unwrap_or_else(|_| usage()),
            "--calls" => spec.calls = value().parse().unwrap_or_else(|_| usage()),
            "--procedure" => {
                spec.procedure = match value().to_lowercase().as_str() {
                    "null" => Procedure::Null,
                    "maxresult" => Procedure::MaxResult,
                    "maxarg" => Procedure::MaxArg,
                    _ => usage(),
                }
            }
            "--caller-cpus" => spec.caller_cpus = value().parse().unwrap_or_else(|_| usage()),
            "--server-cpus" => spec.server_cpus = value().parse().unwrap_or_else(|_| usage()),
            "--exerciser" => cost = CostModel::exerciser(),
            "--code" => {
                cost = CostModel::with_code_version(match value().to_lowercase().as_str() {
                    "original" => CodeVersion::OriginalModula,
                    "final" => CodeVersion::FinalModula,
                    "assembly" => CodeVersion::Assembly,
                    _ => usage(),
                })
            }
            "--no-checksums" => cost.checksums = false,
            "--no-background" => spec.background = false,
            "--improvement" => {
                let imp = match value().to_lowercase().as_str() {
                    "controller" => Improvement::BetterController,
                    "network" => Improvement::FasterNetwork,
                    "cpus" => Improvement::FasterCpus,
                    "checksums" => Improvement::OmitChecksums,
                    "protocol" => Improvement::RedesignProtocol,
                    "raw-ethernet" => Improvement::OmitIpUdp,
                    "busy-wait" => Improvement::BusyWait,
                    "runtime" => Improvement::RecodeRuntime,
                    _ => usage(),
                };
                cost.apply(imp);
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    spec.cost = cost;

    let r = run(&spec);
    println!(
        "procedure={:?} threads={} calls={} caller_cpus={} server_cpus={}",
        spec.procedure, spec.threads, r.calls, spec.caller_cpus, spec.server_cpus
    );
    println!("elapsed          {:>10.3} s", r.seconds);
    println!("mean latency     {:>10.1} µs", r.mean_latency_us);
    println!("throughput       {:>10.0} RPCs/s", r.rpcs_per_sec);
    if spec.procedure.payload_bytes() > 0 {
        println!("payload          {:>10.2} Mbit/s", r.megabits_per_sec);
    }
    println!("caller CPUs used {:>10.2}", r.caller_cpus_used);
    println!("server CPUs used {:>10.2}", r.server_cpus_used);
}
