//! The real stack's own Tables VII/VIII: a live per-step latency account
//! of Null() and MaxResult-style calls over the loopback Ethernet, built
//! from `firefly_rpc::trace` records.
//!
//! It first prints what a set-up costs, step by step: a Null() rig over
//! UDP made and dropped again and again in this process, as `rpcbench`'s
//! `setup_s` rounds do, with the process's first set-up beside the
//! fastest. Then, for each procedure, the caller-side step table (mean +
//! p50/p95/p99 per step), an "accounted vs measured" comparison in the
//! paper's style, and the server-side breakdown of the wire step.
//!
//! Flags:
//!   --markdown   emit Markdown instead of aligned text (EXPERIMENTS.md)
//!   --smoke      tiny run for scripts/verify.sh (no percentile value;
//!                5 set-ups instead of 201)
//!   --calls N    measured calls per procedure (default 2000)
//!   --profile    append a flat per-step "top offenders" profile, all
//!                steps of both roles ranked by total time
//!   --flame      emit folded stacks (flamegraph.pl input) on stdout
//!                instead of tables: `proc;role;step total-us`

use crate::account::{
    folded_stacks, paper_procedures, profile_table, run_account, run_setup_account,
};
use crate::{emit, Args};

/// Set-ups timed: as many as `rpcbench` makes before its timed phase.
const SETUPS: usize = 201;

pub fn main(args: &Args) {
    let smoke = args.flag("--smoke");
    let profile = args.flag("--profile");
    let flame = args.flag("--flame");
    let calls = args
        .value("--calls")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 50 } else { 2000 });
    let warmup = if smoke { 10 } else { 200 };
    if !flame {
        // First, while no endpoint of this process has run yet.
        let setups = run_setup_account(if smoke { 5 } else { SETUPS });
        emit(&setups.table(), args.mode);
        println!();
    }

    for (procedure, call_args) in paper_procedures() {
        let account = run_account(procedure, &call_args, calls, warmup);
        if flame {
            // Folded stacks only: the output pipes straight into
            // `flamegraph.pl` (or any folded-stack consumer).
            for line in folded_stacks(procedure, &account.report) {
                println!("{line}");
            }
            continue;
        }
        emit(&account.caller_table(), args.mode);
        emit(&account.server_table(), args.mode);
        if profile {
            emit(
                &profile_table(
                    &format!("Profile: {procedure} (steps by total time)"),
                    &account.report,
                ),
                args.mode,
            );
        }
        println!(
            "{procedure}: accounted {:.2} us vs measured {:.2} us ({:.1}% explained)",
            account.accounted_mean_us,
            account.measured_mean_us,
            account.coverage() * 100.0
        );
        println!();
    }
    println!(
        "Paper analog: Table VII explains Null()'s 2660 us within a few \
         percent; tests/latency_account.rs holds this account to +/-10%."
    );
}
