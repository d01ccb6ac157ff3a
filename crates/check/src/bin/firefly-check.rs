//! `firefly-check` driver.
//!
//! Default run (and `--smoke`, a tighter bound for CI): explores every
//! structure model with DFS plus seeded random sampling — all must pass
//! — drives the wire scenario, then every seeded-bug model, which all
//! must *fail* with a replayable schedule. Exit 0 only when all hold.
//!
//! `verify [ROOT]` is what scripts/verify.sh and tier-1 run: the smoke
//! run above, `firefly-lint`'s static analysis of the workspace at ROOT,
//! and the four static-vs-dynamic gates between them (lock edges,
//! publications, pool accounting, protocol transitions — see
//! `firefly_check::gates`), in one process.
//!
//! `--dpor` swaps DFS for sleep-set + source-set dynamic partial-order
//! reduction; each DPOR run prints a
//! `dpor <model> explored N schedule(s), pruned M, exhausted B` line.
//!
//! Single-model runs for debugging:
//!   firefly-check --model pool --schedules 5000
//!   firefly-check --model pool --seed 0xdecafbad --schedules 500
//!   firefly-check --model sharded-calltable --dpor --schedules 4000
//!   firefly-check --model bug-abba --replay 0,1,1 --verbose

use firefly_check::{args, gates, models, smoke, Explorer, Mode};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("firefly-check: {e}");
            return ExitCode::from(2);
        }
    };
    let out = &mut std::io::stdout();
    if args.list {
        println!("structure models (must pass):");
        for m in models::structure_models() {
            println!("  {:<18} {}", m.name, m.about);
        }
        println!("bug models (must be caught):");
        for m in models::bug_models() {
            println!("  {:<18} {}", m.name, m.about);
        }
        return ExitCode::SUCCESS;
    }

    if args.verify {
        let Some(root) = args.root.map(PathBuf::from).or_else(firefly_lint::find_workspace_root)
        else {
            eprintln!("firefly-check: no workspace root found (looked for [workspace] in Cargo.toml)");
            return ExitCode::from(2);
        };
        return match gates::verify(&root, out) {
            Ok(true) => {
                println!("firefly-check: OK");
                ExitCode::SUCCESS
            }
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("firefly-check: analysing {}: {e}", root.display());
                ExitCode::from(2)
            }
        };
    }

    let mut explorer = Explorer::new();
    if let Some(budget) = args.budget {
        explorer.step_budget = budget;
    }

    if let Some(name) = &args.model {
        let Some(model) = models::find(name) else {
            eprintln!("firefly-check: unknown model {name} (try --list)");
            return ExitCode::from(2);
        };
        let mode = if let Some(decisions) = args.replay.clone() {
            Mode::Replay { decisions }
        } else if let Some(seed) = args.seed {
            Mode::Random {
                seed,
                schedules: args.schedules.unwrap_or(1000),
            }
        } else if args.dpor {
            Mode::Dpor {
                max_schedules: args.schedules.unwrap_or(5000),
            }
        } else {
            Mode::Dfs {
                max_schedules: args.schedules.unwrap_or(5000),
            }
        };
        let outcome = explorer.explore(&model, &mode);
        if matches!(mode, Mode::Dpor { .. }) {
            smoke::dpor_line(out, &outcome);
        }
        let expect_failure = name.starts_with("bug-");
        let ok = smoke::summarize(out, &outcome, expect_failure, args.verbose);
        return if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let base = if args.smoke { smoke::Spec::smoke() } else { smoke::Spec::full() };
    let spec = smoke::Spec {
        seed: args.seed.unwrap_or(base.seed),
        dpor: args.dpor,
        bugs_only: args.bugs_only,
        verbose: args.verbose,
        ..base
    };
    if smoke::run(&explorer, &spec, out).ok {
        println!("firefly-check: OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
