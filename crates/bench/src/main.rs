//! `firefly-bench <experiment> [--markdown] [...]`: the one executable
//! of this crate. Without an argument it lists the experiments; a name
//! it does not know exits 2.

#![forbid(unsafe_code)]

use firefly_bench::experiments::{find, REGISTRY};
use firefly_bench::Args;
use std::process::ExitCode;

fn listing() -> String {
    let lines = REGISTRY
        .iter()
        .map(|e| format!("  {:<20} {}\n", e.name, e.about));
    format!(
        "usage: firefly-bench <experiment> [--markdown] [...]\n{}",
        lines.collect::<String>()
    )
}

fn main() -> ExitCode {
    let mut words = std::env::args().skip(1);
    let Some(name) = words.next() else {
        print!("{}", listing());
        return ExitCode::SUCCESS;
    };
    match find(&name) {
        Some(experiment) => {
            (experiment.run)(&Args::parse(words));
            ExitCode::SUCCESS
        }
        None => {
            eprint!("firefly-bench: no experiment `{name}`\n{}", listing());
            ExitCode::from(2)
        }
    }
}
