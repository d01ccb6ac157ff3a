//! CLI argument parsing for the `firefly-check` binary.
//!
//! Lives in the library (not the binary) so the flag surface is unit
//! tested: every mode — `--smoke`, the `verify` subcommand, the DPOR
//! flags — goes through this one parser, and an unknown flag is always
//! an error (exit 2 in the binary), never silently ignored.

/// Parsed command line.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// `--list`: print the model registry and exit.
    pub list: bool,
    /// `--smoke`: tighter exploration caps for CI.
    pub smoke: bool,
    /// `--bugs`: only the seeded-bug half of the default run.
    pub bugs_only: bool,
    /// `--verbose`: print failing schedules in full.
    pub verbose: bool,
    /// `--dpor`: explore with partial-order reduction instead of DFS.
    pub dpor: bool,
    /// `--model NAME`: run one model instead of the full registry.
    pub model: Option<String>,
    /// `--seed N`: random mode (decimal or 0x-hex).
    pub seed: Option<u64>,
    /// `--schedules N`: schedule cap for DFS/random/DPOR.
    pub schedules: Option<usize>,
    /// `--replay LIST`: replay one schedule (`-` for the empty list).
    pub replay: Option<Vec<usize>>,
    /// `verify [ROOT]`: static analysis of the workspace at ROOT (found
    /// from the current directory when omitted), the smoke run, and the
    /// four cross-validation gates, in one process.
    pub verify: bool,
    /// The `ROOT` operand of `verify`.
    pub root: Option<String>,
    /// `--budget N`: per-schedule step budget override.
    pub budget: Option<usize>,
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Parses the argument list (without the program name). Any flag not
/// in the table above is an error.
pub fn parse<I>(argv: I) -> Result<Args, String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = Args::default();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--list" => args.list = true,
            "--smoke" => args.smoke = true,
            "--bugs" => args.bugs_only = true,
            "--verbose" => args.verbose = true,
            "--dpor" => args.dpor = true,
            "--model" => args.model = Some(value("--model")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = Some(parse_u64(&v).ok_or(format!("bad seed {v}"))?);
            }
            "--schedules" => {
                let v = value("--schedules")?;
                args.schedules = Some(v.parse().map_err(|_| format!("bad count {v}"))?);
            }
            "--budget" => {
                let v = value("--budget")?;
                args.budget = Some(v.parse().map_err(|_| format!("bad budget {v}"))?);
            }
            "verify" => args.verify = true,
            "--replay" => {
                let v = value("--replay")?;
                let decisions = if v == "-" {
                    Vec::new()
                } else {
                    v.split(',')
                        .map(|d| d.trim().parse())
                        .collect::<Result<Vec<usize>, _>>()
                        .map_err(|_| format!("bad decision list {v}"))?
                };
                args.replay = Some(decisions);
            }
            root if args.verify && args.root.is_none() && !root.starts_with('-') => {
                args.root = Some(root.to_string());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let verify_only = Args {
        verify: true,
        root: args.root.clone(),
        ..Args::default()
    };
    if args.verify && args != verify_only {
        return Err("verify takes an optional root and no flags".to_string());
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(argv: &[&str]) -> Result<Args, String> {
        parse(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn empty_argv_is_the_default_run() {
        assert_eq!(parse_strs(&[]).unwrap(), Args::default());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = parse_strs(&["--smoke", "--wat"]).unwrap_err();
        assert!(err.contains("unknown flag --wat"), "{err}");
        // A typo'd DPOR flag must not be silently ignored either.
        assert!(parse_strs(&["--dpor-schedules", "5"]).is_err());
    }

    #[test]
    fn values_and_hex_seeds_parse() {
        let args =
            parse_strs(&["--model", "pool", "--seed", "0xbeef", "--schedules", "42"]).unwrap();
        assert_eq!(args.model.as_deref(), Some("pool"));
        assert_eq!(args.seed, Some(0xbeef));
        assert_eq!(args.schedules, Some(42));
        assert_eq!(parse_strs(&["--seed", "7"]).unwrap().seed, Some(7));
    }

    #[test]
    fn missing_values_and_bad_numbers_error() {
        assert!(parse_strs(&["--model"]).is_err());
        assert!(parse_strs(&["--seed", "xyz"]).is_err());
        assert!(parse_strs(&["--schedules", "-3"]).is_err());
        assert!(parse_strs(&["--replay", "1,two"]).is_err());
    }

    #[test]
    fn replay_lists_parse_including_the_empty_marker() {
        assert_eq!(
            parse_strs(&["--replay", "0, 2,1"]).unwrap().replay,
            Some(vec![0, 2, 1])
        );
        assert_eq!(parse_strs(&["--replay", "-"]).unwrap().replay, Some(vec![]));
    }

    #[test]
    fn dpor_and_smoke_flags_combine() {
        let args = parse_strs(&["--dpor", "--smoke"]).unwrap();
        assert!(args.dpor);
        assert!(args.smoke);
    }

    #[test]
    fn verify_is_a_leading_subcommand_with_an_optional_root() {
        let args = parse_strs(&["verify"]).unwrap();
        assert!(args.verify && args.root.is_none());
        let args = parse_strs(&["verify", "/some/tree"]).unwrap();
        assert_eq!(args.root.as_deref(), Some("/some/tree"));
        assert!(parse_strs(&["verify", "a", "b"]).is_err());
        assert!(parse_strs(&["--smoke", "verify"]).is_err());
        assert!(parse_strs(&["verify", "--dpor"]).is_err());
    }
}
