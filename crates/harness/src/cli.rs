//! The shared campaign-binary command line.
//!
//! Every campaign binary (`wdog-chaos`, `wdog-recovery`, `wdog-lint`,
//! `wdog-infer`, `table1`, `table2`, `reduction`, `zk2201`, `ablations`)
//! needs the same
//! `--flag value` / `--flag=value` loop, the same `--target` resolution,
//! and the same exit-code conventions. [`CampaignCli`] is that loop named
//! once: a binary declares every flag it reads, parses, and reads typed
//! values — an undeclared flag, like any malformed input, exits
//! [`EXIT_USAGE`], failed campaign gates exit [`EXIT_GATE`], clean runs
//! exit 0.
//!
//! Three flags have shared readers, for the binaries that declare them:
//!
//! - `--target NAME` — which registered target(s) to run
//!   ([`CampaignCli::targets`]);
//! - `--seed N` — the campaign RNG seed ([`CampaignCli::seed`],
//!   default 42);
//! - `--out DIR` — the artifact root ([`CampaignCli::out_dir`], default
//!   `results`).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::str::FromStr;

use wdog_target::WatchdogTarget;

/// Exit code for malformed command lines (unknown flag, bad value,
/// unknown target).
pub const EXIT_USAGE: i32 = 2;

/// Exit code for a campaign that ran but failed one of its built-in checks
/// (shape, schema, wall budget, replay parity, lint findings). Regressions
/// against the archive are caught by comparing artifacts, not by flags.
pub const EXIT_GATE: i32 = 1;

/// A parsed campaign command line.
#[derive(Debug, Clone)]
pub struct CampaignCli {
    bin: &'static str,
    usage: &'static str,
    values: BTreeMap<String, String>,
}

impl CampaignCli {
    /// Parses the process arguments against the declared flags, exiting
    /// [`EXIT_USAGE`] with the usage text on any malformed input.
    ///
    /// `value_flags` are every flag the binary reads; each takes one
    /// argument (`--flag v` or `--flag=v`).
    pub fn parse(bin: &'static str, usage: &'static str, value_flags: &[&'static str]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse_from(bin, usage, value_flags, &args) {
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("{bin}: {e}");
                eprintln!("usage: {bin} {usage}");
                std::process::exit(EXIT_USAGE);
            }
        }
    }

    /// The exit-free core of [`CampaignCli::parse`], for tests.
    pub fn parse_from(
        bin: &'static str,
        usage: &'static str,
        value_flags: &[&'static str],
        args: &[String],
    ) -> Result<Self, String> {
        let takes_value = |flag: &str| value_flags.contains(&flag);
        let mut values = BTreeMap::new();
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            if let Some((flag, inline)) = arg.split_once('=') {
                if takes_value(flag) {
                    values.insert(flag.to_owned(), inline.to_owned());
                    i += 1;
                    continue;
                }
                return Err(format!("unknown flag {flag:?}"));
            }
            if takes_value(arg) {
                let Some(v) = args.get(i + 1) else {
                    return Err(format!("{arg} needs a value"));
                };
                values.insert(arg.to_owned(), v.clone());
                i += 2;
                continue;
            }
            return Err(format!("unknown flag {arg:?}"));
        }
        Ok(Self { bin, usage, values })
    }

    /// Prints the usage text plus `msg` and exits [`EXIT_USAGE`].
    pub fn usage_error(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.bin);
        eprintln!("usage: {} {}", self.bin, self.usage);
        std::process::exit(EXIT_USAGE);
    }

    /// The raw value of a flag, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// A flag parsed to `T`, or `default` when absent; malformed values
    /// exit usage.
    pub fn parsed<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.parsed_opt(flag).unwrap_or(default)
    }

    /// A flag parsed to `T`, `None` when absent; malformed values exit
    /// usage.
    pub fn parsed_opt<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.usage_error(&format!("bad value {v:?} for {flag}")))
        })
    }

    /// The `--target` name, defaulting per binary (`all` for lint, `kvs`
    /// for campaigns).
    pub fn target(&self, default: &str) -> String {
        self.value("--target").unwrap_or(default).to_owned()
    }

    /// The `--target` flag resolved to campaign targets; unknown names
    /// exit usage.
    pub fn targets(&self, default: &str) -> Vec<Box<dyn WatchdogTarget>> {
        let name = self.target(default);
        crate::select_targets(&name).unwrap_or_else(|| {
            self.usage_error(&format!(
                "unknown target {name:?}; expected kvs, minizk, miniblock, or all"
            ))
        })
    }

    /// The `--seed` flag (default 42).
    pub fn seed(&self) -> u64 {
        self.parsed("--seed", 42)
    }

    /// The artifact root: `--out` or `results`.
    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.value("--out").unwrap_or("results"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    fn parse(a: &[&str]) -> Result<CampaignCli, String> {
        CampaignCli::parse_from(
            "t",
            "usage",
            &["--target", "--seed", "--out", "--rates"],
            &args(a),
        )
    }

    #[test]
    fn parses_both_value_styles() {
        let cli = parse(&["--target", "minizk", "--seed=7", "--rates", "10"]).unwrap();
        assert_eq!(cli.target("kvs"), "minizk");
        assert_eq!(cli.seed(), 7);
        assert_eq!(cli.parsed("--rates", 0u64), 10);
    }

    #[test]
    fn defaults_apply_when_flags_absent() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.target("kvs"), "kvs");
        assert_eq!(cli.seed(), 42);
        assert_eq!(cli.out_dir(), PathBuf::from("results"));
        assert_eq!(cli.parsed_opt::<u64>("--rates"), None);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--bogus=1"]).is_err());
        assert!(parse(&["--rates"]).is_err());
        assert!(parse(&["positional"]).is_err());
    }

    #[test]
    fn a_binary_rejects_a_flag_it_does_not_declare() {
        let out_only = |a: &[&str]| CampaignCli::parse_from("t", "usage", &["--out"], &args(a));
        assert!(out_only(&["--seed", "7"]).is_err());
        assert!(out_only(&["--seed=7"]).is_err());
        assert!(out_only(&["--target", "kvs"]).is_err());
        assert!(out_only(&["--out", "x"]).is_ok());
    }

    #[test]
    fn out_dir_overrides() {
        let cli = parse(&["--out", "/tmp/x"]).unwrap();
        assert_eq!(cli.out_dir(), PathBuf::from("/tmp/x"));
    }
}
