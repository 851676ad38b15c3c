//! Command-line options shared by every registry experiment.

use pcm_trace::{profile::ALL_APPS, SpecApp};

/// Usage string of the experiment options, printed by `pcm-lab`.
pub const USAGE: &str = "[--quick] [--seed N] [--apps astar,milc,...]";

/// Options accepted by every experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Reduced sample sizes for smoke runs.
    pub quick: bool,
    /// Campaign seed.
    pub seed: u64,
    /// Workloads to evaluate (default: all 15).
    pub apps: Vec<SpecApp>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            quick: false,
            seed: 2017,
            apps: ALL_APPS.to_vec(),
        }
    }
}

/// A rejected command line (or an explicit `--help` request).
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// `--help`/`-h` was passed; print usage and exit 0.
    Help,
    /// Anything else wrong with the arguments; print the message and the
    /// usage and exit 2.
    Invalid(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help => write!(f, "help requested"),
            CliError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

/// Resolves a workload name case-insensitively.
pub fn lookup_app(name: &str) -> Result<SpecApp, CliError> {
    ALL_APPS
        .iter()
        .copied()
        .find(|a| a.name().eq_ignore_ascii_case(name.trim()))
        .ok_or_else(|| CliError::Invalid(format!("unknown app '{name}'")))
}

impl Options {
    /// Parses `--quick`, `--seed N`, and `--apps a,b,c`.
    ///
    /// Unknown flags, missing or malformed values, and unknown app names
    /// are rejected with [`CliError::Invalid`]; `--help`/`-h` maps to
    /// [`CliError::Help`].
    pub fn parse<I>(args: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut opts = Options::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--seed" => {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError::Invalid("--seed needs a value".into()))?;
                    opts.seed = v
                        .parse()
                        .map_err(|_| CliError::Invalid("--seed needs an integer".into()))?;
                }
                "--apps" => {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError::Invalid("--apps needs a list".into()))?;
                    opts.apps = v
                        .split(',')
                        .map(lookup_app)
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "--help" | "-h" => return Err(CliError::Help),
                other => return Err(CliError::Invalid(format!("unknown flag '{other}'"))),
            }
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> + use<> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn defaults() {
        let o = Options::parse(Vec::<String>::new()).unwrap();
        assert!(!o.quick);
        assert_eq!(o.apps.len(), 15);
        assert_eq!(o.seed, 2017);
    }

    #[test]
    fn parses_flags() {
        let o = Options::parse(args(&["--quick", "--seed", "7", "--apps", "milc,gcc"])).unwrap();
        assert!(o.quick);
        assert_eq!(o.seed, 7);
        assert_eq!(o.apps, vec![SpecApp::Milc, SpecApp::Gcc]);
    }

    #[test]
    fn app_names_case_insensitive() {
        let o = Options::parse(args(&["--apps", "CACTUSadm"])).unwrap();
        assert_eq!(o.apps, vec![SpecApp::CactusADM]);
    }

    #[test]
    fn unknown_flag_is_invalid() {
        let e = Options::parse(args(&["--frobnicate"])).unwrap_err();
        assert_eq!(e, CliError::Invalid("unknown flag '--frobnicate'".into()));
    }

    #[test]
    fn missing_values_are_invalid() {
        assert!(matches!(
            Options::parse(args(&["--seed"])),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            Options::parse(args(&["--apps"])),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            Options::parse(args(&["--seed", "twelve"])),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn unknown_app_is_invalid() {
        let e = Options::parse(args(&["--apps", "milc,nosuchapp"])).unwrap_err();
        assert_eq!(e, CliError::Invalid("unknown app 'nosuchapp'".into()));
    }

    #[test]
    fn help_is_not_an_error_exit() {
        let e = Options::parse(args(&["--help"])).unwrap_err();
        assert_eq!(e, CliError::Help);
        assert_eq!(Options::parse(args(&["-h"])).unwrap_err(), CliError::Help);
    }

    #[test]
    fn later_flags_override_earlier() {
        let o = Options::parse(args(&["--seed", "1", "--seed", "2"])).unwrap();
        assert_eq!(o.seed, 2);
    }
}
