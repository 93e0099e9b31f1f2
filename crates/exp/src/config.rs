//! Run configuration: trial scaling, worker count, output format.
//!
//! The environment variables honoured by every scenario runner:
//!
//! * `SSYNC_TRIALS` — global trial multiplier (default `1`); e.g.
//!   `SSYNC_TRIALS=4` runs 4× the default sample counts.
//! * `SSYNC_THREADS` — worker count (default `0` = one per available
//!   core). Output never depends on this value, only wall-clock time does.
//!
//! Both are parsed by pure helpers ([`parse_trials`], [`parse_threads`])
//! so tests never have to mutate process-global environment state (doing
//! so races with other tests under the parallel test runner).

/// Output serialization format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Tab-separated values, byte-compatible with the original figure
    /// binaries (comment lines start with `#`).
    #[default]
    Tsv,
    /// Structured JSON: comments and column-labelled row tables.
    Json,
}

impl Format {
    /// Parses `"tsv"` / `"json"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Format> {
        match s.to_ascii_lowercase().as_str() {
            "tsv" => Some(Format::Tsv),
            "json" => Some(Format::Json),
            _ => None,
        }
    }
}

/// Interprets an `SSYNC_TRIALS`-style value: a positive integer multiplier,
/// defaulting to 1 for unset, unparsable, or non-positive input.
///
/// ```
/// use ssync_exp::parse_trials;
/// assert_eq!(parse_trials(None), 1);
/// assert_eq!(parse_trials(Some("4")), 4);
/// assert_eq!(parse_trials(Some("0")), 1);
/// assert_eq!(parse_trials(Some("banana")), 1);
/// ```
pub fn parse_trials(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.parse().ok())
        .filter(|v| *v >= 1)
        .unwrap_or(1)
}

/// Interprets an `SSYNC_THREADS`-style value: a worker count, where `0`
/// (and unset/unparsable input) means "one worker per available core".
pub fn parse_threads(value: Option<&str>) -> usize {
    value.and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Resolves the effective trial multiplier from a `--trials` flag and the
/// `SSYNC_TRIALS` environment value, enforcing the precedence contract:
///
/// **The command line wins.** When `cli` is present it must be a positive
/// integer — anything else is a hard error (a typed flag deserves a loud
/// failure, and silently falling back to the environment would run a
/// trial count nobody asked for). Only when no flag was given does the
/// forgiving [`parse_trials`] reading of the environment apply.
///
/// `ssync-lab run` resolves its trial count through this function.
pub fn resolve_trials(cli: Option<&str>, env: Option<&str>) -> Result<usize, String> {
    match cli {
        Some(flag) => match flag.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!(
                "--trials {flag}: expected a positive integer (the flag overrides \
                 SSYNC_TRIALS, so it is never silently ignored)"
            )),
        },
        None => Ok(parse_trials(env)),
    }
}

/// Everything a scenario run needs besides the scenario itself.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker count; `0` means one per available core.
    pub threads: usize,
    /// Global multiplier applied to every scenario's default trial counts.
    pub trials_scale: usize,
    /// Output serialization format.
    pub format: Format,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 0,
            trials_scale: 1,
            format: Format::Tsv,
        }
    }
}

impl RunConfig {
    /// Reads `SSYNC_TRIALS` and `SSYNC_THREADS` from the process
    /// environment; format defaults to TSV.
    pub fn from_env() -> Self {
        RunConfig {
            threads: parse_threads(std::env::var("SSYNC_THREADS").ok().as_deref()),
            trials_scale: parse_trials(std::env::var("SSYNC_TRIALS").ok().as_deref()),
            format: Format::Tsv,
        }
    }

    /// The concrete worker count: `threads`, or the number of available
    /// cores when `threads == 0`.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_trials_is_pure_and_total() {
        assert_eq!(parse_trials(None), 1);
        assert_eq!(parse_trials(Some("")), 1);
        assert_eq!(parse_trials(Some("not a number")), 1);
        assert_eq!(parse_trials(Some("0")), 1);
        assert_eq!(parse_trials(Some("-3")), 1);
        assert_eq!(parse_trials(Some("1")), 1);
        assert_eq!(parse_trials(Some("16")), 16);
    }

    #[test]
    fn resolve_trials_cli_beats_env() {
        // Flag present: it wins regardless of the environment.
        assert_eq!(resolve_trials(Some("4"), Some("9")), Ok(4));
        assert_eq!(resolve_trials(Some("1"), None), Ok(1));
        // No flag: the forgiving environment reading applies.
        assert_eq!(resolve_trials(None, Some("9")), Ok(9));
        assert_eq!(resolve_trials(None, Some("junk")), Ok(1));
        assert_eq!(resolve_trials(None, None), Ok(1));
    }

    #[test]
    fn resolve_trials_rejects_bad_flags_loudly() {
        // A typed flag must never fall back to the environment.
        for bad in ["0", "-2", "many", ""] {
            let err = resolve_trials(Some(bad), Some("9")).unwrap_err();
            assert!(err.contains("positive integer"), "flag {bad:?}: {err}");
        }
    }

    #[test]
    fn parse_threads_zero_means_auto() {
        assert_eq!(parse_threads(None), 0);
        assert_eq!(parse_threads(Some("0")), 0);
        assert_eq!(parse_threads(Some("8")), 8);
        assert_eq!(parse_threads(Some("junk")), 0);
    }

    #[test]
    fn effective_threads_resolves_auto() {
        let cfg = RunConfig {
            threads: 0,
            ..Default::default()
        };
        assert!(cfg.effective_threads() >= 1);
        let cfg = RunConfig {
            threads: 3,
            ..Default::default()
        };
        assert_eq!(cfg.effective_threads(), 3);
    }

    #[test]
    fn format_parse() {
        assert_eq!(Format::parse("tsv"), Some(Format::Tsv));
        assert_eq!(Format::parse("JSON"), Some(Format::Json));
        assert_eq!(Format::parse("csv"), None);
    }
}
