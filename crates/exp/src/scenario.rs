//! The scenario abstraction and run entry points.
//!
//! A scenario is a named, self-describing experiment: it receives a
//! [`Ctx`] (thread budget + trial scaling) and emits structured records
//! into an [`Output`]. Everything else — the `ssync-lab` runner, golden
//! tests, determinism tests — goes through
//! [`run_rendered`], so there is exactly one code path from a scenario
//! definition to bytes.

use crate::config::{Format, RunConfig};
use crate::record::{Output, Value};

/// A named experiment producing structured output.
///
/// Implementations must draw all randomness from seeds that are pure
/// functions of (scenario, trial indices) — see the crate-level
/// determinism contract.
pub trait Scenario: Sync {
    /// Stable scenario name (`fig12_sync_error`, …): the CLI handle and
    /// the golden-file key.
    fn name(&self) -> &'static str;

    /// One-line description for `ssync-lab list`.
    fn title(&self) -> &'static str;

    /// The paper artefact this reproduces (`"Fig. 12"`, `"§4.4 table"`).
    fn paper_ref(&self) -> &'static str;

    /// Runs the experiment, appending records to `out`.
    fn run(&self, ctx: &Ctx, out: &mut Output);
}

/// Per-run context handed to scenarios: thread budget and trial scaling.
#[derive(Debug, Clone)]
pub struct Ctx {
    cfg: RunConfig,
}

impl Ctx {
    /// Wraps a run configuration.
    pub fn new(cfg: RunConfig) -> Self {
        Ctx { cfg }
    }

    /// The underlying configuration.
    pub fn cfg(&self) -> &RunConfig {
        &self.cfg
    }

    /// Resolved worker count (never 0).
    pub fn threads(&self) -> usize {
        self.cfg.effective_threads()
    }

    /// A scenario's default trial count scaled by the global multiplier
    /// (the `SSYNC_TRIALS` contract of the legacy binaries).
    pub fn trials(&self, base: usize) -> usize {
        base * self.cfg.trials_scale
    }

    /// Runs `n` independent jobs on the configured worker count,
    /// returning results in job-index order (see [`crate::exec::par_map`]).
    pub fn par_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        crate::exec::par_map(self.threads(), n, f)
    }
}

/// Emits an empirical CDF block in the legacy `print_cdf` format:
/// a `# CDF: label (n samples)` comment followed by bare
/// `value<TAB>fraction` rows (6 and 4 decimals).
pub fn emit_cdf(out: &mut Output, label: &str, values: &[f64]) {
    out.comment(format!("CDF: {label} ({} samples)", values.len()));
    out.columns_hidden(&["value", "fraction"]);
    for (v, f) in crate::agg::empirical_cdf(values) {
        out.row(vec![Value::F(v, 6), Value::F(f, 4)]);
    }
}

/// Runs a scenario under `cfg` and renders it in `cfg.format`.
pub fn run_rendered(scenario: &dyn Scenario, cfg: &RunConfig) -> String {
    let ctx = Ctx::new(cfg.clone());
    let mut out = Output::new();
    scenario.run(&ctx, &mut out);
    match cfg.format {
        Format::Tsv => crate::sink::render_tsv(&out),
        Format::Json => crate::sink::render_json(scenario.name(), &out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;
    impl Scenario for Doubler {
        fn name(&self) -> &'static str {
            "doubler"
        }
        fn title(&self) -> &'static str {
            "doubles job indices"
        }
        fn paper_ref(&self) -> &'static str {
            ""
        }
        fn run(&self, ctx: &Ctx, out: &mut Output) {
            out.columns(&["i", "double"]);
            for (i, d) in ctx.par_map(5, |i| i * 2).into_iter().enumerate() {
                out.row(vec![Value::Int(i as i64), Value::Int(d as i64)]);
            }
        }
    }

    #[test]
    fn run_rendered_is_thread_count_invariant() {
        let render = |threads| {
            run_rendered(
                &Doubler,
                &RunConfig {
                    threads,
                    ..Default::default()
                },
            )
        };
        let serial = render(1);
        assert!(serial.starts_with("# i\tdouble\n0\t0\n"));
        assert_eq!(serial, render(2));
        assert_eq!(serial, render(8));
    }

    #[test]
    fn trials_applies_global_scale() {
        let ctx = Ctx::new(RunConfig {
            trials_scale: 3,
            ..Default::default()
        });
        assert_eq!(ctx.trials(20), 60);
    }

    #[test]
    fn cdf_block_matches_legacy_format() {
        let mut out = Output::new();
        emit_cdf(&mut out, "demo", &[2.0, 1.0]);
        assert_eq!(
            crate::sink::render_tsv(&out),
            "# CDF: demo (2 samples)\n1.000000\t0.5000\n2.000000\t1.0000\n"
        );
    }
}
