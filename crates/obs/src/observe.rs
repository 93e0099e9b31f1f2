//! The bridge between observability and the experiment harness.
//!
//! [`Obs`] is the run-level collection point: scenarios hand each trial a
//! fresh per-trial [`TraceRecorder`] / [`MetricRegistry`] (safe to fill
//! inside `par_map` workers) and fold the results back in trial-index
//! order. [`Observable`] marks scenarios that can run with an `Obs`
//! attached; [`run_observed_rendered`] is the `ssync-lab --trace /
//! --metrics` entry point, mirroring [`ssync_exp::scenario::run_rendered`].
//!
//! The central invariant: running a scenario observed produces exactly
//! the bytes `run_rendered` produces, plus artifacts. Observation reads
//! protocol outcomes; it never consumes RNG, never branches control
//! flow, and a disabled `Obs` hands out disabled recorders whose `emit`
//! is a single branch.

use ssync_exp::config::{Format, RunConfig};
use ssync_exp::record::Output;
use ssync_exp::scenario::{Ctx, Scenario};

use crate::metrics::MetricRegistry;
use crate::trace::{TraceRecorder, TraceSet};

/// Run-level observability state: a labelled set of per-trial traces and
/// a folded metric registry.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    enabled: bool,
    traces: TraceSet,
    metrics: MetricRegistry,
}

impl Obs {
    /// An inert `Obs`: recorders it hands out drop everything, tracks and
    /// metric merges are discarded. This is what `Scenario::run` passes
    /// so the unobserved path stays allocation- and work-free.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// A collecting `Obs`.
    pub fn enabled() -> Self {
        Obs {
            enabled: true,
            ..Obs::default()
        }
    }

    /// Whether artifacts are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh per-trial recorder matching this `Obs`'s enablement. Hand
    /// one to each trial worker; return it with the trial's outcome.
    pub fn trial_recorder(&self) -> TraceRecorder {
        if self.enabled {
            TraceRecorder::enabled()
        } else {
            TraceRecorder::disabled()
        }
    }

    /// A fresh per-trial metric registry. (Registries are always
    /// functional — handles are one relaxed atomic op — but a disabled
    /// `Obs` discards them at merge time.)
    pub fn trial_registry(&self) -> MetricRegistry {
        MetricRegistry::new()
    }

    /// Adopts one trial's filled recorder as a named track. Call in
    /// trial-index order. No-op when disabled.
    pub fn add_track(&mut self, label: impl Into<String>, recorder: TraceRecorder) {
        if self.enabled {
            self.traces.push(label, recorder);
        }
    }

    /// Folds one trial's registry into the run-level registry. Call in
    /// trial-index order. No-op when disabled.
    pub fn merge_metrics(&mut self, registry: &MetricRegistry) {
        if self.enabled {
            self.metrics.merge(registry);
        }
    }

    /// The collected trace tracks.
    pub fn traces(&self) -> &TraceSet {
        &self.traces
    }

    /// The folded run-level metrics.
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// Renders the collected traces as Chrome trace-event JSON.
    pub fn chrome_trace_json(&self) -> String {
        crate::chrome::chrome_trace_json(&self.traces)
    }

    /// Renders the folded metrics through the shared sink IR.
    pub fn metrics_snapshot(&self) -> Output {
        self.metrics.snapshot()
    }
}

/// A scenario that can run with observability attached.
///
/// Implementations keep one body, in `run_observed`, and
/// `Scenario::run` calls it with [`Obs::disabled`], so the observed and
/// unobserved outputs cannot drift apart.
pub trait Observable: Scenario {
    /// Runs the experiment, appending records to `out` and artifacts to
    /// `obs`. With a disabled `obs` this must produce byte-identical
    /// records to [`Scenario::run`].
    fn run_observed(&self, ctx: &Ctx, out: &mut Output, obs: &mut Obs);
}

/// Runs an observable scenario under `cfg` with collection enabled.
/// Returns the rendered normal output (same bytes as
/// [`ssync_exp::scenario::run_rendered`]) plus the filled [`Obs`].
pub fn run_observed_rendered(scenario: &dyn Observable, cfg: &RunConfig) -> (String, Obs) {
    let ctx = Ctx::new(cfg.clone());
    let mut out = Output::new();
    let mut obs = Obs::enabled();
    scenario.run_observed(&ctx, &mut out, &mut obs);
    let rendered = match cfg.format {
        Format::Tsv => ssync_exp::sink::render_tsv(&out),
        Format::Json => ssync_exp::sink::render_json(scenario.name(), &out),
    };
    (rendered, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEventKind;
    use crate::metrics::Scope;
    use ssync_exp::record::Value;
    use ssync_exp::scenario::run_rendered;

    /// A toy observable scenario exercising the whole per-trial fold.
    struct Toy;

    impl Scenario for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn title(&self) -> &'static str {
            "toy observable"
        }
        fn paper_ref(&self) -> &'static str {
            ""
        }
        fn run(&self, ctx: &Ctx, out: &mut Output) {
            self.run_observed(ctx, out, &mut Obs::disabled());
        }
    }

    impl Observable for Toy {
        fn run_observed(&self, ctx: &Ctx, out: &mut Output, obs: &mut Obs) {
            let results = ctx.par_map(3, |i| {
                let mut rec = obs.trial_recorder();
                let mut reg = obs.trial_registry();
                reg.counter("trials", Scope::Global).inc();
                rec.emit(
                    (i as u64 + 1) * 100,
                    i as u32,
                    TraceEventKind::PacketAbandoned { seq: i as u16 },
                );
                (i * 2, rec, reg)
            });
            out.columns(&["i", "double"]);
            for (i, (d, rec, reg)) in results.into_iter().enumerate() {
                obs.add_track(format!("trial{i}"), rec);
                obs.merge_metrics(&reg);
                out.row(vec![Value::Int(i as i64), Value::Int(d as i64)]);
            }
        }
    }

    #[test]
    fn observed_output_matches_unobserved() {
        let cfg = RunConfig::default();
        let (rendered, obs) = run_observed_rendered(&Toy, &cfg);
        assert_eq!(rendered, run_rendered(&Toy, &cfg));
        assert_eq!(obs.traces().tracks().len(), 3);
        assert_eq!(
            obs.metrics().counter_value("trials", Scope::Global),
            Some(3)
        );
    }

    #[test]
    fn observed_artifacts_are_thread_count_invariant() {
        let run = |threads| {
            run_observed_rendered(
                &Toy,
                &RunConfig {
                    threads,
                    ..Default::default()
                },
            )
        };
        let (out1, obs1) = run(1);
        let (out8, obs8) = run(8);
        assert_eq!(out1, out8);
        assert_eq!(obs1.chrome_trace_json(), obs8.chrome_trace_json());
        assert_eq!(
            ssync_exp::sink::render_tsv(&obs1.metrics_snapshot()),
            ssync_exp::sink::render_tsv(&obs8.metrics_snapshot())
        );
    }

    #[test]
    fn disabled_obs_collects_nothing() {
        let ctx = Ctx::new(RunConfig::default());
        let mut out = Output::new();
        let mut obs = Obs::disabled();
        Toy.run_observed(&ctx, &mut out, &mut obs);
        assert!(obs.traces().is_empty());
        assert!(obs.metrics().is_empty());
        assert!(!obs.is_enabled());
    }
}
