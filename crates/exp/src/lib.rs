//! # ssync_exp — parallel experiment harness
//!
//! The SourceSync evaluation (paper §7, Figs. 5–18) is reproduced by
//! scenario definitions instead of hand-rolled binaries. This crate is the
//! generic machinery those scenarios run on:
//!
//! * [`scenario::Scenario`] — a named, self-describing experiment that
//!   emits structured [`record::Record`]s into an [`record::Output`];
//! * [`seed`] — per-trial seed derivation via SplitMix64 over
//!   `base_seed ⊕ grid_index ⊕ trial`;
//! * [`exec`] — a multi-threaded trial executor behind
//!   [`scenario::Ctx::par_map`] (scoped workers pulling from a shared
//!   atomic queue) whose output is **byte-identical regardless of thread
//!   count**: results are collected by trial index, never by completion
//!   order;
//! * [`agg`] — aggregation built on `ssync_dsp::stats`: summaries,
//!   percentiles, empirical CDFs, normal-approximation and bootstrap
//!   confidence intervals;
//! * [`sink`] — pluggable renderers: TSV byte-compatible with the
//!   original figure binaries, plus a structured JSON format;
//! * [`golden`] — a golden-result regression mode comparing rendered
//!   output against checked-in expectations, with first-divergence
//!   diagnostics.
//!
//! The `ssync-lab` runner in `ssync_bench` lists and runs any scenario
//! by name with `--threads`, `--trials`, and `--format` flags.
//!
//! ## Determinism contract
//!
//! A scenario must derive all randomness from seeds that are a pure
//! function of the job (grid point, trial index) — never from worker
//! identity, wall-clock time, or completion order. Under that contract the
//! harness guarantees the rendered output of a run is a pure function of
//! `(scenario, RunConfig::trials_scale)`: thread count only changes how
//! fast the answer arrives.

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when all of the workspace's unsafe code sits in the fenced
// kernel tiers that `ssync_dsp::simd::tier()` dispatches: ssync_dsp's AVX2
// FFT and CFO-mixer kernels and its AVX2 and AVX-512 compiled twins, and
// ssync_phy's AVX2 and AVX-512 Viterbi kernels and AVX2 demap kernel (see
// DESIGN.md, "The SIMD layer and kernel tiers", and ssync_lint's
// `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

pub mod agg;
pub mod config;
pub mod exec;
pub mod golden;
pub mod record;
pub mod scenario;
pub mod seed;
pub mod sink;

pub use config::{parse_threads, parse_trials, resolve_trials, Format, RunConfig};
pub use record::{Output, Record, Value};
pub use scenario::{run_rendered, Ctx, Scenario};
pub use seed::{splitmix64, trial_seed};
