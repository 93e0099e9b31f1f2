//! # ssync_obs — deterministic observability for the SourceSync stack
//!
//! The repo's contract is byte-identical determinism: every scenario
//! renders the same bytes at any thread count and across simd/scalar
//! builds. This crate extends that contract to *observability*: what the
//! stack records about itself while running is clocked by simulation time
//! and event order — never wall-clock — so traces and metric snapshots
//! are themselves regression surfaces, finer-grained than the golden
//! scenario outputs they ride alongside.
//!
//! Three layers:
//!
//! * [`trace`] — a structured trace recorder. Typed [`trace::TraceEvent`]s
//!   (frame tx/rx, DCF backoff and deferral, ARQ retries, ExOR forwards,
//!   join-stage outcomes, decode diagnostics) stamped with femtosecond sim
//!   time and a deterministic sequence number, buffered per node and
//!   merged in event-queue order. A disabled recorder costs one branch per
//!   emission site — nothing is allocated, formatted, or cloned.
//! * [`metrics`] — a metric registry: counters, gauges, and histograms
//!   (built on [`ssync_dsp::stats`]) with global, per-node, and per-link
//!   scoping, a deterministic snapshot API, and order-preserving merge so
//!   per-trial registries fold together byte-identically at any thread
//!   count.
//! * exporters — a metric snapshot is an [`ssync_exp::record::Output`],
//!   so it renders through the same [`ssync_exp::sink`] machinery the
//!   scenario outputs use (TSV and JSON), and [`chrome`] renders a whole
//!   [`trace::TraceSet`] as Chrome trace-event JSON, so a testbed run
//!   opens in Perfetto as a per-node timeline.
//!
//! The [`observe::Observable`] trait is the bridge to the experiment
//! harness: a scenario that implements it can be run by `ssync-lab` with
//! `--trace <path>` / `--metrics <path>`, producing its normal rendered
//! output *plus* the trace and metric artifacts — with the normal output
//! guaranteed unchanged (tracing reads protocol outcomes; it never
//! consumes RNG or alters control flow).
//!
//! ## Determinism rules
//!
//! 1. Events are stamped with femtosecond sim time (`t_fs`) and a
//!    per-recorder sequence number assigned in emission order. The merge
//!    order is `(t_fs, seq)` — stable, total, and independent of host
//!    threading because each recorder is filled by exactly one engine.
//! 2. Parallel trials each fill their own recorder/registry; the scenario
//!    folds them into the run-level [`observe::Obs`] in trial-index order.
//! 3. Exported floats use fixed-precision rendering (the same
//!    [`ssync_exp::record::Value`] rules as the golden TSVs), and
//!    timestamps are rendered by exact integer arithmetic — no float
//!    formatting ambiguity anywhere in a trace file.

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when all of the workspace's unsafe code sits in the fenced
// kernel tiers that `ssync_dsp::simd::tier()` dispatches: ssync_dsp's AVX2
// FFT and CFO-mixer kernels and its AVX2 and AVX-512 compiled twins, and
// ssync_phy's AVX2 and AVX-512 Viterbi kernels and AVX2 demap kernel (see
// DESIGN.md, "The SIMD layer and kernel tiers", and ssync_lint's
// `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod observe;
pub mod trace;

pub use chrome::chrome_trace_json;
pub use event::{FrameClass, JoinFailureClass, JoinResult, RxDiagSummary, TraceEventKind};
pub use metrics::{Counter, Gauge, Histogram, MetricRegistry, Scope};
pub use observe::{run_observed_rendered, Obs, Observable};
pub use trace::{TraceEvent, TraceRecorder, TraceSet};
