//! # ssync_testbed — the event-driven protocol testbed
//!
//! The paper's headline results (§8) come from a physical testbed: real
//! nodes contending on a shared medium, joining joint frames
//! opportunistically, retransmitting on loss. This crate is that testbed
//! over the sample-level simulator: it wires five analytic crates into
//! one running system —
//!
//! * [`ssync_sim`] supplies the femtosecond [`EventQueue`](ssync_sim::EventQueue),
//!   the [`WaveformMedium`](ssync_sim::WaveformMedium) and
//!   [`FaultInjector`](ssync_sim::FaultInjector);
//! * [`ssync_mac`] supplies DCF timing and the event-driven
//!   [`DcfContender`](ssync_mac::DcfContender) contention machine;
//! * [`ssync_phy`] modulates and recovers every frame as a real OFDM
//!   waveform ([`link::Modem`]);
//! * [`ssync_routing`] orders the ExOR forwarder set and the single-path
//!   route;
//! * [`ssync_core`] drives SourceSync joint frames role by role through
//!   the staged [`JointSession`](ssync_core::JointSession);
//! * [`ssync_obs`] watches it all: [`runtime::run_transfer_observed`]
//!   fills a [`TraceRecorder`](ssync_obs::TraceRecorder) with typed,
//!   femtosecond-stamped events and a
//!   [`MetricRegistry`](ssync_obs::MetricRegistry) with run metrics, at
//!   zero protocol cost (outcomes are bit-identical with a disabled
//!   recorder).
//!
//! Modules:
//!
//! * [`link`] — MAC frames as modulated captures over the shared medium
//!   (superposition, collisions and capture effects included);
//! * [`faults`] — [`FaultInjector`](ssync_sim::FaultInjector)s wired into
//!   the protocol seams (DATA, ACK/batch-map, sync header) with typed
//!   accounting;
//! * [`runtime`] — the event loop: contention, ARQ, ExOR suppression,
//!   joint frames, batch maps, and the [`TestbedOutcome`] ledger;
//! * [`city`] — the city-scale testbed: interference-closed regions over
//!   the ranged network builder, executed in parallel on
//!   [`ssync_exp::exec::par_map`] with an analytic far-field backhaul
//!   (the hybrid-fidelity boundary).

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when all of the workspace's unsafe code sits in the fenced
// kernel tiers that `ssync_dsp::simd::tier()` dispatches: ssync_dsp's AVX2
// FFT and CFO-mixer kernels and its AVX2 and AVX-512 compiled twins, and
// ssync_phy's AVX2 and AVX-512 Viterbi kernels and AVX2 demap kernel (see
// DESIGN.md, "The SIMD layer and kernel tiers", and ssync_lint's
// `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

pub mod city;
pub mod faults;
pub mod link;
pub mod runtime;

pub use city::{run_city, run_city_observed, CityConfig, CityNetwork, CityOutcome, RegionReport};
pub use faults::{apply_classified, FaultCounters, FaultPlan, Faulted};
pub use link::{Modem, BROADCAST, CAPTURE_MARGIN};
pub use runtime::{
    packet_payload, run_transfer_observed, DelaySource, JoinStats, RoutingMode, TestbedConfig,
    TestbedOutcome, MAX_COSENDERS,
};
