//! A femtosecond-resolution discrete-event simulator with a sample-accurate
//! shared wireless medium.
//!
//! This crate replaces the paper's physical testbed plumbing:
//!
//! * [`time`] — integer femtosecond [`time::Time`]/[`time::Duration`]
//!   (every sample period and protocol interval in the reproduction is an
//!   exact integer),
//! * [`event`] — a deterministic event queue with FIFO tie-breaking,
//! * [`node`] — per-node radio hardware: placement, oscillator, and the
//!   constant-per-node RX→TX turnaround delay whose cross-node variability
//!   motivates SourceSync's synchronization machinery,
//! * [`medium`] — the ether: waveform superposition through per-pair links
//!   with propagation delay, multipath, CFO and AWGN,
//! * [`network`] — topology builders drawing reciprocal channels from
//!   seeded RNGs, including the interference-range-cut city builder and
//!   the region partitioning behind the parallel testbed,
//! * [`fault`] — packet-level fault injection for protocol tests.
//!
//! The simulator is single-threaded and deterministic by design: a network
//! plus a seed fully determines every experiment's output.

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when all of the workspace's unsafe code sits in the fenced
// kernel tiers that `ssync_dsp::simd::tier()` dispatches: ssync_dsp's AVX2
// FFT and CFO-mixer kernels and its AVX2 and AVX-512 compiled twins, and
// ssync_phy's AVX2 and AVX-512 Viterbi kernels and AVX2 demap kernel (see
// DESIGN.md, "The SIMD layer and kernel tiers", and ssync_lint's
// `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

pub mod event;
pub mod fault;
pub mod medium;
pub mod network;
pub mod node;
pub mod time;

pub use event::EventQueue;
pub use fault::FaultInjector;
pub use medium::{Transmission, WaveformMedium};
pub use network::{ChannelModels, Network};
pub use node::{NodeId, RadioNode};
pub use time::{Duration, Time};
