//! Wireless channel models for the SourceSync reproduction.
//!
//! This crate replaces the paper's indoor testbed (Fig. 11): it provides
//! everything between a transmitter's DAC and a receiver's ADC —
//!
//! * [`geometry`] — node positions on a testbed-like floor plan and
//!   speed-of-light propagation delays at femtosecond resolution,
//! * [`pathloss`] — log-distance path loss with shadowing and the power
//!   budget mapping losses to operational SNRs,
//! * [`multipath`] — tapped-delay-line Rayleigh fading with an exponential
//!   power-delay profile (defaults match the paper's Fig. 14: ~15
//!   significant taps at 128 Msps),
//! * [`oscillator`] — per-node crystal offsets (±20 ppm), the source of the
//!   inter-sender rotation that the Joint Channel Estimator must track,
//! * [`link`] — the composed per-pair channel (gain ∘ multipath ∘ CFO ∘
//!   fractional delay) and receiver AWGN.
//!
//! All randomness is drawn from caller-provided seeded RNGs; a placement's
//! channels are a pure function of its seed.

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when all of the workspace's unsafe code sits in the fenced
// kernel tiers that `ssync_dsp::simd::tier()` dispatches: ssync_dsp's AVX2
// FFT and CFO-mixer kernels and its AVX2 and AVX-512 compiled twins, and
// ssync_phy's AVX2 and AVX-512 Viterbi kernels and AVX2 demap kernel (see
// DESIGN.md, "The SIMD layer and kernel tiers", and ssync_lint's
// `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

pub mod geometry;
pub mod link;
pub mod multipath;
pub mod oscillator;
pub mod pathloss;

pub use geometry::{CityPlan, FloorPlan, Position};
pub use link::{add_awgn, Link, LinkEnds, PropagationScratch};
pub use multipath::{Multipath, MultipathProfile};
pub use oscillator::Oscillator;
pub use pathloss::{PathLossModel, PowerBudget};
