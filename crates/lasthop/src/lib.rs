//! Last-hop sender diversity (paper §7.1, Fig. 9): multiple APs transmit
//! the same downlink packet simultaneously with SourceSync.
//!
//! * [`controller`] — the wired-side controller: K-AP association, lead-AP
//!   election, static codeword ordering, packet fan-out,
//! * [`samplerate`] — SampleRate bit-rate selection (run on the lead AP,
//!   exactly as the paper modifies MadWifi),
//! * [`downlink`] — per-packet downlink sessions comparing the single
//!   best-AP baseline ("selective diversity") against SourceSync joint
//!   transmission, with uplink ACK receiver diversity.
//!
//! Together these regenerate the paper's Fig. 17 throughput CDFs.

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when all of the workspace's unsafe code sits in the fenced
// kernel tiers that `ssync_dsp::simd::tier()` dispatches: ssync_dsp's AVX2
// FFT and CFO-mixer kernels and its AVX2 and AVX-512 compiled twins, and
// ssync_phy's AVX2 and AVX-512 Viterbi kernels and AVX2 demap kernel (see
// DESIGN.md, "The SIMD layer and kernel tiers", and ssync_lint's
// `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

pub mod controller;
pub mod downlink;
pub mod samplerate;

pub use controller::{Association, Controller};
pub use downlink::{
    joint_session_downlink_with, run_session, ClientScenario, Mode, SampleLevelJoint,
    SessionOutcome, SessionSpec,
};
pub use samplerate::SampleRate;
