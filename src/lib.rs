//! # sourcesync
//!
//! A full reproduction of *SourceSync: A Distributed Wireless Architecture
//! for Exploiting Sender Diversity* (Rahul, Hassanieh, Katabi — SIGCOMM
//! 2010) as a Rust workspace, running over a sample-level software-defined
//! radio simulator instead of the paper's WiGLAN FPGA testbed.
//!
//! This facade crate re-exports every workspace crate under a stable prefix
//! so examples and downstream users need a single dependency:
//!
//! * [`dsp`] — complex numbers, FFT, correlation, fractional delay, stats
//! * [`phy`] — the 802.11-style OFDM modem
//! * [`channel`] — multipath fading, path loss, AWGN, CFO, propagation delay
//! * [`stbc`] — Alamouti and quasi-orthogonal space-time block codes
//! * [`linprog`] — simplex solver for the multi-receiver wait-time LP
//! * [`sim`] — the femtosecond-resolution discrete-event simulator
//! * [`mac`] — 802.11 DCF contention and MAC frames (with the ACK's
//!   misalignment feedback)
//! * [`core`] — SourceSync itself: Symbol-Level Synchronizer, Joint Channel
//!   Estimator, Smart Combiner, joint frame protocol
//! * [`routing`] — the ETX metric and ExOR forwarder priority
//! * [`testbed`] — the event-driven testbed: the real protocol stack
//!   (CSMA/CA, ARQ, single path, ExOR, ExOR+SourceSync joint frames) over
//!   the sample-level medium
//! * [`lasthop`] — multi-AP last-hop diversity with SampleRate
//! * [`exp`] — the parallel experiment harness behind the
//!   `ssync-lab` runner
//! * [`obs`] — deterministic observability: structured sim-time tracing,
//!   the metric registry, and the Perfetto/Chrome trace exporter
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results for every evaluation figure.

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when all of the workspace's unsafe code sits in the fenced
// kernel tiers that `ssync_dsp::simd::tier()` dispatches: ssync_dsp's AVX2
// FFT and CFO-mixer kernels and its AVX2 and AVX-512 compiled twins, and
// ssync_phy's AVX2 and AVX-512 Viterbi kernels and AVX2 demap kernel (see
// DESIGN.md, "The SIMD layer and kernel tiers", and ssync_lint's
// `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

pub use ssync_channel as channel;
pub use ssync_core as core;
pub use ssync_dsp as dsp;
pub use ssync_exp as exp;
pub use ssync_lasthop as lasthop;
pub use ssync_linprog as linprog;
pub use ssync_mac as mac;
pub use ssync_obs as obs;
pub use ssync_phy as phy;
pub use ssync_routing as routing;
pub use ssync_sim as sim;
pub use ssync_stbc as stbc;
pub use ssync_testbed as testbed;
