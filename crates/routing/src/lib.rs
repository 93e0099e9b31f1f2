//! Mesh routing metrics for the SourceSync reproduction (paper §7.2).
//!
//! * [`topology`] — packet-level link statistics (SNR / delivery
//!   probability) extracted from the sample-level network, with delivery
//!   read off `PerTable::analytic()`,
//! * [`etx`] — the ETX metric, Dijkstra shortest-ETX paths, and the ExOR
//!   forwarder priority ordering.
//!
//! The event-driven testbed (`ssync_testbed`) orders its ExOR forwarder
//! set and picks its single-path route with these; the protocols
//! themselves — and the paper's Fig. 18 comparison — run there, over the
//! waveform medium.

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when all of the workspace's unsafe code sits in the fenced
// kernel tiers that `ssync_dsp::simd::tier()` dispatches: ssync_dsp's AVX2
// FFT and CFO-mixer kernels and its AVX2 and AVX-512 compiled twins, and
// ssync_phy's AVX2 and AVX-512 Viterbi kernels and AVX2 demap kernel (see
// DESIGN.md, "The SIMD layer and kernel tiers", and ssync_lint's
// `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

pub mod etx;
pub mod topology;

pub use etx::{best_path, etx_to_destination, forwarder_priority, link_etx};
pub use topology::MeshTopology;
