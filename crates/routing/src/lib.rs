//! Mesh routing protocols for the SourceSync reproduction (paper §7.2).
//!
//! * [`topology`] — packet-level link statistics (SNR / delivery
//!   probability) extracted from the sample-level network, plus the joint
//!   SNR-combining rule for SourceSync transmissions,
//! * [`etx`] — the ETX metric, Dijkstra shortest-ETX paths, and the ExOR
//!   forwarder priority ordering,
//! * [`singlepath`] — the traditional best-path + per-hop-ARQ baseline,
//! * [`exor`] — batch-mode ExOR with the priority scheduler, with and
//!   without SourceSync joint forwarding.
//!
//! Together these regenerate the paper's Fig. 18 comparison: single path
//! vs ExOR vs ExOR+SourceSync.

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when the only unsafe in the workspace is ssync_phy's fenced
// AVX2 tier and ssync_dsp's runtime-checked AVX2 dispatch sites (see
// DESIGN.md and ssync_lint's `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

pub mod etx;
pub mod exor;
pub mod singlepath;
pub mod topology;

pub use etx::{best_path, etx_to_destination, forwarder_priority, link_etx};
pub use exor::{run_batch, BatchRoute, ExorConfig};
pub use singlepath::{run_transfer, TransferOutcome, TransferSpec};
pub use topology::MeshTopology;
