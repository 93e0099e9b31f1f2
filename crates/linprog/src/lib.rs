//! A small dense LP solver and SourceSync's multi-receiver wait-time
//! optimisation (paper §4.6).
//!
//! * [`simplex`] — two-phase tableau simplex with Bland's rule, for
//!   `min cᵀx, A·x ≤ b, x ≥ 0`,
//! * [`minimax`] — the min-max |misalignment| formulation over co-sender
//!   wait times, whose optimum also yields the cyclic-prefix extension the
//!   lead sender advertises in the synchronization header.
//!
//! The problems are tiny (≤ 5 senders and receivers in the paper), so
//! clarity wins over sparse-matrix sophistication.

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when all of the workspace's unsafe code sits in the fenced
// kernel tiers that `ssync_dsp::simd::tier()` dispatches: ssync_dsp's AVX2
// FFT and CFO-mixer kernels and its AVX2 and AVX-512 compiled twins, and
// ssync_phy's AVX2 and AVX-512 Viterbi kernels and AVX2 demap kernel (see
// DESIGN.md, "The SIMD layer and kernel tiers", and ssync_lint's
// `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

pub mod minimax;
pub mod simplex;

pub use minimax::{MisalignmentProblem, WaitSolution};
pub use simplex::{LinearProgram, LpOutcome};
