//! An 802.11-style MAC with SourceSync's joint-frame extensions.
//!
//! SourceSync deliberately leaves medium access almost untouched (paper
//! §3): the lead sender contends exactly as in 802.11 DCF, and co-senders
//! join its transmission rather than contending themselves. Accordingly
//! this crate provides:
//!
//! * [`frames`] — typed MAC frames, including the ACK field carrying the
//!   §4.5 misalignment feedback,
//! * [`dcf`] — DCF timing (DIFS/SIFS/slots), binary-exponential backoff,
//!   and the per-station contention state machine (DIFS + backoff
//!   scheduling, countdown freeze, retry accounting, ACK deadlines) that
//!   an event-queue-driven testbed schedules on the femtosecond timeline.

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when all of the workspace's unsafe code sits in the fenced
// kernel tiers that `ssync_dsp::simd::tier()` dispatches: ssync_dsp's AVX2
// FFT and CFO-mixer kernels and its AVX2 and AVX-512 compiled twins, and
// ssync_phy's AVX2 and AVX-512 Viterbi kernels and AVX2 demap kernel (see
// DESIGN.md, "The SIMD layer and kernel tiers", and ssync_lint's
// `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

pub mod dcf;
pub mod frames;

pub use dcf::{ack_schedule, AckSchedule, Backoff, DcfContender, DcfTiming, RETRY_LIMIT};
pub use frames::{AckFrame, DataFrame, MacFrame};
