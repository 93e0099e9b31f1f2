//! Space-time block codes for SourceSync's Smart Combiner (paper §6).
//!
//! * [`alamouti`] — the two-sender Alamouti code applied per subcarrier
//!   across pairs of OFDM symbols, plus receiver-side maximal-ratio
//!   combining,
//! * [`codebook`] — the replicated-Alamouti codebook for >2 senders with
//!   codeword assignment by forwarder ordering and decoding from **any
//!   subset** of the intended senders.
//!
//! Unlike a MIMO transmitter, SourceSync runs these codes *across
//! physically separate nodes*; the synchronization and per-sender channel
//! tracking that make that possible live in `ssync-core`.

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when all of the workspace's unsafe code sits in the fenced
// kernel tiers that `ssync_dsp::simd::tier()` dispatches: ssync_dsp's AVX2
// FFT and CFO-mixer kernels and its AVX2 and AVX-512 compiled twins, and
// ssync_phy's AVX2 and AVX-512 Viterbi kernels and AVX2 demap kernel (see
// DESIGN.md, "The SIMD layer and kernel tiers", and ssync_lint's
// `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

pub mod alamouti;
pub mod codebook;

pub use alamouti::{
    decode_pair, decode_stream, encode_pair, encode_stream, mrc, Codeword, DecodedPair,
};
pub use codebook::{codeword_for, decode_pair_multi, effective_channels};
