//! DSP substrate for the SourceSync reproduction.
//!
//! This crate provides the numeric foundation every other crate builds on:
//!
//! * [`Complex64`] — complex baseband samples (implemented from scratch so the
//!   entire signal path is auditable without external numeric crates),
//! * [`fft`] — an iterative radix-2 FFT/IFFT with a twiddle-caching planner
//!   (and, for sizes 4–128 on AVX2 hosts, an intrinsics path with the same
//!   bits),
//! * [`correlate`] — sliding cross-/auto-correlation used by packet detection,
//! * [`delay`] — integer and fractional (windowed-sinc) sample delays, the
//!   mechanism by which the simulator realises femtosecond-resolution
//!   propagation delays on a sampled waveform,
//! * [`stats`] — percentiles, dB conversions, EVM→SNR, empirical CDFs,
//! * [`rng`] — deterministic Gaussian / complex-Gaussian sampling (Box-Muller
//!   over `rand`, so experiments are reproducible from a `u64` seed) and
//!   the counter-based receiver-noise kernel, keyed per capture,
//! * [`simd`] — portable 4-lane f64/complex vectors backing the hot inner
//!   loops, and [`simd::tier`], the one probe every kernel dispatches on:
//!   the `simd` cargo feature (default on) selects the lane kernels (and,
//!   on x86-64 hosts with AVX2 or AVX-512, their compiled twins),
//!   `--no-default-features` the bit-identical scalar fallbacks.
//!
//! Everything is pure, allocation-conscious, and deterministic; there is no
//! interior mutability and no global state.

// Unsafe is denied crate-wide. The exceptions are the runtime-checked
// kernel tiers, all dispatched on `simd::tier()`, the one probe of the
// build and the CPU. `delay::convolve_gather`, `rng::add_keyed_noise` and
// `correlate::normalized_cross_correlate_into` call a twin of their
// portable body compiled with `#[target_feature(enable = "avx2")]` when
// the tier is `Avx2`, or with
// `#[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]` when it
// is `Avx512`; the twins write no intrinsics, so the bits are the portable
// body's. `FftPlan` and `mixer::apply_cfo_from` dispatch to their AVX2
// intrinsics kernels, `fft::FftPlan::transform_avx2` and
// `mixer::mix_blocks_avx2`, on either x86 tier; their raw-pointer loads
// and stores each carry their bounds argument. Every such site carries
// `#[allow(unsafe_code)]` and a `// SAFETY:` comment (see DESIGN.md, "The
// SIMD layer and kernel tiers", and ssync_lint's `undocumented-unsafe` and
// `fma-contraction` rules).
#![deny(unsafe_code)]

pub mod complex;
pub mod correlate;
pub mod delay;
pub mod fft;
pub mod mixer;
pub mod rng;
pub mod simd;
pub mod stats;

pub use complex::Complex64;
pub use fft::FftPlan;
