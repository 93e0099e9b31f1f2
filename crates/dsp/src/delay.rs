//! Integer and fractional sample delays.
//!
//! Propagation delays in the simulator are kept in femtoseconds, which rarely
//! falls on a sample boundary (a 128 Msps sample is 7 812 500 fs). When a
//! waveform is placed on the medium, its sub-sample delay component is
//! realised by a windowed-sinc fractional-delay filter — an all-pass
//! interpolation that is exactly the physics of a band-limited signal
//! arriving "between" receiver sampling instants. SourceSync's
//! detection-delay estimator (paper §4.2) recovers precisely this fractional
//! shift from the channel phase slope, so the fidelity of this module is what
//! makes the Fig. 12 sync-error experiment meaningful.
//!
//! The interpolation and the channel's multipath taps run through one
//! gather convolution, [`convolve_gather`]: each output summed from zero
//! over ascending input, in blocks of independent accumulators whose width
//! is fixed per tap type and kernel tier ([`GatherTap`]) by measurement.

use crate::complex::Complex64;
use crate::simd::{tier, Tier};
use std::f64::consts::PI;
use std::ops::Mul;

/// Half-width (in taps) of the windowed-sinc interpolation kernel.
/// 16 taps each side gives ≈ −90 dB interpolation error for in-band signals.
pub const SINC_HALF_WIDTH: usize = 16;

/// Delays a waveform by a non-negative integer number of samples, prepending
/// zeros (output length grows by `shift`). `out` is cleared and refilled, so
/// its capacity is reused across calls (no steady-state allocation once it
/// has grown to the working size).
pub fn integer_delay_into(signal: &[Complex64], shift: usize, out: &mut Vec<Complex64>) {
    out.clear();
    out.resize(shift, Complex64::ZERO);
    out.extend_from_slice(signal);
}

/// Normalised sinc: `sin(πx)/(πx)` with `sinc(0) = 1`.
#[inline]
pub fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        (PI * x).sin() / (PI * x)
    }
}

/// Blackman window of length `n` evaluated at index `i`.
#[inline]
fn blackman(i: usize, n: usize) -> f64 {
    if n <= 1 {
        return 1.0;
    }
    let x = i as f64 / (n - 1) as f64;
    0.42 - 0.5 * (2.0 * PI * x).cos() + 0.08 * (4.0 * PI * x).cos()
}

/// Number of taps in the windowed-sinc interpolation kernel.
const TAPS: usize = 2 * SINC_HALF_WIDTH;

/// The windowed-sinc kernel for a fractional delay `mu` in `[0, 1)`.
///
/// The kernel has `2·SINC_HALF_WIDTH` taps; convolving with it delays the
/// signal by `SINC_HALF_WIDTH - 1 + mu` samples total (the integer part is a
/// filter-latency constant the caller compensates).
pub fn fractional_kernel(mu: f64) -> Vec<f64> {
    let mut ws = DelayWorkspace::new();
    ws.load_kernel(mu);
    ws.kernel.to_vec()
}

/// Delays a waveform by an arbitrary non-negative real number of samples.
///
/// The integer part is realised by zero-prefixing; the fractional part by
/// windowed-sinc interpolation. For an integer `delay` the returned waveform
/// is exactly `delay` samples longer than the input; otherwise it is
/// `ceil(delay) + SINC_HALF_WIDTH − 1` samples longer (the kernel's
/// `SINC_HALF_WIDTH` taps of spill past the last input sample, plus the
/// integer shift). Either way sample `i` of the *input* appears
/// (band-limited-interpolated) at output index `i + delay` exactly, so
/// callers can reason in input coordinates.
pub fn fractional_delay(signal: &[Complex64], delay: f64) -> Vec<Complex64> {
    let mut ws = DelayWorkspace::new();
    let mut out = Vec::new();
    fractional_delay_into(signal, delay, &mut ws, &mut out);
    out
}

/// Reusable scratch for [`fractional_delay_into`]: the µ-independent
/// Blackman window, computed once at construction, and the interpolation
/// kernel of the latest call, so the delay path neither allocates nor
/// re-evaluates the window's cosines per call.
#[derive(Debug, Clone)]
pub struct DelayWorkspace {
    window: [f64; TAPS],
    kernel: [f64; TAPS],
}

impl DelayWorkspace {
    /// A workspace with the window filled in.
    pub fn new() -> Self {
        DelayWorkspace {
            window: std::array::from_fn(|i| blackman(i, TAPS)),
            kernel: [0.0; TAPS],
        }
    }

    /// Fills `self.kernel` with the windowed-sinc kernel for `mu`.
    fn load_kernel(&mut self, mu: f64) {
        assert!((0.0..1.0).contains(&mu), "mu must be in [0,1), got {mu}");
        for (i, (v, w)) in self.kernel.iter_mut().zip(&self.window).enumerate() {
            let k = i as f64 - (SINC_HALF_WIDTH - 1) as f64;
            let x = k - mu;
            *v = sinc(x) * w;
        }
        // Normalise to unit DC gain so delays don't change signal power.
        let s: f64 = self.kernel.iter().sum();
        if s.abs() > 1e-12 {
            for v in self.kernel.iter_mut() {
                *v /= s;
            }
        }
    }
}

impl Default for DelayWorkspace {
    fn default() -> Self {
        DelayWorkspace::new()
    }
}

/// [`fractional_delay`] into a caller-owned buffer: `out` is cleared and
/// refilled and `ws` holds the window and kernel, so after the first call
/// at a given working size the path performs no heap allocation.
pub fn fractional_delay_into(
    signal: &[Complex64],
    delay: f64,
    ws: &mut DelayWorkspace,
    out: &mut Vec<Complex64>,
) {
    assert!(
        delay >= 0.0 && delay.is_finite(),
        "delay must be finite and >= 0, got {delay}"
    );
    let int_part = delay.floor() as usize;
    let mu = delay - int_part as f64;
    if mu == 0.0 {
        integer_delay_into(signal, int_part, out);
        return;
    }
    // Convolve; kernel latency is SINC_HALF_WIDTH - 1 samples which we absorb
    // into the integer shift. The wanted total shift is int_part + mu and the
    // convolution already delays by latency + mu, so the output is the
    // convolution placed (int_part - latency) samples in — or trimmed by the
    // difference when that is negative.
    let latency = SINC_HALF_WIDTH - 1;
    let conv_len = signal.len() + TAPS - 1;
    let (lead, trim) = if int_part >= latency {
        (int_part - latency, 0)
    } else {
        (0, latency - int_part)
    };
    out.clear();
    out.resize(lead + conv_len - trim, Complex64::ZERO);
    fractional_delay_span(signal, mu, trim, ws, &mut out[lead..]);
}

/// Fills `out` with outputs `trim..trim + out.len()` of the convolution of
/// `signal` with the windowed-sinc kernel for `mu` in `(0, 1)`; `trim` is
/// at most `2·SINC_HALF_WIDTH − 1`.
///
/// This is the kernel behind [`fractional_delay_into`], which for
/// `0 < delay < 1` writes output `o` from convolution index
/// `o + SINC_HALF_WIDTH − 1`. Output `o` reads `signal[o − SINC_HALF_WIDTH
/// ..= o + SINC_HALF_WIDTH − 1]`, so outputs `[o_lo, o_hi)` of a long
/// signal can be computed from just its span `[c_lo, c_hi)` with
/// `c_lo = o_lo.saturating_sub(SINC_HALF_WIDTH)` and
/// `c_hi = min(o_hi + SINC_HALF_WIDTH − 1, signal.len())`: pass that span
/// with `trim = o_lo + SINC_HALF_WIDTH − 1 − c_lo`. Each output sums the
/// same products in the same order either way, so the bits are those of
/// the whole-signal delay.
pub fn fractional_delay_span(
    signal: &[Complex64],
    mu: f64,
    trim: usize,
    ws: &mut DelayWorkspace,
    out: &mut [Complex64],
) {
    assert!(trim < TAPS, "trim {trim} past the kernel");
    ws.load_kernel(mu);
    convolve_gather(signal, &ws.kernel, trim, out);
}

/// Writes outputs `first..first + out.len()` of the linear convolution
/// `signal ∗ taps` into `out`: the one gather convolution behind both the
/// fractional delay (`f64` windowed-sinc taps) and
/// `ssync_channel::Multipath::apply_into` (`Complex64` multipath taps).
///
/// Output `t` sums `signal[i]·taps[t − i]` over ascending input index `i`
/// (descending tap), starting from `Complex64::ZERO`, with
/// `Complex64 * f64` being [`Complex64::scale`]. That order is part of the
/// bit-identity contract: every pinned capture was produced by summing in
/// it (`tests::scatter_oracle` keeps the per-input loop as the reference).
/// Outputs with every tap inside the signal run in blocks of independent
/// accumulators in the native (re, im) layout, as many per block as the
/// tap type's [`GatherTap`] width; the edges take a plain loop in the
/// same order. Outputs past the end of the convolution are zero. The
/// block width changes only which outputs are summed side by side, never
/// an output's sum, so every width gives the same bits.
///
/// On x86-64 hosts with AVX2 or AVX-512 (and the `simd` feature) the same
/// source runs compiled for those registers; the bits are the same either
/// way.
///
/// # Panics
/// Panics if `taps` is empty.
pub fn convolve_gather<T: GatherTap>(
    signal: &[Complex64],
    taps: &[T],
    first: usize,
    out: &mut [Complex64],
) {
    assert!(!taps.is_empty(), "convolution needs at least one tap");
    T::convolve(signal, taps, first, out);
}

/// A tap type of [`convolve_gather`], with its block widths measured per
/// tier. On the AVX2 tier the 32-tap windowed sinc runs 24 outputs per
/// block (8 leave it bound by the latency of four accumulator chains, 32
/// spill registers) and the few-tap complex multipath 16 (8, 24 and 32 are
/// slower); the portable body keeps the AVX2 widths. On the AVX-512 tier,
/// whose 32 vector registers hold wider blocks, the multipath runs 24 and
/// the sinc stays at 24.
pub trait GatherTap: Copy {
    /// [`convolve_gather`] at this tap type's block widths.
    #[doc(hidden)]
    fn convolve(signal: &[Complex64], taps: &[Self], first: usize, out: &mut [Complex64]);
}

/// Outputs per block for `f64` (windowed-sinc) taps: the AVX2 and
/// portable tiers, and the AVX-512 tier.
const REAL_TAP_BLOCK: usize = 24;
const REAL_TAP_BLOCK_AVX512: usize = 24;

/// Outputs per block for `Complex64` (multipath) taps: the AVX2 and
/// portable tiers, and the AVX-512 tier.
const COMPLEX_TAP_BLOCK: usize = 16;
const COMPLEX_TAP_BLOCK_AVX512: usize = 24;

impl GatherTap for f64 {
    fn convolve(signal: &[Complex64], taps: &[f64], first: usize, out: &mut [Complex64]) {
        convolve_dispatch::<f64, REAL_TAP_BLOCK, REAL_TAP_BLOCK_AVX512>(signal, taps, first, out);
    }
}

impl GatherTap for Complex64 {
    fn convolve(signal: &[Complex64], taps: &[Complex64], first: usize, out: &mut [Complex64]) {
        convolve_dispatch::<Complex64, COMPLEX_TAP_BLOCK, COMPLEX_TAP_BLOCK_AVX512>(
            signal, taps, first, out,
        );
    }
}

/// Dispatches to a twin or the portable body: `B` outputs per block on the
/// AVX2 and portable tiers, `B512` on the AVX-512 tier.
#[inline]
fn convolve_dispatch<T, const B: usize, const B512: usize>(
    signal: &[Complex64],
    taps: &[T],
    first: usize,
    out: &mut [Complex64],
) where
    T: Copy,
    Complex64: Mul<T, Output = Complex64>,
{
    match tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier()` reported AVX2 and AVX-512F/DQ/VL at runtime, and
        // the twin only compiles the portable body for them.
        #[allow(unsafe_code)]
        Tier::Avx512 => unsafe { convolve_avx512::<T, B512>(signal, taps, first, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier()` reported AVX2 at runtime, and the twin only
        // compiles the portable body for it.
        #[allow(unsafe_code)]
        Tier::Avx2 => unsafe { convolve_avx2::<T, B>(signal, taps, first, out) },
        _ => convolve_body::<T, B>(signal, taps, first, out),
    }
}

/// [`convolve_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn convolve_avx2<T, const B: usize>(
    signal: &[Complex64],
    taps: &[T],
    first: usize,
    out: &mut [Complex64],
) where
    T: Copy,
    Complex64: Mul<T, Output = Complex64>,
{
    convolve_body::<T, B>(signal, taps, first, out);
}

/// [`convolve_body`] compiled for AVX-512F/DQ/VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
fn convolve_avx512<T, const B: usize>(
    signal: &[Complex64],
    taps: &[T],
    first: usize,
    out: &mut [Complex64],
) where
    T: Copy,
    Complex64: Mul<T, Output = Complex64>,
{
    convolve_body::<T, B>(signal, taps, first, out);
}

/// The portable body of [`convolve_gather`], `B` outputs per block.
#[inline(always)]
fn convolve_body<T, const B: usize>(
    signal: &[Complex64],
    taps: &[T],
    first: usize,
    out: &mut [Complex64],
) where
    T: Copy,
    Complex64: Mul<T, Output = Complex64>,
{
    let end = first + out.len();
    let edge = |t: usize| {
        let lo = (t + 1).saturating_sub(taps.len());
        let hi = (t + 1).min(signal.len());
        let mut acc = Complex64::ZERO;
        for (i, s) in signal.iter().enumerate().take(hi).skip(lo) {
            acc += *s * taps[t - i];
        }
        acc
    };
    // Full-tap outputs are t in [taps − 1, signal.len()).
    let full_lo = (taps.len() - 1).clamp(first, end);
    let full_hi = signal.len().clamp(full_lo, end);
    for t in first..full_lo {
        out[t - first] = edge(t);
    }
    let mut t = full_lo;
    while t + B <= full_hi {
        let mut acc = [Complex64::ZERO; B];
        for (j, &h) in taps.iter().enumerate().rev() {
            let src: &[Complex64; B] = signal[t - j..t - j + B]
                .try_into()
                .expect("block of B samples");
            for (a, s) in acc.iter_mut().zip(src) {
                *a += *s * h;
            }
        }
        out[t - first..t - first + B].copy_from_slice(&acc);
        t += B;
    }
    for t in t..end {
        out[t - first] = edge(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::FftPlan;
    use crate::rng::ComplexGaussian;
    use crate::simd::tier_test;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Applies a frequency-domain phase ramp corresponding to a (possibly
    /// fractional, possibly negative) circular time shift of `delay` samples to a
    /// length-N spectrum: bin `k` (in FFT order) is multiplied by
    /// `e^{−j2π·k̃·delay/N}` where `k̃` is the signed bin index.
    ///
    /// This is the *definition* the SourceSync slope estimator inverts, and the
    /// oracle for [`fractional_delay`].
    fn spectrum_delay(spectrum: &mut [Complex64], delay: f64) {
        let n = spectrum.len();
        for (k, v) in spectrum.iter_mut().enumerate() {
            // Signed bin index: bins above N/2 represent negative frequencies.
            let k_signed = if k <= n / 2 {
                k as f64
            } else {
                k as f64 - n as f64
            };
            *v *= Complex64::cis(-2.0 * PI * k_signed * delay / n as f64);
        }
    }

    /// Generates a band-limited random signal (occupying the central half of
    /// the band) so that sinc interpolation is accurate.
    fn bandlimited_signal(seed: u64, n: usize) -> Vec<Complex64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let gauss = ComplexGaussian::unit();
        let fft = FftPlan::new(n);
        let mut spec = vec![Complex64::ZERO; n];
        // Occupy bins within ±N/4 of DC.
        for (k, bin) in spec.iter_mut().enumerate() {
            let k_signed = if k <= n / 2 {
                k as isize
            } else {
                k as isize - n as isize
            };
            if k_signed.unsigned_abs() < n / 4 {
                *bin = gauss.sample(&mut rng);
            }
        }
        fft.inverse_to_vec(&spec)
    }

    #[test]
    fn integer_delay_shifts_exactly() {
        let sig = vec![Complex64::ONE, Complex64::J];
        let mut out = Vec::new();
        integer_delay_into(&sig, 3, &mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], Complex64::ZERO);
        assert_eq!(out[3], Complex64::ONE);
        assert_eq!(out[4], Complex64::J);
    }

    #[test]
    fn half_sample_delay_matches_spectral_oracle() {
        let n = 256;
        let sig = bandlimited_signal(20, n);
        let delayed = fractional_delay(&sig, 0.5);
        // Oracle: circular spectral shift. Compare on the interior where the
        // linear and circular versions agree.
        let fft = FftPlan::new(n);
        let mut spec = fft.forward_to_vec(&sig);
        spectrum_delay(&mut spec, 0.5);
        let oracle = fft.inverse_to_vec(&spec);
        for t in 32..n - 32 {
            assert!(
                delayed[t].dist(oracle[t]) < 2e-5,
                "t={t} got {:?} want {:?}",
                delayed[t],
                oracle[t]
            );
        }
    }

    #[test]
    fn fractional_delay_reduces_to_integer_case() {
        let sig = bandlimited_signal(21, 128);
        let a = fractional_delay(&sig, 5.0);
        let mut b = Vec::new();
        integer_delay_into(&sig, 5, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.dist(*y) < 1e-12);
        }
    }

    #[test]
    fn cascade_of_fractional_delays_composes() {
        let n = 256;
        let sig = bandlimited_signal(22, n);
        let once = fractional_delay(&sig, 0.7);
        let twice = fractional_delay(&once, 0.6);
        let direct = fractional_delay(&sig, 1.3);
        for t in 64..n - 64 {
            assert!(twice[t].dist(direct[t]) < 1e-5, "t={t}");
        }
    }

    #[test]
    fn delay_preserves_power() {
        let sig = bandlimited_signal(23, 256);
        let p_in = crate::complex::mean_power(&sig);
        let out = fractional_delay(&sig, 2.37);
        let p_out = crate::complex::energy(&out) / sig.len() as f64;
        assert!((p_in - p_out).abs() / p_in < 1e-3, "in {p_in} out {p_out}");
    }

    #[test]
    fn kernel_is_normalised() {
        for &mu in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            let k = fractional_kernel(mu);
            let s: f64 = k.iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "mu={mu} sum={s}");
        }
    }

    #[test]
    fn spectrum_delay_integer_matches_rotation() {
        let n = 64;
        let sig = bandlimited_signal(24, n);
        let fft = FftPlan::new(n);
        let mut spec = fft.forward_to_vec(&sig);
        spectrum_delay(&mut spec, 3.0);
        let rotated = fft.inverse_to_vec(&spec);
        for t in 0..n {
            assert!(rotated[t].dist(sig[(t + n - 3) % n]) < 1e-9, "t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "delay must be finite")]
    fn rejects_negative_delay() {
        let _ = fractional_delay(&[Complex64::ONE], -1.0);
    }

    #[test]
    fn delay_into_bitwise_matches_allocating_path() {
        // One reused workspace + output buffer across many delays must give
        // exactly the bytes of the fresh-allocation path (including the
        // integer fast path and the trim/lead branches of the convolution).
        let sig = bandlimited_signal(30, 128);
        let mut ws = DelayWorkspace::new();
        let mut out = Vec::new();
        for &d in &[0.0, 0.5, 3.0, 2.37, 14.9, 15.0, 15.1, 40.25] {
            fractional_delay_into(&sig, d, &mut ws, &mut out);
            assert_eq!(out, fractional_delay(&sig, d), "delay {d}");
        }
        // The integer path into the dirty buffer matches a fresh one.
        integer_delay_into(&sig, 7, &mut out);
        let mut fresh = Vec::new();
        integer_delay_into(&sig, 7, &mut fresh);
        assert_eq!(out, fresh);
        // A workspace whose window was filled by an earlier µ loads the same
        // kernel bits as a fresh one.
        ws.load_kernel(0.3);
        assert_eq!(ws.kernel.to_vec(), fractional_kernel(0.3));
    }

    /// The per-input scatter convolution the gather kernel replaced, kept
    /// as the bit-exact oracle: each input adds its scaled taps into the
    /// outputs it reaches, in ascending input order.
    fn scatter_oracle(signal: &[Complex64], delay: f64) -> Vec<Complex64> {
        let int_part = delay.floor() as usize;
        let mu = delay - int_part as f64;
        let kernel = fractional_kernel(mu);
        let latency = SINC_HALF_WIDTH - 1;
        let conv_len = signal.len() + kernel.len() - 1;
        let (lead, trim) = if int_part >= latency {
            (int_part - latency, 0)
        } else {
            (0, latency - int_part)
        };
        let mut out = vec![Complex64::ZERO; lead + conv_len - trim];
        for (i, s) in signal.iter().enumerate() {
            for (j, k) in kernel.iter().enumerate() {
                let t = i + j;
                if t >= trim {
                    out[lead + t - trim] += s.scale(*k);
                }
            }
        }
        out
    }

    /// The multipath gather loop `ssync_channel::Multipath::apply_into`
    /// ran before it moved onto [`convolve_gather`], kept as the oracle
    /// for complex taps: outputs `span` of `input ∗ taps`.
    fn multipath_oracle(
        input: &[Complex64],
        taps: &[Complex64],
        span: std::ops::Range<usize>,
    ) -> Vec<Complex64> {
        let edge = |c: usize| {
            let lo = (c + 1).saturating_sub(taps.len());
            let hi = (c + 1).min(input.len());
            let mut acc = Complex64::ZERO;
            for (i, x) in input.iter().enumerate().take(hi).skip(lo) {
                acc += *x * taps[c - i];
            }
            acc
        };
        // The block width it ran with.
        const BLOCK: usize = 8;
        let full_lo = (taps.len() - 1).clamp(span.start, span.end);
        let full_hi = input.len().clamp(full_lo, span.end);
        let mut out: Vec<Complex64> = (span.start..full_lo).map(edge).collect();
        let mut c = full_lo;
        while c + BLOCK <= full_hi {
            let mut acc = [Complex64::ZERO; BLOCK];
            for (j, h) in taps.iter().enumerate().rev() {
                for (k, a) in acc.iter_mut().enumerate() {
                    *a += input[c - j + k] * *h;
                }
            }
            out.extend_from_slice(&acc);
            c += BLOCK;
        }
        out.extend((c..span.end).map(edge));
        out
    }

    /// Output spans of a `len`-output convolution: the whole, each edge,
    /// clipped at either end, narrower than `taps`, and random ones.
    fn spans(rng: &mut StdRng, len: usize, taps: usize) -> Vec<(usize, usize)> {
        let mut spans = vec![
            (0, len),
            (0, 1.min(len)),
            (len.saturating_sub(1), len),
            (len, len),
            (0, (taps / 2).min(len)),
            (len.saturating_sub(taps / 2 + 1), len),
            (len / 3, (len / 3 + taps.saturating_sub(1)).min(len)),
        ];
        for _ in 0..8 {
            let a = rng.gen_range(0..=len);
            spans.push((a, rng.gen_range(a..=len)));
        }
        spans
    }

    /// Which compiled twins this host can run.
    #[derive(Clone, Copy)]
    struct Twins {
        avx2: bool,
        avx512: bool,
    }

    impl Twins {
        fn probe(test: &str) -> Self {
            Twins {
                avx2: tier_test::host_has_avx2(test),
                avx512: tier_test::host_has_avx512(test),
            }
        }
    }

    /// Outputs `first..first + len` of `signal ∗ taps` through every tier
    /// at every block width: the portable body and each twin the host has,
    /// at `B` (the AVX2 and portable width of `T`) and at `B512` (its
    /// AVX-512 width), and the dispatched entry point; asserts they all
    /// agree and returns the body's.
    fn convolve_tiers<T, const B: usize, const B512: usize>(
        signal: &[Complex64],
        taps: &[T],
        first: usize,
        len: usize,
        twins: Twins,
        what: &str,
    ) -> Vec<Complex64>
    where
        T: GatherTap,
        Complex64: Mul<T, Output = Complex64>,
    {
        let mut body = vec![Complex64::J; len];
        convolve_body::<T, B>(signal, taps, first, &mut body);
        let mut wide = vec![Complex64::J; len];
        convolve_body::<T, B512>(signal, taps, first, &mut wide);
        tier_test::assert_same_bits(&wide, &body, &format!("{what}: body at {B512}"));
        let mut dispatched = vec![Complex64::ONE; len];
        convolve_gather(signal, taps, first, &mut dispatched);
        tier_test::assert_same_bits(&dispatched, &body, &format!("{what}: dispatched"));
        #[cfg(target_arch = "x86_64")]
        for width in [B, B512] {
            let mut twin = vec![-Complex64::ONE; len];
            if twins.avx2 {
                // SAFETY: the caller checked that the host has AVX2.
                #[allow(unsafe_code)]
                unsafe {
                    if width == B {
                        convolve_avx2::<T, B>(signal, taps, first, &mut twin)
                    } else {
                        convolve_avx2::<T, B512>(signal, taps, first, &mut twin)
                    }
                };
                tier_test::assert_same_bits(&twin, &body, &format!("{what}: avx2 at {width}"));
            }
            if twins.avx512 {
                // SAFETY: the caller checked that the host has AVX2 and
                // AVX-512F/DQ/VL.
                #[allow(unsafe_code)]
                unsafe {
                    if width == B {
                        convolve_avx512::<T, B>(signal, taps, first, &mut twin)
                    } else {
                        convolve_avx512::<T, B512>(signal, taps, first, &mut twin)
                    }
                };
                tier_test::assert_same_bits(&twin, &body, &format!("{what}: avx512 at {width}"));
            }
        }
        body
    }

    #[test]
    fn convolution_tiers_bitwise_match() {
        // The fractional delay's windowed-sinc taps through every tier
        // against the per-input scatter loop: odd lengths, spans clipped
        // at either edge and narrower than the kernel, and IEEE edge
        // values in the signal.
        let twins = Twins::probe("convolution_tiers_bitwise_match");
        let mut rng = StdRng::seed_from_u64(35);
        let kernel = fractional_kernel(0.37);
        for special in [false, true] {
            for n in [1usize, 5, 31, 33, 67, 301] {
                let x = tier_test::samples(&mut rng, n, special);
                let len = n + TAPS - 1;
                let mut whole = vec![Complex64::ZERO; len];
                for (i, s) in x.iter().enumerate() {
                    for (j, k) in kernel.iter().enumerate() {
                        whole[i + j] += s.scale(*k);
                    }
                }
                for (lo, hi) in spans(&mut rng, len, TAPS) {
                    let what = format!("n {n} span [{lo}, {hi})");
                    let got = convolve_tiers::<f64, REAL_TAP_BLOCK, REAL_TAP_BLOCK_AVX512>(
                        &x,
                        &kernel,
                        lo,
                        hi - lo,
                        twins,
                        &what,
                    );
                    tier_test::assert_same_bits(&got, &whole[lo..hi], &what);
                }
            }
        }
        // Spans and full-tap runs of b − 1, b, b + 1 and 2b + 3 outputs
        // for each of each tap type's block widths b (every tier runs at
        // every width), starting at either edge, at the first full-tap
        // output and inside the full-tap run.
        let block_spans = |len: usize, n_taps: usize, b: usize| {
            let mut spans = Vec::new();
            for w in [b - 1, b, b + 1, 2 * b + 3] {
                for lo in [0, n_taps - 1, n_taps, n_taps + b / 2, len.saturating_sub(w)] {
                    if lo + w <= len {
                        spans.push((lo, lo + w));
                    }
                }
            }
            spans
        };
        let widths = |a: usize, b: usize| if a == b { vec![a] } else { vec![a, b] };
        let taps = &kernel;
        for b in widths(REAL_TAP_BLOCK, REAL_TAP_BLOCK_AVX512) {
            for n in [
                TAPS - 1 + b - 1,
                TAPS - 1 + b,
                TAPS - 1 + b + 1,
                TAPS - 1 + 2 * b + 3,
            ] {
                let x = tier_test::samples(&mut rng, n, false);
                let len = n + TAPS - 1;
                let mut whole = vec![Complex64::ZERO; len];
                for (i, s) in x.iter().enumerate() {
                    for (j, k) in taps.iter().enumerate() {
                        whole[i + j] += s.scale(*k);
                    }
                }
                for (lo, hi) in block_spans(len, TAPS, b) {
                    let what = format!("real b {b} n {n} span [{lo}, {hi})");
                    let got = convolve_tiers::<f64, REAL_TAP_BLOCK, REAL_TAP_BLOCK_AVX512>(
                        &x,
                        taps,
                        lo,
                        hi - lo,
                        twins,
                        &what,
                    );
                    tier_test::assert_same_bits(&got, &whole[lo..hi], &what);
                }
            }
        }
        for b in widths(COMPLEX_TAP_BLOCK, COMPLEX_TAP_BLOCK_AVX512) {
            for n_taps in [1usize, 5, 9] {
                let taps = tier_test::samples(&mut rng, n_taps, false);
                for n in [
                    n_taps - 1 + b - 1,
                    n_taps - 1 + b,
                    n_taps + b,
                    n_taps + 2 * b + 2,
                ] {
                    let x = tier_test::samples(&mut rng, n, false);
                    let len = n + n_taps - 1;
                    for (lo, hi) in block_spans(len, n_taps, b) {
                        let what = format!("complex b {b} taps {n_taps} n {n} span [{lo}, {hi})");
                        let got = convolve_tiers::<
                            Complex64,
                            COMPLEX_TAP_BLOCK,
                            COMPLEX_TAP_BLOCK_AVX512,
                        >(&x, &taps, lo, hi - lo, twins, &what);
                        let want = multipath_oracle(&x, &taps, lo..hi);
                        tier_test::assert_same_bits(&got, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn shared_convolution_bitwise_matches_multipath_loop() {
        // Complex taps through every tier against the loop
        // `Multipath::apply_into` ran before it moved here: 1 to 25 taps,
        // inputs shorter than the channel, around one block and many
        // blocks, every span shape, with and without IEEE edge values.
        let twins = Twins::probe("shared_convolution_bitwise_matches_multipath_loop");
        let mut rng = StdRng::seed_from_u64(34);
        for n_taps in [1usize, 2, 5, 9, 25] {
            for special in [false, true] {
                let taps = tier_test::samples(&mut rng, n_taps, special);
                for n in [1usize, 3, 8, 13, 31, 64, 517] {
                    let x = tier_test::samples(&mut rng, n, special);
                    let len = n + n_taps - 1;
                    for (lo, hi) in spans(&mut rng, len, n_taps) {
                        let what = format!("taps {n_taps} n {n} span [{lo}, {hi})");
                        let got = convolve_tiers::<
                            Complex64,
                            COMPLEX_TAP_BLOCK,
                            COMPLEX_TAP_BLOCK_AVX512,
                        >(&x, &taps, lo, hi - lo, twins, &what);
                        let want = multipath_oracle(&x, &taps, lo..hi);
                        tier_test::assert_same_bits(&got, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn gather_convolution_bitwise_matches_scatter_oracle() {
        // Lengths around the kernel size and one long enough for many
        // blocks plus a ragged tail; delays whose integer part sits below,
        // at and above the kernel latency (trimmed vs zero-led output).
        let mut rng = StdRng::seed_from_u64(31);
        let gauss = ComplexGaussian::unit();
        let latency = (SINC_HALF_WIDTH - 1) as f64;
        let delays = [
            0.37,
            3.5,
            latency - 0.1,
            latency + 0.25,
            latency + 1.6,
            40.7,
        ];
        let mut ws = DelayWorkspace::new();
        let mut out = Vec::new();
        for &n in &[1usize, 2, 31, 32, 33, 4001] {
            let mut sig: Vec<Complex64> = (0..n).map(|_| gauss.sample(&mut rng)).collect();
            // Signed zeros: a -0.0 product added to the +0.0 start must
            // come out the same way in both loops.
            for s in sig.iter_mut().step_by(5) {
                *s = Complex64::new(-0.0, s.im);
            }
            sig[n - 1] = Complex64::new(-0.0, -0.0);
            for &d in &delays {
                fractional_delay_into(&sig, d, &mut ws, &mut out);
                let want = scatter_oracle(&sig, d);
                assert_eq!(out.len(), want.len(), "n {n} delay {d}");
                for (t, (a, b)) in out.iter().zip(&want).enumerate() {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "n {n} delay {d} t {t}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "n {n} delay {d} t {t}");
                }
            }
        }
    }

    #[test]
    fn span_delay_bitwise_matches_whole_signal_delay() {
        // Any output window, computed from only the signal span it reads,
        // carries the bits of the whole-signal sub-sample delay: windows at
        // both edges, narrower than the kernel, and spanning many blocks.
        let mut rng = StdRng::seed_from_u64(33);
        let gauss = ComplexGaussian::unit();
        let mut ws = DelayWorkspace::new();
        let mut out = Vec::new();
        for &n in &[1usize, 7, 40, 300] {
            let sig: Vec<Complex64> = (0..n).map(|_| gauss.sample(&mut rng)).collect();
            for &mu in &[0.01, 0.37, 0.5, 0.99] {
                let whole = fractional_delay(&sig, mu);
                let len = whole.len();
                let mut windows = vec![(0, len), (0, 1), (len - 1, len), (0, len.min(5))];
                for _ in 0..12 {
                    let a = rng.gen_range(0..len);
                    let b = rng.gen_range(a + 1..=len.min(a + 70));
                    windows.push((a, b));
                }
                for (o_lo, o_hi) in windows {
                    let c_lo = o_lo.saturating_sub(SINC_HALF_WIDTH);
                    let c_hi = (o_hi + SINC_HALF_WIDTH - 1).min(n);
                    let trim = o_lo + SINC_HALF_WIDTH - 1 - c_lo;
                    out.clear();
                    out.resize(o_hi - o_lo, Complex64::ONE);
                    fractional_delay_span(&sig[c_lo..c_hi], mu, trim, &mut ws, &mut out);
                    for (o, (a, b)) in out.iter().zip(&whole[o_lo..o_hi]).enumerate() {
                        let at = format!("n {n} mu {mu} window [{o_lo}, {o_hi}) o {o}");
                        assert_eq!(a.re.to_bits(), b.re.to_bits(), "{at}");
                        assert_eq!(a.im.to_bits(), b.im.to_bits(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn output_length_matches_documented_extent() {
        // Integer delays grow the waveform by exactly `delay`; any other
        // delay by ceil(delay) + SINC_HALF_WIDTH - 1. For 0 < delay < 1
        // (the only fractional delays `Link::propagate_into` applies) that is
        // the SINC_HALF_WIDTH tail `Link::delivered_span` adds.
        let sig = bandlimited_signal(32, 64);
        for d in [0usize, 1, 5, SINC_HALF_WIDTH - 1, SINC_HALF_WIDTH, 40] {
            assert_eq!(
                fractional_delay(&sig, d as f64).len(),
                sig.len() + d,
                "delay {d}"
            );
        }
        for d in [0.01_f64, 0.5, 0.99, 2.37, 14.9, 15.1, 40.25] {
            let want = sig.len() + d.ceil() as usize + SINC_HALF_WIDTH - 1;
            assert_eq!(fractional_delay(&sig, d).len(), want, "delay {d}");
        }
        for mu in [0.01, 0.5, 0.99] {
            assert_eq!(
                fractional_delay(&sig, mu).len(),
                sig.len() + SINC_HALF_WIDTH
            );
        }
    }

    #[test]
    fn sinc_at_zero_and_integers() {
        assert_eq!(sinc(0.0), 1.0);
        for k in 1..5 {
            assert!(sinc(k as f64).abs() < 1e-12);
        }
    }
}
