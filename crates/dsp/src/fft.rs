//! Iterative radix-2 decimation-in-time FFT with a planning front end.
//!
//! OFDM lives and dies by the FFT, and the SourceSync mechanisms under test
//! (detection-delay estimation via channel phase slope, cyclic-prefix/ISI
//! interaction) are statements about FFT behaviour, so the transform is
//! implemented here rather than pulled in as an opaque dependency.
//!
//! [`FftPlan`] is the planned handle every hot path holds: construction
//! precomputes the bit-reversal permutation and the twiddle factors laid out
//! **per butterfly stage** (forward and conjugated-inverse tables), so the
//! butterfly inner loop walks each table sequentially instead of striding
//! through one shared table. The per-stage values are copied from the same
//! base table the original single-table implementation indexed, and the
//! butterfly arithmetic is unchanged, so the planned transform is
//! bit-identical to its predecessor.
//!
//! Sizes must be powers of two (64 and 128 in this workspace). The
//! convention is the signal-processing one:
//!
//! * `forward`:  `X[k] = Σ_n x[n]·e^{−j2πkn/N}` (no scaling)
//! * `inverse`:  `x[n] = (1/N)·Σ_k X[k]·e^{+j2πkn/N}`
//!
//! so `inverse(forward(x)) == x` to floating-point precision.
//!
//! For all-real inputs (IF captures, channel taps) [`FftPlan::forward_real_into`]
//! runs the classic pack-into-N/2-complex split, doing half the complex
//! butterfly work and untangling the spectrum afterwards; it matches the
//! complex transform to floating-point precision (not bitwise — the butterfly
//! schedule differs by construction).

use crate::complex::Complex64;
use std::f64::consts::PI;

/// Auxiliary tables for the real-input split: the half-size complex plan and
/// the recombination twiddles `e^{-j2πk/N}`.
#[derive(Debug, Clone)]
struct RealAux {
    half: FftPlan,
    w: Vec<Complex64>,
}

/// A planned FFT of a fixed power-of-two size: the cached twiddle/permutation
/// handle the whole workspace shares.
///
/// Construction precomputes everything; [`FftPlan::forward`] and
/// [`FftPlan::inverse`] then run without allocating. Plans are cheap to clone
/// and immutable, so one plan can serve any number of concurrent workers.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    log2n: u32,
    // Per-stage twiddles, stages concatenated smallest-first: for the stage
    // with butterfly span `len`, the slice holds w[k] = e^{-j2πk·(N/len)/N}
    // for k in 0..len/2 — exactly the values the legacy single-table code
    // read as `twiddles[k * stride]`.
    stages: Vec<Complex64>,
    // The same tables conjugated, for the inverse transform (conjugation is
    // exact, so reading the prebuilt table is bit-identical to conjugating
    // per butterfly).
    stages_inv: Vec<Complex64>,
    bitrev: Vec<u32>,
    real: Option<Box<RealAux>>,
}

impl FftPlan {
    /// Plans an FFT of size `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or is smaller than 2.
    pub fn new(n: usize) -> Self {
        let mut plan = FftPlan::bare(n);
        if n >= 4 {
            let w = (0..n / 2)
                .map(|k| Complex64::cis(-2.0 * PI * k as f64 / n as f64))
                .collect();
            plan.real = Some(Box::new(RealAux {
                half: FftPlan::bare(n / 2),
                w,
            }));
        }
        plan
    }

    /// The plan without real-input support (used for the internal half-size
    /// plan, so construction doesn't recurse).
    fn bare(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "FFT size must be a power of two >= 2, got {n}"
        );
        let log2n = n.trailing_zeros();
        // Base table, identical to the legacy implementation's.
        let twiddles: Vec<Complex64> = (0..n / 2)
            .map(|k| Complex64::cis(-2.0 * PI * k as f64 / n as f64))
            .collect();
        let mut stages = Vec::with_capacity(n - 1);
        let mut len = 2usize;
        while len <= n {
            let stride = n / len;
            for k in 0..len / 2 {
                stages.push(twiddles[k * stride]);
            }
            len <<= 1;
        }
        let stages_inv = stages.iter().map(|w| w.conj()).collect();
        let bitrev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - log2n))
            .collect();
        FftPlan {
            n,
            log2n,
            stages,
            stages_inv,
            bitrev,
            real: None,
        }
    }

    /// The transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: a planned FFT has size >= 2.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    fn transform(&self, buf: &mut [Complex64], inverse: bool) {
        assert_eq!(
            buf.len(),
            self.n,
            "buffer length {} != FFT size {}",
            buf.len(),
            self.n
        );
        // Bit-reversal permutation.
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        // Butterflies, reading each stage's twiddles sequentially.
        let tab = if inverse {
            &self.stages_inv
        } else {
            &self.stages
        };
        let mut off = 0usize;
        let mut len = 2usize;
        while len <= self.n {
            let half = len / 2;
            let stage = &tab[off..off + half];
            for start in (0..self.n).step_by(len) {
                for (k, &w) in stage.iter().enumerate() {
                    let a = buf[start + k];
                    let b = buf[start + k + half] * w;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
            off += half;
            len <<= 1;
        }
        if inverse {
            let inv_n = 1.0 / self.n as f64;
            for s in buf.iter_mut() {
                *s = s.scale(inv_n);
            }
        }
        let _ = self.log2n;
    }

    /// In-place forward DFT.
    pub fn forward(&self, buf: &mut [Complex64]) {
        self.transform(buf, false);
    }

    /// In-place inverse DFT (including the 1/N scaling).
    pub fn inverse(&self, buf: &mut [Complex64]) {
        self.transform(buf, true);
    }

    /// Forward transform of `input` into a caller-provided buffer, without
    /// allocating: the zero-allocation entry point the modem workspaces
    /// (`ssync_phy`'s `TxWorkspace`/`RxWorkspace`) are built on.
    ///
    /// # Panics
    /// Panics if `input` or `out` is not exactly the FFT size.
    pub fn forward_into(&self, input: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(
            input.len(),
            self.n,
            "input length {} != FFT size {}",
            input.len(),
            self.n
        );
        out.copy_from_slice(input);
        self.forward(out);
    }

    /// Inverse transform (including the 1/N scaling) of `input` into a
    /// caller-provided buffer, without allocating.
    ///
    /// # Panics
    /// Panics if `input` or `out` is not exactly the FFT size.
    pub fn inverse_into(&self, input: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(
            input.len(),
            self.n,
            "input length {} != FFT size {}",
            input.len(),
            self.n
        );
        out.copy_from_slice(input);
        self.inverse(out);
    }

    /// Convenience: forward transform into a fresh vector.
    pub fn forward_to_vec(&self, input: &[Complex64]) -> Vec<Complex64> {
        let mut buf = input.to_vec();
        self.forward(&mut buf);
        buf
    }

    /// Convenience: inverse transform into a fresh vector.
    pub fn inverse_to_vec(&self, input: &[Complex64]) -> Vec<Complex64> {
        let mut buf = input.to_vec();
        self.inverse(&mut buf);
        buf
    }

    /// Forward DFT of an all-real signal via one complex FFT of half the
    /// size: even samples pack into real parts, odd into imaginary, and the
    /// half-size spectrum is untangled into the full `N`-point spectrum
    /// (whose upper half is the conjugate mirror of the lower, as for any
    /// real signal).
    ///
    /// Matches [`FftPlan::forward`] on the equivalent complex input to
    /// floating-point precision; it is *not* bitwise-identical, which is why
    /// the modem's bit-exact paths keep the complex transform and this entry
    /// point serves the genuinely-real front ends (IF captures, real channel
    /// taps, spectral diagnostics) at half the butterfly cost.
    ///
    /// # Panics
    /// Panics if `input` or `out` is not exactly the FFT size.
    pub fn forward_real_into(&self, input: &[f64], out: &mut [Complex64]) {
        assert_eq!(
            input.len(),
            self.n,
            "input length {} != FFT size {}",
            input.len(),
            self.n
        );
        assert_eq!(
            out.len(),
            self.n,
            "output length {} != FFT size {}",
            out.len(),
            self.n
        );
        let n = self.n;
        if n == 2 {
            out[0] = Complex64::real(input[0] + input[1]);
            out[1] = Complex64::real(input[0] - input[1]);
            return;
        }
        let aux = self
            .real
            .as_ref()
            .expect("plans of size >= 4 carry real-input tables");
        let h = n / 2;
        // Pack x[2m] + j·x[2m+1] into the front half of `out` and transform
        // it in place with the half-size plan.
        for m in 0..h {
            out[m] = Complex64::new(input[2 * m], input[2 * m + 1]);
        }
        aux.half.forward(&mut out[..h]);
        // Untangle: with Z the half-size spectrum, E/O the even/odd-sample
        // spectra, E[k] = (Z[k] + conj(Z[h−k]))/2, O[k] = −j(Z[k] − conj(Z[h−k]))/2,
        // X[k] = E[k] + W_N^k·O[k]. Pairs (k, h−k) are read before either is
        // overwritten; the upper half is the conjugate mirror.
        let z0 = out[0];
        for k in 1..h / 2 {
            let kp = h - k;
            let a = out[k];
            let b = out[kp];
            let e_k = (a + b.conj()).scale(0.5);
            let t = a - b.conj();
            let o_k = Complex64::new(t.im, -t.re).scale(0.5);
            let x_k = e_k + aux.w[k] * o_k;
            let e_kp = (b + a.conj()).scale(0.5);
            let t2 = b - a.conj();
            let o_kp = Complex64::new(t2.im, -t2.re).scale(0.5);
            let x_kp = e_kp + aux.w[kp] * o_kp;
            out[k] = x_k;
            out[kp] = x_kp;
            out[n - k] = x_k.conj();
            out[n - kp] = x_kp.conj();
        }
        // k = h/2 pairs with itself: W_N^{h/2} = −j collapses the formula to
        // a conjugation.
        let zq = out[h / 2];
        out[h / 2] = zq.conj();
        out[n - h / 2] = zq;
        out[h] = Complex64::real(z0.re - z0.im);
        out[0] = Complex64::real(z0.re + z0.im);
    }
}

/// Direct O(N²) DFT, used as a test oracle for the fast transform.
pub fn dft_naive(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|t| input[t] * Complex64::cis(-2.0 * PI * (k * t) as f64 / n as f64))
                .sum()
        })
        .collect()
}

/// Circularly convolves `a` and `b` (equal lengths, power of two) via the FFT.
///
/// Used by tests to check the convolution theorem and by channel emulation
/// oracles.
pub fn circular_convolve(a: &[Complex64], b: &[Complex64]) -> Vec<Complex64> {
    assert_eq!(a.len(), b.len());
    let fft = FftPlan::new(a.len());
    let fa = fft.forward_to_vec(a);
    let fb = fft.forward_to_vec(b);
    let prod: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x * *y).collect();
    fft.inverse_to_vec(&prod)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::ComplexGaussian;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x.dist(*y)).fold(0.0, f64::max)
    }

    #[test]
    fn matches_naive_dft() {
        let mut rng = StdRng::seed_from_u64(7);
        let gauss = ComplexGaussian::unit();
        for &n in &[2usize, 4, 8, 64, 128, 256] {
            let x: Vec<Complex64> = (0..n).map(|_| gauss.sample(&mut rng)).collect();
            let fast = FftPlan::new(n).forward_to_vec(&x);
            let slow = dft_naive(&x);
            assert!(max_err(&fast, &slow) < 1e-9 * n as f64, "size {n}");
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let mut rng = StdRng::seed_from_u64(8);
        let gauss = ComplexGaussian::unit();
        let fft = FftPlan::new(128);
        let x: Vec<Complex64> = (0..128).map(|_| gauss.sample(&mut rng)).collect();
        let back = fft.inverse_to_vec(&fft.forward_to_vec(&x));
        assert!(max_err(&x, &back) < 1e-12);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let fft = FftPlan::new(64);
        let mut x = vec![Complex64::ZERO; 64];
        x[0] = Complex64::ONE;
        let y = fft.forward_to_vec(&x);
        for v in y {
            assert!(v.dist(Complex64::ONE) < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let fft = FftPlan::new(n);
        let k0 = 5;
        let x: Vec<Complex64> = (0..n)
            .map(|t| Complex64::cis(2.0 * PI * (k0 * t) as f64 / n as f64))
            .collect();
        let y = fft.forward_to_vec(&x);
        for (k, v) in y.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage in bin {k}");
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut rng = StdRng::seed_from_u64(9);
        let gauss = ComplexGaussian::unit();
        let n = 128;
        let x: Vec<Complex64> = (0..n).map(|_| gauss.sample(&mut rng)).collect();
        let y = FftPlan::new(n).forward_to_vec(&x);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() < 1e-9 * ex);
    }

    #[test]
    fn time_shift_is_frequency_phase_ramp() {
        // The property SourceSync's detection-delay estimator relies on
        // (paper Eq. 1): delaying by d samples multiplies bin k by
        // e^{-j2πkd/N}.
        let n = 64;
        let fft = FftPlan::new(n);
        let mut rng = StdRng::seed_from_u64(10);
        let gauss = ComplexGaussian::unit();
        let x: Vec<Complex64> = (0..n).map(|_| gauss.sample(&mut rng)).collect();
        let d = 3usize;
        let shifted: Vec<Complex64> = (0..n).map(|t| x[(t + n - d) % n]).collect();
        let fx = fft.forward_to_vec(&x);
        let fs = fft.forward_to_vec(&shifted);
        for k in 0..n {
            let expected = fx[k] * Complex64::cis(-2.0 * PI * (k * d) as f64 / n as f64);
            assert!(fs[k].dist(expected) < 1e-9);
        }
    }

    #[test]
    fn convolution_theorem_holds() {
        let n = 64;
        let mut rng = StdRng::seed_from_u64(11);
        let gauss = ComplexGaussian::unit();
        let a: Vec<Complex64> = (0..n).map(|_| gauss.sample(&mut rng)).collect();
        let mut b = vec![Complex64::ZERO; n];
        for tap in b.iter_mut().take(4) {
            *tap = gauss.sample(&mut rng);
        }
        let conv = circular_convolve(&a, &b);
        // Oracle: direct circular convolution.
        for t in 0..n {
            let mut acc = Complex64::ZERO;
            for (m, tap) in b.iter().enumerate() {
                acc += a[(t + n - m) % n] * *tap;
            }
            assert!(conv[t].dist(acc) < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = FftPlan::new(48);
    }

    #[test]
    fn into_variants_match_to_vec_exactly() {
        // The workspace refactor's contract: the `_into` entry points are
        // bit-identical to the allocating convenience paths.
        let mut rng = StdRng::seed_from_u64(12);
        let gauss = ComplexGaussian::unit();
        let fft = FftPlan::new(128);
        let mut out = vec![Complex64::ZERO; 128];
        for _ in 0..8 {
            let x: Vec<Complex64> = (0..128).map(|_| gauss.sample(&mut rng)).collect();
            fft.forward_into(&x, &mut out);
            assert_eq!(out, fft.forward_to_vec(&x));
            fft.inverse_into(&x, &mut out);
            assert_eq!(out, fft.inverse_to_vec(&x));
        }
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn forward_into_rejects_wrong_size() {
        let fft = FftPlan::new(64);
        let mut out = vec![Complex64::ZERO; 64];
        fft.forward_into(&[Complex64::ONE; 32], &mut out);
    }

    #[test]
    fn real_forward_matches_complex_on_real_inputs() {
        let mut rng = StdRng::seed_from_u64(14);
        for &n in &[2usize, 4, 8, 16, 64, 128, 256] {
            let plan = FftPlan::new(n);
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let complex_in: Vec<Complex64> = x.iter().map(|&v| Complex64::real(v)).collect();
            let reference = plan.forward_to_vec(&complex_in);
            let mut real_out = vec![Complex64::ZERO; n];
            plan.forward_real_into(&x, &mut real_out);
            assert!(
                max_err(&real_out, &reference) < 1e-10 * n as f64,
                "size {n}"
            );
        }
    }

    #[test]
    fn real_forward_spectrum_is_conjugate_symmetric() {
        let mut rng = StdRng::seed_from_u64(15);
        let n = 64;
        let plan = FftPlan::new(n);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut out = vec![Complex64::ZERO; n];
        plan.forward_real_into(&x, &mut out);
        assert!(out[0].im.abs() < 1e-12);
        assert!(out[n / 2].im.abs() < 1e-12);
        for k in 1..n / 2 {
            assert!(out[n - k].dist(out[k].conj()) < 1e-12, "bin {k}");
        }
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn real_forward_rejects_wrong_size() {
        let plan = FftPlan::new(64);
        let mut out = vec![Complex64::ZERO; 64];
        plan.forward_real_into(&[0.0; 32], &mut out);
    }

    use std::f64::consts::PI;
}
