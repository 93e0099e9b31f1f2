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

use crate::complex::Complex64;
use std::f64::consts::PI;

/// A planned FFT of a fixed power-of-two size: the cached twiddle/permutation
/// handle the whole workspace shares.
///
/// Construction precomputes everything; [`FftPlan::forward`] and
/// [`FftPlan::inverse`] then run without allocating. Plans are cheap to clone
/// and immutable, so one plan can serve any number of concurrent workers.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
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
}

impl FftPlan {
    /// Plans an FFT of size `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or is smaller than 2.
    pub fn new(n: usize) -> Self {
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
            stages,
            stages_inv,
            bitrev,
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
        for (i, &j) in self.bitrev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        // Butterflies, reading each stage's twiddles sequentially. Each
        // span of `2·half` samples splits into its lower and upper halves,
        // zipped with the stage's twiddles, so the inner loop carries no
        // index arithmetic and no bounds checks.
        let tab = if inverse {
            &self.stages_inv
        } else {
            &self.stages
        };
        let mut off = 0usize;
        let mut half = 1usize;
        while half < self.n {
            let stage = &tab[off..off + half];
            for span in buf.chunks_exact_mut(2 * half) {
                let (lo, hi) = span.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                    let u = *a;
                    let t = *b * w;
                    *a = u + t;
                    *b = u - t;
                }
            }
            off += half;
            half <<= 1;
        }
        if inverse {
            let inv_n = 1.0 / self.n as f64;
            for s in buf.iter_mut() {
                *s = s.scale(inv_n);
            }
        }
    }

    /// In-place forward DFT.
    pub fn forward(&self, buf: &mut [Complex64]) {
        self.transform(buf, false);
    }

    /// In-place inverse DFT (including the 1/N scaling).
    pub fn inverse(&self, buf: &mut [Complex64]) {
        self.transform(buf, true);
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
    use rand::SeedableRng;

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

    /// The indexed butterfly loop the span-zipped one replaced, kept as
    /// its oracle: same twiddle tables, same operations, `buf[start + k]`
    /// indexing.
    fn transform_indexed(plan: &FftPlan, buf: &mut [Complex64], inverse: bool) {
        for i in 0..plan.n {
            let j = plan.bitrev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        let tab = if inverse {
            &plan.stages_inv
        } else {
            &plan.stages
        };
        let mut off = 0usize;
        let mut len = 2usize;
        while len <= plan.n {
            let half = len / 2;
            let stage = &tab[off..off + half];
            for start in (0..plan.n).step_by(len) {
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
            let inv_n = 1.0 / plan.n as f64;
            for s in buf.iter_mut() {
                *s = s.scale(inv_n);
            }
        }
    }

    #[test]
    fn butterflies_match_indexed_loop_bitwise() {
        // Random inputs at every size, plus signed zeros, subnormals and
        // huge values that overflow to ±∞ inside the butterflies (NaN
        // only has to stay NaN: Rust leaves its payload unspecified).
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut rng = StdRng::seed_from_u64(13);
        let gauss = ComplexGaussian::unit();
        let edge = [
            Complex64::new(0.0, -0.0),
            Complex64::new(-0.0, -0.0),
            Complex64::new(f64::MIN_POSITIVE / 16.0, -f64::MIN_POSITIVE),
            Complex64::new(f64::MAX, -f64::MAX),
            Complex64::new(1e300, 1e-300),
        ];
        let mut n = 2usize;
        while n <= 1024 {
            let plan = FftPlan::new(n);
            let mut inputs = vec![gauss.sample_vec(&mut rng, n)];
            inputs.push((0..n).map(|i| edge[i % edge.len()]).collect());
            for x in inputs {
                for inverse in [false, true] {
                    let mut fast = x.clone();
                    plan.transform(&mut fast, inverse);
                    let mut slow = x.clone();
                    transform_indexed(&plan, &mut slow, inverse);
                    for (a, b) in fast.iter().zip(&slow) {
                        assert!(
                            same(a.re, b.re) && same(a.im, b.im),
                            "n={n} inverse={inverse}: {a:?} vs {b:?}"
                        );
                    }
                }
            }
            n <<= 1;
        }
    }

    #[test]
    fn into_variants_match_to_vec_exactly() {
        // The workspace refactor's contract: the `_into` entry point is
        // bit-identical to the allocating convenience path.
        let mut rng = StdRng::seed_from_u64(12);
        let gauss = ComplexGaussian::unit();
        let fft = FftPlan::new(128);
        let mut out = vec![Complex64::ZERO; 128];
        for _ in 0..8 {
            let x: Vec<Complex64> = (0..128).map(|_| gauss.sample(&mut rng)).collect();
            fft.inverse_into(&x, &mut out);
            assert_eq!(out, fft.inverse_to_vec(&x));
        }
    }

    use std::f64::consts::PI;
}
