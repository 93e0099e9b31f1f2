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
//! On x86-64 hosts with AVX2 (and the `simd` feature), sizes 4–128 run the
//! same butterflies in 256-bit registers, two interleaved complex samples
//! per register, with the first two stages fused and read straight from
//! the bit-reversed positions ([`FftPlan`]'s private `transform_avx2`).
//! Every output keeps the portable body's operations, so both paths give
//! the same bits; every other size, and the `--no-default-features`
//! build, runs the portable body.
//!
//! Sizes must be powers of two (64 and 128 in this workspace). The
//! convention is the signal-processing one:
//!
//! * `forward`:  `X[k] = Σ_n x[n]·e^{−j2πkn/N}` (no scaling)
//! * `inverse`:  `x[n] = (1/N)·Σ_k X[k]·e^{+j2πkn/N}`
//!
//! so `inverse(forward(x)) == x` to floating-point precision.

use crate::complex::Complex64;
use crate::simd::{tier, Tier};
use std::f64::consts::PI;

/// The sizes the AVX2 path serves (on `simd` x86-64 builds): from 4, the
/// smallest with the fused first two stages, to 128, whose staged input
/// copy still fits comfortably on the stack.
const AVX2_SIZES: std::ops::RangeInclusive<usize> = 4..=128;

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
    // The AVX2 path's twiddle pairs; empty where that path is not taken.
    pairs: TwiddlePairs,
}

/// The stage twiddles laid out for the AVX2 butterflies, which hold two
/// interleaved complex samples per 256-bit register. Each twiddle of
/// `stages`, in order, contributes its real part twice to `re`, and its
/// imaginary part twice to `im` and (from `stages_inv`) to `im_inv`. One
/// load at `2·(off + k)` then reads a stage's twiddles `k` and `k + 1` as
/// `[wr_k, wr_k, wr_k+1, wr_k+1]`.
#[derive(Debug, Clone, Default)]
struct TwiddlePairs {
    re: Vec<f64>,
    im: Vec<f64>,
    im_inv: Vec<f64>,
}

impl TwiddlePairs {
    fn new(stages: &[Complex64], stages_inv: &[Complex64]) -> Self {
        let dup = |part: fn(&Complex64) -> f64, tab: &[Complex64]| -> Vec<f64> {
            tab.iter().flat_map(|w| [part(w), part(w)]).collect()
        };
        TwiddlePairs {
            re: dup(|w| w.re, stages),
            im: dup(|w| w.im, stages),
            im_inv: dup(|w| w.im, stages_inv),
        }
    }
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
        let stages_inv: Vec<Complex64> = stages.iter().map(|w| w.conj()).collect();
        let bitrev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - log2n))
            .collect();
        let pairs = if tier() >= Tier::Avx2 && AVX2_SIZES.contains(&n) {
            TwiddlePairs::new(&stages, &stages_inv)
        } else {
            TwiddlePairs::default()
        };
        FftPlan {
            n,
            stages,
            stages_inv,
            bitrev,
            pairs,
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

    /// The transform, through the AVX2 path where the plan holds its
    /// twiddle pairs and the host has AVX2, else through
    /// [`FftPlan::transform_body`]; both give the same bits.
    fn transform(&self, buf: &mut [Complex64], inverse: bool) {
        assert_eq!(
            buf.len(),
            self.n,
            "buffer length {} != FFT size {}",
            buf.len(),
            self.n
        );
        #[cfg(target_arch = "x86_64")]
        if !self.pairs.re.is_empty() && tier() >= Tier::Avx2 {
            // SAFETY: `tier()` reported AVX2 support at runtime.
            #[allow(unsafe_code)]
            unsafe {
                self.transform_avx2(buf, inverse)
            };
            return;
        }
        self.transform_body(buf, inverse);
    }

    /// The portable transform: the bit-reversal permutation, then the
    /// radix-2 butterflies stage by stage, then the inverse's `1/N` scale.
    fn transform_body(&self, buf: &mut [Complex64], inverse: bool) {
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

    /// [`FftPlan::transform_body`]'s butterflies in 256-bit registers, two
    /// interleaved complex samples per register, for the sizes in
    /// [`AVX2_SIZES`].
    ///
    /// Every output is the portable body's expression. `t = b·w` is formed
    /// as `b·[wr, wr]` and `swap(b)·[wi, wi]` joined by `vaddsubpd`, giving
    /// `br·wr − bi·wi` and `bi·wr + br·wi`: the second is the portable
    /// `br·wi + bi·wr` with its addends commuted, which IEEE addition
    /// allows bit for bit. The first two stages run fused per block of four
    /// outputs, reading the block's inputs straight from their bit-reversed
    /// positions in a staged copy of `buf`; the later stages take two
    /// butterflies per iteration with the twiddle pairs built with the plan.
    /// The inverse scales by the same `1/N`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // The raw-pointer loads and stores below; each carries its bounds
    // argument in a SAFETY comment.
    #[allow(unsafe_code)]
    fn transform_avx2(&self, buf: &mut [Complex64], inverse: bool) {
        use std::arch::x86_64::*;
        let n = self.n;
        assert!(AVX2_SIZES.contains(&n) && buf.len() == n && self.pairs.re.len() == 2 * (n - 1));
        // The input, staged unzeroed: only its first n samples are
        // written, and only those are read.
        let mut staged = [std::mem::MaybeUninit::<Complex64>::uninit(); *AVX2_SIZES.end()];
        for (slot, &x) in staged.iter_mut().zip(buf.iter()) {
            slot.write(x);
        }
        // `Complex64` is `repr(C)`: `re` then `im`.
        let src = staged.as_ptr().cast::<f64>();
        let out = buf.as_mut_ptr().cast::<f64>();
        let im = if inverse {
            &self.pairs.im_inv
        } else {
            &self.pairs.im
        };
        let (wr, wi) = (self.pairs.re.as_ptr(), im.as_ptr());
        // Stage 1's one twiddle, and stage 2's two (table entries 1 and 2).
        let (w1r, w1i) = (_mm256_set1_pd(self.pairs.re[0]), _mm256_set1_pd(im[0]));
        // SAFETY: the tables hold 2·(n − 1) ≥ 6 values.
        let (w2r, w2i) = unsafe { (_mm256_loadu_pd(wr.add(2)), _mm256_loadu_pd(wi.add(2))) };
        for (block, rev) in self.bitrev.chunks_exact(4).enumerate() {
            let at = |k: usize| 2 * rev[k] as usize;
            // SAFETY: every bit-reversed index is below n, so each 128-bit
            // load reads one staged sample, written above.
            let (x02, x13) = unsafe {
                (
                    _mm256_loadu2_m128d(src.add(at(2)), src.add(at(0))),
                    _mm256_loadu2_m128d(src.add(at(3)), src.add(at(1))),
                )
            };
            let t = cmul(x13, w1r, w1i);
            let y02 = _mm256_add_pd(x02, t);
            let y13 = _mm256_sub_pd(x02, t);
            let y01 = _mm256_permute2f128_pd::<0x20>(y02, y13);
            let y23 = _mm256_permute2f128_pd::<0x31>(y02, y13);
            let t = cmul(y23, w2r, w2i);
            // SAFETY: the block's four outputs 4·block .. 4·block + 3 are
            // below n.
            unsafe {
                _mm256_storeu_pd(out.add(8 * block), _mm256_add_pd(y01, t));
                _mm256_storeu_pd(out.add(8 * block + 4), _mm256_sub_pd(y01, t));
            }
        }
        let mut half = 4usize;
        while half < n {
            // The stage's twiddles start at entry half − 1 of `stages`.
            let off = 2 * (half - 1);
            for span in (0..n).step_by(2 * half) {
                for k in (0..half).step_by(2) {
                    // SAFETY: span + half + k + 2 ≤ n, and the last pair
                    // load ends at off + 2·k + 4 ≤ 2·(n − 1), the table
                    // length.
                    unsafe {
                        let pa = out.add(2 * (span + k));
                        let pb = out.add(2 * (span + half + k));
                        let a = _mm256_loadu_pd(pa);
                        let t = cmul(
                            _mm256_loadu_pd(pb),
                            _mm256_loadu_pd(wr.add(off + 2 * k)),
                            _mm256_loadu_pd(wi.add(off + 2 * k)),
                        );
                        _mm256_storeu_pd(pa, _mm256_add_pd(a, t));
                        _mm256_storeu_pd(pb, _mm256_sub_pd(a, t));
                    }
                }
            }
            half <<= 1;
        }
        if inverse {
            let inv_n = _mm256_set1_pd(1.0 / n as f64);
            for i in (0..2 * n).step_by(4) {
                // SAFETY: i + 4 ≤ 2·n, the buffer's length in `f64`s.
                unsafe {
                    let p = out.add(i);
                    _mm256_storeu_pd(p, _mm256_mul_pd(_mm256_loadu_pd(p), inv_n));
                }
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

/// `b·w` for the two interleaved complex samples of `b`, with `w`'s real
/// and imaginary parts each duplicated per sample: `[br·wr − bi·wi,
/// bi·wr + br·wi]` per sample (see [`FftPlan::transform_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) fn cmul(
    b: std::arch::x86_64::__m256d,
    wr: std::arch::x86_64::__m256d,
    wi: std::arch::x86_64::__m256d,
) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    _mm256_addsub_pd(
        _mm256_mul_pd(b, wr),
        _mm256_mul_pd(_mm256_permute_pd::<0b0101>(b), wi),
    )
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::ComplexGaussian;
    use crate::simd::tier_test;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Circularly convolves `a` and `b` (equal lengths, power of two) via the FFT.
    fn circular_convolve(a: &[Complex64], b: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(a.len(), b.len());
        let fft = FftPlan::new(a.len());
        let fa = fft.forward_to_vec(a);
        let fb = fft.forward_to_vec(b);
        let prod: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x * *y).collect();
        fft.inverse_to_vec(&prod)
    }

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
    fn avx2_path_matches_portable_body_bitwise() {
        // Every size 2…1024 through one reused plan each, forward and
        // inverse: the dispatched transform (the AVX2 path at its sizes on
        // AVX2 hosts, the portable body elsewhere) and the AVX2 path called
        // directly against the portable body. Inputs: random, random with
        // ±0, subnormals, ±∞ and NaN mixed in, and ±1e300, which overflow
        // inside the butterflies. NaN matches any NaN.
        let avx2 = tier_test::host_has_avx2("avx2_path_matches_portable_body_bitwise");
        let mut rng = StdRng::seed_from_u64(14);
        let mut n = 2usize;
        while n <= 1024 {
            let plan = FftPlan::new(n);
            let huge = |i: usize| if i.is_multiple_of(3) { -1e300 } else { 1e300 };
            let inputs = [
                tier_test::samples(&mut rng, n, false),
                tier_test::samples(&mut rng, n, true),
                (0..n)
                    .map(|i| Complex64::new(huge(i), huge(i + 1)))
                    .collect(),
            ];
            for (which, x) in inputs.iter().enumerate() {
                for inverse in [false, true] {
                    let what = format!("n={n} input {which} inverse={inverse}");
                    let mut want = x.clone();
                    plan.transform_body(&mut want, inverse);
                    let mut got = x.clone();
                    plan.transform(&mut got, inverse);
                    tier_test::assert_same_bits(&got, &want, &what);
                    #[cfg(target_arch = "x86_64")]
                    if avx2 && !plan.pairs.re.is_empty() {
                        let mut twin = x.clone();
                        // SAFETY: AVX2 detected above.
                        #[allow(unsafe_code)]
                        unsafe {
                            plan.transform_avx2(&mut twin, inverse)
                        };
                        tier_test::assert_same_bits(&twin, &want, &format!("{what}: avx2"));
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
