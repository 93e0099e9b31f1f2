//! Portable 4-lane f64 vectors for the modem's inner loops, and the one
//! probe that picks a kernel tier.
//!
//! The workspace has no external SIMD dependency and no nightly features, so
//! the "vectors" here are plain `[f64; 4]` wrappers whose lane operations are
//! written as straight-line element-wise arithmetic — the shape LLVM's
//! auto-vectoriser reliably turns into packed SSE/AVX instructions. The point
//! of the type is not intrinsics but *structure*: kernels written against
//! [`F64x4`]/[`C64x4`] keep independent work in independent lanes and keep
//! every per-lane operation identical to its scalar counterpart, so the
//! vectorised kernels are bit-identical to the scalar fallbacks by
//! construction (IEEE-754 arithmetic is deterministic per operation; lanes
//! never reassociate a scalar reduction).
//!
//! Every kernel with more than one tier dispatches on [`tier`], the only
//! place that reads the `simd` cargo feature ([`SIMD_ENABLED`]) and the
//! host CPU's features. The feature (on by default) selects the lane
//! kernels in `correlate`, `mixer`, `rng` (the keyed noise), and
//! `ssync_phy`'s Viterbi/demapper; building with `--no-default-features`
//! makes [`tier`] return [`Tier::Scalar`], which selects the scalar
//! fallbacks. Both paths are always compiled and unit-tested against each
//! other, which is what keeps the CI scalar job meaningful.
//!
//! On x86-64 hosts the `simd` build goes further. `delay::convolve_gather`,
//! the keyed noise and the cross-correlation's lag loop have compiled
//! twins: `#[target_feature]` functions that call the kernel's
//! `#[inline(always)]` portable body, so the same source is compiled for
//! wider registers with the same IEEE operations — an AVX2 twin, and an
//! AVX-512 twin (`avx2,avx512f,avx512dq,avx512vl`) for hosts that report
//! those. The FFT's AVX2 path, the CFO mixer's AVX2 kernel and
//! `ssync_phy`'s demap kernel are written in AVX2 intrinsics instead
//! (`fft.rs`, `mixer.rs`) and run on either x86 tier. `ssync_phy`'s
//! Viterbi add-compare-select has one intrinsics kernel per x86 tier: an
//! AVX2 one, and an AVX-512 one that keeps every path metric in registers.
//! The `tier_test` fixtures below serve their tier tests.

use crate::complex::Complex64;

/// Lane count of the portable vector types.
pub const LANES: usize = 4;

/// `true` when the `simd` feature is enabled, i.e. when the lane kernels are
/// the ones dispatched by this build. Kernels read it through [`tier`].
pub const SIMD_ENABLED: bool = cfg!(feature = "simd");

/// A kernel tier, from the slowest to the fastest. Tiers are ordered, so a
/// kernel written for AVX2 runs on `tier() >= Tier::Avx2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The scalar reference loops: the `--no-default-features` build.
    Scalar,
    /// The portable [`F64x4`]/[`C64x4`] kernels.
    Lanes,
    /// x86-64 with AVX2: the intrinsics kernels and the AVX2 twins.
    Avx2,
    /// x86-64 with AVX2, AVX-512F, AVX-512DQ and AVX-512VL: the AVX-512
    /// twins, `ssync_phy`'s AVX-512 Viterbi kernel, and the other AVX2
    /// intrinsics kernels.
    Avx512,
}

impl Tier {
    /// The tier's name as the ledger and `ssync-lab tier` print it.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Lanes => "lanes",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }
}

/// The kernel tier this build dispatches on this host: [`Tier::Scalar`]
/// without the `simd` feature, else the widest tier the CPU reports.
/// Chosen from the build and the CPU alone; nothing else selects it. Every
/// tier gives the same bits.
#[inline]
pub fn tier() -> Tier {
    if !SIMD_ENABLED {
        return Tier::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        let v4 = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl");
        return if v4 { Tier::Avx512 } else { Tier::Avx2 };
    }
    Tier::Lanes
}

/// Four f64 lanes operated on element-wise.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(transparent)]
pub struct F64x4(pub [f64; LANES]);

// Named methods rather than `std::ops` impls: the kernels chain them in
// method position and the lane types deliberately expose only the exact
// operation set the kernels use.
#[allow(clippy::should_implement_trait)]
impl F64x4 {
    /// All lanes zero.
    pub const ZERO: F64x4 = F64x4([0.0; LANES]);

    /// Broadcasts `v` into every lane.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        F64x4([v; LANES])
    }

    /// Loads four consecutive values from `s` starting at `offset`.
    #[inline(always)]
    pub fn load(s: &[f64], offset: usize) -> Self {
        F64x4([s[offset], s[offset + 1], s[offset + 2], s[offset + 3]])
    }

    /// Stores the lanes into `out[offset..offset + 4]`.
    #[inline(always)]
    pub fn store(self, out: &mut [f64], offset: usize) {
        out[offset..offset + LANES].copy_from_slice(&self.0);
    }

    /// Element-wise addition.
    #[inline(always)]
    pub fn add(self, rhs: Self) -> Self {
        F64x4([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
            self.0[3] + rhs.0[3],
        ])
    }

    /// Element-wise subtraction.
    #[inline(always)]
    pub fn sub(self, rhs: Self) -> Self {
        F64x4([
            self.0[0] - rhs.0[0],
            self.0[1] - rhs.0[1],
            self.0[2] - rhs.0[2],
            self.0[3] - rhs.0[3],
        ])
    }

    /// Element-wise multiplication.
    #[inline(always)]
    pub fn mul(self, rhs: Self) -> Self {
        F64x4([
            self.0[0] * rhs.0[0],
            self.0[1] * rhs.0[1],
            self.0[2] * rhs.0[2],
            self.0[3] * rhs.0[3],
        ])
    }

    /// Element-wise division.
    #[inline(always)]
    pub fn div(self, rhs: Self) -> Self {
        F64x4([
            self.0[0] / rhs.0[0],
            self.0[1] / rhs.0[1],
            self.0[2] / rhs.0[2],
            self.0[3] / rhs.0[3],
        ])
    }

    /// Element-wise negation (a sign flip, like `-x`).
    #[inline(always)]
    pub fn neg(self) -> Self {
        F64x4([-self.0[0], -self.0[1], -self.0[2], -self.0[3]])
    }

    /// Element-wise square root (correctly rounded, like `f64::sqrt`).
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        F64x4([
            self.0[0].sqrt(),
            self.0[1].sqrt(),
            self.0[2].sqrt(),
            self.0[3].sqrt(),
        ])
    }

    /// Per-lane strict greater-than comparison.
    #[inline(always)]
    pub fn gt(self, rhs: Self) -> [bool; LANES] {
        [
            self.0[0] > rhs.0[0],
            self.0[1] > rhs.0[1],
            self.0[2] > rhs.0[2],
            self.0[3] > rhs.0[3],
        ]
    }

    /// Per-lane select: lane i of the result is `a` where `mask[i]`, else `b`.
    #[inline(always)]
    pub fn select(mask: [bool; LANES], a: Self, b: Self) -> Self {
        F64x4([
            if mask[0] { a.0[0] } else { b.0[0] },
            if mask[1] { a.0[1] } else { b.0[1] },
            if mask[2] { a.0[2] } else { b.0[2] },
            if mask[3] { a.0[3] } else { b.0[3] },
        ])
    }
}

/// The real arithmetic of a kernel written once for both tiers: one `f64`
/// (the scalar tier) or an [`F64x4`] (the lanes tier). Every operation is
/// a single IEEE-754 operation per lane, so a kernel generic over `Real`
/// computes the same bits in either instantiation.
pub trait Real: Copy {
    /// Broadcasts `v`.
    fn splat(v: f64) -> Self;
    /// Addition.
    fn add(self, rhs: Self) -> Self;
    /// Subtraction.
    fn sub(self, rhs: Self) -> Self;
    /// Multiplication.
    fn mul(self, rhs: Self) -> Self;
    /// Division.
    fn div(self, rhs: Self) -> Self;
    /// Negation.
    fn neg(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Per lane: `a` where `self > than`, else `b`.
    fn select_gt(self, than: Self, a: Self, b: Self) -> Self;
}

impl Real for f64 {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }
    #[inline(always)]
    fn neg(self) -> Self {
        -self
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn select_gt(self, than: Self, a: Self, b: Self) -> Self {
        if self > than {
            a
        } else {
            b
        }
    }
}

impl Real for F64x4 {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        F64x4::splat(v)
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        F64x4::add(self, rhs)
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        F64x4::sub(self, rhs)
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        F64x4::mul(self, rhs)
    }
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        F64x4::div(self, rhs)
    }
    #[inline(always)]
    fn neg(self) -> Self {
        F64x4::neg(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        F64x4::sqrt(self)
    }
    #[inline(always)]
    fn select_gt(self, than: Self, a: Self, b: Self) -> Self {
        F64x4::select(self.gt(than), a, b)
    }
}

/// Four complex lanes in structure-of-arrays form.
///
/// Every operation mirrors the corresponding [`Complex64`] expression
/// term-for-term, so a lane computes exactly the bits the scalar code would.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64x4 {
    /// Real parts.
    pub re: F64x4,
    /// Imaginary parts.
    pub im: F64x4,
}

// Named methods rather than `std::ops` impls: the kernels chain them in
// method position and the lane types deliberately expose only the exact
// operation set the kernels use.
#[allow(clippy::should_implement_trait)]
impl C64x4 {
    /// All lanes zero.
    pub const ZERO: C64x4 = C64x4 {
        re: F64x4::ZERO,
        im: F64x4::ZERO,
    };

    /// Broadcasts `v` into every lane.
    #[inline(always)]
    pub fn splat(v: Complex64) -> Self {
        C64x4 {
            re: F64x4::splat(v.re),
            im: F64x4::splat(v.im),
        }
    }

    /// Loads four consecutive samples from `s` starting at `offset`.
    #[inline(always)]
    pub fn load(s: &[Complex64], offset: usize) -> Self {
        C64x4 {
            re: F64x4([
                s[offset].re,
                s[offset + 1].re,
                s[offset + 2].re,
                s[offset + 3].re,
            ]),
            im: F64x4([
                s[offset].im,
                s[offset + 1].im,
                s[offset + 2].im,
                s[offset + 3].im,
            ]),
        }
    }

    /// Extracts lane `i`.
    #[inline(always)]
    pub fn lane(self, i: usize) -> Complex64 {
        Complex64::new(self.re.0[i], self.im.0[i])
    }

    /// Stores the lanes into `out[offset..offset + 4]`.
    #[inline(always)]
    pub fn store(self, out: &mut [Complex64], offset: usize) {
        for i in 0..LANES {
            out[offset + i] = self.lane(i);
        }
    }

    /// Element-wise addition, mirroring `Complex64 + Complex64`.
    #[inline(always)]
    pub fn add(self, rhs: Self) -> Self {
        C64x4 {
            re: self.re.add(rhs.re),
            im: self.im.add(rhs.im),
        }
    }

    /// Element-wise subtraction, mirroring `Complex64 - Complex64`.
    #[inline(always)]
    pub fn sub(self, rhs: Self) -> Self {
        C64x4 {
            re: self.re.sub(rhs.re),
            im: self.im.sub(rhs.im),
        }
    }

    /// Element-wise product, mirroring `Complex64 * Complex64`:
    /// `re = a.re·b.re − a.im·b.im`, `im = a.re·b.im + a.im·b.re`.
    #[inline(always)]
    pub fn mul(self, rhs: Self) -> Self {
        C64x4 {
            re: self.re.mul(rhs.re).sub(self.im.mul(rhs.im)),
            im: self.re.mul(rhs.im).add(self.im.mul(rhs.re)),
        }
    }

    /// Element-wise `a · conj(b)`, mirroring the scalar composition
    /// `a * b.conj()` (conjugation negates `b.im`, then the product formula
    /// applies; IEEE negation is exact, so this equals the scalar bits).
    #[inline(always)]
    pub fn mul_conj(self, rhs: Self) -> Self {
        let neg_im = F64x4::ZERO.sub(rhs.im);
        self.mul(C64x4 {
            re: rhs.re,
            im: neg_im,
        })
    }

    /// Element-wise squared magnitude, mirroring `Complex64::norm_sqr`.
    #[inline(always)]
    pub fn norm_sqr(self) -> F64x4 {
        self.re.mul(self.re).add(self.im.mul(self.im))
    }
}

/// Fixtures shared by the per-kernel tier tests, which call each kernel's
/// AVX2 twin, portable body and scalar tier directly and compare bits.
#[cfg(test)]
pub(crate) mod tier_test {
    use crate::complex::Complex64;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Whether this host can run the AVX2 twins. When it cannot, prints a
    /// note naming the test so a skipped comparison is visible. Reads the
    /// CPU, not [`super::tier`], so the scalar build compares the twins
    /// too.
    pub(crate) fn host_has_avx2(test: &str) -> bool {
        #[cfg(target_arch = "x86_64")]
        let has = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let has = false;
        if !has {
            println!("{test}: host lacks AVX2; the AVX2 twin is not compared");
        }
        has
    }

    /// Whether this host can run the AVX-512 twins (AVX2, AVX-512F,
    /// AVX-512DQ and AVX-512VL). When it cannot, prints a note naming the
    /// test so a skipped comparison is visible.
    pub(crate) fn host_has_avx512(test: &str) -> bool {
        #[cfg(target_arch = "x86_64")]
        let has = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl");
        #[cfg(not(target_arch = "x86_64"))]
        let has = false;
        if !has {
            println!("{test}: host lacks AVX-512F/DQ/VL; the AVX-512 twin is not compared");
        }
        has
    }

    /// Values that stress IEEE edge cases: both zeros, subnormals, both
    /// infinities and NaN.
    const SPECIAL: [f64; 7] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 3.0,
        -f64::MIN_POSITIVE / 5.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    /// `n` samples in `[-2, 2)²`, with one part of roughly every fifth
    /// sample replaced by an entry of [`SPECIAL`] when `special` is set.
    pub(crate) fn samples(rng: &mut StdRng, n: usize, special: bool) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                let mut z = Complex64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
                if special && rng.gen_range(0..5) == 0 {
                    let v = SPECIAL[(i * 3 + n) % SPECIAL.len()];
                    if i % 2 == 0 {
                        z.re = v;
                    } else {
                        z.im = v;
                    }
                }
                z
            })
            .collect()
    }

    /// `v`'s bits, with every NaN mapped to one canonical pattern.
    ///
    /// Rust leaves the sign and payload of a NaN that arithmetic produces
    /// unspecified, and x86 returns the first operand's NaN when both are
    /// NaN, so two compilations of one source (the AVX2 twin commutes an
    /// addition the portable body does not) can disagree on a NaN's sign
    /// bit. Every other value, signed zeros and subnormals included, must
    /// match bit for bit.
    fn canonical_bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// Asserts two real vectors carry the same bits, element by element
    /// (NaN matches NaN whatever its sign or payload; see
    /// [`canonical_bits`]).
    pub(crate) fn assert_same_real_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(canonical_bits(*a), canonical_bits(*b), "{what}: {k}");
        }
    }

    /// [`assert_same_real_bits`] for complex samples, part by part.
    pub(crate) fn assert_same_bits(got: &[Complex64], want: &[Complex64], what: &str) {
        let parts = |v: &[Complex64]| -> Vec<f64> { v.iter().flat_map(|z| [z.re, z.im]).collect() };
        assert_same_real_bits(&parts(got), &parts(want), what);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_c(rng: &mut StdRng) -> Complex64 {
        Complex64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0))
    }

    #[test]
    fn lane_ops_match_scalar_bits() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let a: Vec<f64> = (0..LANES).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let b: Vec<f64> = (0..LANES).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let va = F64x4::load(&a, 0);
            let vb = F64x4::load(&b, 0);
            for i in 0..LANES {
                assert_eq!(va.add(vb).0[i].to_bits(), (a[i] + b[i]).to_bits());
                assert_eq!(va.sub(vb).0[i].to_bits(), (a[i] - b[i]).to_bits());
                assert_eq!(va.mul(vb).0[i].to_bits(), (a[i] * b[i]).to_bits());
                assert_eq!(va.div(vb).0[i].to_bits(), (a[i] / b[i]).to_bits());
                assert_eq!(va.neg().0[i].to_bits(), (-a[i]).to_bits());
                let root = F64x4::load(&a, 0).mul(va).sqrt().0[i];
                assert_eq!(root.to_bits(), (a[i] * a[i]).sqrt().to_bits());
                assert_eq!(va.gt(vb)[i], a[i] > b[i]);
            }
        }
    }

    #[test]
    fn complex_lane_ops_match_scalar_bits() {
        let mut rng = StdRng::seed_from_u64(18);
        for _ in 0..200 {
            let a: Vec<Complex64> = (0..LANES).map(|_| rand_c(&mut rng)).collect();
            let b: Vec<Complex64> = (0..LANES).map(|_| rand_c(&mut rng)).collect();
            let va = C64x4::load(&a, 0);
            let vb = C64x4::load(&b, 0);
            for i in 0..LANES {
                let prod = va.mul(vb).lane(i);
                let expect = a[i] * b[i];
                assert_eq!(prod.re.to_bits(), expect.re.to_bits());
                assert_eq!(prod.im.to_bits(), expect.im.to_bits());

                let pc = va.mul_conj(vb).lane(i);
                let ec = a[i] * b[i].conj();
                assert_eq!(pc.re.to_bits(), ec.re.to_bits());
                assert_eq!(pc.im.to_bits(), ec.im.to_bits());

                assert_eq!(va.norm_sqr().0[i].to_bits(), a[i].norm_sqr().to_bits(),);
                let s = va.add(vb).lane(i);
                let es = a[i] + b[i];
                assert_eq!(
                    (s.re.to_bits(), s.im.to_bits()),
                    (es.re.to_bits(), es.im.to_bits())
                );
            }
        }
    }

    #[test]
    fn tier_is_scalar_without_simd_else_the_widest_the_host_reports() {
        let want = if !SIMD_ENABLED {
            Tier::Scalar
        } else if tier_test::host_has_avx512("tier") {
            Tier::Avx512
        } else if tier_test::host_has_avx2("tier") {
            Tier::Avx2
        } else {
            Tier::Lanes
        };
        assert_eq!(tier(), want);
    }

    #[test]
    fn tiers_are_ordered_and_named() {
        let all = [Tier::Scalar, Tier::Lanes, Tier::Avx2, Tier::Avx512];
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        let names: Vec<&str> = all.iter().map(|t| t.name()).collect();
        assert_eq!(names, ["scalar", "lanes", "avx2", "avx512"]);
    }

    #[test]
    fn select_picks_by_mask() {
        let a = F64x4([1.0, 2.0, 3.0, 4.0]);
        let b = F64x4([-1.0, -2.0, -3.0, -4.0]);
        let picked = F64x4::select([true, false, true, false], a, b);
        assert_eq!(picked.0, [1.0, -2.0, 3.0, -4.0]);
    }

    #[test]
    fn store_roundtrips() {
        let mut out = vec![0.0; 8];
        F64x4([5.0, 6.0, 7.0, 8.0]).store(&mut out, 2);
        assert_eq!(&out[2..6], &[5.0, 6.0, 7.0, 8.0]);
        let mut cout = vec![Complex64::ZERO; 6];
        let src = [
            Complex64::new(1.0, -1.0),
            Complex64::new(2.0, -2.0),
            Complex64::new(3.0, -3.0),
            Complex64::new(4.0, -4.0),
        ];
        C64x4::load(&src, 0).store(&mut cout, 1);
        assert_eq!(&cout[1..5], &src);
    }
}
