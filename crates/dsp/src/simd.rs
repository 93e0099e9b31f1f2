//! Portable 4-lane f64 vectors for the modem's inner loops.
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
//! The `simd` cargo feature (on by default) selects the lane kernels at the
//! call sites in `correlate`, `mixer`, and `ssync_phy`'s Viterbi/demapper;
//! building with `--no-default-features` selects the scalar fallbacks. Both
//! paths are always compiled and unit-tested against each other, which is
//! what keeps the CI scalar job meaningful.

use crate::complex::Complex64;

/// Lane count of the portable vector types.
pub const LANES: usize = 4;

/// `true` when the `simd` feature is enabled, i.e. when the lane kernels are
/// the ones dispatched by this build.
pub const SIMD_ENABLED: bool = cfg!(feature = "simd");

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
