//! Complex numbers for baseband signal processing.
//!
//! A deliberately small, fully-owned implementation: the reproduction's whole
//! signal path (modem, channel, synchronizer) runs on this type, so keeping it
//! in-tree makes the numeric behaviour auditable and keeps the dependency set
//! to the sanctioned crates only.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number `re + j·im`.
///
/// `repr(C)` fixes the layout at `re` then `im`, so a slice of samples is
/// interleaved `f64` pairs, which the FFT's AVX2 path loads directly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real (in-phase) part.
    pub re: f64,
    /// Imaginary (quadrature) part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `j`.
    pub const J: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates (magnitude, phase in
    /// radians).
    #[inline]
    pub fn from_polar(mag: f64, phase: f64) -> Self {
        Complex64::new(mag * phase.cos(), mag * phase.sin())
    }

    /// `e^{jθ}` — a unit phasor at angle `theta` radians.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex64::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Squared magnitude `|z|²` (avoids the square root).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Phase angle in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse. Returns a non-finite value for zero input, as
    /// with floating point division.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex64::new(self.re / d, -self.im / d)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// Rotates by angle `theta` radians (multiplication by `e^{jθ}`).
    #[inline]
    pub fn rotate(self, theta: f64) -> Self {
        self * Complex64::cis(theta)
    }

    /// `true` if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Euclidean distance `|a − b|`.
    #[inline]
    pub fn dist(self, other: Complex64) -> f64 {
        (self - other).abs()
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    // Complex division IS multiplication by the reciprocal.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.inv()
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        self.scale(1.0 / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::real(re)
    }
}

/// Mean power `Σ|z|²/N` of a slice of samples. Returns 0 for an empty slice.
pub fn mean_power(samples: &[Complex64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|s| s.norm_sqr()).sum::<f64>() / samples.len() as f64
}

/// Total energy `Σ|z|²` of a slice of samples.
pub fn energy(samples: &[Complex64]) -> f64 {
    samples.iter().map(|s| s.norm_sqr()).sum()
}

/// Scales a waveform in place so its mean power becomes `target_power`.
/// A zero waveform is left untouched.
pub fn normalize_power(samples: &mut [Complex64], target_power: f64) {
    let p = mean_power(samples);
    if p > 0.0 {
        let k = (target_power / p).sqrt();
        for s in samples.iter_mut() {
            *s = s.scale(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert_eq!(z - z, Complex64::ZERO);
        let w = z * z.inv();
        assert!(close(w.re, 1.0) && close(w.im, 0.0));
    }

    #[test]
    fn j_squared_is_minus_one() {
        let jj = Complex64::J * Complex64::J;
        assert!(close(jj.re, -1.0) && close(jj.im, 0.0));
    }

    #[test]
    fn magnitude_and_phase() {
        let z = Complex64::new(3.0, 4.0);
        assert!(close(z.abs(), 5.0));
        assert!(close(z.norm_sqr(), 25.0));
        let p = Complex64::from_polar(2.0, PI / 3.0);
        assert!(close(p.abs(), 2.0));
        assert!(close(p.arg(), PI / 3.0));
    }

    #[test]
    fn conjugate_multiplication_gives_power() {
        let z = Complex64::new(1.5, -2.5);
        let p = z * z.conj();
        assert!(close(p.re, z.norm_sqr()));
        assert!(close(p.im, 0.0));
    }

    #[test]
    fn rotation_preserves_magnitude() {
        let z = Complex64::new(1.0, 2.0);
        let r = z.rotate(1.2345);
        assert!(close(z.abs(), r.abs()));
        assert!(close((r.arg() - z.arg() + 2.0 * PI) % (2.0 * PI), 1.2345));
    }

    #[test]
    fn division_matches_multiplication() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(-1.0, 0.5);
        let q = a / b;
        let back = q * b;
        assert!(close(back.re, a.re) && close(back.im, a.im));
    }

    #[test]
    fn power_helpers() {
        let mut v = vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, 1.0)];
        assert!(close(mean_power(&v), 1.0));
        assert!(close(energy(&v), 2.0));
        normalize_power(&mut v, 4.0);
        assert!(close(mean_power(&v), 4.0));
        assert!(close(mean_power(&[]), 0.0));
    }

    #[test]
    fn cis_matches_from_polar() {
        for k in 0..16 {
            let th = k as f64 * PI / 8.0;
            assert!(Complex64::cis(th).dist(Complex64::from_polar(1.0, th)) < 1e-14);
        }
    }

    #[test]
    fn sum_over_iterator() {
        let v = [Complex64::new(1.0, 1.0); 10];
        let s: Complex64 = v.iter().copied().sum();
        assert!(close(s.re, 10.0) && close(s.im, 10.0));
    }
}
