//! Deterministic Gaussian sampling.
//!
//! All stochastic behaviour in the workspace (noise, fading taps, node
//! placement, detection jitter) flows through seeded [`rand::rngs::StdRng`]
//! instances and the samplers here, so every experiment is reproducible from
//! a single `u64` seed.
//!
//! Two samplers, for two jobs:
//!
//! * [`Gaussian`] and [`ComplexGaussian`] draw from the caller's RNG with
//!   the Box-Muller transform (no `rand_distr`). They serve the draws that
//!   shape a scenario — fading taps, placements, test fixtures.
//! * [`add_keyed_noise`] is receiver noise. A capture draws one `u64` key
//!   from its RNG, and complex sample `k` is then a pure function of
//!   `(key, k)`: the SplitMix64 sequence at counters `2k` and `2k + 1`
//!   feeds one Box-Muller pair, radius and angle. `ln` and `sin`/`cos`
//!   are plain IEEE polynomials (the exponent and mantissa come from the
//!   bits; the angle's quadrant from two hash bits), with no libm call and
//!   no fused multiply-add, so the noise bits do not depend on the host's
//!   libm. The kernel is written once over `simd::Real` and runs on
//!   [`F64x4`] lanes or one sample at a time with the same bits.

use crate::complex::Complex64;
use crate::simd::{tier, F64x4, Real, Tier, LANES};
use rand::Rng;

/// A real Gaussian distribution `N(mean, std²)`.
#[derive(Debug, Clone, Copy)]
pub struct Gaussian {
    mean: f64,
    std: f64,
}

impl Gaussian {
    /// Creates a Gaussian with the given mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `std` is negative or non-finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(
            std >= 0.0 && std.is_finite(),
            "std must be finite and non-negative"
        );
        Gaussian { mean, std }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Gaussian {
            mean: 0.0,
            std: 1.0,
        }
    }

    /// Draws one sample using the Box-Muller transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box-Muller: u1 in (0, 1] so ln is finite.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.mean + self.std * r * theta.cos()
    }
}

/// A circularly-symmetric complex Gaussian `CN(0, σ²)`:
/// real and imaginary parts are independent `N(0, σ²/2)`, so the expected
/// *power* `E[|z|²]` equals `σ²`.
///
/// This is the standard model for both AWGN noise samples and Rayleigh-fading
/// channel taps.
#[derive(Debug, Clone, Copy)]
pub struct ComplexGaussian {
    component_std: f64,
}

impl ComplexGaussian {
    /// Complex Gaussian with expected power `E[|z|²] = power`.
    ///
    /// # Panics
    /// Panics if `power` is negative or non-finite.
    pub fn with_power(power: f64) -> Self {
        assert!(
            power >= 0.0 && power.is_finite(),
            "power must be finite and non-negative"
        );
        ComplexGaussian {
            component_std: (power / 2.0).sqrt(),
        }
    }

    /// Unit-power complex Gaussian `CN(0, 1)`.
    pub fn unit() -> Self {
        Self::with_power(1.0)
    }

    /// Draws one complex sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Complex64 {
        let g = Gaussian::new(0.0, self.component_std);
        Complex64::new(g.sample(rng), g.sample(rng))
    }

    /// Draws `n` samples into a fresh vector.
    pub fn sample_vec<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Complex64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// SplitMix64's increment (the golden-ratio constant).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// `2⁻⁵³`: scales a 53-bit integer into `(0, 1]`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;
const MANTISSA: u64 = (1 << 52) - 1;
const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;
const EXPONENT_BIAS: i64 = 1023;
/// Samples per staging chunk of the lanes tier.
const CHUNK: usize = 64;

// ln(2) split so that `e · LN2_HI` is exact for any exponent `e`.
const LN2_HI: f64 = 0.693_147_180_369_123_8;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
// Minimax coefficients of `ln(1 + f)` through `s = f / (2 + f)` on
// `|s| ≤ 0.1716`, and of `sin`/`cos` on `[-π/4, π/4]` (fdlibm's
// `__ieee754_log`, `__kernel_sin` and `__kernel_cos`).
const LG1: f64 = 0.666_666_666_666_673_5;
const LG2: f64 = 0.399_999_999_994_094_2;
const LG3: f64 = 0.285_714_287_436_623_9;
const LG4: f64 = 0.222_221_984_321_497_84;
const LG5: f64 = 0.181_835_721_616_180_5;
const LG6: f64 = 0.153_138_376_992_093_73;
const LG7: f64 = 0.147_981_986_051_165_86;
const S1: f64 = -0.166_666_666_666_666_32;
const S2: f64 = 0.008_333_333_333_322_49;
const S3: f64 = -0.000_198_412_698_298_579_5;
const S4: f64 = 2.755_731_370_707_006_8e-6;
const S5: f64 = -2.505_076_025_340_686_3e-8;
const S6: f64 = 1.589_690_995_211_55e-10;
const C1: f64 = 0.041_666_666_666_666_6;
const C2: f64 = -0.001_388_888_888_887_411;
const C3: f64 = 2.480_158_728_947_673e-5;
const C4: f64 = -2.755_731_435_139_066_3e-7;
const C5: f64 = 2.087_572_321_298_175e-9;
const C6: f64 = -1.135_964_755_778_819_5e-11;

/// Word `counter` of the SplitMix64 sequence seeded with `key`.
#[inline(always)]
fn splitmix(key: u64, counter: u64) -> u64 {
    let mut z = key.wrapping_add(counter.wrapping_add(1).wrapping_mul(GAMMA));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The integer half of noise sample `k` under `key`, all from the bits:
/// the radius uniform `u = N·2⁻⁵³ ∈ (0, 1]` (`N` from the first word's
/// top 53 bits) as its binary exponent and its mantissa in `[1, 2)`; the
/// angle uniform in `[−½, ½)` (the second word's low 52 bits); the
/// quadrant (its top two bits).
#[inline(always)]
fn draw(key: u64, k: u64) -> (f64, f64, f64, u64) {
    let (h1, h2) = (splitmix(key, 2 * k), splitmix(key, 2 * k + 1));
    // N ≤ 2⁵³ converts exactly; the signed conversion is the cheap one.
    let u = ((h1 >> 11) + 1) as i64 as f64 * UNIT;
    let bits = u.to_bits();
    let exponent = ((bits >> 52) as i64 - EXPONENT_BIAS) as f64;
    let mantissa = f64::from_bits(ONE_BITS | (bits & MANTISSA));
    let t = f64::from_bits(ONE_BITS | (h2 & MANTISSA)) - 1.5;
    (exponent, mantissa, t, h2 >> 62)
}

/// `c[0] + z·(c[1] + z·(c[2] + …))`, innermost term first.
#[inline(always)]
fn horner<V: Real>(z: V, c: &[f64]) -> V {
    let (last, rest) = c.split_last().expect("at least one coefficient");
    rest.iter()
        .rev()
        .fold(V::splat(*last), |acc, &ci| V::splat(ci).add(z.mul(acc)))
}

/// `ln(2^e · m)` for `m ∈ [1, 2)`.
#[inline(always)]
fn ln_parts<V: Real>(e: V, m: V) -> V {
    // Fold m into (√2/2, √2] so |s| stays inside the polynomial's range.
    let sqrt2 = V::splat(std::f64::consts::SQRT_2);
    let half = V::splat(0.5);
    let (e, m) = (
        m.select_gt(sqrt2, e.add(V::splat(1.0)), e),
        m.select_gt(sqrt2, m.mul(half), m),
    );
    let f = m.sub(V::splat(1.0));
    let s = f.div(V::splat(2.0).add(f));
    let z = s.mul(s);
    let w = z.mul(z);
    let r = z
        .mul(horner(w, &[LG1, LG3, LG5, LG7]))
        .add(w.mul(horner(w, &[LG2, LG4, LG6])));
    let hfsq = half.mul(f).mul(f);
    let tail = hfsq.sub(s.mul(hfsq.add(r)).add(e.mul(V::splat(LN2_LO))));
    e.mul(V::splat(LN2_HI)).sub(tail.sub(f))
}

/// `(cos x, sin x)` for `|x| ≤ π/4`.
#[inline(always)]
fn sincos_quarter<V: Real>(x: V) -> (V, V) {
    let one = V::splat(1.0);
    let z = x.mul(x);
    let sin = x.add(z.mul(x).mul(horner(z, &[S1, S2, S3, S4, S5, S6])));
    let hz = V::splat(0.5).mul(z);
    let w = one.sub(hz);
    let cr = z.mul(horner(z, &[C1, C2, C3, C4, C5, C6]));
    // (1 − w) − hz recovers the rounding error of w.
    let cos = w.add(one.sub(w).sub(hz).add(z.mul(cr)));
    (cos, sin)
}

/// One Box-Muller pair before its quadrant turn: `σ·√(−2 ln u)` times
/// `(cos, sin)` of the angle `t·π/2`.
#[inline(always)]
fn polar<V: Real>(e: V, m: V, t: V, sigma: f64) -> (V, V) {
    let r = V::splat(-2.0)
        .mul(ln_parts(e, m))
        .sqrt()
        .mul(V::splat(sigma));
    let (c, s) = sincos_quarter(t.mul(V::splat(std::f64::consts::FRAC_PI_2)));
    (r.mul(c), r.mul(s))
}

/// Turns `(x, y)` by `quadrant` quarter turns — `(x, y)`, `(−y, x)`,
/// `(−x, −y)`, `(y, −x)` — with a swap and two sign flips on the bits:
/// exact, and free of data-dependent branches.
#[inline(always)]
fn turn(quadrant: u64, x: f64, y: f64) -> Complex64 {
    let (xb, yb) = (x.to_bits(), y.to_bits());
    let swap = (xb ^ yb) & (quadrant & 1).wrapping_neg();
    let re_sign = ((quadrant ^ (quadrant >> 1)) & 1) << 63;
    let im_sign = (quadrant >> 1) << 63;
    Complex64::new(
        f64::from_bits(xb ^ swap ^ re_sign),
        f64::from_bits(yb ^ swap ^ im_sign),
    )
}

/// The scalar tier: `buf[i]` gets noise sample `first + i`.
#[inline]
fn noise_scalar(buf: &mut [Complex64], key: u64, sigma: f64, first: usize) {
    for (i, s) in buf.iter_mut().enumerate() {
        let (e, m, t, quadrant) = draw(key, (first + i) as u64);
        let (x, y) = polar(e, m, t, sigma);
        *s += turn(quadrant, x, y);
    }
}

/// The lanes tier, staged per chunk of up to [`CHUNK`] samples: the
/// integer draws into arrays, then [`polar`] four lanes at a time, then
/// the quadrant turns. The samples past the last whole group of four go
/// through [`noise_scalar`].
#[inline(always)]
fn noise_lanes(buf: &mut [Complex64], key: u64, sigma: f64) {
    let (mut e, mut m, mut t, mut q) = ([0.0; CHUNK], [0.0; CHUNK], [0.0; CHUNK], [0; CHUNK]);
    let (mut x, mut y) = ([0.0; CHUNK], [0.0; CHUNK]);
    let whole = buf.len() - buf.len() % LANES;
    let mut start = 0;
    while start < whole {
        let len = CHUNK.min(whole - start);
        for l in 0..len {
            (e[l], m[l], t[l], q[l]) = draw(key, (start + l) as u64);
        }
        for j in (0..len).step_by(LANES) {
            let (a, b) = polar(
                F64x4::load(&e, j),
                F64x4::load(&m, j),
                F64x4::load(&t, j),
                sigma,
            );
            a.store(&mut x, j);
            b.store(&mut y, j);
        }
        for (l, s) in buf[start..start + len].iter_mut().enumerate() {
            *s += turn(q[l], x[l], y[l]);
        }
        start += len;
    }
    noise_scalar(&mut buf[whole..], key, sigma, whole);
}

/// Adds circularly-symmetric complex Gaussian noise of expected power
/// `power` to `buf`, sample `k` a pure function of `(key, k)` (see the
/// module docs). No-op for `power ≤ 0`.
///
/// # Panics
/// Panics if `power` is non-finite.
pub fn add_keyed_noise(buf: &mut [Complex64], key: u64, power: f64) {
    assert!(power.is_finite(), "noise power must be finite");
    if power <= 0.0 {
        return;
    }
    let sigma = (power / 2.0).sqrt();
    match tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier()` reported AVX2 and AVX-512F/DQ/VL at runtime, and
        // the twin only compiles the portable lanes tier for them.
        #[allow(unsafe_code)]
        Tier::Avx512 => unsafe { noise_avx512(buf, key, sigma) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier()` reported AVX2 at runtime, and the twin only
        // compiles the portable lanes tier for it.
        #[allow(unsafe_code)]
        Tier::Avx2 => unsafe { noise_avx2(buf, key, sigma) },
        Tier::Scalar => noise_scalar(buf, key, sigma, 0),
        _ => noise_lanes(buf, key, sigma),
    }
}

/// [`noise_lanes`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn noise_avx2(buf: &mut [Complex64], key: u64, sigma: f64) {
    noise_lanes(buf, key, sigma);
}

/// [`noise_lanes`] compiled for AVX-512F/DQ/VL, which have the 64-bit
/// multiply and the integer-to-double conversion the SplitMix64 half
/// needs.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
fn noise_avx512(buf: &mut [Complex64], key: u64, sigma: f64) {
    noise_lanes(buf, key, sigma);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::tier_test;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = Gaussian::new(3.0, 2.0);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn complex_gaussian_power() {
        let mut rng = StdRng::seed_from_u64(43);
        let cg = ComplexGaussian::with_power(2.5);
        let n = 200_000;
        let p = (0..n).map(|_| cg.sample(&mut rng).norm_sqr()).sum::<f64>() / n as f64;
        assert!((p - 2.5).abs() < 0.05, "power {p}");
    }

    #[test]
    fn complex_gaussian_is_circular() {
        // Real and imaginary components should be uncorrelated with equal
        // variance, and E[z²] ≈ 0 for a circularly symmetric distribution.
        let mut rng = StdRng::seed_from_u64(44);
        let cg = ComplexGaussian::unit();
        let n = 200_000;
        let mut zz = Complex64::ZERO;
        for _ in 0..n {
            let z = cg.sample(&mut rng);
            zz += z * z;
        }
        let pseudo = zz.scale(1.0 / n as f64);
        assert!(pseudo.abs() < 0.02, "pseudo-variance {pseudo:?}");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let cg = ComplexGaussian::unit();
        let a = cg.sample_vec(&mut StdRng::seed_from_u64(7), 16);
        let b = cg.sample_vec(&mut StdRng::seed_from_u64(7), 16);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn zero_power_yields_zero_samples() {
        let mut rng = StdRng::seed_from_u64(45);
        let cg = ComplexGaussian::with_power(0.0);
        for _ in 0..10 {
            assert_eq!(cg.sample(&mut rng), Complex64::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_power() {
        let _ = ComplexGaussian::with_power(-1.0);
    }

    /// `n` samples of keyed noise at `power` on a zero buffer.
    fn keyed(key: u64, power: f64, n: usize) -> Vec<Complex64> {
        let mut buf = vec![Complex64::ZERO; n];
        add_keyed_noise(&mut buf, key, power);
        buf
    }

    const N: usize = 1 << 20;

    /// Asserts `|value − expect| ≤ 4·se`.
    fn within_4_sigma(what: &str, value: f64, expect: f64, se: f64) {
        assert!(
            (value - expect).abs() <= 4.0 * se,
            "{what}: {value} vs {expect} ± 4·{se}"
        );
    }

    #[test]
    fn keyed_noise_moments_within_4_sigma() {
        let p = 2.5;
        let z = keyed(0x0123_4567_89AB_CDEF, p, N);
        let n = N as f64;
        let var = p / 2.0; // per component
        let mean = |f: &dyn Fn(&Complex64) -> f64| z.iter().map(f).sum::<f64>() / n;
        within_4_sigma("mean re", mean(&|s| s.re), 0.0, (var / n).sqrt());
        within_4_sigma("mean im", mean(&|s| s.im), 0.0, (var / n).sqrt());
        // |z|² is exponential with mean p: its standard deviation is p.
        within_4_sigma("power", mean(&|s| s.norm_sqr()), p, p / n.sqrt());
        within_4_sigma("re·im", mean(&|s| s.re * s.im), 0.0, var / n.sqrt());
        for part in [|s: &Complex64| s.re, |s: &Complex64| s.im] {
            // The sample kurtosis of a normal is 3 with standard error √(24/n).
            let m2 = mean(&|s| part(s).powi(2));
            let m4 = mean(&|s| part(s).powi(4));
            within_4_sigma("kurtosis", m4 / (m2 * m2), 3.0, (24.0 / n).sqrt());
        }
        for lag in 1..=16 {
            // Re and Im of z_k·conj(z_{k+lag}) each have variance p²/2.
            let m = (N - lag) as f64;
            let acc = z[..N - lag]
                .iter()
                .zip(&z[lag..])
                .fold(Complex64::ZERO, |acc, (a, b)| acc + *a * b.conj())
                .scale(1.0 / m);
            let se = p / (2.0 * m).sqrt();
            within_4_sigma(&format!("lag {lag} re"), acc.re, 0.0, se);
            within_4_sigma(&format!("lag {lag} im"), acc.im, 0.0, se);
        }
    }

    /// The standard normal CDF through `erfc` (Numerical Recipes' Chebyshev
    /// fit, relative error below 1.2e-7 — far inside the KS critical value).
    fn normal_cdf(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = [
            -1.265_512_23,
            1.000_023_68,
            0.374_091_96,
            0.096_784_18,
            -0.186_288_06,
            0.278_868_07,
            -1.135_203_98,
            1.488_515_87,
            -0.822_152_23,
            0.170_872_77,
        ]
        .iter()
        .rev()
        .fold(0.0, |acc, c| c + t * acc);
        let erfc = t * (-z * z + poly).exp();
        if x >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    #[test]
    fn keyed_noise_passes_kolmogorov_smirnov() {
        let p = 0.8;
        let z = keyed(0xFEED_F00D, p, N);
        let sd = (p / 2.0).sqrt();
        for part in [|s: &Complex64| s.re, |s: &Complex64| s.im] {
            let mut xs: Vec<f64> = z.iter().map(part).collect();
            xs.sort_by(f64::total_cmp);
            let n = xs.len() as f64;
            let d = xs
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    let f = normal_cdf(x / sd);
                    (f - i as f64 / n).max((i + 1) as f64 / n - f)
                })
                .fold(0.0, f64::max);
            // The 1 % critical value of the one-sample KS statistic.
            let critical = 1.628 / n.sqrt();
            assert!(d < critical, "KS D {d} ≥ {critical}");
        }
    }

    #[test]
    fn keyed_noise_streams_under_two_keys_are_uncorrelated() {
        let (a, b) = (keyed(1, 1.0, N), keyed(2, 1.0, N));
        let cross = a
            .iter()
            .zip(&b)
            .fold(Complex64::ZERO, |acc, (x, y)| acc + *x * y.conj())
            .scale(1.0 / N as f64);
        let se = 1.0 / (2.0 * N as f64).sqrt();
        within_4_sigma("cross re", cross.re, 0.0, se);
        within_4_sigma("cross im", cross.im, 0.0, se);
    }

    #[test]
    fn keyed_noise_tiers_bitwise_match_with_odd_tails() {
        // The lanes tier, its AVX2 and AVX-512 twins and the scalar tier on
        // the same buffers: lengths shorter than a lane group, odd, and
        // either side of a staging chunk, over plain values and over IEEE
        // edge values already in the buffer.
        let avx2 = tier_test::host_has_avx2("keyed_noise_tiers_bitwise_match_with_odd_tails");
        let avx512 = tier_test::host_has_avx512("keyed_noise_tiers_bitwise_match_with_odd_tails");
        let mut rng = StdRng::seed_from_u64(46);
        for n in (0..=9).chain([63, 64, 65, 129, 1_001]) {
            let plain: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new(i as f64 * 0.5, -(i as f64)))
                .collect();
            let special = tier_test::samples(&mut rng, n, true);
            for (key, sigma, base) in [(99, 0.7, plain), (u64::MAX, 3e-200, special)] {
                let (mut lanes, mut scalar) = (base.clone(), base.clone());
                noise_lanes(&mut lanes, key, sigma);
                noise_scalar(&mut scalar, key, sigma, 0);
                let what = format!("n {n} key {key}");
                tier_test::assert_same_bits(&lanes, &scalar, &format!("{what}: lanes"));
                #[cfg(target_arch = "x86_64")]
                if avx2 {
                    let mut twin = base.clone();
                    // SAFETY: AVX2 was detected above.
                    #[allow(unsafe_code)]
                    unsafe {
                        noise_avx2(&mut twin, key, sigma)
                    };
                    tier_test::assert_same_bits(&twin, &scalar, &format!("{what}: avx2"));
                }
                #[cfg(target_arch = "x86_64")]
                if avx512 {
                    let mut twin = base;
                    // SAFETY: AVX2 and AVX-512F/DQ/VL were detected above.
                    #[allow(unsafe_code)]
                    unsafe {
                        noise_avx512(&mut twin, key, sigma)
                    };
                    tier_test::assert_same_bits(&twin, &scalar, &format!("{what}: avx512"));
                }
            }
        }
    }

    #[test]
    fn keyed_noise_prefix_is_independent_of_buffer_length() {
        let long = keyed(7, 1.0, 1_000);
        for n in [1, 3, 4, 5, 250, 999] {
            let short = keyed(7, 1.0, n);
            for (a, b) in short.iter().zip(&long) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn polynomial_ln_and_sincos_track_libm() {
        // Not a bit-identity claim (libm varies by host): an accuracy one.
        for k in 0..4096u64 {
            let (e, m, t, _) = draw(0xABCD, k);
            let u = m * (2f64).powi(e as i32);
            let ln = ln_parts(e, m);
            assert!((ln - u.ln()).abs() <= 4.0 * f64::EPSILON * u.ln().abs().max(1.0));
            let x = t * std::f64::consts::FRAC_PI_2;
            let (c, s) = sincos_quarter(x);
            assert!((c - x.cos()).abs() <= 2.0 * f64::EPSILON, "cos {x}");
            assert!((s - x.sin()).abs() <= 2.0 * f64::EPSILON, "sin {x}");
        }
    }

    #[test]
    fn keyed_noise_zero_power_is_a_noop() {
        let mut buf = vec![Complex64::ONE; 5];
        add_keyed_noise(&mut buf, 3, 0.0);
        assert!(buf.iter().all(|s| *s == Complex64::ONE));
    }
}
