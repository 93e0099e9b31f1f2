//! Constellation mapping and soft demapping.
//!
//! Gray-coded BPSK/QPSK/16-QAM/64-QAM with the 802.11 normalisation factors
//! (1, 1/√2, 1/√10, 1/√42) so every constellation has unit average power.
//! Demapping produces exact max-log per-bit LLRs by scanning the
//! constellation — O(M) per symbol, simple and correct, and fast enough for
//! a simulator.

pub use crate::params::Modulation;
use ssync_dsp::simd::{F64x4, LANES, SIMD_ENABLED};
use ssync_dsp::Complex64;

/// Per-axis Gray-coded PAM levels for `bits_per_axis` bits, in 802.11 order.
///
/// 1 bit: `0 → −1, 1 → +1`; 2 bits: `00 → −3, 01 → −1, 11 → +1, 10 → +3`;
/// 3 bits: standard 8-level Gray ordering.
fn pam_level(bits: &[u8]) -> f64 {
    match bits {
        [b0] => (2 * b0) as f64 - 1.0,
        [b0, b1] => {
            let idx = (b0 << 1 | b1) as usize; // 00,01,11,10 -> -3,-1,1,3
            const MAP: [f64; 4] = [-3.0, -1.0, 3.0, 1.0];
            MAP[idx]
        }
        [b0, b1, b2] => {
            let idx = (b0 << 2 | b1 << 1 | b2) as usize;
            const MAP: [f64; 8] = [-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0];
            MAP[idx]
        }
        _ => unreachable!("1..=3 bits per axis"),
    }
}

/// Normalisation factor K_MOD so E[|x|²] = 1.
pub fn normalization(m: Modulation) -> f64 {
    match m {
        Modulation::Bpsk => 1.0,
        Modulation::Qpsk => 1.0 / 2f64.sqrt(),
        Modulation::Qam16 => 1.0 / 10f64.sqrt(),
        Modulation::Qam64 => 1.0 / 42f64.sqrt(),
    }
}

/// Maps `bits_per_symbol` bits to one constellation point.
///
/// # Panics
/// Panics if `bits.len() != m.bits_per_symbol()`.
pub fn map_symbol(m: Modulation, bits: &[u8]) -> Complex64 {
    assert_eq!(bits.len(), m.bits_per_symbol(), "bit group size mismatch");
    let k = normalization(m);
    match m {
        Modulation::Bpsk => Complex64::new(pam_level(&bits[..1]) * k, 0.0),
        Modulation::Qpsk => Complex64::new(pam_level(&bits[..1]) * k, pam_level(&bits[1..2]) * k),
        Modulation::Qam16 => Complex64::new(pam_level(&bits[..2]) * k, pam_level(&bits[2..4]) * k),
        Modulation::Qam64 => Complex64::new(pam_level(&bits[..3]) * k, pam_level(&bits[3..6]) * k),
    }
}

/// Maps a bit stream to constellation points; the stream length must be a
/// multiple of `bits_per_symbol`.
pub fn map_bits(m: Modulation, bits: &[u8]) -> Vec<Complex64> {
    let bps = m.bits_per_symbol();
    assert_eq!(
        bits.len() % bps,
        0,
        "bit stream not a multiple of bits/symbol"
    );
    bits.chunks(bps).map(|g| map_symbol(m, g)).collect()
}

/// The full constellation: all `2^bps` points with their bit labels.
pub fn constellation(m: Modulation) -> Vec<(Vec<u8>, Complex64)> {
    let bps = m.bits_per_symbol();
    (0..(1usize << bps))
        .map(|v| {
            let bits: Vec<u8> = (0..bps).map(|i| ((v >> (bps - 1 - i)) & 1) as u8).collect();
            let pt = map_symbol(m, &bits);
            (bits, pt)
        })
        .collect()
}

/// Exact max-log LLRs for one received symbol `y` with channel gain `h` and
/// noise variance `n0` (per complex dimension total). Convention: positive
/// LLR means bit 0 is more likely (matches [`crate::viterbi`]).
///
/// The scan equalises by comparing `y` against `h·x` for every constellation
/// point `x`, which is exact for a single-tap (per-subcarrier) channel.
pub fn demap_llrs(m: Modulation, y: Complex64, h: Complex64, n0: f64) -> Vec<f64> {
    let bps = m.bits_per_symbol();
    let points = constellation(m);
    let mut min0 = vec![f64::INFINITY; bps];
    let mut min1 = vec![f64::INFINITY; bps];
    for (bits, x) in &points {
        let d = y.dist(h * *x);
        let metric = d * d;
        for (i, &b) in bits.iter().enumerate() {
            if b == 0 {
                if metric < min0[i] {
                    min0[i] = metric;
                }
            } else if metric < min1[i] {
                min1[i] = metric;
            }
        }
    }
    let scale = 1.0 / n0.max(1e-12);
    (0..bps).map(|i| (min1[i] - min0[i]) * scale).collect()
}

/// Hard-decision demap: the bit label of the nearest constellation point
/// after equalising with `h`.
pub fn demap_hard(m: Modulation, y: Complex64, h: Complex64) -> Vec<u8> {
    constellation(m)
        .into_iter()
        .min_by(|(_, a), (_, b)| {
            y.dist(h * *a)
                .partial_cmp(&y.dist(h * *b))
                .expect("finite distances")
        })
        .map(|(bits, _)| bits)
        .expect("constellation not empty")
}

/// A precomputed constellation plus demap scratch: the allocation-free
/// counterpart of [`demap_llrs`] / [`demap_hard`].
///
/// [`demap_llrs`] rebuilds the whole labelled constellation on every call —
/// one `Vec<(Vec<u8>, Complex64)>` per data subcarrier per OFDM symbol, the
/// single largest source of buffer churn in the receive chain. A
/// `DemapTable` builds it once per modulation and produces bit-identical
/// LLRs and hard decisions from a restructured two-phase scan:
///
/// 1. **Metric phase.** `|y − h·x|²` for all `M` points into a flat scratch
///    array, four points per step through [`ssync_dsp::simd`] lanes (each
///    lane evaluates exactly the scalar expression `d = dist(y, h·x); d·d`,
///    so the metrics are bitwise equal to the scalar fallback's).
/// 2. **Reduction phase.** Per-bit minima over precomputed index partitions
///    (the point indices whose label has that bit 0 / 1), replacing the
///    per-point label walk and its data-dependent branches. Metrics are
///    finite and non-negative, so the partition minimum is independent of
///    scan order and matches the legacy ascending scan exactly.
///
/// The hard decision keeps the *unsquared* distance and a first-index
/// ascending argmin: squaring can merge distinct distances at the ulp level,
/// so comparing `d·d` could break ties differently than [`demap_hard`].
#[derive(Debug, Clone)]
pub struct DemapTable {
    m: Modulation,
    points: Vec<(Vec<u8>, Complex64)>,
    /// Flat copy of the constellation points (scalar tail + lookups).
    xs: Vec<Complex64>,
    /// The points again in split re/im form, so the lane path loads four
    /// consecutive reals instead of deinterleaving on every call.
    xs_re: Vec<f64>,
    xs_im: Vec<f64>,
    /// Per bit position: point indices whose label has that bit = 0.
    zeros: Vec<Vec<u16>>,
    /// Per bit position: point indices whose label has that bit = 1.
    ones: Vec<Vec<u16>>,
    /// Metric scratch, one slot per constellation point.
    metrics: Vec<f64>,
}

impl DemapTable {
    /// Builds the table for one modulation.
    pub fn new(m: Modulation) -> Self {
        let points = constellation(m);
        let bps = m.bits_per_symbol();
        let xs: Vec<Complex64> = points.iter().map(|(_, x)| *x).collect();
        let mut zeros = vec![Vec::new(); bps];
        let mut ones = vec![Vec::new(); bps];
        for (idx, (bits, _)) in points.iter().enumerate() {
            for (i, &b) in bits.iter().enumerate() {
                if b == 0 {
                    zeros[i].push(idx as u16);
                } else {
                    ones[i].push(idx as u16);
                }
            }
        }
        let n = xs.len();
        DemapTable {
            m,
            points,
            xs_re: xs.iter().map(|x| x.re).collect(),
            xs_im: xs.iter().map(|x| x.im).collect(),
            xs,
            zeros,
            ones,
            metrics: vec![0.0; n],
        }
    }

    /// The modulation this table was built for.
    #[inline]
    pub fn modulation(&self) -> Modulation {
        self.m
    }

    /// Fills `self.metrics` with `f(dist(y, h·x))` per point: the squared
    /// distance for soft demapping (`square = true`) or the raw distance for
    /// the hard argmin. Lane and scalar paths are bitwise identical.
    #[inline]
    fn fill_metrics(&mut self, y: Complex64, h: Complex64, square: bool) {
        #[cfg(target_arch = "x86_64")]
        if SIMD_ENABLED && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { self.fill_metrics_avx2(y, h, square) };
            return;
        }
        if SIMD_ENABLED {
            self.fill_metrics_lanes(y, h, square);
        } else {
            self.fill_metrics_scalar(y, h, square);
        }
    }

    /// [`DemapTable::fill_metrics_lanes`] as explicit 256-bit intrinsics —
    /// the same IEEE operations in the same order (`vsqrtpd` is the
    /// correctly-rounded sqrt, no multiply-add fusion anywhere), so the
    /// metrics are bit-identical to both portable kernels.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn fill_metrics_avx2(&mut self, y: Complex64, h: Complex64, square: bool) {
        use std::arch::x86_64::*;
        let n = self.xs.len();
        let mut p = 0usize;
        // SAFETY (for all intrinsics below): p ≤ n−4 inside the loop, and
        // xs_re/xs_im/metrics all hold exactly n elements.
        unsafe {
            let vyre = _mm256_set1_pd(y.re);
            let vyim = _mm256_set1_pd(y.im);
            let vhre = _mm256_set1_pd(h.re);
            let vhim = _mm256_set1_pd(h.im);
            while p + LANES <= n {
                let xre = _mm256_loadu_pd(self.xs_re.as_ptr().add(p));
                let xim = _mm256_loadu_pd(self.xs_im.as_ptr().add(p));
                let dre = _mm256_sub_pd(
                    vyre,
                    _mm256_sub_pd(_mm256_mul_pd(vhre, xre), _mm256_mul_pd(vhim, xim)),
                );
                let dim = _mm256_sub_pd(
                    vyim,
                    _mm256_add_pd(_mm256_mul_pd(vhre, xim), _mm256_mul_pd(vhim, xre)),
                );
                let d = _mm256_sqrt_pd(_mm256_add_pd(
                    _mm256_mul_pd(dre, dre),
                    _mm256_mul_pd(dim, dim),
                ));
                let m = if square { _mm256_mul_pd(d, d) } else { d };
                _mm256_storeu_pd(self.metrics.as_mut_ptr().add(p), m);
                p += LANES;
            }
        }
        for q in p..n {
            let d = y.dist(h * self.xs[q]);
            self.metrics[q] = if square { d * d } else { d };
        }
    }

    /// Lane kernel of [`DemapTable::fill_metrics`]: four points per step from
    /// the split-form constellation.
    #[inline]
    fn fill_metrics_lanes(&mut self, y: Complex64, h: Complex64, square: bool) {
        let n = self.xs.len();
        let mut p = 0usize;
        let vyre = F64x4::splat(y.re);
        let vyim = F64x4::splat(y.im);
        let vhre = F64x4::splat(h.re);
        let vhim = F64x4::splat(h.im);
        while p + LANES <= n {
            let xre = F64x4::load(&self.xs_re, p);
            let xim = F64x4::load(&self.xs_im, p);
            // h·x term-for-term as `Complex64::mul`, then |y − h·x|.
            let dre = vyre.sub(vhre.mul(xre).sub(vhim.mul(xim)));
            let dim = vyim.sub(vhre.mul(xim).add(vhim.mul(xre)));
            let d = dre.mul(dre).add(dim.mul(dim)).sqrt();
            let m = if square { d.mul(d) } else { d };
            m.store(&mut self.metrics, p);
            p += LANES;
        }
        for q in p..n {
            let d = y.dist(h * self.xs[q]);
            self.metrics[q] = if square { d * d } else { d };
        }
    }

    /// Scalar kernel of [`DemapTable::fill_metrics`].
    #[inline]
    fn fill_metrics_scalar(&mut self, y: Complex64, h: Complex64, square: bool) {
        for (q, x) in self.xs.iter().enumerate() {
            let d = y.dist(h * *x);
            self.metrics[q] = if square { d * d } else { d };
        }
    }

    /// [`demap_llrs`], *appending* `bits_per_symbol` LLRs to `out` (the
    /// receive chain accumulates per-carrier LLRs into one per-symbol
    /// vector, so append — not clear-and-fill — is the composable shape).
    pub fn demap_llrs_into(&mut self, y: Complex64, h: Complex64, n0: f64, out: &mut Vec<f64>) {
        self.fill_metrics(y, h, true);
        let scale = 1.0 / n0.max(1e-12);
        for (zs, os) in self.zeros.iter().zip(&self.ones) {
            let mut min0 = f64::INFINITY;
            for &p in zs {
                let v = self.metrics[p as usize];
                if v < min0 {
                    min0 = v;
                }
            }
            let mut min1 = f64::INFINITY;
            for &p in os {
                let v = self.metrics[p as usize];
                if v < min1 {
                    min1 = v;
                }
            }
            out.push((min1 - min0) * scale);
        }
    }

    /// [`demap_hard`] into a caller-owned buffer (cleared and refilled).
    /// Ties break toward the constellation point scanned first, matching
    /// the `Iterator::min_by` convention of the allocating path.
    pub fn demap_hard_into(&mut self, y: Complex64, h: Complex64, out: &mut Vec<u8>) {
        let best_idx = self.argmin_dist(y, h);
        out.clear();
        out.extend_from_slice(&self.points[best_idx].0);
    }

    /// The nearest constellation point itself (the value
    /// [`map_symbol`] would rebuild from [`DemapTable::demap_hard_into`]'s
    /// bits — the table stores exactly those mapped points, so this is the
    /// identical `Complex64` without the bit round-trip). The decision-
    /// directed EVM loops want the point, not its label.
    pub fn nearest(&mut self, y: Complex64, h: Complex64) -> Complex64 {
        let best_idx = self.argmin_dist(y, h);
        self.points[best_idx].1
    }

    /// First-index argmin of `dist(y, h·x)` over the constellation.
    #[inline]
    fn argmin_dist(&mut self, y: Complex64, h: Complex64) -> usize {
        self.fill_metrics(y, h, false);
        let mut best_idx = 0usize;
        let mut best = f64::INFINITY;
        for (idx, &d) in self.metrics.iter().enumerate() {
            if d < best {
                best = d;
                best_idx = idx;
            }
        }
        best_idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ssync_dsp::rng::ComplexGaussian;

    const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    #[test]
    fn unit_average_power() {
        for m in ALL {
            let pts = constellation(m);
            let p: f64 = pts.iter().map(|(_, x)| x.norm_sqr()).sum::<f64>() / pts.len() as f64;
            assert!((p - 1.0).abs() < 1e-12, "{m:?}: power {p}");
        }
    }

    #[test]
    fn constellation_points_distinct() {
        for m in ALL {
            let pts = constellation(m);
            for i in 0..pts.len() {
                for j in i + 1..pts.len() {
                    assert!(pts[i].1.dist(pts[j].1) > 1e-9, "{m:?}: duplicate points");
                }
            }
        }
    }

    #[test]
    fn gray_property_neighbours_differ_by_one_bit() {
        // Along each axis, adjacent PAM levels must differ in exactly one bit.
        for m in [Modulation::Qam16, Modulation::Qam64] {
            let pts = constellation(m);
            for (bits_a, a) in &pts {
                for (bits_b, b) in &pts {
                    let dx = (a.re - b.re).abs();
                    let dy = (a.im - b.im).abs();
                    let k = normalization(m) * 2.0;
                    // Horizontally adjacent, same row:
                    if dy < 1e-12 && (dx - k).abs() < 1e-9 {
                        let diff: usize = bits_a.iter().zip(bits_b).filter(|(x, y)| x != y).count();
                        assert_eq!(diff, 1, "{m:?}: neighbours differ by {diff} bits");
                    }
                }
            }
        }
    }

    #[test]
    fn hard_demap_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        for m in ALL {
            for _ in 0..50 {
                let bits: Vec<u8> = (0..m.bits_per_symbol())
                    .map(|_| rng.gen_range(0..2u8))
                    .collect();
                let x = map_symbol(m, &bits);
                // Random complex channel, no noise.
                let h = Complex64::from_polar(
                    rng.gen_range(0.2..2.0),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                );
                assert_eq!(demap_hard(m, h * x, h), bits, "{m:?}");
            }
        }
    }

    #[test]
    fn llr_signs_match_hard_decisions_at_high_snr() {
        let mut rng = StdRng::seed_from_u64(6);
        for m in ALL {
            for _ in 0..50 {
                let bits: Vec<u8> = (0..m.bits_per_symbol())
                    .map(|_| rng.gen_range(0..2u8))
                    .collect();
                let x = map_symbol(m, &bits);
                let h = Complex64::from_polar(1.0, rng.gen_range(0.0..std::f64::consts::TAU));
                let llrs = demap_llrs(m, h * x, h, 1e-3);
                for (i, &b) in bits.iter().enumerate() {
                    if b == 0 {
                        assert!(llrs[i] > 0.0, "{m:?} bit {i}");
                    } else {
                        assert!(llrs[i] < 0.0, "{m:?} bit {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn llr_magnitude_scales_with_noise() {
        let m = Modulation::Qpsk;
        let bits = [0u8, 1u8];
        let x = map_symbol(m, &bits);
        let h = Complex64::ONE;
        let l_low_noise = demap_llrs(m, x, h, 0.01);
        let l_high_noise = demap_llrs(m, x, h, 1.0);
        assert!(l_low_noise[0].abs() > l_high_noise[0].abs() * 10.0);
    }

    #[test]
    fn qpsk_decodes_under_noise_mostly() {
        let mut rng = StdRng::seed_from_u64(7);
        let noise = ComplexGaussian::with_power(0.02);
        let mut errors = 0;
        let trials = 2000;
        for _ in 0..trials {
            let bits: Vec<u8> = (0..2).map(|_| rng.gen_range(0..2u8)).collect();
            let x = map_symbol(Modulation::Qpsk, &bits);
            let y = x + noise.sample(&mut rng);
            if demap_hard(Modulation::Qpsk, y, Complex64::ONE) != bits {
                errors += 1;
            }
        }
        // At 17 dB SNR, QPSK symbol errors should be extremely rare.
        assert!(errors < 5, "errors {errors}/{trials}");
    }

    #[test]
    fn map_bits_chunks() {
        let bits = [0u8, 1, 1, 0, 0, 0, 1, 1];
        let syms = map_bits(Modulation::Qpsk, &bits);
        assert_eq!(syms.len(), 4);
        assert_eq!(syms[0], map_symbol(Modulation::Qpsk, &[0, 1]));
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn map_bits_rejects_ragged() {
        let _ = map_bits(Modulation::Qam16, &[0u8; 7]);
    }

    #[test]
    fn demap_table_bitwise_matches_allocating_demappers() {
        let mut rng = StdRng::seed_from_u64(8);
        let noise = ComplexGaussian::with_power(0.1);
        for m in ALL {
            let mut table = DemapTable::new(m);
            let mut llrs = Vec::new();
            let mut hard = Vec::new();
            for _ in 0..40 {
                let bits: Vec<u8> = (0..m.bits_per_symbol())
                    .map(|_| rng.gen_range(0..2u8))
                    .collect();
                let h = Complex64::from_polar(
                    rng.gen_range(0.2..2.0),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                );
                let y = h * map_symbol(m, &bits) + noise.sample(&mut rng);
                llrs.clear();
                table.demap_llrs_into(y, h, 0.1, &mut llrs);
                assert_eq!(llrs, demap_llrs(m, y, h, 0.1), "{m:?}");
                table.demap_hard_into(y, h, &mut hard);
                assert_eq!(hard, demap_hard(m, y, h), "{m:?}");
                let near = table.nearest(y, h);
                let rebuilt = map_symbol(m, &hard);
                assert_eq!(near.re.to_bits(), rebuilt.re.to_bits(), "{m:?}");
                assert_eq!(near.im.to_bits(), rebuilt.im.to_bits(), "{m:?}");
            }
            // Tie case (y at the origin): both paths must break identically.
            table.demap_hard_into(Complex64::ZERO, Complex64::ONE, &mut hard);
            assert_eq!(hard, demap_hard(m, Complex64::ZERO, Complex64::ONE));
        }
    }

    #[test]
    fn metric_kernels_bitwise_match() {
        // Both fill_metrics kernels are always compiled; whichever one the
        // build dispatches, the other must produce the same bits.
        let mut rng = StdRng::seed_from_u64(21);
        let noise = ComplexGaussian::with_power(0.1);
        for m in ALL {
            let mut lanes = DemapTable::new(m);
            let mut scalar = DemapTable::new(m);
            for _ in 0..50 {
                let h = Complex64::from_polar(
                    rng.gen_range(0.2..2.0),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                );
                let y = h * noise.sample(&mut rng);
                for square in [true, false] {
                    lanes.fill_metrics_lanes(y, h, square);
                    scalar.fill_metrics_scalar(y, h, square);
                    for (a, b) in lanes.metrics.iter().zip(&scalar.metrics) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{m:?} square={square}");
                    }
                    #[cfg(target_arch = "x86_64")]
                    if std::arch::is_x86_feature_detected!("avx2") {
                        // SAFETY: AVX2 detected above.
                        unsafe { lanes.fill_metrics_avx2(y, h, square) };
                        for (a, b) in lanes.metrics.iter().zip(&scalar.metrics) {
                            assert_eq!(a.to_bits(), b.to_bits(), "avx2 {m:?} square={square}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[ignore] // timing probe: cargo test -p ssync_phy --release profile_metric_kernels -- --ignored --nocapture
    fn profile_metric_kernels() {
        let mut table = DemapTable::new(Modulation::Qam16);
        let y = Complex64::new(0.3, -0.2);
        let h = Complex64::new(0.9, 0.1);
        let iters = 400_000;
        for rep in 0..3 {
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                table.fill_metrics_lanes(y, h, true);
                std::hint::black_box(&table.metrics);
            }
            let lanes = t0.elapsed();
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                table.fill_metrics_scalar(y, h, true);
                std::hint::black_box(&table.metrics);
            }
            let scalar = t0.elapsed();
            #[cfg(target_arch = "x86_64")]
            let avx2 = if std::arch::is_x86_feature_detected!("avx2") {
                let t0 = std::time::Instant::now();
                for _ in 0..iters {
                    // SAFETY: AVX2 detected above.
                    unsafe { table.fill_metrics_avx2(y, h, true) };
                    std::hint::black_box(&table.metrics);
                }
                format!("{:?}", t0.elapsed())
            } else {
                "n/a".into()
            };
            #[cfg(not(target_arch = "x86_64"))]
            let avx2 = "n/a";
            println!("rep {rep}: lanes {lanes:?} scalar {scalar:?} avx2 {avx2}");
        }
    }
}
