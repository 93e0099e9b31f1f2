//! Sliding correlation primitives used by packet detection.
//!
//! The SourceSync receiver detects packets the way an 802.11 radio does: a
//! coarse energy / autocorrelation stage over the repeating short training
//! sequence, followed by a fine cross-correlation against the known long
//! training sequence. Both stages are built from the primitives here.

use crate::complex::Complex64;
use crate::simd::{tier, C64x4, F64x4, Tier, LANES};

/// One lag of the sliding correlation: `Σ_m signal[t+m]·conj(template[m])`,
/// accumulated in template order. The scalar reference kernel.
#[inline]
fn lag_correlation(signal: &[Complex64], template: &[Complex64], t: usize) -> Complex64 {
    let mut acc = Complex64::ZERO;
    for (m, tap) in template.iter().enumerate() {
        acc += signal[t + m] * tap.conj();
    }
    acc
}

/// Four adjacent lags at once: lanes hold lags `t..t+4`, the template walk
/// stays sequential, so each lane accumulates exactly the scalar kernel's
/// bits (vectorising *across* lags never reassociates a per-lag sum).
#[inline(always)]
fn lag_correlation_x4(
    signal: &[Complex64],
    template: &[Complex64],
    t: usize,
) -> [Complex64; LANES] {
    let mut acc = C64x4::ZERO;
    for (m, tap) in template.iter().enumerate() {
        acc = acc.add(C64x4::load(signal, t + m).mul_conj(C64x4::splat(*tap)));
    }
    [acc.lane(0), acc.lane(1), acc.lane(2), acc.lane(3)]
}

/// Lags per register block: four [`C64x4`] accumulators side by side.
const BLOCK: usize = 4 * LANES;

/// Samples one block stages at a time, so a pass covers up to
/// `STAGE − BLOCK + 1` taps.
const STAGE: usize = 128;

/// A block's window of the signal in split re/im form, so each tap's
/// loads are four consecutive reals rather than a deinterleave.
struct Stage {
    re: [f64; STAGE],
    im: [f64; STAGE],
}

/// Sixteen adjacent lags at once: four independent [`C64x4`]
/// accumulators hold lags `t..t+4`, `t+4..t+8`, `t+8..t+12` and
/// `t+12..t+16`, and each tap is broadcast once for all four. The
/// template is walked in passes of up to `STAGE − BLOCK + 1` taps, each
/// over its window staged into `stage`; the accumulators carry across
/// passes. Every lane still sums its own lag's products in template order
/// from zero, so each holds exactly the bits of [`lag_correlation`]; the
/// block only keeps four independent add chains in flight instead of one.
#[inline(always)]
fn lag_correlation_x16(
    signal: &[Complex64],
    template: &[Complex64],
    t: usize,
    stage: &mut Stage,
) -> [C64x4; BLOCK / LANES] {
    let mut acc = [C64x4::ZERO; BLOCK / LANES];
    let mut m0 = 0;
    for taps in template.chunks(STAGE - BLOCK + 1) {
        let window = &signal[t + m0..t + m0 + taps.len() + BLOCK - 1];
        for ((re, im), v) in stage.re.iter_mut().zip(&mut stage.im).zip(window) {
            *re = v.re;
            *im = v.im;
        }
        for (m, tap) in taps.iter().enumerate() {
            let tap = C64x4::splat(*tap);
            for (j, a) in acc.iter_mut().enumerate() {
                let x = C64x4 {
                    re: F64x4::load(&stage.re, m + j * LANES),
                    im: F64x4::load(&stage.im, m + j * LANES),
                };
                *a = a.add(x.mul_conj(tap));
            }
        }
        m0 += taps.len();
    }
    acc
}

/// Pushes `|c[t]|` for every lag through the tier [`tier`] picks: the
/// AVX-512 or AVX2 twin, the lanes or the scalar tier. All four give the
/// same bits.
fn lag_magnitudes(signal: &[Complex64], template: &[Complex64], lags: usize, out: &mut Vec<f64>) {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier()` reported AVX2 and AVX-512F/DQ/VL at runtime, and
        // the twin only compiles the portable lanes tier for them.
        #[allow(unsafe_code)]
        Tier::Avx512 => unsafe { lag_magnitudes_avx512(signal, template, lags, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier()` reported AVX2 at runtime, and the twin only
        // compiles the portable lanes tier for it.
        #[allow(unsafe_code)]
        Tier::Avx2 => unsafe { lag_magnitudes_avx2(signal, template, lags, out) },
        Tier::Scalar => lag_magnitudes_scalar(signal, template, 0, lags, out),
        _ => lag_magnitudes_lanes(signal, template, lags, out),
    }
}

/// Pushes `|c[t]|` for lags `from..lags` through [`lag_correlation`]: the
/// scalar tier.
#[inline(always)]
fn lag_magnitudes_scalar(
    signal: &[Complex64],
    template: &[Complex64],
    from: usize,
    lags: usize,
    out: &mut Vec<f64>,
) {
    for t in from..lags {
        out.push(lag_correlation(signal, template, t).abs());
    }
}

/// Pushes `|c[t]|` for every lag, sixteen lags per step through
/// [`lag_correlation_x16`], then four per step through
/// [`lag_correlation_x4`] and the ragged tail through the scalar tier: the
/// lanes tier.
#[inline(always)]
fn lag_magnitudes_lanes(
    signal: &[Complex64],
    template: &[Complex64],
    lags: usize,
    out: &mut Vec<f64>,
) {
    let mut t = 0;
    let mut stage = Stage {
        re: [0.0; STAGE],
        im: [0.0; STAGE],
    };
    while t + BLOCK <= lags {
        for acc in lag_correlation_x16(signal, template, t, &mut stage) {
            for i in 0..LANES {
                out.push(acc.lane(i).abs());
            }
        }
        t += BLOCK;
    }
    while t + LANES <= lags {
        for c in lag_correlation_x4(signal, template, t) {
            out.push(c.abs());
        }
        t += LANES;
    }
    lag_magnitudes_scalar(signal, template, t, lags, out);
}

/// [`lag_magnitudes_lanes`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lag_magnitudes_avx2(
    signal: &[Complex64],
    template: &[Complex64],
    lags: usize,
    out: &mut Vec<f64>,
) {
    lag_magnitudes_lanes(signal, template, lags, out);
}

/// [`lag_magnitudes_lanes`] compiled for AVX-512F/DQ/VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
fn lag_magnitudes_avx512(
    signal: &[Complex64],
    template: &[Complex64],
    lags: usize,
    out: &mut Vec<f64>,
) {
    lag_magnitudes_lanes(signal, template, lags, out);
}

/// Normalised cross-correlation magnitude in `[0, 1]`:
/// `|c[t]| / (‖signal window‖ · ‖template‖)`.
///
/// A value near 1 means the window is a scaled copy of the template, which
/// makes thresholds SNR-independent. One value per lag where the template
/// fully overlaps (`signal.len() - template.len() + 1`); none if the template
/// is empty or longer than the signal.
///
/// `out` is a caller-owned buffer, cleared and refilled. The raw correlation
/// magnitudes `|Σ_m signal[t+m]·conj(template[m])|` are computed first
/// (sixteen lags per template pass, then four, then one, on the SIMD path;
/// see `lag_magnitudes_lanes`), then a sequential pass applies the
/// sliding-window-energy normalisation — the same divisions on the same
/// operands as the original interleaved loop, so the output is bit-identical
/// in both builds.
pub fn normalized_cross_correlate_into(
    signal: &[Complex64],
    template: &[Complex64],
    out: &mut Vec<f64>,
) {
    out.clear();
    if template.is_empty() || signal.len() < template.len() {
        return;
    }
    let t_norm = template.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
    let m = template.len();
    let lags = signal.len() - m + 1;
    // Phase 1: |c[t]| for every lag.
    out.reserve(lags);
    lag_magnitudes(signal, template, lags, out);
    // Phase 2: sliding window energy of the signal, normalising in place.
    let mut win_energy: f64 = signal[..m].iter().map(|v| v.norm_sqr()).sum();
    for (t, v) in out.iter_mut().enumerate() {
        let denom = win_energy.sqrt() * t_norm;
        *v = if denom > 0.0 { *v / denom } else { 0.0 };
        if t + m < signal.len() {
            win_energy += signal[t + m].norm_sqr() - signal[t].norm_sqr();
            win_energy = win_energy.max(0.0);
        }
    }
}

/// Delay-and-correlate metric for a signal containing a period-`period`
/// repetition (the Schmidl-Cox style detector used on short training symbols).
///
/// At each start index `t` (while `t + 2·period <= len`), computes
/// `P[t] = Σ_{m<period} signal[t+m]·conj(signal[t+m+period])` and the window
/// energy `R[t] = Σ_{m<period} |signal[t+m+period]|²`, returning the timing
/// metric `|P[t]|²/R[t]²` which plateaus near 1 over the repeated region.
/// `out` is a caller-owned buffer (cleared and refilled; capacity reused
/// across calls).
pub fn autocorrelation_metric_into(signal: &[Complex64], period: usize, out: &mut Vec<f64>) {
    out.clear();
    if period == 0 || signal.len() < 2 * period {
        return;
    }
    let n = signal.len() - 2 * period + 1;
    let mut p = Complex64::ZERO;
    let mut r = 0.0f64;
    for m in 0..period {
        p += signal[m] * signal[m + period].conj();
        r += signal[m + period].norm_sqr();
    }
    for t in 0..n {
        out.push(if r > 0.0 { p.norm_sqr() / (r * r) } else { 0.0 });
        if t + 1 < n {
            p += signal[t + period] * signal[t + 2 * period].conj()
                - signal[t] * signal[t + period].conj();
            r += signal[t + 2 * period].norm_sqr() - signal[t + period].norm_sqr();
            r = r.max(0.0);
        }
    }
}

/// Double sliding window energy ratio, produced on demand: for each
/// boundary position `t + window` (from `window` to `len - window`), the
/// ratio of the energy in `[t + window, t + 2·window)` to the energy in
/// `[t, t + window)`, as ratio `t`.
///
/// A sharp rise in this ratio marks the arrival of signal energy above the
/// noise floor — the coarse trigger of the packet detector. The ratio is
/// clamped to `1e6` to stay finite over perfectly silent leading windows.
///
/// The two window energies are running sums that slide one sample per
/// ratio, so [`EnergyRatioScan::at`] only ever moves forward: a detector
/// that stops at its first trigger never pays for the rest of the capture,
/// and one that resumes after a false alarm continues from the same sums.
/// Every ratio has the same bits whichever indices were read before it.
#[derive(Debug, Clone)]
pub struct EnergyRatioScan<'a> {
    signal: &'a [Complex64],
    window: usize,
    len: usize,
    /// The ratio index the running sums currently describe.
    t: usize,
    lead: f64,
    trail: f64,
}

impl<'a> EnergyRatioScan<'a> {
    /// Starts a scan of `signal` with windows of `window` samples.
    pub fn new(signal: &'a [Complex64], window: usize) -> Self {
        let (len, lead, trail) = if window == 0 || signal.len() < 2 * window {
            (0, 0.0, 0.0)
        } else {
            (
                signal.len() - 2 * window + 1,
                signal[..window].iter().map(|v| v.norm_sqr()).sum(),
                signal[window..2 * window]
                    .iter()
                    .map(|v| v.norm_sqr())
                    .sum(),
            )
        };
        EnergyRatioScan {
            signal,
            window,
            len,
            t: 0,
            lead,
            trail,
        }
    }

    /// The number of ratios: `len - 2·window + 1`, or 0 when the signal is
    /// shorter than both windows (or `window` is 0).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the scan has no ratios.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ratio `t`, sliding both windows forward to it.
    ///
    /// # Panics
    /// Panics if `t` is past the last ratio or before a ratio already
    /// read: the scan only moves forward.
    pub fn at(&mut self, t: usize) -> f64 {
        assert!(
            self.t <= t && t < self.len,
            "energy ratio {t} out of reach (at {}, {} ratios)",
            self.t,
            self.len
        );
        let (s, w) = (self.signal, self.window);
        while self.t < t {
            let u = self.t;
            self.lead += s[u + w].norm_sqr() - s[u].norm_sqr();
            self.trail += s[u + 2 * w].norm_sqr() - s[u + w].norm_sqr();
            self.lead = self.lead.max(0.0);
            self.trail = self.trail.max(0.0);
            self.t += 1;
        }
        let ratio = if self.lead > 0.0 {
            self.trail / self.lead
        } else {
            1e6
        };
        ratio.min(1e6)
    }
}

/// Index of the maximum value of a real slice, or `None` if empty. Ties break
/// toward the earliest index.
pub fn argmax(values: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::ComplexGaussian;
    use crate::simd::tier_test;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ncc_fresh(signal: &[Complex64], template: &[Complex64]) -> Vec<f64> {
        let mut out = Vec::new();
        normalized_cross_correlate_into(signal, template, &mut out);
        out
    }

    fn autocorr_fresh(signal: &[Complex64], period: usize) -> Vec<f64> {
        let mut out = Vec::new();
        autocorrelation_metric_into(signal, period, &mut out);
        out
    }

    /// The whole-capture energy ratio the streaming scan replaced, kept
    /// as its oracle: every ratio computed eagerly, the sums updated after
    /// each one.
    fn energy_ratio_into(signal: &[Complex64], window: usize, out: &mut Vec<f64>) {
        out.clear();
        if window == 0 || signal.len() < 2 * window {
            return;
        }
        let mut lead: f64 = signal[..window].iter().map(|v| v.norm_sqr()).sum();
        let mut trail: f64 = signal[window..2 * window]
            .iter()
            .map(|v| v.norm_sqr())
            .sum();
        let n = signal.len() - 2 * window + 1;
        for t in 0..n {
            let ratio = if lead > 0.0 { trail / lead } else { 1e6 };
            out.push(ratio.min(1e6));
            if t + 1 < n {
                lead += signal[t + window].norm_sqr() - signal[t].norm_sqr();
                trail += signal[t + 2 * window].norm_sqr() - signal[t + window].norm_sqr();
                lead = lead.max(0.0);
                trail = trail.max(0.0);
            }
        }
    }

    /// Every ratio of a fresh streaming scan.
    fn energy_ratio_fresh(signal: &[Complex64], window: usize) -> Vec<f64> {
        let mut scan = EnergyRatioScan::new(signal, window);
        (0..scan.len()).map(|t| scan.at(t)).collect()
    }

    #[test]
    fn cross_correlation_peaks_at_embedded_offset() {
        let mut rng = StdRng::seed_from_u64(1);
        let gauss = ComplexGaussian::unit();
        let template = gauss.sample_vec(&mut rng, 16);
        let mut signal = ComplexGaussian::with_power(0.01).sample_vec(&mut rng, 100);
        let offset = 37;
        for (m, t) in template.iter().enumerate() {
            signal[offset + m] += *t;
        }
        let c = ncc_fresh(&signal, &template);
        assert_eq!(argmax(&c), Some(offset));
        assert!(c[offset] > 0.9);
    }

    #[test]
    fn normalized_correlation_is_scale_invariant() {
        let mut rng = StdRng::seed_from_u64(2);
        let gauss = ComplexGaussian::unit();
        let template = gauss.sample_vec(&mut rng, 8);
        let signal: Vec<Complex64> = template.iter().map(|v| v.scale(123.0)).collect();
        let c = ncc_fresh(&signal, &template);
        assert_eq!(c.len(), 1);
        assert!((c[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_metric_plateaus_on_periodic_signal() {
        let mut rng = StdRng::seed_from_u64(3);
        let gauss = ComplexGaussian::unit();
        let period = 16;
        let one = gauss.sample_vec(&mut rng, period);
        let mut signal = Vec::new();
        for _ in 0..4 {
            signal.extend_from_slice(&one);
        }
        let m = autocorr_fresh(&signal, period);
        // Every full window over the repetition should be ~1.
        for (i, v) in m.iter().enumerate() {
            assert!(*v > 0.999, "index {i}: {v}");
        }
    }

    #[test]
    fn autocorrelation_metric_low_on_noise() {
        let mut rng = StdRng::seed_from_u64(4);
        let noise = ComplexGaussian::unit().sample_vec(&mut rng, 256);
        let m = autocorr_fresh(&noise, 16);
        let mean = m.iter().sum::<f64>() / m.len() as f64;
        assert!(mean < 0.3, "mean metric over noise {mean}");
    }

    #[test]
    fn energy_ratio_spikes_at_packet_edge() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut signal = ComplexGaussian::with_power(0.01).sample_vec(&mut rng, 64);
        signal.extend(ComplexGaussian::with_power(1.0).sample_vec(&mut rng, 64));
        let r = energy_ratio_fresh(&signal, 16);
        let peak = argmax(&r).unwrap();
        // Boundary position = peak + window.
        let edge = peak + 16;
        assert!((edge as i64 - 64).unsigned_abs() <= 4, "edge at {edge}");
        assert!(r[peak] > 10.0);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(ncc_fresh(&[], &[]).is_empty());
        assert!(ncc_fresh(&[Complex64::ONE], &[]).is_empty());
        assert!(ncc_fresh(&[Complex64::ONE], &[Complex64::ONE; 2]).is_empty());
        assert!(autocorr_fresh(&[Complex64::ONE; 8], 0).is_empty());
        assert!(energy_ratio_fresh(&[Complex64::ONE; 8], 0).is_empty());
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
    }

    #[test]
    fn into_variants_bitwise_match_allocating_paths() {
        let mut rng = StdRng::seed_from_u64(9);
        let gauss = ComplexGaussian::unit();
        let signal = gauss.sample_vec(&mut rng, 300);
        let template = gauss.sample_vec(&mut rng, 16);
        let mut ncc = Vec::new();
        let mut ac = Vec::new();
        let mut er = Vec::new();
        // Two passes through one set of reused buffers must match fresh
        // buffers (no state leaks between calls).
        for _ in 0..2 {
            normalized_cross_correlate_into(&signal, &template, &mut ncc);
            assert_eq!(ncc, ncc_fresh(&signal, &template));
            autocorrelation_metric_into(&signal, 16, &mut ac);
            assert_eq!(ac, autocorr_fresh(&signal, 16));
            energy_ratio_into(&signal, 16, &mut er);
            assert_eq!(bits(&er), bits(&energy_ratio_fresh(&signal, 16)));
        }
        // Degenerate inputs clear the buffer rather than leaving stale data.
        normalized_cross_correlate_into(&signal[..4], &template, &mut ncc);
        assert!(ncc.is_empty());
    }

    #[test]
    fn lane_and_scalar_lag_kernels_bitwise_match() {
        // The SIMD-vs-scalar contract: each lane of the 4-lag kernel holds
        // exactly the bits the scalar kernel computes for that lag.
        let mut rng = StdRng::seed_from_u64(21);
        let gauss = ComplexGaussian::unit();
        let signal = gauss.sample_vec(&mut rng, 120);
        let template = gauss.sample_vec(&mut rng, 17);
        let lags = signal.len() - template.len() + 1;
        let mut t = 0;
        while t + 4 <= lags {
            let lanes = lag_correlation_x4(&signal, &template, t);
            for (j, lane) in lanes.iter().enumerate() {
                let scalar = lag_correlation(&signal, &template, t + j);
                assert_eq!(lane.re.to_bits(), scalar.re.to_bits(), "lag {}", t + j);
                assert_eq!(lane.im.to_bits(), scalar.im.to_bits(), "lag {}", t + j);
            }
            t += 4;
        }
    }

    #[test]
    fn register_block_and_scalar_lag_kernels_bitwise_match() {
        // Each lane of each of the block's four accumulators holds exactly
        // the scalar kernel's bits for its lag, for templates shorter than
        // one staging pass, exactly one, and spanning several.
        let mut rng = StdRng::seed_from_u64(23);
        let gauss = ComplexGaussian::unit();
        for m in [1usize, 17, 64, STAGE - BLOCK, STAGE - BLOCK + 1, 300] {
            let signal = gauss.sample_vec(&mut rng, m + 3 * BLOCK + 5);
            let template = gauss.sample_vec(&mut rng, m);
            let mut stage = Stage {
                re: [0.0; STAGE],
                im: [0.0; STAGE],
            };
            for t in [0, 1, BLOCK + 3, 2 * BLOCK + 5] {
                let block = lag_correlation_x16(&signal, &template, t, &mut stage);
                for (j, acc) in block.iter().enumerate() {
                    for i in 0..LANES {
                        let lag = t + j * LANES + i;
                        let scalar = lag_correlation(&signal, &template, lag);
                        let lane = acc.lane(i);
                        assert_eq!(lane.re.to_bits(), scalar.re.to_bits(), "m {m} lag {lag}");
                        assert_eq!(lane.im.to_bits(), scalar.im.to_bits(), "m {m} lag {lag}");
                    }
                }
            }
        }
    }

    #[test]
    fn lag_magnitude_tiers_bitwise_match() {
        // The AVX2 and AVX-512 twins, the lanes tier and the scalar tier
        // over the same signal: every lag count 1..=40 (under, at and past
        // one register block and its lane groups) against every template
        // length 1..=64, longer templates that take several staging
        // passes, the detector's 448-sample window against a 64-sample
        // template, and IEEE edge values in both inputs.
        let avx2 = tier_test::host_has_avx2("lag_magnitude_tiers_bitwise_match");
        let avx512 = tier_test::host_has_avx512("lag_magnitude_tiers_bitwise_match");
        let mut rng = StdRng::seed_from_u64(22);
        let mut shapes: Vec<(usize, usize)> = (1..=64usize)
            .flat_map(|m| (1..=40usize).map(move |lags| (m + lags - 1, m)))
            .collect();
        shapes.extend([(150, 113), (160, 114), (301, 240), (448, 64)]);
        for (n, m) in shapes {
            for special in [false, true] {
                let signal = tier_test::samples(&mut rng, n, special);
                let template = tier_test::samples(&mut rng, m, special);
                let lags = n - m + 1;
                let mut scalar = Vec::new();
                lag_magnitudes_scalar(&signal, &template, 0, lags, &mut scalar);
                let mut lanes = Vec::new();
                lag_magnitudes_lanes(&signal, &template, lags, &mut lanes);
                let what = format!("n {n} m {m} special {special}");
                tier_test::assert_same_real_bits(&lanes, &scalar, &format!("{what}: lanes"));
                #[cfg(target_arch = "x86_64")]
                if avx2 {
                    let mut twin = Vec::new();
                    // SAFETY: AVX2 was detected above.
                    #[allow(unsafe_code)]
                    unsafe {
                        lag_magnitudes_avx2(&signal, &template, lags, &mut twin)
                    };
                    tier_test::assert_same_real_bits(&twin, &scalar, &format!("{what}: avx2"));
                }
                #[cfg(target_arch = "x86_64")]
                if avx512 {
                    let mut twin = Vec::new();
                    // SAFETY: AVX2 and AVX-512F/DQ/VL were detected above.
                    #[allow(unsafe_code)]
                    unsafe {
                        lag_magnitudes_avx512(&signal, &template, lags, &mut twin)
                    };
                    tier_test::assert_same_real_bits(&twin, &scalar, &format!("{what}: avx512"));
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn streaming_energy_ratio_matches_eager_vector() {
        // Element for element, whatever the read pattern: every index,
        // forward jumps of random length (as the detector's block rounding
        // and false-alarm skips make), and silent or tiny inputs.
        let mut rng = StdRng::seed_from_u64(10);
        let mut signal = ComplexGaussian::with_power(1e-3).sample_vec(&mut rng, 200);
        signal.extend(vec![Complex64::ZERO; 40]);
        signal.extend(ComplexGaussian::with_power(4.0).sample_vec(&mut rng, 300));
        signal.push(Complex64::new(f64::MIN_POSITIVE / 4.0, 0.0));
        let mut eager = Vec::new();
        for window in [1usize, 3, 16, 64, 270, 271, 600] {
            energy_ratio_into(&signal, window, &mut eager);
            assert_eq!(
                bits(&energy_ratio_fresh(&signal, window)),
                bits(&eager),
                "window {window}"
            );
            for _ in 0..20 {
                let mut scan = EnergyRatioScan::new(&signal, window);
                assert_eq!(scan.len(), eager.len());
                let mut t = rng.gen_range(0..40usize);
                while t < scan.len() {
                    assert_eq!(scan.at(t).to_bits(), eager[t].to_bits(), "window {window}");
                    // Re-reading the current ratio is allowed and stable.
                    assert_eq!(scan.at(t).to_bits(), eager[t].to_bits());
                    t += rng.gen_range(1..50usize);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of reach")]
    fn streaming_energy_ratio_never_moves_back() {
        let signal = vec![Complex64::ONE; 64];
        let mut scan = EnergyRatioScan::new(&signal, 8);
        let _ = scan.at(10);
        let _ = scan.at(9);
    }

    #[test]
    fn energy_ratio_handles_silence() {
        let signal = vec![Complex64::ZERO; 64];
        let r = energy_ratio_fresh(&signal, 8);
        assert!(r.iter().all(|v| v.is_finite()));
    }
}
