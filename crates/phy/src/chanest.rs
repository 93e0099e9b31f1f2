//! Channel estimation, noise estimation, and the channel phase-slope
//! machinery that SourceSync's detection-delay estimator builds on
//! (paper §4.2, Fig. 5, Eq. 1).

use crate::ofdm;
use crate::params::{LayoutKey, OfdmParams};
use crate::preamble::{lts_values, LTS_REPS};
use ssync_dsp::stats::{linear_regression_slope, unwrap_phases_into};
use ssync_dsp::{Complex64, FftPlan};
use std::f64::consts::PI;

/// A per-subcarrier channel estimate over the occupied carriers.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelEstimate {
    /// Signed subcarrier indices, ascending (same order as `values`).
    pub carriers: Vec<i32>,
    /// Estimated complex channel gain per carrier.
    pub values: Vec<Complex64>,
    /// Estimated noise power (variance per complex sample) from the LTS
    /// repetition difference.
    pub noise_power: f64,
}

impl ChannelEstimate {
    /// Channel gain for a given signed carrier index.
    pub fn gain(&self, carrier: i32) -> Option<Complex64> {
        self.carriers
            .iter()
            .position(|&k| k == carrier)
            .map(|i| self.values[i])
    }

    /// Mean channel power across occupied carriers.
    pub fn mean_power(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().map(|v| v.norm_sqr()).sum::<f64>() / self.values.len() as f64
    }

    /// Per-carrier SNR in dB given the stored noise estimate. The
    /// demodulated-grid noise power is the time-domain noise scaled by the
    /// receiver normalisation, which callers account for via `grid_noise`.
    pub fn per_carrier_snr_db(&self, grid_noise: f64) -> Vec<f64> {
        self.values
            .iter()
            .map(|v| ssync_dsp::stats::db_from_linear(v.norm_sqr() / grid_noise.max(1e-15)))
            .collect()
    }
}

/// Frame-level scratch of [`estimate_from_lts`] and [`phase_slope`]: the
/// LTS reference table (kept with the carrier layout it was built for),
/// the LTS grids and the slope regression's per-window buffers, so a warm
/// receive allocates only the estimate it returns.
#[derive(Debug, Clone, Default)]
pub struct ChanestScratch {
    /// The carrier layout `lts` was built for.
    lts_for: LayoutKey,
    /// [`lts_values`] of that numerology.
    lts: Vec<(i32, f64)>,
    /// The demodulated LTS repetitions.
    grids: [Vec<Complex64>; LTS_REPS],
    /// One regression window's carrier indices, phases and unwrapped
    /// phases.
    xs: Vec<f64>,
    phases: Vec<f64>,
    unwrapped: Vec<f64>,
    /// Per window, its `(slope, weight)`.
    slopes: Vec<(f64, f64)>,
}

impl ChanestScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Demodulates the [`LTS_REPS`] long-training symbols whose FFT windows
    /// start at `offsets` into the scratch's grids, and returns the LTS
    /// reference table (rebuilt only when the carrier layout changes) with
    /// them. The one training demodulation of [`estimate_from_lts`] and of
    /// a joint frame's co-sender training slots.
    pub fn lts_grids(
        &mut self,
        params: &OfdmParams,
        fft: &FftPlan,
        samples: &[Complex64],
        offsets: [usize; LTS_REPS],
    ) -> (&[(i32, f64)], &[Vec<Complex64>; LTS_REPS]) {
        if self.lts_for.rekey(params) {
            self.lts = lts_values(params);
        }
        for (grid, offset) in self.grids.iter_mut().zip(offsets) {
            ofdm::demodulate_window_into(params, fft, samples, offset, grid);
        }
        (&self.lts, &self.grids)
    }
}

/// Least-squares channel estimate from `LTS_REPS` long-training repetitions
/// starting at `lts_start` in `samples`, through a reusable
/// [`ChanestScratch`].
///
/// Estimates the channel as the average over repetitions of
/// `Y_k / X_k` on every occupied carrier, and the noise power from the
/// difference between consecutive repetitions (which cancels the signal).
pub fn estimate_from_lts(
    params: &OfdmParams,
    fft: &FftPlan,
    samples: &[Complex64],
    lts_start: usize,
    scratch: &mut ChanestScratch,
) -> ChannelEstimate {
    let n = params.fft_size;
    let offsets = std::array::from_fn(|rep| lts_start + rep * n);
    let (lts, grids) = scratch.lts_grids(params, fft, samples, offsets);
    let mut carriers = Vec::with_capacity(lts.len());
    let mut values = Vec::with_capacity(lts.len());
    for &(k, x) in lts.iter() {
        let bin = params.bin(k);
        let avg: Complex64 = grids.iter().map(|g| g[bin]).sum::<Complex64>() / (LTS_REPS as f64);
        carriers.push(k);
        values.push(avg / Complex64::real(x));
    }
    // Noise: difference between the two repetitions on occupied carriers.
    // Var(Y1−Y2) = 2·noise_var per grid point.
    let mut acc = 0.0;
    let mut count = 0usize;
    if grids.len() >= 2 {
        for &(k, _) in lts.iter() {
            let bin = params.bin(k);
            acc += (grids[0][bin] - grids[1][bin]).norm_sqr();
            count += 1;
        }
    }
    let noise_power = if count > 0 {
        acc / (2.0 * count as f64)
    } else {
        0.0
    };
    ChannelEstimate {
        carriers,
        values,
        noise_power,
    }
}

/// The phase slope (radians per subcarrier index) of a channel estimate,
/// computed the way the paper prescribes: linear regression of unwrapped
/// phase within windows of consecutive subcarriers spanning `window_hz`
/// (3 MHz in the paper — smaller than indoor coherence bandwidth), averaged
/// across windows. The regression's buffers live in `scratch`.
///
/// Windows are energy-weighted so deeply faded subcarriers (whose phase is
/// noise) do not dominate.
pub fn phase_slope(
    params: &OfdmParams,
    est: &ChannelEstimate,
    window_hz: f64,
    scratch: &mut ChanestScratch,
) -> f64 {
    let spacing = params.subcarrier_spacing_hz();
    let per_window = ((window_hz / spacing).round() as usize).max(2);
    let ChanestScratch {
        xs,
        phases,
        unwrapped,
        slopes,
        ..
    } = scratch;
    slopes.clear();
    let mut idx = 0;
    while idx + 1 < est.carriers.len() {
        // Collect a run of consecutive carriers (gaps — e.g. across DC —
        // break the run, since unwrapping across a gap is meaningless).
        let mut end = idx + 1;
        while end < est.carriers.len()
            && est.carriers[end] == est.carriers[end - 1] + 1
            && end - idx < per_window
        {
            end += 1;
        }
        if end - idx >= 2 {
            xs.clear();
            xs.extend(est.carriers[idx..end].iter().map(|k| *k as f64));
            phases.clear();
            phases.extend(est.values[idx..end].iter().map(|v| v.arg()));
            unwrap_phases_into(phases, unwrapped);
            let slope = linear_regression_slope(xs, unwrapped);
            let weight: f64 = est.values[idx..end].iter().map(|v| v.norm_sqr()).sum();
            slopes.push((slope, weight));
        }
        idx = end;
    }
    let total_w: f64 = slopes.iter().map(|(_, w)| w).sum();
    if total_w <= 0.0 {
        return 0.0;
    }
    slopes.iter().map(|(s, w)| s * w).sum::<f64>() / total_w
}

/// Converts a measured channel phase slope ζ (radians per subcarrier) into a
/// detection-delay offset in samples, inverting paper Eq. 1: `ζ = 2πΔ/N` so
/// `Δ = ζ·N/(2π)`. A *negative* slope corresponds to a *positive* delay
/// (late FFT window), matching the FFT time-shift convention.
pub fn delay_from_slope(params: &OfdmParams, slope: f64) -> f64 {
    -slope * params.fft_size as f64 / (2.0 * PI)
}

/// Convenience: the detection-delay estimate (in samples, possibly
/// fractional and negative) of a channel estimate, using `window_hz`
/// averaging windows.
pub fn detection_delay_samples(
    params: &OfdmParams,
    est: &ChannelEstimate,
    window_hz: f64,
    scratch: &mut ChanestScratch,
) -> f64 {
    delay_from_slope(params, phase_slope(params, est, window_hz, scratch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OfdmParams;
    use crate::preamble::{lts_symbol, preamble_waveform, PreambleLayout};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssync_dsp::delay::fractional_delay;
    use ssync_dsp::rng::ComplexGaussian;

    /// Pointwise sum of two channel estimates (the composite channel of two
    /// synchronized senders, paper §5). Noise adds.
    fn composite(a: &ChannelEstimate, b: &ChannelEstimate) -> ChannelEstimate {
        assert_eq!(a.carriers, b.carriers, "estimates cover different carriers");
        ChannelEstimate {
            carriers: a.carriers.clone(),
            values: a
                .values
                .iter()
                .zip(&b.values)
                .map(|(x, y)| *x + *y)
                .collect(),
            noise_power: a.noise_power + b.noise_power,
        }
    }

    fn flat_channel_estimate(
        params: &OfdmParams,
        delay: f64,
        noise_p: f64,
        seed: u64,
    ) -> ChannelEstimate {
        // Build a preamble, delay it, add noise, estimate from the LTS.
        let fft = FftPlan::new(params.fft_size);
        let pre = preamble_waveform(params, &fft);
        let mut rx = fractional_delay(&pre, delay + 8.0); // +8 guard samples
        let mut rng = StdRng::seed_from_u64(seed);
        let noise = ComplexGaussian::with_power(noise_p);
        for s in rx.iter_mut() {
            *s += noise.sample(&mut rng);
        }
        let layout = PreambleLayout::of(params);
        // Receiver believes the LTS starts where it would with the 8-sample
        // guard but *without* the extra delay — so the estimate sees `delay`.
        estimate_from_lts(
            params,
            &fft,
            &rx,
            8 + layout.lts_start(),
            &mut ChanestScratch::new(),
        )
    }

    #[test]
    fn clean_estimate_recovers_unit_channel() {
        let params = OfdmParams::dot11a();
        let est = flat_channel_estimate(&params, 0.0, 0.0, 1);
        for v in &est.values {
            assert!(v.dist(Complex64::ONE) < 1e-6, "{v:?}");
        }
        assert!(est.noise_power < 1e-12);
    }

    #[test]
    fn noise_estimate_tracks_injected_noise() {
        let params = OfdmParams::dot11a();
        // Demodulated-grid noise power = time-domain noise / symbol_scale².
        let time_noise = 0.05;
        let est = flat_channel_estimate(&params, 0.0, time_noise, 2);
        let expected_grid_noise =
            time_noise / ofdm::symbol_scale(&params).powi(2) * params.fft_size as f64;
        // Allow a factor-of-2 band: single-packet noise estimates are coarse.
        assert!(
            est.noise_power > expected_grid_noise * 0.5
                && est.noise_power < expected_grid_noise * 2.0,
            "est {} vs expected {expected_grid_noise}",
            est.noise_power
        );
    }

    #[test]
    fn integer_delay_reads_back_from_slope() {
        let params = OfdmParams::dot11a();
        for delay in [0.0, 1.0, 2.0, 3.0] {
            let est = flat_channel_estimate(&params, delay, 0.0, 3);
            let measured = detection_delay_samples(&params, &est, 3e6, &mut ChanestScratch::new());
            assert!(
                (measured - delay).abs() < 0.02,
                "true {delay}, measured {measured}"
            );
        }
    }

    #[test]
    fn fractional_delay_reads_back_from_slope() {
        let params = OfdmParams::wiglan();
        for delay in [0.25, 0.5, 1.75, 2.5] {
            let est = flat_channel_estimate(&params, delay, 0.0, 4);
            let measured = detection_delay_samples(&params, &est, 3e6, &mut ChanestScratch::new());
            assert!(
                (measured - delay).abs() < 0.05,
                "true {delay}, measured {measured}"
            );
        }
    }

    #[test]
    fn slope_estimate_robust_to_noise() {
        let params = OfdmParams::dot11a();
        let delay = 1.5;
        // 10 dB SNR on air.
        let est = flat_channel_estimate(&params, delay, 0.1, 5);
        let measured = detection_delay_samples(&params, &est, 3e6, &mut ChanestScratch::new());
        assert!(
            (measured - delay).abs() < 0.5,
            "true {delay}, measured {measured} at 10 dB"
        );
    }

    #[test]
    fn composite_adds_channels() {
        let params = OfdmParams::dot11a();
        let a = flat_channel_estimate(&params, 0.0, 0.0, 6);
        let b = flat_channel_estimate(&params, 0.0, 0.0, 7);
        let c = composite(&a, &b);
        for v in &c.values {
            assert!(v.dist(Complex64::new(2.0, 0.0)) < 1e-5);
        }
    }

    #[test]
    fn gain_lookup() {
        let params = OfdmParams::dot11a();
        let est = flat_channel_estimate(&params, 0.0, 0.0, 8);
        assert!(est.gain(1).is_some());
        assert!(est.gain(0).is_none()); // DC not occupied
        assert!(est.gain(100).is_none());
    }

    #[test]
    fn slope_zero_for_zero_delay_multipath() {
        // With a multipath channel whose energy is at tap 0, the slope-based
        // delay should stay near zero even though phases vary per subcarrier.
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let pre = preamble_waveform(&params, &fft);
        // Convolve with a 2-tap channel: h = [1, 0.3j] (most energy at tap 0).
        let mut rx = vec![Complex64::ZERO; pre.len() + 1];
        for (i, s) in pre.iter().enumerate() {
            rx[i] += *s;
            rx[i + 1] += *s * Complex64::new(0.0, 0.3);
        }
        let layout = PreambleLayout::of(&params);
        let est = estimate_from_lts(
            &params,
            &fft,
            &rx,
            layout.lts_start(),
            &mut ChanestScratch::new(),
        );
        let measured = detection_delay_samples(&params, &est, 3e6, &mut ChanestScratch::new());
        // The energy-weighted "centre of mass" of h is at ~0.09 samples;
        // the estimate should be small and positive.
        assert!(measured.abs() < 0.5, "measured {measured}");
    }

    #[test]
    fn lts_symbol_has_unit_peak_to_estimate_against() {
        // Guards the procedural LTS: occupied carriers all non-zero so the
        // division in estimate_from_lts is well-conditioned.
        let params = OfdmParams::wiglan();
        let fft = FftPlan::new(params.fft_size);
        let lts = lts_symbol(&params, &fft);
        let spec = fft.forward_to_vec(&lts);
        for (k, x) in lts_values(&params) {
            assert!(spec[params.bin(k)].abs() > 0.5 * x.abs());
        }
    }
}
