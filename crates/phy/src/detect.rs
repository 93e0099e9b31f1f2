//! Packet detection: coarse energy trigger, short-training verification,
//! carrier-frequency-offset estimation, and long-training fine timing.
//!
//! The *detection instant* returned here is deliberately realistic: it is the
//! sample at which the double-sliding-window energy ratio crosses its
//! threshold, which happens later (and with more jitter) at low SNR. This is
//! exactly the "packet detection delay" variability (hundreds of ns, paper
//! §1 and \[42\]) that makes naive sender synchronization inaccurate, and that
//! SourceSync's phase-slope estimator (paper §4.2) is built to cancel.

use crate::params::OfdmParams;
use crate::preamble::{lts_symbol, PreambleLayout, STS_REPS};
use crate::workspace::DetectScratch;
use ssync_dsp::correlate::{
    argmax, autocorrelation_metric_into, normalized_cross_correlate_into, EnergyRatioScan,
};
use ssync_dsp::{Complex64, FftPlan};
use std::f64::consts::PI;

/// Tunable thresholds of the detector. Defaults match a standard 802.11
/// front end: ~6 dB energy step, 0.5 plateau metric, 0.5 normalised LTS
/// correlation.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Energy-ratio threshold (linear) for the coarse trigger.
    pub energy_threshold: f64,
    /// Minimum autocorrelation timing-metric over the STS plateau.
    pub autocorr_threshold: f64,
    /// Minimum normalised LTS cross-correlation at the fine-timing peak.
    pub xcorr_threshold: f64,
    /// The energy trigger is evaluated once every `decimation` samples —
    /// hardware detectors run the coarse stage in pipelined blocks, which
    /// is a large part of why raw detection instants vary by hundreds of
    /// ns (paper §4.2(a), \[42\]). 16 samples = 125 ns at 128 Msps. Fine
    /// timing and the phase-slope machinery are unaffected; only consumers
    /// of the raw `detect_idx` (e.g. the uncompensated baseline) feel it.
    pub decimation: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            energy_threshold: 4.0,
            autocorr_threshold: 0.4,
            xcorr_threshold: 0.45,
            decimation: 16,
        }
    }
}

/// Result of a successful packet detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Sample index at which the energy detector declared a packet — the
    /// radio's "detection instant" (jittery, SNR-dependent).
    pub detect_idx: usize,
    /// Fine-timing estimate: index of the first sample of the first LTS
    /// repetition (integer sample accuracy; the sub-sample residual is what
    /// the channel phase slope measures).
    pub lts_start: usize,
    /// Estimated carrier frequency offset in Hz (coarse from STS, refined
    /// from LTS).
    pub cfo_hz: f64,
    /// Normalised LTS correlation value at the fine-timing peak (quality
    /// indicator in [0, 1]).
    pub lts_quality: f64,
}

impl Detection {
    /// Where the packet's first sample is implied to start, given the fine
    /// timing (preamble layout is fixed).
    pub fn packet_start(&self, params: &OfdmParams) -> isize {
        self.lts_start as isize - PreambleLayout::of(params).lts_start() as isize
    }
}

/// A packet detector for one numerology.
#[derive(Debug, Clone)]
pub struct Detector {
    config: DetectorConfig,
    lts: Vec<Complex64>,
}

impl Detector {
    /// Builds a detector with default thresholds.
    pub fn new(params: &OfdmParams, fft: &FftPlan) -> Self {
        Self::with_config(params, fft, DetectorConfig::default())
    }

    /// Builds a detector with explicit thresholds.
    pub fn with_config(params: &OfdmParams, fft: &FftPlan, config: DetectorConfig) -> Self {
        Detector {
            config,
            lts: lts_symbol(params, fft),
        }
    }

    /// Scans `samples` from `from` for a packet. Returns the first detection,
    /// or `None` if no trigger fires or verification fails everywhere.
    ///
    /// The energy ratio is produced on demand, only as far as the scan
    /// reads it. The autocorrelation metric and the CFO-corrected
    /// fine-timing window live in the reusable [`DetectScratch`] `ws`, so
    /// repeated detections do not allocate at steady state. A reused
    /// scratch gives the same result as a fresh one.
    pub fn detect_with(
        &self,
        params: &OfdmParams,
        samples: &[Complex64],
        from: usize,
        ws: &mut DetectScratch,
    ) -> Option<Detection> {
        let n = params.fft_size;
        let period = n / 4;
        let layout = PreambleLayout::of(params);
        if samples.len() < from + layout.total_len() + n {
            return None;
        }

        // 1. Coarse energy trigger. The scan only moves forward: `t` never
        // decreases below.
        let mut ratios = EnergyRatioScan::new(&samples[from..], period);
        let decim = self.config.decimation.max(1);
        let mut t = 0usize;
        loop {
            // Find the next threshold crossing at sample resolution, then
            // round the *firing instant* up to the pipeline's block grid:
            // hardware integrates continuously but reports per block.
            while t < ratios.len() && ratios.at(t) < self.config.energy_threshold {
                t += 1;
            }
            if t >= ratios.len() {
                return None;
            }
            t = t.div_ceil(decim) * decim;
            if t >= ratios.len() {
                return None;
            }
            // The streaming detector fires once it has consumed both windows:
            // the detection instant is the last sample it looked at.
            let detect_idx = from + t + 2 * period;

            // 2. Verify the short training: the autocorrelation metric over
            // the region following the trigger should plateau near 1.
            let verify_len = (STS_REPS - 4) * period;
            let vstart = detect_idx.min(samples.len());
            let vend = (vstart + verify_len + 2 * period).min(samples.len());
            if vend <= vstart + 2 * period {
                return None;
            }
            autocorrelation_metric_into(&samples[vstart..vend], period, &mut ws.metric);
            let metric = &ws.metric;
            let mean_metric: f64 = if metric.is_empty() {
                0.0
            } else {
                metric.iter().sum::<f64>() / metric.len() as f64
            };
            if mean_metric < self.config.autocorr_threshold {
                // False alarm (noise spike); resume scanning after it.
                t += period;
                continue;
            }

            // 3. Coarse CFO from the STS periodicity: angle of the
            // delay-and-correlate sum over a few periods after the trigger.
            let mut p = Complex64::ZERO;
            let corr_len = (3 * period).min(samples.len().saturating_sub(vstart + period));
            for m in 0..corr_len {
                p += samples[vstart + m] * samples[vstart + m + period].conj();
            }
            let coarse_cfo = -p.arg() / (2.0 * PI * period as f64) * params.sample_rate_hz;

            // 4. Fine timing: cross-correlate the known LTS over a window
            // around where the LTS should be, on a CFO-corrected copy.
            let search_lo = detect_idx.saturating_sub(2 * period);
            let search_hi = (search_lo + layout.total_len() + 2 * n).min(samples.len());
            if search_hi <= search_lo + self.lts.len() {
                return None;
            }
            ws.local.clear();
            ws.local.extend_from_slice(&samples[search_lo..search_hi]);
            let local = &mut ws.local;
            apply_cfo(local, -coarse_cfo, params.sample_rate_hz);
            normalized_cross_correlate_into(local, &self.lts, &mut ws.xc);
            let xc = &ws.xc;
            let peak = argmax(xc)?;
            if xc[peak] < self.config.xcorr_threshold {
                t += period;
                continue;
            }
            // The correlation peaks at both LTS repetitions; take the earlier
            // one (within half a correlation-peak of the max).
            let mut first_peak = peak;
            if peak >= n {
                let earlier = peak - n;
                if xc[earlier] > self.config.xcorr_threshold && xc[earlier] > 0.8 * xc[peak] {
                    first_peak = earlier;
                }
            }
            let lts_start = search_lo + first_peak;

            // 5. Fine CFO from the two LTS repetitions (lag N).
            let mut q = Complex64::ZERO;
            if lts_start + 2 * n <= samples.len() {
                for m in 0..n {
                    q += samples[lts_start + m] * samples[lts_start + m + n].conj();
                }
            }
            let fine_cfo = -q.arg() / (2.0 * PI * n as f64) * params.sample_rate_hz;
            // The fine estimate is ambiguous modulo the subcarrier spacing;
            // combine: coarse resolves the ambiguity, fine adds precision.
            let spacing = params.subcarrier_spacing_hz();
            let k = ((coarse_cfo - fine_cfo) / spacing).round();
            let cfo_hz = fine_cfo + k * spacing;

            return Some(Detection {
                detect_idx,
                lts_start,
                cfo_hz,
                lts_quality: xc[first_peak],
            });
        }
    }
}

/// Rotates a waveform by a carrier frequency offset of `cfo_hz`
/// (sample `n` multiplied by `e^{j2π·cfo·n/fs}`), in place.
pub use ssync_dsp::mixer::apply_cfo;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OfdmParams;
    use crate::preamble::preamble_waveform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssync_dsp::rng::ComplexGaussian;

    /// One detection through a fresh scratch.
    fn detect_fresh(
        det: &Detector,
        params: &OfdmParams,
        samples: &[Complex64],
        from: usize,
    ) -> Option<Detection> {
        det.detect_with(params, samples, from, &mut DetectScratch::new())
    }

    /// Noise, then a preamble embedded at `offset`, then padding.
    fn scene(
        params: &OfdmParams,
        offset: usize,
        snr_db: f64,
        cfo_hz: f64,
        seed: u64,
    ) -> Vec<Complex64> {
        let fft = FftPlan::new(params.fft_size);
        let mut pre = preamble_waveform(params, &fft);
        apply_cfo(&mut pre, cfo_hz, params.sample_rate_hz);
        let noise_p = ssync_dsp::stats::linear_from_db(-snr_db);
        let mut rng = StdRng::seed_from_u64(seed);
        let total = offset + pre.len() + 4 * params.fft_size;
        let mut buf = ComplexGaussian::with_power(noise_p).sample_vec(&mut rng, total);
        for (i, s) in pre.iter().enumerate() {
            buf[offset + i] += *s;
        }
        buf
    }

    #[test]
    fn detects_at_high_snr_with_exact_timing() {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let det = Detector::new(&params, &fft);
        let offset = 300;
        let buf = scene(&params, offset, 30.0, 0.0, 1);
        let d = detect_fresh(&det, &params, &buf, 0).expect("no detection");
        let layout = PreambleLayout::of(&params);
        assert_eq!(d.lts_start, offset + layout.lts_start(), "fine timing off");
        assert!(d.detect_idx >= offset && d.detect_idx < offset + layout.sts_len);
        assert!(d.lts_quality > 0.9);
        assert_eq!(d.packet_start(&params), offset as isize);
    }

    #[test]
    fn detection_instant_is_later_at_low_snr() {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let det = Detector::new(&params, &fft);
        let offset = 300;
        let mut delays_hi = Vec::new();
        let mut delays_lo = Vec::new();
        for seed in 0..20 {
            if let Some(d) =
                detect_fresh(&det, &params, &scene(&params, offset, 25.0, 0.0, seed), 0)
            {
                delays_hi.push(d.detect_idx as f64 - offset as f64);
            }
            if let Some(d) = detect_fresh(
                &det,
                &params,
                &scene(&params, offset, 6.0, 0.0, 100 + seed),
                0,
            ) {
                delays_lo.push(d.detect_idx as f64 - offset as f64);
            }
        }
        assert!(delays_hi.len() >= 18, "missed detections at high SNR");
        assert!(delays_lo.len() >= 10, "missed detections at low SNR");
        let mean_hi = ssync_dsp::stats::mean(&delays_hi);
        let mean_lo = ssync_dsp::stats::mean(&delays_lo);
        assert!(
            mean_lo > mean_hi,
            "low-SNR detection ({mean_lo}) not later than high-SNR ({mean_hi})"
        );
    }

    #[test]
    fn no_detection_on_pure_noise() {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let det = Detector::new(&params, &fft);
        let mut rng = StdRng::seed_from_u64(3);
        let buf = ComplexGaussian::with_power(1.0).sample_vec(&mut rng, 4000);
        assert!(detect_fresh(&det, &params, &buf, 0).is_none());
    }

    #[test]
    fn cfo_estimated_accurately() {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let det = Detector::new(&params, &fft);
        // 802.11 allows ±20 ppm at 5.8 GHz ≈ ±116 kHz; test a large offset.
        for &cfo in &[-80e3, -10e3, 15e3, 95e3] {
            let buf = scene(&params, 300, 25.0, cfo, 4);
            let d = detect_fresh(&det, &params, &buf, 0).expect("no detection");
            assert!(
                (d.cfo_hz - cfo).abs() < 1500.0,
                "cfo {cfo}: estimated {}",
                d.cfo_hz
            );
        }
    }

    #[test]
    fn fine_timing_within_one_sample_down_to_moderate_snr() {
        let params = OfdmParams::wiglan();
        let fft = FftPlan::new(params.fft_size);
        let det = Detector::new(&params, &fft);
        let layout = PreambleLayout::of(&params);
        let offset = 500;
        let mut hits = 0;
        for seed in 0..20 {
            let buf = scene(&params, offset, 12.0, 0.0, 200 + seed);
            if let Some(d) = detect_fresh(&det, &params, &buf, 0) {
                let err = d.lts_start as i64 - (offset + layout.lts_start()) as i64;
                if err.abs() <= 1 {
                    hits += 1;
                }
            }
        }
        assert!(
            hits >= 16,
            "fine timing within ±1 sample only {hits}/20 at 12 dB"
        );
    }

    #[test]
    fn detect_from_skips_early_samples() {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let det = Detector::new(&params, &fft);
        let buf = scene(&params, 300, 25.0, 0.0, 5);
        // Starting the scan after the packet start but before its end should
        // fail or detect nothing (packet truncated from detector's view).
        let d = detect_fresh(&det, &params, &buf, 0).unwrap();
        assert!(d.detect_idx >= 300);
        // Scanning from beyond the preamble finds nothing.
        assert!(detect_fresh(
            &det,
            &params,
            &buf,
            300 + PreambleLayout::of(&params).total_len()
        )
        .is_none());
    }

    #[test]
    fn detect_with_reused_scratch_matches_allocating_path() {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let det = Detector::new(&params, &fft);
        let mut ws = DetectScratch::new();
        for seed in 0..6 {
            let buf = scene(&params, 250 + 13 * seed as usize, 18.0, 20e3, 40 + seed);
            let a = detect_fresh(&det, &params, &buf, 0);
            let b = det.detect_with(&params, &buf, 0, &mut ws);
            assert_eq!(a, b, "seed {seed}");
        }
        // No-detection path leaves the scratch reusable too.
        let mut rng = StdRng::seed_from_u64(99);
        let noise = ComplexGaussian::with_power(1.0).sample_vec(&mut rng, 2000);
        assert_eq!(
            detect_fresh(&det, &params, &noise, 0),
            det.detect_with(&params, &noise, 0, &mut ws)
        );
    }

    #[test]
    fn apply_cfo_roundtrip() {
        let mut rng = StdRng::seed_from_u64(6);
        let orig = ComplexGaussian::unit().sample_vec(&mut rng, 64);
        let mut buf = orig.clone();
        apply_cfo(&mut buf, 50e3, 20e6);
        apply_cfo(&mut buf, -50e3, 20e6);
        for (a, b) in buf.iter().zip(&orig) {
            assert!(a.dist(*b) < 1e-12);
        }
    }
}
