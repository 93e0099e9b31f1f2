//! The composed point-to-point link: multipath ∘ gain ∘ CFO ∘ delay, plus
//! AWGN at the receiver.
//!
//! A [`Link`] is the full channel between one transmitter and one receiver.
//! The simulator's medium superposes the outputs of several links at one
//! receiver — which is exactly the composite-channel situation of paper §5.

use crate::geometry::Position;
use crate::multipath::{Multipath, MultipathProfile};
use crate::oscillator::Oscillator;
use crate::pathloss::{PathLossModel, PowerBudget};
use rand::Rng;
use ssync_dsp::delay::{fractional_delay_span, DelayWorkspace, SINC_HALF_WIDTH};
use ssync_dsp::mixer::apply_cfo_from;
use ssync_dsp::rng::add_keyed_noise;
use ssync_dsp::Complex64;
use std::ops::Range;

/// The two placed endpoints a link is drawn between: transmitter and
/// receiver positions plus their oscillators (CFO comes from the pair).
#[derive(Debug, Clone, Copy)]
pub struct LinkEnds {
    /// Transmitter position.
    pub tx_pos: Position,
    /// Receiver position.
    pub rx_pos: Position,
    /// Transmitter oscillator.
    pub tx_osc: Oscillator,
    /// Receiver oscillator.
    pub rx_osc: Oscillator,
}

/// A realised transmitter→receiver channel.
#[derive(Debug, Clone)]
pub struct Link {
    /// Amplitude gain (path loss + power budget folded together; noise at
    /// the receiver is unit power by convention).
    pub amplitude_gain: f64,
    /// Small-scale multipath realisation (unit power).
    pub multipath: Multipath,
    /// Propagation delay, femtoseconds.
    pub delay_fs: u64,
    /// Carrier frequency offset of the transmitter relative to the
    /// receiver, Hz.
    pub cfo_hz: f64,
}

impl Link {
    /// An ideal unit-gain, zero-delay, zero-CFO link (tests, loopback).
    pub fn ideal() -> Self {
        Link {
            amplitude_gain: 1.0,
            multipath: Multipath::identity(),
            delay_fs: 0,
            cfo_hz: 0.0,
        }
    }

    /// Draws a link between two placed nodes under the given models.
    pub fn draw<R: Rng + ?Sized>(
        rng: &mut R,
        ends: &LinkEnds,
        pathloss: &PathLossModel,
        budget: &PowerBudget,
        profile: &MultipathProfile,
    ) -> Self {
        let d = ends.tx_pos.distance_m(&ends.rx_pos);
        let loss_db = pathloss.sample_loss_db(rng, d);
        Link {
            amplitude_gain: budget.amplitude_gain(loss_db),
            multipath: profile.draw(rng),
            delay_fs: ends.tx_pos.propagation_delay_fs(&ends.rx_pos),
            cfo_hz: ends.tx_osc.cfo_to_hz(&ends.rx_osc),
        }
    }

    /// Mean received SNR in dB (against the unit-power noise convention),
    /// i.e. `gain²·Σ|h|²`.
    pub fn mean_snr_db(&self) -> f64 {
        ssync_dsp::stats::db_from_linear(
            self.amplitude_gain * self.amplitude_gain * self.multipath.power(),
        )
    }

    /// Predicts, without propagating, where a waveform's received copy
    /// lands: the receiver sample index of its first sample and the exact
    /// length of the whole received copy. The length mirrors
    /// the propagation pipeline — multipath convolution spill
    /// (`taps − 1` samples) plus, when the arrival falls off the sample
    /// grid, the fractional-delay interpolator's `SINC_HALF_WIDTH` tail.
    ///
    /// This is the extent check that lets a capture skip transmissions that
    /// cannot overlap its window, and the check that a testbed exchange's
    /// frame ends inside its capture window.
    pub fn delivered_span(
        &self,
        waveform_len: usize,
        tx_start_fs: u64,
        sample_period_fs: u64,
    ) -> (u64, usize) {
        let arrival_fs = tx_start_fs + self.delay_fs;
        let base_sample = arrival_fs / sample_period_fs;
        let frac = (arrival_fs % sample_period_fs) as f64 / sample_period_fs as f64;
        let mut out_len = waveform_len + self.multipath.taps.len() - 1;
        if frac > 0.0 {
            // fractional_delay with 0 < µ < 1: conv spill 2·W−1 minus the
            // absorbed kernel latency W−1 leaves exactly W extra samples.
            out_len += SINC_HALF_WIDTH;
        }
        (base_sample, out_len)
    }

    /// Propagates a waveform through the link, computing only the received
    /// samples that land in `window`.
    ///
    /// `tx_start_fs` is the ether time of the waveform's first sample;
    /// `sample_period_fs` the receiver's sample period; `window` a range of
    /// *receiver sample indices* (relative to ether time 0). Returns the
    /// received samples inside `window ∩ delivered_span` and the receiver
    /// sample index of the first of them; pass the whole
    /// [`Link::delivered_span`] as `window` to get every sample. The
    /// sub-sample remainder of the arrival time is realised by
    /// windowed-sinc fractional delay.
    ///
    /// CFO rotation is phase-referenced to ether time 0 so that concurrent
    /// transmissions from different senders stay mutually consistent.
    ///
    /// Only the multipath outputs the window reads are convolved, rotated
    /// and interpolated: the window itself on the sample grid, widened by
    /// the interpolator's reach off it. Each of those samples is computed
    /// by the same operations in the same order as in a whole propagation
    /// — the convolution sums its products in input order, the mixer takes
    /// the phase of the sample's absolute index, the interpolator reads the
    /// same inputs — so the returned bits are the whole propagation's,
    /// sliced to the window.
    ///
    /// The convolution, interpolation kernel and delayed buffer live in
    /// caller-owned `scratch`, so a reused scratch makes the steady-state
    /// medium capture path allocation-free; the returned waveform is a
    /// slice borrowed from it. A reused scratch gives the same bits as a
    /// fresh one.
    pub fn propagate_into<'a>(
        &self,
        waveform: &[Complex64],
        tx_start_fs: u64,
        sample_period_fs: u64,
        window: Range<u64>,
        scratch: &'a mut PropagationScratch,
    ) -> (&'a [Complex64], u64) {
        let arrival_fs = tx_start_fs + self.delay_fs;
        let (base_sample, out_len) =
            self.delivered_span(waveform.len(), tx_start_fs, sample_period_fs);
        let frac = (arrival_fs % sample_period_fs) as f64 / sample_period_fs as f64;
        // The output span inside the window, relative to the arrival.
        let lo = window.start.max(base_sample);
        let hi = window.end.min(base_sample + out_len as u64);
        let conv = &mut scratch.conv;
        if lo >= hi {
            conv.clear();
            return (conv, lo);
        }
        let (o_lo, o_hi) = ((lo - base_sample) as usize, (hi - base_sample) as usize);
        // The multipath outputs those samples read: themselves on the grid;
        // off it, the interpolator's reach [o − W, o + W − 1] of each.
        let (c_lo, c_hi) = if frac > 0.0 {
            let conv_len = waveform.len() + self.multipath.taps.len() - 1;
            (
                o_lo.saturating_sub(SINC_HALF_WIDTH),
                (o_hi + SINC_HALF_WIDTH - 1).min(conv_len),
            )
        } else {
            (o_lo, o_hi)
        };
        // Multipath convolution at unit gain, then amplitude gain.
        self.multipath.apply_into(waveform, c_lo..c_hi, conv);
        if (self.amplitude_gain - 1.0).abs() > 1e-15 {
            for s in conv.iter_mut() {
                *s = s.scale(self.amplitude_gain);
            }
        }
        // CFO referenced to ether time 0 (phase origin = arrival in samples),
        // each sample at its absolute convolution index.
        if self.cfo_hz != 0.0 {
            let sample_rate_hz = 1e15 / sample_period_fs as f64;
            let origin = base_sample as f64 + frac;
            apply_cfo_from(conv, self.cfo_hz, sample_rate_hz, origin, c_lo);
        }
        // Sub-sample arrival.
        let out: &[Complex64] = if frac > 0.0 {
            let delayed = &mut scratch.delayed;
            delayed.clear();
            delayed.resize(o_hi - o_lo, Complex64::ZERO);
            let trim = o_lo + SINC_HALF_WIDTH - 1 - c_lo;
            fractional_delay_span(conv, frac, trim, &mut scratch.delay_ws, delayed);
            delayed
        } else {
            conv
        };
        (out, lo)
    }
}

/// Reusable scratch for [`Link::propagate_into`]: the multipath convolution
/// buffer, the fractional-delay output, and the interpolation-kernel
/// workspace. One scratch serves any number of links — buffers grow to the
/// largest waveform seen and are then reused.
#[derive(Debug, Clone, Default)]
pub struct PropagationScratch {
    conv: Vec<Complex64>,
    delayed: Vec<Complex64>,
    delay_ws: DelayWorkspace,
}

/// Adds unit-referenced AWGN of power `noise_power` to a buffer in place.
///
/// The call draws exactly one `u64` from `rng` (none when
/// `noise_power ≤ 0`), whatever `buf.len()` is: the key of a counter-based
/// noise stream ([`add_keyed_noise`]) in which sample `k` is a pure
/// function of `(key, k)`. A longer or shorter buffer therefore moves no
/// later draw of `rng`.
pub fn add_awgn<R: Rng + ?Sized>(rng: &mut R, buf: &mut [Complex64], noise_power: f64) {
    if noise_power <= 0.0 {
        return;
    }
    add_keyed_noise(buf, rng.gen(), noise_power);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One propagation through a fresh scratch.
    fn propagate_fresh(
        link: &Link,
        wave: &[Complex64],
        tx_start_fs: u64,
        period: u64,
    ) -> (Vec<Complex64>, u64) {
        let mut scratch = PropagationScratch::default();
        let (base, len) = link.delivered_span(wave.len(), tx_start_fs, period);
        let window = base..base + len as u64;
        let (out, start) = link.propagate_into(wave, tx_start_fs, period, window, &mut scratch);
        (out.to_vec(), start)
    }

    #[test]
    fn ideal_link_is_transparent() {
        let link = Link::ideal();
        let wave = vec![Complex64::ONE, Complex64::J];
        let (out, start) = propagate_fresh(&link, &wave, 0, 50_000_000);
        assert_eq!(start, 0);
        assert_eq!(out.len(), 2);
        assert!(out[0].dist(Complex64::ONE) < 1e-12);
    }

    #[test]
    fn integer_delay_lands_on_sample_grid() {
        let mut link = Link::ideal();
        link.delay_fs = 150_000_000; // exactly 3 samples at 20 Msps
        let wave = vec![Complex64::ONE; 4];
        let (out, start) = propagate_fresh(&link, &wave, 0, 50_000_000);
        assert_eq!(start, 3);
        assert!(out[0].dist(Complex64::ONE) < 1e-12);
    }

    #[test]
    fn fractional_delay_interpolates() {
        let mut link = Link::ideal();
        link.delay_fs = 25_000_000; // half a sample at 20 Msps
        let wave = vec![Complex64::ONE; 64];
        let (out, start) = propagate_fresh(&link, &wave, 0, 50_000_000);
        assert_eq!(start, 0);
        // Mid-waveform samples should interpolate near 1 (plateau of ones).
        assert!(out[32].dist(Complex64::ONE) < 0.05, "{:?}", out[32]);
    }

    #[test]
    fn gain_scales_power() {
        let mut link = Link::ideal();
        link.amplitude_gain = 2.0;
        let wave = vec![Complex64::ONE; 8];
        let (out, _) = propagate_fresh(&link, &wave, 0, 50_000_000);
        assert!((ssync_dsp::complex::mean_power(&out[..8]) - 4.0).abs() < 1e-9);
        assert!((link.mean_snr_db() - 6.02).abs() < 0.1);
    }

    #[test]
    fn cfo_phase_consistent_across_start_times() {
        // Two transmissions from the same link starting at different ether
        // times must see a continuous oscillator phase: the rotation at a
        // given ether sample is the same regardless of tx start.
        let mut link = Link::ideal();
        link.cfo_hz = 100e3;
        let wave = vec![Complex64::ONE; 16];
        let period = 50_000_000u64;
        let (out_a, start_a) = propagate_fresh(&link, &wave, 0, period);
        let (out_b, start_b) = propagate_fresh(&link, &wave, 10 * period, period);
        assert_eq!(start_a, 0);
        assert_eq!(start_b, 10);
        // Ether sample 12 is out_a[12] and out_b[2]; both should carry the
        // same oscillator phase.
        assert!(out_a[12].dist(out_b[2]) < 1e-9);
    }

    #[test]
    fn delivered_span_matches_propagate_exactly() {
        let mut rng = StdRng::seed_from_u64(11);
        let profile = MultipathProfile::testbed(20e6);
        let period = 50_000_000u64;
        // On-grid, off-grid, multipath and flat: the predicted span must
        // equal the whole-waveform pipeline's output in every combination.
        for delay_fs in [0u64, 3 * period, period / 2, 7 * period + 12_345] {
            for multitap in [false, true] {
                let link = Link {
                    amplitude_gain: 0.7,
                    multipath: if multitap {
                        profile.draw(&mut rng)
                    } else {
                        Multipath::identity()
                    },
                    delay_fs,
                    cfo_hz: 40e3,
                };
                let wave = vec![Complex64::ONE; 48];
                let (out, base) = propagate_reference(&link, &wave, 2 * period, period);
                let (span_base, span_len) = link.delivered_span(wave.len(), 2 * period, period);
                assert_eq!(span_base, base, "base for delay {delay_fs}");
                assert_eq!(span_len, out.len(), "len for delay {delay_fs}");
            }
        }
    }

    #[test]
    fn propagate_into_bit_identical_with_dirty_scratch() {
        let mut rng = StdRng::seed_from_u64(12);
        let profile = MultipathProfile::testbed(20e6);
        let period = 50_000_000u64;
        let link = Link {
            amplitude_gain: 0.31,
            multipath: profile.draw(&mut rng),
            delay_fs: 5 * period + 17_000_000,
            cfo_hz: -12.5e3,
        };
        let wave: Vec<Complex64> = (0..96)
            .map(|i| Complex64::new((0.3 * i as f64).cos(), (0.3 * i as f64).sin()))
            .collect();
        let (fresh, base_fresh) = propagate_fresh(&link, &wave, 4 * period, period);
        // Pre-dirty the scratch with a different link and waveform.
        let mut scratch = PropagationScratch::default();
        let _ = Link::ideal().propagate_into(&[Complex64::J; 300], 0, period, 0..300, &mut scratch);
        let (pooled, base_pooled) =
            link.propagate_into(&wave, 4 * period, period, 0..u64::MAX, &mut scratch);
        assert_eq!(base_fresh, base_pooled);
        assert_eq!(fresh.len(), pooled.len());
        for (a, b) in fresh.iter().zip(pooled) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    /// The whole-waveform pipeline windowed propagation replaced, kept as
    /// the reference: convolve everything, scale, rotate from index 0,
    /// interpolate everything.
    fn propagate_reference(
        link: &Link,
        wave: &[Complex64],
        tx_start_fs: u64,
        period: u64,
    ) -> (Vec<Complex64>, u64) {
        let arrival_fs = tx_start_fs + link.delay_fs;
        let base = arrival_fs / period;
        let frac = (arrival_fs % period) as f64 / period as f64;
        let mut conv = Vec::new();
        link.multipath.apply_into(
            wave,
            0..wave.len() + link.multipath.taps.len() - 1,
            &mut conv,
        );
        if (link.amplitude_gain - 1.0).abs() > 1e-15 {
            for s in conv.iter_mut() {
                *s = s.scale(link.amplitude_gain);
            }
        }
        if link.cfo_hz != 0.0 {
            let origin = base as f64 + frac;
            apply_cfo_from(&mut conv, link.cfo_hz, 1e15 / period as f64, origin, 0);
        }
        if frac > 0.0 {
            conv = ssync_dsp::delay::fractional_delay(&conv, frac);
        }
        (conv, base)
    }

    #[test]
    fn windowed_propagation_bitwise_matches_full_propagation() {
        // Every window — random ones, ones narrower than the interpolator
        // kernel, ones at and past both edges of the arrival, empty ones —
        // returns exactly the full propagation's samples inside it, bit for
        // bit, for on- and off-grid arrivals, flat and multi-tap channels,
        // unit and non-unit gain, zero and nonzero CFO.
        let mut rng = StdRng::seed_from_u64(13);
        let gauss = ssync_dsp::rng::ComplexGaussian::unit();
        let period = 50_000_000u64;
        let wave = gauss.sample_vec(&mut rng, 211);
        let channels = [
            Multipath::identity(),
            Multipath::from_taps(gauss.sample_vec(&mut rng, 5)),
            MultipathProfile::testbed(20e6).draw(&mut rng),
        ];
        let mut scratch = PropagationScratch::default();
        for multipath in &channels {
            for delay_fs in [6 * period, 6 * period + 1, 6 * period + 31_250_000] {
                for (amplitude_gain, cfo_hz) in [(1.0, 0.0), (0.43, 0.0), (1.0, 37e3), (0.8, -9e3)]
                {
                    let link = Link {
                        amplitude_gain,
                        multipath: multipath.clone(),
                        delay_fs,
                        cfo_hz,
                    };
                    let tx_start = 3 * period;
                    let (full, base) = propagate_reference(&link, &wave, tx_start, period);
                    let end = base + full.len() as u64;
                    let mut windows = vec![
                        (0, u64::MAX),
                        (base, end),
                        (0, base + 1),
                        (end - 1, end + 40),
                        (base + 5, base + 12),
                        (end - 20, end - 3),
                        (0, base),
                        (end, end + 9),
                        (base + 50, base + 50),
                    ];
                    for _ in 0..12 {
                        let a = rng.gen_range(base - 4..end + 4);
                        windows.push((a, a + rng.gen_range(1..90)));
                    }
                    for (w_lo, w_hi) in windows {
                        let (got, lo) =
                            link.propagate_into(&wave, tx_start, period, w_lo..w_hi, &mut scratch);
                        let (want_lo, want_hi) = (w_lo.max(base), w_hi.min(end));
                        let at = format!("delay {delay_fs} window [{w_lo}, {w_hi})");
                        if want_lo >= want_hi {
                            assert!(got.is_empty(), "{at}");
                            continue;
                        }
                        assert_eq!(lo, want_lo, "{at}");
                        let want = &full[(want_lo - base) as usize..(want_hi - base) as usize];
                        assert_eq!(got.len(), want.len(), "{at}");
                        for (k, (a, b)) in got.iter().zip(want).enumerate() {
                            assert_eq!(a.re.to_bits(), b.re.to_bits(), "{at} k {k}");
                            assert_eq!(a.im.to_bits(), b.im.to_bits(), "{at} k {k}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn drawn_link_reflects_distance() {
        let mut rng = StdRng::seed_from_u64(8);
        let profile = MultipathProfile::flat(20e6);
        let pl = PathLossModel::deterministic(3.0);
        let budget = PowerBudget::default();
        let ends_at = |x: f64| LinkEnds {
            tx_pos: Position::new(0.0, 0.0),
            rx_pos: Position::new(x, 0.0),
            tx_osc: Oscillator::ideal(),
            rx_osc: Oscillator::ideal(),
        };
        let near = Link::draw(&mut rng, &ends_at(2.0), &pl, &budget, &profile);
        let far = Link::draw(&mut rng, &ends_at(25.0), &pl, &budget, &profile);
        assert!(near.mean_snr_db() > far.mean_snr_db());
        assert!(far.delay_fs > near.delay_fs);
    }

    #[test]
    fn awgn_power_measured() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut buf = vec![Complex64::ZERO; 50_000];
        add_awgn(&mut rng, &mut buf, 0.5);
        let p = ssync_dsp::complex::mean_power(&buf);
        assert!((p - 0.5).abs() < 0.02, "noise power {p}");
    }

    #[test]
    fn awgn_costs_one_rng_word_and_keeps_its_prefix() {
        // Whatever the buffer length, one word leaves the RNG, and the same
        // RNG state gives the same first samples.
        let mut long = vec![Complex64::ZERO; 1_000];
        add_awgn(&mut StdRng::seed_from_u64(11), &mut long, 1.0);
        for n in [1, 7, 1_000, 10_000] {
            let mut rng = StdRng::seed_from_u64(11);
            let mut buf = vec![Complex64::ZERO; n];
            add_awgn(&mut rng, &mut buf, 1.0);
            let mut reference = StdRng::seed_from_u64(11);
            reference.gen::<u64>();
            assert_eq!(rng.gen::<u64>(), reference.gen::<u64>(), "n {n}");
            for (a, b) in buf.iter().zip(&long) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "n {n}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "n {n}");
            }
        }
    }

    #[test]
    fn zero_noise_is_noop() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut buf = vec![Complex64::ONE; 8];
        add_awgn(&mut rng, &mut buf, 0.0);
        for s in &buf {
            assert_eq!(*s, Complex64::ONE);
        }
        // No power, no key: the RNG is untouched.
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(10).gen::<u64>());
    }
}
