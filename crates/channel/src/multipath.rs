//! Small-scale fading: a tapped-delay-line multipath channel with an
//! exponential power-delay profile and Rayleigh taps.
//!
//! This is the mechanism behind three of the paper's core observations:
//!
//! * frequency-selective fading across the 20 MHz band (different senders
//!   fade in different subcarriers — the diversity SourceSync harvests,
//!   Figs. 15–16),
//! * the cyclic prefix budget (the delay spread sets the minimum CP; the
//!   paper's Fig. 14 shows ~15 significant taps at 128 Msps ≈ 117 ns, which
//!   is this module's default), and
//! * inter-symbol interference when the CP is too short (Fig. 13's left
//!   region).

use rand::Rng;
use ssync_dsp::delay::convolve_gather;
use ssync_dsp::rng::ComplexGaussian;
use ssync_dsp::{Complex64, FftPlan};
use std::ops::Range;

/// Parameters from which per-link channel realisations are drawn.
#[derive(Debug, Clone, Copy)]
pub struct MultipathProfile {
    /// RMS delay spread in seconds (indoor office: 30–100 ns).
    pub rms_delay_spread_s: f64,
    /// Sample rate the tap grid lives on.
    pub sample_rate_hz: f64,
    /// Taps are generated until the profile decays below this fraction of
    /// the first tap's power (and at least one tap is always generated).
    pub cutoff: f64,
}

impl MultipathProfile {
    /// An indoor profile with the given RMS delay spread.
    pub fn indoor(rms_delay_spread_s: f64, sample_rate_hz: f64) -> Self {
        MultipathProfile {
            rms_delay_spread_s,
            sample_rate_hz,
            cutoff: 1e-2,
        }
    }

    /// The paper-matched profile: ~40 ns RMS spread, which at 128 Msps puts
    /// ~15 significant taps in the impulse response (Fig. 14).
    pub fn testbed(sample_rate_hz: f64) -> Self {
        Self::indoor(40e-9, sample_rate_hz)
    }

    /// A single-tap (flat, frequency-nonselective) profile.
    pub fn flat(sample_rate_hz: f64) -> Self {
        MultipathProfile {
            rms_delay_spread_s: 0.0,
            sample_rate_hz,
            cutoff: 1e-2,
        }
    }

    /// Number of taps this profile generates.
    pub fn n_taps(&self) -> usize {
        if self.rms_delay_spread_s <= 0.0 {
            return 1;
        }
        let spread_samples = self.rms_delay_spread_s * self.sample_rate_hz;
        // Exponential PDP: power decays by cutoff after −ln(cutoff)·spread.
        ((-self.cutoff.ln()) * spread_samples).ceil() as usize + 1
    }

    /// Draws one Rayleigh-faded channel realisation, normalised to unit
    /// total power (path loss is applied separately).
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Multipath {
        let n = self.n_taps();
        let spread_samples = (self.rms_delay_spread_s * self.sample_rate_hz).max(1e-9);
        let mut taps = Vec::with_capacity(n);
        if n == 1 {
            // Flat Rayleigh: single complex Gaussian tap, then normalised —
            // which leaves a pure random phase. Keep the random phase.
            let g = ComplexGaussian::unit().sample(rng);
            let mag = g.abs().max(1e-12);
            taps.push(g.scale(1.0 / mag));
        } else {
            for k in 0..n {
                let power = (-(k as f64) / spread_samples).exp();
                taps.push(ComplexGaussian::with_power(power).sample(rng));
            }
            let total: f64 = taps.iter().map(|t| t.norm_sqr()).sum();
            let norm = total.sqrt().max(1e-12);
            for t in taps.iter_mut() {
                *t = t.scale(1.0 / norm);
            }
        }
        Multipath { taps }
    }
}

/// One realised multipath channel (unit total power).
#[derive(Debug, Clone, PartialEq)]
pub struct Multipath {
    /// Complex tap gains at consecutive sample delays, tap 0 first.
    pub taps: Vec<Complex64>,
}

impl Multipath {
    /// An ideal (identity) channel.
    pub fn identity() -> Self {
        Multipath {
            taps: vec![Complex64::ONE],
        }
    }

    /// A channel with explicit taps (not normalised).
    pub fn from_taps(taps: Vec<Complex64>) -> Self {
        assert!(!taps.is_empty(), "channel needs at least one tap");
        Multipath { taps }
    }

    /// Outputs `span` of the linear convolution of a waveform with the
    /// channel, whose full length is `input.len() + taps.len() − 1` (pass
    /// `0..` that length for all of it). `out` is cleared and refilled with
    /// `span.len()` samples, so a reused buffer makes the steady-state
    /// convolution allocation-free and gives the same bits as a fresh one.
    ///
    /// Output `c` sums `input[i]·taps[c − i]` over ascending `i`, starting
    /// from `Complex64::ZERO`: the order of the per-input scatter loop
    /// this gather replaced (`tests::scatter_oracle` keeps it as the
    /// reference), so every pinned capture keeps its bits. The loop is
    /// [`ssync_dsp::delay::convolve_gather`], the fractional delay's
    /// kernel, here over complex taps.
    ///
    /// # Panics
    /// Panics if `span` reaches past the full convolution.
    pub fn apply_into(&self, input: &[Complex64], span: Range<usize>, out: &mut Vec<Complex64>) {
        let taps = &self.taps[..];
        assert!(
            span.start <= span.end && span.end < input.len() + taps.len(),
            "span {span:?} outside the {}-sample convolution",
            input.len() + taps.len() - 1
        );
        out.clear();
        out.resize(span.len(), Complex64::ZERO);
        convolve_gather(input, taps, span.start, out);
    }

    /// Frequency response over `n` FFT bins.
    pub fn frequency_response(&self, n: usize) -> Vec<Complex64> {
        let fft = FftPlan::new(n);
        let mut buf = vec![Complex64::ZERO; n];
        for (i, t) in self.taps.iter().enumerate() {
            buf[i % n] += *t;
        }
        fft.forward_to_vec(&buf)
    }

    /// Total tap power.
    pub fn power(&self) -> f64 {
        self.taps.iter().map(|t| t.norm_sqr()).sum()
    }

    /// Number of taps holding the top `fraction` of the energy (the
    /// "significant taps" count of the paper's Fig. 14, with taps taken in
    /// delay order).
    pub fn significant_taps(&self, fraction: f64) -> usize {
        let total = self.power();
        if total <= 0.0 {
            return 0;
        }
        let mut acc = 0.0;
        for (i, t) in self.taps.iter().enumerate() {
            acc += t.norm_sqr();
            if acc >= fraction * total {
                return i + 1;
            }
        }
        self.taps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The whole convolution into a fresh buffer.
    fn apply_fresh(ch: &Multipath, x: &[Complex64]) -> Vec<Complex64> {
        let mut out = Vec::new();
        ch.apply_into(x, 0..x.len() + ch.taps.len() - 1, &mut out);
        out
    }

    /// The per-input scatter convolution the gather kernel replaced, kept
    /// as the bit-exact oracle: each input adds its tap products into the
    /// outputs it reaches, in ascending input order.
    fn scatter_oracle(ch: &Multipath, input: &[Complex64]) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; input.len() + ch.taps.len() - 1];
        for (i, x) in input.iter().enumerate() {
            for (j, h) in ch.taps.iter().enumerate() {
                out[i + j] += *x * *h;
            }
        }
        out
    }

    #[test]
    fn gather_convolution_bitwise_matches_scatter_oracle() {
        // Whole convolutions and random spans of them, for 1, 5 and 9 taps
        // and inputs shorter than the channel, around one block, and long
        // enough for many blocks plus a ragged tail. Signed zeros: a −0.0
        // product added to the +0.0 start must come out the same way in
        // both loops.
        let mut rng = StdRng::seed_from_u64(7);
        let gauss = ComplexGaussian::unit();
        let mut out = vec![Complex64::J; 900];
        for n_taps in [1usize, 5, 9] {
            let mut taps = gauss.sample_vec(&mut rng, n_taps);
            taps[n_taps / 2] = Complex64::new(-0.0, taps[n_taps / 2].im);
            let ch = Multipath::from_taps(taps);
            for n in [1usize, 3, 8, 13, 64, 517] {
                let mut x = gauss.sample_vec(&mut rng, n);
                for s in x.iter_mut().step_by(3) {
                    *s = Complex64::new(s.re, -0.0);
                }
                x[n - 1] = Complex64::new(-0.0, -0.0);
                let want = scatter_oracle(&ch, &x);
                let len = want.len();
                let mut spans = vec![(0, len), (0, 1), (len - 1, len), (len, len)];
                for _ in 0..10 {
                    let a = rng.gen_range(0..len);
                    spans.push((a, rng.gen_range(a..=len)));
                }
                for (lo, hi) in spans {
                    ch.apply_into(&x, lo..hi, &mut out);
                    assert_eq!(out.len(), hi - lo);
                    for (c, (a, b)) in out.iter().zip(&want[lo..hi]).enumerate() {
                        let at = format!("taps {n_taps} n {n} span [{lo}, {hi}) c {c}");
                        assert_eq!(a.re.to_bits(), b.re.to_bits(), "{at}");
                        assert_eq!(a.im.to_bits(), b.im.to_bits(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn unit_power_realisations() {
        let profile = MultipathProfile::testbed(128e6);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let ch = profile.draw(&mut rng);
            assert!((ch.power() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn testbed_profile_matches_fig14_tap_count() {
        // ~15 significant taps at 128 Msps (95% of energy), averaged.
        let profile = MultipathProfile::testbed(128e6);
        let mut rng = StdRng::seed_from_u64(2);
        let counts: Vec<f64> = (0..200)
            .map(|_| profile.draw(&mut rng).significant_taps(0.95) as f64)
            .collect();
        let mean = ssync_dsp::stats::mean(&counts);
        assert!(
            (10.0..=20.0).contains(&mean),
            "mean significant taps {mean}, expected ≈15"
        );
    }

    #[test]
    fn flat_profile_single_unit_tap() {
        let profile = MultipathProfile::flat(20e6);
        let mut rng = StdRng::seed_from_u64(3);
        let ch = profile.draw(&mut rng);
        assert_eq!(ch.taps.len(), 1);
        assert!((ch.taps[0].abs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn identity_is_transparent() {
        let ch = Multipath::identity();
        let x = vec![Complex64::new(1.0, 2.0), Complex64::new(-3.0, 0.5)];
        assert_eq!(apply_fresh(&ch, &x), x);
    }

    #[test]
    fn convolution_matches_manual() {
        let ch = Multipath::from_taps(vec![Complex64::ONE, Complex64::new(0.0, 0.5)]);
        let x = vec![Complex64::real(1.0), Complex64::real(2.0)];
        let y = apply_fresh(&ch, &x);
        assert_eq!(y.len(), 3);
        assert!(y[0].dist(Complex64::new(1.0, 0.0)) < 1e-12);
        assert!(y[1].dist(Complex64::new(2.0, 0.5)) < 1e-12);
        assert!(y[2].dist(Complex64::new(0.0, 1.0)) < 1e-12);
    }

    #[test]
    fn apply_into_matches_apply_bit_for_bit() {
        let profile = MultipathProfile::testbed(128e6);
        let mut rng = StdRng::seed_from_u64(6);
        let ch = profile.draw(&mut rng);
        let x: Vec<Complex64> = (0..64)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let fresh = apply_fresh(&ch, &x);
        // A dirty, over-sized reused buffer must produce the same bits.
        let mut out = vec![Complex64::ONE; 500];
        ch.apply_into(&x, 0..fresh.len(), &mut out);
        assert_eq!(out.len(), fresh.len());
        for (a, b) in out.iter().zip(&fresh) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn frequency_response_of_identity_is_flat() {
        let fr = Multipath::identity().frequency_response(64);
        for v in fr {
            assert!(v.dist(Complex64::ONE) < 1e-12);
        }
    }

    #[test]
    fn frequency_selectivity_grows_with_spread() {
        // Standard deviation of per-bin |H| should be larger for a longer
        // delay spread.
        let mut rng = StdRng::seed_from_u64(4);
        let var_of = |spread: f64, rng: &mut StdRng| {
            let profile = MultipathProfile::indoor(spread, 20e6);
            let mut vars = Vec::new();
            for _ in 0..50 {
                let fr = profile.draw(rng).frequency_response(64);
                let mags: Vec<f64> = fr.iter().map(|v| v.abs()).collect();
                vars.push(ssync_dsp::stats::std_dev(&mags));
            }
            ssync_dsp::stats::mean(&vars)
        };
        let flat_var = var_of(0.0, &mut rng);
        let sel_var = var_of(100e-9, &mut rng);
        assert!(
            sel_var > flat_var + 0.1,
            "selective {sel_var} vs flat {flat_var}"
        );
    }

    #[test]
    fn independent_draws_differ() {
        let profile = MultipathProfile::testbed(128e6);
        let mut rng = StdRng::seed_from_u64(5);
        let a = profile.draw(&mut rng);
        let b = profile.draw(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_taps_rejected() {
        let _ = Multipath::from_taps(vec![]);
    }
}
