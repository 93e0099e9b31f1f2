//! The Alamouti space-time block code (paper §6).
//!
//! SourceSync applies the code *per subcarrier across pairs of OFDM
//! symbols*: slot 1 is one OFDM symbol, slot 2 the next. A sender holding
//! codeword role A transmits `[x₀, −x₁*]` over the pair; role B transmits
//! `[x₁, x₀*]`. The receiver combines the pair with the per-sender channel
//! estimates, obtaining an effective channel gain `|h_A|² + |h_B|²` — the
//! guarantee that two senders can never combine fully destructively, which
//! is the Smart Combiner's whole purpose.

use ssync_dsp::Complex64;

/// Which Alamouti column a sender transmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codeword {
    /// Column A: `[x₀, −x₁*]`.
    A,
    /// Column B: `[x₁, x₀*]`.
    B,
}

/// The pair of symbols a sender with `codeword` transmits over two slots
/// for the data pair `(x0, x1)`.
pub fn encode_pair(codeword: Codeword, x0: Complex64, x1: Complex64) -> (Complex64, Complex64) {
    match codeword {
        Codeword::A => (x0, -x1.conj()),
        Codeword::B => (x1, x0.conj()),
    }
}

/// Encodes a symbol stream for one sender role. Odd-length streams are
/// implicitly padded with a zero symbol (the decoder does the same).
pub fn encode_stream(codeword: Codeword, xs: &[Complex64]) -> Vec<Complex64> {
    let mut out = Vec::with_capacity(xs.len() + xs.len() % 2);
    let mut i = 0;
    while i < xs.len() {
        let x0 = xs[i];
        let x1 = xs.get(i + 1).copied().unwrap_or(Complex64::ZERO);
        let (s0, s1) = encode_pair(codeword, x0, x1);
        out.push(s0);
        out.push(s1);
        i += 2;
    }
    out
}

/// Result of combining one received slot pair.
#[derive(Debug, Clone, Copy)]
pub struct DecodedPair {
    /// Estimate of `x₀` (already divided by the effective gain).
    pub x0: Complex64,
    /// Estimate of `x₁`.
    pub x1: Complex64,
    /// The effective channel gain `|h_A|² + |h_B|²`. Post-combining noise
    /// variance is `n0 / gain`, so the effective SNR is `gain`× the
    /// single-branch SNR at equal `n0`.
    pub gain: f64,
}

/// Combines one received slot pair `(y0, y1)` given channel estimates for
/// the role-A and role-B senders. A missing sender is expressed by a zero
/// channel — the decoder then degenerates gracefully (subset decodability,
/// paper §6).
pub fn decode_pair(y0: Complex64, y1: Complex64, h_a: Complex64, h_b: Complex64) -> DecodedPair {
    let gain = h_a.norm_sqr() + h_b.norm_sqr();
    if gain < 1e-15 {
        return DecodedPair {
            x0: Complex64::ZERO,
            x1: Complex64::ZERO,
            gain: 0.0,
        };
    }
    let x0 = (h_a.conj() * y0 + h_b * y1.conj()).scale(1.0 / gain);
    let x1 = (h_b.conj() * y0 - h_a * y1.conj()).scale(1.0 / gain);
    DecodedPair { x0, x1, gain }
}

/// Decodes a received slot stream; `ys.len()` must be even.
pub fn decode_stream(ys: &[Complex64], h_a: Complex64, h_b: Complex64) -> Vec<DecodedPair> {
    assert!(
        ys.len().is_multiple_of(2),
        "slot stream must contain whole pairs"
    );
    ys.chunks_exact(2)
        .map(|p| decode_pair(p[0], p[1], h_a, h_b))
        .collect()
}

/// Receiver-side maximal-ratio combining of independent observations of the
/// same symbol: `x̂ = Σ hᵢ*yᵢ / Σ|hᵢ|²`, with the combined gain returned.
pub fn mrc(observations: &[(Complex64, Complex64)]) -> (Complex64, f64) {
    let mut num = Complex64::ZERO;
    let mut gain = 0.0;
    for &(y, h) in observations {
        num += h.conj() * y;
        gain += h.norm_sqr();
    }
    if gain < 1e-15 {
        (Complex64::ZERO, 0.0)
    } else {
        (num.scale(1.0 / gain), gain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssync_dsp::rng::ComplexGaussian;

    fn channel_pair(seed: u64) -> (Complex64, Complex64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = ComplexGaussian::unit();
        (g.sample(&mut rng), g.sample(&mut rng))
    }

    fn transmit(
        x0: Complex64,
        x1: Complex64,
        h_a: Complex64,
        h_b: Complex64,
    ) -> (Complex64, Complex64) {
        let (a0, a1) = encode_pair(Codeword::A, x0, x1);
        let (b0, b1) = encode_pair(Codeword::B, x0, x1);
        (h_a * a0 + h_b * b0, h_a * a1 + h_b * b1)
    }

    #[test]
    fn noiseless_roundtrip() {
        let (h_a, h_b) = channel_pair(1);
        let x0 = Complex64::new(0.7, -0.7);
        let x1 = Complex64::new(-0.7, -0.7);
        let (y0, y1) = transmit(x0, x1, h_a, h_b);
        let d = decode_pair(y0, y1, h_a, h_b);
        assert!(d.x0.dist(x0) < 1e-12);
        assert!(d.x1.dist(x1) < 1e-12);
        assert!((d.gain - (h_a.norm_sqr() + h_b.norm_sqr())).abs() < 1e-12);
    }

    #[test]
    fn destructive_channels_still_decode() {
        // The §6 motivating case: h_B = −h_A would null naive identical
        // transmission, but Alamouti's gain is |h|²+|h|² = 2|h|².
        let h_a = Complex64::new(0.8, 0.3);
        let h_b = -h_a;
        let x0 = Complex64::new(1.0, 0.0);
        let x1 = Complex64::new(0.0, 1.0);
        // Naive: both senders transmit x0 in slot 0 → exact null.
        let naive = h_a * x0 + h_b * x0;
        assert!(naive.abs() < 1e-12);
        // Alamouti: decodes at full diversity gain.
        let (y0, y1) = transmit(x0, x1, h_a, h_b);
        let d = decode_pair(y0, y1, h_a, h_b);
        assert!(d.x0.dist(x0) < 1e-12);
        assert!(d.x1.dist(x1) < 1e-12);
        assert!((d.gain - 2.0 * h_a.norm_sqr()).abs() < 1e-12);
    }

    #[test]
    fn subset_only_sender_a_present() {
        let (h_a, _) = channel_pair(2);
        let x0 = Complex64::new(-1.0, 1.0);
        let x1 = Complex64::new(1.0, 1.0);
        let (a0, a1) = encode_pair(Codeword::A, x0, x1);
        let y0 = h_a * a0;
        let y1 = h_a * a1;
        let d = decode_pair(y0, y1, h_a, Complex64::ZERO);
        assert!(d.x0.dist(x0) < 1e-12);
        assert!(d.x1.dist(x1) < 1e-12);
        assert!((d.gain - h_a.norm_sqr()).abs() < 1e-12);
    }

    #[test]
    fn subset_only_sender_b_present() {
        let (_, h_b) = channel_pair(3);
        let x0 = Complex64::new(0.5, 0.5);
        let x1 = Complex64::new(-0.5, 0.5);
        let (b0, b1) = encode_pair(Codeword::B, x0, x1);
        let d = decode_pair(h_b * b0, h_b * b1, Complex64::ZERO, h_b);
        assert!(d.x0.dist(x0) < 1e-12);
        assert!(d.x1.dist(x1) < 1e-12);
    }

    #[test]
    fn no_senders_yields_zero_gain() {
        let d = decode_pair(
            Complex64::ONE,
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::ZERO,
        );
        assert_eq!(d.gain, 0.0);
    }

    #[test]
    fn diversity_gain_beats_single_sender_on_average() {
        // Mean effective gain of Alamouti over two unit Rayleigh channels is
        // 2 (3 dB power gain), and its variance is lower than a single
        // channel's (diversity): P(gain < 0.2) should be much rarer.
        let mut rng = StdRng::seed_from_u64(4);
        let g = ComplexGaussian::unit();
        let n = 20_000;
        let mut single_deep = 0;
        let mut joint_deep = 0;
        let mut joint_sum = 0.0;
        for _ in 0..n {
            let h1 = g.sample(&mut rng);
            let h2 = g.sample(&mut rng);
            if h1.norm_sqr() < 0.2 {
                single_deep += 1;
            }
            let gain = h1.norm_sqr() + h2.norm_sqr();
            joint_sum += gain;
            if gain < 0.2 {
                joint_deep += 1;
            }
        }
        assert!((joint_sum / n as f64 - 2.0).abs() < 0.05);
        assert!(
            joint_deep * 5 < single_deep,
            "deep fades: joint {joint_deep} vs single {single_deep}"
        );
    }

    #[test]
    fn stream_roundtrip_with_padding() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = ComplexGaussian::unit();
        let xs = g.sample_vec(&mut rng, 7); // odd → padded
        let (h_a, h_b) = channel_pair(6);
        let sa = encode_stream(Codeword::A, &xs);
        let sb = encode_stream(Codeword::B, &xs);
        assert_eq!(sa.len(), 8);
        let ys: Vec<Complex64> = sa
            .iter()
            .zip(&sb)
            .map(|(a, b)| h_a * *a + h_b * *b)
            .collect();
        let decoded = decode_stream(&ys, h_a, h_b);
        for (i, x) in xs.iter().enumerate() {
            let d = decoded[i / 2];
            let got = if i % 2 == 0 { d.x0 } else { d.x1 };
            assert!(got.dist(*x) < 1e-12, "symbol {i}");
        }
        // The pad position decodes to zero.
        assert!(decoded[3].x1.abs() < 1e-12);
    }

    #[test]
    fn mrc_combines_coherently() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = ComplexGaussian::unit();
        let x = Complex64::new(0.7, 0.7);
        let obs: Vec<(Complex64, Complex64)> = (0..3)
            .map(|_| {
                let h = g.sample(&mut rng);
                (h * x, h)
            })
            .collect();
        let (xhat, gain) = mrc(&obs);
        assert!(xhat.dist(x) < 1e-12);
        let expect: f64 = obs.iter().map(|(_, h)| h.norm_sqr()).sum();
        assert!((gain - expect).abs() < 1e-12);
    }

    #[test]
    fn mrc_empty_is_zero() {
        let (x, g) = mrc(&[]);
        assert_eq!(x, Complex64::ZERO);
        assert_eq!(g, 0.0);
    }

    #[test]
    #[should_panic(expected = "whole pairs")]
    fn odd_slot_stream_rejected() {
        let _ = decode_stream(&[Complex64::ONE], Complex64::ONE, Complex64::ONE);
    }
}
