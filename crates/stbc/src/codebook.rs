//! The replicated-Alamouti codebook for more than two senders (paper §6).
//!
//! The paper assigns codeword 1 of "the replicated Alamouti codebook
//! specified by \[16\]" to the lead sender and codeword `i+1` to co-sender
//! `i`, chosen so that (a) encoding/decoding stay as simple as Alamouti and
//! (b) the receiver can decode **any subset** of the intended senders.
//!
//! Replication achieves both: sender `i` transmits Alamouti column
//! `i mod 2`. All role-A senders combine into one effective channel
//! `H_A = Σ h_i` and all role-B senders into `H_B`, after which the
//! receiver runs the ordinary Alamouti combiner on `(H_A, H_B)`. Missing
//! senders simply drop out of the corresponding sum.

use crate::alamouti::{decode_pair, Codeword, DecodedPair};
use ssync_dsp::Complex64;

/// The codeword assigned to the sender with index `i` in the precomputed
/// forwarder/AP ordering (`0` = lead sender).
pub fn codeword_for(sender_index: usize) -> Codeword {
    if sender_index.is_multiple_of(2) {
        Codeword::A
    } else {
        Codeword::B
    }
}

/// Effective role channels `(H_A, H_B)` given the per-sender channels of
/// the senders that actually participated. `None` marks an absent sender
/// (detected by the receiver from missing energy in that sender's training
/// slot, paper §6).
pub fn effective_channels(per_sender: &[Option<Complex64>]) -> (Complex64, Complex64) {
    let mut h_a = Complex64::ZERO;
    let mut h_b = Complex64::ZERO;
    for (i, h) in per_sender.iter().enumerate() {
        if let Some(h) = h {
            match codeword_for(i) {
                Codeword::A => h_a += *h,
                Codeword::B => h_b += *h,
            }
        }
    }
    (h_a, h_b)
}

/// Decodes one received slot pair from any subset of up to `per_sender.len()`
/// replicated-Alamouti senders.
pub fn decode_pair_multi(
    y0: Complex64,
    y1: Complex64,
    per_sender: &[Option<Complex64>],
) -> DecodedPair {
    let (h_a, h_b) = effective_channels(per_sender);
    decode_pair(y0, y1, h_a, h_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alamouti::encode_pair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssync_dsp::rng::ComplexGaussian;

    fn rand_channels(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = StdRng::seed_from_u64(seed);
        ComplexGaussian::unit().sample_vec(&mut rng, n)
    }

    fn joint_rx(
        x0: Complex64,
        x1: Complex64,
        channels: &[Complex64],
        present: &[bool],
    ) -> (Complex64, Complex64) {
        let mut y0 = Complex64::ZERO;
        let mut y1 = Complex64::ZERO;
        for (i, (&h, &p)) in channels.iter().zip(present).enumerate() {
            if p {
                let (s0, s1) = encode_pair(codeword_for(i), x0, x1);
                y0 += h * s0;
                y1 += h * s1;
            }
        }
        (y0, y1)
    }

    #[test]
    fn lead_gets_codeword_a_cosenders_alternate() {
        assert_eq!(codeword_for(0), Codeword::A);
        assert_eq!(codeword_for(1), Codeword::B);
        assert_eq!(codeword_for(2), Codeword::A);
        assert_eq!(codeword_for(3), Codeword::B);
        assert_eq!(codeword_for(4), Codeword::A);
    }

    #[test]
    fn four_senders_noiseless_roundtrip() {
        let channels = rand_channels(4, 1);
        let x0 = Complex64::new(0.7, 0.7);
        let x1 = Complex64::new(-0.7, 0.7);
        let present = [true; 4];
        let (y0, y1) = joint_rx(x0, x1, &channels, &present);
        let per: Vec<Option<Complex64>> = channels.iter().map(|h| Some(*h)).collect();
        let d = decode_pair_multi(y0, y1, &per);
        assert!(d.x0.dist(x0) < 1e-12);
        assert!(d.x1.dist(x1) < 1e-12);
    }

    #[test]
    fn any_subset_decodes() {
        let channels = rand_channels(5, 2);
        let x0 = Complex64::new(1.0, 0.0);
        let x1 = Complex64::new(0.0, -1.0);
        // Every non-empty subset of 5 senders.
        for mask in 1u32..(1 << 5) {
            let present: Vec<bool> = (0..5).map(|i| mask & (1 << i) != 0).collect();
            let (y0, y1) = joint_rx(x0, x1, &channels, &present);
            let per: Vec<Option<Complex64>> = channels
                .iter()
                .zip(&present)
                .map(|(h, p)| p.then_some(*h))
                .collect();
            let d = decode_pair_multi(y0, y1, &per);
            if d.gain > 1e-9 {
                assert!(d.x0.dist(x0) < 1e-9, "mask {mask:#b}");
                assert!(d.x1.dist(x1) < 1e-9, "mask {mask:#b}");
            }
        }
    }

    #[test]
    fn replication_gain_grows_with_senders_on_average() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = ComplexGaussian::unit();
        let n = 10_000;
        let mut gain2 = 0.0;
        let mut gain4 = 0.0;
        for _ in 0..n {
            let hs: Vec<Complex64> = (0..4).map(|_| g.sample(&mut rng)).collect();
            let per2: Vec<Option<Complex64>> = hs[..2].iter().map(|h| Some(*h)).collect();
            let per4: Vec<Option<Complex64>> = hs.iter().map(|h| Some(*h)).collect();
            let (a2, b2) = effective_channels(&per2);
            let (a4, b4) = effective_channels(&per4);
            gain2 += a2.norm_sqr() + b2.norm_sqr();
            gain4 += a4.norm_sqr() + b4.norm_sqr();
        }
        // E[gain] = (number of senders) for i.i.d. unit channels: sums of
        // independent complex Gaussians keep total power additive.
        assert!((gain2 / n as f64 - 2.0).abs() < 0.1);
        assert!((gain4 / n as f64 - 4.0).abs() < 0.1);
    }

    #[test]
    fn absent_sender_equivalent_to_zero_channel() {
        let channels = rand_channels(3, 4);
        let per_absent: Vec<Option<Complex64>> = vec![Some(channels[0]), None, Some(channels[2])];
        let per_zero: Vec<Option<Complex64>> =
            vec![Some(channels[0]), Some(Complex64::ZERO), Some(channels[2])];
        assert_eq!(
            effective_channels(&per_absent),
            effective_channels(&per_zero)
        );
    }
}
