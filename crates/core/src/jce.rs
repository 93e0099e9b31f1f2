//! The Joint Channel Estimator (paper §5).
//!
//! A joint frame gives the receiver staggered training: the lead sender's
//! standard preamble (in the sync header) and one dedicated training slot
//! per co-sender. From these the receiver estimates each sender's channel
//! *individually*, detects which intended co-senders actually joined
//! (energy in their slot), folds the per-sender channels into the two
//! space-time code *role* channels, and tracks each role's residual
//! frequency offset through the packet via the shared pilots.

use ssync_dsp::{Complex64, FftPlan};
use ssync_phy::chanest::{ChanestScratch, ChannelEstimate};
use ssync_phy::scramble::pilot_polarity;
use ssync_phy::Params;
use ssync_stbc::codebook::codeword_for;
use ssync_stbc::Codeword;

/// Estimates one sender's channel from its two CP-prefixed training symbols
/// (the co-sender slot format), with the receiver's common window backoff.
///
/// `slot_start` is the receiver-buffer index where the slot begins. Returns
/// the estimate plus the measured noise power, exactly like the preamble
/// path in `ssync_phy::chanest`. The two training symbols are demodulated
/// into `scratch`'s LTS grids, so only the returned estimate allocates.
pub fn estimate_from_training_slot(
    params: &Params,
    fft: &FftPlan,
    buf: &[Complex64],
    slot_start: usize,
    cp_len: usize,
    backoff: usize,
    scratch: &mut ChanestScratch,
) -> ChannelEstimate {
    let n = params.fft_size;
    let sym_len = n + cp_len;
    let b = backoff.min(cp_len);
    // The slot carries the LTS twice, each copy behind its own prefix.
    let offsets = std::array::from_fn(|rep| slot_start + rep * sym_len + cp_len - b);
    let (refs, grids) = scratch.lts_grids(params, fft, buf, offsets);
    let mut carriers = Vec::with_capacity(refs.len());
    let mut values = Vec::with_capacity(refs.len());
    for &(k, x) in refs {
        let bin = params.bin(k);
        let avg = (grids[0][bin] + grids[1][bin]).scale(0.5);
        carriers.push(k);
        values.push(avg / Complex64::real(x));
    }
    let mut acc = 0.0;
    for &(k, _) in refs {
        let bin = params.bin(k);
        acc += (grids[0][bin] - grids[1][bin]).norm_sqr();
    }
    let noise_power = acc / (2.0 * refs.len() as f64);
    ChannelEstimate {
        carriers,
        values,
        noise_power,
    }
}

/// Missing-sender detection (paper §6): a co-sender participated if its
/// training slot holds clearly more energy than the noise floor. Returns
/// the slot's mean power relative to `noise_power` (a ratio; ≥ ~4 is a
/// confident "present").
pub fn training_slot_energy_ratio(
    buf: &[Complex64],
    slot_start: usize,
    slot_len: usize,
    noise_power: f64,
) -> f64 {
    let end = (slot_start + slot_len).min(buf.len());
    if end <= slot_start || noise_power <= 0.0 {
        return 0.0;
    }
    let p = ssync_dsp::complex::mean_power(&buf[slot_start..end]);
    p / noise_power
}

/// Threshold on [`training_slot_energy_ratio`] above which a co-sender is
/// declared present. A slot integrates over ~2 OFDM symbols, so the ratio
/// statistic is tight (σ ≈ (1+SNR)/√n): 1.6 separates "absent" (≈1.0)
/// from even a 0 dB co-sender (≈2.0) by many standard deviations.
pub const PRESENCE_THRESHOLD: f64 = 1.6;

/// The two space-time-code role channels, resolved per subcarrier.
#[derive(Debug, Clone)]
pub struct RoleChannels {
    /// Effective channel of role A (lead + even-indexed co-senders) on each
    /// *data* carrier, in `data_carriers` order.
    pub h_a: Vec<Complex64>,
    /// Effective channel of role B on each data carrier.
    pub h_b: Vec<Complex64>,
    /// Role-A channel on each *pilot* carrier, in `pilot_carriers` order.
    pub h_a_pilot: Vec<Complex64>,
    /// Role-B channel on each pilot carrier.
    pub h_b_pilot: Vec<Complex64>,
    /// Combined noise power for LLR scaling.
    pub noise_power: f64,
}

impl RoleChannels {
    /// Folds per-sender estimates into role channels. `senders[0]` is the
    /// lead; `None` marks a co-sender that did not join. Noise is taken
    /// from the lead estimate (all estimates see the same receiver floor).
    pub fn from_estimates(params: &Params, senders: &[Option<&ChannelEstimate>]) -> RoleChannels {
        assert!(!senders.is_empty(), "need at least the lead sender");
        let noise_power = senders
            .iter()
            .flatten()
            .map(|e| e.noise_power)
            .next()
            .unwrap_or(1.0);
        let gather = |carriers: &[i32]| -> (Vec<Complex64>, Vec<Complex64>) {
            let mut a = vec![Complex64::ZERO; carriers.len()];
            let mut b = vec![Complex64::ZERO; carriers.len()];
            for (idx, est) in senders.iter().enumerate() {
                let Some(est) = est else { continue };
                let dst = match codeword_for(idx) {
                    Codeword::A => &mut a,
                    Codeword::B => &mut b,
                };
                for (j, &k) in carriers.iter().enumerate() {
                    if let Some(g) = est.gain(k) {
                        dst[j] += g;
                    }
                }
            }
            (a, b)
        };
        let (h_a, h_b) = gather(&params.data_carriers);
        let (h_a_pilot, h_b_pilot) = gather(&params.pilot_carriers);
        RoleChannels {
            h_a,
            h_b,
            h_a_pilot,
            h_b_pilot,
            noise_power,
        }
    }

    /// Per-data-carrier effective power gain `|H_A|² + |H_B|²` — the
    /// quantity behind the paper's per-subcarrier SNR plots (Fig. 16).
    pub fn effective_gain(&self) -> Vec<f64> {
        self.h_a
            .iter()
            .zip(&self.h_b)
            .map(|(a, b)| a.norm_sqr() + b.norm_sqr())
            .collect()
    }

    /// Per-data-carrier effective SNR in dB.
    pub fn effective_snr_db(&self) -> Vec<f64> {
        self.effective_gain()
            .into_iter()
            .map(|g| ssync_dsp::stats::db_from_linear(g / self.noise_power.max(1e-15)))
            .collect()
    }
}

/// Residual common phase of one role measured from the pilots of one OFDM
/// symbol grid. In a joint frame role A owns the pilots of even data
/// symbols and role B those of odd ones (paper §5's shared pilots), so
/// callers pass the grid of the symbol the role owns.
pub fn role_pilot_phase(
    params: &Params,
    grid: &[Complex64],
    role_pilots: &[Complex64],
    symbol_index: usize,
) -> f64 {
    let pol = pilot_polarity(symbol_index);
    let mut acc = Complex64::ZERO;
    for (j, &k) in params.pilot_carriers.iter().enumerate() {
        let y = grid[params.bin(k)];
        acc += y * (role_pilots[j] * Complex64::real(pol)).conj();
    }
    acc.arg()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssync_dsp::rng::ComplexGaussian;
    use ssync_phy::preamble::cosender_training;
    use ssync_phy::OfdmParams;

    #[test]
    fn training_slot_estimate_recovers_unit_channel() {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let cp = 20;
        let slot = cosender_training(&params, &fft, cp);
        let mut buf = vec![Complex64::ZERO; 40];
        buf.extend_from_slice(&slot);
        buf.extend(vec![Complex64::ZERO; 40]);
        let est =
            estimate_from_training_slot(&params, &fft, &buf, 40, cp, 4, &mut ChanestScratch::new());
        for v in &est.values {
            // The backoff (4 samples inside the CP) appears as a known phase
            // ramp; magnitudes must be unity.
            assert!((v.abs() - 1.0).abs() < 1e-9, "{v:?}");
        }
        assert!(est.noise_power < 1e-12);
    }

    #[test]
    fn training_slot_estimate_with_noise() {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let cp = 20;
        let slot = cosender_training(&params, &fft, cp);
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = ComplexGaussian::with_power(0.01).sample_vec(&mut rng, slot.len() + 80);
        for (i, s) in slot.iter().enumerate() {
            buf[40 + i] += *s;
        }
        let est =
            estimate_from_training_slot(&params, &fft, &buf, 40, cp, 4, &mut ChanestScratch::new());
        // 20 dB SNR: estimates should be within ~0.2 of unit magnitude.
        for v in &est.values {
            assert!((v.abs() - 1.0).abs() < 0.3, "{v:?}");
        }
        assert!(est.noise_power > 0.0);
    }

    #[test]
    fn energy_ratio_discriminates_presence() {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let cp = 16;
        let slot = cosender_training(&params, &fft, cp);
        let mut rng = StdRng::seed_from_u64(2);
        let noise_p = 0.05;
        let mut buf = ComplexGaussian::with_power(noise_p).sample_vec(&mut rng, 2 * slot.len());
        for (i, s) in slot.iter().enumerate() {
            buf[i] += *s;
        }
        let present = training_slot_energy_ratio(&buf, 0, slot.len(), noise_p);
        let absent = training_slot_energy_ratio(&buf, slot.len(), slot.len(), noise_p);
        assert!(present > PRESENCE_THRESHOLD, "present ratio {present}");
        assert!(absent < PRESENCE_THRESHOLD, "absent ratio {absent}");
    }

    #[test]
    fn role_channels_fold_by_codeword() {
        let params = OfdmParams::dot11a();
        let mk = |v: Complex64| ChannelEstimate {
            carriers: params.occupied_carriers(),
            values: vec![v; params.occupied_carriers().len()],
            noise_power: 0.01,
        };
        let lead = mk(Complex64::new(1.0, 0.0));
        let co1 = mk(Complex64::new(0.0, 1.0));
        let co2 = mk(Complex64::new(0.5, 0.0));
        let roles = RoleChannels::from_estimates(&params, &[Some(&lead), Some(&co1), Some(&co2)]);
        // Role A = lead + co2 (indices 0 and 2); role B = co1.
        for a in &roles.h_a {
            assert!(a.dist(Complex64::new(1.5, 0.0)) < 1e-12);
        }
        for b in &roles.h_b {
            assert!(b.dist(Complex64::new(0.0, 1.0)) < 1e-12);
        }
        let g = roles.effective_gain();
        assert!((g[0] - (2.25 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn missing_cosender_drops_from_roles() {
        let params = OfdmParams::dot11a();
        let est = ChannelEstimate {
            carriers: params.occupied_carriers(),
            values: vec![Complex64::ONE; params.occupied_carriers().len()],
            noise_power: 0.01,
        };
        let roles = RoleChannels::from_estimates(&params, &[Some(&est), None]);
        for b in &roles.h_b {
            assert_eq!(*b, Complex64::ZERO);
        }
    }

    #[test]
    fn pilot_phase_reads_rotation() {
        let params = OfdmParams::dot11a();
        let role_pilots = vec![Complex64::ONE; params.pilot_carriers.len()];
        let theta = 0.4;
        let mut grid = vec![Complex64::ZERO; params.fft_size];
        let sym_idx = 5;
        let pol = pilot_polarity(sym_idx);
        for &k in &params.pilot_carriers {
            grid[params.bin(k)] = Complex64::from_polar(1.0, theta) * Complex64::real(pol);
        }
        let measured = role_pilot_phase(&params, &grid, &role_pilots, sym_idx);
        assert!((measured - theta).abs() < 1e-9, "measured {measured}");
    }
}
