//! Training preambles: short training sequence (STS) for detection/coarse
//! CFO, long training sequence (LTS) for fine timing, fine CFO and channel
//! estimation.
//!
//! Both are generated procedurally from the numerology (rather than from
//! hard-coded 802.11 tables) so the same construction serves the `dot11a`
//! and `wiglan` presets:
//!
//! * STS — occupies every 4th subcarrier, making the time-domain signal
//!   periodic with period `N/4`; transmitted as [`STS_REPS`] repetitions of
//!   that period.
//! * LTS — BPSK ±1 on every occupied subcarrier from a fixed PRBS, preceded
//!   by a double-length guard (`N/2` samples) and transmitted twice.
//!
//! What matters for SourceSync is the *structure* (periodicity, flatness,
//! known at the receiver), not the specific 802.11 table values.

use crate::params::OfdmParams;
use crate::scramble::Scrambler;
use ssync_dsp::{Complex64, FftPlan};

/// Number of short-training periods transmitted (802.11 uses 10).
pub const STS_REPS: usize = 10;

/// Number of long-training symbol repetitions (802.11 uses 2).
pub const LTS_REPS: usize = 2;

/// Seed for the LTS BPSK pattern PRBS.
const LTS_SEED: u8 = 0b100_1011;
/// Seed for the STS QPSK pattern PRBS.
const STS_SEED: u8 = 0b110_0101;

/// The signed subcarrier indices the STS occupies: occupied carriers that are
/// multiples of 4.
pub fn sts_carriers(params: &OfdmParams) -> Vec<i32> {
    params
        .occupied_carriers()
        .into_iter()
        .filter(|k| k % 4 == 0)
        .collect()
}

/// Frequency-domain LTS values (±1) for every occupied carrier, in
/// ascending-carrier order. Deterministic per numerology.
pub fn lts_values(params: &OfdmParams) -> Vec<(i32, f64)> {
    let mut prbs = Scrambler::new(LTS_SEED);
    params
        .occupied_carriers()
        .into_iter()
        .map(|k| (k, if prbs.next_bit() == 0 { 1.0 } else { -1.0 }))
        .collect()
}

fn build_time_symbol(
    params: &OfdmParams,
    fft: &FftPlan,
    values: &[(i32, Complex64)],
) -> Vec<Complex64> {
    let mut grid = vec![Complex64::ZERO; params.fft_size];
    for &(k, v) in values {
        grid[params.bin(k)] = v;
    }
    let mut time = fft.inverse_to_vec(&grid);
    // Unit mean power on air.
    ssync_dsp::complex::normalize_power(&mut time, 1.0);
    time
}

/// One period (`N/4` samples) of the short training signal.
pub fn sts_period(params: &OfdmParams, fft: &FftPlan) -> Vec<Complex64> {
    let mut prbs = Scrambler::new(STS_SEED);
    let values: Vec<(i32, Complex64)> = sts_carriers(params)
        .into_iter()
        .map(|k| {
            // QPSK point per carrier from two PRBS bits.
            let b0 = prbs.next_bit();
            let b1 = prbs.next_bit();
            let re = if b0 == 0 { 1.0 } else { -1.0 };
            let im = if b1 == 0 { 1.0 } else { -1.0 };
            (k, Complex64::new(re, im))
        })
        .collect();
    let time = build_time_symbol(params, fft, &values);
    time[..params.fft_size / 4].to_vec()
}

/// One full LTS time-domain symbol (`N` samples, no guard).
pub fn lts_symbol(params: &OfdmParams, fft: &FftPlan) -> Vec<Complex64> {
    let values: Vec<(i32, Complex64)> = lts_values(params)
        .into_iter()
        .map(|(k, v)| (k, Complex64::real(v)))
        .collect();
    build_time_symbol(params, fft, &values)
}

/// Sample layout of a preamble within a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreambleLayout {
    /// Samples of short training ([`STS_REPS`] × `N/4`).
    pub sts_len: usize,
    /// Guard before the long training (`N/2` samples).
    pub lts_guard: usize,
    /// Samples of long training ([`LTS_REPS`] × `N`).
    pub lts_len: usize,
}

impl PreambleLayout {
    /// The layout for a numerology.
    pub fn of(params: &OfdmParams) -> Self {
        PreambleLayout {
            sts_len: STS_REPS * (params.fft_size / 4),
            lts_guard: params.fft_size / 2,
            lts_len: LTS_REPS * params.fft_size,
        }
    }

    /// Total preamble length in samples.
    pub fn total_len(&self) -> usize {
        self.sts_len + self.lts_guard + self.lts_len
    }

    /// Offset of the first LTS repetition from the start of the preamble.
    pub fn lts_start(&self) -> usize {
        self.sts_len + self.lts_guard
    }
}

/// The complete preamble waveform: STS repetitions, guard, LTS repetitions.
pub fn preamble_waveform(params: &OfdmParams, fft: &FftPlan) -> Vec<Complex64> {
    let layout = PreambleLayout::of(params);
    let sts = sts_period(params, fft);
    let lts = lts_symbol(params, fft);
    let mut out = Vec::with_capacity(layout.total_len());
    for _ in 0..STS_REPS {
        out.extend_from_slice(&sts);
    }
    // Guard: cyclic extension of the LTS (its last N/2 samples), exactly as
    // 802.11 does, so the LTS FFT window tolerates early timing.
    out.extend_from_slice(&lts[params.fft_size - layout.lts_guard..]);
    for _ in 0..LTS_REPS {
        out.extend_from_slice(&lts);
    }
    debug_assert_eq!(out.len(), layout.total_len());
    out
}

/// Channel-estimation symbols a SourceSync co-sender transmits in its
/// reserved slot of a joint frame (paper §4.4): the LTS as two ordinary
/// OFDM symbols, each with a cyclic prefix of `cp_len` samples (the same
/// extended CP the joint data symbols use), so the receiver's backed-off
/// FFT windows see a circular shift rather than inter-slot interference.
pub fn cosender_training(params: &OfdmParams, fft: &FftPlan, cp_len: usize) -> Vec<Complex64> {
    let lts = lts_symbol(params, fft);
    let n = params.fft_size;
    assert!(cp_len < n, "cyclic prefix must be shorter than the FFT");
    let mut out = Vec::with_capacity(2 * (n + cp_len));
    for _ in 0..2 {
        out.extend_from_slice(&lts[n - cp_len..]);
        out.extend_from_slice(&lts);
    }
    out
}

/// Length in samples of one co-sender training slot at `cp_len`.
pub fn cosender_training_len(params: &OfdmParams, cp_len: usize) -> usize {
    2 * (params.fft_size + cp_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OfdmParams;

    #[test]
    fn sts_is_periodic() {
        for params in [OfdmParams::dot11a(), OfdmParams::wiglan()] {
            let fft = FftPlan::new(params.fft_size);
            let pre = preamble_waveform(&params, &fft);
            let period = params.fft_size / 4;
            let layout = PreambleLayout::of(&params);
            for t in 0..layout.sts_len - period {
                assert!(
                    pre[t].dist(pre[t + period]) < 1e-9,
                    "{}: STS not periodic at {t}",
                    params.name
                );
            }
        }
    }

    #[test]
    fn lts_repetitions_identical() {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let pre = preamble_waveform(&params, &fft);
        let layout = PreambleLayout::of(&params);
        let l0 = layout.lts_start();
        for t in 0..params.fft_size {
            assert!(pre[l0 + t].dist(pre[l0 + params.fft_size + t]) < 1e-12);
        }
    }

    #[test]
    fn lts_guard_is_cyclic_extension() {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let pre = preamble_waveform(&params, &fft);
        let layout = PreambleLayout::of(&params);
        let guard_start = layout.sts_len;
        let lts0 = layout.lts_start();
        for t in 0..layout.lts_guard {
            assert!(
                pre[guard_start + t].dist(pre[lts0 + params.fft_size - layout.lts_guard + t])
                    < 1e-12
            );
        }
    }

    #[test]
    fn preamble_has_unit_power() {
        for params in [OfdmParams::dot11a(), OfdmParams::wiglan()] {
            let fft = FftPlan::new(params.fft_size);
            let pre = preamble_waveform(&params, &fft);
            let p = ssync_dsp::complex::mean_power(&pre);
            assert!(
                (p - 1.0).abs() < 0.05,
                "{}: preamble power {p}",
                params.name
            );
        }
    }

    #[test]
    fn lts_occupies_all_occupied_carriers() {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let lts = lts_symbol(&params, &fft);
        let spec = fft.forward_to_vec(&lts);
        for k in params.occupied_carriers() {
            assert!(spec[params.bin(k)].abs() > 0.1, "carrier {k} empty");
        }
        // DC and unoccupied bins empty.
        assert!(spec[0].abs() < 1e-9);
    }

    #[test]
    fn deterministic_across_calls() {
        let params = OfdmParams::wiglan();
        let fft = FftPlan::new(params.fft_size);
        let a = preamble_waveform(&params, &fft);
        let b = preamble_waveform(&params, &fft);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
        }
    }

    #[test]
    fn layout_arithmetic() {
        let params = OfdmParams::dot11a();
        let layout = PreambleLayout::of(&params);
        assert_eq!(layout.sts_len, 160);
        assert_eq!(layout.lts_guard, 32);
        assert_eq!(layout.lts_len, 128);
        assert_eq!(layout.total_len(), 320); // standard 802.11a preamble = 16 µs
        assert_eq!(layout.lts_start(), 192);
    }

    #[test]
    fn cosender_training_is_two_cp_prefixed_lts() {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let cp = 20;
        let tr = cosender_training(&params, &fft, cp);
        let lts = lts_symbol(&params, &fft);
        assert_eq!(tr.len(), cosender_training_len(&params, cp));
        let n = params.fft_size;
        for rep in 0..2 {
            let base = rep * (n + cp);
            // CP is the LTS tail.
            for t in 0..cp {
                assert!(tr[base + t].dist(lts[n - cp + t]) < 1e-12);
            }
            for t in 0..n {
                assert!(tr[base + cp + t].dist(lts[t]) < 1e-12);
            }
        }
    }
}
