//! Monte-Carlo packet-error-rate measurement and PER tables.
//!
//! Packet-level models (Fig. 17's last hop, the ETX metric behind the
//! testbed's forwarder order, the city backhaul) read delivery off a
//! [`PerTable`] instead of running the sample-level modem per packet. This
//! module can measure PER-vs-SNR curves through the *actual* modem
//! ([`PerTable::calibrate`]), but every caller today uses
//! [`PerTable::analytic`]: hand-typed logistic curves, not measured ones.

use crate::params::{Params, RateId};
use crate::rx::Receiver;
use crate::tx::Transmitter;
use crate::workspace::{RxWorkspace, TxWorkspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssync_dsp::rng::ComplexGaussian;
use ssync_dsp::stats::linear_from_db;
use ssync_dsp::Complex64;

/// Effective-SNR penalty (dB) of a *single* frequency-selective Rayleigh
/// link relative to an AWGN link of the same mean SNR: coded 802.11 PER is
/// dominated by the faded subcarriers, so a fading link decodes like an
/// AWGN link ~1.5 dB weaker. A SourceSync joint transmission flattens the
/// composite channel (paper Fig. 16) and recovers this penalty — measured
/// in this workspace by `fig15_power_gains` (joint gain 3.1–3.8 dB vs the
/// pure 3 dB power gain) and by the fig16 flatness statistics.
pub const FADING_PENALTY_DB: f64 = 1.5;

/// One empirically measured PER point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerPoint {
    /// Mean receiver SNR in dB at which the trials ran.
    pub snr_db: f64,
    /// Fraction of packets that failed (detection, decode, or CRC).
    pub per: f64,
}

/// A PER-vs-SNR curve for one rate, measured through the full modem.
#[derive(Debug, Clone)]
pub struct PerCurve {
    /// The rate this curve describes.
    pub rate: RateId,
    /// Points sorted by ascending SNR.
    pub points: Vec<PerPoint>,
}

impl PerCurve {
    /// Linearly interpolated PER at `snr_db`, clamped to the measured range.
    pub fn per_at(&self, snr_db: f64) -> f64 {
        let pts = &self.points;
        if pts.is_empty() {
            return 1.0;
        }
        if snr_db <= pts[0].snr_db {
            return pts[0].per;
        }
        if snr_db >= pts[pts.len() - 1].snr_db {
            return pts[pts.len() - 1].per;
        }
        for w in pts.windows(2) {
            if snr_db >= w[0].snr_db && snr_db <= w[1].snr_db {
                let f = (snr_db - w[0].snr_db) / (w[1].snr_db - w[0].snr_db);
                return w[0].per * (1.0 - f) + w[1].per * f;
            }
        }
        1.0
    }

    /// The lowest SNR at which PER drops below `target` (by interpolation),
    /// or `None` if it never does within the measured range.
    pub fn snr_for_per(&self, target: f64) -> Option<f64> {
        for w in self.points.windows(2) {
            if w[0].per >= target && w[1].per < target {
                let f = (w[0].per - target) / (w[0].per - w[1].per).max(1e-12);
                return Some(w[0].snr_db + f * (w[1].snr_db - w[0].snr_db));
            }
        }
        self.points
            .first()
            .and_then(|p| (p.per < target).then_some(p.snr_db))
    }
}

/// Measures the PER of `rate` at one SNR over an AWGN channel, running
/// `trials` full TX→noise→RX packet round trips of `payload_len` bytes.
pub fn measure_per_awgn(
    params: &Params,
    rate: RateId,
    snr_db: f64,
    payload_len: usize,
    trials: usize,
    seed: u64,
) -> PerPoint {
    let tx = Transmitter::new(params.clone());
    let rx = Receiver::new(params.clone());
    let (mut tx_ws, mut rx_ws) = (TxWorkspace::new(params), RxWorkspace::new(params));
    let mut wave = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let noise = ComplexGaussian::with_power(linear_from_db(-snr_db));
    let mut failures = 0usize;
    for _ in 0..trials {
        let payload: Vec<u8> = (0..payload_len).map(|_| rng.gen()).collect();
        tx.frame_waveform_into(&payload, rate, 0, &mut tx_ws, &mut wave);
        let pad = 120usize;
        let mut buf: Vec<Complex64> = noise.sample_vec(&mut rng, pad + wave.len() + 200);
        for (i, s) in wave.iter().enumerate() {
            buf[pad + i] += *s;
        }
        match rx.receive_with(&buf, &mut rx_ws) {
            Ok(res) if res.payload == payload => {}
            _ => failures += 1,
        }
    }
    PerPoint {
        snr_db,
        per: failures as f64 / trials.max(1) as f64,
    }
}

/// Measures a full PER curve for one rate across `snrs_db`.
pub fn calibrate_curve(
    params: &Params,
    rate: RateId,
    snrs_db: &[f64],
    payload_len: usize,
    trials: usize,
    seed: u64,
) -> PerCurve {
    let mut points: Vec<PerPoint> = snrs_db
        .iter()
        .enumerate()
        .map(|(i, &snr)| {
            measure_per_awgn(
                params,
                rate,
                snr,
                payload_len,
                trials,
                seed.wrapping_add(i as u64),
            )
        })
        .collect();
    points.sort_by(|a, b| a.snr_db.partial_cmp(&b.snr_db).unwrap());
    PerCurve { rate, points }
}

/// A calibrated table across all rates, the fast path for network sims.
#[derive(Debug, Clone)]
pub struct PerTable {
    curves: Vec<PerCurve>,
}

impl PerTable {
    /// Builds a table from pre-measured curves.
    pub fn new(curves: Vec<PerCurve>) -> Self {
        PerTable { curves }
    }

    /// Calibrates every rate in `rates` over `snrs_db`.
    pub fn calibrate(
        params: &Params,
        rates: &[RateId],
        snrs_db: &[f64],
        payload_len: usize,
        trials: usize,
        seed: u64,
    ) -> Self {
        let curves = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                calibrate_curve(
                    params,
                    r,
                    snrs_db,
                    payload_len,
                    trials,
                    seed.wrapping_mul(31).wrapping_add(i as u64),
                )
            })
            .collect();
        PerTable { curves }
    }

    /// An analytic fallback table (logistic PER curves with 802.11a-typical
    /// thresholds), for tests and quick runs that don't want a calibration
    /// pass. Thresholds are the SNRs at which each rate reaches ~50% PER for
    /// ~1000-byte frames over AWGN.
    pub fn analytic() -> Self {
        // (rate, mid_snr_db, steepness per dB)
        let spec = [
            (RateId::R6, 4.0, 1.8),
            (RateId::R9, 5.5, 1.8),
            (RateId::R12, 7.0, 1.7),
            (RateId::R18, 9.0, 1.6),
            (RateId::R24, 12.0, 1.5),
            (RateId::R36, 16.0, 1.4),
            (RateId::R48, 20.0, 1.3),
            (RateId::R54, 22.0, 1.3),
        ];
        let curves = spec
            .iter()
            .map(|&(rate, mid, k)| {
                let points = (-5..=40)
                    .map(|s| {
                        let snr = s as f64;
                        let per = 1.0 / (1.0 + ((snr - mid) * k).exp());
                        PerPoint { snr_db: snr, per }
                    })
                    .collect();
                PerCurve { rate, points }
            })
            .collect();
        PerTable { curves }
    }

    /// PER for `rate` at `snr_db`; 1.0 if the rate has no curve.
    pub fn per(&self, rate: RateId, snr_db: f64) -> f64 {
        self.curves
            .iter()
            .find(|c| c.rate == rate)
            .map(|c| c.per_at(snr_db))
            .unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OfdmParams;

    #[test]
    fn interpolation_and_clamping() {
        let curve = PerCurve {
            rate: RateId::R6,
            points: vec![
                PerPoint {
                    snr_db: 0.0,
                    per: 1.0,
                },
                PerPoint {
                    snr_db: 10.0,
                    per: 0.0,
                },
            ],
        };
        assert_eq!(curve.per_at(-5.0), 1.0);
        assert_eq!(curve.per_at(15.0), 0.0);
        assert!((curve.per_at(5.0) - 0.5).abs() < 1e-12);
        assert!((curve.snr_for_per(0.5).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn analytic_table_is_monotone_in_snr_and_rate() {
        let t = PerTable::analytic();
        for rate in RateId::ALL {
            let lo = t.per(rate, 0.0);
            let hi = t.per(rate, 30.0);
            assert!(lo > hi, "{rate:?}: per not decreasing in SNR");
        }
        // At a mid SNR, faster rates have higher PER.
        let p12 = t.per(RateId::R12, 10.0);
        let p54 = t.per(RateId::R54, 10.0);
        assert!(p54 > p12);
    }

    #[test]
    fn measured_per_extremes() {
        // Small trial counts keep this test fast; extremes are unambiguous.
        let params = OfdmParams::dot11a();
        let good = measure_per_awgn(&params, RateId::R6, 30.0, 100, 10, 1);
        assert_eq!(good.per, 0.0, "R6 at 30 dB should never fail");
        let bad = measure_per_awgn(&params, RateId::R54, 2.0, 100, 10, 2);
        assert_eq!(bad.per, 1.0, "R54 at 2 dB should always fail");
    }

    #[test]
    fn empty_curve_fails_closed() {
        let c = PerCurve {
            rate: RateId::R6,
            points: vec![],
        };
        assert_eq!(c.per_at(20.0), 1.0);
        let t = PerTable::new(vec![]);
        assert_eq!(t.per(RateId::R6, 20.0), 1.0);
    }
}
