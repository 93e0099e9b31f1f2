//! The receiver: detection → CFO correction → channel estimation → SIGNAL
//! decode → equalisation with pilot phase tracking → Viterbi → CRC check.
//!
//! The FFT windows for data symbols are placed `window_backoff` samples
//! *early* (inside the cyclic prefix), and the LTS estimation windows are
//! backed off by the same amount, so the common phase ramp cancels in
//! equalisation while late-timing ISI is avoided. This is the standard
//! 802.11 receiver trick and is load-bearing for the paper's Fig. 3/Fig. 4
//! story: a window is valid anywhere inside the CP slack.

use crate::chanest::{self, ChannelEstimate};
use crate::crc;
use crate::detect::{Detection, Detector};
use crate::frame::{self, SignalField};
use crate::modulation::{self, DemapTable};
use crate::ofdm;
use crate::params::Params;
use crate::preamble::LTS_REPS;
use crate::workspace::{RxWorkspace, SymbolLlrs};
use ssync_dsp::stats;
use ssync_dsp::{Complex64, FftPlan};

/// Receiver failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum RxError {
    /// No packet was detected in the buffer.
    NoPacket,
    /// A packet was detected but the SIGNAL field did not decode.
    BadSignal(Detection),
    /// The frame decoded but its CRC-32 check failed.
    BadCrc(Box<RxDiagnostics>),
    /// The buffer ended before the full frame (truncated capture).
    Truncated(Detection),
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RxError::NoPacket => write!(f, "no packet detected"),
            RxError::BadSignal(_) => write!(f, "SIGNAL field failed to decode"),
            RxError::BadCrc(_) => write!(f, "frame CRC check failed"),
            RxError::Truncated(_) => write!(f, "buffer truncated mid-frame"),
        }
    }
}

impl std::error::Error for RxError {}

/// Measurements the receiver gathered while decoding (the raw material of
/// most of the paper's evaluation plots).
#[derive(Debug, Clone, PartialEq)]
pub struct RxDiagnostics {
    /// Detection and fine-timing result.
    pub detection: Detection,
    /// Channel estimate from the long training.
    pub channel: ChannelEstimate,
    /// Per-occupied-carrier SNR in dB (Fig. 16 raw data).
    pub per_carrier_snr_db: Vec<f64>,
    /// Mean SNR across occupied carriers in dB (Fig. 15 raw data).
    pub mean_snr_db: f64,
    /// Decision-directed error-vector SNR over data symbols, dB.
    pub evm_snr_db: f64,
    /// Residual timing offset implied by the channel phase slope, in samples
    /// (the quantity SourceSync feeds back in ACKs, §4.5).
    pub timing_offset_samples: f64,
}

impl RxDiagnostics {
    /// The compact trace-event form: the scalar measurements an rx trace
    /// event carries (the full struct owns whole channel estimates, which
    /// are too heavy to clone per event).
    pub fn summary(&self) -> ssync_obs::RxDiagSummary {
        ssync_obs::RxDiagSummary {
            mean_snr_db: self.mean_snr_db,
            evm_snr_db: self.evm_snr_db,
            cfo_hz: self.detection.cfo_hz,
            timing_offset_samples: self.timing_offset_samples,
        }
    }
}

impl From<&RxDiagnostics> for ssync_obs::RxDiagSummary {
    fn from(diag: &RxDiagnostics) -> Self {
        diag.summary()
    }
}

/// A successfully received frame.
#[derive(Debug, Clone)]
pub struct RxResult {
    /// Decoded payload with the CRC stripped.
    pub payload: Vec<u8>,
    /// Decoded SIGNAL field.
    pub signal: SignalField,
    /// Receiver measurements.
    pub diag: RxDiagnostics,
}

/// One contiguous run of OFDM symbols inside a capture: where it starts,
/// how many symbols, at which CP, and where its pilot-polarity sequence
/// begins.
#[derive(Debug, Clone, Copy)]
struct SymbolSpan {
    /// Buffer index of the run's first sample.
    start: usize,
    /// Number of symbols.
    n_syms: usize,
    /// Cyclic-prefix length per symbol, samples.
    cp_len: usize,
    /// Pilot symbol index of the first symbol (DATA continues the
    /// SIGNAL-field polarity sequence).
    first_symbol_index: usize,
}

/// One frame's channel, resolved per carrier: what the symbol loops read
/// instead of searching the [`ChannelEstimate`] on every carrier.
#[derive(Debug, Clone, Copy)]
struct ChannelTable<'a> {
    /// Gain per data carrier, in `data_carriers` order.
    data: &'a [Complex64],
    /// Gain per pilot carrier, in `pilot_carriers` order.
    pilots: &'a [Complex64],
    /// The estimate's noise power, for LLR scaling.
    noise_power: f64,
}

/// A planned receiver for one numerology.
#[derive(Debug, Clone)]
pub struct Receiver {
    params: Params,
    fft: FftPlan,
    detector: Detector,
    /// Samples of early FFT-window placement inside the CP.
    window_backoff: usize,
}

impl Receiver {
    /// Creates a receiver with default thresholds and a backoff of `cp/4`.
    pub fn new(params: Params) -> Self {
        let fft = FftPlan::new(params.fft_size);
        let detector = Detector::new(&params, &fft);
        let window_backoff = params.cp_len / 4;
        Receiver {
            params,
            fft,
            detector,
            window_backoff,
        }
    }

    /// The numerology in use.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Receives the first frame found in `samples`, scanning from index 0.
    pub fn receive(&self, samples: &[Complex64]) -> Result<RxResult, RxError> {
        self.receive_with(samples, &mut RxWorkspace::new(&self.params))
    }

    /// [`Receiver::receive`] through a reusable [`RxWorkspace`]: all
    /// per-symbol scratch (demod grid, LLR pool, demap tables, detector
    /// metrics, the CFO-corrected capture copy) lives in `ws` and is reused
    /// across calls. Bit-identical to the allocating path. The corrected
    /// capture stays readable through [`RxWorkspace::corrected_to`].
    pub fn receive_with(
        &self,
        samples: &[Complex64],
        ws: &mut RxWorkspace,
    ) -> Result<RxResult, RxError> {
        let Some(det) = self
            .detector
            .detect_with(&self.params, samples, 0, &mut ws.detect)
        else {
            ws.corrected.clear();
            return Err(RxError::NoPacket);
        };
        self.receive_at_with(samples, det, ws)
    }

    /// Decodes a frame given an existing detection, through a reusable
    /// [`RxWorkspace`].
    pub fn receive_at_with(
        &self,
        samples: &[Complex64],
        det: Detection,
        ws: &mut RxWorkspace,
    ) -> Result<RxResult, RxError> {
        let n = self.params.fft_size;
        let RxWorkspace {
            corrected,
            grid,
            llrs,
            tables,
            gains,
            decode,
            ..
        } = ws;
        // CFO-correct a working copy, referenced to sample 0 so all later
        // windows share the same reference. Only the samples read below are
        // rotated: from the first LTS window to the end of the SIGNAL field,
        // then on through the DATA field once its length is known.
        let b = self.window_backoff.min(det.lts_start);
        let sig_start = det.lts_start + LTS_REPS * n;
        let n_sig = frame::n_signal_symbols(&self.params);
        let sym_len = self.params.symbol_len();
        let data_start = sig_start + n_sig * sym_len;
        let fs = self.params.sample_rate_hz;
        corrected.load(samples, -det.cfo_hz, fs, det.lts_start - b);
        let buf = corrected.rotate_to(data_start);

        // Channel estimate with the common window backoff.
        let est = chanest::estimate_from_lts(&self.params, &self.fft, buf, det.lts_start - b);
        let timing_offset = chanest::detection_delay_samples(&self.params, &est, 3e6) - b as f64;
        // Each carrier's gain, looked up once per frame (an unoccupied
        // carrier equalises with 1): data carriers, then pilots.
        let data_carriers = &self.params.data_carriers;
        gains.clear();
        gains.extend(
            data_carriers
                .iter()
                .chain(&self.params.pilot_carriers)
                .map(|&k| est.gain(k).unwrap_or(Complex64::ONE)),
        );
        let (data, pilots) = gains.split_at(data_carriers.len());
        let chan = ChannelTable {
            data,
            pilots,
            noise_power: est.noise_power,
        };

        // SIGNAL field.
        if buf.len() < data_start {
            return Err(RxError::Truncated(det));
        }
        let sig_span = SymbolSpan {
            start: sig_start,
            n_syms: n_sig,
            cp_len: self.params.cp_len,
            first_symbol_index: 0,
        };
        let bpsk = modulation::Modulation::Bpsk;
        self.symbol_llrs_into(buf, &sig_span, chan, grid, tables.get_mut(bpsk), llrs);
        let signal = frame::decode_signal_with(&self.params, llrs.symbols(), decode)
            .ok_or(RxError::BadSignal(det))?;

        // DATA field.
        let n_data = frame::n_data_symbols(&self.params, signal.length as usize, signal.rate);
        let data_end = data_start + n_data * sym_len;
        if samples.len() < data_end {
            return Err(RxError::Truncated(det));
        }
        let buf = corrected.rotate_to(data_end);
        let m = signal.rate.modulation();
        let data_span = SymbolSpan {
            start: data_start,
            n_syms: n_data,
            cp_len: self.params.cp_len,
            first_symbol_index: n_sig,
        };
        // One pass over the data symbols produces both the soft bits and the
        // decision-directed EVM sums (the EVM reuses the grid/phase/channel
        // values the demap just computed, replacing a second demod pass).
        let (evm_sig, evm_err) =
            self.symbol_llrs_evm_into(buf, &data_span, chan, grid, tables.get_mut(m), llrs);
        let psdu = frame::decode_data_with(
            &self.params,
            llrs.symbols(),
            signal.rate,
            signal.length as usize,
            decode,
        );

        // Diagnostics.
        let per_carrier = est.per_carrier_snr_db(est.noise_power);
        let mean_snr_db = stats::db_from_linear(est.mean_power() / est.noise_power.max(1e-15));
        let evm_snr_db = stats::snr_db_from_evm(evm_sig, evm_err);
        let diag = RxDiagnostics {
            detection: det,
            channel: est,
            per_carrier_snr_db: per_carrier,
            mean_snr_db,
            evm_snr_db,
            timing_offset_samples: timing_offset,
        };

        match psdu.as_deref().and_then(crc::check_crc) {
            Some(payload) => Ok(RxResult {
                payload: payload.to_vec(),
                signal,
                diag,
            }),
            None => Err(RxError::BadCrc(Box::new(diag))),
        }
    }

    /// Demodulates the symbol run described by `span` into the per-symbol
    /// LLR pool (reset first; read back via [`SymbolLlrs::symbols`]). Pilot
    /// phase tracking is applied per symbol; pilot symbol indices begin at
    /// `span.first_symbol_index` (so DATA pilots continue the SIGNAL-field
    /// polarity sequence, as in the transmitter). The symbol loop performs
    /// no heap allocation once the pool and grid have warmed up.
    fn symbol_llrs_into(
        &self,
        buf: &[Complex64],
        span: &SymbolSpan,
        chan: ChannelTable<'_>,
        grid: &mut Vec<Complex64>,
        table: &mut DemapTable,
        out: &mut SymbolLlrs,
    ) {
        let sym_len = self.params.fft_size + span.cp_len;
        let b = self.window_backoff.min(span.cp_len);
        out.reset();
        for s in 0..span.n_syms {
            let sym_start = span.start + s * sym_len;
            ofdm::demodulate_window_into(
                &self.params,
                &self.fft,
                buf,
                sym_start + span.cp_len - b,
                grid,
            );
            let theta = self.pilot_phase(grid, chan.pilots, span.first_symbol_index + s);
            let rot = Complex64::cis(theta);
            let llrs = out.next_symbol();
            llrs.reserve(self.params.n_data() * table.modulation().bits_per_symbol());
            for (&k, &g) in self.params.data_carriers.iter().zip(chan.data) {
                let y = grid[self.params.bin(k)];
                let h = g * rot;
                table.demap_llrs_into(y, h, chan.noise_power, llrs);
            }
        }
    }

    /// [`Receiver::symbol_llrs_into`] for the DATA span, with the
    /// decision-directed EVM fused into the same symbol loop: each carrier's
    /// `(y, h)` feeds the soft demap and, equalised, the
    /// nearest-constellation-point error sums. Returns `(signal, error)`
    /// power sums for [`ssync_dsp::stats::snr_db_from_evm`]. Every
    /// expression matches the former standalone EVM pass, so the fusion
    /// changes no reported value — it only removes the second demodulation
    /// of every data symbol.
    fn symbol_llrs_evm_into(
        &self,
        buf: &[Complex64],
        span: &SymbolSpan,
        chan: ChannelTable<'_>,
        grid: &mut Vec<Complex64>,
        table: &mut DemapTable,
        out: &mut SymbolLlrs,
    ) -> (f64, f64) {
        let sym_len = self.params.fft_size + span.cp_len;
        let b = self.window_backoff.min(span.cp_len);
        let mut err = 0.0;
        let mut sig = 0.0;
        out.reset();
        for s in 0..span.n_syms {
            let sym_start = span.start + s * sym_len;
            ofdm::demodulate_window_into(
                &self.params,
                &self.fft,
                buf,
                sym_start + span.cp_len - b,
                grid,
            );
            let theta = self.pilot_phase(grid, chan.pilots, span.first_symbol_index + s);
            let rot = Complex64::cis(theta);
            let llrs = out.next_symbol();
            llrs.reserve(self.params.n_data() * table.modulation().bits_per_symbol());
            for (&k, &g) in self.params.data_carriers.iter().zip(chan.data) {
                let y = grid[self.params.bin(k)];
                let h = g * rot;
                table.demap_llrs_into(y, h, chan.noise_power, llrs);
                if h.norm_sqr() < 1e-12 {
                    continue;
                }
                let eq = y / h;
                let nearest = table.nearest(eq, Complex64::ONE);
                err += eq.dist(nearest).powi(2);
                sig += nearest.norm_sqr();
            }
        }
        (sig, err)
    }

    /// Common phase error of one symbol, from its pilots and their gains
    /// (in `pilot_carriers` order).
    fn pilot_phase(&self, grid: &[Complex64], gains: &[Complex64], symbol_index: usize) -> f64 {
        let pol = crate::scramble::pilot_polarity(symbol_index);
        let mut acc = Complex64::ZERO;
        for (&k, &h) in self.params.pilot_carriers.iter().zip(gains) {
            let y = grid[self.params.bin(k)];
            acc += y * (h * Complex64::real(pol)).conj();
        }
        acc.arg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::apply_cfo;
    use crate::params::{OfdmParams, RateId};
    use crate::tx::Transmitter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ssync_dsp::rng::ComplexGaussian;

    fn on_air(tx_wave: &[Complex64], lead_pad: usize, snr_db: f64, seed: u64) -> Vec<Complex64> {
        let noise_p = ssync_dsp::stats::linear_from_db(-snr_db);
        let mut rng = StdRng::seed_from_u64(seed);
        let total = lead_pad + tx_wave.len() + 500;
        let mut buf = ComplexGaussian::with_power(noise_p).sample_vec(&mut rng, total);
        for (i, s) in tx_wave.iter().enumerate() {
            buf[lead_pad + i] += *s;
        }
        buf
    }

    #[test]
    fn loopback_awgn_high_snr_all_rates() {
        let params = OfdmParams::dot11a();
        let tx = Transmitter::new(params.clone());
        let rx = Receiver::new(params);
        let mut rng = StdRng::seed_from_u64(42);
        for rate in RateId::ALL {
            let payload: Vec<u8> = (0..300).map(|_| rng.gen()).collect();
            let wave = tx.frame_waveform(&payload, rate, 0);
            let buf = on_air(&wave, 200, 35.0, rate.to_index() as u64);
            let got = rx.receive(&buf).unwrap_or_else(|e| panic!("{rate:?}: {e}"));
            assert_eq!(got.payload, payload, "{rate:?}");
            assert_eq!(got.signal.rate, rate);
        }
    }

    #[test]
    fn loopback_wiglan() {
        let params = OfdmParams::wiglan();
        let tx = Transmitter::new(params.clone());
        let rx = Receiver::new(params);
        let payload = vec![0x5A; 200];
        let wave = tx.frame_waveform(&payload, RateId::R12, 0);
        let buf = on_air(&wave, 300, 30.0, 7);
        let got = rx.receive(&buf).expect("decode failed");
        assert_eq!(got.payload, payload);
    }

    #[test]
    fn diagnostics_summarise_and_snapshot() {
        let params = OfdmParams::dot11a();
        let tx = Transmitter::new(params.clone());
        let rx = Receiver::new(params);
        let wave = tx.frame_waveform(&[0x11; 120], RateId::R12, 0);
        let got = rx.receive(&on_air(&wave, 150, 30.0, 3)).expect("decode");
        let sum = got.diag.summary();
        assert_eq!(sum.mean_snr_db, got.diag.mean_snr_db);
        assert_eq!(sum.cfo_hz, got.diag.detection.cfo_hz);
        assert_eq!(sum, ssync_obs::RxDiagSummary::from(&got.diag));
    }

    #[test]
    fn survives_cfo() {
        let params = OfdmParams::dot11a();
        let tx = Transmitter::new(params.clone());
        let rx = Receiver::new(params.clone());
        let payload = vec![0xC3; 400];
        let mut wave = tx.frame_waveform(&payload, RateId::R24, 0);
        apply_cfo(&mut wave, 73e3, params.sample_rate_hz);
        let buf = on_air(&wave, 250, 30.0, 8);
        let got = rx.receive(&buf).expect("decode failed under CFO");
        assert_eq!(got.payload, payload);
        assert!((got.diag.detection.cfo_hz - 73e3).abs() < 2e3);
    }

    #[test]
    fn corrected_to_bitwise_matches_whole_buffer_cfo() {
        // The receive chain rotates [lts_start − backoff, end of DATA) in two
        // spans; `corrected_to` extends the rotation on demand. Every slice
        // it returns ends at the requested sample (or the capture's end) and
        // carries, from the LTS window on, the bits of one whole-capture
        // rotation; the prefix before it stays raw. Lead pads are chosen so
        // the first rotated index is odd and not a multiple of 4, i.e. the
        // spans start off the 4-lane grid of the vector mixer.
        let params = OfdmParams::dot11a();
        let tx = Transmitter::new(params.clone());
        let rx = Receiver::new(params.clone());
        let payload = vec![0x3C; 150];
        let mut wave = tx.frame_waveform(&payload, RateId::R18, 0);
        apply_cfo(&mut wave, -41e3, params.sample_rate_hz);
        let mut ws = RxWorkspace::new(&params);
        let mut odd_starts = 0;
        for pad in 200..208 {
            let buf = on_air(&wave, pad, 30.0, 15 + pad as u64);
            let got = rx.receive_with(&buf, &mut ws).expect("decode");
            assert_eq!(got.payload, payload);
            let det = got.diag.detection;
            let lo = det.lts_start - rx.window_backoff.min(det.lts_start);
            if lo % 2 == 1 {
                odd_starts += 1;
            }
            let mut want = buf.clone();
            apply_cfo(&mut want, -det.cfo_hz, params.sample_rate_hz);
            let frame_end = pad + wave.len();
            for end in [
                frame_end,
                frame_end + 37,
                frame_end + 3,
                lo + 5,
                buf.len() + 50,
            ] {
                let have = ws.corrected_to(end);
                assert_eq!(have.len(), end.min(buf.len()), "pad {pad} end {end}");
                for (i, (a, b)) in have.iter().zip(&want).enumerate().skip(lo) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "pad {pad} lo {lo} i {i}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "pad {pad} lo {lo} i {i}");
                }
                assert_eq!(&have[..lo.min(have.len())], &buf[..lo.min(have.len())]);
            }
        }
        assert!(odd_starts >= 2, "only {odd_starts} odd rotation starts");
        // A failed detection leaves no stale capture behind.
        assert!(rx.receive_with(&[], &mut ws).is_err());
        assert!(ws.corrected_to(usize::MAX).is_empty());
    }

    #[test]
    fn moderate_snr_decodes_low_rate_not_highest() {
        let params = OfdmParams::dot11a();
        let tx = Transmitter::new(params.clone());
        let rx = Receiver::new(params);
        let payload = vec![0x11; 500];
        // ~9 dB: R6 should pass, R54 should fail.
        let w6 = tx.frame_waveform(&payload, RateId::R6, 0);
        let got = rx.receive(&on_air(&w6, 200, 9.0, 9));
        assert!(
            got.is_ok(),
            "R6 at 9 dB failed: {:?}",
            got.err().map(|e| e.to_string())
        );
        let w54 = tx.frame_waveform(&payload, RateId::R54, 0);
        let got54 = rx.receive(&on_air(&w54, 200, 9.0, 10));
        assert!(got54.is_err(), "R54 at 9 dB unexpectedly decoded");
    }

    #[test]
    fn diagnostics_report_sane_snr() {
        let params = OfdmParams::dot11a();
        let tx = Transmitter::new(params.clone());
        let rx = Receiver::new(params.clone());
        let payload = vec![0u8; 300];
        let wave = tx.frame_waveform(&payload, RateId::R12, 0);
        let snr_db = 20.0;
        let buf = on_air(&wave, 200, snr_db, 11);
        let got = rx.receive(&buf).expect("decode failed");
        // The channel-estimate SNR should be within a few dB of the set SNR
        // (noise measurement from one LTS pair is coarse).
        assert!(
            (got.diag.mean_snr_db - snr_db).abs() < 4.0,
            "estimated {} vs set {snr_db}",
            got.diag.mean_snr_db
        );
        assert_eq!(got.diag.per_carrier_snr_db.len(), 52);
        assert!(got.diag.evm_snr_db > 10.0);
        assert!(got.diag.timing_offset_samples.abs() < 1.5);
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let params = OfdmParams::dot11a();
        let tx = Transmitter::new(params.clone());
        let rx = Receiver::new(params);
        let payload = vec![0xEE; 200];
        let wave = tx.frame_waveform(&payload, RateId::R54, 0);
        // 5 dB SNR: 64-QAM 3/4 cannot survive; expect BadCrc or BadSignal.
        let buf = on_air(&wave, 200, 5.0, 12);
        match rx.receive(&buf) {
            Err(RxError::BadCrc(_)) | Err(RxError::BadSignal(_)) | Err(RxError::NoPacket) => {}
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn truncated_buffer_reports_truncation() {
        let params = OfdmParams::dot11a();
        let tx = Transmitter::new(params.clone());
        let rx = Receiver::new(params);
        let wave = tx.frame_waveform(&[0u8; 1000], RateId::R6, 0);
        let full = on_air(&wave, 200, 30.0, 13);
        let cut = &full[..200 + wave.len() / 2];
        match rx.receive(cut) {
            Err(RxError::Truncated(_)) | Err(RxError::NoPacket) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn flags_travel_in_signal_field() {
        let params = OfdmParams::dot11a();
        let tx = Transmitter::new(params.clone());
        let rx = Receiver::new(params);
        let wave = tx.frame_waveform(&[1, 2, 3], RateId::R6, frame::FLAG_JOINT);
        let buf = on_air(&wave, 120, 25.0, 14);
        let got = rx.receive(&buf).expect("decode failed");
        assert_eq!(got.signal.flags & frame::FLAG_JOINT, frame::FLAG_JOINT);
    }

    #[test]
    fn empty_buffer_is_no_packet() {
        let params = OfdmParams::dot11a();
        let rx = Receiver::new(params);
        assert!(matches!(rx.receive(&[]), Err(RxError::NoPacket)));
    }
}
