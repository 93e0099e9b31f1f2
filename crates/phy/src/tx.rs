//! The transmitter: assembles complete PHY frames into baseband waveforms.

use crate::crc;
use crate::frame::{self, CodedSymbols, SignalField};
use crate::ofdm;
use crate::params::{Params, RateId};
use crate::preamble;
use crate::workspace::{SymbolBuffers, TxWorkspace};
use ssync_dsp::{Complex64, FftPlan};

/// A planned transmitter for one numerology.
#[derive(Debug, Clone)]
pub struct Transmitter {
    params: Params,
    fft: FftPlan,
    /// The preamble waveform, fixed per numerology — built once so the
    /// per-frame hot path only copies it.
    preamble: Vec<Complex64>,
}

impl Transmitter {
    /// Creates a transmitter.
    pub fn new(params: Params) -> Self {
        let fft = FftPlan::new(params.fft_size);
        let preamble = preamble::preamble_waveform(&params, &fft);
        Transmitter {
            params,
            fft,
            preamble,
        }
    }

    /// The numerology in use.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Builds the complete waveform of a normal (single-sender) frame:
    /// preamble, SIGNAL, DATA. A CRC-32 is appended to `payload` so the
    /// receiver can self-check; `flags` goes into the SIGNAL field.
    ///
    /// # Panics
    /// Panics if the framed payload exceeds the SIGNAL length capacity.
    pub fn frame_waveform(&self, payload: &[u8], rate: RateId, flags: u8) -> Vec<Complex64> {
        let mut wave = Vec::new();
        self.frame_waveform_into(
            payload,
            rate,
            flags,
            &mut TxWorkspace::new(&self.params),
            &mut wave,
        );
        wave
    }

    /// [`Transmitter::frame_waveform`] through a reusable [`TxWorkspace`]:
    /// `out` is cleared and refilled, so a caller transmitting many frames
    /// reuses both the waveform buffer and the per-symbol scratch.
    /// Bit-identical to the allocating path.
    pub fn frame_waveform_into(
        &self,
        payload: &[u8],
        rate: RateId,
        flags: u8,
        ws: &mut TxWorkspace,
        out: &mut Vec<Complex64>,
    ) {
        let psdu = crc::append_crc(payload);
        frame::validate_psdu(&psdu).expect("payload too long");
        let sig = SignalField {
            rate,
            length: psdu.len() as u16,
            flags,
        };
        out.clear();
        out.extend_from_slice(&self.preamble);
        // SIGNAL field: BPSK 1/2 at the base CP.
        let signal = frame::encode_signal_with(&self.params, &sig, &mut ws.encode);
        self.symbols_append(&signal, self.params.cp_len, 0, &mut ws.symbol, out);
        // Data pilot polarities continue the sequence after the SIGNAL
        // symbols — the receiver indexes pilots the same way.
        let n_sig = signal.len();
        self.data_waveform_append(&psdu, rate, self.params.cp_len, n_sig, ws, out);
    }

    /// Appends the DATA-field portion of a frame at an explicit
    /// cyclic-prefix length and starting pilot symbol index to `out`
    /// through a reusable workspace.
    ///
    /// The symbol index offset keeps pilot polarities aligned across the
    /// frame, continuing the sequence after the SIGNAL symbols.
    pub fn data_waveform_append(
        &self,
        psdu: &[u8],
        rate: RateId,
        cp_len: usize,
        first_symbol_index: usize,
        ws: &mut TxWorkspace,
        out: &mut Vec<Complex64>,
    ) {
        let data = frame::encode_data_with(&self.params, psdu, rate, &mut ws.encode);
        self.symbols_append(&data, cp_len, first_symbol_index, &mut ws.symbol, out);
    }

    /// Modulates every symbol of `coded`, pilots on, the first with
    /// pilot index `first_symbol_index`.
    fn symbols_append(
        &self,
        coded: &CodedSymbols,
        cp_len: usize,
        first_symbol_index: usize,
        buffers: &mut SymbolBuffers,
        out: &mut Vec<Complex64>,
    ) {
        for s in 0..coded.len() {
            ofdm::modulate_points_append(
                &self.params,
                &self.fft,
                coded.points(s),
                first_symbol_index + s,
                cp_len,
                true,
                buffers,
                out,
            );
        }
    }

    /// Total frame length in samples for a given payload (before CRC) at a
    /// rate, with the base CP.
    pub fn frame_len(&self, payload_len: usize, rate: RateId) -> usize {
        let psdu_len = payload_len + 4;
        let layout = preamble::PreambleLayout::of(&self.params);
        let sym = self.params.symbol_len();
        layout.total_len()
            + frame::n_signal_symbols(&self.params) * sym
            + frame::n_data_symbols(&self.params, psdu_len, rate) * sym
    }

    /// On-air duration of a frame in seconds.
    pub fn frame_duration_s(&self, payload_len: usize, rate: RateId) -> f64 {
        self.frame_len(payload_len, rate) as f64 / self.params.sample_rate_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OfdmParams;

    #[test]
    fn frame_length_accounting() {
        let tx = Transmitter::new(OfdmParams::dot11a());
        let wave = tx.frame_waveform(&[0u8; 100], RateId::R12, 0);
        assert_eq!(wave.len(), tx.frame_len(100, RateId::R12));
    }

    #[test]
    fn frame_has_unit_scale_power() {
        let tx = Transmitter::new(OfdmParams::dot11a());
        let wave = tx.frame_waveform(&[0xAB; 500], RateId::R24, 0);
        let p = ssync_dsp::complex::mean_power(&wave);
        assert!((p - 1.0).abs() < 0.1, "on-air power {p}");
    }

    #[test]
    fn duration_matches_80211_math() {
        // 1460-byte payload + 4 CRC at 12 Mbps on dot11a: preamble 16 µs +
        // 2 SIGNAL symbols (our SIGNAL carries 30 info bits, so it spans two
        // symbols rather than 802.11's one) + ceil((16+11712+6)/48) = 245
        // data symbols × 4 µs.
        let tx = Transmitter::new(OfdmParams::dot11a());
        let d = tx.frame_duration_s(1460, RateId::R12);
        let expect = 16e-6 + 2.0 * 4e-6 + 245.0 * 4e-6;
        assert!((d - expect).abs() < 1e-9, "duration {d} vs {expect}");
    }

    #[test]
    fn higher_rate_shorter_frame() {
        let tx = Transmitter::new(OfdmParams::wiglan());
        assert!(tx.frame_len(1000, RateId::R54) < tx.frame_len(1000, RateId::R6));
    }

    #[test]
    fn data_waveform_cp_override() {
        let tx = Transmitter::new(OfdmParams::wiglan());
        let psdu = vec![1u8; 50];
        let data_waveform = |cp_len| {
            let mut wave = Vec::new();
            let mut ws = TxWorkspace::new(tx.params());
            tx.data_waveform_append(&psdu, RateId::R6, cp_len, 0, &mut ws, &mut wave);
            wave
        };
        let (base, ext) = (data_waveform(32), data_waveform(60));
        let n_syms = frame::n_data_symbols(tx.params(), 50, RateId::R6);
        assert_eq!(base.len(), n_syms * (128 + 32));
        assert_eq!(ext.len(), n_syms * (128 + 60));
    }
}
