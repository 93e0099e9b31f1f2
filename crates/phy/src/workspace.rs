//! Reusable modem scratch workspaces.
//!
//! Every SourceSync mechanism this workspace reproduces runs through the
//! sample-level OFDM modem, and the original code allocated fresh `Vec`s
//! per symbol at ~30 sites across the transmit and receive chains. The
//! types here own those buffers instead, so the per-symbol hot loops
//! ([`crate::ofdm::demodulate_window_into`], the LLR demap, the Viterbi
//! front end) run without touching the heap after warm-up.
//!
//! Ownership model:
//!
//! * A workspace is owned by whoever drives a modem chain — a
//!   [`crate::Receiver`] caller, a `JointSession` stage in `ssync_core`, a
//!   bench loop. Workspaces are plain mutable state: no interior
//!   mutability, no sharing; clone one per thread for parallel trials.
//! * Buffers are **keyed** by the numerology's FFT size: calling a
//!   workspace entry point with different [`OfdmParams`] transparently
//!   re-plans (resizes the keyed buffers) on the spot. Re-planning is the
//!   only allocating transition inside the per-symbol loops: on a fixed
//!   numerology they are allocation-free once warm.
//! * Per frame, a warm [`crate::Receiver::receive_with`] still allocates
//!   (5 allocations for an R12 frame on `dot11a`, whatever its length):
//!   the carrier and gain vectors of the channel estimate, the
//!   per-carrier SNR vector, the decoded PSDU and the returned payload.
//!   The estimate, the SNR vector and the payload leave the call in
//!   [`crate::RxResult`]; the PSDU is the payload before its CRC is
//!   stripped. The estimator's LTS table and grids and the phase-slope
//!   regression's buffers live in the workspace's
//!   [`crate::chanest::ChanestScratch`].
//! * Per frame, a warm [`crate::Transmitter::frame_waveform_into`]
//!   allocates once, at every rate and length: the PSDU with its CRC
//!   appended. The packed data bits, the mother-code stream, the per-rate
//!   gather tables, the constellation tables and the carrier bins live in
//!   the [`TxWorkspace`] (its [`crate::frame::EncodeScratch`]).
//! * The few allocating signatures that remain ([`crate::Receiver::receive`],
//!   [`crate::Transmitter::frame_waveform`], …) are thin wrappers that
//!   build a throwaway workspace, and a reused workspace decodes exactly
//!   like a fresh one (enforced by the differential test suite).

use crate::chanest::ChanestScratch;
use crate::frame::{DecodeScratch, EncodeScratch};
use crate::modulation::DemapTable;
use crate::params::{LayoutKey, Modulation, OfdmParams};
use ssync_dsp::mixer::apply_cfo_from;
use ssync_dsp::Complex64;

/// Transmit-side scratch: the bit pipeline's [`EncodeScratch`] and the
/// subcarrier grid behind [`crate::ofdm::modulate_symbol_append`].
#[derive(Debug, Clone)]
pub struct TxWorkspace {
    /// Packed bits, mother-code stream, gather and constellation tables.
    pub(crate) encode: EncodeScratch,
    /// The OFDM modulator's grid and carrier bins.
    pub(crate) symbol: SymbolBuffers,
}

impl TxWorkspace {
    /// A workspace keyed to `params` (the grid preallocated to its FFT
    /// size; the bit pipeline's buffers and tables grow on first use).
    pub fn new(params: &OfdmParams) -> Self {
        TxWorkspace {
            encode: EncodeScratch::new(),
            symbol: SymbolBuffers {
                fft_size: params.fft_size,
                grid: vec![Complex64::ZERO; params.fft_size],
                layout: LayoutKey::default(),
                data_bins: Vec::new(),
                pilot_bins: Vec::new(),
            },
        }
    }

    /// The FFT size the buffers are currently keyed to.
    #[inline]
    pub fn fft_size(&self) -> usize {
        self.symbol.fft_size
    }
}

/// The OFDM modulator's scratch: the subcarrier grid, transformed in
/// place, and the FFT bin of every data and pilot carrier.
#[derive(Debug, Clone)]
pub(crate) struct SymbolBuffers {
    fft_size: usize,
    grid: Vec<Complex64>,
    layout: LayoutKey,
    data_bins: Vec<usize>,
    pilot_bins: Vec<usize>,
}

impl SymbolBuffers {
    /// The grid and the data and pilot carriers' bins, re-keyed to
    /// `params` if the numerology changed since the last call.
    pub(crate) fn keyed(&mut self, params: &OfdmParams) -> (&mut [Complex64], &[usize], &[usize]) {
        let resized = self.fft_size != params.fft_size;
        if self.layout.rekey(params) || resized {
            self.fft_size = params.fft_size;
            self.grid.resize(params.fft_size, Complex64::ZERO);
            let bins = |carriers: &[i32], out: &mut Vec<usize>| {
                out.clear();
                out.extend(carriers.iter().map(|&k| params.bin(k)));
            };
            bins(&params.data_carriers, &mut self.data_bins);
            bins(&params.pilot_carriers, &mut self.pilot_bins);
        }
        (&mut self.grid, &self.data_bins, &self.pilot_bins)
    }
}

/// The demap tables for every modulation, built once — owns both the
/// array and the modulation→slot mapping so consumers (the receive chain
/// here, `ssync_core`'s `CombineWorkspace`) cannot drift apart.
#[derive(Debug, Clone)]
pub struct DemapTables([DemapTable; 4]);

impl DemapTables {
    /// Builds all four tables.
    pub fn new() -> Self {
        DemapTables([
            DemapTable::new(Modulation::Bpsk),
            DemapTable::new(Modulation::Qpsk),
            DemapTable::new(Modulation::Qam16),
            DemapTable::new(Modulation::Qam64),
        ])
    }

    /// The table for a modulation.
    pub fn get_mut(&mut self, m: Modulation) -> &mut DemapTable {
        &mut self.0[m.index()]
    }
}

impl Default for DemapTables {
    fn default() -> Self {
        DemapTables::new()
    }
}

/// Packet-detector scratch: the autocorrelation and cross-correlation
/// vectors and the CFO-corrected search window behind
/// `Detector::detect_with`.
#[derive(Debug, Clone, Default)]
pub struct DetectScratch {
    pub(crate) metric: Vec<f64>,
    pub(crate) local: Vec<Complex64>,
    pub(crate) xc: Vec<f64>,
}

impl DetectScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        DetectScratch::default()
    }
}

/// The receiver's CFO-corrected copy of a capture, rotated span by span.
///
/// The correction is referenced to sample 0, so sample `i` is rotated by
/// the phase of its absolute index whichever span it is rotated with: a
/// span `[lo, hi)` goes through [`apply_cfo_from`] with start index `lo`.
/// Any partition of the buffer therefore gives the bits of one
/// whole-buffer [`ssync_dsp::mixer::apply_cfo`].
#[derive(Debug, Clone, Default)]
pub(crate) struct CorrectedCapture {
    samples: Vec<Complex64>,
    cfo_hz: f64,
    sample_rate_hz: f64,
    /// `samples[lo..hi]` are rotated; the samples outside are still raw.
    lo: usize,
    hi: usize,
}

impl CorrectedCapture {
    /// Copies `capture`, to be rotated by `cfo_hz` from index `lo` on.
    /// Nothing is rotated yet.
    pub(crate) fn load(
        &mut self,
        capture: &[Complex64],
        cfo_hz: f64,
        sample_rate_hz: f64,
        lo: usize,
    ) {
        self.samples.clear();
        self.samples.extend_from_slice(capture);
        self.cfo_hz = cfo_hz;
        self.sample_rate_hz = sample_rate_hz;
        self.lo = lo.min(capture.len());
        self.hi = self.lo;
    }

    /// Forgets the capture (the next [`CorrectedCapture::rotate_to`]
    /// returns an empty buffer).
    pub(crate) fn clear(&mut self) {
        self.samples.clear();
        self.lo = 0;
        self.hi = 0;
    }

    /// Extends the rotated span to `hi` (clamped to the capture) and
    /// returns the buffer; only `samples[lo..hi]` are corrected.
    pub(crate) fn rotate_to(&mut self, hi: usize) -> &[Complex64] {
        let hi = hi.min(self.samples.len());
        if hi > self.hi {
            let span = &mut self.samples[self.hi..hi];
            apply_cfo_from(span, self.cfo_hz, self.sample_rate_hz, 0.0, self.hi);
            self.hi = hi;
        }
        &self.samples
    }
}

/// The per-symbol buffers of the receiver's symbol loop: the demodulated
/// grid and the data carriers as the demapper and the EVM read them.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymbolCarriers {
    /// Demodulated subcarrier grid.
    pub(crate) grid: Vec<Complex64>,
    /// Received value per data carrier.
    pub(crate) y: Vec<Complex64>,
    /// Channel per data carrier: the frame's gain turned by the symbol's
    /// pilot phase.
    pub(crate) h: Vec<Complex64>,
    /// The equalised carriers the decision-directed EVM slices.
    pub(crate) eq: Vec<Complex64>,
}

/// Receive-side scratch: everything `Receiver::receive_with` needs to run
/// the detection → channel-estimation → equalisation → soft-bit chain
/// without per-symbol allocation.
#[derive(Debug, Clone)]
pub struct RxWorkspace {
    /// CFO-corrected working copy of the capture (rotated only where the
    /// receive chain and [`RxWorkspace::corrected_to`] read).
    pub(crate) corrected: CorrectedCapture,
    /// Per-symbol grid and carrier buffers.
    pub(crate) carriers: SymbolCarriers,
    /// Demap tables for every modulation, built once.
    pub(crate) tables: DemapTables,
    /// The frame's channel gain per data carrier, then per pilot carrier.
    pub(crate) gains: Vec<Complex64>,
    /// The frame's noise power, once per data carrier.
    pub(crate) noise: Vec<f64>,
    /// Channel-estimation and phase-slope scratch.
    pub(crate) chanest: ChanestScratch,
    /// Packet-detector scratch.
    pub(crate) detect: DetectScratch,
    /// Bit-pipeline scratch (mother-code stream, placement tables and
    /// planned Viterbi decoder).
    pub(crate) decode: DecodeScratch,
}

impl RxWorkspace {
    /// A workspace sized for `params` (the grid buffer starts at its FFT
    /// size; all other buffers grow to their working sizes on first use).
    pub fn new(params: &OfdmParams) -> Self {
        RxWorkspace {
            corrected: CorrectedCapture::default(),
            carriers: SymbolCarriers {
                grid: Vec::with_capacity(params.fft_size),
                ..SymbolCarriers::default()
            },
            tables: DemapTables::new(),
            gains: Vec::new(),
            noise: Vec::new(),
            chanest: ChanestScratch::new(),
            detect: DetectScratch::new(),
            decode: DecodeScratch::new(),
        }
    }

    /// The capture of the last receive through this workspace up to sample
    /// `end` (clamped to the capture), CFO-corrected from the first LTS
    /// window on: those samples are bit-identical to
    /// [`ssync_dsp::mixer::apply_cfo`] with the detected offset's negative
    /// on a copy of the capture. The samples before the LTS window — which
    /// no decode reads — stay raw.
    ///
    /// The receive chain rotates only the samples it reads (LTS to end of
    /// DATA); a call here extends the rotation to `end`, so each sample is
    /// rotated at most once and none past `end` is rotated at all. Empty
    /// when the last receive detected no packet.
    pub fn corrected_to(&mut self, end: usize) -> &[Complex64] {
        let buf = self.corrected.rotate_to(end);
        &buf[..end.min(buf.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_workspace_rekeys_on_numerology_change() {
        let dot11a = OfdmParams::dot11a();
        let wiglan = OfdmParams::wiglan();
        let mut ws = TxWorkspace::new(&dot11a);
        assert_eq!(ws.fft_size(), 64);
        let (grid, data_bins, pilot_bins) = ws.symbol.keyed(&wiglan);
        assert_eq!(grid.len(), 128);
        assert_eq!(data_bins.len(), wiglan.n_data());
        assert_eq!(pilot_bins.len(), wiglan.pilot_carriers.len());
        assert_eq!(ws.fft_size(), 128);
        let (grid, data_bins, _) = ws.symbol.keyed(&dot11a);
        assert_eq!(grid.len(), 64);
        assert_eq!(data_bins[0], dot11a.bin(dot11a.data_carriers[0]));
    }
}
