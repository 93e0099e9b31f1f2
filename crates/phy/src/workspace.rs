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
//!   (30 allocations for an R12 frame on `dot11a`, whatever its length):
//!   the channel estimate (its LTS reference table, the two LTS grids and
//!   the carrier and gain vectors it returns), the phase-slope
//!   regression's per-window scratch behind the timing offset, the
//!   per-carrier SNR vector, the decoded PSDU and the returned payload.
//!   The estimate, the SNR vector and the payload leave the call in
//!   [`crate::RxResult`]; the rest is frame-level scratch no workspace
//!   owns yet.
//! * The few allocating signatures that remain ([`crate::Receiver::receive`],
//!   [`crate::Transmitter::frame_waveform`], …) are thin wrappers that
//!   build a throwaway workspace, and a reused workspace decodes exactly
//!   like a fresh one (enforced by the differential test suite).

use crate::frame::DecodeScratch;
use crate::modulation::DemapTable;
use crate::params::{Modulation, OfdmParams};
use ssync_dsp::mixer::apply_cfo_from;
use ssync_dsp::Complex64;

/// Transmit-side scratch: the subcarrier grid and time-domain symbol
/// buffers behind [`crate::ofdm::modulate_symbol_append`].
#[derive(Debug, Clone)]
pub struct TxWorkspace {
    fft_size: usize,
    grid: Vec<Complex64>,
    time: Vec<Complex64>,
}

impl TxWorkspace {
    /// A workspace keyed to `params` (buffers preallocated to its FFT size).
    pub fn new(params: &OfdmParams) -> Self {
        TxWorkspace {
            fft_size: params.fft_size,
            grid: vec![Complex64::ZERO; params.fft_size],
            time: vec![Complex64::ZERO; params.fft_size],
        }
    }

    /// The FFT size the buffers are currently keyed to.
    #[inline]
    pub fn fft_size(&self) -> usize {
        self.fft_size
    }

    /// The grid and time buffers, re-keyed to `params` if the numerology
    /// changed since the last call.
    pub(crate) fn grid_and_time(
        &mut self,
        params: &OfdmParams,
    ) -> (&mut [Complex64], &mut [Complex64]) {
        if self.fft_size != params.fft_size {
            self.fft_size = params.fft_size;
            self.grid.resize(params.fft_size, Complex64::ZERO);
            self.time.resize(params.fft_size, Complex64::ZERO);
        }
        (&mut self.grid, &mut self.time)
    }
}

/// A pool of per-symbol LLR vectors: the outer list and every inner buffer
/// are reused across frames, so pushing one vector per OFDM symbol stops
/// allocating once the pool has grown to the longest frame seen.
#[derive(Debug, Clone, Default)]
pub struct SymbolLlrs {
    bufs: Vec<Vec<f64>>,
    used: usize,
}

impl SymbolLlrs {
    /// An empty pool.
    pub fn new() -> Self {
        SymbolLlrs::default()
    }

    /// Drops all symbols (buffers are retained for reuse).
    pub fn reset(&mut self) {
        self.used = 0;
    }

    /// Hands out the next per-symbol buffer, cleared.
    pub fn next_symbol(&mut self) -> &mut Vec<f64> {
        if self.used == self.bufs.len() {
            self.bufs.push(Vec::new());
        }
        let buf = &mut self.bufs[self.used];
        self.used += 1;
        buf.clear();
        buf
    }

    /// Hands out the next *two* per-symbol buffers at once, cleared — the
    /// shape the Alamouti pair decoder needs, which fills the even and odd
    /// symbol's LLRs interleaved per subcarrier.
    pub fn next_symbol_pair(&mut self) -> (&mut Vec<f64>, &mut Vec<f64>) {
        while self.bufs.len() < self.used + 2 {
            self.bufs.push(Vec::new());
        }
        let (a, b) = self.bufs[self.used..self.used + 2].split_at_mut(1);
        self.used += 2;
        a[0].clear();
        b[0].clear();
        (&mut a[0], &mut b[0])
    }

    /// The filled per-symbol LLR vectors, in push order.
    pub fn symbols(&self) -> &[Vec<f64>] {
        &self.bufs[..self.used]
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

/// Receive-side scratch: everything `Receiver::receive_with` needs to run
/// the detection → channel-estimation → equalisation → soft-bit chain
/// without per-symbol allocation.
#[derive(Debug, Clone)]
pub struct RxWorkspace {
    /// CFO-corrected working copy of the capture (rotated only where the
    /// receive chain and [`RxWorkspace::corrected_to`] read).
    pub(crate) corrected: CorrectedCapture,
    /// Per-symbol demodulated subcarrier grid.
    pub(crate) grid: Vec<Complex64>,
    /// Per-symbol LLR pool (SIGNAL and DATA spans reuse it in turn).
    pub(crate) llrs: SymbolLlrs,
    /// Demap tables for every modulation, built once.
    pub(crate) tables: DemapTables,
    /// The frame's channel gain per data carrier, then per pilot carrier.
    pub(crate) gains: Vec<Complex64>,
    /// Packet-detector scratch.
    pub(crate) detect: DetectScratch,
    /// Bit-pipeline scratch (de-interleave/de-puncture buffers + planned
    /// Viterbi decoder).
    pub(crate) decode: DecodeScratch,
}

impl RxWorkspace {
    /// A workspace sized for `params` (the grid buffer starts at its FFT
    /// size; all other buffers grow to their working sizes on first use).
    pub fn new(params: &OfdmParams) -> Self {
        RxWorkspace {
            corrected: CorrectedCapture::default(),
            grid: Vec::with_capacity(params.fft_size),
            llrs: SymbolLlrs::new(),
            tables: DemapTables::new(),
            gains: Vec::new(),
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
        let (grid, time) = ws.grid_and_time(&wiglan);
        assert_eq!(grid.len(), 128);
        assert_eq!(time.len(), 128);
        assert_eq!(ws.fft_size(), 128);
    }

    #[test]
    fn llr_pool_reuses_buffers() {
        let mut pool = SymbolLlrs::new();
        pool.next_symbol().extend([1.0, 2.0]);
        pool.next_symbol().extend([3.0]);
        assert_eq!(pool.symbols(), &[vec![1.0, 2.0], vec![3.0]]);
        pool.reset();
        assert!(pool.symbols().is_empty());
        pool.next_symbol().extend([4.0]);
        assert_eq!(pool.symbols(), &[vec![4.0]]);
    }
}
