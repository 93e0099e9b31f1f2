//! OFDM symbol assembly and disassembly.
//!
//! Transmit: data constellation points + pilots → subcarrier grid → IFFT →
//! cyclic prefix. Receive: FFT window → subcarrier grid.
//!
//! The cyclic prefix length is a per-call parameter (not just the
//! numerology's base value) because SourceSync extends the CP per joint
//! frame to absorb residual multi-receiver misalignment (paper §4.6).

use crate::params::OfdmParams;
use crate::scramble::pilot_polarity;
use crate::workspace::{SymbolBuffers, TxWorkspace};
use ssync_dsp::{Complex64, FftPlan};

/// Builds one OFDM symbol: maps `data` onto the data subcarriers (in the
/// order of `params.data_carriers`), inserts pilots with the polarity of
/// `symbol_index`, IFFTs through the reusable [`TxWorkspace`], and
/// *appends* the symbol with a cyclic prefix of `cp_len` samples to `out`
/// (the transmitter concatenates symbols into one frame waveform, so append
/// is the composable shape).
///
/// The output is scaled so that mean *occupied-subcarrier* power maps to a
/// time-domain mean power of ~1 regardless of FFT size.
///
/// SourceSync senders *share* the pilot subcarriers across OFDM symbols
/// (paper §5): in a joint frame the role-A senders drive pilots only on
/// even data symbols and role-B senders only on odd ones, so the receiver
/// can track each role's residual frequency offset separately. A sender
/// whose turn it is not transmits zero on the pilot carriers
/// (`pilots_enabled = false`).
///
/// # Panics
/// Panics if `data.len() != params.n_data()` or `cp_len >= fft_size`.
#[allow(clippy::too_many_arguments)] // symbol spec + (workspace, sink)
pub fn modulate_symbol_append(
    params: &OfdmParams,
    fft: &FftPlan,
    data: &[Complex64],
    symbol_index: usize,
    cp_len: usize,
    pilots_enabled: bool,
    ws: &mut TxWorkspace,
    out: &mut Vec<Complex64>,
) {
    modulate_points_append(
        params,
        fft,
        data.iter().copied(),
        symbol_index,
        cp_len,
        pilots_enabled,
        &mut ws.symbol,
        out,
    );
}

/// [`modulate_symbol_append`] with the data carriers' points from an
/// iterator, each written straight into its IFFT bin (the transmitter
/// feeds [`crate::frame::CodedSymbols::points`] here).
///
/// # Panics
/// Panics if `data.len() != params.n_data()` or `cp_len >= fft_size`.
#[allow(clippy::too_many_arguments)] // symbol spec + (scratch, sink)
pub(crate) fn modulate_points_append(
    params: &OfdmParams,
    fft: &FftPlan,
    data: impl ExactSizeIterator<Item = Complex64>,
    symbol_index: usize,
    cp_len: usize,
    pilots_enabled: bool,
    buffers: &mut SymbolBuffers,
    out: &mut Vec<Complex64>,
) {
    assert_eq!(
        data.len(),
        params.n_data(),
        "data subcarrier count mismatch"
    );
    assert!(
        cp_len < params.fft_size,
        "cyclic prefix must be shorter than the FFT"
    );
    let n = params.fft_size;
    let (grid, data_bins, pilot_bins) = buffers.keyed(params);
    grid.fill(Complex64::ZERO);
    for (&bin, x) in data_bins.iter().zip(data) {
        grid[bin] = x;
    }
    if pilots_enabled {
        let pol = Complex64::real(pilot_polarity(symbol_index));
        for &bin in pilot_bins {
            grid[bin] = pol;
        }
    }
    fft.inverse(grid);
    // The IFFT of n_occ unit-power bins has mean time-domain power n_occ/N²;
    // scaling by N/√n_occ makes the on-air mean power 1 for every
    // numerology, so channel SNR definitions are numerology-independent.
    let scale = symbol_scale(params);
    out.extend(grid[n - cp_len..].iter().map(|s| s.scale(scale)));
    out.extend(grid.iter().map(|s| s.scale(scale)));
}

/// The time-domain gain applied by [`modulate_symbol_append`] (`N/√n_occ`); the
/// receiver divides by the same factor to restore constellation coordinates.
pub fn symbol_scale(params: &OfdmParams) -> f64 {
    let n_occ = params.data_carriers.len() + params.pilot_carriers.len();
    params.fft_size as f64 / (n_occ as f64).sqrt()
}

/// Extracts the subcarrier grid of one received OFDM symbol.
///
/// `samples` must contain at least `offset + fft_size` samples; the FFT
/// window starts at `offset` (the caller positions it inside the cyclic
/// prefix). Returns values for every FFT bin, normalised back to
/// constellation scale.
pub fn demodulate_window(
    params: &OfdmParams,
    fft: &FftPlan,
    samples: &[Complex64],
    offset: usize,
) -> Vec<Complex64> {
    let mut grid = Vec::with_capacity(params.fft_size);
    demodulate_window_into(params, fft, samples, offset, &mut grid);
    grid
}

/// [`demodulate_window`] into a caller-owned grid buffer (cleared and
/// refilled; capacity reused across calls, so the per-symbol receive loop
/// performs no heap allocation at steady state). Bit-identical to the
/// allocating path.
pub fn demodulate_window_into(
    params: &OfdmParams,
    fft: &FftPlan,
    samples: &[Complex64],
    offset: usize,
    grid: &mut Vec<Complex64>,
) {
    assert!(
        samples.len() >= offset + params.fft_size,
        "window [{offset}, {}) out of range (len {})",
        offset + params.fft_size,
        samples.len()
    );
    grid.clear();
    grid.extend_from_slice(&samples[offset..offset + params.fft_size]);
    fft.forward(grid);
    // forward(inverse(X)) = X, so after the transmitter's symbol_scale gain
    // the grid comes back multiplied by exactly that factor; undo it.
    let inv = 1.0 / symbol_scale(params);
    for v in grid.iter_mut() {
        *v = v.scale(inv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::{map_bits, Modulation};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One symbol through a fresh workspace, pilots on.
    fn modulate(
        params: &OfdmParams,
        fft: &FftPlan,
        data: &[Complex64],
        symbol_index: usize,
        cp_len: usize,
    ) -> Vec<Complex64> {
        let mut out = Vec::new();
        let mut ws = TxWorkspace::new(params);
        modulate_symbol_append(
            params,
            fft,
            data,
            symbol_index,
            cp_len,
            true,
            &mut ws,
            &mut out,
        );
        out
    }

    /// The grid values on `carriers`, in order.
    fn carriers_of(params: &OfdmParams, grid: &[Complex64], carriers: &[i32]) -> Vec<Complex64> {
        carriers.iter().map(|&k| grid[params.bin(k)]).collect()
    }

    #[test]
    fn loopback_recovers_constellation_points() {
        for params in [
            crate::params::OfdmParams::dot11a(),
            crate::params::OfdmParams::wiglan(),
        ] {
            let fft = FftPlan::new(params.fft_size);
            let mut rng = StdRng::seed_from_u64(1);
            let bits: Vec<u8> = (0..params.n_data() * 2)
                .map(|_| rng.gen_range(0..2u8))
                .collect();
            let data = map_bits(Modulation::Qpsk, &bits);
            let sym = modulate(&params, &fft, &data, 0, params.cp_len);
            assert_eq!(sym.len(), params.symbol_len());
            let grid = demodulate_window(&params, &fft, &sym, params.cp_len);
            let rx = carriers_of(&params, &grid, &params.data_carriers);
            for (a, b) in rx.iter().zip(&data) {
                assert!(a.dist(*b) < 1e-9, "{}: {a:?} vs {b:?}", params.name);
            }
        }
    }

    #[test]
    fn unit_mean_power_on_air() {
        let params = crate::params::OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let mut rng = StdRng::seed_from_u64(2);
        let mut total = 0.0;
        let n_sym = 50;
        for s in 0..n_sym {
            let bits: Vec<u8> = (0..params.n_data() * 2)
                .map(|_| rng.gen_range(0..2u8))
                .collect();
            let data = map_bits(Modulation::Qpsk, &bits);
            let sym = modulate(&params, &fft, &data, s, params.cp_len);
            total += ssync_dsp::complex::mean_power(&sym);
        }
        let mean = total / n_sym as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean on-air power {mean}");
    }

    #[test]
    fn any_window_inside_cp_works() {
        // The property Fig. 3 of the paper illustrates: any FFT window inside
        // the CP slack decodes correctly (up to a phase ramp which the
        // channel estimator absorbs; here there is no channel so offsets
        // rotate subcarriers — verify magnitude only).
        let params = crate::params::OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let mut rng = StdRng::seed_from_u64(3);
        let bits: Vec<u8> = (0..params.n_data() * 2)
            .map(|_| rng.gen_range(0..2u8))
            .collect();
        let data = map_bits(Modulation::Qpsk, &bits);
        let sym = modulate(&params, &fft, &data, 0, params.cp_len);
        for offset in 0..=params.cp_len {
            let grid = demodulate_window(&params, &fft, &sym, offset);
            let rx = carriers_of(&params, &grid, &params.data_carriers);
            for (a, b) in rx.iter().zip(&data) {
                assert!(
                    (a.abs() - b.abs()).abs() < 1e-9,
                    "offset {offset}: magnitude changed"
                );
            }
        }
    }

    #[test]
    fn cp_is_cyclic() {
        let params = crate::params::OfdmParams::wiglan();
        let fft = FftPlan::new(params.fft_size);
        let mut rng = StdRng::seed_from_u64(4);
        let bits: Vec<u8> = (0..params.n_data() * 2)
            .map(|_| rng.gen_range(0..2u8))
            .collect();
        let data = map_bits(Modulation::Qpsk, &bits);
        let cp = 20;
        let sym = modulate(&params, &fft, &data, 0, cp);
        for i in 0..cp {
            assert!(sym[i].dist(sym[i + params.fft_size]) < 1e-12);
        }
    }

    #[test]
    fn pilots_carry_polarity() {
        let params = crate::params::OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let data = vec![Complex64::ZERO; params.n_data()];
        for sym_idx in [0usize, 4, 7] {
            let sym = modulate(&params, &fft, &data, sym_idx, params.cp_len);
            let grid = demodulate_window(&params, &fft, &sym, params.cp_len);
            let pilots = carriers_of(&params, &grid, &params.pilot_carriers);
            let pol = pilot_polarity(sym_idx);
            for p in pilots {
                assert!((p.re - pol).abs() < 1e-9 && p.im.abs() < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn window_out_of_range_panics() {
        let params = crate::params::OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let _ = demodulate_window(&params, &fft, &vec![Complex64::ZERO; 60], 0);
    }
}
