//! Per-symbol block interleaving.
//!
//! 802.11a interleaves the coded bits of each OFDM symbol with two
//! permutations: the first spreads adjacent coded bits across non-adjacent
//! subcarriers (defeating frequency-selective fades — exactly the impairment
//! SourceSync's sender diversity attacks), the second rotates bits within a
//! subcarrier's constellation positions so long runs do not always land on
//! low-reliability bits.
//!
//! The standard formulas assume `N_CBPS` divisible by 16; the WiGLAN
//! numerology (20 data carriers) is not always, so rows fall back to the
//! largest divisor of `N_CBPS` not exceeding 16. For `dot11a` the result is
//! bit-identical to the standard.

use crate::params::{Modulation, OfdmParams};

/// Interleaving table for one (numerology, modulation) pair.
#[derive(Debug, Clone)]
pub struct Interleaver {
    /// `perm[k]` = position after interleaving of input bit `k`.
    perm: Vec<usize>,
    /// Inverse permutation.
    inv: Vec<usize>,
}

fn rows_for(n_cbps: usize) -> usize {
    (1..=16)
        .rev()
        .find(|r| n_cbps.is_multiple_of(*r))
        .unwrap_or(1)
}

impl Interleaver {
    /// Builds the interleaver for one OFDM symbol's worth of coded bits.
    pub fn new(params: &OfdmParams, modulation: Modulation) -> Self {
        let n_cbps = params.coded_bits_per_symbol(modulation);
        let n_bpsc = modulation.bits_per_symbol();
        let rows = rows_for(n_cbps);
        let cols = n_cbps / rows;
        let s = (n_bpsc / 2).max(1);
        let mut perm = vec![0usize; n_cbps];
        for (k, slot) in perm.iter_mut().enumerate() {
            // First permutation (row-column write/read):
            let i = cols * (k % rows) + k / rows;
            let g = i / s;
            // Second permutation (constellation-bit rotation). The 802.11
            // formula is only a permutation when every s-group lies inside
            // one column block (cols divisible by s — true for all dot11a
            // cases); otherwise rotate within the group by the group index,
            // which serves the same purpose and is always bijective.
            let j = if cols.is_multiple_of(s) {
                s * g + (i + n_cbps - (rows * i) / n_cbps) % s
            } else {
                s * g + (i % s + g) % s
            };
            *slot = j;
        }
        let mut inv = vec![0usize; n_cbps];
        for (k, &j) in perm.iter().enumerate() {
            inv[j] = k;
        }
        Interleaver { perm, inv }
    }

    /// Number of coded bits per symbol this table handles.
    #[inline]
    pub fn block_len(&self) -> usize {
        self.perm.len()
    }

    /// Interleaves exactly one block.
    ///
    /// # Panics
    /// Panics if `bits.len() != block_len()`.
    pub fn interleave(&self, bits: &[u8]) -> Vec<u8> {
        assert_eq!(
            bits.len(),
            self.block_len(),
            "interleaver block size mismatch"
        );
        let mut out = vec![0u8; bits.len()];
        for (k, &b) in bits.iter().enumerate() {
            out[self.perm[k]] = b;
        }
        out
    }

    /// Per interleaved (on-air) position, the index of the coded bit it
    /// carries within the block: the de-interleaver's permutation.
    #[inline]
    pub(crate) fn sources(&self) -> &[usize] {
        &self.inv
    }

    /// De-interleaves one block of LLRs (receiver side), *appending* the
    /// de-interleaved block to `out`. The receive chain does not call it:
    /// it scatters each LLR straight to its mother-code position through
    /// `crate::frame::DecodeScratch`'s placement table, which this
    /// composed with [`crate::convcode::depuncture_llr_into`] is the
    /// reference for.
    ///
    /// # Panics
    /// Panics if `llrs.len() != block_len()`.
    pub fn deinterleave_llrs_append(&self, llrs: &[f64], out: &mut Vec<f64>) {
        assert_eq!(
            llrs.len(),
            self.block_len(),
            "deinterleaver block size mismatch"
        );
        let base = out.len();
        out.resize(base + llrs.len(), 0.0);
        for (k, &l) in llrs.iter().enumerate() {
            out[base + self.inv[k]] = l;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OfdmParams;

    #[test]
    fn permutation_is_bijective() {
        for params in [OfdmParams::dot11a(), OfdmParams::wiglan()] {
            for m in [
                Modulation::Bpsk,
                Modulation::Qpsk,
                Modulation::Qam16,
                Modulation::Qam64,
            ] {
                let il = Interleaver::new(&params, m);
                let mut seen = vec![false; il.block_len()];
                for k in 0..il.block_len() {
                    let j = il.perm[k];
                    assert!(!seen[j], "{}/{m:?}: position {j} hit twice", params.name);
                    seen[j] = true;
                }
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        let params = OfdmParams::dot11a();
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let il = Interleaver::new(&params, m);
            let bits: Vec<u8> = (0..il.block_len()).map(|i| (i % 2) as u8).collect();
            let llrs: Vec<f64> = bits.iter().map(|b| *b as f64 - 0.5).collect();
            let llr_inter: Vec<f64> = il
                .interleave(&bits)
                .iter()
                .map(|b| *b as f64 - 0.5)
                .collect();
            let mut back = Vec::new();
            il.deinterleave_llrs_append(&llr_inter, &mut back);
            assert_eq!(back, llrs);
        }
    }

    #[test]
    fn matches_80211_bpsk_vector() {
        // For BPSK/dot11a (N_CBPS=48, s=1) the interleaver is the pure
        // row-column permutation with 16 rows: k -> 3*(k mod 16) + k/16.
        let il = Interleaver::new(&OfdmParams::dot11a(), Modulation::Bpsk);
        for k in 0..48 {
            assert_eq!(il.perm[k], 3 * (k % 16) + k / 16);
        }
    }

    #[test]
    fn spreads_adjacent_bits() {
        // Adjacent coded bits must land at least a few subcarriers apart
        // (that is the interleaver's whole job).
        let params = OfdmParams::dot11a();
        let il = Interleaver::new(&params, Modulation::Qpsk);
        let n_bpsc = 2;
        for k in 0..il.block_len() - 1 {
            let sc_a = il.perm[k] / n_bpsc;
            let sc_b = il.perm[k + 1] / n_bpsc;
            assert!(
                (sc_a as i64 - sc_b as i64).unsigned_abs() >= 2,
                "bits {k},{} map to adjacent subcarriers {sc_a},{sc_b}",
                k + 1
            );
        }
    }

    #[test]
    fn wiglan_all_modulations_construct() {
        let params = OfdmParams::wiglan();
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let il = Interleaver::new(&params, m);
            assert_eq!(il.block_len(), params.coded_bits_per_symbol(m));
        }
    }

    #[test]
    #[should_panic(expected = "block size mismatch")]
    fn wrong_block_size_panics() {
        let il = Interleaver::new(&OfdmParams::dot11a(), Modulation::Bpsk);
        let _ = il.interleave(&[0u8; 10]);
    }
}
