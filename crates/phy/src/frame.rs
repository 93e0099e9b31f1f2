//! Frame-level bit pipelines: the SIGNAL field and the DATA field.
//!
//! A PHY frame on the air is `preamble | SIGNAL symbols | DATA symbols`.
//!
//! * SIGNAL: rate (4b) + length (16b) + flags (3b) + even parity (1b),
//!   always BPSK rate-1/2, zero-padded to fill whole OFDM symbols. This is a
//!   typed codec, not the IEEE bit layout (documented simplification).
//! * DATA: 16-bit SERVICE (zeros, for scrambler sync) + PSDU + 6 tail bits
//!   plus pad, scrambled (tail re-zeroed after scrambling, as in 802.11),
//!   convolutionally encoded, punctured, interleaved per symbol and mapped.

use crate::convcode::{self, TAIL_BITS};
use crate::interleave::Interleaver;
use crate::modulation::{self, Modulation};
use crate::params::{OfdmParams, RateId};
use crate::scramble::{Scrambler, DEFAULT_SEED};
use crate::viterbi;
use ssync_dsp::Complex64;

/// Decoded SIGNAL field contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalField {
    /// Transmission rate of the DATA field.
    pub rate: RateId,
    /// PSDU length in bytes (0–65535).
    pub length: u16,
    /// Three free flag bits (SourceSync uses one as the "joint frame" mark).
    pub flags: u8,
}

/// Flag bit marking a SourceSync joint frame (set in [`SignalField::flags`]).
pub const FLAG_JOINT: u8 = 0b001;

impl SignalField {
    /// Serialises to the 24 SIGNAL bits (before coding).
    pub fn to_bits(&self) -> Vec<u8> {
        let mut bits = Vec::with_capacity(24);
        push_bits(&mut bits, self.rate.to_index() as u32, 4);
        push_bits(&mut bits, self.length as u32, 16);
        push_bits(&mut bits, (self.flags & 0b111) as u32, 3);
        let ones: u32 = bits.iter().map(|b| *b as u32).sum();
        bits.push((ones % 2) as u8); // even parity over the whole word
        bits
    }

    /// Parses 24 SIGNAL bits; `None` on bad parity or unknown rate.
    pub fn from_bits(bits: &[u8]) -> Option<SignalField> {
        if bits.len() < 24 {
            return None;
        }
        let ones: u32 = bits[..24].iter().map(|b| *b as u32).sum();
        if ones % 2 != 0 {
            return None;
        }
        let rate = RateId::from_index(read_bits(&bits[0..4]) as u8)?;
        let length = read_bits(&bits[4..20]) as u16;
        let flags = read_bits(&bits[20..23]) as u8;
        Some(SignalField {
            rate,
            length,
            flags,
        })
    }
}

fn push_bits(out: &mut Vec<u8>, value: u32, n: usize) {
    for i in (0..n).rev() {
        out.push(((value >> i) & 1) as u8);
    }
}

fn read_bits(bits: &[u8]) -> u32 {
    bits.iter().fold(0, |acc, b| (acc << 1) | *b as u32)
}

/// Converts bytes to bits, LSB first within each byte (802.11 order).
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &byte in bytes {
        for i in 0..8 {
            bits.push((byte >> i) & 1);
        }
    }
    bits
}

/// Converts bits back to bytes (inverse of [`bytes_to_bits`]); trailing
/// partial bytes are dropped.
pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    bits.chunks_exact(8)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u8, |acc, (i, b)| acc | (b << i))
        })
        .collect()
}

/// Number of OFDM symbols the SIGNAL field occupies for a numerology.
pub fn n_signal_symbols(params: &OfdmParams) -> usize {
    let cbps = params.coded_bits_per_symbol(Modulation::Bpsk);
    // 24 info + 6 tail bits at rate 1/2.
    ((24 + TAIL_BITS) * 2).div_ceil(cbps)
}

/// Encodes the SIGNAL field into constellation points, one `Vec` per OFDM
/// symbol (each of length `n_data()`).
pub fn encode_signal(params: &OfdmParams, sig: &SignalField) -> Vec<Vec<Complex64>> {
    let cbps = params.coded_bits_per_symbol(Modulation::Bpsk);
    let n_syms = n_signal_symbols(params);
    let mut info = sig.to_bits();
    info.extend(std::iter::repeat_n(0, TAIL_BITS));
    // Zero-pad info so coded length fills the symbols exactly.
    let want_info = n_syms * cbps / 2;
    info.resize(want_info, 0);
    let coded = convcode::encode_half(&info);
    debug_assert_eq!(coded.len(), n_syms * cbps);
    let il = Interleaver::new(params, Modulation::Bpsk);
    coded
        .chunks(cbps)
        .map(|chunk| modulation::map_bits(Modulation::Bpsk, &il.interleave(chunk)))
        .collect()
}

/// Reusable scratch for the receive-side bit pipelines: de-interleave and
/// de-puncture buffers plus a planned [`viterbi::ViterbiDecoder`], so the
/// per-frame [`decode_signal_with`] / [`decode_data_with`] hot paths reuse
/// every buffer (workspaces embed one; see `crate::workspace::RxWorkspace`).
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// De-interleaved (still punctured) LLR stream.
    punctured: Vec<f64>,
    /// Mother-code LLR stream after de-puncturing.
    mother: Vec<f64>,
    /// Planned Viterbi decoder (path metrics + survivor store).
    viterbi: viterbi::ViterbiDecoder,
    /// Decoded bit buffer (info + tail, pre-descramble).
    bits: Vec<u8>,
    /// De-interleavers built so far.
    interleavers: Interleavers,
}

/// One de-interleaver per modulation, each kept with the data-carrier
/// count it was built for and rebuilt only when the numerology changes.
#[derive(Debug, Clone, Default)]
struct Interleavers([Option<(usize, Interleaver)>; 4]);

impl Interleavers {
    /// The interleaver for `m` under `params`.
    fn get(&mut self, params: &OfdmParams, m: Modulation) -> &Interleaver {
        let slot = &mut self.0[m.index()];
        let n_data = params.n_data();
        if !matches!(slot, Some((n, _)) if *n == n_data) {
            *slot = Some((n_data, Interleaver::new(params, m)));
        }
        match slot {
            Some((_, il)) => il,
            None => unreachable!("filled above"),
        }
    }
}

impl DecodeScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Decodes SIGNAL-field LLRs (raw per-symbol LLRs in subcarrier order)
/// through caller-owned scratch, with zero steady-state allocation.
pub fn decode_signal_with(
    params: &OfdmParams,
    llrs_per_symbol: &[Vec<f64>],
    scratch: &mut DecodeScratch,
) -> Option<SignalField> {
    let il = scratch.interleavers.get(params, Modulation::Bpsk);
    scratch.mother.clear();
    for sym_llrs in llrs_per_symbol {
        // Appending the de-interleaved block in place (rather than
        // extending from a fresh per-symbol vector) keeps the receive
        // chain's per-symbol allocation count at zero.
        il.deinterleave_llrs_append(sym_llrs, &mut scratch.mother);
    }
    if !scratch
        .viterbi
        .decode_terminated_into(&scratch.mother, &mut scratch.bits)
    {
        return None;
    }
    SignalField::from_bits(&scratch.bits)
}

/// The DATA-field bit pipeline of one frame, transmit side.
///
/// Returns constellation points grouped per OFDM symbol. `psdu` is the MAC
/// frame (the PHY does not add a CRC here; the MAC/[`crate::tx`] helpers do).
pub fn encode_data(params: &OfdmParams, psdu: &[u8], rate: RateId) -> Vec<Vec<Complex64>> {
    let m = rate.modulation();
    let cbps = params.coded_bits_per_symbol(m);
    let dbps = params.data_bits_per_symbol(rate);
    // SERVICE (16 zero bits) + PSDU bits + tail, padded to a symbol multiple.
    let mut bits = vec![0u8; 16];
    bits.extend(bytes_to_bits(psdu));
    let n_syms = (bits.len() + TAIL_BITS).div_ceil(dbps);
    let padded_len = n_syms * dbps;
    // Scramble, then re-zero the tail *and* pad region so the trellis ends in
    // state 0 (802.11 scrambles the pad too; zeroing it as well lets the
    // decoder use a terminated traceback and changes nothing observable).
    let mut scrambler = Scrambler::new(DEFAULT_SEED);
    let tail_pos = bits.len();
    bits.resize(padded_len, 0);
    scrambler.scramble_in_place(&mut bits);
    for b in bits[tail_pos..].iter_mut() {
        *b = 0;
    }
    let coded = convcode::encode_half(&bits);
    let punct = convcode::puncture(&coded, rate.code_rate());
    debug_assert_eq!(punct.len(), n_syms * cbps);
    let il = Interleaver::new(params, m);
    punct
        .chunks(cbps)
        .map(|chunk| modulation::map_bits(m, &il.interleave(chunk)))
        .collect()
}

/// Number of DATA OFDM symbols for a PSDU of `len` bytes at `rate`.
pub fn n_data_symbols(params: &OfdmParams, len: usize, rate: RateId) -> usize {
    (16 + len * 8 + TAIL_BITS).div_ceil(params.data_bits_per_symbol(rate))
}

/// Receive side of the DATA pipeline: takes per-symbol LLR vectors (subcarrier
/// order), de-interleaves, de-punctures, Viterbi-decodes, descrambles, and
/// returns the PSDU bytes (length from the SIGNAL field). Runs through
/// caller-owned scratch, with zero steady-state allocation beyond the
/// returned PSDU bytes.
pub fn decode_data_with(
    params: &OfdmParams,
    llrs_per_symbol: &[Vec<f64>],
    rate: RateId,
    psdu_len: usize,
    scratch: &mut DecodeScratch,
) -> Option<Vec<u8>> {
    let m = rate.modulation();
    let il = scratch.interleavers.get(params, m);
    scratch.punctured.clear();
    for sym in llrs_per_symbol {
        if sym.len() != params.coded_bits_per_symbol(m) {
            return None;
        }
        il.deinterleave_llrs_append(sym, &mut scratch.punctured);
    }
    let n_syms = llrs_per_symbol.len();
    let n_info = n_syms * params.data_bits_per_symbol(rate);
    let mother_len = n_info * 2;
    convcode::depuncture_llr_into(
        &scratch.punctured,
        rate.code_rate(),
        mother_len,
        &mut scratch.mother,
    );
    if !scratch
        .viterbi
        .decode_terminated_into(&scratch.mother, &mut scratch.bits)
    {
        return None;
    }
    // Descramble SERVICE + payload (tail positions were zeroed pre-coding;
    // descrambling them yields garbage we ignore).
    let mut scrambler = Scrambler::new(DEFAULT_SEED);
    scrambler.scramble_in_place(&mut scratch.bits);
    let payload_bits = scratch.bits.get(16..16 + psdu_len * 8)?;
    Some(bits_to_bytes(payload_bits))
}

/// Maximum PSDU length representable in the SIGNAL field.
pub const MAX_PSDU_LEN: usize = u16::MAX as usize;

/// Checks rate/length combinations the PHY accepts.
pub fn validate_psdu(psdu: &[u8]) -> Result<(), CodecError> {
    if psdu.len() > MAX_PSDU_LEN {
        return Err(CodecError::PsduTooLong(psdu.len()));
    }
    Ok(())
}

/// Errors from the frame codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// PSDU exceeds the SIGNAL length field capacity.
    PsduTooLong(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::PsduTooLong(n) => write!(f, "PSDU of {n} bytes exceeds {MAX_PSDU_LEN}"),
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OfdmParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn signal_field_roundtrip() {
        for rate in RateId::ALL {
            for length in [0u16, 1, 100, 1460, u16::MAX] {
                for flags in 0..8u8 {
                    let sig = SignalField {
                        rate,
                        length,
                        flags,
                    };
                    let bits = sig.to_bits();
                    assert_eq!(bits.len(), 24);
                    assert_eq!(SignalField::from_bits(&bits), Some(sig));
                }
            }
        }
    }

    #[test]
    fn signal_parity_detects_single_flip() {
        let sig = SignalField {
            rate: RateId::R12,
            length: 1460,
            flags: 0,
        };
        let bits = sig.to_bits();
        for i in 0..24 {
            let mut bad = bits.clone();
            bad[i] ^= 1;
            // Either parity fails or the decode differs from the original.
            if let Some(decoded) = SignalField::from_bits(&bad) {
                assert_ne!(decoded, sig, "flip {i} silently accepted");
            }
        }
    }

    #[test]
    fn bit_byte_roundtrip() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
    }

    #[test]
    fn signal_encode_decode_through_llrs() {
        for params in [OfdmParams::dot11a(), OfdmParams::wiglan()] {
            let sig = SignalField {
                rate: RateId::R36,
                length: 777,
                flags: FLAG_JOINT,
            };
            let syms = encode_signal(&params, &sig);
            assert_eq!(syms.len(), n_signal_symbols(&params));
            // Perfect channel: BPSK bit 0 maps to −1, so a negative point
            // means "bit 0 likely" → positive LLR.
            let llrs: Vec<Vec<f64>> = syms
                .iter()
                .map(|s| {
                    s.iter()
                        .map(|p| if p.re < 0.0 { 1.0 } else { -1.0 })
                        .collect()
                })
                .collect();
            assert_eq!(
                decode_signal_with(&params, &llrs, &mut DecodeScratch::new()),
                Some(sig),
                "{}",
                params.name
            );
        }
    }

    #[test]
    fn data_roundtrip_all_rates() {
        let params = OfdmParams::dot11a();
        let mut rng = StdRng::seed_from_u64(11);
        for rate in RateId::ALL {
            let psdu: Vec<u8> = (0..257).map(|_| rng.gen()).collect();
            let syms = encode_data(&params, &psdu, rate);
            assert_eq!(syms.len(), n_data_symbols(&params, psdu.len(), rate));
            let m = rate.modulation();
            let llrs: Vec<Vec<f64>> = syms
                .iter()
                .map(|s| {
                    s.iter()
                        .flat_map(|p| modulation::demap_llrs(m, *p, Complex64::ONE, 0.01))
                        .collect()
                })
                .collect();
            let decoded =
                decode_data_with(&params, &llrs, rate, psdu.len(), &mut DecodeScratch::new());
            assert_eq!(decoded.as_deref(), Some(&psdu[..]), "rate {rate:?}");
        }
    }

    #[test]
    fn data_roundtrip_wiglan() {
        let params = OfdmParams::wiglan();
        let mut rng = StdRng::seed_from_u64(12);
        for rate in [RateId::R6, RateId::R12, RateId::R54] {
            let psdu: Vec<u8> = (0..100).map(|_| rng.gen()).collect();
            let syms = encode_data(&params, &psdu, rate);
            let m = rate.modulation();
            let llrs: Vec<Vec<f64>> = syms
                .iter()
                .map(|s| {
                    s.iter()
                        .flat_map(|p| modulation::demap_llrs(m, *p, Complex64::ONE, 0.01))
                        .collect()
                })
                .collect();
            assert_eq!(
                decode_data_with(&params, &llrs, rate, psdu.len(), &mut DecodeScratch::new())
                    .as_deref(),
                Some(&psdu[..])
            );
        }
    }

    #[test]
    fn empty_psdu_roundtrip() {
        let params = OfdmParams::dot11a();
        let syms = encode_data(&params, &[], RateId::R6);
        assert!(!syms.is_empty());
        let llrs: Vec<Vec<f64>> = syms
            .iter()
            .map(|s| {
                s.iter()
                    .map(|p| if p.re < 0.0 { 1.0 } else { -1.0 })
                    .collect()
            })
            .collect();
        assert_eq!(
            decode_data_with(&params, &llrs, RateId::R6, 0, &mut DecodeScratch::new()).as_deref(),
            Some(&[][..])
        );
    }

    #[test]
    fn scrambling_whitens_constant_payload() {
        // An all-zeros PSDU must not produce an all-identical symbol stream.
        let params = OfdmParams::dot11a();
        let psdu = vec![0u8; 100];
        let syms = encode_data(&params, &psdu, RateId::R6);
        let first = &syms[0];
        let second = &syms[1];
        let identical = first.iter().zip(second).all(|(a, b)| a.dist(*b) < 1e-12);
        assert!(!identical, "scrambler failed to whiten");
    }

    #[test]
    fn validate_psdu_bounds() {
        assert!(validate_psdu(&[0u8; 100]).is_ok());
        assert!(matches!(
            validate_psdu(&vec![0u8; MAX_PSDU_LEN + 1]),
            Err(CodecError::PsduTooLong(_))
        ));
    }

    #[test]
    fn n_data_symbols_matches_80211_example() {
        // 802.11a: 1460-byte PSDU at 12 Mbps (QPSK 1/2, 48 DBPS... actually
        // N_DBPS = 48 for 12 Mbps): ceil((16+11680+6)/48) = 244 symbols.
        let params = OfdmParams::dot11a();
        assert_eq!(n_data_symbols(&params, 1460, RateId::R12), 244);
    }
}
