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
use crate::params::{LayoutKey, OfdmParams, RateId};
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
        let word = self.air_word();
        (0..24).map(|i| ((word >> i) & 1) as u8).collect()
    }

    /// The 24 SIGNAL bits packed in transmit order, bit `i` of the word
    /// being bit `i` on the air: rate (4 bits), length (16) and flags (3),
    /// each most significant bit first, then even parity over the word.
    fn air_word(self) -> u32 {
        let fields = ((self.rate.to_index() as u32) << 19)
            | ((self.length as u32) << 3)
            | (self.flags & 0b111) as u32;
        let msb_first = (fields << 1) | (fields.count_ones() % 2);
        (0..24).fold(0, |w, i| w | (((msb_first >> (23 - i)) & 1) << i))
    }

    /// Parses 24 SIGNAL bits; `None` on bad parity or unknown rate.
    pub fn from_bits(bits: &[u8]) -> Option<SignalField> {
        if bits.len() < 24 {
            return None;
        }
        let ones: u32 = bits[..24].iter().map(|b| *b as u32).sum();
        if !ones.is_multiple_of(2) {
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
/// symbol (each of length `n_data()`), one bit per `u8` through every
/// stage. The reference [`encode_signal_with`] is tested against; no
/// production path calls it.
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

/// Reusable scratch for the receive-side bit pipelines: the mother-code
/// LLR stream, the placement tables that fill it and a planned
/// [`viterbi::ViterbiDecoder`], so the per-frame [`decode_signal_with`] /
/// [`decode_data_with`] hot paths reuse every buffer (workspaces embed one;
/// see `crate::workspace::RxWorkspace`).
///
/// A frame is decoded in two steps. [`DecodeScratch::mother_stream`] zeroes
/// the frame's rate-1/2 stream and hands out its per-symbol blocks with the
/// rate's placement table; the demapper
/// ([`crate::modulation::DemapTable::demap_symbol`]) writes each soft bit
/// once, at its final position, and the punctured positions keep their
/// zero (erasure). Then a decode call runs the Viterbi over the stream.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// Mother-code LLR stream of the frame being decoded.
    mother: Vec<f64>,
    /// Planned Viterbi decoder (path metrics + survivor store).
    viterbi: viterbi::ViterbiDecoder,
    /// Decoded bit buffer (info + tail, pre-descramble).
    bits: Vec<u8>,
    /// Placement tables built so far.
    placements: Placements,
}

/// One placement table per rate, built on first use and all dropped when
/// the numerology's carrier layout changes.
#[derive(Debug, Clone, Default)]
struct Placements {
    layout: LayoutKey,
    tables: [Option<Vec<u32>>; 8],
}

impl Placements {
    /// The placement table for `rate` under `params`.
    fn get(&mut self, params: &OfdmParams, rate: RateId) -> &[u32] {
        if self.layout.rekey(params) {
            self.tables = Default::default();
        }
        self.tables[rate.to_index() as usize].get_or_insert_with(|| placement(params, rate))
    }
}

/// Where each coded bit of one OFDM symbol at `rate` lands in the
/// symbol's block of the mother-code stream: entry `carrier·bps + bit` (the
/// demapper's order) is the de-interleaver's position for it, composed with
/// the puncture pattern's map from kept bits to mother positions.
///
/// # Panics
/// Panics if a symbol does not cover whole puncture periods (every 802.11a
/// and WiGLAN rate does), since then the blocks would not tile the stream.
fn placement(params: &OfdmParams, rate: RateId) -> Vec<u32> {
    let il = Interleaver::new(params, rate.modulation());
    let pattern = convcode::puncture_pattern(rate.code_rate());
    let kept: Vec<usize> = (0..pattern.len()).filter(|&i| pattern[i]).collect();
    assert!(
        il.block_len().is_multiple_of(kept.len()),
        "{} at {rate:?}: {} coded bits per symbol are not whole puncture periods",
        params.name,
        il.block_len()
    );
    il.sources()
        .iter()
        .map(|&p| (p / kept.len() * pattern.len() + kept[p % kept.len()]) as u32)
        .collect()
}

/// A frame's mother-code LLR stream, opened by
/// [`DecodeScratch::mother_stream`].
#[derive(Debug)]
pub struct MotherStream<'a> {
    /// Per coded bit of a symbol, in demapper order (carrier ·
    /// bits per carrier + bit), its offset in the symbol's block.
    pub place: &'a [u32],
    /// The stream's blocks, zeroed, one per OFDM symbol in symbol order.
    pub blocks: std::slice::ChunksExactMut<'a, f64>,
}

impl DecodeScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the mother-code stream of a frame of `n_syms` OFDM symbols at
    /// `rate` (the SIGNAL field is `R6`'s BPSK rate 1/2): the stream is
    /// zeroed and sized to `n_syms` blocks of `2·N_DBPS` LLRs, ready for
    /// [`decode_signal_with`] or [`decode_data_with`] once filled.
    pub fn mother_stream(
        &mut self,
        params: &OfdmParams,
        rate: RateId,
        n_syms: usize,
    ) -> MotherStream<'_> {
        let block = 2 * params.data_bits_per_symbol(rate);
        self.mother.clear();
        self.mother.resize(n_syms * block, 0.0);
        MotherStream {
            place: self.placements.get(params, rate),
            blocks: self.mother.chunks_exact_mut(block),
        }
    }
}

/// Decodes the SIGNAL field from the mother-code stream filled through
/// [`DecodeScratch::mother_stream`] at `R6`, with zero steady-state
/// allocation.
pub fn decode_signal_with(scratch: &mut DecodeScratch) -> Option<SignalField> {
    if !scratch
        .viterbi
        .decode_terminated_into(&scratch.mother, &mut scratch.bits)
    {
        return None;
    }
    SignalField::from_bits(&scratch.bits)
}

/// The DATA-field bit pipeline of one frame, transmit side, one bit per
/// `u8` through every stage.
///
/// Returns constellation points grouped per OFDM symbol. `psdu` is the MAC
/// frame (the PHY does not add a CRC here; the MAC/[`crate::tx`] helpers do).
/// The reference [`encode_data_with`] is tested against; no production
/// path calls it.
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

/// Reusable scratch for the transmit-side bit pipelines: the frame's
/// packed data bits and rate-1/2 mother-code stream, the per-rate gather
/// tables and the constellation tables, so [`encode_signal_with`] and
/// [`encode_data_with`] allocate nothing once warm (workspaces embed one;
/// see [`crate::workspace::TxWorkspace`]).
///
/// A frame is coded in one pass per stage: the SERVICE + PSDU bytes are
/// scrambled a byte at a time from the constant PRBS, the convolutional
/// code runs four input bits per table lookup into the mother-code
/// stream, and [`CodedSymbols::points`] gathers each carrier's bits
/// straight from that stream — through the receiver's placement table for
/// the rate, read as a gather (interleaved position `carrier·bps + bit` →
/// the mother-code bit it carries) — and looks its point up in a table
/// that [`modulation::map_symbol`] built. Puncturing and interleaving are
/// that table; no punctured or interleaved bit vector is formed.
#[derive(Debug, Clone, Default)]
pub struct EncodeScratch {
    /// The frame's scrambled data bits, packed LSB first.
    data: Vec<u8>,
    /// The frame's mother-code stream, one coded bit per `u8`.
    mother: Vec<u8>,
    /// Gather tables built so far (the receive side's placement tables).
    placements: Placements,
    /// Per modulation, the point of each `bps`-bit label (first bit most
    /// significant), built on first use.
    points: [Vec<Complex64>; 4],
}

/// A frame's coded OFDM symbols, held in an [`EncodeScratch`] and read
/// out symbol by symbol as constellation points.
#[derive(Debug, Clone, Copy)]
pub struct CodedSymbols<'a> {
    mother: &'a [u8],
    /// Per interleaved position, its bit's offset in the symbol's block.
    place: &'a [u32],
    /// The constellation point of each label.
    points: &'a [Complex64],
    bps: usize,
    /// Mother-code bits per OFDM symbol (`2·N_DBPS`).
    block: usize,
    n_syms: usize,
}

impl CodedSymbols<'_> {
    /// Number of OFDM symbols.
    pub fn len(&self) -> usize {
        self.n_syms
    }

    /// Whether there are no symbols (never, for a coded field).
    pub fn is_empty(&self) -> bool {
        self.n_syms == 0
    }

    /// The constellation points of symbol `s`, one per data carrier in
    /// the order of `params.data_carriers`: the points [`encode_data`] /
    /// [`encode_signal`] return for it, bit for bit.
    ///
    /// # Panics
    /// Panics if `s >= self.len()`.
    pub fn points(&self, s: usize) -> impl ExactSizeIterator<Item = Complex64> + '_ {
        assert!(s < self.n_syms, "symbol {s} of {}", self.n_syms);
        let block = &self.mother[s * self.block..(s + 1) * self.block];
        (0..self.place.len() / self.bps).map(move |j| {
            self.points[match self.bps {
                1 => label::<1>(block, &self.place[j..]),
                2 => label::<2>(block, &self.place[2 * j..]),
                4 => label::<4>(block, &self.place[4 * j..]),
                _ => label::<6>(block, &self.place[6 * j..]),
            }]
        })
    }
}

/// The label of the carrier whose bits sit at `place[..B]` in `block`,
/// its first bit most significant.
#[inline(always)]
fn label<const B: usize>(block: &[u8], place: &[u32]) -> usize {
    place[..B]
        .iter()
        .fold(0, |label, &p| (label << 1) | block[p as usize] as usize)
}

impl EncodeScratch {
    /// Creates an empty scratch (buffers and tables grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Codes the packed bits in `self.data` (zero-padded here to
    /// `n_syms` symbols at `rate`) and returns the symbols' view.
    fn code(&mut self, params: &OfdmParams, rate: RateId, n_syms: usize) -> CodedSymbols<'_> {
        let dbps = params.data_bits_per_symbol(rate);
        self.data.resize((n_syms * dbps).div_ceil(8), 0);
        convcode::encode_half_bytes(&self.data, &mut self.mother);
        let m = rate.modulation();
        let points = &mut self.points[m.index()];
        if points.is_empty() {
            let bps = m.bits_per_symbol();
            *points = (0..1usize << bps)
                .map(|v| {
                    let bits: Vec<u8> = (0..bps).map(|b| (v >> (bps - 1 - b)) as u8 & 1).collect();
                    modulation::map_symbol(m, &bits)
                })
                .collect();
        }
        CodedSymbols {
            mother: &self.mother,
            place: self.placements.get(params, rate),
            points: &self.points[m.index()],
            bps: m.bits_per_symbol(),
            block: 2 * dbps,
            n_syms,
        }
    }
}

/// [`encode_signal`] through a reusable [`EncodeScratch`]: the SIGNAL
/// word and its tail at rate 1/2, BPSK, through `R6`'s table. Bit-identical
/// to the reference.
pub fn encode_signal_with<'a>(
    params: &OfdmParams,
    sig: &SignalField,
    scratch: &'a mut EncodeScratch,
) -> CodedSymbols<'a> {
    scratch.data.clear();
    scratch
        .data
        .extend_from_slice(&sig.air_word().to_le_bytes()[..3]);
    scratch.code(params, RateId::R6, n_signal_symbols(params))
}

/// [`encode_data`] through a reusable [`EncodeScratch`]: SERVICE + PSDU
/// scrambled, the tail and pad zero, coded, punctured, interleaved and
/// mapped as the reference does, bit for bit.
pub fn encode_data_with<'a>(
    params: &OfdmParams,
    psdu: &[u8],
    rate: RateId,
    scratch: &'a mut EncodeScratch,
) -> CodedSymbols<'a> {
    scratch.data.clear();
    scratch.data.extend_from_slice(&[0, 0]); // SERVICE
    scratch.data.extend_from_slice(psdu);
    Scrambler::new(DEFAULT_SEED).scramble_bytes(&mut scratch.data);
    // `code` pads with zero bytes: the tail and pad are not scrambled.
    scratch.code(params, rate, n_data_symbols(params, psdu.len(), rate))
}

/// Number of DATA OFDM symbols for a PSDU of `len` bytes at `rate`.
pub fn n_data_symbols(params: &OfdmParams, len: usize, rate: RateId) -> usize {
    (16 + len * 8 + TAIL_BITS).div_ceil(params.data_bits_per_symbol(rate))
}

/// Receive side of the DATA pipeline: Viterbi-decodes the mother-code
/// stream filled through [`DecodeScratch::mother_stream`] at the frame's
/// rate, descrambles, and returns the PSDU bytes (length from the SIGNAL
/// field). Runs through caller-owned scratch, with zero steady-state
/// allocation beyond the returned PSDU bytes.
pub fn decode_data_with(scratch: &mut DecodeScratch, psdu_len: usize) -> Option<Vec<u8>> {
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

    /// Opens `scratch`'s stream for `llrs.len()` symbols at `rate` and
    /// places each symbol's LLRs (demapper order) through the table.
    fn place_llrs(
        params: &OfdmParams,
        rate: RateId,
        llrs: &[Vec<f64>],
        scratch: &mut DecodeScratch,
    ) {
        let stream = scratch.mother_stream(params, rate, llrs.len());
        for (sym, block) in llrs.iter().zip(stream.blocks) {
            assert_eq!(sym.len(), stream.place.len());
            for (&p, &l) in stream.place.iter().zip(sym) {
                block[p as usize] = l;
            }
        }
    }

    /// Per-symbol LLRs through [`decode_data_with`].
    fn decode_llrs(
        params: &OfdmParams,
        llrs: &[Vec<f64>],
        rate: RateId,
        len: usize,
    ) -> Option<Vec<u8>> {
        let mut scratch = DecodeScratch::new();
        place_llrs(params, rate, llrs, &mut scratch);
        decode_data_with(&mut scratch, len)
    }

    #[test]
    fn placement_matches_deinterleave_then_depuncture() {
        // For every rate on both numerologies, the placement table puts
        // each LLR where de-interleaving each symbol and de-puncturing the
        // frame puts it, and leaves every punctured position a zero
        // erasure — through a scratch reused across numerologies and rates.
        let mut rng = StdRng::seed_from_u64(13);
        let mut scratch = DecodeScratch::new();
        for params in [
            OfdmParams::dot11a(),
            OfdmParams::wiglan(),
            OfdmParams::dot11a(),
        ] {
            for rate in RateId::ALL {
                let il = Interleaver::new(&params, rate.modulation());
                let n_syms = 3;
                let llrs: Vec<Vec<f64>> = (0..n_syms)
                    .map(|_| {
                        (0..il.block_len())
                            .map(|_| rng.gen_range(0.5..9.0))
                            .collect()
                    })
                    .collect();
                let mut punctured = Vec::new();
                for sym in &llrs {
                    il.deinterleave_llrs_append(sym, &mut punctured);
                }
                let mother_len = n_syms * 2 * params.data_bits_per_symbol(rate);
                let mut want = Vec::new();
                convcode::depuncture_llr_into(&punctured, rate.code_rate(), mother_len, &mut want);
                place_llrs(&params, rate, &llrs, &mut scratch);
                let got: Vec<u64> = scratch.mother.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{} {rate:?}", params.name);
            }
        }
    }

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
            let mut scratch = DecodeScratch::new();
            place_llrs(&params, RateId::R6, &llrs, &mut scratch);
            assert_eq!(
                decode_signal_with(&mut scratch),
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
            let decoded = decode_llrs(&params, &llrs, rate, psdu.len());
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
                decode_llrs(&params, &llrs, rate, psdu.len()).as_deref(),
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
            decode_llrs(&params, &llrs, RateId::R6, 0).as_deref(),
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
