//! The 802.11 convolutional code: constraint length K=7, generators
//! g₀ = 133₈ and g₁ = 171₈, with the standard 2/3 and 3/4 puncturing
//! patterns.
//!
//! Encoding and puncturing live here; decoding is in [`crate::viterbi`].
//! Punctured positions are re-inserted at the decoder as zero-LLR erasures.

use crate::params::CodeRate;

/// Generator polynomials (taps over the 7-bit encoder register, MSB = oldest).
pub const G0: u8 = 0o133;
pub const G1: u8 = 0o171;

/// Number of trellis states (2^(K−1)).
pub const N_STATES: usize = 64;

/// Tail length appended to flush the encoder back to state zero.
pub const TAIL_BITS: usize = 6;

#[inline]
fn parity(x: u8) -> u8 {
    (x.count_ones() & 1) as u8
}

/// Encodes `bits` (0/1 values) at rate 1/2, producing `2·len` output bits in
/// the order (g0, g1) per input bit. The caller is responsible for appending
/// [`TAIL_BITS`] zero bits if a terminated trellis is wanted.
pub fn encode_half(bits: &[u8]) -> Vec<u8> {
    let mut state: u8 = 0; // 6 previous bits
    let mut out = Vec::new();
    for &b in bits {
        debug_assert!(b <= 1, "bits must be 0/1");
        let reg = (b << 6) | state; // current bit is the newest (MSB of the 7-bit window)
        out.push(parity(reg & G0));
        out.push(parity(reg & G1));
        state = ((state >> 1) | (b << 5)) & 0x3F;
    }
    out
}

/// The rate-1/2 outputs of four input bits from each encoder state:
/// entry `state << 4 | nibble` holds, from bit 0 up, the (g0, g1) pair of
/// the nibble's bit 0, then of its bit 1, 2 and 3 — [`encode_half`]'s
/// order.
const NIBBLE_OUT: [u8; N_STATES * 16] = {
    let mut t = [0u8; N_STATES * 16];
    let mut e = 0;
    while e < t.len() {
        let (mut state, nibble) = ((e >> 4) as u8, e as u8 & 15);
        let mut i = 0;
        while i < 4 {
            let b = (nibble >> i) & 1;
            let reg = (b << 6) | state;
            t[e] |= ((reg & G0).count_ones() as u8 & 1) << (2 * i);
            t[e] |= ((reg & G1).count_ones() as u8 & 1) << (2 * i + 1);
            state = ((state >> 1) | (b << 5)) & 0x3F;
            i += 1;
        }
        e += 1;
    }
    t
};

/// The eight bits of each byte, bit 0 first, one per `u8`.
const UNPACKED: [[u8; 8]; 256] = {
    let mut t = [[0u8; 8]; 256];
    let mut v = 0;
    while v < 256 {
        let mut k = 0;
        while k < 8 {
            t[v][k] = (v >> k) as u8 & 1;
            k += 1;
        }
        v += 1;
    }
    t
};

/// [`encode_half`] on a packed input, four input bits per table lookup:
/// bit `k` of `bytes[j]` is input bit `8j + k`, and `out` (cleared and
/// refilled) gets [`encode_half`]'s 16 coded bits per input byte, one per
/// `u8`. The encoder starts in state 0.
pub(crate) fn encode_half_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let mut state = 0usize;
    for &byte in bytes {
        for nibble in [byte & 15, byte >> 4] {
            out.extend_from_slice(&UNPACKED[NIBBLE_OUT[(state << 4) | nibble as usize] as usize]);
            // Four bits shifted in: the state's top two bits and the nibble.
            state = (state >> 4) | ((nibble as usize) << 2);
        }
    }
}

/// The puncturing pattern for a code rate: `true` = transmit, `false` = drop.
/// Patterns follow 802.11a §17.3.5.6 over the (A,B) interleaved stream.
pub fn puncture_pattern(rate: CodeRate) -> &'static [bool] {
    match rate {
        CodeRate::Half => &[true, true],
        // Period 4 over (A1 B1 A2 B2): transmit A1 B1 A2, drop B2.
        CodeRate::TwoThirds => &[true, true, true, false],
        // Period 6 over (A1 B1 A2 B2 A3 B3): transmit A1 B1 A2, drop B2, drop A3, transmit B3.
        CodeRate::ThreeQuarters => &[true, true, true, false, false, true],
    }
}

/// Punctures a rate-1/2 coded stream to the target rate.
pub fn puncture(coded: &[u8], rate: CodeRate) -> Vec<u8> {
    let pat = puncture_pattern(rate);
    coded
        .iter()
        .enumerate()
        .filter(|(i, _)| pat[i % pat.len()])
        .map(|(_, b)| *b)
        .collect()
}

/// Expands a punctured *LLR* stream back to the mother-code positions,
/// inserting `0.0` (erasure) where bits were dropped. `mother_len` is the
/// length of the original rate-1/2 stream; `out` is a caller-owned buffer
/// (cleared and refilled; capacity reused across calls). The reference
/// for the receive chain's placement table (see
/// [`crate::interleave::Interleaver::deinterleave_llrs_append`]).
///
/// # Panics
/// Panics if the punctured stream length does not match what the pattern
/// yields for `mother_len`.
pub fn depuncture_llr_into(llrs: &[f64], rate: CodeRate, mother_len: usize, out: &mut Vec<f64>) {
    let pat = puncture_pattern(rate);
    let kept = (0..mother_len).filter(|i| pat[i % pat.len()]).count();
    assert_eq!(
        llrs.len(),
        kept,
        "punctured stream length {} != expected {} for mother length {}",
        llrs.len(),
        kept,
        mother_len
    );
    out.clear();
    let mut src = llrs.iter();
    for i in 0..mother_len {
        if pat[i % pat.len()] {
            out.push(*src.next().expect("length checked above"));
        } else {
            out.push(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_known_impulse_response() {
        // A single 1 followed by zeros reads out the generator taps.
        let mut bits = vec![1u8];
        bits.extend(std::iter::repeat_n(0, 6));
        let coded = encode_half(&bits);
        // g0 = 133 octal = 1011011 binary; g1 = 171 octal = 1111001.
        // With our register convention (newest bit = MSB), the impulse
        // response reads the taps MSB-first.
        let g0_bits: Vec<u8> = coded.iter().step_by(2).copied().collect();
        let g1_bits: Vec<u8> = coded.iter().skip(1).step_by(2).copied().collect();
        assert_eq!(g0_bits, vec![1, 0, 1, 1, 0, 1, 1]);
        assert_eq!(g1_bits, vec![1, 1, 1, 1, 0, 0, 1]);
    }

    #[test]
    fn encoder_is_linear() {
        // Coding XOR of messages = XOR of codings (linear code).
        let a: Vec<u8> = (0..32).map(|i| (i % 3 == 0) as u8).collect();
        let b: Vec<u8> = (0..32).map(|i| (i % 5 == 1) as u8).collect();
        let xor: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let ca = encode_half(&a);
        let cb = encode_half(&b);
        let cx = encode_half(&xor);
        for i in 0..ca.len() {
            assert_eq!(cx[i], ca[i] ^ cb[i]);
        }
    }

    #[test]
    fn byte_encoder_matches_bit_encoder() {
        // Every state transition shows up in a long random stream; the
        // short lengths cover the first bytes from state 0.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for len in [0usize, 1, 2, 3, 17, 600] {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let bits: Vec<u8> = bytes
                .iter()
                .flat_map(|b| (0..8).map(move |k| (b >> k) & 1))
                .collect();
            let want = encode_half(&bits);
            let mut got = Vec::new();
            encode_half_bytes(&bytes, &mut got);
            assert_eq!(got, want, "len {len}");
        }
    }

    #[test]
    fn depuncture_restores_positions() {
        let coded: Vec<u8> = (0..24).map(|i| (i % 2) as u8).collect();
        let punct = puncture(&coded, CodeRate::ThreeQuarters);
        let llrs: Vec<f64> = punct
            .iter()
            .map(|b| if *b == 1 { -1.0 } else { 1.0 })
            .collect();
        let mut restored = Vec::new();
        depuncture_llr_into(&llrs, CodeRate::ThreeQuarters, 24, &mut restored);
        assert_eq!(restored.len(), 24);
        let pat = puncture_pattern(CodeRate::ThreeQuarters);
        let mut k = 0;
        for i in 0..24 {
            if pat[i % pat.len()] {
                assert_eq!(restored[i], llrs[k]);
                k += 1;
            } else {
                assert_eq!(restored[i], 0.0);
            }
        }
    }

    #[test]
    fn rate_half_puncture_is_identity() {
        let coded: Vec<u8> = (0..10).map(|i| (i % 2) as u8).collect();
        assert_eq!(puncture(&coded, CodeRate::Half), coded);
    }

    #[test]
    #[should_panic(expected = "punctured stream length")]
    fn depuncture_length_mismatch_panics() {
        depuncture_llr_into(&[1.0; 5], CodeRate::Half, 24, &mut Vec::new());
    }
}
