//! Soft-decision Viterbi decoder for the K=7 convolutional code.
//!
//! Works on log-likelihood ratios with the convention `LLR > 0 ⇒ bit 0 more
//! likely` (so an erasure from depuncturing is exactly `0.0`). The decoder
//! assumes a terminated trellis (encoder flushed to state 0 with
//! [`crate::convcode::TAIL_BITS`] zeros) and performs full traceback, which
//! is fine for packet-sized messages.
//!
//! Viterbi decoding is the largest single stage of the benchmark's
//! receive chain (the `rx` workload: all rates, 14–1500 B frames): 24–28 %
//! of its time (stage timers, three runs on a 2-core x86-64 host, avx2
//! tier). So the add-compare-select is organised for throughput while
//! staying bit-identical to the straightforward reference recursion
//! ([`decode_terminated_reference`], kept as the differential-test oracle):
//!
//! * **Butterfly order.** Next-states are visited directly: state `ns` has
//!   predecessors `2·(ns&31)` and `2·(ns&31)+1` and input `ns>>5`. The
//!   reference scans `(state, input)` ascending with a strict `>` update, so
//!   ties go to the even predecessor — the butterfly replicates that by
//!   taking the odd candidate only on strictly greater metric.
//! * **Batched branch metrics.** Both generators tap the newest register
//!   bit, so `branch(s, 1) = −branch(s, 0)` exactly (IEEE negation is exact
//!   and `m + (−b) ≡ m − b`), and the per-state metric is a ±1.0-weighted
//!   sum `σ₀·l0 + σ₁·l1` with constant sign tables — the whole step is 32
//!   butterfly lanes of identical arithmetic, dispatched through
//!   [`ssync_dsp::simd`] lanes (or the scalar twin without the `simd`
//!   feature; both paths compute the same bits).
//! * **Ping-pong metrics.** Two path-metric buffers alternate as source
//!   and destination, so a step never copies a metric array.
//! * **Bit-parallel survivors.** A survivor decision is one bit
//!   (even/odd predecessor), so a whole step packs into a single `u64`
//!   instead of 64 `(state, input)` records — 16× less survivor memory and
//!   a pointer-free traceback `state ← 2·(state&31) + bit`.
//!
//! Unreachable states carry `−∞` metrics through the same arithmetic; the
//! traceback never visits one (state 0 is always reachable via the all-zeros
//! path, and every finite-metric state has a finite-metric predecessor), so
//! survivor bits recorded for unreachable states are dead data and the
//! decoded output is bit-identical to the reference.

use crate::convcode::{G0, G1, N_STATES};
use ssync_dsp::simd::{F64x4, LANES, SIMD_ENABLED};

const HALF: usize = N_STATES / 2;
const NEG_INF: f64 = f64::NEG_INFINITY;

/// ±1.0 sign of an LLR's contribution to the input-0 branch metric of
/// predecessor `2·lo + odd`: +1.0 where the expected coded bit is 0.
const fn branch_signs(odd: bool, g: u8) -> [f64; HALF] {
    let mut t = [0.0; HALF];
    let mut lo = 0;
    while lo < HALF {
        let state = 2 * lo + if odd { 1 } else { 0 };
        t[lo] = if ((state as u8) & g).count_ones() % 2 == 0 {
            1.0
        } else {
            -1.0
        };
        lo += 1;
    }
    t
}

// Sign tables in butterfly (deinterleaved-predecessor) order, for the EVEN
// predecessor `2·lo`. The odd predecessor's tables are not needed: both
// generators also tap the oldest register bit (bit 0 of the state), so
// flipping even→odd predecessor flips both coded bits and
// `branch(2·lo+1, 0) = −branch(2·lo, 0)` exactly — the whole butterfly runs
// on ±be (IEEE negation is exact and `m + (−b) ≡ m − b`).
const SE0: [f64; HALF] = branch_signs(false, G0);
const SE1: [f64; HALF] = branch_signs(false, G1);

/// Compile-time proof of the `bo = −be` identity used by the step kernels.
const _: () = {
    assert!(G0 & 1 == 1 && G1 & 1 == 1, "both generators must tap bit 0");
    let so0 = branch_signs(true, G0);
    let so1 = branch_signs(true, G1);
    let mut lo = 0;
    while lo < HALF {
        assert!(so0[lo] == -SE0[lo] && so1[lo] == -SE1[lo]);
        lo += 1;
    }
};

/// Per-butterfly index into the per-step branch-value table
/// `[l0+l1, l0−l1, −(l0−l1), −(l0+l1)]`. The sign-weighted sum
/// `σ₀·l0 + σ₁·l1` can only take those four values, and each equals the
/// directly-computed sum bit-for-bit: multiplying by ±1.0 is exact, and IEEE
/// rounding commutes with negation, so e.g. `(−l0) + l1 ≡ −(l0 − l1)`.
const BE_IDX: [usize; HALF] = {
    let mut t = [0usize; HALF];
    let mut lo = 0;
    while lo < HALF {
        t[lo] = match (SE0[lo] < 0.0, SE1[lo] < 0.0) {
            (false, false) => 0,
            (false, true) => 1,
            (true, false) => 2,
            (true, true) => 3,
        };
        lo += 1;
    }
    t
};

/// One trellis column of path metrics, indexed by state.
type Metrics = [f64; N_STATES];

/// A reusable planned decoder: two path-metric buffers plus the
/// bit-parallel survivor store, so steady-state decoding (one frame after
/// another through an `RxWorkspace`) allocates nothing.
///
/// The two buffers ping-pong: each step reads one and writes every state
/// of the other, then the two swap roles by swapping references, so no
/// step copies a metric array.
#[derive(Debug, Clone)]
pub struct ViterbiDecoder {
    metrics: [Metrics; 2],
    /// One survivor word per trellis step; bit `ns` set ⇒ state `ns` took
    /// its odd predecessor.
    survivors: Vec<u64>,
}

impl Default for ViterbiDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ViterbiDecoder {
    /// Creates a decoder (survivor capacity grows on first use).
    pub fn new() -> Self {
        ViterbiDecoder {
            metrics: [[NEG_INF; N_STATES]; 2],
            survivors: Vec::new(),
        }
    }

    /// One add-compare-select step from `metric` into `next`, scalar
    /// kernel. Returns the survivor word.
    #[inline]
    fn step_scalar(metric: &Metrics, next: &mut Metrics, l0: f64, l1: f64) -> u64 {
        let s = l0 + l1;
        let t = l0 - l1;
        let vals = [s, t, -t, -s];
        let mut word = 0u64;
        for lo in 0..HALF {
            let me = metric[2 * lo];
            let mo = metric[2 * lo + 1];
            let be = vals[BE_IDX[lo]];
            // Input 0 target: ns = lo (odd predecessor's metric is −be).
            let c0 = me + be;
            let c1 = mo - be;
            let odd = c1 > c0;
            next[lo] = if odd { c1 } else { c0 };
            word |= (odd as u64) << lo;
            // Input 1 target: ns = lo + 32, branch metric negated.
            let d0 = me - be;
            let d1 = mo + be;
            let odd1 = d1 > d0;
            next[lo + HALF] = if odd1 { d1 } else { d0 };
            word |= (odd1 as u64) << (lo + HALF);
        }
        word
    }

    /// One add-compare-select step, four butterflies per lane group. Each
    /// lane runs exactly the scalar kernel's expressions, so the survivor
    /// word and metrics are bit-identical to [`ViterbiDecoder::step_scalar`].
    #[inline]
    fn step_lanes(metric: &Metrics, next: &mut Metrics, l0: f64, l1: f64) -> u64 {
        let s = l0 + l1;
        let t = l0 - l1;
        let vals = [s, t, -t, -s];
        let mut bes = [0.0f64; HALF];
        for lo in 0..HALF {
            bes[lo] = vals[BE_IDX[lo]];
        }
        let mut word = 0u64;
        let mut lo = 0usize;
        while lo < HALF {
            let me = F64x4([
                metric[2 * lo],
                metric[2 * lo + 2],
                metric[2 * lo + 4],
                metric[2 * lo + 6],
            ]);
            let mo = F64x4([
                metric[2 * lo + 1],
                metric[2 * lo + 3],
                metric[2 * lo + 5],
                metric[2 * lo + 7],
            ]);
            let be = F64x4::load(&bes, lo);
            let c0 = me.add(be);
            let c1 = mo.sub(be);
            let odd = c1.gt(c0);
            F64x4::select(odd, c1, c0).store(next, lo);
            let d0 = me.sub(be);
            let d1 = mo.add(be);
            let odd1 = d1.gt(d0);
            F64x4::select(odd1, d1, d0).store(next, lo + HALF);
            for j in 0..LANES {
                word |= (odd[j] as u64) << (lo + j);
                word |= (odd1[j] as u64) << (lo + j + HALF);
            }
            lo += LANES;
        }
        word
    }

    /// Runs every trellis step from `self.metrics[0]`, pushing one
    /// survivor word per step.
    ///
    /// The `simd` build adds a third tier above the portable lanes: on
    /// x86-64 hosts whose CPU reports AVX2 at runtime, the step runs through
    /// explicit 256-bit intrinsics ([`ViterbiDecoder::step_avx2`]). Every
    /// instruction it uses is the same IEEE-754 operation the portable
    /// kernels perform (`vaddpd`/`vmulpd`/`vsubpd`, an ordered `>` compare,
    /// a select), and nothing fuses a multiply-add, so all three tiers are
    /// bit-identical — the in-module differential tests drive them over the
    /// same metric evolutions and compare exact bits.
    #[inline]
    fn run_steps(&mut self, llrs: &[f64]) {
        #[cfg(target_arch = "x86_64")]
        if SIMD_ENABLED && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { self.run_steps_avx2(llrs) };
            return;
        }
        let [a, b] = &mut self.metrics;
        let (mut cur, mut next) = (a, b);
        for pair in llrs.chunks_exact(2) {
            let word = if SIMD_ENABLED {
                Self::step_lanes(cur, next, pair[0], pair[1])
            } else {
                Self::step_scalar(cur, next, pair[0], pair[1])
            };
            self.survivors.push(word);
            std::mem::swap(&mut cur, &mut next);
        }
    }

    /// The step loop over [`ViterbiDecoder::step_avx2`].
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_steps_avx2(&mut self, llrs: &[f64]) {
        let [a, b] = &mut self.metrics;
        let (mut cur, mut next) = (a, b);
        for pair in llrs.chunks_exact(2) {
            // SAFETY: caller guarantees AVX2.
            let word = unsafe { Self::step_avx2(cur, next, pair[0], pair[1]) };
            self.survivors.push(word);
            std::mem::swap(&mut cur, &mut next);
        }
    }

    /// One add-compare-select step as eight 256-bit butterfly groups.
    ///
    /// Lane-for-lane the arithmetic is [`ViterbiDecoder::step_scalar`]'s:
    /// the branch metric is the ±1.0-weighted sum (`vmulpd`+`vaddpd` on the
    /// sign tables — bit-equal to the scalar value-table lookup, see
    /// [`BE_IDX`]), the compare is the ordered strict `>` (`_CMP_GT_OQ`,
    /// false on ties like the scalar `>`), `vblendvpd` is the two-way
    /// select, and `vmovmskpd` packs the four decisions straight into the
    /// survivor word.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn step_avx2(metric: &Metrics, next: &mut Metrics, l0: f64, l1: f64) -> u64 {
        use std::arch::x86_64::*;
        let vl0 = _mm256_set1_pd(l0);
        let vl1 = _mm256_set1_pd(l1);
        let mut word = 0u64;
        let mut lo = 0usize;
        while lo < HALF {
            // SAFETY: lo ≤ HALF−4, so every load/store below stays inside
            // the fixed-size metric/next/sign-table arrays.
            unsafe {
                let a = _mm256_loadu_pd(metric.as_ptr().add(2 * lo));
                let b = _mm256_loadu_pd(metric.as_ptr().add(2 * lo + 4));
                // Deinterleave four (even, odd) predecessor metric pairs.
                let t0 = _mm256_unpacklo_pd(a, b); // m0 m4 m2 m6
                let t1 = _mm256_unpackhi_pd(a, b); // m1 m5 m3 m7
                let me = _mm256_permute4x64_pd::<0b11011000>(t0); // m0 m2 m4 m6
                let mo = _mm256_permute4x64_pd::<0b11011000>(t1); // m1 m3 m5 m7
                let be = _mm256_add_pd(
                    _mm256_mul_pd(_mm256_loadu_pd(SE0.as_ptr().add(lo)), vl0),
                    _mm256_mul_pd(_mm256_loadu_pd(SE1.as_ptr().add(lo)), vl1),
                );
                let c0 = _mm256_add_pd(me, be);
                let c1 = _mm256_sub_pd(mo, be);
                let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(c1, c0);
                let next = next.as_mut_ptr();
                _mm256_storeu_pd(next.add(lo), _mm256_blendv_pd(c0, c1, gt));
                word |= (_mm256_movemask_pd(gt) as u64) << lo;
                let d0 = _mm256_sub_pd(me, be);
                let d1 = _mm256_add_pd(mo, be);
                let gt1 = _mm256_cmp_pd::<_CMP_GT_OQ>(d1, d0);
                _mm256_storeu_pd(next.add(lo + HALF), _mm256_blendv_pd(d0, d1, gt1));
                word |= (_mm256_movemask_pd(gt1) as u64) << (lo + HALF);
            }
            lo += 4;
        }
        word
    }

    /// Decodes a terminated mother-code LLR stream (`2` LLRs per trellis
    /// step, erasures as `0.0`) into `bits` (cleared and refilled), the
    /// information bits *including* the tail — callers strip the final
    /// [`crate::convcode::TAIL_BITS`]. Returns `false` for empty or
    /// odd-length input, leaving `bits` empty.
    pub fn decode_terminated_into(&mut self, llrs: &[f64], bits: &mut Vec<u8>) -> bool {
        bits.clear();
        if llrs.is_empty() || llrs.len() % 2 != 0 {
            return false;
        }
        let n_steps = llrs.len() / 2;
        // The first step overwrites every state of the other buffer, so
        // only the starting one needs resetting.
        self.metrics[0] = [NEG_INF; N_STATES];
        self.metrics[0][0] = 0.0; // encoder starts in state 0
        self.survivors.clear();
        self.survivors.reserve(n_steps);
        self.run_steps(llrs);
        bits.resize(n_steps, 0);
        let mut state = 0usize; // terminated trellis ends in state 0
        for step in (0..n_steps).rev() {
            bits[step] = (state >> 5) as u8;
            let odd = ((self.survivors[step] >> state) & 1) as usize;
            state = 2 * (state & (HALF - 1)) + odd;
        }
        true
    }
}

/// The pre-optimisation reference decoder: full `(predecessor, input)`
/// survivor records and a `(state, input)`-order scan. Kept as the oracle
/// the butterfly/bit-parallel decoder is differentially tested against.
#[doc(hidden)]
pub fn decode_terminated_reference(llrs: &[f64]) -> Option<Vec<u8>> {
    #[inline]
    fn parity(x: u8) -> u8 {
        (x.count_ones() & 1) as u8
    }
    fn next_state(state: usize, input: u8) -> usize {
        ((state >> 1) | ((input as usize) << 5)) & (N_STATES - 1)
    }
    if llrs.is_empty() || llrs.len() % 2 != 0 {
        return None;
    }
    let mut outputs = [[(0u8, 0u8); 2]; N_STATES];
    for (state, entry) in outputs.iter_mut().enumerate() {
        for input in 0..2u8 {
            let reg = (input << 6) | state as u8;
            entry[input as usize] = (parity(reg & G0), parity(reg & G1));
        }
    }
    let n_steps = llrs.len() / 2;
    let mut metric = vec![NEG_INF; N_STATES];
    metric[0] = 0.0;
    let mut survivors: Vec<[u16; N_STATES]> = Vec::with_capacity(n_steps);
    let mut next = vec![NEG_INF; N_STATES];
    for step in 0..n_steps {
        let l0 = llrs[2 * step];
        let l1 = llrs[2 * step + 1];
        next.iter_mut().for_each(|m| *m = NEG_INF);
        let mut surv = [0u16; N_STATES];
        for state in 0..N_STATES {
            let m = metric[state];
            if m == NEG_INF {
                continue;
            }
            for input in 0..2u8 {
                let (c0, c1) = outputs[state][input as usize];
                // Correlation metric: positive LLR favours coded bit 0.
                let branch = (if c0 == 0 { l0 } else { -l0 }) + (if c1 == 0 { l1 } else { -l1 });
                let ns = next_state(state, input);
                let cand = m + branch;
                if cand > next[ns] {
                    next[ns] = cand;
                    surv[ns] = ((state as u16) << 1) | input as u16;
                }
            }
        }
        survivors.push(surv);
        std::mem::swap(&mut metric, &mut next);
    }
    let mut state = 0usize;
    let mut bits = vec![0u8; n_steps];
    for step in (0..n_steps).rev() {
        let packed = survivors[step][state];
        bits[step] = (packed & 1) as u8;
        state = (packed >> 1) as usize;
    }
    Some(bits)
}

/// Converts hard bits to strong LLRs (bit 0 → +1.0, bit 1 → −1.0); useful for
/// tests and hard-decision paths.
pub fn llrs_from_bits(bits: &[u8]) -> Vec<f64> {
    bits.iter()
        .map(|b| if *b == 0 { 1.0 } else { -1.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convcode::{encode_half, TAIL_BITS};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One decode through a fresh decoder.
    fn decode_fresh(llrs: &[f64]) -> Option<Vec<u8>> {
        let mut bits = Vec::new();
        ViterbiDecoder::new()
            .decode_terminated_into(llrs, &mut bits)
            .then_some(bits)
    }

    fn encode_with_tail(info: &[u8]) -> Vec<u8> {
        let mut bits = info.to_vec();
        bits.extend(std::iter::repeat_n(0, TAIL_BITS));
        encode_half(&bits)
    }

    #[test]
    fn clean_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        for len in [1usize, 8, 24, 100, 1000] {
            let info: Vec<u8> = (0..len).map(|_| rng.gen_range(0..2u8)).collect();
            let coded = encode_with_tail(&info);
            let decoded = decode_fresh(&llrs_from_bits(&coded)).unwrap();
            assert_eq!(&decoded[..len], &info[..], "len {len}");
            assert!(decoded[len..].iter().all(|b| *b == 0), "tail not zero");
        }
    }

    #[test]
    fn corrects_scattered_hard_errors() {
        let mut rng = StdRng::seed_from_u64(2);
        let info: Vec<u8> = (0..200).map(|_| rng.gen_range(0..2u8)).collect();
        let mut coded = encode_with_tail(&info);
        // Flip ~4% of coded bits, spaced out (within free-distance limits).
        let mut i = 5;
        while i < coded.len() {
            coded[i] ^= 1;
            i += 25;
        }
        let decoded = decode_fresh(&llrs_from_bits(&coded)).unwrap();
        assert_eq!(&decoded[..200], &info[..]);
    }

    #[test]
    fn erasures_are_neutral() {
        let mut rng = StdRng::seed_from_u64(3);
        let info: Vec<u8> = (0..100).map(|_| rng.gen_range(0..2u8)).collect();
        let coded = encode_with_tail(&info);
        let mut llrs = llrs_from_bits(&coded);
        // Erase every 4th LLR entirely (as 3/4 puncturing would).
        for l in llrs.iter_mut().step_by(4) {
            *l = 0.0;
        }
        let decoded = decode_fresh(&llrs).unwrap();
        assert_eq!(&decoded[..100], &info[..]);
    }

    #[test]
    fn gaussian_noise_decoding() {
        // End-to-end BPSK-over-AWGN sanity: at Eb/N0 ≈ 6 dB, rate-1/2 coded
        // BPSK should decode error-free for a short packet.
        let mut rng = StdRng::seed_from_u64(4);
        let info: Vec<u8> = (0..500).map(|_| rng.gen_range(0..2u8)).collect();
        let coded = encode_with_tail(&info);
        let sigma = 0.5f64;
        let gauss = ssync_dsp::rng::Gaussian::standard();
        let llrs: Vec<f64> = coded
            .iter()
            .map(|b| {
                let tx = if *b == 0 { 1.0 } else { -1.0 };
                let noisy = tx + sigma * gauss.sample(&mut rng);
                2.0 * noisy / (sigma * sigma)
            })
            .collect();
        let decoded = decode_fresh(&llrs).unwrap();
        assert_eq!(&decoded[..500], &info[..]);
    }

    #[test]
    fn all_zero_and_all_one_messages() {
        for bit in [0u8, 1u8] {
            let info = vec![bit; 64];
            let coded = encode_with_tail(&info);
            let decoded = decode_fresh(&llrs_from_bits(&coded)).unwrap();
            assert_eq!(&decoded[..64], &info[..]);
        }
    }

    #[test]
    fn malformed_inputs() {
        assert!(decode_fresh(&[]).is_none());
        assert!(decode_fresh(&[1.0]).is_none());
        assert!(decode_fresh(&[1.0, 1.0, 1.0]).is_none());
        let mut dec = ViterbiDecoder::new();
        let mut bits = vec![7u8; 3];
        assert!(!dec.decode_terminated_into(&[], &mut bits));
        assert!(bits.is_empty());
    }

    #[test]
    fn matches_reference_on_noisy_llrs() {
        // The restructuring contract: butterfly order, batched ±branch
        // metrics, and bit-parallel survivors reproduce the reference
        // decoder's output exactly, including on noise too strong to decode.
        // One decoder serves every trial, and the step counts alternate
        // odd and even, so the ping-pong ends on either metric buffer.
        let mut rng = StdRng::seed_from_u64(5);
        let mut dec = ViterbiDecoder::new();
        let mut bits = Vec::new();
        for trial in 0..40 {
            let n_steps = 2 * rng.gen_range(1..100) + trial % 2;
            let llrs: Vec<f64> = (0..2 * n_steps).map(|_| rng.gen_range(-4.0..4.0)).collect();
            let reference = decode_terminated_reference(&llrs).unwrap();
            assert!(
                dec.decode_terminated_into(&llrs, &mut bits),
                "trial {trial}"
            );
            assert_eq!(bits, reference, "trial {trial}");
            assert_eq!(decode_fresh(&llrs).unwrap(), reference);
        }
    }

    #[test]
    fn matches_reference_with_erasures_and_ties() {
        // All-zero LLRs make every branch metric tie: the even-predecessor
        // tie-break must match the reference's ascending-scan behaviour.
        let mut dec = ViterbiDecoder::new();
        let mut bits = Vec::new();
        let zeros = vec![0.0f64; 64];
        assert!(dec.decode_terminated_into(&zeros, &mut bits));
        assert_eq!(bits, decode_terminated_reference(&zeros).unwrap());
        // Half-erased structured stream.
        let mut rng = StdRng::seed_from_u64(6);
        let info: Vec<u8> = (0..150).map(|_| rng.gen_range(0..2u8)).collect();
        let coded = encode_with_tail(&info);
        let mut llrs = llrs_from_bits(&coded);
        for l in llrs.iter_mut().step_by(3) {
            *l = 0.0;
        }
        assert!(dec.decode_terminated_into(&llrs, &mut bits));
        assert_eq!(bits, decode_terminated_reference(&llrs).unwrap());
    }

    #[test]
    fn lane_and_scalar_steps_bitwise_match() {
        // Drive every compiled kernel over the same metric evolution and
        // compare survivor words and metric arrays exactly. Each kernel
        // ping-pongs its own pair of buffers, as the decoder does.
        let mut rng = StdRng::seed_from_u64(7);
        let mut start = [NEG_INF; N_STATES];
        start[0] = 0.0;
        let mut a = [start, [NEG_INF; N_STATES]];
        let mut b = a;
        #[cfg(target_arch = "x86_64")]
        let (avx2, mut c) = (std::arch::is_x86_feature_detected!("avx2"), a);
        for step in 0..200 {
            let l0 = rng.gen_range(-3.0..3.0);
            let l1 = rng.gen_range(-3.0..3.0);
            let (src, dst) = (step % 2, 1 - step % 2);
            let [a0, a1] = &mut a;
            let [b0, b1] = &mut b;
            let (wa, wb) = if src == 0 {
                (
                    ViterbiDecoder::step_lanes(a0, a1, l0, l1),
                    ViterbiDecoder::step_scalar(b0, b1, l0, l1),
                )
            } else {
                (
                    ViterbiDecoder::step_lanes(a1, a0, l0, l1),
                    ViterbiDecoder::step_scalar(b1, b0, l0, l1),
                )
            };
            assert_eq!(wa, wb, "survivor word, step {step}");
            for s in 0..N_STATES {
                assert_eq!(
                    a[dst][s].to_bits(),
                    b[dst][s].to_bits(),
                    "metric {s}, step {step}"
                );
            }
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                let [c0, c1] = &mut c;
                // SAFETY: AVX2 detected above.
                let wc = unsafe {
                    if src == 0 {
                        ViterbiDecoder::step_avx2(c0, c1, l0, l1)
                    } else {
                        ViterbiDecoder::step_avx2(c1, c0, l0, l1)
                    }
                };
                assert_eq!(wc, wb, "avx2 survivor word, step {step}");
                for s in 0..N_STATES {
                    assert_eq!(
                        c[dst][s].to_bits(),
                        b[dst][s].to_bits(),
                        "avx2 metric {s}, step {step}"
                    );
                }
            }
        }
    }

    #[test]
    #[ignore] // timing probe: cargo test -p ssync_phy --release profile_step_kernels -- --ignored --nocapture
    fn profile_step_kernels() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut metrics = [[NEG_INF; N_STATES]; 2];
        metrics[0][0] = 0.0;
        let steps: Vec<(f64, f64)> = (0..12_000)
            .map(|_| (rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
            .collect();
        type Step = fn(&Metrics, &mut Metrics, f64, f64) -> u64;
        let mut time = |step: Step| {
            let t0 = std::time::Instant::now();
            let [a, b] = &mut metrics;
            let (mut cur, mut next) = (a, b);
            for &(l0, l1) in &steps {
                std::hint::black_box(step(cur, next, l0, l1));
                std::mem::swap(&mut cur, &mut next);
            }
            t0.elapsed()
        };
        for rep in 0..3 {
            let scalar = time(ViterbiDecoder::step_scalar);
            let lanes = time(ViterbiDecoder::step_lanes);
            #[cfg(target_arch = "x86_64")]
            let avx2 = if std::arch::is_x86_feature_detected!("avx2") {
                let step: Step = |m, n, l0, l1| {
                    // SAFETY: AVX2 detected above.
                    unsafe { ViterbiDecoder::step_avx2(m, n, l0, l1) }
                };
                format!("{:?}", time(step))
            } else {
                "n/a".into()
            };
            #[cfg(not(target_arch = "x86_64"))]
            let avx2 = "n/a";
            println!("rep {rep}: scalar {scalar:?} lanes {lanes:?} avx2 {avx2}");
        }
    }

    #[test]
    fn decoder_reuse_is_stateless_across_calls() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut dec = ViterbiDecoder::new();
        let mut bits = Vec::new();
        for _ in 0..5 {
            let info: Vec<u8> = (0..80).map(|_| rng.gen_range(0..2u8)).collect();
            let coded = encode_with_tail(&info);
            let llrs = llrs_from_bits(&coded);
            assert!(dec.decode_terminated_into(&llrs, &mut bits));
            assert_eq!(bits, decode_terminated_reference(&llrs).unwrap());
        }
    }
}
