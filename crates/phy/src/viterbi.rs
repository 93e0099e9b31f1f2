//! Soft-decision Viterbi decoder for the K=7 convolutional code.
//!
//! Works on log-likelihood ratios with the convention `LLR > 0 ⇒ bit 0 more
//! likely` (so an erasure from depuncturing is exactly `0.0`). The decoder
//! assumes a terminated trellis (encoder flushed to state 0 with
//! [`crate::convcode::TAIL_BITS`] zeros) and performs full traceback, which
//! is fine for packet-sized messages.
//!
//! Viterbi decoding is the largest single stage of the benchmark's
//! receive chain (the `rx` workload: all rates, 14–1500 B frames). Timers
//! around the whole decode, traceback included, put it at 32–33 % of
//! `Receiver::receive_with`'s time with the alternating-layout AVX2 step
//! below, and at 22 % with the register-resident AVX-512 step (three 30 s
//! runs per build at seed 1 on a 2-core x86-64 host with AVX-512; the
//! mean receive fell from 148–164 µs to 122–127 µs). So the
//! add-compare-select is organised for throughput while staying
//! bit-identical to the straightforward reference recursion
//! ([`decode_terminated_reference`], kept as the differential-test
//! oracle). Four tiers run the same step, picked by [`tier`]: the scalar
//! kernel, the portable lanes, an AVX2 kernel and an AVX-512 kernel. They
//! share:
//!
//! * **Butterfly order.** Next-states are visited directly: state `ns` has
//!   predecessors `2·(ns&31)` and `2·(ns&31)+1` and input `ns>>5`. The
//!   reference scans `(state, input)` ascending with a strict `>` update, so
//!   ties go to the even predecessor — the butterfly replicates that by
//!   taking the odd candidate only on strictly greater metric.
//! * **Branch metrics from two vectors.** Both generators tap the newest
//!   and the oldest register bit, so the input-1 branch and the odd
//!   predecessor's branch are the input-0 branch of the even predecessor
//!   negated: each butterfly runs on one value `±be`. With `s = l0 + l1`
//!   and `t = l0 − l1`, the 32 values of a step, in groups of four
//!   butterflies, are `+A −A −A +A +B −B −B +B` with `A = [s, −t, s, −t]`
//!   and `B = [t, −s, t, −s]` (a compile-time assertion derives this from
//!   the generator taps). A negated group is never negated: IEEE `m + (−b)`
//!   is `m − b` by definition, so its input-0 candidates are the un-negated
//!   group's input-1 candidates, and it only exchanges its two targets.
//!   Against the reference's direct sum `(±l0) + (±l1)` these values differ
//!   only in the sign of an exact zero: for `l0 == l1` the reference forms
//!   `(−l0) + l1 = +0` where `−t = −(+0) = −0` (and likewise `−s` against
//!   `(−l0) + (−l1)` when `l0 == −l1`). That is harmless because a path
//!   metric is never `−0`: metrics start at `+0` or `−∞`, and a
//!   round-to-nearest sum or difference is `−0` only when its left operand
//!   is `−0`, so `m ± 0` has the same bits whichever zero is added.
//! * **Ping-pong metrics.** Two path-metric buffers alternate as source
//!   and destination, so a step never copies a metric array (the
//!   AVX-512 tier keeps its metrics in registers instead).
//! * **Bit-parallel survivors.** A survivor decision is one bit
//!   (even/odd predecessor), so a whole step packs into a single `u64`
//!   instead of 64 `(state, input)` records — 16× less survivor memory and
//!   a pointer-free traceback `state ← 2·(state&31) + bit`.
//!
//! The AVX2 tier keeps the metrics in two layouts that alternate step by
//! step: *natural* (state `s` in slot `s`) and *σ* (slots 1 and 2 of every
//! aligned block of four swapped). Forming the (even, odd) predecessor
//! pairs of four butterflies from a natural column takes one `unpacklo` and
//! one `unpackhi`, whose lanes come out in butterfly order `0 2 1 3`, so
//! the stored outputs are in σ; from a σ column one `permute2f128` each
//! gives butterfly order `0 1 2 3`, so the outputs land natural again. That
//! is two shuffles per group of four butterflies. The σ steps' survivor
//! bits are put back in state order as the word is stored, and state 0
//! sits in slot 0 in both layouts, so the traceback is unchanged.
//!
//! The AVX-512 tier needs no second layout. The 64 path metrics fit in
//! eight 512-bit registers, and they stay there from the first step to the
//! last. Each block of eight butterflies gathers its even and odd
//! predecessors with one `vpermt2pd` each and adds the true branch
//! values: unlike the other tiers it does negate the negated groups, by
//! an exact sign-bit flip, because one register spans a negated and an
//! un-negated group, and `m + (−b)` is bit for bit `m − b`. So every
//! candidate lands at its own next state, and each block stores its two
//! 8-bit decision masks as bytes of the survivor word. The traceback
//! reads only the survivor words, so the last column stays in the
//! registers.
//!
//! Unreachable states carry `−∞` metrics through the same arithmetic; the
//! traceback never visits one (state 0 is always reachable via the all-zeros
//! path, and every finite-metric state has a finite-metric predecessor), so
//! survivor bits recorded for unreachable states are dead data and the
//! decoded output is bit-identical to the reference.

use crate::convcode::{G0, G1, N_STATES};
use ssync_dsp::simd::{tier, F64x4, Tier, LANES};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

const HALF: usize = N_STATES / 2;
const NEG_INF: f64 = f64::NEG_INFINITY;
/// Groups of four butterflies per trellis step.
const GROUPS: usize = HALF / LANES;

/// Which butterfly groups take their base vector negated: the signs of
/// `+A −A −A +A +B −B −B +B`.
const NEGATED: [bool; GROUPS] = [false, true, true, false, false, true, true, false];

/// The two base vectors of one step's input-0 branch metrics, in butterfly
/// order: `A = [s, −t, s, −t]` for groups 0–3 and `B = [t, −s, t, −s]` for
/// groups 4–7, with `s = l0 + l1` and `t = l0 − l1`.
#[inline(always)]
fn base_vectors(l0: f64, l1: f64) -> ([f64; LANES], [f64; LANES]) {
    let s = l0 + l1;
    let t = l0 - l1;
    ([s, -t, s, -t], [t, -s, t, -s])
}

/// The next-state slots of butterfly group `group`'s first lane, for its
/// candidate pairs `(me + be, mo − be)` and `(me − be, mo + be)` formed on
/// the base value `be`. An un-negated group sends the first pair to input
/// 0 (`ns = lo`) and the second to input 1 (`ns = lo + 32`). A negated
/// group's input-0 pair is `(me + (−be), mo − (−be))`, which is bit for bit
/// `(me − be, mo + be)`, so it only exchanges the two targets.
#[inline(always)]
const fn targets(group: usize) -> (usize, usize) {
    let lo = LANES * group;
    if NEGATED[group] {
        (lo + HALF, lo)
    } else {
        (lo, lo + HALF)
    }
}

/// Compile-time proof of the branch-metric layout the step kernels use.
const _: () = {
    // Tapping the newest bit makes the input-1 branch the input-0 branch
    // negated; tapping the oldest does the same for the odd predecessor.
    assert!(G0 & 1 == 1 && G1 & 1 == 1, "both generators must tap bit 0");
    assert!(
        G0 & 0x40 != 0 && G1 & 0x40 != 0,
        "both generators must tap bit 6"
    );
    let mut lo = 0;
    while lo < HALF {
        let (group, lane) = (lo / LANES, lo % LANES);
        // Which LLRs the base value negates: s = l0 + l1, −t = −l0 + l1,
        // t = l0 − l1, −s = −l0 − l1.
        let (neg0, neg1) = match (group < GROUPS / 2, lane % 2 == 0) {
            (true, true) => (false, false),
            (true, false) => (true, false),
            (false, true) => (false, true),
            (false, false) => (true, true),
        };
        // The reference negates an LLR where the coded bit of the input-0
        // branch out of the even predecessor `2·lo` is 1.
        let state = (2 * lo) as u8;
        let c0 = (state & G0).count_ones() % 2 == 1;
        let c1 = (state & G1).count_ones() % 2 == 1;
        assert!((neg0 != NEGATED[group]) == c0 && (neg1 != NEGATED[group]) == c1);
        lo += 1;
    }
};

/// One trellis column of path metrics, indexed by state.
type Metrics = [f64; N_STATES];

/// A survivor word of a step whose metrics the AVX2 tier stored in σ
/// layout, put back in state order: bits 1 and 2 of every nibble swapped.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn unsigma_word(w: u64) -> u64 {
    const KEEP: u64 = 0x9999_9999_9999_9999;
    const LANE1: u64 = 0x2222_2222_2222_2222;
    const LANE2: u64 = 0x4444_4444_4444_4444;
    (w & KEEP) | ((w & LANE1) << 1) | ((w & LANE2) >> 1)
}

/// A reusable planned decoder: two path-metric buffers plus the
/// bit-parallel survivor store, so steady-state decoding (one frame after
/// another through an `RxWorkspace`) allocates nothing.
///
/// The two buffers ping-pong: each step reads one and writes every state
/// of the other, then the two swap roles, so no step copies a metric
/// array.
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
        let (a, b) = base_vectors(l0, l1);
        let mut word = 0u64;
        for group in 0..GROUPS {
            let be = if group < GROUPS / 2 { a } else { b };
            let (plus_at, minus_at) = targets(group);
            for (j, be) in be.into_iter().enumerate() {
                let lo = LANES * group + j;
                // The odd predecessor's branch metric is the even's negated.
                let me = metric[2 * lo];
                let mo = metric[2 * lo + 1];
                let c0 = me + be;
                let c1 = mo - be;
                let odd = c1 > c0;
                next[plus_at + j] = if odd { c1 } else { c0 };
                word |= (odd as u64) << (plus_at + j);
                let d0 = me - be;
                let d1 = mo + be;
                let odd1 = d1 > d0;
                next[minus_at + j] = if odd1 { d1 } else { d0 };
                word |= (odd1 as u64) << (minus_at + j);
            }
        }
        word
    }

    /// One add-compare-select step, four butterflies per lane group. Each
    /// lane runs exactly the scalar kernel's expressions, so the survivor
    /// word and metrics are bit-identical to [`ViterbiDecoder::step_scalar`].
    #[inline]
    fn step_lanes(metric: &Metrics, next: &mut Metrics, l0: f64, l1: f64) -> u64 {
        let (a, b) = base_vectors(l0, l1);
        let (a, b) = (F64x4(a), F64x4(b));
        let mut word = 0u64;
        for group in 0..GROUPS {
            let lo = LANES * group;
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
            let be = if group < GROUPS / 2 { a } else { b };
            let (plus_at, minus_at) = targets(group);
            let c0 = me.add(be);
            let c1 = mo.sub(be);
            let odd = c1.gt(c0);
            F64x4::select(odd, c1, c0).store(next, plus_at);
            let d0 = me.sub(be);
            let d1 = mo.add(be);
            let odd1 = d1.gt(d0);
            F64x4::select(odd1, d1, d0).store(next, minus_at);
            for j in 0..LANES {
                word |= (odd[j] as u64) << (plus_at + j);
                word |= (odd1[j] as u64) << (minus_at + j);
            }
        }
        word
    }

    /// Runs every trellis step from `self.metrics[0]`, pushing one
    /// survivor word per step.
    ///
    /// The `simd` build adds a third tier above the portable lanes: on
    /// x86-64 hosts whose CPU reports AVX2 at runtime, the steps run in
    /// natural/σ pairs through explicit 256-bit intrinsics
    /// ([`ViterbiDecoder::step_avx2`]). Every arithmetic instruction it uses
    /// is the IEEE-754 operation the portable kernels perform
    /// (`vaddpd`/`vsubpd`, an ordered `>` compare, and `vmaxpd`, which is
    /// exactly the select), and nothing fuses a multiply-add, so all three
    /// tiers are bit-identical — the in-module differential tests drive
    /// them over the same metric evolutions and compare exact bits.
    ///
    /// On hosts that also report AVX-512F/DQ/VL the steps run through
    /// [`ViterbiDecoder::step_avx512`] instead, with every path metric held
    /// in registers from the first step to the last.
    ///
    /// # Safety
    /// The host CPU must support `tier`: AVX2 for [`Tier::Avx2`], and AVX2,
    /// AVX-512F, AVX-512DQ and AVX-512VL for [`Tier::Avx512`].
    #[inline]
    unsafe fn run_steps(&mut self, llrs: &[f64], tier: Tier) {
        #[cfg(target_arch = "x86_64")]
        match tier {
            Tier::Avx512 => {
                // SAFETY: the caller guarantees the AVX-512 set.
                unsafe { self.run_steps_avx512(llrs) };
                return;
            }
            Tier::Avx2 => {
                // SAFETY: the caller guarantees AVX2.
                unsafe { self.run_steps_avx2(llrs) };
                return;
            }
            Tier::Lanes | Tier::Scalar => {}
        }
        let [a, b] = &mut self.metrics;
        let (mut cur, mut next) = (a, b);
        for pair in llrs.chunks_exact(2) {
            let word = if tier == Tier::Scalar {
                Self::step_scalar(cur, next, pair[0], pair[1])
            } else {
                Self::step_lanes(cur, next, pair[0], pair[1])
            };
            self.survivors.push(word);
            std::mem::swap(&mut cur, &mut next);
        }
    }

    /// The step loop over [`ViterbiDecoder::step_avx2`]: two steps per
    /// iteration, natural → σ into the second buffer and σ → natural back
    /// into the first; an odd last step leaves its column in σ, which the
    /// traceback never reads (it starts at state 0, slot 0 in both
    /// layouts).
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_steps_avx2(&mut self, llrs: &[f64]) {
        let [a, b] = &mut self.metrics;
        let mut quads = llrs.chunks_exact(4);
        for q in &mut quads {
            // SAFETY: caller guarantees AVX2.
            let w0 = unsafe { Self::step_avx2::<false>(a, b, q[0], q[1]) };
            self.survivors.push(unsigma_word(w0));
            // SAFETY: caller guarantees AVX2.
            let w1 = unsafe { Self::step_avx2::<true>(b, a, q[2], q[3]) };
            self.survivors.push(w1);
        }
        if let [l0, l1] = *quads.remainder() {
            // SAFETY: caller guarantees AVX2.
            let w = unsafe { Self::step_avx2::<false>(a, b, l0, l1) };
            self.survivors.push(unsigma_word(w));
        }
    }

    /// One add-compare-select step as eight 256-bit butterfly groups,
    /// reading `metric` in σ layout when `FROM_SIGMA` (writing `next`
    /// natural) and in natural layout otherwise (writing `next` in σ, its
    /// survivor bits in σ order too: see [`unsigma_word`]).
    ///
    /// Lane for lane the arithmetic is [`ViterbiDecoder::step_scalar`]'s:
    /// the base vectors are built in the lane order of the predecessor
    /// pairs, each group stores its candidate pairs at [`targets`], the compare is the ordered strict `>` (`_CMP_GT_OQ`, false on
    /// ties like the scalar `>`), `vmaxpd` is the select (`max(c1, c0)`
    /// returns `c1` exactly when `c1 > c0`, and `c0` on ties, on either
    /// zero and on NaN), and `vmovmskpd` packs the four decisions straight
    /// into the survivor word.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn step_avx2<const FROM_SIGMA: bool>(
        metric: &Metrics,
        next: &mut Metrics,
        l0: f64,
        l1: f64,
    ) -> u64 {
        let s = l0 + l1;
        let t = l0 - l1;
        // [s, −t, s, −t] and [t, −s, t, −s] in butterfly order 0 1 2 3 from
        // σ, in order 0 2 1 3 from natural.
        let (a, b) = if FROM_SIGMA {
            (_mm256_setr_pd(s, -t, s, -t), _mm256_setr_pd(t, -s, t, -s))
        } else {
            (_mm256_setr_pd(s, s, -t, -t), _mm256_setr_pd(t, t, -s, -s))
        };
        let src = metric.as_ptr();
        let dst = next.as_mut_ptr();
        let mut word = 0u64;
        for group in 0..GROUPS {
            let lo = LANES * group;
            // SAFETY: 2·lo + 8 ≤ N_STATES, and both targets are at most
            // N_STATES − 4, so every load and store stays inside the
            // fixed-size arrays.
            let (x, y) = unsafe {
                (
                    _mm256_loadu_pd(src.add(2 * lo)),
                    _mm256_loadu_pd(src.add(2 * lo + 4)),
                )
            };
            let (me, mo) = if FROM_SIGMA {
                (
                    _mm256_permute2f128_pd::<0x20>(x, y),
                    _mm256_permute2f128_pd::<0x31>(x, y),
                )
            } else {
                (_mm256_unpacklo_pd(x, y), _mm256_unpackhi_pd(x, y))
            };
            let be = if group < GROUPS / 2 { a } else { b };
            let (plus_at, minus_at) = targets(group);
            let c0 = _mm256_add_pd(me, be);
            let c1 = _mm256_sub_pd(mo, be);
            let d0 = _mm256_sub_pd(me, be);
            let d1 = _mm256_add_pd(mo, be);
            let odd = _mm256_cmp_pd::<_CMP_GT_OQ>(c1, c0);
            let odd1 = _mm256_cmp_pd::<_CMP_GT_OQ>(d1, d0);
            // SAFETY: as above.
            unsafe {
                _mm256_storeu_pd(dst.add(plus_at), _mm256_max_pd(c1, c0));
                _mm256_storeu_pd(dst.add(minus_at), _mm256_max_pd(d1, d0));
            }
            word |= (_mm256_movemask_pd(odd) as u64) << plus_at;
            word |= (_mm256_movemask_pd(odd1) as u64) << minus_at;
        }
        word
    }

    /// The step loop over [`ViterbiDecoder::step_avx512`]. The start
    /// column is loaded into eight registers once and the metrics stay
    /// there for the whole trellis; the traceback reads only the survivor
    /// words, so the last column is not stored. Each step's decision masks
    /// are stored straight into the bytes of its survivor word, in the
    /// vector's spare capacity.
    ///
    /// # Safety
    /// The host CPU must support AVX2, AVX-512F, AVX-512DQ and AVX-512VL.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
    unsafe fn run_steps_avx512(&mut self, llrs: &[f64]) {
        let steps = llrs.len() / 2;
        let done = self.survivors.len();
        self.survivors.reserve(steps);
        let mut m = Self::load_avx512(&self.metrics[0]);
        let words = self.survivors.spare_capacity_mut();
        for (word, pair) in words.iter_mut().zip(llrs.chunks_exact(2)) {
            // SAFETY: the caller guarantees the AVX-512 set, and `word` is
            // one u64 of the vector's spare capacity, eight writable bytes.
            m = unsafe { Self::step_avx512(m, pair[0], pair[1], word.as_mut_ptr().cast()) };
        }
        // SAFETY: `reserve` made room for `steps` more words, and the loop
        // wrote all eight bytes of each of them.
        unsafe { self.survivors.set_len(done + steps) };
    }

    /// A metric column in eight 512-bit registers, `m[k]` holding states
    /// `8k..8k + 8` in order.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
    fn load_avx512(column: &Metrics) -> [__m512d; 8] {
        let mut m = [_mm512_setzero_pd(); 8];
        for (reg, states) in m.iter_mut().zip(column.chunks_exact(8)) {
            // SAFETY: `states` is eight consecutive f64s of the column.
            *reg = unsafe { _mm512_loadu_pd(states.as_ptr()) };
        }
        m
    }

    /// One add-compare-select step on the 64 path metrics held in eight
    /// 512-bit registers ([`ViterbiDecoder::load_avx512`]'s layout),
    /// returning the next column in the same layout. Eight butterflies per
    /// block: block `g` reads the predecessors `16g..16g + 16` from
    /// `m[2g]` and `m[2g + 1]`, split into even and odd states by two
    /// `vpermt2pd`, and writes next states `8g..8g + 8` (input 0) to
    /// register `g` and `32 + 8g..` (input 1) to register `4 + g`.
    ///
    /// The branch vectors carry each lane's true input-0 branch, the
    /// groups `+A −A −A +A +B −B −B +B` of the scalar kernel with their
    /// signs applied by an exact sign flip (an XOR of the sign bit), so
    /// every candidate lands at its own next state. A negated group's
    /// `m + (−b)` is bit for bit the scalar kernel's `m − b`, the exchange
    /// of targets it makes. The compare is the ordered strict `>`
    /// (`_CMP_GT_OQ`), `vmaxpd` is the select as in
    /// [`ViterbiDecoder::step_avx2`], and each block's two decision masks
    /// are stored as bytes `g` and `4 + g` of the survivor word at `word`
    /// (x86-64 is little-endian, so byte `k` holds states `8k..8k + 8`).
    ///
    /// # Safety
    /// The host CPU must support AVX2, AVX-512F, AVX-512DQ and AVX-512VL,
    /// and `word` must be valid for writes of eight bytes.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn step_avx512(m: [__m512d; 8], l0: f64, l1: f64, word: *mut u8) -> [__m512d; 8] {
        const SIGN: i64 = i64::MIN;
        // SAFETY: the caller guarantees the AVX-512 set, and every mask
        // store writes byte `g` or `4 + g < 8` of the eight at `word`.
        unsafe {
            let s = _mm512_set1_pd(l0 + l1);
            let t = _mm512_set1_pd(l0 - l1);
            // [s, t, s, t, …] and [t, s, t, s, …], then the signs of
            // `+A −A` and `+B −B`; blocks 1 and 3 are blocks 0 and 2
            // negated.
            let flip = _mm512_castsi512_pd(_mm512_setr_epi64(0, SIGN, 0, SIGN, SIGN, 0, SIGN, 0));
            let all = _mm512_set1_pd(-0.0);
            let a = _mm512_xor_pd(_mm512_unpacklo_pd(s, t), flip);
            let b = _mm512_xor_pd(_mm512_unpacklo_pd(t, s), flip);
            let branch = [a, _mm512_xor_pd(a, all), b, _mm512_xor_pd(b, all)];
            let even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
            let odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
            let mut next = m;
            for (g, be) in branch.into_iter().enumerate() {
                let me = _mm512_permutex2var_pd(m[2 * g], even, m[2 * g + 1]);
                let mo = _mm512_permutex2var_pd(m[2 * g], odd, m[2 * g + 1]);
                let c0 = _mm512_add_pd(me, be);
                let c1 = _mm512_sub_pd(mo, be);
                let d0 = _mm512_sub_pd(me, be);
                let d1 = _mm512_add_pd(mo, be);
                _store_mask8(word.add(g), _mm512_cmp_pd_mask::<_CMP_GT_OQ>(c1, c0));
                _store_mask8(word.add(4 + g), _mm512_cmp_pd_mask::<_CMP_GT_OQ>(d1, d0));
                next[g] = _mm512_max_pd(c1, c0);
                next[4 + g] = _mm512_max_pd(d1, d0);
            }
            next
        }
    }

    /// Decodes a terminated mother-code LLR stream (`2` LLRs per trellis
    /// step, erasures as `0.0`) into `bits` (cleared and refilled), the
    /// information bits *including* the tail — callers strip the final
    /// [`crate::convcode::TAIL_BITS`]. Returns `false` for empty or
    /// odd-length input, leaving `bits` empty.
    pub fn decode_terminated_into(&mut self, llrs: &[f64], bits: &mut Vec<u8>) -> bool {
        // SAFETY: `tier()` reports only what the host CPU supports.
        unsafe { self.decode_terminated_on(tier(), llrs, bits) }
    }

    /// [`ViterbiDecoder::decode_terminated_into`] on the kernel tier `tier`.
    ///
    /// # Safety
    /// The host CPU must support `tier` (see [`ViterbiDecoder::run_steps`]).
    unsafe fn decode_terminated_on(
        &mut self,
        tier: Tier,
        llrs: &[f64],
        bits: &mut Vec<u8>,
    ) -> bool {
        bits.clear();
        if llrs.is_empty() || !llrs.len().is_multiple_of(2) {
            return false;
        }
        let n_steps = llrs.len() / 2;
        // The first step overwrites every state of the other buffer, so
        // only the starting one needs resetting.
        self.metrics[0] = [NEG_INF; N_STATES];
        self.metrics[0][0] = 0.0; // encoder starts in state 0
        self.survivors.clear();
        self.survivors.reserve(n_steps);
        // SAFETY: the caller guarantees the host supports `tier`.
        unsafe { self.run_steps(llrs, tier) };
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
    if llrs.is_empty() || !llrs.len().is_multiple_of(2) {
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
        // Equal LLRs make `t = +0`, and the decoder's `−t = −0` meets the
        // reference's `(−l0) + l1 = +0` (likewise `−s` for `l0 == −l1`): the
        // decode still agrees, because no path metric is ever −0.
        for n_steps in [40, 41] {
            let llrs: Vec<f64> = (0..n_steps)
                .flat_map(|k| {
                    let r: f64 = rng.gen_range(-2.0..2.0);
                    if k % 3 == 0 {
                        [r, -r]
                    } else {
                        [r, r]
                    }
                })
                .collect();
            assert!(dec.decode_terminated_into(&llrs, &mut bits));
            assert_eq!(bits, decode_terminated_reference(&llrs).unwrap());
        }
    }

    type Step = fn(&Metrics, &mut Metrics, f64, f64) -> u64;

    /// The slot of state `s` in the σ layout: slots 1 and 2 of every
    /// aligned block of four swapped.
    fn sigma(s: usize) -> usize {
        match s % 4 {
            1 => s + 1,
            2 => s - 1,
            _ => s,
        }
    }

    /// A metric's bits, every NaN mapped to one pattern: Rust leaves the
    /// sign and payload of an arithmetic NaN unspecified, and x86 returns
    /// the first NaN operand, so `m − b` and `m + (−b)` may disagree on a
    /// NaN's sign.
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// Whether this host can run the AVX-512 kernel (AVX2, AVX-512F,
    /// AVX-512DQ and AVX-512VL). When it cannot, prints a note naming the
    /// test so a skipped comparison is visible. Reads the CPU, not
    /// [`tier`], so the scalar build compares the kernel too.
    fn host_has_avx512(test: &str) -> bool {
        #[cfg(target_arch = "x86_64")]
        let has = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl");
        #[cfg(not(target_arch = "x86_64"))]
        let has = false;
        if !has {
            println!("{test}: host lacks AVX-512F/DQ/VL; the AVX-512 kernel is not compared");
        }
        has
    }

    /// [`ViterbiDecoder::step_avx512`] as a [`Step`]: loads `metric` into
    /// registers, runs one step, stores the result to `next` and returns
    /// the survivor word.
    ///
    /// # Safety
    /// The host CPU must support AVX2, AVX-512F, AVX-512DQ and AVX-512VL.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
    unsafe fn step_avx512_columns(metric: &Metrics, next: &mut Metrics, l0: f64, l1: f64) -> u64 {
        let mut word = 0u64;
        let m = ViterbiDecoder::load_avx512(metric);
        // SAFETY: the caller guarantees the AVX-512 set; `word` is eight
        // writable bytes.
        let m = unsafe { ViterbiDecoder::step_avx512(m, l0, l1, (&mut word as *mut u64).cast()) };
        for (reg, states) in m.into_iter().zip(next.chunks_exact_mut(8)) {
            // SAFETY: `states` is eight consecutive f64s of the column.
            unsafe { std::arch::x86_64::_mm512_storeu_pd(states.as_mut_ptr(), reg) };
        }
        word
    }

    /// Runs `step` from buffer `src` of `m` into the other one.
    fn step_in(m: &mut [Metrics; 2], src: usize, step: Step, l0: f64, l1: f64) -> u64 {
        let [m0, m1] = m;
        if src == 0 {
            step(m0, m1, l0, l1)
        } else {
            step(m1, m0, l0, l1)
        }
    }

    /// Drives every compiled step kernel over the same LLR pairs from the
    /// decoder's start column, ping-ponging its own two buffers as the
    /// decoder does, and asserts that each step's survivor word and metric
    /// column equal the scalar kernel's bit for bit. The AVX2 tier
    /// alternates natural → σ and σ → natural steps as
    /// `run_steps_avx2` does; its σ columns are read through [`sigma`] and
    /// its σ survivor words through [`unsigma_word`]. The AVX-512 kernel,
    /// on hosts that have it, runs one step at a time from a metric column
    /// in natural layout. NaN matches any NaN.
    fn assert_step_tiers_match(pairs: &[(f64, f64)], what: &str) {
        let mut start = [NEG_INF; N_STATES];
        start[0] = 0.0;
        let mut scalar = [start, [NEG_INF; N_STATES]];
        let mut lanes = scalar;
        #[cfg(target_arch = "x86_64")]
        let (avx2, mut wide) = (std::arch::is_x86_feature_detected!("avx2"), scalar);
        #[cfg(target_arch = "x86_64")]
        let (avx512, mut widest) = (host_has_avx512(what), scalar);
        for (step, &(l0, l1)) in pairs.iter().enumerate() {
            let (src, dst) = (step % 2, 1 - step % 2);
            let want = step_in(&mut scalar, src, ViterbiDecoder::step_scalar, l0, l1);
            let got = step_in(&mut lanes, src, ViterbiDecoder::step_lanes, l0, l1);
            assert_eq!(got, want, "{what}: lanes survivor word, step {step}");
            for s in 0..N_STATES {
                assert_eq!(
                    bits(lanes[dst][s]),
                    bits(scalar[dst][s]),
                    "{what}: lanes metric {s}, step {step}"
                );
            }
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                let to_sigma = step % 2 == 0;
                let kernel: Step = if to_sigma {
                    // SAFETY: AVX2 detected above.
                    |m, n, l0, l1| unsafe { ViterbiDecoder::step_avx2::<false>(m, n, l0, l1) }
                } else {
                    // SAFETY: AVX2 detected above.
                    |m, n, l0, l1| unsafe { ViterbiDecoder::step_avx2::<true>(m, n, l0, l1) }
                };
                let word = step_in(&mut wide, src, kernel, l0, l1);
                let word = if to_sigma { unsigma_word(word) } else { word };
                assert_eq!(word, want, "{what}: avx2 survivor word, step {step}");
                for (s, &m) in scalar[dst].iter().enumerate() {
                    let slot = if to_sigma { sigma(s) } else { s };
                    assert_eq!(
                        bits(wide[dst][slot]),
                        bits(m),
                        "{what}: avx2 metric {s}, step {step}"
                    );
                }
            }
            #[cfg(target_arch = "x86_64")]
            if avx512 {
                // SAFETY: the AVX-512 set detected above.
                let kernel: Step = |m, n, l0, l1| unsafe { step_avx512_columns(m, n, l0, l1) };
                let word = step_in(&mut widest, src, kernel, l0, l1);
                assert_eq!(word, want, "{what}: avx512 survivor word, step {step}");
                for s in 0..N_STATES {
                    assert_eq!(
                        bits(widest[dst][s]),
                        bits(scalar[dst][s]),
                        "{what}: avx512 metric {s}, step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_and_scalar_steps_bitwise_match() {
        // Every compiled kernel over one random metric evolution, odd and
        // even step counts alike.
        let mut rng = StdRng::seed_from_u64(7);
        let pairs: Vec<(f64, f64)> = (0..201)
            .map(|_| (rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
            .collect();
        assert_step_tiers_match(&pairs, "random");
    }

    #[test]
    fn step_tiers_match_on_ieee_edge_llrs() {
        // Equal pairs (t = +0, so −t = −0) and both erasure zeros, then each
        // IEEE edge value mixed with ordinary LLRs: subnormals, ±1e300,
        // ±∞ (which turn metrics into ±∞ and then NaN) and NaN, each run
        // from a fresh start column.
        let mut rng = StdRng::seed_from_u64(10);
        let mut ties: Vec<(f64, f64)> = Vec::new();
        for k in 0..120 {
            let r: f64 = rng.gen_range(-3.0..3.0);
            ties.push(match k % 6 {
                0 => (r, r),
                1 => (0.0, 0.0),
                2 => (-0.0, -0.0),
                3 => (0.0, -0.0),
                4 => (r, -r),
                _ => (-0.0, r),
            });
        }
        assert_step_tiers_match(&ties, "equal pairs and erasures");
        let edges = [
            f64::MIN_POSITIVE / 8.0,
            -f64::MIN_POSITIVE * 3.0,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for e in edges {
            let pairs: Vec<(f64, f64)> = (0..64)
                .map(|k| {
                    let r: f64 = rng.gen_range(-3.0..3.0);
                    match k % 5 {
                        0 => (e, e),
                        1 => (e, -e),
                        2 => (r, e),
                        3 => (-e, r),
                        _ => (r, rng.gen_range(-3.0..3.0)),
                    }
                })
                .collect();
            assert_step_tiers_match(&pairs, &format!("edge {e:e}"));
        }
    }

    #[test]
    fn avx512_decodes_match_reference() {
        // Whole decodes through `decode_terminated_into`'s body on the
        // AVX-512 tier, one decoder throughout: odd and even step counts,
        // 1-step streams, and a 12k-step noisy stream with erasures and
        // equal pairs (ties), against the reference decoder.
        if !host_has_avx512("avx512_decodes_match_reference") {
            return;
        }
        let mut rng = StdRng::seed_from_u64(11);
        let mut dec = ViterbiDecoder::new();
        let mut bits = Vec::new();
        let mut check = |llrs: &[f64], what: &str| {
            // SAFETY: the AVX-512 set detected above.
            assert!(unsafe { dec.decode_terminated_on(Tier::Avx512, llrs, &mut bits) });
            assert_eq!(bits, decode_terminated_reference(llrs).unwrap(), "{what}");
        };
        check(&[0.5, -1.5], "1 step");
        check(&[0.0, 0.0], "1 erased step");
        for n_steps in [2usize, 3, 64, 65, 199, 200] {
            let llrs: Vec<f64> = (0..2 * n_steps).map(|_| rng.gen_range(-4.0..4.0)).collect();
            check(&llrs, &format!("{n_steps} random steps"));
        }
        let info: Vec<u8> = (0..12_000 - TAIL_BITS)
            .map(|_| rng.gen_range(0..2u8))
            .collect();
        let gauss = ssync_dsp::rng::Gaussian::standard();
        let mut llrs: Vec<f64> = encode_with_tail(&info)
            .iter()
            .map(|b| if *b == 0 { 2.0 } else { -2.0 } + 1.5 * gauss.sample(&mut rng))
            .collect();
        for (k, pair) in llrs.chunks_exact_mut(2).enumerate() {
            match k % 7 {
                0 => pair[1] = 0.0,
                3 => pair[1] = pair[0],
                5 => pair[1] = -pair[0],
                _ => {}
            }
        }
        check(&llrs, "12k noisy steps");
        check(&llrs[..llrs.len() - 2], "12k - 1 noisy steps");
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
        // Even steps run `even`, odd steps `odd`, ping-ponging two buffers.
        let mut time = |even: Step, odd: Step| {
            let t0 = std::time::Instant::now();
            let [a, b] = &mut metrics;
            for pair in steps.chunks_exact(2) {
                let (l0, l1) = pair[0];
                std::hint::black_box(even(a, b, l0, l1));
                let (l0, l1) = pair[1];
                std::hint::black_box(odd(b, a, l0, l1));
            }
            t0.elapsed()
        };
        let per_step = |d: std::time::Duration| d.as_nanos() as f64 / steps.len() as f64;
        for rep in 0..3 {
            let scalar = per_step(time(
                ViterbiDecoder::step_scalar,
                ViterbiDecoder::step_scalar,
            ));
            let lanes = per_step(time(ViterbiDecoder::step_lanes, ViterbiDecoder::step_lanes));
            #[cfg(target_arch = "x86_64")]
            let avx2 = if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 detected above.
                let to_sigma: Step =
                    |m, n, l0, l1| unsafe { ViterbiDecoder::step_avx2::<false>(m, n, l0, l1) };
                // SAFETY: AVX2 detected above.
                let to_natural: Step =
                    |m, n, l0, l1| unsafe { ViterbiDecoder::step_avx2::<true>(m, n, l0, l1) };
                format!("{:.1} ns", per_step(time(to_sigma, to_natural)))
            } else {
                "n/a".into()
            };
            #[cfg(target_arch = "x86_64")]
            let avx512 = if host_has_avx512("profile_step_kernels") {
                // The run loop itself: the metrics stay in registers
                // between steps, as they do in a decode.
                let llrs: Vec<f64> = steps.iter().flat_map(|&(l0, l1)| [l0, l1]).collect();
                let mut dec = ViterbiDecoder::new();
                dec.metrics[0][0] = 0.0;
                let t0 = std::time::Instant::now();
                // SAFETY: the AVX-512 set detected above.
                unsafe { dec.run_steps_avx512(&llrs) };
                std::hint::black_box(&dec.survivors);
                format!("{:.1} ns", per_step(t0.elapsed()))
            } else {
                "n/a".into()
            };
            #[cfg(not(target_arch = "x86_64"))]
            let (avx2, avx512) = ("n/a", "n/a");
            println!(
                "rep {rep}: per step scalar {scalar:.1} ns, lanes {lanes:.1} ns, \
                 avx2 {avx2}, avx512 {avx512}"
            );
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
