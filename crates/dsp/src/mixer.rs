//! Complex mixing: applying carrier-frequency offsets to baseband waveforms.
//!
//! A transmitter whose oscillator runs `Δf` Hz away from the receiver's
//! appears at baseband multiplied by `e^{j2πΔf·t}`. Both the channel
//! emulator (applying real offsets) and the receiver (correcting estimated
//! offsets) use this one function, so conventions cannot drift apart.
//!
//! **Block anchors.** Evaluating `sin`/`cos` per sample is the mixer's
//! whole cost, so the phasor is a recurrence re-anchored on a fixed grid of
//! absolute sample indices. With `step = 2π·Δf/fs`, absolute index `i`,
//! block start `A = i − i mod 64` and lane `l = i mod 4`, the phasor of
//! `i` is the exact anchor `cis(step·((A + l) + origin))` multiplied
//! `(i mod 64)/4` times, one multiply at a time, by the exact four-sample
//! rotor `cis(4·step)`. A span that starts inside a block replays the
//! recurrence from that block's anchor, so a sample's bits depend only on
//! its absolute index: every partition of a stream into spans gives the
//! bits of rotating the whole stream.
//!
//! **Tiers.** Three kernels do the same multiplies in the same order, so
//! each sample gets the same bits from any of them: the scalar tier (the
//! `--no-default-features` build), the lanes tier (four lanes of one
//! block as a `C64x4`), and, on x86-64 hosts with AVX2, an intrinsics
//! kernel on the interleaved samples that advances the rotor chains of
//! four whole blocks side by side and forms each product with
//! `vaddsubpd` (the span's partial blocks at either end go through the
//! lanes tier).

use crate::complex::Complex64;
use crate::simd::{tier, C64x4, Tier, LANES};
use std::f64::consts::PI;

/// Samples per anchor block: a multiple of [`LANES`]. Each block costs
/// four `cis` evaluations; a sample inside it is at most `BLOCK/4 − 1`
/// rotor multiplies from its anchor.
const BLOCK: usize = 64;

/// The recurrence state at the start of the 4-aligned group holding
/// absolute index `at`: the block's four lane anchors stepped by the rotor
/// once per group before `at`'s.
#[inline]
fn phasors_at(at: usize, step: f64, origin: f64, rotor: Complex64) -> [Complex64; LANES] {
    let anchor = at - at % BLOCK;
    let mut p = [0, 1, 2, 3].map(|l| Complex64::cis(step * ((anchor + l) as f64 + origin)));
    for _ in 0..(at % BLOCK) / LANES {
        for q in p.iter_mut() {
            *q *= rotor;
        }
    }
    p
}

/// The scalar tier: `samples[k]` is absolute index `first + k`.
#[inline]
fn mix_scalar(samples: &mut [Complex64], step: f64, origin: f64, first: usize) {
    let rotor = Complex64::cis(LANES as f64 * step);
    let mut p = phasors_at(first, step, origin, rotor);
    for (k, s) in samples.iter_mut().enumerate() {
        let i = first + k;
        if i.is_multiple_of(BLOCK) && k > 0 {
            p = phasors_at(i, step, origin, rotor);
        }
        let l = i % LANES;
        *s *= p[l];
        if l == LANES - 1 {
            for q in p.iter_mut() {
                *q *= rotor;
            }
        }
    }
}

/// The lanes tier: whole 4-aligned groups as one [`C64x4`] multiply, the
/// partial groups at either end of the span one sample at a time with the
/// same phasors.
#[inline]
fn mix_lanes(samples: &mut [Complex64], step: f64, origin: f64, first: usize) {
    let rotor = Complex64::cis(LANES as f64 * step);
    let rotor4 = C64x4::splat(rotor);
    let end = first + samples.len();
    let mut group = first - first % LANES;
    let mut p = C64x4::load(&phasors_at(first, step, origin, rotor), 0);
    while group < end {
        if group.is_multiple_of(BLOCK) && group > first {
            p = C64x4::load(&phasors_at(group, step, origin, rotor), 0);
        }
        if group >= first && group + LANES <= end {
            let k = group - first;
            C64x4::load(samples, k).mul(p).store(samples, k);
        } else {
            for l in 0..LANES {
                let i = group + l;
                if (first..end).contains(&i) {
                    samples[i - first] *= p.lane(l);
                }
            }
        }
        p = p.mul(rotor4);
        group += LANES;
    }
}

/// The AVX2 tier: the whole blocks of the span through
/// [`mix_blocks_avx2`], four at a time, and the partial blocks at either
/// end through [`mix_lanes`]. Every sample is rotated by the phasor the
/// other tiers give it, so the split changes no bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn mix_avx2(samples: &mut [Complex64], step: f64, origin: f64, first: usize) {
    let end = first + samples.len();
    let lo = first.next_multiple_of(BLOCK).min(end);
    let hi = (end - end % BLOCK).max(lo);
    let rotor = Complex64::cis(LANES as f64 * step);
    let (head, rest) = samples.split_at_mut(lo - first);
    let (whole, tail) = rest.split_at_mut(hi - lo);
    mix_lanes(head, step, origin, first);
    let mut quads = whole.chunks_exact_mut(4 * BLOCK);
    let mut at = lo;
    for quad in &mut quads {
        mix_blocks_avx2::<4>(quad, step, origin, at, rotor);
        at += 4 * BLOCK;
    }
    for block in quads.into_remainder().chunks_exact_mut(BLOCK) {
        mix_blocks_avx2::<1>(block, step, origin, at, rotor);
        at += BLOCK;
    }
    mix_lanes(tail, step, origin, hi);
}

/// Rotates `N` consecutive whole blocks starting at absolute index
/// `anchor` (a multiple of [`BLOCK`]) on interleaved samples: two samples
/// per 256-bit register, the rotor chains of the `N` blocks advanced side
/// by side so their multiplies overlap. Each product is
/// [`crate::fft::cmul`]'s `vaddsubpd` form of `Complex64`'s `*`, its
/// imaginary addends commuted, which IEEE addition allows bit for bit;
/// each sample gets its block's anchor and the same rotor multiplies, in
/// the same order, as in [`mix_scalar`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// The raw-pointer loads and stores below; each carries its bounds
// argument in a SAFETY comment.
#[allow(unsafe_code)]
fn mix_blocks_avx2<const N: usize>(
    samples: &mut [Complex64],
    step: f64,
    origin: f64,
    anchor: usize,
    rotor: Complex64,
) {
    use crate::fft::cmul;
    use std::arch::x86_64::*;
    assert!(samples.len() == N * BLOCK && anchor.is_multiple_of(BLOCK));
    let (rr, ri) = (_mm256_set1_pd(rotor.re), _mm256_set1_pd(rotor.im));
    // Lanes 0–1 and 2–3 of each block's phasors, one register each.
    let mut p = [[_mm256_setzero_pd(); 2]; N];
    for (n, pn) in p.iter_mut().enumerate() {
        let a = phasors_at(anchor + n * BLOCK, step, origin, rotor);
        *pn = [
            _mm256_setr_pd(a[0].re, a[0].im, a[1].re, a[1].im),
            _mm256_setr_pd(a[2].re, a[2].im, a[3].re, a[3].im),
        ];
    }
    // `Complex64` is `repr(C)`: `re` then `im`.
    let buf = samples.as_mut_ptr().cast::<f64>();
    for group in 0..BLOCK / LANES {
        for (n, pn) in p.iter_mut().enumerate() {
            for (half, ph) in pn.iter_mut().enumerate() {
                let at = 2 * (n * BLOCK + group * LANES + 2 * half);
                let (pr, pi) = (_mm256_movedup_pd(*ph), _mm256_permute_pd::<0b1111>(*ph));
                // SAFETY: `at + 4 ≤ 2·N·BLOCK`, the buffer's length in
                // `f64`s (asserted above): the two samples at `at / 2`.
                unsafe {
                    let x = buf.add(at);
                    _mm256_storeu_pd(x, cmul(_mm256_loadu_pd(x), pr, pi));
                }
                *ph = cmul(*ph, rr, ri);
            }
        }
    }
}

/// Rotates `samples[k]` by
/// `e^{j2π·cfo_hz·((first + k) + phase_origin)/sample_rate_hz}` in place.
///
/// `phase_origin` (in samples) lets callers keep a consistent phase
/// reference across buffers. `first` is the absolute index of
/// `samples[0]` in a longer stream. The phasors come from the block
/// anchors on the absolute-index grid (see the module docs), so rotating
/// any span of a stream gives the bits the whole-stream rotation gives
/// those samples — even for a fractional `phase_origin`, where re-basing
/// the origin to the span start would not.
pub fn apply_cfo_from(
    samples: &mut [Complex64],
    cfo_hz: f64,
    sample_rate_hz: f64,
    phase_origin: f64,
    first: usize,
) {
    let step = 2.0 * PI * cfo_hz / sample_rate_hz;
    let tier = tier();
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx2 {
        // SAFETY: `tier()` reported AVX2 support at runtime.
        #[allow(unsafe_code)]
        unsafe {
            mix_avx2(samples, step, phase_origin, first)
        };
        return;
    }
    if tier == Tier::Scalar {
        mix_scalar(samples, step, phase_origin, first);
    } else {
        mix_lanes(samples, step, phase_origin, first);
    }
}

/// [`apply_cfo_from`] with the phase referenced to the buffer start.
pub fn apply_cfo(samples: &mut [Complex64], cfo_hz: f64, sample_rate_hz: f64) {
    apply_cfo_from(samples, cfo_hz, sample_rate_hz, 0.0, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::tier_test;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A mixing kernel tier.
    type Kernel = fn(&mut [Complex64], f64, f64, usize);

    /// The per-sample `cis` mixer the block-anchored kernels replaced,
    /// kept as the accuracy oracle.
    fn mix_exact(samples: &mut [Complex64], step: f64, origin: f64, first: usize) {
        for (k, s) in samples.iter_mut().enumerate() {
            *s = s.rotate(step * ((first + k) as f64 + origin));
        }
    }

    fn assert_same_bits(a: &[Complex64], b: &[Complex64], at: &str) {
        assert_eq!(a.len(), b.len(), "{at}");
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{at} k {k}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{at} k {k}");
        }
    }

    /// The largest distance between `kernel`'s rotation of 2^20 unit
    /// samples and the oracle's.
    fn worst_error(kernel: Kernel, step: f64, origin: f64, first: usize) -> f64 {
        let n = 1 << 20;
        let mut got = vec![Complex64::ONE; n];
        kernel(&mut got, step, origin, first);
        let mut want = vec![Complex64::ONE; n];
        mix_exact(&mut want, step, origin, first);
        got.iter()
            .zip(&want)
            .map(|(a, b)| a.dist(*b))
            .fold(0.0, f64::max)
    }

    #[test]
    fn block_anchored_mixer_tracks_exact_cis() {
        // Steps within 0.6 % of ±250 kHz (the largest CFO the channel
        // models draw) at 20 and at 128 Msps, chosen with short mantissas
        // and paired with dyadic fractional origins, so that the oracle's
        // phase argument `step · (i + origin)` is exact at every one of
        // the 2^20 indices: the bound then measures the recurrence alone.
        let tiers: [Kernel; 2] = [mix_lanes, mix_scalar];
        for step in [0.078_125, -0.078_125, 0.012_207_031_25, -0.012_207_031_25] {
            for (origin, first) in [(0.0, 0), (0.375, 5), (-17.625, 1_003)] {
                for kernel in tiers {
                    let worst = worst_error(kernel, step, origin, first);
                    assert!(worst <= 1e-12, "step {step} origin {origin}: {worst:e}");
                }
            }
        }
    }

    #[test]
    fn block_anchored_mixer_tracks_exact_cis_at_real_offsets() {
        // At a step with a full mantissa the oracle's own argument
        // `step · (i + origin)` rounds to within half an ulp of the phase,
        // and so does each anchor's: over 2^20 indices at ±250 kHz the two
        // differ by those roundings (~1e-11 rad at 20 Msps), which no
        // anchoring can remove. The recurrence itself adds at most 1e-12.
        for (cfo_hz, rate_hz) in [(250e3, 20e6), (-250e3, 20e6), (250e3, 128e6)] {
            let step = 2.0 * PI * cfo_hz / rate_hz;
            let (origin, first) = (-17.618_033_9, 1_003);
            let max_phase = (step * ((first + (1 << 20)) as f64 + origin)).abs();
            let ulp = f64::from_bits(max_phase.to_bits() + 1) - max_phase;
            let worst = worst_error(mix_lanes, step, origin, first);
            assert!(
                worst <= 1e-12 + 2.0 * ulp,
                "cfo {cfo_hz} rate {rate_hz}: {worst:e} (ulp {ulp:e})"
            );
        }
    }

    #[test]
    fn span_partitions_off_the_block_grid_give_whole_buffer_bits() {
        let stream: Vec<Complex64> = (0..1_000)
            .map(|i| Complex64::new((i as f64 * 0.37).cos(), (i as f64 * 0.21).sin()))
            .collect();
        let (cfo_hz, rate_hz, origin) = (173.5e3, 20e6, 0.731);
        let mut whole = stream.clone();
        apply_cfo_from(&mut whole, cfo_hz, rate_hz, origin, 7);
        for cuts in [
            vec![0, 1, 63, 65, 130, 1_000],
            vec![0, 3, 66, 67, 258, 511, 999, 1_000],
            vec![0, 127, 129, 1_000],
        ] {
            let mut parts = stream.clone();
            for w in cuts.windows(2) {
                apply_cfo_from(&mut parts[w[0]..w[1]], cfo_hz, rate_hz, origin, 7 + w[0]);
            }
            assert_same_bits(&parts, &whole, &format!("cuts {cuts:?}"));
        }
    }

    #[test]
    fn roundtrip_cancels() {
        let mut buf: Vec<Complex64> = (0..64).map(|i| Complex64::new(i as f64, 1.0)).collect();
        let orig = buf.clone();
        apply_cfo(&mut buf, 37e3, 20e6);
        apply_cfo(&mut buf, -37e3, 20e6);
        for (a, b) in buf.iter().zip(&orig) {
            assert!(a.dist(*b) < 1e-9);
        }
    }

    #[test]
    fn zero_offset_is_identity() {
        let mut buf = vec![Complex64::new(1.0, -2.0); 8];
        apply_cfo(&mut buf, 0.0, 20e6);
        for s in &buf {
            assert!(s.dist(Complex64::new(1.0, -2.0)) < 1e-15);
        }
    }

    #[test]
    fn phase_origin_shifts_reference() {
        let one = vec![Complex64::ONE; 4];
        let mut a = one.clone();
        let mut b = one.clone();
        // Rotating b from origin 4 should equal rotating a's tail if a were
        // 8 long: check sample 0 of b equals what sample 4 would get.
        apply_cfo_from(&mut a, 1e6, 20e6, 4.0, 0);
        apply_cfo_from(&mut b, 1e6, 20e6, 0.0, 0);
        let step = 2.0 * PI * 1e6 / 20e6;
        assert!(a[0].dist(Complex64::cis(step * 4.0)) < 1e-12);
        assert!(b[0].dist(Complex64::ONE) < 1e-12);
    }

    #[test]
    fn lane_and_scalar_mixing_bitwise_match() {
        // Odd length exercises the lane blocks and the scalar tail.
        let mut a: Vec<Complex64> = (0..67)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let mut b = a.clone();
        let step = 2.0 * PI * 37e3 / 20e6;
        mix_lanes(&mut a, step, 3.0, 0);
        mix_scalar(&mut b, step, 3.0, 0);
        assert_same_bits(&a, &b, "first 0");
        // Starts inside a group and inside a block, ends in a later block.
        for first in [1, 2, 3, 61, 64, 1_000_003] {
            let mut a = b.clone();
            let mut c = b.clone();
            mix_lanes(&mut a, step, -0.25, first);
            mix_scalar(&mut c, step, -0.25, first);
            assert_same_bits(&a, &c, &format!("first {first}"));
        }
    }

    #[test]
    fn span_rotation_bitwise_matches_whole_buffer_in_both_tiers() {
        // Every span of a stream, rotated with its start index, carries the
        // bits the whole-stream rotation gives it — through the public
        // entry point and through each kernel tier, with a fractional
        // phase origin (where re-basing the origin would change bits) and
        // spans that start off the 4-lane grid.
        let stream: Vec<Complex64> = (0..203)
            .map(|i| Complex64::new((i as f64 * 0.3).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let (cfo_hz, rate_hz, origin) = (-41.3e3, 20e6, 1_234.567_8);
        let step = 2.0 * PI * cfo_hz / rate_hz;
        let mut whole = stream.clone();
        apply_cfo_from(&mut whole, cfo_hz, rate_hz, origin, 0);
        type Kernel = fn(&mut [Complex64], f64, f64, usize);
        let tiers: [(&str, Kernel); 2] = [("lanes", mix_lanes), ("scalar", mix_scalar)];
        for (lo, hi) in [(0, 203), (1, 2), (3, 70), (64, 64), (97, 203), (150, 157)] {
            let mut span = stream[lo..hi].to_vec();
            apply_cfo_from(&mut span, cfo_hz, rate_hz, origin, lo);
            let mut by_tier: Vec<(&str, Vec<Complex64>)> = vec![("api", span)];
            for (name, kernel) in tiers {
                let mut span = stream[lo..hi].to_vec();
                kernel(&mut span, step, origin, lo);
                by_tier.push((name, span));
            }
            for (name, span) in &by_tier {
                for (k, (a, b)) in span.iter().zip(&whole[lo..hi]).enumerate() {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "{name} [{lo}, {hi}) k {k}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "{name} [{lo}, {hi}) k {k}");
                }
            }
        }
    }

    #[test]
    fn avx2_mixer_bitwise_matches_lanes_and_scalar() {
        // Every span start 0–130 (inside a group, on and off the block
        // grid) through the AVX2 kernel, against the scalar tier's
        // rotation of the whole stream (which the lanes tier matches):
        // integer and fractional origins, ±CFO and zero CFO, and IEEE
        // edge values in the samples. The first two cases take every
        // length 0–300 (partial blocks, one to four whole blocks, both
        // ends unaligned), the others the lengths around the block sizes;
        // at those, the lanes and scalar tiers and the dispatched entry
        // point also rotate each span on its own.
        let avx2 = tier_test::host_has_avx2("avx2_mixer_bitwise_matches_lanes_and_scalar");
        let mut rng = StdRng::seed_from_u64(36);
        let rate_hz = 20e6;
        let around_blocks = [0, 1, 3, 4, 5, 63, 64, 65, 127, 128, 191, 255, 256, 257, 300];
        for (case, (cfo_hz, origin)) in [
            (173.5e3, 0.731),
            (-211.9e3, -3.0),
            (173.5e3, 5.0),
            (-211.9e3, 0.731),
            (0.0, 0.731),
            (0.0, 0.0),
        ]
        .into_iter()
        .enumerate()
        {
            let stream = tier_test::samples(&mut rng, 431, true);
            let step = 2.0 * PI * cfo_hz / rate_hz;
            let mut whole = stream.clone();
            mix_scalar(&mut whole, step, origin, 0);
            let mut lanes = stream.clone();
            mix_lanes(&mut lanes, step, origin, 0);
            tier_test::assert_same_bits(&lanes, &whole, "whole stream: lanes");
            for first in 0..=130 {
                for len in 0..=300 {
                    let every_length = case < 2;
                    if !every_length && !around_blocks.contains(&len) {
                        continue;
                    }
                    let what = format!("cfo {cfo_hz} origin {origin} [{first}, +{len})");
                    let span = &stream[first..first + len];
                    let want = &whole[first..first + len];
                    #[cfg(target_arch = "x86_64")]
                    if avx2 {
                        let mut twin = span.to_vec();
                        // SAFETY: AVX2 detected above.
                        #[allow(unsafe_code)]
                        unsafe {
                            mix_avx2(&mut twin, step, origin, first)
                        };
                        tier_test::assert_same_bits(&twin, want, &format!("{what}: avx2"));
                    }
                    if !around_blocks.contains(&len) {
                        continue;
                    }
                    let tiers: [(&str, Kernel); 2] = [("lanes", mix_lanes), ("scalar", mix_scalar)];
                    for (name, kernel) in tiers {
                        let mut got = span.to_vec();
                        kernel(&mut got, step, origin, first);
                        tier_test::assert_same_bits(&got, want, &format!("{what}: {name}"));
                    }
                    let mut api = span.to_vec();
                    apply_cfo_from(&mut api, cfo_hz, rate_hz, origin, first);
                    tier_test::assert_same_bits(&api, want, &format!("{what}: dispatched"));
                }
            }
        }
    }

    #[test]
    fn preserves_power() {
        let mut buf = vec![Complex64::new(3.0, 4.0); 16];
        apply_cfo(&mut buf, 123e3, 128e6);
        for s in &buf {
            assert!((s.abs() - 5.0).abs() < 1e-12);
        }
    }
}
