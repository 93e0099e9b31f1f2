//! Complex mixing: applying carrier-frequency offsets to baseband waveforms.
//!
//! A transmitter whose oscillator runs `Δf` Hz away from the receiver's
//! appears at baseband multiplied by `e^{j2πΔf·t}`. Both the channel
//! emulator (applying real offsets) and the receiver (correcting estimated
//! offsets) use this one function, so conventions cannot drift apart.

use crate::complex::Complex64;
use crate::simd::{C64x4, LANES, SIMD_ENABLED};
use std::f64::consts::PI;

/// The scalar mixing kernel: per-sample `e^{jθ}` and complex multiply,
/// `samples[k]` taking the phase of absolute index `first + k`.
#[inline]
fn mix_scalar(samples: &mut [Complex64], step: f64, phase_origin: f64, first: usize) {
    for (i, s) in samples.iter_mut().enumerate() {
        *s = s.rotate(step * ((first + i) as f64 + phase_origin));
    }
}

/// Four samples per step: the phasors are still evaluated per sample (the
/// per-sample `cis` is the bit-identity contract — no phasor recurrence),
/// but the complex rotations run as lane multiplies, mirroring the scalar
/// product formula term-for-term.
#[inline]
fn mix_lanes(samples: &mut [Complex64], step: f64, phase_origin: f64, first: usize) {
    let n = samples.len();
    let mut i = 0usize;
    while i + LANES <= n {
        let c = first + i;
        let w = C64x4 {
            re: crate::simd::F64x4([
                (step * (c as f64 + phase_origin)).cos(),
                (step * ((c + 1) as f64 + phase_origin)).cos(),
                (step * ((c + 2) as f64 + phase_origin)).cos(),
                (step * ((c + 3) as f64 + phase_origin)).cos(),
            ]),
            im: crate::simd::F64x4([
                (step * (c as f64 + phase_origin)).sin(),
                (step * ((c + 1) as f64 + phase_origin)).sin(),
                (step * ((c + 2) as f64 + phase_origin)).sin(),
                (step * ((c + 3) as f64 + phase_origin)).sin(),
            ]),
        };
        let rotated = C64x4::load(samples, i).mul(w);
        rotated.store(samples, i);
        i += LANES;
    }
    mix_scalar(&mut samples[i..], step, phase_origin, first + i);
}

/// Rotates `samples[k]` by
/// `e^{j2π·cfo_hz·((first + k) + phase_origin)/sample_rate_hz}` in place.
///
/// `phase_origin` (in samples) lets callers keep a consistent phase
/// reference across buffers. `first` is the absolute index of
/// `samples[0]` in a longer stream: the phase argument is computed as
/// `(first + k) as f64 + phase_origin`, the very expression a rotation of
/// the whole stream evaluates for that index, so rotating any span of a
/// stream gives the bits the whole-stream rotation gives those samples —
/// even for a fractional `phase_origin`, where re-basing the origin to
/// the span start would not.
pub fn apply_cfo_from(
    samples: &mut [Complex64],
    cfo_hz: f64,
    sample_rate_hz: f64,
    phase_origin: f64,
    first: usize,
) {
    let step = 2.0 * PI * cfo_hz / sample_rate_hz;
    if SIMD_ENABLED {
        mix_lanes(samples, step, phase_origin, first);
    } else {
        mix_scalar(samples, step, phase_origin, first);
    }
}

/// [`apply_cfo_from`] with the phase referenced to the buffer start.
pub fn apply_cfo(samples: &mut [Complex64], cfo_hz: f64, sample_rate_hz: f64) {
    apply_cfo_from(samples, cfo_hz, sample_rate_hz, 0.0, 0);
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
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
    fn preserves_power() {
        let mut buf = vec![Complex64::new(3.0, 4.0); 16];
        apply_cfo(&mut buf, 123e3, 128e6);
        for s in &buf {
            assert!((s.abs() - 5.0).abs() < 1e-12);
        }
    }
}
