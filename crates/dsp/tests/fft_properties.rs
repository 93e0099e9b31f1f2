//! Property tests for the planned FFT: the plan must behave like a linear
//! unitary transform at every supported size.

use proptest::prelude::*;
use ssync_dsp::{Complex64, FftPlan};

const SIZES: [usize; 7] = [4, 8, 16, 32, 64, 128, 256];

fn max_dist(a: &[Complex64], b: &[Complex64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x.dist(*y)).fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // inverse(forward(x)) recovers the signal (the plan normalises the
    // inverse by 1/N).
    #[test]
    fn forward_inverse_roundtrip(
        n in prop::sample::select(SIZES.to_vec()),
        raw in prop::collection::vec(-10.0f64..10.0, 512),
    ) {
        let x: Vec<Complex64> = raw[..2 * n]
            .chunks(2)
            .map(|p| Complex64::new(p[0], p[1]))
            .collect();
        let plan = FftPlan::new(n);
        let back = plan.inverse_to_vec(&plan.forward_to_vec(&x));
        let err = max_dist(&back, &x);
        prop_assert!(err < 1e-10 * n as f64, "n={n} err={err}");
    }
}

/// FNV-1a over little-endian words.
fn fnv(hash: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x100000001b3);
    }
}

/// Forward and inverse transforms at every size 2…1024 pinned to exact
/// bits. The input is a fixed integer-seeded sequence, so the hash
/// depends on nothing but the butterfly arithmetic and its order: every
/// build must reproduce it.
#[test]
fn transform_bits_are_build_invariant() {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
    };
    let mut hash = 0xcbf29ce484222325u64;
    let mut n = 2usize;
    while n <= 1024 {
        let plan = FftPlan::new(n);
        let x: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();
        for inverse in [false, true] {
            let mut buf = x.clone();
            if inverse {
                plan.inverse(&mut buf);
            } else {
                plan.forward(&mut buf);
            }
            for v in &buf {
                fnv(&mut hash, v.re.to_bits());
                fnv(&mut hash, v.im.to_bits());
            }
        }
        n <<= 1;
    }
    assert_eq!(hash, PINNED_FFT_HASH, "FFT bits diverged");
}

/// Pinned from the sequence above.
const PINNED_FFT_HASH: u64 = 2545331256902814119;
