//! Property tests for the planned FFT: the real-input split-radix path must
//! agree with the complex transform on arbitrary real inputs, and the plan
//! must behave like a linear unitary transform at every supported size.

use proptest::prelude::*;
use ssync_dsp::{Complex64, FftPlan};

const SIZES: [usize; 7] = [4, 8, 16, 32, 64, 128, 256];

fn as_complex(xs: &[f64]) -> Vec<Complex64> {
    xs.iter().map(|&v| Complex64::real(v)).collect()
}

fn max_dist(a: &[Complex64], b: &[Complex64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x.dist(*y)).fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The real-input fast path computes the same spectrum as feeding the
    // complex transform a zero-imaginary copy of the signal.
    #[test]
    fn real_forward_matches_complex_fft(
        n in prop::sample::select(SIZES.to_vec()),
        raw in prop::collection::vec(-1e3f64..1e3, 256),
    ) {
        let x = &raw[..n];
        let plan = FftPlan::new(n);
        let reference = plan.forward_to_vec(&as_complex(x));
        let mut real_out = vec![Complex64::ZERO; n];
        plan.forward_real_into(x, &mut real_out);
        let err = max_dist(&real_out, &reference);
        // Scale-aware bound: inputs up to 1e3 accumulate rounding across
        // log2(n) stages.
        prop_assert!(err < 1e-9 * n as f64, "n={n} err={err}");
    }

    // Real input ⇒ conjugate-symmetric spectrum (X[N−k] = X*[k]); the DC and
    // Nyquist bins are real.
    #[test]
    fn real_forward_spectrum_conjugate_symmetric(
        n in prop::sample::select(SIZES.to_vec()),
        raw in prop::collection::vec(-10.0f64..10.0, 256),
    ) {
        let x = &raw[..n];
        let plan = FftPlan::new(n);
        let mut out = vec![Complex64::ZERO; n];
        plan.forward_real_into(x, &mut out);
        prop_assert!(out[0].im.abs() < 1e-9, "DC bin not real: {}", out[0].im);
        prop_assert!(out[n / 2].im.abs() < 1e-9, "Nyquist bin not real");
        for k in 1..n / 2 {
            let d = out[n - k].dist(out[k].conj());
            prop_assert!(d < 1e-9, "bin {k} asymmetry {d}");
        }
    }

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

    // Real-path linearity: FFT(a·x + b·y) ≈ a·FFT(x) + b·FFT(y) through the
    // real-input entry point.
    #[test]
    fn real_forward_is_linear(
        n in prop::sample::select(SIZES.to_vec()),
        raw in prop::collection::vec(-10.0f64..10.0, 512),
        a in -3.0f64..3.0,
        b in -3.0f64..3.0,
    ) {
        let x = &raw[..n];
        let y = &raw[n..2 * n];
        let combo: Vec<f64> = x.iter().zip(y).map(|(&u, &v)| a * u + b * v).collect();
        let plan = FftPlan::new(n);
        let mut fx = vec![Complex64::ZERO; n];
        let mut fy = vec![Complex64::ZERO; n];
        let mut fc = vec![Complex64::ZERO; n];
        plan.forward_real_into(x, &mut fx);
        plan.forward_real_into(y, &mut fy);
        plan.forward_real_into(&combo, &mut fc);
        for k in 0..n {
            let expect = fx[k] * Complex64::real(a) + fy[k] * Complex64::real(b);
            prop_assert!(fc[k].dist(expect) < 1e-8 * n as f64, "bin {k}");
        }
    }
}
