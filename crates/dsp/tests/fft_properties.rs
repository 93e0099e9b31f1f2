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
