//! Statistics helpers shared by the experiments: dB conversions, percentiles,
//! empirical CDFs, and EVM→SNR.

/// Converts a linear power ratio to decibels. Returns `-inf` for 0.
#[inline]
pub fn db_from_linear(p: f64) -> f64 {
    10.0 * p.log10()
}

/// Converts decibels to a linear power ratio.
#[inline]
pub fn linear_from_db(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; 0 for fewer than two values.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Smallest non-NaN value of `xs`, or `empty` when there is none.
///
/// Bit-defined, unlike a fold over `f64::min`, which leaves the sign of a
/// zero result unspecified: a value replaces the running minimum only if
/// it compares strictly less, so among equal values (`0.0` and `-0.0`
/// included) the first one seen wins. NaNs are skipped.
pub fn min_or(xs: &[f64], empty: f64) -> f64 {
    first_extremum(xs, empty, |x, best| x < best)
}

/// Largest non-NaN value of `xs`, or `empty` when there is none; ties
/// and NaNs are handled as in [`min_or`].
pub fn max_or(xs: &[f64], empty: f64) -> f64 {
    first_extremum(xs, empty, |x, best| x > best)
}

fn first_extremum(xs: &[f64], empty: f64, beats: impl Fn(f64, f64) -> bool) -> f64 {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .reduce(|best, x| if beats(x, best) { x } else { best })
        .unwrap_or(empty)
}

/// The `p`-th percentile (0–100) with linear interpolation between order
/// statistics, matching the common "linear" (type 7) definition.
///
/// # Panics
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// An empirical CDF: sorted values paired with cumulative fractions
/// `(i+1)/n`, ready to print as the paper's "Fraction of clients" curves.
pub fn empirical_cdf(xs: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in CDF input"));
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// Signal-to-noise ratio implied by an error vector magnitude measurement:
/// `SNR = signal_power / error_power`, in dB.
///
/// Returns `+inf` when the error power is zero.
pub fn snr_db_from_evm(signal_power: f64, error_power: f64) -> f64 {
    if error_power <= 0.0 {
        f64::INFINITY
    } else {
        db_from_linear(signal_power / error_power)
    }
}

/// Unwraps a sequence of phases (radians) so consecutive samples never jump
/// by more than π — the operation behind the paper's Fig. 5 "unwrapped
/// channel phase" plots and the slope estimator.
pub fn unwrap_phases(phases: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(phases.len());
    unwrap_phases_into(phases, &mut out);
    out
}

/// [`unwrap_phases`] into a caller-owned buffer (cleared and refilled), so
/// a per-frame caller reuses its capacity.
pub fn unwrap_phases_into(phases: &[f64], out: &mut Vec<f64>) {
    out.clear();
    let mut offset = 0.0;
    for (i, &p) in phases.iter().enumerate() {
        if i > 0 {
            let prev = out[i - 1] - offset + offset; // previous unwrapped value
            let mut diff = p + offset - prev;
            while diff > std::f64::consts::PI {
                offset -= 2.0 * std::f64::consts::PI;
                diff -= 2.0 * std::f64::consts::PI;
            }
            while diff < -std::f64::consts::PI {
                offset += 2.0 * std::f64::consts::PI;
                diff += 2.0 * std::f64::consts::PI;
            }
        }
        out.push(p + offset);
    }
}

/// Ordinary least-squares slope of `y` against `x`.
///
/// # Panics
/// Panics if the slices differ in length or have fewer than two points.
pub fn linear_regression_slope(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "regression inputs differ in length");
    assert!(x.len() >= 2, "regression needs at least two points");
    let mx = mean(x);
    let my = mean(y);
    let mut num = 0.0;
    let mut den = 0.0;
    for (xi, yi) in x.iter().zip(y) {
        num += (xi - mx) * (yi - my);
        den += (xi - mx) * (xi - mx);
    }
    assert!(den > 0.0, "regression x values are all identical");
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn db_roundtrip() {
        for &db in &[-20.0, -3.0, 0.0, 3.0, 10.0, 30.0] {
            assert!((db_from_linear(linear_from_db(db)) - db).abs() < 1e-12);
        }
        assert_eq!(db_from_linear(0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn percentile_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 25.0), 2.0);
        // Interpolation between order statistics.
        assert!((percentile(&[1.0, 2.0], 50.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&a), 3.0);
        assert_eq!(
            percentile(&a, 95.0),
            percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 95.0)
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let xs = [3.0, 1.0, 2.0, 2.0];
        let cdf = empirical_cdf(&xs);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn unwrap_recovers_linear_phase() {
        // A steep linear phase that wraps several times.
        let true_phases: Vec<f64> = (0..50).map(|i| 0.9 * i as f64).collect();
        let wrapped: Vec<f64> = true_phases
            .iter()
            .map(|p| {
                let mut v = p % (2.0 * PI);
                if v > PI {
                    v -= 2.0 * PI;
                }
                v
            })
            .collect();
        let unwrapped = unwrap_phases(&wrapped);
        // Unwrapped should differ from the truth by a constant multiple of 2π.
        let d0 = unwrapped[0] - true_phases[0];
        for (u, t) in unwrapped.iter().zip(&true_phases) {
            assert!((u - t - d0).abs() < 1e-9);
        }
    }

    #[test]
    fn regression_recovers_slope() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.5 * v - 2.0).collect();
        assert!((linear_regression_slope(&x, &y) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn evm_snr() {
        assert!((snr_db_from_evm(1.0, 0.1) - 10.0).abs() < 1e-12);
        assert_eq!(snr_db_from_evm(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn extrema_keep_the_first_of_equal_values_bit_for_bit() {
        let bits = |xs: &[f64]| {
            (
                min_or(xs, f64::NAN).to_bits(),
                max_or(xs, f64::NAN).to_bits(),
            )
        };
        let (pos, neg) = (0.0f64.to_bits(), (-0.0f64).to_bits());
        assert_eq!(bits(&[0.0, -0.0]), (pos, pos));
        assert_eq!(bits(&[-0.0, 0.0]), (neg, neg));
        let nan = f64::NAN;
        assert_eq!(bits(&[nan, -0.0, nan, 0.0, nan]), (neg, neg));
        assert_eq!(
            bits(&[nan, 2.0, nan, 0.0, -1.0, nan, -0.0, 3.0, nan]),
            ((-1.0f64).to_bits(), 3.0f64.to_bits())
        );
    }

    #[test]
    fn extrema_of_no_values_fall_back_to_the_empty_value() {
        assert_eq!(min_or(&[], f64::INFINITY), f64::INFINITY);
        assert_eq!(
            max_or(&[f64::NAN, f64::NAN], f64::NEG_INFINITY),
            f64::NEG_INFINITY
        );
        assert!(min_or(&[f64::NAN], f64::NAN).is_nan());
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }
}
