//! Aggregation of per-trial metrics, built on `ssync_dsp::stats`.
//!
//! Scenarios collect raw per-trial values and reduce them here: summary
//! moments, percentiles, empirical CDFs, confidence intervals for the
//! mean (normal approximation or bootstrap) and bootstrap intervals for
//! any other statistic. Everything is deterministic —
//! the bootstrap takes an explicit seed — so aggregated output stays a
//! pure function of the trial values.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssync_dsp::stats;

/// Five-number-style summary of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Population standard deviation (0 for n < 2).
    pub std_dev: f64,
    /// Smallest value (`NaN` for an empty sample).
    pub min: f64,
    /// Largest value (`NaN` for an empty sample).
    pub max: f64,
}

impl Summary {
    /// Summarises `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            n: xs.len(),
            mean: stats::mean(xs),
            std_dev: stats::std_dev(xs),
            min: stats::min_or(xs, f64::NAN),
            max: stats::max_or(xs, f64::NAN),
        }
    }
}

/// The `p`-th percentile (0–100, linear interpolation); re-exported from
/// `ssync_dsp::stats` so scenarios only import the aggregation layer.
///
/// # Panics
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    stats::percentile(xs, p)
}

/// Several percentiles at once, in the order requested.
///
/// # Panics
/// Panics if `xs` is empty or any `p` is outside `[0, 100]`.
pub fn percentiles(xs: &[f64], ps: &[f64]) -> Vec<f64> {
    ps.iter().map(|&p| stats::percentile(xs, p)).collect()
}

/// Empirical CDF `(value, cumulative fraction)` pairs; re-exported from
/// `ssync_dsp::stats`.
pub fn empirical_cdf(xs: &[f64]) -> Vec<(f64, f64)> {
    stats::empirical_cdf(xs)
}

/// A two-sided confidence interval for the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ci {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Ci {
    /// Interval width `hi - lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// The standard-normal quantile for the common two-sided confidence
/// levels; intermediate levels interpolate linearly (plenty for error
/// bars on Monte-Carlo sweeps). Levels above 0.999 are rejected rather
/// than silently clamped to the table's last anchor.
fn z_for(confidence: f64) -> f64 {
    assert!(
        (0.5..=0.999).contains(&confidence),
        "confidence {confidence} must be in [0.5, 0.999]"
    );
    // (two-sided confidence level, z) anchor points.
    const TABLE: [(f64, f64); 6] = [
        (0.50, 0.6745),
        (0.80, 1.2816),
        (0.90, 1.6449),
        (0.95, 1.9600),
        (0.99, 2.5758),
        (0.999, 3.2905),
    ];
    for pair in TABLE.windows(2) {
        let ((c0, z0), (c1, z1)) = (pair[0], pair[1]);
        if confidence <= c1 {
            return z0 + (z1 - z0) * (confidence - c0) / (c1 - c0);
        }
    }
    TABLE[TABLE.len() - 1].1
}

/// Normal-approximation CI for the mean: `mean ± z · s/√n`.
///
/// # Panics
/// Panics on an empty sample or a confidence outside `[0.5, 0.999]`.
pub fn mean_ci_normal(xs: &[f64], confidence: f64) -> Ci {
    assert!(!xs.is_empty(), "confidence interval of empty sample");
    let m = stats::mean(xs);
    let half = z_for(confidence) * stats::std_dev(xs) / (xs.len() as f64).sqrt();
    Ci {
        lo: m - half,
        hi: m + half,
    }
}

/// Bootstrap percentile CI for the mean: resamples `xs` with replacement
/// `resamples` times (seeded, hence deterministic) and takes the matching
/// percentiles of the resampled means.
///
/// # Panics
/// Panics on an empty sample, zero resamples, or a confidence outside
/// `[0.5, 1)`.
pub fn mean_ci_bootstrap(xs: &[f64], confidence: f64, resamples: usize, seed: u64) -> Ci {
    let n = xs.len() as f64;
    bootstrap_ci(xs, confidence, resamples, seed, |resample| {
        let mut sum = 0.0;
        for x in resample {
            sum += x;
        }
        sum / n
    })
}

/// Bootstrap percentile CI for any statistic of a sample (a percentile,
/// a median, a ratio of means): resamples `xs` with replacement
/// `resamples` times (seeded, hence deterministic), evaluates `statistic`
/// on each resample and takes the matching percentiles of the results.
///
/// # Panics
/// Panics on an empty sample, zero resamples, or a confidence outside
/// `[0.5, 1)`.
pub fn bootstrap_ci(
    xs: &[f64],
    confidence: f64,
    resamples: usize,
    seed: u64,
    statistic: impl Fn(&[f64]) -> f64,
) -> Ci {
    assert!(!xs.is_empty(), "confidence interval of empty sample");
    assert!(resamples >= 1, "bootstrap needs at least one resample");
    assert!(
        (0.5..1.0).contains(&confidence),
        "confidence {confidence} must be in [0.5, 1)"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut resample = vec![0.0; xs.len()];
    let mut stats = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        for r in resample.iter_mut() {
            *r = xs[rng.gen_range(0..xs.len())];
        }
        stats.push(statistic(&resample));
    }
    let tail = (1.0 - confidence) / 2.0 * 100.0;
    Ci {
        lo: stats::percentile(&stats, tail),
        hi: stats::percentile(&stats, 100.0 - tail),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_sample() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert!(s.min.is_nan() && s.max.is_nan());
    }

    #[test]
    fn z_values_hit_anchors() {
        assert!((z_for(0.95) - 1.96).abs() < 1e-9);
        assert!((z_for(0.90) - 1.6449).abs() < 1e-9);
        assert!((z_for(0.999) - 3.2905).abs() < 1e-9);
        // Interpolated level sits between its neighbours.
        let z = z_for(0.93);
        assert!(z > 1.6449 && z < 1.96);
    }

    #[test]
    #[should_panic(expected = "must be in [0.5, 0.999]")]
    fn z_rejects_levels_beyond_the_table() {
        let _ = z_for(0.9995);
    }

    #[test]
    fn normal_ci_brackets_mean_and_tightens() {
        let xs: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        let ci = mean_ci_normal(&xs, 0.95);
        let m = ssync_dsp::stats::mean(&xs);
        assert!(ci.lo < m && m < ci.hi);
        let wider = mean_ci_normal(&xs[..25], 0.95);
        assert!(wider.width() > ci.width());
    }

    #[test]
    fn bootstrap_ci_is_deterministic_and_sane() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 3.0 + 10.0).collect();
        let a = mean_ci_bootstrap(&xs, 0.95, 200, 7);
        let b = mean_ci_bootstrap(&xs, 0.95, 200, 7);
        assert_eq!(a, b);
        let m = ssync_dsp::stats::mean(&xs);
        assert!(a.lo <= m && m <= a.hi);
        assert_ne!(a, mean_ci_bootstrap(&xs, 0.95, 200, 8));
    }

    #[test]
    fn bootstrap_ci_of_a_percentile_brackets_it() {
        let xs: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        let p95 = percentile(&xs, 95.0);
        let ci = bootstrap_ci(&xs, 0.95, 400, 3, |r| percentile(r, 95.0));
        assert!(ci.lo <= p95 && p95 <= ci.hi, "{ci:?} vs {p95}");
        assert!(ci.hi <= 199.0 && ci.lo >= 170.0, "{ci:?}");
    }
}
