//! Simulation time in femtoseconds.
//!
//! A femtosecond base makes every quantity in the reproduction exactly
//! representable as an integer: the 128 Msps WiGLAN sample is 7 812 500 fs,
//! the 20 Msps 802.11 sample 50 000 000 fs, a SIFS 10 000 000 000 fs. A
//! `u64` of femtoseconds spans ~5.1 hours, far beyond any experiment here.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute simulation time (femtoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A non-negative time span (femtoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// Time zero.
    pub const ZERO: Time = Time(0);

    /// Builds from seconds.
    pub fn from_secs_f64(s: f64) -> Time {
        assert!(
            s >= 0.0 && s.is_finite(),
            "time must be finite and non-negative"
        );
        Time((s * 1e15).round() as u64)
    }

    /// This instant in seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 * 1e-15
    }

    /// Saturating difference: `self − earlier`, zero if `earlier` is later.
    pub fn saturating_since(&self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The sample index this instant falls in, at `sample_period_fs`.
    pub fn sample_index(&self, sample_period_fs: u64) -> u64 {
        self.0 / sample_period_fs
    }

    /// Rounds up to the next sample-grid instant (a transmitter can only
    /// start on its own clock ticks — the quantisation SourceSync's §4.3
    /// compensation has to live with).
    pub fn ceil_to_sample(&self, sample_period_fs: u64) -> Time {
        Time(self.0.div_ceil(sample_period_fs) * sample_period_fs)
    }

    /// Rounds to the *nearest* sample-grid instant (what a scheduler with a
    /// fractional target does to halve the worst-case quantisation error).
    pub fn round_to_sample(&self, sample_period_fs: u64) -> Time {
        let rem = self.0 % sample_period_fs;
        // `rem >= period − rem` ⟺ `2·rem >= period`, but cannot overflow:
        // `rem < period` guarantees the subtraction is in range, while the
        // doubled form wraps for periods above 2⁶³ fs.
        if rem >= sample_period_fs - rem {
            Time(self.0 - rem + sample_period_fs)
        } else {
            Time(self.0 - rem)
        }
    }
}

impl Duration {
    /// Zero span.
    pub const ZERO: Duration = Duration(0);

    /// Builds from seconds.
    pub fn from_secs_f64(s: f64) -> Duration {
        assert!(
            s >= 0.0 && s.is_finite(),
            "duration must be finite and non-negative"
        );
        Duration((s * 1e15).round() as u64)
    }

    /// Builds from a whole number of samples.
    pub fn from_samples(n: u64, sample_period_fs: u64) -> Duration {
        Duration(n * sample_period_fs)
    }

    /// This span in seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 * 1e-15
    }

    /// This span in (possibly fractional) samples.
    pub fn as_samples_f64(&self, sample_period_fs: u64) -> f64 {
        self.0 as f64 / sample_period_fs as f64
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    /// Panics on underflow (a span cannot be negative); use
    /// [`Time::saturating_since`] when order is uncertain.
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("negative time span"))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} µs", self.0 as f64 * 1e-9)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} µs", self.0 as f64 * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let t = Time::from_secs_f64(1e-6);
        assert_eq!(t.0, 1_000_000_000);
        assert!((t.as_secs_f64() - 1e-6).abs() < 1e-20);
        let d = Duration::from_secs_f64(117.1875e-9);
        assert_eq!(d.0, 117_187_500);
    }

    #[test]
    fn sample_grid_math() {
        let period = 7_812_500u64; // 128 Msps
        let t = Time(3 * period + 1);
        assert_eq!(t.sample_index(period), 3);
        assert_eq!(t.ceil_to_sample(period), Time(4 * period));
        // Already on the grid: unchanged.
        assert_eq!(Time(4 * period).ceil_to_sample(period), Time(4 * period));
    }

    #[test]
    fn round_to_sample_picks_nearest_tick() {
        let period = 50_000_000u64; // 20 Msps
        assert_eq!(Time(0).round_to_sample(period), Time(0));
        assert_eq!(Time(period).round_to_sample(period), Time(period));
        // Just below the midpoint rounds down; at and above rounds up.
        assert_eq!(Time(period / 2 - 1).round_to_sample(period), Time(0));
        assert_eq!(Time(period / 2).round_to_sample(period), Time(period));
        assert_eq!(Time(period / 2 + 1).round_to_sample(period), Time(period));
    }

    #[test]
    fn round_to_sample_survives_giant_periods() {
        // Sample periods above 2⁶³ fs used to overflow the doubled-remainder
        // comparison (`rem * 2` wraps), silently rounding *down* past the
        // midpoint. The largest representable period is the worst case.
        let period = u64::MAX;
        let above_mid = period / 2 + 5; // rem·2 wraps to 9 under the old code
        assert_eq!(Time(above_mid).round_to_sample(period), Time(period));
        let below_mid = period / 2; // rem·2 = period − 1: rounds down
        assert_eq!(Time(below_mid).round_to_sample(period), Time(0));
        // A period of exactly 2⁶³ fs sits on the overflow boundary.
        let p63 = 1u64 << 63;
        assert_eq!(Time(p63 / 2).round_to_sample(p63), Time(p63));
        assert_eq!(Time(p63 / 2 - 1).round_to_sample(p63), Time(0));
    }

    #[test]
    fn arithmetic() {
        let a = Time(100);
        let b = a + Duration(50);
        assert_eq!(b, Time(150));
        assert_eq!(b - a, Duration(50));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(Duration(30) + Duration(12), Duration(42));
        assert_eq!(Duration(30) - Duration(12), Duration(18));
    }

    #[test]
    #[should_panic(expected = "negative time span")]
    fn negative_span_panics() {
        let _ = Time(10) - Time(20);
    }

    #[test]
    fn samples_f64() {
        let d = Duration::from_samples(15, 7_812_500);
        assert_eq!(d, Duration(117_187_500));
        assert!((d.as_samples_f64(7_812_500) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Time(10_000_000_000)), "10.000 µs");
        assert_eq!(format!("{}", Duration(500_000_000)), "0.500 µs");
    }
}
