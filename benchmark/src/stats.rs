//! Summaries of a timed phase: per-unit percentiles, throughput, memory.

use crate::clock::now_ns;
use crate::host::HostSpeed;

/// One reported metric: name, value as measured, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit string (`ms`, `s`, `1/s`, `count`, …).
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The closed loop's record: one duration per unit, plus the units whose
/// output check failed. Times are kept both raw and scaled to the nominal
/// host speed ([`HostSpeed`]); the metrics use the scaled ones.
#[derive(Debug, Clone, Default)]
pub struct UnitLog {
    /// Per-unit time at nominal host speed, nanoseconds, in issue order.
    pub unit_ns: Vec<u64>,
    /// Per-unit raw wall time, nanoseconds, in issue order.
    pub raw_ns: Vec<u64>,
    /// Units whose output failed its check.
    pub failed: u64,
    /// Time the loop spent issuing units (calibration excluded), at
    /// nominal host speed, nanoseconds.
    pub wall_ns: u64,
    /// Raw wall time of the loop, calibration included, nanoseconds.
    pub raw_wall_ns: u64,
}

impl UnitLog {
    /// Units attempted.
    pub fn attempted(&self) -> u64 {
        self.unit_ns.len() as u64
    }

    /// Appends another phase's units and times.
    pub fn extend(&mut self, other: UnitLog) {
        self.unit_ns.extend(other.unit_ns);
        self.raw_ns.extend(other.raw_ns);
        self.failed += other.failed;
        self.wall_ns += other.wall_ns;
        self.raw_wall_ns += other.raw_wall_ns;
    }

    /// Median unit time at nominal host speed, milliseconds.
    pub fn p50_ms(&self) -> f64 {
        percentile_ns(&self.unit_ns, 50.0) * 1e-6
    }

    /// Median raw unit time, milliseconds.
    pub fn raw_p50_ms(&self) -> f64 {
        percentile_ns(&self.raw_ns, 50.0) * 1e-6
    }

    /// Units completed per second of the loop at nominal host speed.
    pub fn units_per_s(&self) -> f64 {
        self.attempted() as f64 / (self.wall_ns.max(1) as f64 * 1e-9)
    }

    /// Units completed per raw wall-clock second of the loop.
    pub fn raw_units_per_s(&self) -> f64 {
        self.attempted() as f64 / (self.raw_wall_ns.max(1) as f64 * 1e-9)
    }

    /// The tail percentile [`tail_percentile`] picks for this sample (at
    /// most `cap`), and the unit time at it, milliseconds.
    pub fn tail_ms(&self, cap: f64) -> (f64, f64) {
        let p = tail_percentile(self.unit_ns.len(), cap);
        (p, percentile_ns(&self.unit_ns, p) * 1e-6)
    }
}

/// Issues units back to back from one client until `seconds` have passed
/// and at least `min_units` units have run. `unit(i)` runs the i-th unit,
/// times the call it stands for itself (input preparation and output
/// checks stay outside that bracket), and returns `(nanoseconds, output
/// passed its check)`. Between units, `host` re-times its reference loop
/// when its period has passed; that time is not the loop's.
pub fn closed_loop(
    seconds: f64,
    min_units: u64,
    host: &mut HostSpeed,
    mut unit: impl FnMut(u64) -> (u64, bool),
) -> UnitLog {
    let mut log = UnitLog::default();
    let start = now_ns();
    let deadline = start + (seconds.max(0.0) * 1e9) as u64;
    let mut i = 0u64;
    loop {
        host.refresh();
        let t0 = now_ns();
        let (ns, ok) = unit(i);
        let t1 = now_ns();
        log.unit_ns.push(host.nominal_ns(ns));
        log.raw_ns.push(ns);
        log.wall_ns += host.nominal_ns(t1 - t0);
        log.failed += u64::from(!ok);
        i += 1;
        if t1 >= deadline && i >= min_units {
            log.raw_wall_ns = t1 - start;
            return log;
        }
    }
}

/// Tracing overhead, percent: traced over untraced time, summed over the
/// units both logs ran. Unit `i` of either loop is the same input, so the
/// comparison is unit for unit.
pub fn overhead_pct(plain: &UnitLog, traced: &UnitLog) -> f64 {
    let n = plain.unit_ns.len().min(traced.unit_ns.len());
    let plain_ns: u64 = plain.unit_ns[..n].iter().sum();
    let traced_ns: u64 = traced.unit_ns[..n].iter().sum();
    100.0 * (traced_ns as f64 - plain_ns as f64) / plain_ns.max(1) as f64
}

/// Times one call: `(nanoseconds, result)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = now_ns();
    let out = f();
    (now_ns() - t0, out)
}

/// The tail percentiles the benchmark reports, highest first.
pub const TAIL_LADDER: [f64; 3] = [99.9, 99.0, 90.0];

/// The highest percentile of [`TAIL_LADDER`], at most `cap`, that leaves
/// at least ten samples beyond it in a sample of `n` (the median when none
/// does). A fixed ladder keeps the reported percentile the same from run
/// to run when the unit count moves a little; the cap, set per workload
/// with room to spare, keeps a faster program from switching its workload
/// to a higher percentile.
pub fn tail_percentile(n: usize, cap: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| n - rank(n, p) >= 10)
        .unwrap_or(50.0)
}

/// The nearest rank (1-based) of percentile `p` among `n` samples. The
/// small slack keeps `p · n / 100` that is whole in decimal (99.9 % of
/// 10 000) from rounding up a rank in binary.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of unsorted nanosecond samples (0 if empty).
pub fn percentile_ns(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[rank(sorted.len(), p) - 1] as f64
}

/// Median of unsorted values (NaN if empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`), or 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&s, 50.0), 50.0);
        assert_eq!(percentile_ns(&s, 99.0), 99.0);
        assert_eq!(percentile_ns(&s, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(50, 99.9), 50.0);
        assert_eq!(tail_percentile(100, 99.9), 90.0);
        assert_eq!(tail_percentile(999, 99.9), 90.0);
        assert_eq!(tail_percentile(1000, 99.9), 99.0);
        assert_eq!(tail_percentile(10_000, 99.9), 99.9);
        assert_eq!(tail_percentile(10_000, 99.0), 99.0);
    }

    #[test]
    fn closed_loop_runs_at_least_once() {
        let mut host = HostSpeed::new(1);
        let log = closed_loop(0.0, 0, &mut host, |_| (5, true));
        assert_eq!(log.attempted(), 1);
        assert_eq!((log.failed, log.raw_ns[0]), (0, 5));
        let log = closed_loop(0.0, 3, &mut host, |i| (5, i != 1));
        assert_eq!((log.attempted(), log.failed), (3, 1));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
