//! Host-speed calibration.
//!
//! The shared host's speed drifts: on the 2-core reference box, the same
//! single-threaded loop ran anywhere from 1.0× to 1.7× as fast, in phases
//! of seconds to minutes that come from other tenants, not from this
//! process. Raw wall times then follow the host rather than the program.
//! So the benchmark times a fixed reference loop every few milliseconds,
//! next to the units, and scales each measured interval by how fast that
//! loop ran at the time relative to [`NOMINAL_NS`]. A scaled time reads as
//! "milliseconds on the reference box at its nominal speed". The loop
//! uses none of the crates, so no change to them can change its speed.

use crate::clock::now_ns;
use std::hint::black_box;

/// Time of one [`reference_work`] call on the reference box at nominal
/// speed, nanoseconds: the scale every timing is expressed in.
pub const NOMINAL_NS: f64 = 100_000.0;

/// How often the reference loop is re-timed, nanoseconds (the loop then
/// costs under 1 % of the run).
const PERIOD_NS: u64 = 50_000_000;

/// Reference calls per calibration; the fastest one counts, so a
/// preemption during one call does not read as a slow host.
const CALLS: usize = 3;

/// Length of the reference loop's working buffer (32 KiB of `f64`).
const BUF: usize = 4096;

/// A fixed loop of multiplies, adds, integer divisions, strided loads and
/// stores over an L1-resident buffer. The divisor is opaque to the
/// compiler, so the loop's code does not depend on how it is inlined.
fn reference_work(buf: &mut [f64]) -> f64 {
    let n = black_box(buf.len());
    let mut acc = 0.0;
    for round in 0..8 {
        for i in 0..n {
            let x = buf[i];
            let y = buf[(i * 7 + round) % n];
            let z = x * 0.999_9 + y * 1e-4 + 1e-9;
            buf[i] = z;
            acc += z * (i & 15) as f64;
        }
    }
    acc
}

/// The fastest of [`CALLS`] timed reference calls, nanoseconds.
fn best_call_ns(buf: &mut [f64]) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..CALLS {
        let t0 = now_ns();
        black_box(reference_work(black_box(&mut *buf)));
        best = best.min(now_ns() - t0);
    }
    best
}

/// The current host speed, from the most recent calibration.
#[derive(Debug)]
pub struct HostSpeed {
    /// One reference buffer per thread the workload runs on.
    bufs: Vec<Vec<f64>>,
    measured_at: u64,
    scale: f64,
    /// Every calibration's scale, in order.
    pub history: Vec<f64>,
}

impl HostSpeed {
    /// Calibrates once, now, for a workload that keeps `threads` threads
    /// busy: the reference loop then runs on that many threads at once,
    /// and the host speed is their mean, because a multi-threaded unit
    /// runs at the pace of every core it uses.
    pub fn new(threads: usize) -> HostSpeed {
        let buf: Vec<f64> = (0..BUF).map(|i| 1.0 + (i % 97) as f64 * 1e-3).collect();
        let mut host = HostSpeed {
            bufs: vec![buf; threads.max(1)],
            measured_at: 0,
            scale: 1.0,
            history: Vec::new(),
        };
        host.calibrate();
        host
    }

    /// Times the reference loop and updates the scale.
    pub fn calibrate(&mut self) -> f64 {
        let threads = self.bufs.len();
        let (first, rest) = self.bufs.split_first_mut().expect("at least one buffer");
        let mean_ns = std::thread::scope(|s| {
            let others: Vec<_> = rest
                .iter_mut()
                .map(|buf| s.spawn(move || best_call_ns(buf)))
                .collect();
            let mut total = best_call_ns(first);
            for h in others {
                total += h.join().expect("calibration thread panicked");
            }
            total as f64 / threads as f64
        });
        self.measured_at = now_ns();
        self.scale = NOMINAL_NS / mean_ns.max(1.0);
        self.history.push(self.scale);
        self.scale
    }

    /// Re-calibrates when the last calibration is older than the period.
    pub fn refresh(&mut self) {
        if now_ns() - self.measured_at >= PERIOD_NS {
            self.calibrate();
        }
    }

    /// Host speed relative to nominal, which is also the factor from raw
    /// to nominal-speed time: below 1 when the host runs slower.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Scales a raw interval to nominal-speed nanoseconds.
    pub fn nominal_ns(&self, raw_ns: u64) -> u64 {
        (raw_ns as f64 * self.scale).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_gives_a_positive_scale_and_records_it() {
        let mut host = HostSpeed::new(2);
        let s = host.calibrate();
        assert!(s.is_finite() && s > 0.0);
        assert_eq!(host.history.len(), 2);
        assert_eq!(host.nominal_ns(0), 0);
    }
}
