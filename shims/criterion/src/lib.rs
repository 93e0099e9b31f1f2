//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! Implements the subset this workspace's benches use — [`Criterion`] with
//! builder-style config, [`Bencher::iter`] / [`Bencher::iter_batched`], and
//! the [`criterion_group!`] / [`criterion_main!`] macros. Instead of
//! criterion's statistical sampling it times a fixed number of iterations
//! per sample and prints median per-iteration wall-clock time. Use
//! `[[bench]] harness = false` in the consuming crate, as with real
//! criterion.

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when all of the workspace's unsafe code sits in the fenced
// kernel tiers that `ssync_dsp::simd::tier()` dispatches: ssync_dsp's AVX2
// FFT and CFO-mixer kernels and its AVX2 and AVX-512 compiled twins, and
// ssync_phy's AVX2 and AVX-512 Viterbi kernels and AVX2 demap kernel (see
// DESIGN.md, "The SIMD layer and kernel tiers", and ssync_lint's
// `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimiser from deleting benched work.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// How `iter_batched` amortises setup cost. The shim times every routine
/// call individually, so the variants only document intent.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// One benchmark's timing summary, as collected by [`Criterion::bench_function`].
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Median per-iteration wall-clock time, nanoseconds.
    pub median_ns: f64,
    /// Number of timed samples behind the median.
    pub samples: usize,
}

/// Benchmark harness entry point; collects per-benchmark timings.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            warm_up_time: Duration::from_millis(100),
            measurement_time: Duration::from_millis(500),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Sets how many timed samples to take per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the untimed warm-up budget per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Sets the timed measurement budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        // Warm-up pass: run untimed until the warm-up budget elapses.
        let warm_start = Instant::now();
        let mut bencher = Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        };
        while warm_start.elapsed() < self.warm_up_time {
            f(&mut bencher);
        }

        // Timed samples.
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.sample_size);
        let measure_start = Instant::now();
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                elapsed: Duration::ZERO,
                iters: 0,
            };
            f(&mut b);
            if b.iters > 0 {
                per_iter.push(b.elapsed.as_secs_f64() / b.iters as f64);
            }
            if measure_start.elapsed() > self.measurement_time {
                break;
            }
        }
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let median = per_iter.get(per_iter.len() / 2).copied().unwrap_or(0.0);
        println!(
            "{name:<40} median {:>12.1} ns/iter  ({} samples)",
            median * 1e9,
            per_iter.len()
        );
        self.results.push(BenchResult {
            name: name.to_string(),
            median_ns: median * 1e9,
            samples: per_iter.len(),
        });
        self
    }

    /// Every result collected so far, in run order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// A machine-readable summary of the collected results — the payload
    /// committed as a `BENCH_*.json` baseline and uploaded as a CI
    /// artifact. Upstream criterion writes per-benchmark JSON under
    /// `target/criterion/`; the shim exposes one flat document instead.
    pub fn summary_json(&self, suite: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"suite\": \"{suite}\",\n"));
        out.push_str("  \"unit\": \"ns_per_iter_median\",\n");
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"median_ns\": {:.1}, \"samples\": {} }}{comma}\n",
                r.name, r.median_ns, r.samples
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Passed to benchmark closures; times the routine they hand it.
#[derive(Debug)]
pub struct Bencher {
    elapsed: Duration,
    iters: u64,
}

/// Calls timed per `Bencher::iter*` invocation, amortising the ~tens-of-ns
/// `Instant::now()` bracket over a batch so sub-microsecond routines are
/// not dominated by clock-read overhead.
const CALLS_PER_SAMPLE: u64 = 64;

impl Bencher {
    /// Times a batch of calls of `routine` under one clock bracket.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..CALLS_PER_SAMPLE {
            black_box(routine());
        }
        self.elapsed += start.elapsed();
        self.iters += CALLS_PER_SAMPLE;
    }

    /// Times `routine` on inputs built by `setup`; setup time is excluded
    /// by pausing the clock around each setup call.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        for _ in 0..CALLS_PER_SAMPLE {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.elapsed += start.elapsed();
        }
        self.iters += CALLS_PER_SAMPLE;
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
