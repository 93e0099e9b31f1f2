//! The SourceSync reproduction's benchmark: three closed-loop workloads
//! (`rx`, `joint`, `city`) that drive the crates only through their public
//! functions, time each call from this package, check every output, and
//! report end-to-end metrics (untraced run) or per-layer metrics (traced
//! run). See `README.md` for why each workload exists and which metric
//! should move with which layer.

pub mod city;
pub mod clock;
pub mod host;
pub mod joint;
pub mod meta;
pub mod rx;
pub mod stats;
pub mod trace;

use host::HostSpeed;
use stats::{median, overhead_pct, peak_rss_mb, timed, Metric, UnitLog};
use std::fmt::Write as _;
use trace::Recorder;

/// How much input a workload builds: the benchmark's size, or the small
/// one the package's own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// A few units' worth, for smoke tests in debug builds.
    Smoke,
}

/// The workloads, by the names `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The receive chain over a capture pool.
    Rx,
    /// SourceSync joint sessions with delay compensation and tracking.
    Joint,
    /// Event-driven city testbed on `par_map`.
    City,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Rx, Workload::Joint, Workload::City];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Rx => "rx",
            Workload::Joint => "joint",
            Workload::City => "city",
        }
    }

    /// The highest tail percentile the workload reports. A run of the
    /// benchmark's length leaves several times ten units beyond it (rx
    /// ~50k units, joint ~4.5k, city ~180 at 30 s). A cap sits where the
    /// tail still spans several inputs: rx's p99.9 rests on ~50 units,
    /// about as many as the host's preemptions in a run, and joint's p99
    /// falls inside the one or two costliest of 42 placements, so both
    /// would follow the host or the seed more than the program.
    pub fn tail_cap(self) -> f64 {
        match self {
            Workload::Rx => 99.0,
            Workload::Joint | Workload::City => 90.0,
        }
    }

    /// Threads a unit keeps busy: `city` runs `par_map` with one worker
    /// per core, the others run on the calling thread.
    pub fn threads(self) -> usize {
        match self {
            Workload::City => meta::nproc(),
            Workload::Rx | Workload::Joint => 1,
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str =
    "usage: ssync-perfbench --workload <rx|joint|city> --seed <n> --seconds <s> --trace <0|1>";

/// Parses `--workload W --seed N --seconds S --trace 0|1` (all required).
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Units attempted.
    pub attempted: u64,
    /// Units whose output check failed.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn add_log(&mut self, log: &UnitLog) {
        self.attempted += log.attempted();
        self.failed += log.failed;
    }

    /// Every unit ran and passed its output check.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Runs the benchmark for `args`.
pub fn run(args: &Args, size: Size) -> Report {
    if args.trace {
        return traced(args, size);
    }
    let (w, seed, seconds) = (args.workload, args.seed, args.seconds);
    match w {
        Workload::Rx => end_to_end(w, seconds, || rx::setup(seed, size), rx::run),
        Workload::Joint => end_to_end(w, seconds, || joint::setup(seed, size), joint::run),
        Workload::City => end_to_end(
            w,
            seconds,
            || city::setup(seed, size, w.threads()),
            city::run,
        ),
    }
}

/// The end-to-end run. The [`SETUP_REPEATS`] set-ups are spread over the
/// run instead of bunched at its start: set up, run a segment of the
/// closed loop, set up again from scratch (the previous inputs dropped
/// first), and so on, ending with a set-up. The segments add up to
/// `seconds` and continue one unit sequence. Every time is scaled to the
/// nominal host speed ([`host`]); each set-up by the mean of the scales
/// measured just before and just after it.
fn end_to_end<I>(
    workload: Workload,
    seconds: f64,
    setup: impl Fn() -> I,
    run: impl Fn(&mut I, f64, u64, &mut HostSpeed) -> UnitLog,
) -> Report {
    let segments = SETUP_REPEATS - 1;
    let mut host = HostSpeed::new(workload.threads());
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut raw_setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut log = UnitLog::default();
    let mut inputs = None;
    for k in 0..SETUP_REPEATS {
        drop(inputs.take());
        let before = host.calibrate();
        let (ns, built) = timed(&setup);
        let after = host.calibrate();
        raw_setup_s.push(ns as f64 * 1e-9);
        setup_s.push(ns as f64 * 1e-9 * 0.5 * (before + after));
        let built = inputs.insert(built);
        if k < segments {
            let first = log.attempted();
            log.extend(run(built, seconds / segments as f64, first, &mut host));
        }
    }
    let (p, tail_ms) = log.tail_ms(workload.tail_cap());
    let mut report = Report::new();
    report.add_log(&log);
    report.notes.push(format!(
        "unit_tail_ms is p{p} of {} units; setup_s is the median of {SETUP_REPEATS} set-ups",
        log.attempted()
    ));
    report.notes.push(format!(
        "host speed vs nominal: median {:.3} over {} calibrations; raw wall-clock figures: \
         setup_s {:.4}, units_per_s {:.2}, unit_p50_ms {:.4}",
        median(&host.history),
        host.history.len(),
        median(&raw_setup_s),
        log.raw_units_per_s(),
        log.raw_p50_ms(),
    ));
    report.metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("units_per_s", log.units_per_s(), "1/s"),
        Metric::new("unit_p50_ms", log.p50_ms(), "ms"),
        Metric::new("unit_tail_ms", tail_ms, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    report
}

/// Spans whose mean self time the traced run reports as `self_us.<span>`.
pub const SELF_TIME_SPANS: [&str; 12] = [
    "rx.unit",
    "phy.receive_with",
    "phy.check_crc",
    "mac.from_bytes",
    "joint.unit",
    "core.transmit_with",
    "core.join_with",
    "core.decode_with",
    "city.unit",
    "city.replay",
    "sim.subnetwork",
    "testbed.run_transfer",
];

/// The traced run. Each per-layer metric is measured on the workload that
/// isolates its layer, so a traced run drives all three workloads
/// (`--workload` only names the run): set-up once, then half the
/// workload's share of `--seconds` traced and half untraced, on the same
/// inputs. The traced loop goes first, so the pass it counts starts from
/// the set-up state. Traced minus untraced time, unit for unit, is the
/// tracing overhead.
fn traced(args: &Args, size: Size) -> Report {
    let share = args.seconds / (2.0 * Workload::ALL.len() as f64);
    let mut speeds = Vec::new();
    let mut rec = Recorder::new();
    let mut report = Report::new();
    let mut overhead = Vec::new();
    for w in Workload::ALL {
        let mut host = HostSpeed::new(w.threads());
        rec.set_unit(None);
        let metrics = &mut report.metrics;
        let (plain, with_spans) = match w {
            Workload::Rx => {
                let span = rec.begin("rx.setup");
                let mut inputs = rx::setup(args.seed, size);
                rec.end(span);
                let traced = rx::run_traced(&mut inputs, share, &mut host, &mut rec, metrics);
                let plain = rx::run(&mut inputs, share, 0, &mut host);
                (plain, traced)
            }
            Workload::Joint => {
                let span = rec.begin("joint.setup");
                let mut inputs = joint::setup(args.seed, size);
                rec.end(span);
                let traced = joint::run_traced(&mut inputs, share, &mut host, &mut rec, metrics);
                let plain = joint::run(&mut inputs, share, 0, &mut host);
                (plain, traced)
            }
            Workload::City => {
                let span = rec.begin("city.setup");
                let mut inputs = city::setup(args.seed, size, w.threads());
                rec.end(span);
                let traced = city::run_traced(&mut inputs, share, &mut host, &mut rec, metrics);
                let plain = city::run(&mut inputs, share, 0, &mut host);
                (plain, traced)
            }
        };
        report.add_log(&plain);
        report.add_log(&with_spans);
        speeds.extend_from_slice(&host.history);
        overhead.push(Metric::new(
            format!("trace.overhead_pct.{}", w.name()),
            overhead_pct(&plain, &with_spans),
            "%",
        ));
    }
    report.metrics.extend(overhead);
    // Spans are raw wall time; multiplying by this ratio converts them to
    // the nominal speed the end-to-end metrics are expressed in.
    report.metrics.push(Metric::new(
        "host.speed_vs_nominal",
        median(&speeds),
        "ratio",
    ));
    let totals = rec.totals();
    for name in SELF_TIME_SPANS {
        let t = totals.get(name).copied().unwrap_or_default();
        report.metrics.push(Metric::new(
            format!("self_us.{name}"),
            t.mean_self_us(),
            "us",
        ));
    }
    let path = trace_path(args);
    let meta = meta::json(args.workload.name(), args.seed, args.seconds, true);
    match std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
        .and_then(|()| std::fs::write(&path, rec.chrome_json(&meta)))
    {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            rec.spans().len(),
            path.display()
        )),
        Err(e) => report
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
    report
}

/// Where a traced run writes its spans: `out/` inside this package.
pub fn trace_path(args: &Args) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(strings("--workload joint --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::Joint,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload disk --seed 1 --seconds 1 --trace 0",
            "--workload rx --seed -1 --seconds 1 --trace 0",
            "--workload rx --seed 1 --seconds 1 --trace 2",
            "--workload rx --seed 1 --seconds 1",
            "--workload rx --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(strings(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report::new();
        r.attempted = 3;
        r.metrics.push(Metric::new("unit_p50_ms", 1.25, "ms"));
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"unit_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
