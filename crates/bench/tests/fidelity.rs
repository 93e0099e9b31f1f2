//! The fidelity gate: the paper's headline numbers that this reproduction
//! meets, each asserted as a band on a bootstrap 95 % confidence interval.
//!
//! Golden files prove that the output did not change; this suite proves
//! that it still reproduces the paper. A claim passes only when the whole
//! CI lies inside its band, so a re-pin that moves the numbers is accepted
//! on evidence, not on luck. Each claim draws more trials than its figure
//! (the scenarios' per-trial functions seed every trial from its own
//! coordinates, so a larger count extends the figure's sample) — enough
//! that the CI is decided, and no more.
//!
//! Claims the reproduction does not meet yet are not asserted here; they
//! are open in ROADMAP item 1:
//! - Fig. 12 below 12 dB;
//! - Fig. 13's "SourceSync within 95 % of its peak by 117 ns": the median
//!   at 117 ns sits at ~94 % of the plateau, with a CI wholly below 95 %;
//!   SourceSync reaches 95 % by 156 ns;
//! - Fig. 13's baseline needing ~469 ns;
//! - Fig. 17;
//! - Fig. 18's SourceSync/ExOR ≥ 1.35× (CI wholly below it at 6 Mbps,
//!   straddling it at 12 Mbps) and its ExOR/single and SourceSync/single
//!   bands (above or straddling them).
//!
//! The trial counts make this suite slow in the debug profile, so it runs
//! in release only: `cargo test --release -p ssync_bench --test fidelity`.

use ssync_bench::scenarios::{Fig12SyncError, Fig13CpSweep, Fig15PowerGains, Fig18Opportunistic};
use ssync_dsp::stats::percentile;
use ssync_exp::agg::{bootstrap_ci, mean_ci_bootstrap, Ci};
use ssync_exp::exec::par_map;

const CONFIDENCE: f64 = 0.95;
const RESAMPLES: usize = 2000;
const SEED: u64 = 0x5eed;

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Fig. 12: the 95th-percentile synchronization error is at most 20 ns at
/// every SNR from 12 dB up.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: trial counts")]
fn fig12_p95_sync_error_within_20ns_from_12db() {
    const PLACEMENTS: usize = 96;
    const BAND_NS: f64 = 20.0;
    let steps = 4..9; // 12, 15, …, 24 dB
    let samples = par_map(threads(), steps.len() * PLACEMENTS, |i| {
        Fig12SyncError::placement_errors_ns(steps.start + i / PLACEMENTS, i % PLACEMENTS)
    });
    for (step, chunk) in steps.zip(samples.chunks(PLACEMENTS)) {
        let measured: Vec<f64> = chunk.iter().flatten().map(|(m, _)| *m).collect();
        assert!(
            measured.len() >= PLACEMENTS * 9 / 10,
            "{} dB: too few",
            3 * step
        );
        let ci = bootstrap_ci(&measured, CONFIDENCE, RESAMPLES, SEED, |r| {
            percentile(r, 95.0)
        });
        let p95 = percentile(&measured, 95.0);
        println!(
            "fig12 {} dB: p95 {p95:.2} ns, CI [{:.2}, {:.2}]",
            3 * step,
            ci.lo,
            ci.hi
        );
        assert!(
            ci.hi <= BAND_NS,
            "{} dB: p95 CI {ci:?} above {BAND_NS} ns",
            3 * step
        );
    }
}

/// Fig. 13: the unsynchronized baseline stays below SourceSync at the
/// short CPs (39, 78 and 117 ns), where misalignment still costs SNR. The
/// two run on the same placement, so the claim is on the paired
/// difference.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: trial counts")]
fn fig13_baseline_below_sourcesync_at_short_cps() {
    const TRIALS: usize = 96;
    let cps = [5usize, 10, 15]; // wiglan samples: 39.1, 78.1, 117.2 ns
    let trials = par_map(threads(), cps.len() * TRIALS, |i| {
        Fig13CpSweep::trial_snrs_db(cps[i / TRIALS], i % TRIALS)
    });
    for (cp, chunk) in cps.iter().zip(trials.chunks(TRIALS)) {
        let gaps: Vec<f64> = chunk
            .iter()
            .filter_map(|(ss, base)| Some((*ss)? - (*base)?))
            .collect();
        assert!(gaps.len() >= TRIALS * 9 / 10, "cp {cp}: too few");
        let ci = mean_ci_bootstrap(&gaps, CONFIDENCE, RESAMPLES, SEED);
        println!(
            "fig13 cp {cp}: SourceSync − baseline CI [{:.2}, {:.2}] dB",
            ci.lo, ci.hi
        );
        assert!(
            ci.lo > 0.0,
            "cp {cp}: baseline not below SourceSync, CI {ci:?}"
        );
    }
}

/// Fig. 15: joint transmission gains at least 2 dB over a single sender
/// in every SNR regime.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: trial counts")]
fn fig15_joint_gain_at_least_2db_in_every_regime() {
    const PLACEMENTS: usize = 240;
    const BAND_DB: f64 = 2.0;
    let pairs: Vec<(f64, f64)> = par_map(threads(), PLACEMENTS, Fig15PowerGains::placement_snrs_db)
        .into_iter()
        .flatten()
        .collect();
    for (name, lo, hi) in Fig15PowerGains::REGIMES {
        let gains: Vec<f64> = pairs
            .iter()
            .filter(|(single, _)| *single >= lo && *single < hi)
            .map(|(single, joint)| joint - single)
            .collect();
        assert!(gains.len() >= 10, "{name}: {} placements", gains.len());
        let ci: Ci = mean_ci_bootstrap(&gains, CONFIDENCE, RESAMPLES, SEED);
        println!(
            "fig15 {name}: n {}, gain CI [{:.2}, {:.2}] dB",
            gains.len(),
            ci.lo,
            ci.hi
        );
        assert!(
            ci.lo >= BAND_DB,
            "{name}: gain CI {ci:?} below {BAND_DB} dB"
        );
    }
}

/// Fig. 18: on the waveform testbed, ExOR's median throughput is above
/// single path's at both 6 and 12 Mbps. The CI is the one the figure
/// prints: its own 24 topologies per rate, resampled in pairs.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: trial counts")]
fn fig18_exor_above_single_path_at_both_rates() {
    let n = Fig18Opportunistic::TOPOLOGIES;
    let rates = Fig18Opportunistic::RATES;
    let runs = par_map(threads(), rates.len() * n, |i| {
        Fig18Opportunistic::topology_outcomes(rates[i / n], i % n)
    });
    for (rate, chunk) in rates.iter().zip(runs.chunks(n)) {
        let mbps = |mode: usize| -> Vec<f64> {
            chunk.iter().map(|r| r[mode].throughput_bps / 1e6).collect()
        };
        let (ratio, ci) = Fig18Opportunistic::median_ratio(&mbps(1), &mbps(0));
        println!(
            "fig18 {} Mbps: ExOR/single {ratio:.2}x, CI [{:.2}, {:.2}]",
            rate.nominal_mbps(),
            ci.lo,
            ci.hi
        );
        assert!(
            ci.lo > 1.0,
            "{} Mbps: ExOR/single CI {ci:?} not above 1",
            rate.nominal_mbps()
        );
    }
}
