//! Synchronization calibration walk-through: the Symbol-Level Synchronizer
//! piece by piece.
//!
//! 1. Shows the SNR-dependent packet-detection delay (the problem).
//! 2. Shows the phase-slope detection-delay estimator cancelling it.
//! 3. Runs the probe protocol and compares estimated vs true delays.
//!
//! Run with: `cargo run --release --example sync_calibration`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sourcesync::channel::Position;
use sourcesync::core::probe_pair;
use sourcesync::dsp::rng::ComplexGaussian;
use sourcesync::dsp::FftPlan;
use sourcesync::phy::chanest::{self, ChanestScratch};
use sourcesync::phy::preamble::{preamble_waveform, PreambleLayout};
use sourcesync::phy::{DetectScratch, Detector, OfdmParams};
use sourcesync::sim::{ChannelModels, Network, NodeId};

fn main() {
    let params = OfdmParams::wiglan();
    let fft = FftPlan::new(params.fft_size);
    let det = Detector::new(&params, &fft);
    let layout = PreambleLayout::of(&params);
    let pre = preamble_waveform(&params, &fft);
    let ns_per_sample = params.sample_period_fs() as f64 * 1e-6;

    println!("== 1. raw detection-instant variability (the problem) ==");
    println!("   (paper §4.2(a): detection delay varies with SNR by 100s of ns)\n");
    println!("   snr_db   mean_detect_delay_ns   spread_ns");
    for snr_db in [6.0, 12.0, 25.0] {
        let noise_p = sourcesync::dsp::stats::linear_from_db(-snr_db);
        let mut delays = Vec::new();
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(seed);
            let offset = 500usize;
            let mut buf =
                ComplexGaussian::with_power(noise_p).sample_vec(&mut rng, offset + pre.len() + 600);
            for (i, s) in pre.iter().enumerate() {
                buf[offset + i] += *s;
            }
            if let Some(d) = det.detect_with(&params, &buf, 0, &mut DetectScratch::new()) {
                delays.push((d.detect_idx as f64 - offset as f64) * ns_per_sample);
            }
        }
        let mean = sourcesync::dsp::stats::mean(&delays);
        let spread = sourcesync::dsp::stats::std_dev(&delays);
        println!("   {snr_db:5.1}   {mean:18.1}   {spread:9.1}");
    }

    println!("\n== 2. phase-slope arrival estimation (the fix) ==");
    println!("   the same packets, timed via the channel phase slope:\n");
    println!("   snr_db   mean_timing_error_ns   spread_ns");
    let rx = sourcesync::phy::Receiver::new(params.clone());
    for snr_db in [6.0, 12.0, 25.0] {
        let noise_p = sourcesync::dsp::stats::linear_from_db(-snr_db);
        let mut errors = Vec::new();
        let scratch = &mut ChanestScratch::new();
        for seed in 100..130 {
            let mut rng = StdRng::seed_from_u64(seed);
            let offset = 500usize;
            // A quarter-sample fractional arrival to make the point.
            let delayed = sourcesync::dsp::delay::fractional_delay(&pre, 0.25);
            let mut buf = ComplexGaussian::with_power(noise_p)
                .sample_vec(&mut rng, offset + delayed.len() + 600);
            for (i, s) in delayed.iter().enumerate() {
                buf[offset + i] += *s;
            }
            if let Some(d) = det.detect_with(&params, &buf, 0, &mut DetectScratch::new()) {
                // Build the arrival estimate the SLS uses.
                let _ = &rx;
                let est = chanest::estimate_from_lts(&params, &fft, &buf, d.lts_start, scratch);
                let frac = chanest::detection_delay_samples(&params, &est, 3e6, scratch);
                let arrival = d.lts_start as f64 + frac - layout.lts_start() as f64;
                errors.push((arrival - offset as f64 - 0.25) * ns_per_sample);
            }
        }
        let mean = sourcesync::dsp::stats::mean(&errors);
        let spread = sourcesync::dsp::stats::std_dev(&errors);
        println!("   {snr_db:5.1}   {mean:18.2}   {spread:9.2}");
    }

    println!("\n== 3. the probe protocol end-to-end (Eq. 2) ==\n");
    let mut rng = StdRng::seed_from_u64(3);
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(18.0, 0.0),
        Position::new(9.0, 9.0),
    ];
    let mut net = Network::build(
        &mut rng,
        &params,
        &positions,
        &ChannelModels::clean(&params),
    );
    println!("   pair      estimated_ns   true_ns   error_ns");
    for (a, b) in [(0, 1), (0, 2), (1, 2)] {
        if let Some(p) = probe_pair(&mut net, &mut rng, NodeId(a), NodeId(b)) {
            println!(
                "   {a} <-> {b}   {:12.2}   {:7.2}   {:8.2}",
                p.delay_s * 1e9,
                p.true_delay_s * 1e9,
                (p.delay_s - p.true_delay_s) * 1e9
            );
        }
    }
    println!("\nhardware turnaround delays are constant per node and known locally;");
    println!("the probe protocol cancels them via the responder's self-report.");
}
