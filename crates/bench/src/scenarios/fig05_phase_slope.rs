//! Figure 5: unwrapped channel phase per subcarrier, with and without an
//! induced detection-delay offset ∆, in a flat fading channel.
//!
//! Demonstrates the property (paper Eq. 1) that a time-domain detection
//! offset appears as a frequency-domain phase slope 2π∆/N per subcarrier —
//! the foundation of the Symbol-Level Synchronizer.
//!
//! Output: TSV `subcarrier  phase_at_detection  phase_at_detection_plus_delta`.

use ssync_dsp::delay::fractional_delay;
use ssync_dsp::stats::unwrap_phases;
use ssync_dsp::FftPlan;
use ssync_exp::{Ctx, Output, Scenario, Value};
use ssync_phy::chanest::{estimate_from_lts, ChanestScratch};
use ssync_phy::preamble::{preamble_waveform, PreambleLayout};
use ssync_phy::OfdmParams;

/// See the module docs.
pub struct Fig05PhaseSlope;

impl Scenario for Fig05PhaseSlope {
    fn name(&self) -> &'static str {
        "fig05_phase_slope"
    }

    fn title(&self) -> &'static str {
        "Unwrapped channel phase vs subcarrier with an induced detection offset (Eq. 1)"
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 5"
    }

    fn run(&self, _ctx: &Ctx, out: &mut Output) {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let pre = preamble_waveform(&params, &fft);
        let layout = PreambleLayout::of(&params);
        let delta = 4.0; // induced detection offset, samples

        // The receiver estimates the channel twice: once with its window at
        // the detected position, once processing the packet as if detected
        // ∆ samples later (the paper's "Initial Detection + ∆" curve).
        let guard = 16usize;
        let rx = fractional_delay(&pre, guard as f64);
        let mut scratch = ChanestScratch::new();
        let est0 = estimate_from_lts(&params, &fft, &rx, guard + layout.lts_start(), &mut scratch);
        let est_delta = estimate_from_lts(
            &params,
            &fft,
            &rx,
            guard + layout.lts_start() - delta as usize,
            &mut scratch,
        );

        let phases0: Vec<f64> = est0.values.iter().map(|v| v.arg()).collect();
        let phases_d: Vec<f64> = est_delta.values.iter().map(|v| v.arg()).collect();
        // Unwrap each contiguous carrier run (the occupied band has a DC gap).
        let u0 = unwrap_phases(&phases0);
        let ud = unwrap_phases(&phases_d);

        out.comment("Figure 5: unwrapped channel phase vs subcarrier (flat channel)");
        out.comment(format!("induced detection offset delta = {delta} samples"));
        out.comment(format!(
            "expected extra slope = 2*pi*delta/N = {:.5} rad/subcarrier",
            2.0 * std::f64::consts::PI * delta / params.fft_size as f64
        ));
        out.columns(&["subcarrier", "phase_initial", "phase_initial_plus_delta"]);
        for (i, k) in est0.carriers.iter().enumerate() {
            out.row(vec![
                Value::Int(*k as i64),
                Value::F(u0[i], 5),
                Value::F(ud[i], 5),
            ]);
        }
        // Report the measured slopes like the paper's caption.
        let xs: Vec<f64> = est0.carriers.iter().map(|k| *k as f64).collect();
        let s0 = ssync_dsp::stats::linear_regression_slope(&xs, &u0);
        let sd = ssync_dsp::stats::linear_regression_slope(&xs, &ud);
        out.comment(format!("measured slope initial = {s0:.5} rad/subcarrier"));
        out.comment(format!("measured slope +delta  = {sd:.5} rad/subcarrier"));
        // delay_from_slope convention: a *negative* slope means a *positive*
        // delay (late signal relative to the FFT window).
        out.comment(format!(
            "implied delta = {:.3} samples (true {delta})",
            -(sd - s0) * params.fft_size as f64 / (2.0 * std::f64::consts::PI)
        ));
    }
}
