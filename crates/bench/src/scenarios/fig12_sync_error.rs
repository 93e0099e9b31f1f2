//! Figure 12: 95th-percentile synchronization error vs SNR.
//!
//! For random (lead, co-sender, receiver) placements with all links pinned
//! to a target SNR, SourceSync runs its full loop: probe-based delay
//! measurement, LP waits, a few §4.5 tracking frames, then a measurement
//! phase. The synchronization error of a placement is the
//! repetition-averaged misalignment measurement (the paper's
//! high-accuracy estimator, realised as an average over `REPS` frames),
//! and the simulator's exact ground truth is reported alongside.
//!
//! Paper target: ≤ 20 ns at the 95th percentile across operational SNRs.
//!
//! Output: TSV `snr_db  p95_measured_ns  p95_true_ns  n_placements`.

use crate::{converged_joint, pinned_snr_network, random_payload, run_once};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssync_core::{DelayDatabase, JointConfig};
use ssync_dsp::stats::percentile;
use ssync_exp::{Ctx, Output, Scenario, Value};
use ssync_phy::{OfdmParams, RateId};
use ssync_sim::ChannelModels;

const REPS: usize = 5;

/// See the module docs.
pub struct Fig12SyncError;

impl Fig12SyncError {
    /// One placement at SNR `3 · snr_step` dB: its repetition-averaged
    /// `(|measured|, |true|)` misalignment in ns, or `None` when the
    /// placement never converges. The seed is the legacy binary's
    /// formula, a pure function of `(snr_step, p)`, so any placement count
    /// (the fidelity gate draws more than the figure) extends the same
    /// sample.
    pub fn placement_errors_ns(snr_step: usize, p: usize) -> Option<(f64, f64)> {
        let params = OfdmParams::wiglan();
        let models = ChannelModels::testbed(&params);
        let cfg = JointConfig {
            rate: RateId::R6,
            cp_extension: 16,
            ..Default::default()
        };
        let snr_db = 3.0 * snr_step as f64;
        let seed = 1000 * snr_step as u64 + p as u64;
        let mut net = pinned_snr_network(&params, &models, snr_db, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
        let payload = random_payload(&mut rng, 60);
        // Converge (probes + tracking warmup), then measure.
        let (_, wait) = converged_joint(&mut net, &mut rng, &payload, &cfg, 3, 3)?;
        let mut db = DelayDatabase::new();
        // The measurement frames reuse the converged wait; the delay
        // database is only needed by the co-sender for d(lead, co).
        if !db.measure(&mut net, &mut rng, crate::LEAD, crate::COSENDER, 2) {
            return None;
        }
        let mut meas = Vec::new();
        let mut truth = Vec::new();
        for _ in 0..REPS {
            let out = run_once(&mut net, &mut rng, &payload, &cfg, &db, wait);
            if let Some(m) = out.reports[0].measured_misalign_s[0] {
                meas.push(m);
            }
            let t = out.true_misalign_s[0][0];
            if t.is_finite() {
                truth.push(t);
            }
        }
        if meas.is_empty() || truth.is_empty() {
            return None;
        }
        // The repetition estimator: average over frames.
        Some((
            ssync_dsp::stats::mean(&meas).abs() * 1e9,
            ssync_dsp::stats::mean(&truth).abs() * 1e9,
        ))
    }
}

impl Scenario for Fig12SyncError {
    fn name(&self) -> &'static str {
        "fig12_sync_error"
    }

    fn title(&self) -> &'static str {
        "95th-percentile synchronization error vs SNR over random placements"
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 12"
    }

    fn run(&self, ctx: &Ctx, out: &mut Output) {
        let placements = ctx.trials(12);

        out.comment("Figure 12: 95th percentile synchronization error vs SNR");
        out.comment("numerology: wiglan (128 Msps; 1 sample = 7.8125 ns)");
        out.columns(&["snr_db", "p95_measured_ns", "p95_true_ns", "n"]);

        // One job per (SNR step, placement).
        let samples = ctx.par_map(9 * placements, |i| {
            Self::placement_errors_ns(i / placements, i % placements)
        });

        for (snr_step, chunk) in samples.chunks(placements).enumerate() {
            let snr_db = 3.0 * snr_step as f64;
            let mut measured_ns = Vec::new();
            let mut true_ns = Vec::new();
            for (m, t) in chunk.iter().flatten() {
                measured_ns.push(*m);
                true_ns.push(*t);
            }
            if measured_ns.is_empty() {
                out.row(vec![
                    Value::F(snr_db, 0),
                    Value::s("NA"),
                    Value::s("NA"),
                    Value::Int(0),
                ]);
                continue;
            }
            out.row(vec![
                Value::F(snr_db, 0),
                Value::F(percentile(&measured_ns, 95.0), 2),
                Value::F(percentile(&true_ns, 95.0), 2),
                Value::Int(measured_ns.len() as i64),
            ]);
        }
    }
}
