//! Figure 15: average SNR of a single sender vs SourceSync joint
//! transmission, by SNR regime (low <6 dB, medium 6–12 dB, high >12 dB).
//!
//! Random testbed placements of two senders and a receiver; for each
//! placement the receiver's mean per-subcarrier SNR is measured (a) for
//! each sender transmitting alone (from its channel estimate) and (b) for
//! the SourceSync joint transmission (effective role-channel gain).
//! Paper result: joint transmission gains 2–3 dB in every regime.
//!
//! Output: TSV `regime  single_mean_db  joint_mean_db  gain_db  n`.

use crate::{pin_all_snrs, pin_link, random_payload, run_once, COSENDER, LEAD, RECEIVER};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssync_channel::{FloorPlan, Position};
use ssync_core::{DelayDatabase, JointConfig};
use ssync_dsp::stats::{db_from_linear, linear_from_db, mean};
use ssync_exp::{Ctx, Output, Scenario, Value};
use ssync_phy::{OfdmParams, RateId};
use ssync_sim::{ChannelModels, Network};

/// See the module docs.
pub struct Fig15PowerGains;

impl Fig15PowerGains {
    /// The paper's SNR regimes `(label, lo, hi)`: a placement belongs to
    /// the regime whose `[lo, hi)` holds its single-sender SNR in dB.
    pub const REGIMES: [(&'static str, f64, f64); 3] = [
        ("low(<6dB)", f64::NEG_INFINITY, 6.0),
        ("medium(6-12dB)", 6.0, 12.0),
        ("high(>12dB)", 12.0, f64::INFINITY),
    ];

    /// Placement `p`'s `(single-sender, joint)` mean SNR in dB, or `None`
    /// when the probes, the wait solution or the joint header fail. The
    /// seed is `7000 + p`, so any placement count extends the same sample.
    pub fn placement_snrs_db(p: usize) -> Option<(f64, f64)> {
        let params = OfdmParams::dot11a();
        let models = ChannelModels::testbed(&params);
        let cfg = JointConfig {
            rate: RateId::R6,
            cp_extension: 8,
            ..Default::default()
        };
        let seed = 7000 + p as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = FloorPlan::testbed();
        let rx_pos = plan.random_position(&mut rng);
        let s1 = plan.random_position_near(&mut rng, rx_pos, 8.0, 28.0);
        let s2 = plan.random_position_near(&mut rng, s1, 2.0, 10.0);
        let positions: Vec<Position> = vec![s1, s2, rx_pos];
        let mut net = Network::build(&mut rng, &params, &positions, &models);
        // Pin the two sender→receiver links to span the paper's low /
        // medium / high regimes (the paper groups placements by their
        // *measured* single-sender SNR; the testbed's walls produced
        // regimes our open floor plan cannot). Senders hear each other well.
        let snr1: f64 = rng.gen_range(0.5..18.0);
        let snr2 = (snr1 + rng.gen_range(-3.0..3.0)).max(0.5);
        // Delay probing is a long-running background process (the paper's
        // periodic measurements) whose estimates depend on geometry, not on
        // the instantaneous SNR — run it before pinning the links to the
        // experiment's regime.
        pin_all_snrs(&mut net, 25.0);
        let payload = random_payload(&mut rng, 80);
        let mut db = DelayDatabase::new();
        if !db.measure_all(&mut net, &mut rng, &[LEAD, COSENDER, RECEIVER], 3) {
            return None;
        }
        pin_link(&mut net, LEAD, RECEIVER, snr1);
        pin_link(&mut net, RECEIVER, LEAD, snr1);
        pin_link(&mut net, COSENDER, RECEIVER, snr2);
        pin_link(&mut net, RECEIVER, COSENDER, snr2);
        pin_link(&mut net, LEAD, COSENDER, 25.0);
        pin_link(&mut net, COSENDER, LEAD, 25.0);
        let sol = db.wait_solution(LEAD, &[COSENDER], &[RECEIVER])?;
        let out = run_once(&mut net, &mut rng, &payload, &cfg, &db, sol.waits[0]);
        let report = &out.reports[0];
        if !report.header_ok || report.co_channels[0].is_none() {
            return None;
        }
        let lead_est = report.lead_channel.as_ref().unwrap();
        let co_est = report.co_channels[0].as_ref().unwrap();
        let n0 = lead_est.noise_power.max(1e-15);
        // Bias-correct the SNR estimate: a 2-repetition LS channel estimate
        // carries n0/2 of estimation noise per carrier, which matters in
        // the low regime.
        let unbias = |p: f64| db_from_linear((p / n0 - 0.5).max(0.01));
        let lead_snr = unbias(lead_est.mean_power());
        let co_snr = unbias(co_est.mean_power());
        // "Senders transmitting separately": the average of the two.
        let single = (lead_snr + co_snr) / 2.0;
        let joint_lin = mean(
            &report
                .effective_snr_db
                .iter()
                .map(|d| linear_from_db(*d))
                .collect::<Vec<_>>(),
        );
        Some((single, db_from_linear(joint_lin)))
    }
}

impl Scenario for Fig15PowerGains {
    fn name(&self) -> &'static str {
        "fig15_power_gains"
    }

    fn title(&self) -> &'static str {
        "Single-sender vs joint SNR across low/medium/high regimes"
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 15"
    }

    fn run(&self, ctx: &Ctx, out: &mut Output) {
        let placements = ctx.trials(60);

        // (single-sender mean SNR, joint mean SNR) pairs per placement.
        let samples: Vec<(f64, f64)> = ctx
            .par_map(placements, Self::placement_snrs_db)
            .into_iter()
            .flatten()
            .collect();

        out.comment("Figure 15: power gains — single sender vs SourceSync, by SNR regime");
        out.columns(&["regime", "single_db", "joint_db", "gain_db", "n"]);
        for (name, lo, hi) in Self::REGIMES {
            let bin: Vec<&(f64, f64)> = samples
                .iter()
                .filter(|(s, _)| *s >= lo && *s < hi)
                .collect();
            if bin.is_empty() {
                out.row(vec![
                    Value::s(name),
                    Value::s("NA"),
                    Value::s("NA"),
                    Value::s("NA"),
                    Value::Int(0),
                ]);
                continue;
            }
            let s = mean(&bin.iter().map(|(a, _)| *a).collect::<Vec<_>>());
            let j = mean(&bin.iter().map(|(_, b)| *b).collect::<Vec<_>>());
            out.row(vec![
                Value::s(name),
                Value::F(s, 2),
                Value::F(j, 2),
                Value::F(j - s, 2),
                Value::Int(bin.len() as i64),
            ]);
        }
    }
}
