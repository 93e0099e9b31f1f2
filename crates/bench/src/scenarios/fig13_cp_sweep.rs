//! Figure 13: joint-transmission SNR vs cyclic-prefix length, SourceSync
//! vs an unsynchronized baseline.
//!
//! Two transmitters in a line-of-sight-like configuration (strong direct
//! path, paper-matched multipath spread) jointly transmit at each CP
//! length; the receiver's decision-directed EVM SNR of the combined data
//! is recorded. SourceSync compensates delays; the baseline joins on its
//! raw detection instant. The paper's result: SourceSync reaches ~95 % of
//! peak SNR at a CP of ~15 samples (117 ns, set by the multipath spread
//! alone — Fig. 14), the baseline needs ~60 samples (469 ns).
//!
//! Output: TSV `cp_ns  snr_sourcesync_db  snr_baseline_db`.

use crate::{pin_all_snrs, random_payload, run_once, COSENDER, LEAD, RECEIVER};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssync_channel::{FloorPlan, Position};
use ssync_core::{DelayDatabase, JointConfig};
use ssync_exp::{Ctx, Output, Scenario, Value};
use ssync_phy::{OfdmParams, RateId};
use ssync_sim::{ChannelModels, Network};

/// Every link's pinned SNR, dB.
const SNR_DB: f64 = 25.0;

/// See the module docs.
pub struct Fig13CpSweep;

impl Fig13CpSweep {
    /// One trial at a CP of `cp_samples` wiglan samples: the receiver's
    /// EVM SNR in dB for `(SourceSync, unsynchronized baseline)`, each
    /// `None` when its header did not decode. The seed is the legacy
    /// formula over the CP value itself, not its index, so trial `t`
    /// (below 500) is the same draw at any trial count.
    pub fn trial_snrs_db(cp_samples: usize, t: usize) -> (Option<f64>, Option<f64>) {
        let params = OfdmParams::wiglan();
        let models = ChannelModels::testbed(&params);
        let seed = (cp_samples * 100 + t) as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = FloorPlan::testbed();
        let positions: Vec<Position> = (0..3).map(|_| plan.random_position(&mut rng)).collect();
        let mut net = Network::build(&mut rng, &params, &positions, &models);
        pin_all_snrs(&mut net, SNR_DB);
        let payload = random_payload(&mut rng, 120);
        let mut db = DelayDatabase::new();
        if !db.measure_all(&mut net, &mut rng, &[LEAD, COSENDER, RECEIVER], 2) {
            return (None, None);
        }
        let Some(sol) = db.wait_solution(LEAD, &[COSENDER], &[RECEIVER]) else {
            return (None, None);
        };
        // The CP under test replaces the base CP: set extension so that
        // base + ext = cp_samples (clamp at 0 by shrinking the base
        // through a re-parameterised numerology).
        let swept = params.with_cp(1.max(cp_samples));
        let mut swept_net = net;
        swept_net.params = swept.clone();
        let cfg_ss = JointConfig {
            rate: RateId::R12,
            cp_extension: 0,
            ..Default::default()
        };
        let out = run_once(
            &mut swept_net,
            &mut rng,
            &payload,
            &cfg_ss,
            &db,
            sol.waits[0],
        );
        let ss = out.reports[0]
            .header_ok
            .then(|| out.reports[0].stats.evm_snr_db);
        let cfg_base = JointConfig {
            rate: RateId::R12,
            cp_extension: 0,
            delay_compensation: false,
            ..Default::default()
        };
        let out = run_once(&mut swept_net, &mut rng, &payload, &cfg_base, &db, 0.0);
        let base = out.reports[0]
            .header_ok
            .then(|| out.reports[0].stats.evm_snr_db);
        (ss, base)
    }
}

impl Scenario for Fig13CpSweep {
    fn name(&self) -> &'static str {
        "fig13_cp_sweep"
    }

    fn title(&self) -> &'static str {
        "Joint SNR vs cyclic-prefix length, SourceSync vs unsynchronized baseline"
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 13"
    }

    fn run(&self, ctx: &Ctx, out: &mut Output) {
        let params = OfdmParams::wiglan();
        let trials = ctx.trials(6);
        let cps: Vec<usize> = (0..=80usize).step_by(5).collect();

        out.comment("Figure 13: joint SNR vs CP, SourceSync vs unsynchronized baseline");
        out.comment(format!(
            "numerology: wiglan; links pinned to {SNR_DB} dB; EVM-based SNR"
        ));
        out.columns(&["cp_ns", "sourcesync_db", "baseline_db"]);

        // One job per (CP length, trial).
        let results = ctx.par_map(cps.len() * trials, |i| {
            Self::trial_snrs_db(cps[i / trials], i % trials)
        });

        let med = |v: &Vec<f64>| {
            if v.is_empty() {
                f64::NAN
            } else {
                ssync_dsp::stats::median(v)
            }
        };
        for (j, chunk) in results.chunks(trials).enumerate() {
            let ss_vals: Vec<f64> = chunk.iter().filter_map(|(s, _)| *s).collect();
            let base_vals: Vec<f64> = chunk.iter().filter_map(|(_, b)| *b).collect();
            let cp_ns = cps[j] as f64 * params.sample_period_fs() as f64 * 1e-6;
            out.row(vec![
                Value::F(cp_ns, 1),
                Value::F(med(&ss_vals), 2),
                Value::F(med(&base_vals), 2),
            ]);
        }
    }
}
