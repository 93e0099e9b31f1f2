//! Figure 17: last-hop throughput CDF — single best AP ("selective
//! diversity") vs SourceSync joint APs.
//!
//! The paper's clients have *poor connectivity to multiple nearby APs*
//! (§1.2, §7.1): per-AP SNRs are drawn across the marginal band where rate
//! adaptation actually has to work (≈3–16 dB — the regime the testbed's
//! walls produced; our open floor plan cannot, so the SNRs are drawn
//! directly and documented in DESIGN.md). SampleRate adapts the rate on
//! the lead AP. Frame loss comes from `PerTable::analytic()`: one
//! hand-typed logistic PER curve per rate (a mid-SNR and a slope each),
//! not a curve measured through the sample-level modem. Paper result:
//! median gain 1.57×, with gains at all client percentiles.
//!
//! Output: two CDF blocks plus the median-gain summary line.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssync_dsp::stats::median;
use ssync_exp::scenario::emit_cdf;
use ssync_exp::{Ctx, Output, Scenario};
use ssync_lasthop::{run_session, ClientScenario, Mode, SessionSpec};
use ssync_phy::ber::PerTable;
use ssync_phy::OfdmParams;

/// See the module docs.
pub struct Fig17LasthopCdf;

impl Scenario for Fig17LasthopCdf {
    fn name(&self) -> &'static str {
        "fig17_lasthop_cdf"
    }

    fn title(&self) -> &'static str {
        "Last-hop throughput CDF: best single AP vs SourceSync joint APs"
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 17 / §7.1"
    }

    fn run(&self, ctx: &Ctx, out: &mut Output) {
        let params = OfdmParams::dot11a();
        let per = PerTable::analytic();
        let placements = ctx.trials(60);
        let n_packets = 400;
        let payload = 1460;

        let sessions = ctx.par_map(placements, |p| {
            let seed = 50_000 + p as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            // Marginal clients: both APs in the 3–16 dB band, correlated (the
            // client is simply far from the AP cluster), ±4 dB split.
            let base: f64 = rng.gen_range(3.0..16.0);
            let s1 = base + rng.gen_range(-2.0..2.0);
            let s2 = base + rng.gen_range(-4.0..2.0);
            let scenario = ClientScenario {
                downlink_snr_db: vec![s1.max(s2), s1.min(s2)], // lead = best AP
                uplink_snr_db: vec![s1, s2],
            };
            let spec = |mode| SessionSpec {
                mode,
                payload_len: payload,
                n_packets,
            };
            let mut rng_run = StdRng::seed_from_u64(seed ^ 0xF00D);
            let o_single = run_session(
                &mut rng_run,
                &params,
                &per,
                &scenario,
                &spec(Mode::BestSingleAp),
            );
            let mut rng_run = StdRng::seed_from_u64(seed ^ 0xF00D);
            let o_joint = run_session(
                &mut rng_run,
                &params,
                &per,
                &scenario,
                &spec(Mode::SourceSync),
            );
            (o_single.throughput_bps / 1e6, o_joint.throughput_bps / 1e6)
        });
        let (single, joint): (Vec<f64>, Vec<f64>) = sessions.into_iter().unzip();

        out.comment("Figure 17: last-hop throughput CDFs (Mbps)");
        emit_cdf(out, "single best AP (selective diversity)", &single);
        out.blank();
        emit_cdf(out, "SourceSync (both APs jointly)", &joint);
        let med_s = median(&single);
        let med_j = median(&joint);
        out.comment(format!(
            "median single = {med_s:.2} Mbps, median SourceSync = {med_j:.2} Mbps"
        ));
        out.comment(format!(
            "median gain = {:.2}x (paper: 1.57x)",
            med_j / med_s.max(1e-9)
        ));
    }
}
