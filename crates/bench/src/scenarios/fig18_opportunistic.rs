//! Figure 18: opportunistic routing throughput CDFs at 6 and 12 Mbps —
//! single path vs ExOR vs ExOR+SourceSync, on the waveform testbed.
//!
//! Twenty-four random five-node topologies per rate (source, three relays,
//! destination — the paper's §8.4 method and its Fig. 10 setting), each
//! run through `testbed_multihop`'s per-topology body: every link shaped
//! to a measured-delivery band at the DATA rate, then one batch per
//! routing mode through the event-driven testbed (CSMA/CA, ARQ, ExOR batch
//! maps, `JointSession` joint frames over the waveform medium). Topology
//! `t` has one seed at both rates — the same placement and multipath — and
//! its 12 Mbps run is `testbed_multihop`'s topology `t`. Joint frames carry
//! one co-sender ([`ssync_testbed::MAX_COSENDERS`]). Paper result: ExOR
//! gains 1.26–1.4× over single path; ExOR+SourceSync adds 1.35–1.45× over
//! ExOR (1.7–2× over single path).
//!
//! Output: per rate, each mode's throughput CDF and protocol-event line,
//! the medians, and each median ratio with its bootstrap 95 % CI.

use super::testbed_multihop::{emit_modes, run_topology, TOPOLOGY_SEED};
use ssync_dsp::stats::median;
use ssync_exp::agg::{bootstrap_ci, Ci};
use ssync_exp::{Ctx, Output, Scenario};
use ssync_obs::Obs;
use ssync_phy::RateId;
use ssync_testbed::TestbedOutcome;

/// See the module docs.
pub struct Fig18Opportunistic;

impl Fig18Opportunistic {
    /// The figure's DATA rates.
    pub const RATES: [RateId; 2] = [RateId::R6, RateId::R12];

    /// Topologies per rate at the default trial count.
    pub const TOPOLOGIES: usize = 24;

    /// Topology `t`'s outcome at `rate` in each routing mode: single path,
    /// ExOR, ExOR+SourceSync.
    pub fn topology_outcomes(rate: RateId, t: usize) -> Vec<TestbedOutcome> {
        run_topology(TOPOLOGY_SEED + t as u64, rate, &Obs::disabled())
            .into_iter()
            .map(|(outcome, _, _)| outcome)
            .collect()
    }

    /// `median(num) / median(den)` and its bootstrap 95 % CI. Topologies
    /// are resampled as pairs, so both medians see the same draw.
    pub fn median_ratio(num: &[f64], den: &[f64]) -> (f64, Ci) {
        assert_eq!(num.len(), den.len(), "one value per topology");
        let ratio_over = |topologies: &[f64]| {
            let pick =
                |xs: &[f64]| -> Vec<f64> { topologies.iter().map(|&t| xs[t as usize]).collect() };
            median(&pick(num)) / median(&pick(den)).max(1e-9)
        };
        let topologies: Vec<f64> = (0..num.len()).map(|t| t as f64).collect();
        let ci = bootstrap_ci(&topologies, 0.95, 2000, 0x5eed, ratio_over);
        (ratio_over(&topologies), ci)
    }
}

impl Scenario for Fig18Opportunistic {
    fn name(&self) -> &'static str {
        "fig18_opportunistic"
    }

    fn title(&self) -> &'static str {
        "Opportunistic-routing throughput: single path vs ExOR vs ExOR+SourceSync"
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 18 / §7.2"
    }

    fn run(&self, ctx: &Ctx, out: &mut Output) {
        let n = ctx.trials(Self::TOPOLOGIES);
        let results = ctx.par_map(Self::RATES.len() * n, |i| {
            Self::topology_outcomes(Self::RATES[i / n], i % n)
        });

        out.comment("Figure 18: opportunistic routing throughput (Mbps), waveform testbed");
        for (rate, results) in Self::RATES.iter().zip(results.chunks(n)) {
            out.blank();
            out.comment(format!("===== bitrate {} Mbps =====", rate.nominal_mbps()));
            let tp = emit_modes(out, results);
            out.blank();
            out.comment(format!(
                "medians: single {:.3}, ExOR {:.3}, ExOR+SourceSync {:.3} Mbps",
                median(&tp[0]),
                median(&tp[1]),
                median(&tp[2])
            ));
            for (label, num, den, paper) in [
                ("ExOR/single", 1, 0, "1.26-1.4x"),
                ("SourceSync/ExOR", 2, 1, "1.35-1.45x"),
                ("SourceSync/single", 2, 0, "1.7-2x"),
            ] {
                let (ratio, ci) = Self::median_ratio(&tp[num], &tp[den]);
                out.comment(format!(
                    "{label} {ratio:.2}x, 95% CI [{:.2}, {:.2}] (paper {paper})",
                    ci.lo, ci.hi
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ratio_resamples_topologies_in_pairs() {
        // Each topology's numerator is twice its denominator, so every
        // paired resample has a ratio of exactly 2; an unpaired bootstrap
        // would spread it.
        let den = [0.3, 1.1, 0.7, 2.4, 1.9, 0.2, 1.4];
        let num = den.map(|x| 2.0 * x);
        let (ratio, ci) = Fig18Opportunistic::median_ratio(&num, &den);
        assert_eq!(ratio, 2.0);
        assert_eq!((ci.lo, ci.hi), (2.0, 2.0));
    }
}
