//! Event-driven testbed under fault injection: every
//! `ssync_sim::FaultInjector` fault class (drop / corrupt) wired into
//! each protocol seam (DATA, ACK/batch-map, sync header) plus the
//! missing-delay-database degradation, with the typed protocol outcome
//! each one maps to.
//!
//! Rows report, per injected class: deliveries, protocol reactions (ARQ
//! retries, lost ACKs), the typed join-failure breakdown, and the
//! injector's own hit counts — so a regression in any seam's wiring is a
//! visible diff, not a silent behaviour change.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ssync_exp::{Ctx, Output, Scenario, Value};
use ssync_obs::{Obs, Observable};
use ssync_phy::{OfdmParams, RateId};
use ssync_sim::{ChannelModels, FaultInjector, Network, NodeId};
use ssync_testbed::{
    run_transfer_observed, DelaySource, FaultPlan, RoutingMode, TestbedConfig, TestbedOutcome,
};

/// A fixed-budget diamond (src 0, relays 1–3, dst 4): healthy first hop,
/// marginal final hop, dead direct link. Unlike `testbed_multihop` this
/// skips the measured-delivery link shaping — the fault sweep asserts
/// *typed protocol outcomes*, not throughput orderings, so pinned mean
/// SNRs are enough and keep the scenario cheap.
fn fault_network(seed: u64) -> Network {
    let params = OfdmParams::dot11a();
    let mut rng = StdRng::seed_from_u64(seed);
    let positions = super::jittered_diamond(&mut rng);
    let mut net = Network::build(
        &mut rng,
        &params,
        &positions,
        &ChannelModels::clean(&params),
    );
    for r in 1..=3usize {
        net.pin_snr_db(NodeId(0), NodeId(r), 12.0);
        net.pin_snr_db(NodeId(r), NodeId(0), 12.0);
        net.pin_snr_db(NodeId(r), NodeId(4), 5.5);
        net.pin_snr_db(NodeId(4), NodeId(r), 5.5);
        for j in 1..=3usize {
            if j != r {
                net.pin_snr_db(NodeId(r), NodeId(j), 15.0);
            }
        }
    }
    net.pin_snr_db(NodeId(0), NodeId(4), -15.0);
    net.pin_snr_db(NodeId(4), NodeId(0), -15.0);
    net
}

/// One row of the sweep: a named fault class applied to one seam.
struct FaultCase {
    name: &'static str,
    mode: RoutingMode,
    faults: FaultPlan,
    delays: DelaySource,
}

fn cases() -> Vec<FaultCase> {
    let drop = FaultInjector::new(0.5, 0.0);
    let corrupt = FaultInjector::new(0.0, 0.5);
    let ss = RoutingMode::ExorSourceSync;
    let mk = |name, mode, faults, delays| FaultCase {
        name,
        mode,
        faults,
        delays,
    };
    vec![
        mk("baseline", ss, FaultPlan::none(), DelaySource::Oracle),
        mk(
            "data_drop",
            ss,
            FaultPlan {
                data: drop,
                ..FaultPlan::none()
            },
            DelaySource::Oracle,
        ),
        mk(
            "data_corrupt",
            ss,
            FaultPlan {
                data: corrupt,
                ..FaultPlan::none()
            },
            DelaySource::Oracle,
        ),
        mk(
            "ack_drop",
            ss,
            FaultPlan {
                ack: drop,
                ..FaultPlan::none()
            },
            DelaySource::Oracle,
        ),
        mk(
            "ack_corrupt",
            ss,
            FaultPlan {
                ack: corrupt,
                ..FaultPlan::none()
            },
            DelaySource::Oracle,
        ),
        mk(
            "header_drop",
            ss,
            FaultPlan {
                header: FaultInjector::new(0.8, 0.0),
                ..FaultPlan::none()
            },
            DelaySource::Oracle,
        ),
        mk(
            "header_corrupt",
            ss,
            FaultPlan {
                header: FaultInjector::new(0.0, 0.8),
                ..FaultPlan::none()
            },
            DelaySource::Oracle,
        ),
        mk("missing_delay", ss, FaultPlan::none(), DelaySource::Empty),
        mk(
            "sp_baseline",
            RoutingMode::SinglePath,
            FaultPlan::none(),
            DelaySource::Oracle,
        ),
        mk(
            "sp_ack_drop",
            RoutingMode::SinglePath,
            FaultPlan {
                ack: drop,
                ..FaultPlan::none()
            },
            DelaySource::Oracle,
        ),
    ]
}

/// See the module docs.
pub struct TestbedFault;

impl Scenario for TestbedFault {
    fn name(&self) -> &'static str {
        "testbed_fault"
    }

    fn title(&self) -> &'static str {
        "Event-driven testbed: fault-injection sweep over every protocol seam"
    }

    fn paper_ref(&self) -> &'static str {
        "§8 robustness"
    }

    fn run(&self, ctx: &Ctx, out: &mut Output) {
        self.run_observed(ctx, out, &mut Obs::disabled());
    }
}

impl Observable for TestbedFault {
    /// The one body: [`Scenario::run`] calls it with [`Obs::disabled`].
    /// Each (case, trial) run fills its own recorder/registry, folded into
    /// `obs` in case order then trial order as a `{class}/t{trial}` track
    /// — so a fault sweep's trace shows every injected class as its own
    /// Perfetto process.
    fn run_observed(&self, ctx: &Ctx, out: &mut Output, obs: &mut Obs) {
        let cases = cases();
        let trials = ctx.trials(1);
        out.comment("Fault injection: per-class deliveries, protocol reactions, typed joins");
        out.columns(&[
            "class",
            "mode",
            "delivered",
            "data_frames",
            "joint_frames",
            "arq_retries",
            "acks_lost",
            "joins_ok",
            "join_no_detect",
            "join_malformed",
            "join_wrong_packet",
            "join_missing_delay",
            "faults_injected",
        ]);

        let observed = ctx.par_map(cases.len(), |c| {
            let case = &cases[c];
            (0..trials)
                .map(|t| {
                    let seed = 880_000 + t as u64;
                    let mut net = fault_network(seed);
                    let mut rng = StdRng::seed_from_u64(seed ^ (0xF00 + c as u64));
                    let cfg = TestbedConfig {
                        batch_size: 4,
                        payload_len: 96,
                        faults: case.faults,
                        delays: case.delays,
                        ..TestbedConfig::new(RateId::R12, case.mode)
                    };
                    let mut rec = obs.trial_recorder();
                    let mut reg = obs.trial_registry();
                    let outcome = run_transfer_observed(
                        &mut net,
                        &mut rng,
                        0,
                        4,
                        &[1, 2, 3],
                        &cfg,
                        &mut rec,
                        &mut reg,
                    )
                    .expect("diamond is routable");
                    (outcome, rec, reg)
                })
                .collect::<Vec<_>>()
        });
        let mut rows: Vec<Vec<TestbedOutcome>> = Vec::with_capacity(observed.len());
        for (case, per_trial) in cases.iter().zip(observed) {
            let mut outcomes = Vec::with_capacity(per_trial.len());
            for (t, (outcome, rec, reg)) in per_trial.into_iter().enumerate() {
                obs.add_track(format!("{}/t{t}", case.name), rec);
                obs.merge_metrics(&reg);
                outcomes.push(outcome);
            }
            rows.push(outcomes);
        }

        for (case, outcomes) in cases.iter().zip(&rows) {
            let sum = |f: &dyn Fn(&TestbedOutcome) -> u64| -> i64 {
                outcomes.iter().map(|o| f(o) as i64).sum()
            };
            out.row(vec![
                Value::s(case.name),
                Value::s(match case.mode {
                    RoutingMode::SinglePath => "single",
                    RoutingMode::Exor => "exor",
                    RoutingMode::ExorSourceSync => "exor+ss",
                }),
                Value::Int(outcomes.iter().map(|o| o.delivered as i64).sum()),
                Value::Int(sum(&|o| o.data_frames)),
                Value::Int(sum(&|o| o.joint_frames)),
                Value::Int(sum(&|o| o.arq_retries)),
                Value::Int(sum(&|o| o.acks_lost)),
                Value::Int(sum(&|o| o.joins.joined)),
                Value::Int(sum(&|o| o.joins.no_detect)),
                Value::Int(sum(&|o| o.joins.malformed_header)),
                Value::Int(sum(&|o| o.joins.wrong_packet)),
                Value::Int(sum(&|o| o.joins.missing_delay)),
                Value::Int(sum(&|o| o.faults.total())),
            ]);
        }
        out.comment(
            "every FaultInjector class (drop/corrupt x data/ack/header) plus the empty \
             delay database maps to its typed outcome above",
        );
    }
}
