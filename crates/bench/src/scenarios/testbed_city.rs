//! City-scale testbed: a ≥500-node avenue mesh whose interference-closed
//! regions run the full protocol stack in parallel — the ROADMAP's
//! "city-scale" north star made a pinned, golden-checked scenario.
//!
//! One long avenue of 72 city blocks, 7 radios per block, streets wider
//! than the interference range: the ranged network builder
//! ([`ssync_sim::Network::build_ranged`]) draws only in-range links, the
//! component partition proves each block is interference-closed, and
//! [`ssync_testbed::run_city_observed`] runs one ExOR+SourceSync batch
//! transfer per region on `ssync_exp::exec::par_map` — byte-identical at
//! any worker count. Delivery beyond the range is the hybrid-fidelity
//! boundary: an analytic directional backhaul chain hops region centroids
//! down the avenue to the city sink (region 0), so sink delivery decays
//! with hop count while local delivery stays waveform-accurate.
//!
//! Output: one row per region (size, backhaul depth, local and sink
//! deliveries, frame accounting) plus city totals.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ssync_exp::{Ctx, Output, Scenario, Value};
use ssync_obs::{Obs, Observable};
use ssync_phy::{OfdmParams, RateId};
use ssync_sim::ChannelModels;
use ssync_testbed::{run_city_observed, CityConfig, CityNetwork, RoutingMode, TestbedConfig};

/// The avenue plan: 72 blocks in a row, 7 radios each — 504 nodes. Blocks
/// are 150 m (in-block diameter ≈ 212 m, inside the 215 m range, so every
/// block is one connected region; the *typical* intra-block distance of
/// ~80 m sits at the default budget's marginal R12 operating point — the
/// Fig. 10 regime where ExOR forwarding and SourceSync joins pay) and
/// streets 220 m (beyond the range, so no block couples with its
/// neighbour at the waveform level).
fn avenue() -> ssync_channel::CityPlan {
    ssync_channel::CityPlan {
        blocks_x: 72,
        blocks_y: 1,
        block_m: 150.0,
        street_m: 220.0,
        nodes_per_block: 7,
    }
}

/// Interference range the city is built at, metres.
const RANGE_M: f64 = 215.0;

/// See the module docs.
pub struct TestbedCity;

impl Scenario for TestbedCity {
    fn name(&self) -> &'static str {
        "testbed_city"
    }

    fn title(&self) -> &'static str {
        "City-scale testbed: 504-node avenue, interference-closed regions in parallel"
    }

    fn paper_ref(&self) -> &'static str {
        "§8 at city scale (ROADMAP north star)"
    }

    fn run(&self, ctx: &Ctx, out: &mut Output) {
        self.run_observed(ctx, out, &mut Obs::disabled());
    }
}

impl Observable for TestbedCity {
    /// The one body: [`Scenario::run`] calls it with [`Obs::disabled`].
    /// Each region's recorder/registry comes back from
    /// [`run_city_observed`] in region order and is folded into `obs` as a
    /// `city{c}/region{k}` track.
    fn run_observed(&self, ctx: &Ctx, out: &mut Output, obs: &mut Obs) {
        let params = OfdmParams::dot11a();
        let plan = avenue();
        let transfer = TestbedConfig {
            batch_size: 4,
            payload_len: 64,
            ..TestbedConfig::new(RateId::R12, RoutingMode::ExorSourceSync)
        };
        let cities = ctx.trials(1);
        out.comment(format!(
            "City-scale testbed: {} nodes in {} interference-closed regions \
             (avenue of {}x{} blocks, {} radios each, {RANGE_M:.0} m range)",
            plan.node_count(),
            plan.blocks_x * plan.blocks_y,
            plan.blocks_x,
            plan.blocks_y,
            plan.nodes_per_block,
        ));
        out.comment(
            "(waveform PHY inside each region, regions in parallel; analytic \
             directional backhaul between region centroids to the city sink)",
        );

        for c in 0..cities {
            let seed = 880_000 + 17 * c as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let city = CityNetwork::build(
                &mut rng,
                &params,
                &plan,
                &ChannelModels::testbed(&params),
                RANGE_M,
            );
            let cfg = CityConfig {
                threads: ctx.threads(),
                ..CityConfig::new(transfer.clone())
            };
            let (outcome, artifacts) =
                run_city_observed(&city, seed ^ 0xC17, &cfg, obs.is_enabled());
            for (k, (rec, reg)) in artifacts.into_iter().enumerate() {
                obs.add_track(format!("city{c}/region{k}"), rec);
                obs.merge_metrics(&reg);
            }

            out.blank();
            out.comment(format!(
                "city {c}: {} nodes, {} regions",
                outcome.nodes,
                outcome.regions.len()
            ));
            out.columns(&[
                "region",
                "nodes",
                "backhaul_hops",
                "delivered",
                "sink_delivered",
                "data_frames",
                "joint_frames",
                "joins",
            ]);
            for r in &outcome.regions {
                let (delivered, data, joint, joins) = r
                    .outcome
                    .as_ref()
                    .map(|o| (o.delivered, o.data_frames, o.joint_frames, o.joins.joined))
                    .unwrap_or((0, 0, 0, 0));
                out.row(vec![
                    Value::Int(r.region as i64),
                    Value::Int(r.nodes as i64),
                    Value::Int(r.backhaul_hops as i64),
                    Value::Int(delivered as i64),
                    Value::Int(r.sink_delivered as i64),
                    Value::Int(data as i64),
                    Value::Int(joint as i64),
                    Value::Int(joins as i64),
                ]);
            }
            let attempts: u64 = outcome.regions.iter().map(|r| r.backhaul_attempts).sum();
            out.comment(format!(
                "city {c} totals: {} delivered locally, {} reached the sink \
                 ({attempts} backhaul attempts), {} data frames, {} joint frames \
                 ({} joins), {} collisions",
                outcome.delivered_local(),
                outcome.delivered_sink(),
                outcome.data_frames(),
                outcome.joint_frames(),
                outcome.joins_joined(),
                outcome.collisions(),
            ));
        }
    }
}
