//! The city-scale testbed: a spatially partitioned mesh whose
//! interference-closed regions run the full protocol stack in parallel.
//!
//! The ROADMAP's north star is the 500–5000-node mesh the paper's §8
//! machinery is supposed to scale to. One global [`WaveformMedium`]
//! cannot get there — every capture superposes every transmission — but a
//! city is not one collision domain: blocks separated by streets wider
//! than the interference range never couple at the waveform level. This
//! module exploits that structure in three steps:
//!
//! 1. **Ranged build** — [`ssync_sim::Network::build_ranged`] draws links
//!    only for pairs within the interference range, so the city draw is
//!    O(N·neighbours);
//! 2. **Region closure** — [`ssync_sim::Network::interference_regions`]
//!    partitions the nodes into connected components of the link graph.
//!    No link crosses a component boundary, so each region's event
//!    execution is *exactly* independent: running regions on
//!    [`ssync_exp::exec::par_map`] with index-ordered merge is
//!    byte-identical at any thread count;
//! 3. **Hybrid fidelity** — inside a region, delivery is the real
//!    waveform PHY (superposition, multipath, CFO, AWGN, joint frames).
//!    Beyond the range the medium carries nothing; far-field delivery to
//!    the city sink is modelled analytically with the PR-1-era logistic
//!    PER curves ([`PerTable::analytic`]) over a directional backhaul
//!    chain between region centroids: 6 Mbps hops with 20 dB of antenna
//!    gain and up to [`RETRY_LIMIT`] attempts each.
//!
//! Every region seeds its own RNG from the city seed and its region index
//! ([`ssync_exp::trial_seed`]), so regional results never depend on
//! execution order.
//!
//! [`WaveformMedium`]: ssync_sim::WaveformMedium

use crate::runtime::{run_transfer_observed, TestbedConfig, TestbedOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssync_channel::{CityPlan, Position};
use ssync_exp::exec::par_map;
use ssync_exp::trial_seed;
use ssync_mac::RETRY_LIMIT;
use ssync_obs::{MetricRegistry, TraceRecorder};
use ssync_phy::ber::PerTable;
use ssync_phy::{Params, RateId};
use ssync_sim::{ChannelModels, Network};

/// Rate the analytic backhaul hops are scored at.
const BACKHAUL_RATE: RateId = RateId::R6;
/// Directional-antenna gain of the gateway backhaul, dB (street-scale hops
/// are far beyond the omni budget; gateways get real antennas).
const BACKHAUL_ANTENNA_GAIN_DB: f64 = 20.0;

/// A built city: the ranged network plus its interference-closed region
/// partition and the channel models (kept for the analytic far field).
#[derive(Debug)]
pub struct CityNetwork {
    /// The ranged-build network (links only within `range_m`).
    pub net: Network,
    /// Interference-closed regions: connected components of the link
    /// graph, members ascending, ordered by smallest member.
    pub regions: Vec<Vec<usize>>,
    /// The interference range the build was cut at, metres.
    pub range_m: f64,
    /// Channel models (the backhaul PER uses the same path loss and power
    /// budget the in-region links were drawn under).
    pub models: ChannelModels,
}

impl CityNetwork {
    /// Draws a city over a block plan: placements from the plan, links
    /// from the ranged builder, regions from the component partition.
    pub fn build<R: Rng + ?Sized>(
        rng: &mut R,
        params: &Params,
        plan: &CityPlan,
        models: &ChannelModels,
        range_m: f64,
    ) -> Self {
        let positions = plan.positions(rng);
        let net = Network::build_ranged(rng, params, &positions, models, range_m);
        let regions = net.interference_regions();
        CityNetwork {
            net,
            regions,
            range_m,
            models: models.clone(),
        }
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.net.len()
    }

    /// The centroid of region `k` (mean member position).
    pub fn region_centroid(&self, k: usize) -> Position {
        let members = &self.regions[k];
        let m = members.len().max(1) as f64;
        let (mut x, mut y) = (0.0, 0.0);
        for &g in members {
            let p = self.net.nodes[g].position;
            x += p.x;
            y += p.y;
        }
        Position::new(x / m, y / m)
    }
}

/// Knobs for one city run.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// The per-region transfer (routing mode, rate, batch, ARQ…).
    pub transfer: TestbedConfig,
    /// Worker threads for the per-region fan-out (output is identical at
    /// any value, per the workspace determinism contract).
    pub threads: usize,
}

impl CityConfig {
    /// Defaults around a given per-region transfer.
    pub fn new(transfer: TestbedConfig) -> Self {
        CityConfig {
            transfer,
            threads: 1,
        }
    }
}

/// One region's contribution to a city run.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    /// Region index (partition order).
    pub region: usize,
    /// Member count.
    pub nodes: usize,
    /// The waveform-level transfer outcome; `None` when the region is too
    /// small to route (fewer than two nodes) or unreachable.
    pub outcome: Option<TestbedOutcome>,
    /// Backhaul hops between this region and the city sink.
    pub backhaul_hops: usize,
    /// Analytic backhaul frame attempts spent.
    pub backhaul_attempts: u64,
    /// Packets that reached the city sink (region 0's deliveries count
    /// directly; other regions forward over the backhaul).
    pub sink_delivered: usize,
}

/// What a whole city run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CityOutcome {
    /// Total nodes in the city.
    pub nodes: usize,
    /// Per-region reports, in region order.
    pub regions: Vec<RegionReport>,
}

impl CityOutcome {
    /// Packets delivered inside their own region (waveform fidelity).
    pub fn delivered_local(&self) -> usize {
        self.regions
            .iter()
            .map(|r| r.outcome.as_ref().map(|o| o.delivered).unwrap_or(0))
            .sum()
    }

    /// Packets that reached the city sink (local + analytic backhaul).
    pub fn delivered_sink(&self) -> usize {
        self.regions.iter().map(|r| r.sink_delivered).sum()
    }

    /// Plain DATA frames across all regions.
    pub fn data_frames(&self) -> u64 {
        self.sum(|o| o.data_frames)
    }

    /// Joint frames across all regions.
    pub fn joint_frames(&self) -> u64 {
        self.sum(|o| o.joint_frames)
    }

    /// Collisions across all regions.
    pub fn collisions(&self) -> u64 {
        self.sum(|o| o.collisions)
    }

    /// Successful SourceSync joins across all regions.
    pub fn joins_joined(&self) -> u64 {
        self.sum(|o| o.joins.joined)
    }

    fn sum(&self, f: impl Fn(&TestbedOutcome) -> u64) -> u64 {
        self.regions
            .iter()
            .filter_map(|r| r.outcome.as_ref())
            .map(f)
            .sum()
    }
}

/// Runs every region of the city: the full waveform-level protocol stack
/// inside each region (source = lowest member, destination = highest,
/// everyone else a forwarder candidate), then the analytic backhaul from
/// each region gateway to the city sink (region 0).
///
/// Regions execute on [`par_map`] with `cfg.threads` workers and are
/// merged in region order; each job draws only from its own
/// [`trial_seed`]-derived RNG, so the outcome is byte-identical at any
/// thread count.
pub fn run_city(city: &CityNetwork, seed: u64, cfg: &CityConfig) -> CityOutcome {
    run_city_observed(city, seed, cfg, false).0
}

/// [`run_city`] with per-region observability: when `observe` is set,
/// each region fills an enabled [`TraceRecorder`] and a
/// [`MetricRegistry`], returned in region order (empty recorders when
/// not). The protocol outcome is bit-identical either way.
pub fn run_city_observed(
    city: &CityNetwork,
    seed: u64,
    cfg: &CityConfig,
    observe: bool,
) -> (CityOutcome, Vec<(TraceRecorder, MetricRegistry)>) {
    let per_table = PerTable::analytic();
    let job = |k: usize| {
        let members = &city.regions[k];
        let mut trace = if observe {
            TraceRecorder::enabled()
        } else {
            TraceRecorder::disabled()
        };
        let mut metrics = MetricRegistry::new();
        let mut rng = StdRng::seed_from_u64(trial_seed(seed, k as u64, 0));
        let m = members.len();
        let outcome = if m >= 2 {
            let mut sub = city.net.subnetwork(members);
            let candidates: Vec<usize> = (1..m - 1).collect();
            run_transfer_observed(
                &mut sub,
                &mut rng,
                0,
                m - 1,
                &candidates,
                &cfg.transfer,
                &mut trace,
                &mut metrics,
            )
        } else {
            None
        };
        let delivered = outcome.as_ref().map(|o| o.delivered).unwrap_or(0);
        // Far field: forward this region's deliveries to the city sink
        // over a directional backhaul chain of region-centroid hops,
        // scored by the analytic PER curves — the hybrid-fidelity boundary
        // (waveform physics in-region, PR-1-era analytics beyond range).
        let mut sink_delivered = 0;
        let mut backhaul_attempts = 0u64;
        let hop_pers: Vec<f64> = if k == 0 {
            Vec::new() // the sink region delivers in place
        } else {
            (1..=k)
                .map(|r| {
                    let d = city
                        .region_centroid(r)
                        .distance_m(&city.region_centroid(r - 1));
                    let snr_db = city
                        .models
                        .budget
                        .snr_db(city.models.pathloss.median_loss_db(d))
                        + BACKHAUL_ANTENNA_GAIN_DB;
                    per_table.per(BACKHAUL_RATE, snr_db)
                })
                .collect()
        };
        if k == 0 {
            sink_delivered = delivered;
        } else {
            for _ in 0..delivered {
                let mut survives = true;
                for per in &hop_pers {
                    let mut hop_ok = false;
                    for _ in 0..RETRY_LIMIT {
                        backhaul_attempts += 1;
                        if rng.gen::<f64>() >= *per {
                            hop_ok = true;
                            break;
                        }
                    }
                    if !hop_ok {
                        survives = false;
                        break;
                    }
                }
                if survives {
                    sink_delivered += 1;
                }
            }
        }
        (
            RegionReport {
                region: k,
                nodes: m,
                outcome,
                backhaul_hops: hop_pers.len(),
                backhaul_attempts,
                sink_delivered,
            },
            trace,
            metrics,
        )
    };
    let results = par_map(cfg.threads, city.regions.len(), job);
    let mut regions = Vec::with_capacity(results.len());
    let mut artifacts = Vec::with_capacity(results.len());
    for (report, trace, metrics) in results {
        regions.push(report);
        artifacts.push((trace, metrics));
    }
    (
        CityOutcome {
            nodes: city.node_count(),
            regions,
        },
        artifacts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RoutingMode;
    use ssync_phy::OfdmParams;

    /// A small city for debug-build tests: 2×2 blocks of 4 nodes, streets
    /// far wider than the interference range.
    fn small_city(seed: u64) -> CityNetwork {
        let params = OfdmParams::dot11a();
        let plan = CityPlan {
            blocks_x: 2,
            blocks_y: 2,
            block_m: 20.0,
            street_m: 100.0,
            nodes_per_block: 4,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        CityNetwork::build(
            &mut rng,
            &params,
            &plan,
            &ChannelModels::testbed(&params),
            40.0,
        )
    }

    fn city_cfg(threads: usize) -> CityConfig {
        let transfer = TestbedConfig {
            batch_size: 4,
            payload_len: 64,
            ..TestbedConfig::new(RateId::R12, RoutingMode::ExorSourceSync)
        };
        CityConfig {
            threads,
            ..CityConfig::new(transfer)
        }
    }

    #[test]
    fn blocks_become_interference_closed_regions() {
        let city = small_city(1);
        assert_eq!(city.node_count(), 16);
        // Streets (100 m) dwarf the range (40 m): each block is its own
        // region, block-major placement makes them contiguous id runs.
        assert_eq!(
            city.regions,
            vec![
                vec![0, 1, 2, 3],
                vec![4, 5, 6, 7],
                vec![8, 9, 10, 11],
                vec![12, 13, 14, 15],
            ]
        );
        // Closure: no link crosses a region boundary.
        let region_of: Vec<usize> = (0..16).map(|g| g / 4).collect();
        for (&(a, b), _) in city.net.medium.links() {
            assert_eq!(region_of[a.0], region_of[b.0], "link {a}->{b} crosses");
        }
    }

    #[test]
    fn city_outcome_is_thread_count_invariant() {
        let city = small_city(2);
        let serial = run_city(&city, 77, &city_cfg(1));
        let parallel = run_city(&city, 77, &city_cfg(8));
        assert_eq!(serial, parallel, "city outcome diverged across threads");
        assert!(serial.delivered_local() > 0, "{serial:?}");
    }

    #[test]
    fn city_delivers_locally_and_to_sink() {
        let city = small_city(3);
        let out = run_city(&city, 5, &city_cfg(2));
        assert_eq!(out.nodes, 16);
        assert_eq!(out.regions.len(), 4);
        // The sink region's deliveries count without backhaul.
        assert_eq!(out.regions[0].backhaul_hops, 0);
        assert_eq!(
            out.regions[0].sink_delivered,
            out.regions[0].outcome.as_ref().unwrap().delivered
        );
        // Far regions cross more centroid hops; none beats its own local
        // delivery count.
        assert!(out.regions[3].backhaul_hops >= out.regions[1].backhaul_hops);
        for r in &out.regions {
            let local = r.outcome.as_ref().map(|o| o.delivered).unwrap_or(0);
            assert!(
                r.sink_delivered <= local,
                "region {} conjured packets",
                r.region
            );
        }
        assert!(out.delivered_sink() > 0);
        assert!(out.delivered_sink() <= out.delivered_local());
    }

    #[test]
    fn observing_a_city_changes_nothing_and_fills_tracks() {
        let city = small_city(4);
        let plain = run_city(&city, 9, &city_cfg(2));
        let (observed, artifacts) = run_city_observed(&city, 9, &city_cfg(2), true);
        assert_eq!(plain, observed, "observation perturbed the protocol");
        assert_eq!(artifacts.len(), 4);
        for (k, (trace, metrics)) in artifacts.iter().enumerate() {
            assert!(trace.is_enabled());
            assert!(!trace.is_empty(), "region {k} trace empty");
            assert!(!metrics.is_empty(), "region {k} metrics empty");
        }
    }

    #[test]
    fn single_node_regions_are_reported_not_run() {
        // One block of one node: no transfer is possible, the report says
        // so instead of panicking or being silently dropped.
        let params = OfdmParams::dot11a();
        let plan = CityPlan {
            blocks_x: 2,
            blocks_y: 1,
            block_m: 15.0,
            street_m: 200.0,
            nodes_per_block: 1,
        };
        let mut rng = StdRng::seed_from_u64(6);
        let city = CityNetwork::build(
            &mut rng,
            &params,
            &plan,
            &ChannelModels::testbed(&params),
            30.0,
        );
        let out = run_city(&city, 1, &city_cfg(1));
        assert_eq!(out.regions.len(), 2);
        for r in &out.regions {
            assert_eq!(r.outcome, None);
            assert_eq!(r.sink_delivered, 0);
        }
    }
}
