//! Workload `city`: one `run_city` per unit over a sequence of avenues.
//!
//! Set-up draws a pool of avenue `CityPlan`s (one row of blocks, streets
//! wider than the interference range, so every block is its own region)
//! and builds each with `Network::build_ranged` and the region partition.
//! The pool cycles block sizes (radios per block, hence region sizes) and
//! routing modes (single path, ExOR, ExOR+SourceSync), so every seed has
//! the same mix; the seed draws placements, channels and protocol
//! randomness. A unit is one `run_city` on `par_map` with one worker per
//! available core. The traced run replays every region serially through
//! `Network::subnetwork` and `run_transfer_observed` with the RNG
//! `run_city` gives that region, to time each region and check the
//! parallel run against it.

use crate::host::HostSpeed;
use crate::stats::{closed_loop, median, timed, Metric, UnitLog};
use crate::trace::Recorder;
use crate::Size;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sourcesync::channel::CityPlan;
use sourcesync::exp::trial_seed;
use sourcesync::obs::{MetricRegistry, TraceRecorder};
use sourcesync::phy::{OfdmParams, RateId};
use sourcesync::sim::{ChannelModels, Network};
use sourcesync::testbed::{
    run_city, run_transfer_observed, CityConfig, CityNetwork, CityOutcome, RoutingMode,
    TestbedConfig, TestbedOutcome,
};

/// Interference range, metres (covers a 150 m block, not a 220 m street).
const RANGE_M: f64 = 215.0;
/// Routing modes, cycled through the pool.
const MODES: [RoutingMode; 3] = [
    RoutingMode::SinglePath,
    RoutingMode::Exor,
    RoutingMode::ExorSourceSync,
];

/// The avenue shape of pool entry `c`: block count and radios per block.
fn plan(c: usize, size: Size) -> CityPlan {
    let (blocks_x, per_block) = match size {
        Size::Full => (12, [4, 5, 6]),
        Size::Smoke => (2, [3, 4, 5]),
    };
    CityPlan {
        blocks_x,
        blocks_y: 1,
        block_m: 150.0,
        street_m: 220.0,
        nodes_per_block: per_block[(c / MODES.len()) % per_block.len()],
    }
}

/// One pool entry: the built city and how it is run.
pub struct City {
    /// The network and its regions.
    pub city: CityNetwork,
    cfg: CityConfig,
    seed: u64,
    /// The outcome of the first run; every later run must equal it.
    expected: Option<CityOutcome>,
}

/// Everything the timed phase consumes, plus set-up measurements.
pub struct Inputs {
    /// The pool, in issue order.
    pub cities: Vec<City>,
    /// `build_ranged` calls in set-up and their total time, nanoseconds.
    builds: u64,
    build_ns: u64,
    /// `par_map` workers per `run_city`.
    workers: usize,
}

/// Pool size: every (block size, mode) pair, eight times over at full
/// size; consecutive runs of nine cities cover all nine pairs.
fn pool_len(size: Size) -> usize {
    match size {
        Size::Full => 72,
        Size::Smoke => 3,
    }
}

/// (block size, mode) pairs; the first [`CLASSES`] cities cover each once.
const CLASSES: usize = 9;

/// Builds every city, then runs one warm-up unit per (block size, mode)
/// pair.
pub fn setup(seed: u64, size: Size, workers: usize) -> Inputs {
    let params = OfdmParams::dot11a();
    let models = ChannelModels::testbed(&params);
    let mut inputs = Inputs {
        cities: Vec::new(),
        builds: 0,
        build_ns: 0,
        workers,
    };
    for c in 0..pool_len(size) {
        let mut rng = StdRng::seed_from_u64(trial_seed(seed, c as u64, 0));
        let positions = plan(c, size).positions(&mut rng);
        let (ns, net) =
            timed(|| Network::build_ranged(&mut rng, &params, &positions, &models, RANGE_M));
        inputs.builds += 1;
        inputs.build_ns += ns;
        let regions = net.interference_regions();
        let transfer = TestbedConfig {
            batch_size: 4,
            payload_len: 64,
            ..TestbedConfig::new(RateId::R12, MODES[c % MODES.len()])
        };
        inputs.cities.push(City {
            city: CityNetwork {
                net,
                regions,
                range_m: RANGE_M,
                models: models.clone(),
            },
            cfg: CityConfig {
                threads: workers,
                ..CityConfig::new(transfer)
            },
            seed: trial_seed(seed, c as u64, 1),
            expected: None,
        });
    }
    // One warm-up unit per (block size, mode) pair: every routing mode's
    // code is warm before timing, and the set-up's cost averages over nine
    // cities instead of following one seed-drawn topology.
    for k in 0..CLASSES.min(inputs.cities.len()) {
        let (_, ok) = unit(&mut inputs, k);
        assert!(ok, "warm-up unit failed its check");
    }
    inputs
}

/// The per-unit check: no region delivers more than its batch, and a city
/// run again gives exactly the outcome it gave the first time.
fn check(city: &mut City, outcome: CityOutcome) -> bool {
    let batch = city.cfg.transfer.batch_size;
    let sane = outcome.regions.len() == city.city.regions.len()
        && outcome.regions.iter().all(|r| {
            r.sink_delivered <= batch && r.outcome.as_ref().is_none_or(|o| o.delivered <= batch)
        });
    match &city.expected {
        Some(expected) => sane && *expected == outcome,
        None => {
            city.expected = Some(outcome);
            sane
        }
    }
}

/// One unit on pool entry `k`.
fn unit(inputs: &mut Inputs, k: usize) -> (u64, bool) {
    let city = &mut inputs.cities[k];
    let (ns, outcome) = timed(|| run_city(&city.city, city.seed, &city.cfg));
    (ns, check(city, outcome))
}

/// The untraced closed loop over the pool, from unit number `first` on.
pub fn run(inputs: &mut Inputs, seconds: f64, first: u64, host: &mut HostSpeed) -> UnitLog {
    let n = inputs.cities.len();
    closed_loop(seconds, 1, host, |i| unit(inputs, (first + i) as usize % n))
}

/// Per-layer figures of the serial replay of the whole pool.
#[derive(Debug, Clone, Default)]
struct Replay {
    region_ms: Vec<f64>,
    transfer_ns: u64,
    efficiency: Vec<f64>,
    straggler: Vec<f64>,
    data_frames: u64,
    joint_frames: u64,
    collisions: u64,
    arq_retries: u64,
    acks_lost: u64,
    delivered: u64,
    offered: u64,
    regions: u64,
}

/// Replays every region of `city` serially, each in its own spans, and
/// checks the outcomes against `parallel`, region by region.
fn replay(
    city: &City,
    parallel: &CityOutcome,
    run_ns: u64,
    workers: usize,
    rec: &mut Recorder,
    acc: &mut Replay,
) -> bool {
    let span = rec.begin("city.replay");
    let mut agree = parallel.regions.len() == city.city.regions.len();
    let mut busy_ms = Vec::with_capacity(city.city.regions.len());
    for (k, members) in city.city.regions.iter().enumerate() {
        let (mut sub, sub_ns) = rec.span("sim.subnetwork", || city.city.net.subnetwork(members));
        let m = members.len();
        let mut rng = StdRng::seed_from_u64(trial_seed(city.seed, k as u64, 0));
        let candidates: Vec<usize> = (1..m.saturating_sub(1)).collect();
        let (outcome, transfer_ns): (Option<TestbedOutcome>, u64) = if m >= 2 {
            rec.span("testbed.run_transfer", || {
                run_transfer_observed(
                    &mut sub,
                    &mut rng,
                    0,
                    m - 1,
                    &candidates,
                    &city.cfg.transfer,
                    &mut TraceRecorder::disabled(),
                    &mut MetricRegistry::new(),
                )
            })
        } else {
            (None, 0)
        };
        agree &= parallel
            .regions
            .get(k)
            .is_some_and(|r| r.outcome == outcome);
        busy_ms.push((sub_ns + transfer_ns) as f64 * 1e-6);
        acc.regions += 1;
        acc.transfer_ns += transfer_ns;
        if let Some(o) = &outcome {
            acc.data_frames += o.data_frames;
            acc.joint_frames += o.joint_frames;
            acc.collisions += o.collisions;
            acc.arq_retries += o.arq_retries;
            acc.acks_lost += o.acks_lost;
            acc.delivered += o.delivered as u64;
            acc.offered += city.cfg.transfer.batch_size as u64;
        }
    }
    rec.end(span);
    let busy: f64 = busy_ms.iter().sum();
    let mean = busy / busy_ms.len().max(1) as f64;
    let max = busy_ms.iter().copied().fold(0.0, f64::max);
    acc.efficiency
        .push(busy / (workers as f64 * run_ns.max(1) as f64 * 1e-6));
    acc.straggler.push(max / mean.max(f64::MIN_POSITIVE));
    acc.region_ms.extend(busy_ms);
    agree
}

/// The traced closed loop. The first pass over the pool always completes:
/// each of its runs is followed by the serial replay that checks it and
/// times the regions. Later units time `run_city` alone.
pub fn run_traced(
    inputs: &mut Inputs,
    seconds: f64,
    host: &mut HostSpeed,
    rec: &mut Recorder,
    out: &mut Vec<Metric>,
) -> UnitLog {
    let n = inputs.cities.len();
    let workers = inputs.workers;
    let mut acc = Replay::default();
    let log = closed_loop(seconds, n as u64, host, |i| {
        let k = i as usize % n;
        rec.set_unit(Some(i));
        let city = &mut inputs.cities[k];
        let (outcome, ns) = rec.span("city.unit", || run_city(&city.city, city.seed, &city.cfg));
        let agree = (i as usize) >= n || replay(city, &outcome, ns, workers, rec, &mut acc);
        (ns, agree && check(city, outcome))
    });
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let region_max = acc.region_ms.iter().copied().fold(0.0, f64::max);
    out.push(Metric::new(
        "sim.build_ranged_ms",
        inputs.build_ns as f64 * 1e-6 / inputs.builds.max(1) as f64,
        "ms",
    ));
    out.push(Metric::new("sim.regions", acc.regions as f64, "count"));
    out.push(Metric::new(
        "testbed.region_ms.p50",
        median(&acc.region_ms),
        "ms",
    ));
    out.push(Metric::new("testbed.region_ms.max", region_max, "ms"));
    out.push(Metric::new(
        "testbed.us_per_frame",
        ratio(acc.transfer_ns, acc.data_frames + acc.joint_frames) * 1e-3,
        "us",
    ));
    out.push(Metric::new(
        "exp.par_map.efficiency",
        median(&acc.efficiency),
        "ratio",
    ));
    out.push(Metric::new(
        "exp.par_map.straggler_ratio",
        median(&acc.straggler),
        "ratio",
    ));
    out.push(Metric::new(
        "testbed.data_frames",
        acc.data_frames as f64,
        "count",
    ));
    out.push(Metric::new(
        "testbed.joint_frames",
        acc.joint_frames as f64,
        "count",
    ));
    out.push(Metric::new(
        "testbed.collisions",
        acc.collisions as f64,
        "count",
    ));
    out.push(Metric::new(
        "mac.arq_retries",
        acc.arq_retries as f64,
        "count",
    ));
    out.push(Metric::new("mac.acks_lost", acc.acks_lost as f64, "count"));
    out.push(Metric::new(
        "testbed.delivered_ratio",
        ratio(acc.delivered, acc.offered),
        "ratio",
    ));
    log
}
