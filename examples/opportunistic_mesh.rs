//! Opportunistic routing demo: the paper's Fig. 10 diamond on the
//! event-driven testbed.
//!
//! A source, three relays, and a destination over the waveform medium: a
//! healthy first hop, a lossy final hop, relays that hear each other, and
//! no usable direct link. One batch runs through single-path routing,
//! ExOR, and ExOR+SourceSync on the same network, with an optional share
//! of DATA frames dropped on top of the channel's own losses.
//!
//! Run with: `cargo run --release --example opportunistic_mesh [drop%]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sourcesync::channel::Position;
use sourcesync::obs::{MetricRegistry, TraceRecorder};
use sourcesync::phy::{OfdmParams, RateId};
use sourcesync::sim::{ChannelModels, FaultInjector, Network, NodeId};
use sourcesync::testbed::{run_transfer_observed, FaultPlan, RoutingMode, TestbedConfig};

fn main() {
    let drop_pct: f64 = std::env::args()
        .nth(1)
        .and_then(|v| v.trim_end_matches('%').parse().ok())
        .unwrap_or(0.0);
    let faults = FaultPlan {
        data: FaultInjector::new(drop_pct / 100.0, 0.0),
        ..FaultPlan::none()
    };

    let params = OfdmParams::dot11a();
    let rate = RateId::R12;
    let positions = [
        (0.0, 0.0),
        (14.0, -8.0),
        (14.0, 0.0),
        (14.0, 8.0),
        (28.0, 0.0),
    ]
    .map(|(x, y)| Position::new(x, y));
    let mut rng = StdRng::seed_from_u64(99);
    let mut net = Network::build(
        &mut rng,
        &params,
        &positions,
        &ChannelModels::testbed(&params),
    );
    let (first_hop, final_hop) = (12.0, 6.0);
    let mut pin = |a: usize, b: usize, snr: f64| {
        net.pin_snr_db(NodeId(a), NodeId(b), snr);
        net.pin_snr_db(NodeId(b), NodeId(a), snr);
    };
    for r in 1..=3 {
        pin(0, r, first_hop);
        pin(r, 4, final_hop);
        for j in r + 1..=3 {
            pin(r, j, 15.0);
        }
    }
    pin(0, 4, -15.0);
    println!(
        "diamond topology: src=0, relays=1..3, dst=4; first hop {first_hop} dB, final hop \
         {final_hop} dB, DATA at {} Mbps",
        rate.nominal_mbps()
    );
    if drop_pct > 0.0 {
        println!("extra fault injection: {drop_pct}% of DATA frames dropped");
    }
    println!();

    let modes = [
        ("single path", RoutingMode::SinglePath),
        ("ExOR", RoutingMode::Exor),
        ("ExOR+SSync", RoutingMode::ExorSourceSync),
    ];
    let mut throughput = Vec::new();
    for (m, (name, mode)) in modes.into_iter().enumerate() {
        let cfg = TestbedConfig {
            faults,
            ..TestbedConfig::new(rate, mode)
        };
        let mut rng = StdRng::seed_from_u64(100 + m as u64);
        let o = run_transfer_observed(
            &mut net,
            &mut rng,
            0,
            4,
            &[1, 2, 3],
            &cfg,
            &mut TraceRecorder::disabled(),
            &mut MetricRegistry::new(),
        )
        .expect("destination reachable");
        println!(
            "{name:<12}: {:5.2} Mbps ({} of {} packets, {} joint frames, {} DATA frames dropped \
             by injection)",
            o.throughput_bps / 1e6,
            o.delivered,
            cfg.batch_size,
            o.joint_frames,
            o.faults.data_dropped
        );
        throughput.push(o.throughput_bps);
    }
    println!(
        "\ngains: ExOR/single {:.2}x, +SourceSync/ExOR {:.2}x, total {:.2}x",
        throughput[1] / throughput[0],
        throughput[2] / throughput[1],
        throughput[2] / throughput[0]
    );
}
