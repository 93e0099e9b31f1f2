//! Last-hop WLAN demo (paper §7.1, Fig. 9): a client associated with two
//! APs, downlink via the single best AP vs SourceSync joint transmission.
//!
//! Run with: `cargo run --release --example lasthop_wlan [snr1_db snr2_db]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sourcesync::lasthop::{
    run_session, Association, ClientScenario, Controller, Mode, SessionSpec,
};
use sourcesync::phy::ber::PerTable;
use sourcesync::phy::OfdmParams;
use sourcesync::sim::NodeId;

fn main() {
    let mut args = std::env::args().skip(1);
    let snr1: f64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(11.0);
    let snr2: f64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(9.0);

    let params = OfdmParams::dot11a();
    let per = PerTable::analytic();

    // The wired-side controller: client 100 associates with the two APs,
    // the better one becomes the lead and gets codeword 1.
    let mut controller = Controller::new();
    let aps = [NodeId(1), NodeId(2)];
    let assoc = Association::associate(NodeId(100), &aps, 2, |ap| {
        if ap == NodeId(1) {
            snr1
        } else {
            snr2
        }
    });
    println!(
        "client associated with {:?}; lead AP = {}, co-sender APs = {:?}",
        assoc.aps,
        assoc.lead(),
        assoc.cosenders()
    );
    controller.register(assoc);

    let scenario = ClientScenario {
        downlink_snr_db: vec![snr1.max(snr2), snr1.min(snr2)],
        uplink_snr_db: vec![snr1, snr2],
    };
    println!(
        "downlink SNRs: {:.1} / {:.1} dB; joint = {:.1} dB",
        snr1,
        snr2,
        scenario.joint_downlink_snr_db()
    );

    let n_packets = 600;
    let spec = |mode| SessionSpec {
        mode,
        payload_len: 1460,
        n_packets,
    };
    let mut rng = StdRng::seed_from_u64(5);
    let single = run_session(
        &mut rng,
        &params,
        &per,
        &scenario,
        &spec(Mode::BestSingleAp),
    );
    let mut rng = StdRng::seed_from_u64(5);
    let joint = run_session(&mut rng, &params, &per, &scenario, &spec(Mode::SourceSync));

    println!("\n                 delivered   throughput   settled rate");
    println!(
        "single best AP : {:4}/{n_packets}    {:6.2} Mbps   {:?}",
        single.delivered,
        single.throughput_bps / 1e6,
        single.final_rate
    );
    println!(
        "SourceSync     : {:4}/{n_packets}    {:6.2} Mbps   {:?}",
        joint.delivered,
        joint.throughput_bps / 1e6,
        joint.final_rate
    );
    println!(
        "\ngain: {:.2}x (the paper's median across placements: 1.57x)",
        joint.throughput_bps / single.throughput_bps.max(1.0)
    );
}
