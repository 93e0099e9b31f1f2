//! Quickstart: two senders, one receiver, one SourceSync joint frame —
//! driven through the staged `JointSession` API, one protocol role at a
//! time.
//!
//! Builds a three-node network on the simulated testbed floor, measures
//! propagation delays with the probe protocol, solves wait times, then
//! plays the §4.4 protocol explicitly: the lead's transmission
//! (`LeadTx`), the co-sender's detect → compensate → join
//! (`CosenderJoin`, with a typed `JoinFailure` if it cannot), and the
//! receiver's joint decode (`ReceiverDecode`).
//!
//! Run with: `cargo run --release --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sourcesync::channel::Position;
use sourcesync::core::{CosenderPlan, DelayDatabase, JointConfig, JointSession, SessionWorkspace};
use sourcesync::phy::OfdmParams;
use sourcesync::sim::{ChannelModels, Network, NodeId};

fn main() {
    let params = OfdmParams::dot11a();
    let models = ChannelModels::testbed(&params);
    let mut rng = StdRng::seed_from_u64(7);

    // Lead sender, co-sender, receiver on a 30 m office floor.
    let positions = vec![
        Position::new(2.0, 3.0),  // lead
        Position::new(10.0, 2.0), // co-sender
        Position::new(7.0, 14.0), // receiver
    ];
    let mut net = Network::build(&mut rng, &params, &positions, &models);
    let (lead, cosender, receiver) = (NodeId(0), NodeId(1), NodeId(2));

    println!("link SNRs:");
    println!("  lead   -> rx : {:6.1} dB", net.snr_db(lead, receiver));
    println!("  co     -> rx : {:6.1} dB", net.snr_db(cosender, receiver));
    println!("  lead   -> co : {:6.1} dB", net.snr_db(lead, cosender));

    // 1. Measure one-way delays and CFOs with the probe protocol (Eq. 2).
    let mut db = DelayDatabase::new();
    assert!(
        db.measure_all(&mut net, &mut rng, &[lead, cosender, receiver], 3),
        "probe phase failed — links too weak"
    );
    println!("\nmeasured one-way delays (vs geometric truth):");
    for (a, b) in [(lead, cosender), (lead, receiver), (cosender, receiver)] {
        println!(
            "  {a} <-> {b}: {:6.2} ns (true {:6.2} ns)",
            db.delay_s(a, b).unwrap() * 1e9,
            net.true_delay_s(a, b) * 1e9
        );
    }

    // 2. Solve the wait time (exact for a single receiver: w = T0 - t1).
    let sol = db.wait_solution(lead, &[cosender], &[receiver]).unwrap();
    println!("\nco-sender wait time: {:.2} ns", sol.waits[0] * 1e9);

    // 3. Describe the joint transmission once...
    let payload = b"hello from two synchronized senders at once".to_vec();
    let session = JointSession::new(lead)
        .cosender(CosenderPlan {
            node: cosender,
            wait_s: sol.waits[0],
        })
        .receiver(receiver)
        .payload(payload.clone())
        .config(JointConfig::default());

    // ...then drive each role's stage explicitly, each through a fresh
    // workspace (a caller driving many frames would reuse one).
    let frame = session
        .lead_tx()
        .transmit_with(&mut net, &mut SessionWorkspace::new(params.clone()));
    println!(
        "\nlead {lead}: sync header at t0, {} data symbols after SIFS + 1 training slot",
        frame.timeline.n_data_symbols
    );

    match session.cosender_join(0, &frame).join_with(
        &mut net,
        &mut rng,
        &db,
        &mut SessionWorkspace::new(params.clone()),
    ) {
        Ok(tx) => println!(
            "co-sender {cosender}: joined (training at {:.3} µs, measured lead CFO {:+.0} Hz)",
            tx.training_time.as_secs_f64() * 1e6,
            tx.cfo_hz
        ),
        Err(reason) => println!("co-sender {cosender}: DID NOT JOIN — {reason}"),
    }

    let report = session.receiver_decode(receiver, &frame).decode_with(
        &mut net,
        &mut rng,
        &mut SessionWorkspace::new(params.clone()),
    );

    println!("\nreceiver report:");
    println!("  header decoded : {}", report.header_ok);
    println!("  co-sender seen : {}", report.co_channels[0].is_some());
    println!(
        "  payload        : {}",
        report
            .payload
            .as_ref()
            .map(|p| String::from_utf8_lossy(p).into_owned())
            .unwrap_or_else(|| "<decode failed>".into())
    );
    println!(
        "  measured misalignment: {:.1} ns",
        report.measured_misalign_s[0].unwrap_or(f64::NAN) * 1e9,
    );
    println!(
        "  mean effective gain  : {:.2} (vs ~1.0 for one unit-gain sender)",
        report.stats.mean_effective_gain
    );
    println!("  combined EVM SNR     : {:.1} dB", report.stats.evm_snr_db);
    assert_eq!(report.payload.as_deref(), Some(&payload[..]));
    println!("\njoint frame delivered successfully.");
}
