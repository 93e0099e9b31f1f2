//! Fault-injection integration suite: every `FaultInjector` fault class,
//! wired through the event-driven testbed's protocol seams, must surface
//! as the *right typed protocol outcome* — a typed `JoinFailure`, an ARQ
//! retry, or an ExOR lead-only fallback — never as a silent behaviour
//! change.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sourcesync::channel::Position;
use sourcesync::obs::{MetricRegistry, TraceRecorder};
use sourcesync::phy::{OfdmParams, RateId};
use sourcesync::sim::{ChannelModels, FaultInjector, Network, NodeId};
use sourcesync::testbed::{
    run_transfer_observed, DelaySource, FaultPlan, RoutingMode, TestbedConfig, TestbedOutcome,
};

/// A small diamond — src 0, relays 1–2, dst 3 — with a clean first hop
/// and a decodable final hop, so protocol outcomes are driven by the
/// *injected* faults rather than by channel noise.
fn diamond(seed: u64, relay_dst_db: f64) -> Network {
    let params = OfdmParams::dot11a();
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(12.0, 5.0),
        Position::new(12.0, -5.0),
        Position::new(24.0, 0.0),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::build(
        &mut rng,
        &params,
        &positions,
        &ChannelModels::clean(&params),
    );
    for r in [1usize, 2] {
        net.pin_snr_db(NodeId(0), NodeId(r), 25.0);
        net.pin_snr_db(NodeId(r), NodeId(0), 25.0);
        net.pin_snr_db(NodeId(r), NodeId(3), relay_dst_db);
        net.pin_snr_db(NodeId(3), NodeId(r), relay_dst_db);
    }
    net.pin_snr_db(NodeId(1), NodeId(2), 20.0);
    net.pin_snr_db(NodeId(2), NodeId(1), 20.0);
    net.pin_snr_db(NodeId(0), NodeId(3), -15.0);
    net.pin_snr_db(NodeId(3), NodeId(0), -15.0);
    net
}

fn run(
    seed: u64,
    relay_dst_db: f64,
    mode: RoutingMode,
    faults: FaultPlan,
    delays: DelaySource,
) -> TestbedOutcome {
    let mut net = diamond(seed, relay_dst_db);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA117);
    let cfg = TestbedConfig {
        batch_size: 3,
        payload_len: 64,
        faults,
        delays,
        ..TestbedConfig::new(RateId::R12, mode)
    };
    run_transfer_observed(
        &mut net,
        &mut rng,
        0,
        3,
        &[1, 2],
        &cfg,
        &mut TraceRecorder::disabled(),
        &mut MetricRegistry::new(),
    )
    .expect("diamond is routable")
}

/// The final hop at which plain first attempts usually fail, so retries
/// escalate to joint frames and joins actually happen.
const LOSSY_DST_DB: f64 = 5.0;

#[test]
fn dropped_headers_map_to_no_detect_and_lead_only_fallback() {
    let faults = FaultPlan {
        header: FaultInjector::new(1.0, 0.0),
        ..FaultPlan::none()
    };
    let o = run(
        1,
        LOSSY_DST_DB,
        RoutingMode::ExorSourceSync,
        faults,
        DelaySource::Oracle,
    );
    assert!(o.joins.attempted > 0, "{o:?}");
    assert_eq!(
        o.joins.joined, 0,
        "no co-sender may survive a dropped header"
    );
    assert_eq!(
        o.joins.no_detect, o.joins.attempted,
        "every dropped header must read as the typed NoDetect: {o:?}"
    );
    assert_eq!(o.faults.headers_dropped, o.joins.attempted);
    // ExOR fallback: joint frames degrade to lead-only transmissions and
    // the batch still completes through ordinary ExOR forwarding.
    assert!(
        o.delivered > 0,
        "lead-only fallback must still deliver: {o:?}"
    );
}

#[test]
fn corrupted_headers_map_to_typed_parse_failures() {
    let faults = FaultPlan {
        header: FaultInjector::new(0.0, 1.0),
        ..FaultPlan::none()
    };
    // Several seeds so the flipped bit lands in different header fields.
    let mut malformed = 0u64;
    let mut wrong_packet = 0u64;
    let mut corrupted = 0u64;
    for seed in 1..=4 {
        let o = run(
            seed,
            LOSSY_DST_DB,
            RoutingMode::ExorSourceSync,
            faults,
            DelaySource::Oracle,
        );
        assert_eq!(o.joins.no_detect, 0, "corruption is not a drop: {o:?}");
        malformed += o.joins.malformed_header;
        wrong_packet += o.joins.wrong_packet;
        corrupted += o.faults.headers_corrupted;
        // Every outcome is typed: attempts = joins + typed failures.
        assert_eq!(
            o.joins.attempted,
            o.joins.joined + o.joins.failures(),
            "{o:?}"
        );
    }
    assert!(corrupted > 0, "injector never fired");
    assert!(
        malformed + wrong_packet > 0,
        "bit flips in length/id fields must surface as MalformedHeader/WrongPacket \
         (malformed {malformed}, wrong_packet {wrong_packet})"
    );
}

#[test]
fn missing_delay_database_maps_to_typed_missing_delay() {
    let o = run(
        2,
        LOSSY_DST_DB,
        RoutingMode::ExorSourceSync,
        FaultPlan::none(),
        DelaySource::Empty,
    );
    assert!(o.joins.attempted > 0, "{o:?}");
    assert_eq!(o.joins.joined, 0);
    assert_eq!(
        o.joins.missing_delay, o.joins.attempted,
        "an empty delay database must fail every join as MissingDelay, \
         not silently join misaligned: {o:?}"
    );
    assert!(o.delivered > 0, "lead-only fallback must still deliver");
}

#[test]
fn lost_acks_map_to_arq_retries_not_lost_packets() {
    let faults = FaultPlan {
        ack: FaultInjector::new(0.7, 0.0),
        ..FaultPlan::none()
    };
    // Clean links: every loss below is the injector's doing.
    let o = run(
        3,
        25.0,
        RoutingMode::SinglePath,
        faults,
        DelaySource::Oracle,
    );
    assert!(o.acks_lost > 0, "{o:?}");
    assert!(o.arq_retries > 0, "lost ACKs must drive ARQ retries: {o:?}");
    assert!(o.faults.acks_dropped > 0);
    assert_eq!(
        o.delivered, 3,
        "data reached the destination; receive-side dedup absorbs the \
         retransmissions: {o:?}"
    );
    assert!(
        o.data_frames > 3,
        "retries must put extra frames on the air: {o:?}"
    );
}

#[test]
fn total_ack_blackout_still_delivers_through_receive_side_state() {
    // Every ACK dies. Senders burn their whole retry budgets, but each
    // hop that decoded the DATA owns the packet and forwards it anyway —
    // receive-side state advances on reception, not on the ACK's fate,
    // so nothing is "abandoned" even though no exchange ever completes.
    let faults = FaultPlan {
        ack: FaultInjector::new(1.0, 0.0),
        ..FaultPlan::none()
    };
    let o = run(
        8,
        25.0,
        RoutingMode::SinglePath,
        faults,
        DelaySource::Oracle,
    );
    assert_eq!(o.delivered, 3, "{o:?}");
    assert_eq!(o.packets_abandoned, 0, "{o:?}");
    assert!(o.acks_lost > 0);
    assert!(o.arq_retries > 0);
}

#[test]
fn corrupted_acks_count_separately_from_drops() {
    let faults = FaultPlan {
        ack: FaultInjector::new(0.0, 0.5),
        ..FaultPlan::none()
    };
    let o = run(
        4,
        25.0,
        RoutingMode::SinglePath,
        faults,
        DelaySource::Oracle,
    );
    assert!(o.faults.acks_corrupted > 0, "{o:?}");
    assert_eq!(o.faults.acks_dropped, 0);
    assert!(o.arq_retries > 0);
    assert_eq!(o.delivered, 3);
}

#[test]
fn dropped_data_maps_to_retries_then_abandonment() {
    let faults = FaultPlan {
        data: FaultInjector::new(1.0, 0.0),
        ..FaultPlan::none()
    };
    let o = run(
        5,
        25.0,
        RoutingMode::SinglePath,
        faults,
        DelaySource::Oracle,
    );
    assert_eq!(o.delivered, 0, "a fully dropped data seam delivers nothing");
    assert!(o.faults.data_dropped > 0);
    assert!(o.arq_retries > 0, "{o:?}");
    assert_eq!(
        o.packets_abandoned, 3,
        "every packet must exhaust its retry budget and be abandoned: {o:?}"
    );
}

#[test]
fn corrupted_data_fails_mac_check_and_is_not_delivered() {
    let faults = FaultPlan {
        data: FaultInjector::new(0.0, 1.0),
        ..FaultPlan::none()
    };
    let o = run(6, 25.0, RoutingMode::Exor, faults, DelaySource::Oracle);
    assert_eq!(o.delivered, 0, "{o:?}");
    assert!(o.faults.data_corrupted > 0);
    assert_eq!(o.faults.data_dropped, 0);
}

#[test]
fn every_fault_class_fires_at_least_once_in_one_run() {
    // All six injector classes live (drop + corrupt on each seam), on the
    // lossy diamond in ExOR+SourceSync mode so joint frames, ACK replies
    // and data receptions all occur.
    let faults = FaultPlan {
        data: FaultInjector::new(0.3, 0.3),
        ack: FaultInjector::new(0.3, 0.3),
        header: FaultInjector::new(0.3, 0.3),
    };
    let mut totals = sourcesync::testbed::FaultCounters::default();
    for seed in 10..16 {
        let o = run(
            seed,
            LOSSY_DST_DB,
            RoutingMode::ExorSourceSync,
            faults,
            DelaySource::Oracle,
        );
        totals.data_dropped += o.faults.data_dropped;
        totals.data_corrupted += o.faults.data_corrupted;
        totals.acks_dropped += o.faults.acks_dropped;
        totals.acks_corrupted += o.faults.acks_corrupted;
        totals.headers_dropped += o.faults.headers_dropped;
        totals.headers_corrupted += o.faults.headers_corrupted;
    }
    assert!(totals.data_dropped > 0, "{totals:?}");
    assert!(totals.data_corrupted > 0, "{totals:?}");
    assert!(totals.acks_dropped > 0, "{totals:?}");
    assert!(totals.acks_corrupted > 0, "{totals:?}");
    assert!(totals.headers_dropped > 0, "{totals:?}");
    assert!(totals.headers_corrupted > 0, "{totals:?}");
}

#[test]
fn fault_free_baseline_is_clean() {
    let o = run(
        7,
        25.0,
        RoutingMode::ExorSourceSync,
        FaultPlan::none(),
        DelaySource::Oracle,
    );
    assert_eq!(o.faults.total(), 0);
    assert_eq!(o.delivered, 3, "{o:?}");
}
