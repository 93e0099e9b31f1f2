//! Cross-crate integration tests: the full SourceSync pipeline through the
//! facade crate, exactly as a downstream user would drive it — both the
//! one-call `JointSession::run_with` and the per-role stages.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sourcesync::channel::Position;
use sourcesync::core::{
    tracking_update, CosenderPlan, DelayDatabase, JoinFailure, JointConfig, JointSession,
    SessionWorkspace, HEADER_RATE,
};
use sourcesync::phy::{frame, OfdmParams, RateId, Transmitter};
use sourcesync::sim::{ChannelModels, Network, NodeId};

/// A fresh workspace for one call (every network here is dot11a).
fn fresh_ws() -> SessionWorkspace {
    SessionWorkspace::new(OfdmParams::dot11a())
}

fn three_node_net(seed: u64, multipath: bool) -> Network {
    let params = OfdmParams::dot11a();
    let models = if multipath {
        ChannelModels::testbed(&params)
    } else {
        ChannelModels::clean(&params)
    };
    let positions = vec![
        Position::new(1.0, 1.0),
        Position::new(14.0, 2.0),
        Position::new(8.0, 11.0),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    Network::build(&mut rng, &params, &positions, &models)
}

#[test]
fn joint_frame_through_multipath_fading() {
    // The full stack over frequency-selective fading channels, not just
    // the clean channels of the unit tests.
    let mut delivered = 0;
    for seed in 0..5u64 {
        let mut net = three_node_net(seed, true);
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let mut db = DelayDatabase::new();
        if !db.measure_all(&mut net, &mut rng, &[NodeId(0), NodeId(1), NodeId(2)], 3) {
            continue;
        }
        let Some(sol) = db.wait_solution(NodeId(0), &[NodeId(1)], &[NodeId(2)]) else {
            continue;
        };
        let payload = vec![0xAB; 300];
        let cfg = JointConfig {
            cp_extension: 16,
            ..Default::default()
        };
        let out = JointSession::new(NodeId(0))
            .cosender(CosenderPlan {
                node: NodeId(1),
                wait_s: sol.waits[0],
            })
            .receiver(NodeId(2))
            .payload(&payload[..])
            .config(cfg)
            .run_with(&mut net, &mut rng, &db, &mut fresh_ws());
        if out.reports[0].payload.as_deref() == Some(&payload[..]) {
            delivered += 1;
        }
    }
    assert!(
        delivered >= 4,
        "only {delivered}/5 joint frames decoded over fading"
    );
}

#[test]
fn tracking_loop_converges() {
    // §4.5: repeated ACK feedback should shrink the measured misalignment.
    let mut net = three_node_net(42, false);
    let mut rng = StdRng::seed_from_u64(43);
    let mut db = DelayDatabase::new();
    assert!(db.measure_all(&mut net, &mut rng, &[NodeId(0), NodeId(1), NodeId(2)], 2));
    // Start from a deliberately wrong wait (+3 samples at 20 Msps).
    let mut wait = db
        .wait_solution(NodeId(0), &[NodeId(1)], &[NodeId(2)])
        .unwrap()
        .waits[0]
        + 150e-9;
    let payload = [1u8; 60];
    let cfg = JointConfig::default();
    let mut history = Vec::new();
    for _ in 0..6 {
        let out = JointSession::new(NodeId(0))
            .cosender(CosenderPlan {
                node: NodeId(1),
                wait_s: wait,
            })
            .receiver(NodeId(2))
            .payload(&payload[..])
            .config(cfg)
            .run_with(&mut net, &mut rng, &db, &mut fresh_ws());
        let Some(m) = out.reports[0].measured_misalign_s[0] else {
            panic!("no misalignment measurement");
        };
        history.push(m.abs());
        wait = tracking_update(wait, m);
    }
    let first = history[0];
    let last = *history.last().unwrap();
    assert!(
        last < first / 2.0 || last < 20e-9,
        "tracking did not converge: {history:?}"
    );
}

#[test]
fn three_cosenders_replicated_alamouti() {
    // Five nodes: lead, three co-senders, receiver — exercises the >2
    // sender codebook path end to end.
    let params = OfdmParams::dot11a();
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(6.0, 0.0),
        Position::new(0.0, 6.0),
        Position::new(6.0, 6.0),
        Position::new(3.0, 12.0),
    ];
    let mut rng = StdRng::seed_from_u64(7);
    let mut net = Network::build(
        &mut rng,
        &params,
        &positions,
        &ChannelModels::clean(&params),
    );
    let all: Vec<NodeId> = (0..5).map(NodeId).collect();
    let mut db = DelayDatabase::new();
    assert!(db.measure_all(&mut net, &mut rng, &all, 2));
    let cos = [NodeId(1), NodeId(2), NodeId(3)];
    let sol = db.wait_solution(NodeId(0), &cos, &[NodeId(4)]).unwrap();
    let plans: Vec<CosenderPlan> = cos
        .iter()
        .zip(&sol.waits)
        .map(|(&node, &wait_s)| CosenderPlan { node, wait_s })
        .collect();
    let payload = [0x5Cu8; 200];
    let out = JointSession::new(NodeId(0))
        .cosenders(plans.iter().copied())
        .receiver(NodeId(4))
        .payload(&payload[..])
        .config(JointConfig::default())
        .run_with(&mut net, &mut rng, &db, &mut fresh_ws());
    let report = &out.reports[0];
    assert!(report.header_ok);
    let joined = report.co_channels.iter().filter(|c| c.is_some()).count();
    assert!(joined >= 2, "only {joined}/3 co-senders joined");
    assert_eq!(report.payload.as_deref(), Some(&payload[..]));
}

#[test]
fn multi_receiver_lp_reduces_worst_misalignment() {
    // §4.6: two receivers; LP waits should beat single-receiver waits on
    // the worst-case true misalignment.
    let params = OfdmParams::dot11a();
    let positions = vec![
        Position::new(0.0, 0.0),  // lead
        Position::new(20.0, 0.0), // co-sender
        Position::new(2.0, 9.0),  // rx A (near lead)
        Position::new(18.0, 9.0), // rx B (near co)
    ];
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = Network::build(
        &mut rng,
        &params,
        &positions,
        &ChannelModels::clean(&params),
    );
    let all: Vec<NodeId> = (0..4).map(NodeId).collect();
    let mut db = DelayDatabase::new();
    assert!(db.measure_all(&mut net, &mut rng, &all, 3));
    let receivers = [NodeId(2), NodeId(3)];
    let lp = db
        .wait_solution(NodeId(0), &[NodeId(1)], &receivers)
        .unwrap();
    let single_rx = db
        .wait_solution(NodeId(0), &[NodeId(1)], &[NodeId(2)])
        .unwrap();

    let worst = |wait: f64, rng: &mut StdRng, net: &mut Network| -> f64 {
        let cfg = JointConfig {
            cp_extension: 12,
            ..Default::default()
        };
        let out = JointSession::new(NodeId(0))
            .cosender(CosenderPlan {
                node: NodeId(1),
                wait_s: wait,
            })
            .receivers(receivers)
            .payload([9u8; 80])
            .config(cfg)
            .run_with(net, rng, &db, &mut fresh_ws());
        out.true_misalign_s
            .iter()
            .flatten()
            .filter(|m| m.is_finite())
            .fold(0.0f64, |a, m| a.max(m.abs()))
    };
    let w_lp = worst(lp.waits[0], &mut rng, &mut net);
    let w_single = worst(single_rx.waits[0], &mut rng, &mut net);
    // LP optimises the max across receivers; single-rx waits sacrifice the
    // other receiver. Allow jitter slack: LP must not be meaningfully worse.
    assert!(
        w_lp <= w_single + 30e-9,
        "LP worst {w_lp} vs single-rx worst {w_single}"
    );
}

/// Six nodes on a 16 m floor: lead, three co-senders, two receivers.
fn six_node_net(seed: u64) -> Network {
    let params = OfdmParams::dot11a();
    let positions = vec![
        Position::new(0.0, 0.0),   // lead
        Position::new(8.0, 0.0),   // co-sender 1
        Position::new(0.0, 8.0),   // co-sender 2
        Position::new(8.0, 8.0),   // co-sender 3
        Position::new(3.0, 14.0),  // receiver A
        Position::new(12.0, 12.0), // receiver B
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    Network::build(
        &mut rng,
        &params,
        &positions,
        &ChannelModels::clean(&params),
    )
}

#[test]
fn staged_session_three_cosenders_two_receivers() {
    // The configuration the monolith's figure plumbing never exercised:
    // N co-senders × M receivers through the per-role stages, with every
    // co-sender's join outcome individually observable.
    let mut net = six_node_net(70);
    let mut rng = StdRng::seed_from_u64(71);
    let all: Vec<NodeId> = (0..6).map(NodeId).collect();
    let mut db = DelayDatabase::new();
    assert!(db.measure_all(&mut net, &mut rng, &all, 2));
    let cos = [NodeId(1), NodeId(2), NodeId(3)];
    let receivers = [NodeId(4), NodeId(5)];
    let sol = db.wait_solution(NodeId(0), &cos, &receivers).unwrap();
    let payload = vec![0xE7u8; 250];
    let session = JointSession::new(NodeId(0))
        .cosenders(
            cos.iter()
                .zip(&sol.waits)
                .map(|(&node, &wait_s)| CosenderPlan { node, wait_s }),
        )
        .receivers(receivers)
        .payload(payload.clone())
        .config(JointConfig {
            cp_extension: 12,
            ..Default::default()
        });

    // Drive every stage by hand, in protocol order.
    let frame = session.lead_tx().transmit_with(&mut net, &mut fresh_ws());
    let joins: Vec<_> = (0..cos.len())
        .map(|i| {
            session
                .cosender_join(i, &frame)
                .join_with(&mut net, &mut rng, &db, &mut fresh_ws())
        })
        .collect();
    let joined = joins.iter().filter(|j| j.is_ok()).count();
    assert!(joined >= 2, "only {joined}/3 co-senders joined: {joins:?}");

    for &rcv in &receivers {
        let report =
            session
                .receiver_decode(rcv, &frame)
                .decode_with(&mut net, &mut rng, &mut fresh_ws());
        assert!(report.header_ok, "{rcv} header failed");
        assert_eq!(
            report.payload.as_deref(),
            Some(&payload[..]),
            "{rcv} joint data failed"
        );
        // Every joined co-sender shows up in this receiver's JCE.
        let seen = report.co_channels.iter().filter(|c| c.is_some()).count();
        assert!(seen >= 2, "{rcv} saw only {seen}/3 co-senders");
    }
}

#[test]
fn session_run_reports_every_join_outcome() {
    // The same 3×2 matrix through the one-call driver: per-co-sender
    // diagnostics arrive typed on the outcome.
    let mut net = six_node_net(80);
    let mut rng = StdRng::seed_from_u64(81);
    let all: Vec<NodeId> = (0..6).map(NodeId).collect();
    let mut db = DelayDatabase::new();
    assert!(db.measure_all(&mut net, &mut rng, &all, 2));
    let cos = [NodeId(1), NodeId(2), NodeId(3)];
    let receivers = [NodeId(4), NodeId(5)];
    let sol = db.wait_solution(NodeId(0), &cos, &receivers).unwrap();
    let out = JointSession::new(NodeId(0))
        .cosenders(
            cos.iter()
                .zip(&sol.waits)
                .map(|(&node, &wait_s)| CosenderPlan { node, wait_s }),
        )
        .receivers(receivers)
        .payload(vec![0x9Du8; 180])
        .config(JointConfig::default())
        .run_with(&mut net, &mut rng, &db, &mut fresh_ws());
    assert_eq!(out.reports.len(), 2);
    assert_eq!(out.cosenders.len(), 3);
    assert_eq!(out.true_misalign_s.len(), 2);
    assert_eq!(out.true_misalign_s[0].len(), 3);
    for (co, outcome) in cos.iter().zip(&out.cosenders) {
        assert_eq!(*co, outcome.node);
    }
    assert_eq!(
        out.joined_count() + out.join_failures().count(),
        out.cosenders.len()
    );
}

#[test]
fn join_failure_no_detect_when_cosender_out_of_range() {
    let params = OfdmParams::dot11a();
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(3000.0, 0.0), // unreachable co-sender
        Position::new(5.0, 7.0),
    ];
    let mut rng = StdRng::seed_from_u64(90);
    let mut net = Network::build(
        &mut rng,
        &params,
        &positions,
        &ChannelModels::clean(&params),
    );
    let session = JointSession::new(NodeId(0))
        .cosender(CosenderPlan {
            node: NodeId(1),
            wait_s: 0.0,
        })
        .receiver(NodeId(2))
        .payload(vec![0x01u8; 80]);
    let frame = session.lead_tx().transmit_with(&mut net, &mut fresh_ws());
    let join = session.cosender_join(0, &frame).join_with(
        &mut net,
        &mut rng,
        &DelayDatabase::new(),
        &mut fresh_ws(),
    );
    assert_eq!(join.unwrap_err(), JoinFailure::NoDetect);
}

#[test]
fn join_failure_missing_delay_on_empty_database() {
    // Delay compensation on + an empty database: the co-sender decodes the
    // header fine but must refuse to join (the monolith silently assumed a
    // zero propagation delay here).
    let mut net = three_node_net(91, false);
    let mut rng = StdRng::seed_from_u64(92);
    let session = JointSession::new(NodeId(0))
        .cosender(CosenderPlan {
            node: NodeId(1),
            wait_s: 0.0,
        })
        .receiver(NodeId(2))
        .payload(vec![0x02u8; 80]);
    let frame = session.lead_tx().transmit_with(&mut net, &mut fresh_ws());
    let join = session.cosender_join(0, &frame).join_with(
        &mut net,
        &mut rng,
        &DelayDatabase::new(),
        &mut fresh_ws(),
    );
    assert_eq!(
        join.unwrap_err(),
        JoinFailure::MissingDelay {
            lead: NodeId(0),
            cosender: NodeId(1),
        }
    );
    // The baseline mode needs no database and must still join.
    let baseline = JointSession::new(NodeId(0))
        .cosender(CosenderPlan {
            node: NodeId(1),
            wait_s: 0.0,
        })
        .receiver(NodeId(2))
        .payload(vec![0x02u8; 80])
        .config(JointConfig {
            delay_compensation: false,
            ..Default::default()
        });
    let frame = baseline.lead_tx().transmit_with(&mut net, &mut fresh_ws());
    let join = baseline.cosender_join(0, &frame).join_with(
        &mut net,
        &mut rng,
        &DelayDatabase::new(),
        &mut fresh_ws(),
    );
    assert!(join.is_ok(), "baseline join failed: {join:?}");
}

#[test]
fn join_failure_wrong_packet_on_stale_queue() {
    // The lead announces packet A; a co-sender whose queue head is the
    // *stale* packet B hears the header, parses it, and refuses with the
    // pair of packet ids. Only the staged API can stage a join against a
    // frame that was never that session's own transmission.
    let mut net = three_node_net(93, false);
    let mut rng = StdRng::seed_from_u64(94);
    let mut db = DelayDatabase::new();
    assert!(db.measure_all(&mut net, &mut rng, &[NodeId(0), NodeId(1), NodeId(2)], 2));

    let on_air = JointSession::new(NodeId(0))
        .cosender(CosenderPlan {
            node: NodeId(1),
            wait_s: 0.0,
        })
        .receiver(NodeId(2))
        .payload(b"fresh packet the lead announces".to_vec());
    let stale = on_air
        .clone()
        .payload(b"stale packet the co-sender holds".to_vec());

    let _ = on_air.lead_tx().transmit_with(&mut net, &mut fresh_ws()); // packet A on the air
    let stale_frame = stale.lead_tx().schedule(&net.params); // packet B, never sent
    let join =
        stale
            .cosender_join(0, &stale_frame)
            .join_with(&mut net, &mut rng, &db, &mut fresh_ws());
    let expected = sourcesync::core::packet_id(b"stale packet the co-sender holds");
    let heard = sourcesync::core::packet_id(b"fresh packet the lead announces");
    assert_eq!(
        join.unwrap_err(),
        JoinFailure::WrongPacket { expected, heard }
    );
}

#[test]
fn join_failure_not_joint_flagged_on_plain_traffic() {
    // The co-sender hears an ordinary (non-joint) frame where the sync
    // header should have been.
    let mut net = three_node_net(95, false);
    let mut rng = StdRng::seed_from_u64(96);
    let session = JointSession::new(NodeId(0))
        .cosender(CosenderPlan {
            node: NodeId(1),
            wait_s: 0.0,
        })
        .receiver(NodeId(2))
        .payload(vec![0x03u8; 80]);
    let frame_sched = session.lead_tx().schedule(&net.params);
    let tx = Transmitter::new(net.params.clone());
    let plain = tx.frame_waveform(&[0xAAu8; 16], HEADER_RATE, 0); // flags = 0
    net.medium.clear_transmissions();
    net.medium.transmit(NodeId(0), frame_sched.t0, plain);
    let join = session.cosender_join(0, &frame_sched).join_with(
        &mut net,
        &mut rng,
        &DelayDatabase::new(),
        &mut fresh_ws(),
    );
    assert_eq!(join.unwrap_err(), JoinFailure::NotJointFlagged);
}

#[test]
fn join_failure_malformed_header_on_truncated_payload() {
    // A joint-flagged frame whose payload is shorter than a sync header.
    let mut net = three_node_net(97, false);
    let mut rng = StdRng::seed_from_u64(98);
    let session = JointSession::new(NodeId(0))
        .cosender(CosenderPlan {
            node: NodeId(1),
            wait_s: 0.0,
        })
        .receiver(NodeId(2))
        .payload(vec![0x04u8; 80]);
    let frame_sched = session.lead_tx().schedule(&net.params);
    let tx = Transmitter::new(net.params.clone());
    let runt = tx.frame_waveform(&[1u8, 2, 3], HEADER_RATE, frame::FLAG_JOINT);
    net.medium.clear_transmissions();
    net.medium.transmit(NodeId(0), frame_sched.t0, runt);
    let join = session.cosender_join(0, &frame_sched).join_with(
        &mut net,
        &mut rng,
        &DelayDatabase::new(),
        &mut fresh_ws(),
    );
    assert_eq!(join.unwrap_err(), JoinFailure::MalformedHeader);
}

#[test]
fn rates_sweep_through_joint_path() {
    // Joint frames decode at several data rates (exercises interleaver /
    // puncturing combinations through the combiner).
    let mut net = three_node_net(55, false);
    let mut rng = StdRng::seed_from_u64(56);
    let mut db = DelayDatabase::new();
    assert!(db.measure_all(&mut net, &mut rng, &[NodeId(0), NodeId(1), NodeId(2)], 2));
    let sol = db
        .wait_solution(NodeId(0), &[NodeId(1)], &[NodeId(2)])
        .unwrap();
    for rate in [RateId::R6, RateId::R12, RateId::R24, RateId::R36] {
        let payload = [rate.to_index(); 150];
        let cfg = JointConfig {
            rate,
            ..Default::default()
        };
        let out = JointSession::new(NodeId(0))
            .cosender(CosenderPlan {
                node: NodeId(1),
                wait_s: sol.waits[0],
            })
            .receiver(NodeId(2))
            .payload(&payload[..])
            .config(cfg)
            .run_with(&mut net, &mut rng, &db, &mut fresh_ws());
        assert_eq!(
            out.reports[0].payload.as_deref(),
            Some(&payload[..]),
            "rate {rate:?} failed"
        );
    }
}
