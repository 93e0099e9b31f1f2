//! Differential tests for the zero-allocation modem workspaces: every
//! workspace-ified function is driven through BOTH a reused workspace and
//! a fresh one (or the allocating path where production keeps one) on
//! identical seeded inputs, asserting byte-identical output.
//!
//! The workspaces are deliberately *reused* across iterations inside each
//! test — matching a fresh workspace is trivial, so the interesting
//! property is that no state leaks from one frame into the next.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sourcesync::core::{
    decode_joint_data_with, joint_data_waveform_into, CombineWorkspace, CosenderPlan,
    DataSectionSpec, JointConfig, JointDataWindow, JointSession, RoleChannels, SessionWorkspace,
};
use sourcesync::dsp::rng::ComplexGaussian;
use sourcesync::dsp::{Complex64, FftPlan};
use sourcesync::phy::chanest::ChannelEstimate;
use sourcesync::phy::{
    frame, ofdm, OfdmParams, RateId, Receiver, RxWorkspace, Transmitter, TxWorkspace,
};
use sourcesync::sim::{ChannelModels, Network, NodeId};
use sourcesync::stbc::Codeword;

fn bits_of(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

#[test]
fn ofdm_modulate_and_demodulate_match_legacy() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut tx_ws = TxWorkspace::new(&OfdmParams::dot11a());
    let mut wave = Vec::new();
    let mut grid_buf = Vec::new();
    // One reused workspace across both numerologies: the re-keying path is
    // part of what is under test.
    for params in [OfdmParams::dot11a(), OfdmParams::wiglan()] {
        let fft = FftPlan::new(params.fft_size);
        for sym_idx in 0..4 {
            let data: Vec<Complex64> = (0..params.n_data())
                .map(|_| ComplexGaussian::unit().sample(&mut rng))
                .collect();
            for pilots in [true, false] {
                let mut legacy = Vec::new();
                ofdm::modulate_symbol_append(
                    &params,
                    &fft,
                    &data,
                    sym_idx,
                    params.cp_len,
                    pilots,
                    &mut TxWorkspace::new(&params),
                    &mut legacy,
                );
                wave.clear();
                ofdm::modulate_symbol_append(
                    &params,
                    &fft,
                    &data,
                    sym_idx,
                    params.cp_len,
                    pilots,
                    &mut tx_ws,
                    &mut wave,
                );
                assert_eq!(
                    bits_of(&wave),
                    bits_of(&legacy),
                    "{} sym {sym_idx}",
                    params.name
                );

                let legacy_grid = ofdm::demodulate_window(&params, &fft, &legacy, params.cp_len);
                ofdm::demodulate_window_into(&params, &fft, &wave, params.cp_len, &mut grid_buf);
                assert_eq!(bits_of(&grid_buf), bits_of(&legacy_grid));
            }
        }
    }
}

#[test]
fn transmitter_workspace_path_matches_legacy() {
    let mut rng = StdRng::seed_from_u64(2);
    for params in [OfdmParams::dot11a(), OfdmParams::wiglan()] {
        let tx = Transmitter::new(params.clone());
        let mut ws = TxWorkspace::new(&params);
        let mut wave = Vec::new();
        for (i, rate) in [RateId::R6, RateId::R24, RateId::R54]
            .into_iter()
            .enumerate()
        {
            let payload: Vec<u8> = (0..200 + 37 * i).map(|_| rng.gen()).collect();
            let legacy = tx.frame_waveform(&payload, rate, i as u8 & 0b111);
            tx.frame_waveform_into(&payload, rate, i as u8 & 0b111, &mut ws, &mut wave);
            assert_eq!(bits_of(&wave), bits_of(&legacy), "{} {rate:?}", params.name);
        }
    }
}

/// Noise floor, then the frame, then padding — same fixture as the phy
/// receiver unit tests.
fn on_air(tx_wave: &[Complex64], lead_pad: usize, snr_db: f64, seed: u64) -> Vec<Complex64> {
    let noise_p = sourcesync::dsp::stats::linear_from_db(-snr_db);
    let mut rng = StdRng::seed_from_u64(seed);
    let total = lead_pad + tx_wave.len() + 500;
    let mut buf = ComplexGaussian::with_power(noise_p).sample_vec(&mut rng, total);
    for (i, s) in tx_wave.iter().enumerate() {
        buf[lead_pad + i] += *s;
    }
    buf
}

#[test]
fn rx_chain_workspace_path_matches_legacy() {
    let params = OfdmParams::dot11a();
    let tx = Transmitter::new(params.clone());
    let rx = Receiver::new(params.clone());
    let mut rng = StdRng::seed_from_u64(3);
    let mut ws = RxWorkspace::new(&params);
    // A mix of clean decodes, CRC failures (low SNR at a high rate), and
    // no-detection buffers, all through ONE workspace.
    let cases: &[(RateId, f64)] = &[
        (RateId::R12, 30.0),
        (RateId::R54, 5.0),
        (RateId::R6, 25.0),
        (RateId::R54, 35.0),
        (RateId::R24, 9.0),
    ];
    for (i, &(rate, snr_db)) in cases.iter().enumerate() {
        let payload: Vec<u8> = (0..300).map(|_| rng.gen()).collect();
        let wave = tx.frame_waveform(&payload, rate, 0);
        let buf = on_air(&wave, 150 + 30 * i, snr_db, 50 + i as u64);
        let legacy = rx.receive(&buf);
        let pooled = rx.receive_with(&buf, &mut ws);
        match (legacy, pooled) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.payload, b.payload, "case {i}");
                assert_eq!(a.signal, b.signal);
                assert_eq!(a.diag, b.diag, "case {i}: diagnostics diverged");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "case {i}: errors diverged"),
            (a, b) => panic!("case {i}: {a:?} vs {b:?}"),
        }
    }
    // Empty buffer through the warmed workspace.
    assert_eq!(
        format!("{:?}", rx.receive(&[])),
        format!("{:?}", rx.receive_with(&[], &mut ws))
    );
}

fn const_roles(
    params: &sourcesync::phy::Params,
    h_a: Complex64,
    h_b: Complex64,
    n0: f64,
) -> RoleChannels {
    let occupied = params.occupied_carriers();
    let mk = |v: Complex64| ChannelEstimate {
        carriers: occupied.clone(),
        values: vec![v; occupied.len()],
        noise_power: n0,
    };
    let lead = mk(h_a);
    let co = mk(h_b);
    RoleChannels::from_estimates(params, &[Some(&lead), Some(&co)])
}

#[test]
fn combiner_workspace_paths_match_legacy() {
    let params = OfdmParams::dot11a();
    let fft = FftPlan::new(params.fft_size);
    let mut rng = StdRng::seed_from_u64(4);
    let mut ws = CombineWorkspace::new(&params);
    let h_a = Complex64::from_polar(1.0, 0.7);
    let h_b = Complex64::from_polar(0.8, -2.1);
    let mut wave = Vec::new();
    // Sweep the coding knobs (including the odd-symbol STBC-pad case via
    // different psdu lengths) through one reused workspace.
    for (i, (smart, sharing, len)) in [
        (true, true, 200usize),
        (true, false, 90),
        (false, true, 121),
        (true, true, 33),
    ]
    .into_iter()
    .enumerate()
    {
        let psdu: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let spec = DataSectionSpec {
            rate: RateId::R12,
            cp_len: params.cp_len,
            smart_combiner: smart,
            pilot_sharing: sharing,
        };
        let fresh_wave = |role| {
            let mut out = Vec::new();
            let mut fresh = CombineWorkspace::new(&params);
            joint_data_waveform_into(&params, &fft, &psdu, role, &spec, &mut fresh, &mut out);
            out
        };
        for role in [Codeword::A, Codeword::B] {
            let legacy = fresh_wave(role);
            joint_data_waveform_into(&params, &fft, &psdu, role, &spec, &mut ws, &mut wave);
            assert_eq!(bits_of(&wave), bits_of(&legacy), "case {i} role {role:?}");
        }

        // Joint on-air sum + decode, fresh vs reused workspace.
        let wa = fresh_wave(Codeword::A);
        let wb = fresh_wave(Codeword::B);
        let noise = ComplexGaussian::with_power(1e-4);
        let buf: Vec<Complex64> = wa
            .iter()
            .zip(&wb)
            .map(|(a, b)| h_a * *a + h_b * *b + noise.sample(&mut rng))
            .collect();
        let n_syms = frame::n_data_symbols(&params, psdu.len(), RateId::R12);
        let roles = const_roles(&params, h_a, h_b, 1e-4);
        let window = JointDataWindow {
            data_start: 0,
            n_syms,
            psdu_len: psdu.len(),
            backoff: 0,
        };
        let mut fresh = CombineWorkspace::new(&params);
        let (legacy_psdu, legacy_stats) =
            decode_joint_data_with(&params, &fft, &buf, &window, &spec, &roles, &mut fresh)
                .expect("length");
        let (ws_psdu, ws_stats) =
            decode_joint_data_with(&params, &fft, &buf, &window, &spec, &roles, &mut ws)
                .expect("length");
        assert_eq!(ws_psdu, legacy_psdu, "case {i}: decoded PSDU diverged");
        assert_eq!(
            ws_stats.mean_effective_gain.to_bits(),
            legacy_stats.mean_effective_gain.to_bits()
        );
        assert_eq!(
            ws_stats.evm_snr_db.to_bits(),
            legacy_stats.evm_snr_db.to_bits()
        );
    }
}

fn test_network(seed: u64) -> Network {
    use sourcesync::channel::Position;
    let params = OfdmParams::dot11a();
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(12.0, 0.0),
        Position::new(6.0, 8.0),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    Network::build(
        &mut rng,
        &params,
        &positions,
        &ChannelModels::clean(&params),
    )
}

/// A delay database filled from the simulator's exact delays (keeps the
/// differential fixtures deterministic without probe traffic).
fn oracle_db(net: &Network, nodes: &[NodeId]) -> sourcesync::core::DelayDatabase {
    let mut db = sourcesync::core::DelayDatabase::new();
    for i in 0..nodes.len() {
        for j in i + 1..nodes.len() {
            db.set_delay(nodes[i], nodes[j], net.true_delay_s(nodes[i], nodes[j]));
        }
    }
    db
}

#[test]
fn joint_session_workspace_run_matches_legacy_run() {
    let payload: Vec<u8> = (0..160u16).map(|i| (i * 11 % 256) as u8).collect();
    let session = JointSession::new(NodeId(0))
        .cosender(CosenderPlan {
            node: NodeId(1),
            wait_s: 60e-9,
        })
        .receiver(NodeId(2))
        .payload(payload.clone())
        .config(JointConfig::default());

    let mut ws = SessionWorkspace::new(OfdmParams::dot11a());
    // Two sessions back-to-back through ONE workspace vs a fresh one:
    // identical seeds must give bit-identical outcomes both times.
    for round in 0..2u64 {
        let mut net_a = test_network(70 + round);
        let db_a = oracle_db(&net_a, &[NodeId(0), NodeId(1), NodeId(2)]);
        let mut rng_a = StdRng::seed_from_u64(80 + round);
        let pooled = session.run_with(&mut net_a, &mut rng_a, &db_a, &mut ws);

        let mut net_b = test_network(70 + round);
        let db_b = oracle_db(&net_b, &[NodeId(0), NodeId(1), NodeId(2)]);
        let mut rng_b = StdRng::seed_from_u64(80 + round);
        let mut fresh = SessionWorkspace::new(OfdmParams::dot11a());
        let legacy = session.run_with(&mut net_b, &mut rng_b, &db_b, &mut fresh);

        assert_eq!(
            pooled.reports[0].payload, legacy.reports[0].payload,
            "round {round}"
        );
        assert_eq!(
            pooled.reports[0].measured_misalign_s,
            legacy.reports[0].measured_misalign_s
        );
        assert_eq!(
            pooled.reports[0].effective_snr_db,
            legacy.reports[0].effective_snr_db
        );
        assert_eq!(pooled.co_tx_times, legacy.co_tx_times);
        assert_eq!(pooled.true_misalign_s.len(), legacy.true_misalign_s.len());
        for (a, b) in pooled.true_misalign_s.iter().zip(&legacy.true_misalign_s) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}

#[test]
fn joint_session_stages_with_shared_workspace_deliver() {
    // Drive the three stages separately, every stage through the SAME
    // reused workspace (each stage "owns" it in turn), and check the
    // outcome against the same stages each run through a fresh workspace.
    let payload = vec![0x9Au8; 140];
    let session = JointSession::new(NodeId(0))
        .cosender(CosenderPlan {
            node: NodeId(1),
            wait_s: 60e-9,
        })
        .receiver(NodeId(2))
        .payload(payload.clone())
        .config(JointConfig::default());

    let mut net = test_network(90);
    let db = oracle_db(&net, &[NodeId(0), NodeId(1), NodeId(2)]);
    let mut rng = StdRng::seed_from_u64(91);
    let mut ws = SessionWorkspace::new(OfdmParams::dot11a());
    let frame_sched = session.lead_tx().transmit_with(&mut net, &mut ws);
    let join = session
        .cosender_join(0, &frame_sched)
        .join_with(&mut net, &mut rng, &db, &mut ws);
    assert!(join.is_ok(), "join failed: {join:?}");
    let report = session
        .receiver_decode(NodeId(2), &frame_sched)
        .decode_with(&mut net, &mut rng, &mut ws);
    assert!(report.header_ok);
    assert_eq!(report.payload.as_deref(), Some(&payload[..]));

    // Same seeds through a fresh workspace per stage.
    let mut net_b = test_network(90);
    let mut rng_b = StdRng::seed_from_u64(91);
    let fresh = || SessionWorkspace::new(OfdmParams::dot11a());
    let frame_b = session.lead_tx().transmit_with(&mut net_b, &mut fresh());
    let join_b =
        session
            .cosender_join(0, &frame_b)
            .join_with(&mut net_b, &mut rng_b, &db, &mut fresh());
    let report_b = session.receiver_decode(NodeId(2), &frame_b).decode_with(
        &mut net_b,
        &mut rng_b,
        &mut fresh(),
    );
    assert_eq!(format!("{join:?}"), format!("{join_b:?}"));
    assert_eq!(report.payload, report_b.payload);
    assert_eq!(report.measured_misalign_s, report_b.measured_misalign_s);
}

#[test]
fn joint_session_workspace_reused_across_payloads_matches_fresh() {
    // One workspace driven through payloads P1, P2, P1 must put the same
    // waveforms on the air and decode the same bits as a fresh workspace
    // per session: the per-frame role waveforms it keeps must never leak
    // from one frame into the next. Two co-senders give the frame both
    // Alamouti roles plus a second role-A sender.
    use sourcesync::channel::Position;
    let params = OfdmParams::dot11a();
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(12.0, 0.0),
        Position::new(6.0, 8.0),
        Position::new(3.0, -7.0),
    ];
    let nodes = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
    let build = || {
        let mut rng = StdRng::seed_from_u64(95);
        Network::build(
            &mut rng,
            &params,
            &positions,
            &ChannelModels::clean(&params),
        )
    };
    let p1: Vec<u8> = (0..150u16).map(|i| (i * 7 % 256) as u8).collect();
    let p2: Vec<u8> = (0..97u16).map(|i| (i * 13 % 256) as u8).collect();
    let mut ws = SessionWorkspace::new(params.clone());
    for (round, payload) in [&p1, &p2, &p1].into_iter().enumerate() {
        let session = JointSession::new(NodeId(0))
            .cosender(CosenderPlan {
                node: NodeId(1),
                wait_s: 60e-9,
            })
            .cosender(CosenderPlan {
                node: NodeId(3),
                wait_s: 40e-9,
            })
            .receiver(NodeId(2))
            .payload(payload.clone())
            .config(JointConfig::default());
        let seed = 96 + round as u64;
        let mut net_a = build();
        let db = oracle_db(&net_a, &nodes);
        let pooled = session.run_with(&mut net_a, &mut StdRng::seed_from_u64(seed), &db, &mut ws);
        let mut net_b = build();
        let mut fresh = SessionWorkspace::new(params.clone());
        let legacy = session.run_with(
            &mut net_b,
            &mut StdRng::seed_from_u64(seed),
            &db,
            &mut fresh,
        );

        let (on_air_a, on_air_b) = (net_a.medium.transmissions(), net_b.medium.transmissions());
        assert_eq!(
            on_air_a.len(),
            6,
            "round {round}: header, lead data, 2 × (training, data)"
        );
        assert_eq!(on_air_a.len(), on_air_b.len(), "round {round}");
        for (a, b) in on_air_a.iter().zip(on_air_b) {
            assert_eq!((a.tx, a.start), (b.tx, b.start), "round {round}");
            assert_eq!(bits_of(&a.waveform), bits_of(&b.waveform), "round {round}");
        }
        let (ra, rb) = (&pooled.reports[0], &legacy.reports[0]);
        assert_eq!(ra.payload.as_deref(), Some(&payload[..]), "round {round}");
        assert_eq!(ra.payload, rb.payload, "round {round}");
        assert_eq!(ra.measured_misalign_s, rb.measured_misalign_s);
        assert_eq!(ra.effective_snr_db, rb.effective_snr_db);
        assert_eq!(ra.stats.evm_snr_db.to_bits(), rb.stats.evm_snr_db.to_bits());
        assert_eq!(pooled.co_tx_times, legacy.co_tx_times);
    }
}

/// The PSDU lengths the one-pass transmitter is checked at: empty, one
/// and two bytes, odd, and up to a full-size frame.
const ONE_PASS_LENGTHS: [usize; 6] = [0, 1, 2, 17, 100, 1500];

#[test]
fn one_pass_encoders_match_reference_encoders() {
    // Every rate on both numerologies (WiGLAN's interleaver has fewer
    // than 16 rows) through one reused scratch: each symbol's points
    // from the one-pass encoder against the one-bit-per-`u8` reference,
    // for the DATA field and for the SIGNAL field with every flag value.
    let mut rng = StdRng::seed_from_u64(21);
    let mut scratch = frame::EncodeScratch::new();
    for params in [
        OfdmParams::dot11a(),
        OfdmParams::wiglan(),
        OfdmParams::dot11a(),
    ] {
        for rate in RateId::ALL {
            for len in ONE_PASS_LENGTHS {
                let psdu: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                let want = frame::encode_data(&params, &psdu, rate);
                let got = frame::encode_data_with(&params, &psdu, rate, &mut scratch);
                assert_eq!(got.len(), want.len(), "{} {rate:?} len {len}", params.name);
                for (s, want) in want.iter().enumerate() {
                    let got: Vec<Complex64> = got.points(s).collect();
                    let what = format!("{} {rate:?} len {len} symbol {s}", params.name);
                    assert_eq!(bits_of(&got), bits_of(want), "{what}");
                }
            }
            for (flags, length) in (0..8u8).zip([0u16, 1, 17, 100, 1504, 4095, 40_000, u16::MAX]) {
                let sig = frame::SignalField {
                    rate,
                    length,
                    flags,
                };
                let want = frame::encode_signal(&params, &sig);
                let got = frame::encode_signal_with(&params, &sig, &mut scratch);
                assert_eq!(got.len(), want.len());
                for (s, want) in want.iter().enumerate() {
                    let got: Vec<Complex64> = got.points(s).collect();
                    assert_eq!(bits_of(&got), bits_of(want), "{} {sig:?}", params.name);
                }
            }
        }
    }
}

/// A frame the way the transmitter built it before the one-pass encoder:
/// the reference encoders' points, each symbol scattered through
/// `modulate_symbol_append`.
fn reference_frame(tx: &Transmitter, payload: &[u8], rate: RateId, flags: u8) -> Vec<Complex64> {
    let params = tx.params();
    let fft = FftPlan::new(params.fft_size);
    let mut ws = TxWorkspace::new(params);
    let psdu = sourcesync::phy::crc::append_crc(payload);
    let sig = frame::SignalField {
        rate,
        length: psdu.len() as u16,
        flags,
    };
    let mut out = sourcesync::phy::preamble::preamble_waveform(params, &fft);
    let symbols = frame::encode_signal(params, &sig)
        .into_iter()
        .chain(frame::encode_data(params, &psdu, rate));
    for (i, points) in symbols.enumerate() {
        ofdm::modulate_symbol_append(
            params,
            &fft,
            &points,
            i,
            params.cp_len,
            true,
            &mut ws,
            &mut out,
        );
    }
    out
}

#[test]
fn one_pass_frames_match_reference_modulation() {
    // Whole frames through one reused workspace per numerology: every
    // rate, every payload length of the encoder check and every flag.
    let mut rng = StdRng::seed_from_u64(22);
    for params in [OfdmParams::dot11a(), OfdmParams::wiglan()] {
        let tx = Transmitter::new(params.clone());
        let mut ws = TxWorkspace::new(&params);
        let mut wave = Vec::new();
        for (i, rate) in RateId::ALL.into_iter().enumerate() {
            for (j, len) in ONE_PASS_LENGTHS.into_iter().enumerate() {
                let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                let flags = ((i + j) % 8) as u8;
                tx.frame_waveform_into(&payload, rate, flags, &mut ws, &mut wave);
                let want = reference_frame(&tx, &payload, rate, flags);
                let what = format!("{} {rate:?} len {len}", params.name);
                assert_eq!(bits_of(&wave), bits_of(&want), "{what}");
            }
        }
    }
}

#[test]
fn joint_data_section_matches_reference_encoder() {
    // Both Alamouti roles with the space-time code on and off and pilot
    // sharing on and off (so pilots are driven on every symbol, or on
    // alternate ones), against the reference encoder's points coded per
    // pair and modulated symbol by symbol; odd and even symbol counts.
    let mut rng = StdRng::seed_from_u64(23);
    for params in [OfdmParams::dot11a(), OfdmParams::wiglan()] {
        let fft = FftPlan::new(params.fft_size);
        let mut ws = CombineWorkspace::new(&params);
        let mut wave = Vec::new();
        for rate in RateId::ALL {
            for len in [1usize, 17, 260] {
                let psdu: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                let mut symbols = frame::encode_data(&params, &psdu, rate);
                if symbols.len() % 2 == 1 {
                    symbols.push(vec![Complex64::ZERO; params.n_data()]);
                }
                for (smart, sharing) in [(true, true), (true, false), (false, true), (false, false)]
                {
                    let spec = DataSectionSpec {
                        rate,
                        cp_len: params.cp_len + 3,
                        smart_combiner: smart,
                        pilot_sharing: sharing,
                    };
                    for role in [Codeword::A, Codeword::B] {
                        let mut want = Vec::new();
                        let mut tx_ws = TxWorkspace::new(&params);
                        for (p, pair) in symbols.chunks(2).enumerate() {
                            let (s0, s1): (Vec<_>, Vec<_>) = if smart {
                                pair[0]
                                    .iter()
                                    .zip(&pair[1])
                                    .map(|(&a, &b)| sourcesync::stbc::encode_pair(role, a, b))
                                    .unzip()
                            } else {
                                (pair[0].clone(), pair[1].clone())
                            };
                            let (even, odd) = match (sharing, role) {
                                (false, _) => (true, true),
                                (true, Codeword::A) => (true, false),
                                (true, Codeword::B) => (false, true),
                            };
                            for (k, (s, pilots)) in [(s0, even), (s1, odd)].into_iter().enumerate()
                            {
                                ofdm::modulate_symbol_append(
                                    &params,
                                    &fft,
                                    &s,
                                    2 * p + k,
                                    spec.cp_len,
                                    pilots,
                                    &mut tx_ws,
                                    &mut want,
                                );
                            }
                        }
                        joint_data_waveform_into(
                            &params, &fft, &psdu, role, &spec, &mut ws, &mut wave,
                        );
                        let what = format!(
                            "{} {rate:?} len {len} smart {smart} sharing {sharing} {role:?}",
                            params.name
                        );
                        assert_eq!(bits_of(&wave), bits_of(&want), "{what}");
                    }
                }
            }
        }
    }
}
