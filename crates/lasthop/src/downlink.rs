//! Downlink simulation: single best AP vs SourceSync joint APs (paper
//! §8.3, Fig. 17).
//!
//! Per packet: the lead AP's SampleRate picks a rate; the packet is sent
//! with up to [`RETRY_LIMIT`] attempts; each attempt succeeds with the PER at
//! the (single or joint) SNR. Joint attempts pay the §4.4 synchronization
//! overhead (SIFS + two training symbols per co-sender). The client's ACK
//! travels the uplink where receiver diversity applies: the ACK is lost
//! only if *every* associated AP misses it (MRD/SOFT-style, paper §7.1).
//!
//! The closed-form model (linear AP powers add at the client) is
//! cross-validated at the sample level by [`joint_session_downlink_with`],
//! which drives one *actual* joint AP transmission through the staged
//! [`JointSession`] over the waveform medium and compares the client's
//! measured composite SNR against [`ClientScenario::joint_downlink_snr_db`].

use crate::samplerate::SampleRate;
use rand::Rng;
use ssync_core::{
    CosenderOutcome, CosenderPlan, DelayDatabase, JointConfig, JointSession, SessionWorkspace,
    SIFS_S,
};
use ssync_mac::{DcfTiming, RETRY_LIMIT};
use ssync_phy::ber::PerTable;
use ssync_phy::{Params, RateId, Transmitter};
use ssync_sim::{ChannelModels, Network, NodeId};

/// One client scenario: downlink/uplink SNRs per AP.
#[derive(Debug, Clone)]
pub struct ClientScenario {
    /// Downlink SNR (dB) from each associated AP (index 0 = lead).
    pub downlink_snr_db: Vec<f64>,
    /// Uplink SNR (dB) to each associated AP.
    pub uplink_snr_db: Vec<f64>,
}

impl ClientScenario {
    /// Joint downlink SNR when all APs transmit together (linear powers
    /// add; §6 guarantees the combination is never destructive).
    pub fn joint_downlink_snr_db(&self) -> f64 {
        let total: f64 = self
            .downlink_snr_db
            .iter()
            .map(|s| ssync_dsp::stats::linear_from_db(*s))
            .sum();
        ssync_dsp::stats::db_from_linear(total)
    }

    /// The best single AP's downlink SNR.
    pub fn best_single_snr_db(&self) -> f64 {
        self.downlink_snr_db
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// ACK delivery probability with uplink receiver diversity: lost only
    /// if every AP misses it.
    pub fn ack_delivery(&self, per: &PerTable) -> f64 {
        let all_miss: f64 = self
            .uplink_snr_db
            .iter()
            .map(|s| per.per(RateId::R6, *s))
            .product();
        1.0 - all_miss
    }
}

/// Result of one downlink session.
#[derive(Debug, Clone, Copy)]
pub struct SessionOutcome {
    /// Packets delivered (CRC-checked and acknowledged).
    pub delivered: usize,
    /// Total medium time, seconds.
    pub medium_time_s: f64,
    /// Goodput, bits/s.
    pub throughput_bps: f64,
    /// The rate SampleRate most recently preferred.
    pub final_rate: RateId,
}

/// Transmission mode of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The single best AP transmits (selective diversity — the paper's
    /// Fig. 17 baseline).
    BestSingleAp,
    /// All associated APs transmit jointly with SourceSync.
    SourceSync,
}

/// Shape of one downlink session: mode and traffic.
#[derive(Debug, Clone, Copy)]
pub struct SessionSpec {
    /// Single best AP, or all APs jointly.
    pub mode: Mode,
    /// Payload bytes per packet.
    pub payload_len: usize,
    /// Packets in the session.
    pub n_packets: usize,
}

/// Simulates one downlink session described by `spec`.
pub fn run_session<R: Rng + ?Sized>(
    rng: &mut R,
    params: &Params,
    per: &PerTable,
    scenario: &ClientScenario,
    spec: &SessionSpec,
) -> SessionOutcome {
    let SessionSpec {
        mode,
        payload_len,
        n_packets,
    } = *spec;
    let timing = DcfTiming::default();
    let tx = Transmitter::new(params.clone());
    let ack_s = tx.frame_duration_s(14, RateId::R6);
    let n_co = match mode {
        Mode::BestSingleAp => 0,
        Mode::SourceSync => scenario.downlink_snr_db.len().saturating_sub(1),
    };
    // A single AP's frequency-selective link decodes ~1.5 dB worse than
    // the AWGN-calibrated table suggests; the joint composite channel is
    // diversity-flattened and does not (see ssync_phy::ber).
    let snr = match mode {
        Mode::BestSingleAp => scenario.best_single_snr_db() - ssync_phy::ber::FADING_PENALTY_DB,
        Mode::SourceSync => scenario.joint_downlink_snr_db(),
    };
    let joint_overhead_s = if n_co > 0 {
        SIFS_S
            + n_co as f64 * 2.0 * (params.fft_size + params.cp_len) as f64 / params.sample_rate_hz
    } else {
        0.0
    };
    let p_ack = scenario.ack_delivery(per);

    let mut sr = SampleRate::new(params.clone(), payload_len);
    let mut delivered = 0usize;
    let mut medium_s = 0.0f64;
    for _ in 0..n_packets {
        let rate = sr.pick(rng);
        let p_data = 1.0 - per.per(rate, snr);
        let p = p_data * p_ack;
        let mut attempts = 0u32;
        let mut ok = false;
        while attempts < RETRY_LIMIT {
            attempts += 1;
            medium_s += timing.difs().as_secs_f64()
                + joint_overhead_s
                + tx.frame_duration_s(payload_len, rate)
                + timing.sifs.as_secs_f64()
                + ack_s;
            if rng.gen::<f64>() < p {
                ok = true;
                break;
            }
        }
        sr.report(rate, attempts, ok);
        if ok {
            delivered += 1;
        }
    }
    SessionOutcome {
        delivered,
        medium_time_s: medium_s,
        throughput_bps: if medium_s > 0.0 {
            (delivered * payload_len * 8) as f64 / medium_s
        } else {
            0.0
        },
        final_rate: sr.current(),
    }
}

/// One sample-level joint AP transmission, for validating the closed-form
/// AWGN model against the real protocol.
#[derive(Debug, Clone)]
pub struct SampleLevelJoint {
    /// Whether the client CRC-decoded the joint payload.
    pub delivered: bool,
    /// Per-co-AP join diagnostics (typed [`ssync_core::JoinFailure`] for
    /// any AP that stayed silent).
    pub cosenders: Vec<CosenderOutcome>,
    /// Mean per-carrier composite SNR the client's joint channel estimator
    /// measured, dB (`NaN` if the client never decoded the sync header).
    pub measured_snr_db: f64,
    /// The closed-form prediction ([`ClientScenario::joint_downlink_snr_db`]).
    pub model_snr_db: f64,
    /// Measured per-co-AP misalignment vs the lead AP, seconds.
    pub misalign_s: Vec<Option<f64>>,
}

/// Drives one *actual* joint AP transmission through the staged
/// [`JointSession`] at the sample level: builds a clean-channel network of
/// the scenario's APs plus the client, pins each AP→client link to the
/// scenario's downlink SNR, solves wait times from oracle delays (a real
/// deployment measures them once with the §4.2 probe protocol; the oracle
/// keeps this check deterministic), and runs the full §4.4 protocol.
///
/// The returned [`SampleLevelJoint`] pairs the client's *measured*
/// composite SNR with the closed-form `joint_downlink_snr_db` model that
/// [`run_session`] prices packets with — the cross-validation the AWGN
/// table alone could never provide.
///
/// All modem machinery and scratch live in the reusable
/// [`SessionWorkspace`], so a controller validating many clients (or a
/// bench sweeping SNR grids) reuses them across sessions.
pub fn joint_session_downlink_with<R: Rng + ?Sized>(
    rng: &mut R,
    params: &Params,
    scenario: &ClientScenario,
    payload: &[u8],
    ws: &mut SessionWorkspace,
) -> SampleLevelJoint {
    use ssync_channel::Position;

    let n_aps = scenario.downlink_snr_db.len().max(1);
    let client = NodeId(n_aps);
    // APs in a tight ceiling row (they hear each other's sync headers
    // loudly); the client across the room.
    let mut positions: Vec<Position> = (0..n_aps)
        .map(|i| Position::new(4.0 * i as f64, 0.0))
        .collect();
    positions.push(Position::new(2.0 * (n_aps as f64 - 1.0), 15.0));
    let mut net = Network::build(rng, params, &positions, &ChannelModels::clean(params));

    // Pin each AP→client link to the scenario's downlink SNR, and the
    // inter-AP links to a strong in-room level.
    for (i, &snr_db) in scenario.downlink_snr_db.iter().enumerate() {
        net.pin_snr_db(NodeId(i), client, snr_db);
    }
    for i in 0..n_aps {
        for j in 0..n_aps {
            if i != j {
                net.pin_snr_db(NodeId(i), NodeId(j), 30.0);
            }
        }
    }

    // Oracle delay database + §4.3 wait times.
    let mut db = DelayDatabase::new();
    let nodes: Vec<NodeId> = (0..=n_aps).map(NodeId).collect();
    for i in 0..nodes.len() {
        for j in i + 1..nodes.len() {
            db.set_delay(nodes[i], nodes[j], net.true_delay_s(nodes[i], nodes[j]));
        }
    }
    let lead = NodeId(0);
    let co_aps: Vec<NodeId> = (1..n_aps).map(NodeId).collect();
    let waits = db
        .wait_solution(lead, &co_aps, &[client])
        .expect("oracle delays cover all pairs");

    let session = JointSession::new(lead)
        .cosenders(
            co_aps
                .iter()
                .zip(&waits.waits)
                .map(|(&node, &wait_s)| CosenderPlan { node, wait_s }),
        )
        .receiver(client)
        .payload(payload)
        .config(JointConfig::default());
    let out = session.run_with(&mut net, rng, &db, ws);

    let report = &out.reports[0];
    // NaN (not a plausible-looking 0 dB) when the client never decoded the
    // header and therefore measured nothing.
    let measured_snr_db = if report.effective_snr_db.is_empty() {
        f64::NAN
    } else {
        ssync_dsp::stats::mean(&report.effective_snr_db)
    };
    SampleLevelJoint {
        delivered: report.payload.as_deref() == Some(payload),
        cosenders: out.cosenders,
        measured_snr_db,
        model_snr_db: scenario.joint_downlink_snr_db(),
        misalign_s: report.measured_misalign_s.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssync_phy::OfdmParams;

    fn scenario(snr1: f64, snr2: f64) -> ClientScenario {
        ClientScenario {
            downlink_snr_db: vec![snr1, snr2],
            uplink_snr_db: vec![snr1, snr2],
        }
    }

    #[test]
    fn joint_snr_math() {
        let s = scenario(10.0, 10.0);
        assert!((s.joint_downlink_snr_db() - 13.01).abs() < 0.05);
        assert_eq!(s.best_single_snr_db(), 10.0);
    }

    #[test]
    fn ack_diversity_beats_single() {
        let per = PerTable::analytic();
        let s = scenario(5.0, 5.0);
        let single_miss = per.per(RateId::R6, 5.0);
        assert!(s.ack_delivery(&per) > 1.0 - single_miss);
    }

    fn spec(mode: Mode, payload_len: usize, n_packets: usize) -> SessionSpec {
        SessionSpec {
            mode,
            payload_len,
            n_packets,
        }
    }

    #[test]
    fn sourcesync_beats_best_single_at_marginal_snr() {
        // The Fig. 17 regime: the client is marginal to both APs, so the
        // 3 dB power gain buys a higher rate / fewer retries.
        let params = OfdmParams::dot11a();
        let per = PerTable::analytic();
        let s = scenario(11.0, 10.0);
        let mut single_sum = 0.0;
        let mut joint_sum = 0.0;
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            single_sum += run_session(
                &mut rng,
                &params,
                &per,
                &s,
                &spec(Mode::BestSingleAp, 1460, 400),
            )
            .throughput_bps;
            let mut rng = StdRng::seed_from_u64(seed);
            joint_sum += run_session(
                &mut rng,
                &params,
                &per,
                &s,
                &spec(Mode::SourceSync, 1460, 400),
            )
            .throughput_bps;
        }
        assert!(
            joint_sum > 1.15 * single_sum,
            "joint {joint_sum} not >15% over single {single_sum}"
        );
    }

    #[test]
    fn joint_overhead_costs_at_very_high_snr() {
        // When the client is already at top rate, joint transmission can
        // only add overhead; the gap must stay small (<10 %).
        let params = OfdmParams::dot11a();
        let per = PerTable::analytic();
        let s = scenario(35.0, 35.0);
        let mut rng = StdRng::seed_from_u64(1);
        let single = run_session(
            &mut rng,
            &params,
            &per,
            &s,
            &spec(Mode::BestSingleAp, 1460, 300),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let joint = run_session(
            &mut rng,
            &params,
            &per,
            &s,
            &spec(Mode::SourceSync, 1460, 300),
        );
        assert!(joint.throughput_bps > 0.90 * single.throughput_bps);
        assert!(joint.throughput_bps <= single.throughput_bps * 1.02);
    }

    #[test]
    fn hopeless_client_delivers_nothing() {
        let params = OfdmParams::dot11a();
        let per = PerTable::analytic();
        let s = scenario(-10.0, -12.0);
        let mut rng = StdRng::seed_from_u64(2);
        let o = run_session(
            &mut rng,
            &params,
            &per,
            &s,
            &spec(Mode::BestSingleAp, 1460, 50),
        );
        assert_eq!(o.delivered, 0);
        assert!(o.throughput_bps == 0.0);
    }

    #[test]
    fn session_counts_are_consistent() {
        let params = OfdmParams::dot11a();
        let per = PerTable::analytic();
        let s = scenario(25.0, 20.0);
        let mut rng = StdRng::seed_from_u64(3);
        let o = run_session(
            &mut rng,
            &params,
            &per,
            &s,
            &spec(Mode::SourceSync, 1000, 100),
        );
        assert!(o.delivered <= 100);
        assert!(o.medium_time_s > 0.0);
    }

    #[test]
    fn sample_level_session_validates_closed_form_model() {
        // The load-bearing assumption of the Fig. 17 pricing — joint
        // downlink SNR = sum of linear AP powers — reproduced by an actual
        // joint transmission over the waveform medium.
        let params = OfdmParams::dot11a();
        let s = scenario(14.0, 12.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut ws = SessionWorkspace::new(params.clone());
        let check = joint_session_downlink_with(&mut rng, &params, &s, &[0x5Au8; 200], &mut ws);
        assert!(check.delivered, "joint AP frame failed to decode");
        assert_eq!(check.cosenders.len(), 1);
        assert!(
            check.cosenders[0].joined(),
            "co-AP failed: {:?}",
            check.cosenders[0].join
        );
        assert!(
            (check.measured_snr_db - check.model_snr_db).abs() < 2.0,
            "measured {:.2} dB vs model {:.2} dB",
            check.measured_snr_db,
            check.model_snr_db
        );
        // The APs synchronized: sub-sample misalignment at 20 Msps.
        let m = check.misalign_s[0].expect("no misalignment measurement");
        assert!(m.abs() < 100e-9, "misalignment {m}");
    }

    #[test]
    fn reused_session_workspace_matches_fresh_runs() {
        // Two back-to-back sample-level sessions through ONE workspace must
        // give exactly the outcomes of two fresh-workspace runs: no state
        // may leak between sessions.
        let params = OfdmParams::dot11a();
        let scenarios = [scenario(14.0, 12.0), scenario(11.0, 13.0)];
        let mut ws = SessionWorkspace::new(params.clone());
        let mut rng_a = StdRng::seed_from_u64(31);
        let mut rng_b = StdRng::seed_from_u64(31);
        for (i, s) in scenarios.iter().enumerate() {
            let reused =
                joint_session_downlink_with(&mut rng_a, &params, s, &[0x77u8; 120], &mut ws);
            let mut fresh_ws = SessionWorkspace::new(params.clone());
            let fresh =
                joint_session_downlink_with(&mut rng_b, &params, s, &[0x77u8; 120], &mut fresh_ws);
            assert_eq!(reused.delivered, fresh.delivered, "session {i}");
            assert_eq!(
                reused.measured_snr_db.to_bits(),
                fresh.measured_snr_db.to_bits()
            );
            assert_eq!(reused.misalign_s, fresh.misalign_s);
            assert_eq!(reused.cosenders.len(), fresh.cosenders.len());
        }
    }

    #[test]
    fn sample_level_session_scales_to_three_aps() {
        let params = OfdmParams::dot11a();
        let s = ClientScenario {
            downlink_snr_db: vec![13.0, 12.0, 11.0],
            uplink_snr_db: vec![13.0, 12.0, 11.0],
        };
        let mut ws = SessionWorkspace::new(params.clone());
        let sessions: Vec<_> = (21..37)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                joint_session_downlink_with(&mut rng, &params, &s, &[0xC3u8; 150], &mut ws)
            })
            .collect();
        let check = &sessions[0];
        assert!(check.delivered, "3-AP joint frame failed");
        let joined = check.cosenders.iter().filter(|c| c.joined()).count();
        assert_eq!(joined, 2, "co-AP failures: {:?}", check.cosenders);
        // One frame's measured SNR spreads ~2.4 dB around its mean, so the
        // agreement with the model is checked on the mean of 16 sessions
        // (standard error ~0.6 dB).
        let measured = sessions.iter().map(|c| c.measured_snr_db).sum::<f64>() / 16.0;
        assert!(
            (measured - check.model_snr_db).abs() < 2.5,
            "mean measured {measured:.2} dB vs model {:.2} dB",
            check.model_snr_db
        );
    }
}
