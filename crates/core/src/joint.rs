//! The joint-transmission protocol types (paper §4.4, Figs. 6–7).
//!
//! The protocol itself lives in [`crate::session`] as the staged
//! [`JointSession`](crate::session::JointSession) API — per-role stages
//! (`LeadTx`, `CosenderJoin`, `ReceiverDecode`) that can be invoked
//! separately over the sample-level medium. This module keeps the shared
//! vocabulary — [`JointConfig`], [`CosenderPlan`], [`ReceiverReport`],
//! [`JointOutcome`].
//!
//! One [`JointSession::run_with`](crate::session::JointSession::run_with) plays out
//! an entire joint frame:
//!
//! 1. the lead sender transmits the sync header, then goes silent for a
//!    SIFS plus the co-sender training slots, then transmits its
//!    space-time-coded data;
//! 2. each co-sender *detects* the header in its own noisy capture,
//!    estimates the header's arrival with the phase-slope machinery,
//!    subtracts the measured lead→co propagation delay, adds its wait
//!    time, quantises to its sample clock, and transmits its training and
//!    data — all the compensation steps of §4.3;
//! 3. each receiver detects the header, estimates every sender's channel,
//!    checks which co-senders actually joined, combines the space-time
//!    coded data, and measures the residual lead/co misalignment that an
//!    ACK would feed back (§4.5).
//!
//! The returned [`JointOutcome`] carries the receivers' *measured*
//! misalignments, the simulator's exact ground truth (what the Fig. 12
//! synchronization-error experiment compares), and a typed per-co-sender
//! join diagnostic ([`CosenderOutcome`]).

use crate::combiner::{CombinerStats, DataSectionSpec};
use crate::session::CosenderOutcome;
use ssync_phy::chanest::ChannelEstimate;
use ssync_phy::RateId;
use ssync_sim::{NodeId, Time};

/// Knobs of a joint transmission (the `false` settings are the ablation
/// baselines the paper argues against).
#[derive(Debug, Clone, Copy)]
pub struct JointConfig {
    /// Data-section rate.
    pub rate: RateId,
    /// Cyclic-prefix extension in samples (§4.6; 0 for single-receiver).
    pub cp_extension: usize,
    /// Space-time-code the data (Smart Combiner, §6). `false` = all
    /// senders transmit identical symbols.
    pub smart_combiner: bool,
    /// Share pilots across senders (§5). `false` = everyone drives pilots.
    pub pilot_sharing: bool,
    /// Pre-rotate co-sender waveforms by the lead-relative CFO measured
    /// from the sync header (§5).
    pub cfo_precorrection: bool,
    /// Compensate propagation/detection delays (§4.3). `false` = the
    /// Fig. 13 baseline: co-senders join on their raw header timing.
    pub delay_compensation: bool,
}

impl Default for JointConfig {
    fn default() -> Self {
        JointConfig {
            rate: RateId::R12,
            cp_extension: 0,
            smart_combiner: true,
            pilot_sharing: true,
            cfo_precorrection: true,
            delay_compensation: true,
        }
    }
}

impl JointConfig {
    /// The data-section coding spec at the frame's extended CP
    /// (`data_cp` = base CP + `cp_extension`, from the
    /// [`JointTimeline`](crate::timeline::JointTimeline)).
    pub fn data_section(&self, data_cp: usize) -> DataSectionSpec {
        DataSectionSpec {
            rate: self.rate,
            cp_len: data_cp,
            smart_combiner: self.smart_combiner,
            pilot_sharing: self.pilot_sharing,
        }
    }
}

/// A co-sender's role in one joint transmission.
#[derive(Debug, Clone, Copy)]
pub struct CosenderPlan {
    /// The co-sender node.
    pub node: NodeId,
    /// Its wait time `wᵢ` relative to the global reference, seconds
    /// (from [`DelayDatabase::wait_solution`](crate::sls::DelayDatabase::wait_solution)
    /// or §4.5 tracking).
    pub wait_s: f64,
}

/// What one receiver saw of the joint frame.
#[derive(Debug, Clone)]
pub struct ReceiverReport {
    /// The receiver node.
    pub node: NodeId,
    /// Whether the sync header decoded (detection + SIGNAL + CRC).
    pub header_ok: bool,
    /// The CRC-checked payload, if the joint data decoded.
    pub payload: Option<Vec<u8>>,
    /// Lead-sender channel estimate (from the header preamble).
    pub lead_channel: Option<ChannelEstimate>,
    /// Per-co-sender channel estimates (`None` = absent or header failed).
    pub co_channels: Vec<Option<ChannelEstimate>>,
    /// Measured misalignment of each co-sender vs the lead, seconds
    /// (positive = co-sender late) — the §4.5 ACK feedback value.
    pub measured_misalign_s: Vec<Option<f64>>,
    /// Per-data-carrier effective SNR (dB) of the composite channel.
    pub effective_snr_db: Vec<f64>,
    /// Combiner statistics (effective gain, EVM).
    pub stats: CombinerStats,
}

/// Outcome of one joint transmission.
#[derive(Debug, Clone)]
pub struct JointOutcome {
    /// One report per requested receiver.
    pub reports: Vec<ReceiverReport>,
    /// Ground truth: actual data-section arrival misalignment of each
    /// co-sender vs the lead at each receiver, seconds (`[rx][co]`).
    pub true_misalign_s: Vec<Vec<f64>>,
    /// Ether times at which each co-sender began its training transmission
    /// (diagnostics; `outcome.cosenders` carries the full per-co-sender
    /// record, including the typed reason when a co-sender stayed silent).
    pub co_tx_times: Vec<Option<Time>>,
    /// Per-co-sender join diagnostics, in plan order: the transmission
    /// record of each joined co-sender, or the typed
    /// [`JoinFailure`](crate::session::JoinFailure) of each that did not.
    pub cosenders: Vec<CosenderOutcome>,
}

impl JointOutcome {
    /// How many co-senders actually transmitted.
    pub fn joined_count(&self) -> usize {
        self.cosenders.iter().filter(|c| c.joined()).count()
    }

    /// The co-senders that stayed silent, with their typed reasons.
    pub fn join_failures(
        &self,
    ) -> impl Iterator<Item = (NodeId, crate::session::JoinFailure)> + '_ {
        self.cosenders
            .iter()
            .filter_map(|c| c.join.as_ref().err().map(|e| (c.node, *e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{JointSession, SessionWorkspace};
    use crate::sls::DelayDatabase;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssync_channel::Position;
    use ssync_phy::OfdmParams;
    use ssync_sim::{ChannelModels, Network};

    /// A fresh workspace for one call (every network here is dot11a).
    fn fresh_ws() -> SessionWorkspace {
        SessionWorkspace::new(OfdmParams::dot11a())
    }

    /// Lead at origin, co-sender 12 m east, receiver 10 m north-east-ish.
    fn test_network(seed: u64) -> Network {
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

    fn measured_db(net: &mut Network, seed: u64) -> DelayDatabase {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = DelayDatabase::new();
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        assert!(db.measure_all(net, &mut rng, &nodes, 2));
        db
    }

    #[test]
    fn end_to_end_joint_frame_decodes() {
        let mut net = test_network(1);
        let db = measured_db(&mut net, 2);
        let sol = db
            .wait_solution(NodeId(0), &[NodeId(1)], &[NodeId(2)])
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let payload: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let out = JointSession::new(NodeId(0))
            .cosender(CosenderPlan {
                node: NodeId(1),
                wait_s: sol.waits[0],
            })
            .receiver(NodeId(2))
            .payload(&payload[..])
            .config(JointConfig::default())
            .run_with(&mut net, &mut rng, &db, &mut fresh_ws());
        let report = &out.reports[0];
        assert!(report.header_ok, "header failed");
        assert!(report.co_channels[0].is_some(), "co-sender not seen");
        assert_eq!(
            report.payload.as_deref(),
            Some(&payload[..]),
            "joint data failed"
        );
        // Synchronization: the residual misalignment should be within a few
        // sample periods (< 3 samples at 20 Msps = 150 ns for this coarse
        // numerology; the wiglan preset tightens this in the benches).
        let truth = out.true_misalign_s[0][0];
        assert!(truth.is_finite());
        assert!(truth.abs() < 150e-9, "true misalignment {truth}");
        // The measured misalignment should agree with the truth reasonably.
        let measured = report.measured_misalign_s[0].expect("no measurement");
        assert!(
            (measured - truth).abs() < 60e-9,
            "measured {measured} vs truth {truth}"
        );
        // The session diagnostics agree with the legacy fields.
        assert_eq!(out.joined_count(), 1);
        assert_eq!(out.join_failures().count(), 0);
    }

    #[test]
    fn uncompensated_baseline_is_worse() {
        let mut net = test_network(4);
        let db = measured_db(&mut net, 5);
        let sol = db
            .wait_solution(NodeId(0), &[NodeId(1)], &[NodeId(2)])
            .unwrap();
        let payload = [0x42u8; 100];

        let mut rng = StdRng::seed_from_u64(6);
        let sync_out = JointSession::new(NodeId(0))
            .cosender(CosenderPlan {
                node: NodeId(1),
                wait_s: sol.waits[0],
            })
            .receiver(NodeId(2))
            .payload(&payload[..])
            .config(JointConfig::default())
            .run_with(&mut net, &mut rng, &db, &mut fresh_ws());
        let mut rng = StdRng::seed_from_u64(6);
        let base_cfg = JointConfig {
            delay_compensation: false,
            ..Default::default()
        };
        let base_out = JointSession::new(NodeId(0))
            .cosender(CosenderPlan {
                node: NodeId(1),
                wait_s: 0.0,
            })
            .receiver(NodeId(2))
            .payload(&payload[..])
            .config(base_cfg)
            .run_with(&mut net, &mut rng, &db, &mut fresh_ws());
        let sync_mis = sync_out.true_misalign_s[0][0].abs();
        let base_mis = base_out.true_misalign_s[0][0].abs();
        assert!(
            sync_mis < base_mis,
            "SourceSync {sync_mis} not tighter than baseline {base_mis}"
        );
    }

    #[test]
    fn lone_lead_when_cosender_misses_header() {
        // Give the co-sender no link from the lead by placing it absurdly
        // far: it will fail to decode and stay silent; the receiver must
        // still decode the lead alone.
        let params = OfdmParams::dot11a();
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(2000.0, 0.0), // unreachable co-sender
            Position::new(6.0, 8.0),
        ];
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Network::build(
            &mut rng,
            &params,
            &positions,
            &ChannelModels::clean(&params),
        );
        let db = DelayDatabase::new(); // empty: co never joins anyway
        let payload = [0x77u8; 150];
        let out = JointSession::new(NodeId(0))
            .cosender(CosenderPlan {
                node: NodeId(1),
                wait_s: 0.0,
            })
            .receiver(NodeId(2))
            .payload(&payload[..])
            .config(JointConfig::default())
            .run_with(&mut net, &mut rng, &db, &mut fresh_ws());
        let report = &out.reports[0];
        assert!(report.header_ok);
        assert!(report.co_channels[0].is_none(), "ghost co-sender");
        assert_eq!(
            report.payload.as_deref(),
            Some(&payload[..]),
            "lone lead failed"
        );
        assert!(out.true_misalign_s[0][0].is_nan());
        // And the failure is typed, not silent.
        assert_eq!(out.joined_count(), 0);
        let failures: Vec<_> = out.join_failures().collect();
        assert_eq!(
            failures,
            vec![(NodeId(1), crate::session::JoinFailure::NoDetect)]
        );
    }

    #[test]
    fn effective_snr_reported_per_carrier() {
        let mut net = test_network(8);
        let db = measured_db(&mut net, 9);
        let sol = db
            .wait_solution(NodeId(0), &[NodeId(1)], &[NodeId(2)])
            .unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let out = JointSession::new(NodeId(0))
            .cosender(CosenderPlan {
                node: NodeId(1),
                wait_s: sol.waits[0],
            })
            .receiver(NodeId(2))
            .payload([1u8, 2, 3, 4])
            .config(JointConfig::default())
            .run_with(&mut net, &mut rng, &db, &mut fresh_ws());
        let report = &out.reports[0];
        assert_eq!(report.effective_snr_db.len(), 48);
        assert!(report.stats.mean_effective_gain > 0.0);
    }
}
