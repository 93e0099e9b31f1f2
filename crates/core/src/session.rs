//! The staged joint-transmission API: one [`JointSession`] per joint
//! frame, driven role by role.
//!
//! This module exposes the §4.4 protocol as *explicit,
//! separately-invocable stages*, each a per-node struct with its own
//! inputs and outputs, all sharing the medium through
//! [`ssync_sim::Network`]:
//!
//! * [`LeadTx`] — the lead sender's role: lays out the frame geometry
//!   ([`LeadFrame`]), schedules the sync header, and schedules the lead's
//!   space-time-coded data after the SIFS + training slots;
//! * [`CosenderJoin`] — one co-sender's role: detect the header in its
//!   own noisy capture, phase-slope-estimate the arrival, subtract the
//!   measured lead→co propagation delay, add the wait time, quantise to
//!   the sample clock, and transmit training + data (§4.3). A co-sender
//!   that cannot join returns a typed [`JoinFailure`] instead of going
//!   silent;
//! * [`ReceiverDecode`] — one receiver's role: joint channel estimation,
//!   space-time combining, and the §4.5 misalignment report.
//!
//! [`JointSession::run_with`] drives all three stages in protocol order; its
//! outputs are byte-identical to the historical monolithic driver, which
//! is what the figure reproductions and golden tests pin. Driving the
//! stages yourself is what the monolith could never do: joining a
//! co-sender against a *different* session's frame (stale-packet
//! experiments), skipping the lead entirely, or decoding at receivers the
//! senders never planned for.
//!
//! ```no_run
//! # use ssync_core::session::{JointSession, SessionWorkspace};
//! # use ssync_core::{CosenderPlan, DelayDatabase, JointConfig};
//! # use ssync_sim::{Network, NodeId};
//! # use rand::rngs::StdRng;
//! # use rand::SeedableRng;
//! # fn demo(net: &mut Network, db: &DelayDatabase) {
//! let mut rng = StdRng::seed_from_u64(1);
//! let session = JointSession::new(NodeId(0))
//!     .cosender(CosenderPlan { node: NodeId(1), wait_s: 80e-9 })
//!     .receiver(NodeId(2))
//!     .payload(b"hello".to_vec())
//!     .config(JointConfig::default());
//! // Staged: every role separately, sharing one workspace.
//! let mut ws = SessionWorkspace::new(net.params.clone());
//! let frame = session.lead_tx().transmit_with(net, &mut ws);
//! let join = session.cosender_join(0, &frame).join_with(net, &mut rng, db, &mut ws);
//! let report = session.receiver_decode(NodeId(2), &frame).decode_with(net, &mut rng, &mut ws);
//! # let _ = (join, report);
//! # }
//! ```

use crate::combiner::{
    decode_joint_data_with, CombineWorkspace, CombinerStats, DataSectionSpec, JointDataWindow,
};
use crate::jce::{
    estimate_from_training_slot, training_slot_energy_ratio, RoleChannels, PRESENCE_THRESHOLD,
};
use crate::joint::{CosenderPlan, JointConfig, JointOutcome, ReceiverReport};
use crate::sls::{arrival_estimate_s, DelayDatabase};
use crate::timeline::{JointTimeline, HEADER_RATE};
use crate::wire::{packet_id, SyncHeader};
use rand::Rng;
use ssync_dsp::mixer::apply_cfo_from;
use ssync_dsp::{Complex64, FftPlan};
use ssync_obs::JoinFailureClass;
use ssync_phy::chanest::{delay_from_slope, phase_slope, ChanestScratch, ChannelEstimate};
use ssync_phy::preamble::cosender_training;
use ssync_phy::workspace::{RxWorkspace, TxWorkspace};
use ssync_phy::{crc, frame, Params, Receiver, Transmitter};
use ssync_sim::{Network, NodeId, Time};
use ssync_stbc::codebook::codeword_for;

/// Margin of noise-only samples before the lead's header.
pub(crate) const CAPTURE_MARGIN: usize = 400;

/// Why a co-sender did not join a joint transmission (§4.4).
///
/// The monolithic driver dropped out of the join loop silently; the staged
/// API reports the first protocol step that failed so callers (tracking
/// loops, rate controllers, the opportunistic-routing layer) can react to
/// *why* a sender stayed quiet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinFailure {
    /// The sync header never decoded at this co-sender (no detection, or
    /// the frame failed its CRC).
    NoDetect,
    /// A frame decoded but its SIGNAL flags did not carry `FLAG_JOINT` —
    /// the co-sender heard ordinary traffic, not a sync header.
    NotJointFlagged,
    /// The joint-flagged frame's payload did not parse as a [`SyncHeader`].
    MalformedHeader,
    /// The header announced a different packet than the one this co-sender
    /// holds (stale queue, or a concurrent lead).
    WrongPacket {
        /// The packet id this co-sender holds.
        expected: u16,
        /// The packet id the decoded header announced.
        heard: u16,
    },
    /// Delay compensation is on but the delay database holds no
    /// lead→co-sender entry, so the §4.3 arithmetic cannot run. (The
    /// monolith silently substituted a propagation delay of zero here and
    /// joined misaligned.)
    MissingDelay {
        /// The lead sender of the frame.
        lead: NodeId,
        /// The co-sender missing its delay measurement.
        cosender: NodeId,
    },
}

impl JoinFailure {
    /// The payload-free trace classification of this failure.
    pub fn class(&self) -> JoinFailureClass {
        match self {
            JoinFailure::NoDetect => JoinFailureClass::NoDetect,
            JoinFailure::NotJointFlagged => JoinFailureClass::NotJointFlagged,
            JoinFailure::MalformedHeader => JoinFailureClass::MalformedHeader,
            JoinFailure::WrongPacket { .. } => JoinFailureClass::WrongPacket,
            JoinFailure::MissingDelay { .. } => JoinFailureClass::MissingDelay,
        }
    }
}

impl std::fmt::Display for JoinFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinFailure::NoDetect => write!(f, "sync header not detected"),
            JoinFailure::NotJointFlagged => write!(f, "decoded frame not joint-flagged"),
            JoinFailure::MalformedHeader => write!(f, "joint frame payload not a sync header"),
            JoinFailure::WrongPacket { expected, heard } => {
                write!(
                    f,
                    "holds packet {expected:#06x}, header announced {heard:#06x}"
                )
            }
            JoinFailure::MissingDelay { lead, cosender } => {
                write!(f, "no delay-database entry for {lead}<->{cosender}")
            }
        }
    }
}

/// A co-sender's successful join: when it transmitted and what it measured.
#[derive(Debug, Clone, Copy)]
pub struct CosenderTx {
    /// The co-sender node.
    pub node: NodeId,
    /// Ether time its training transmission began.
    pub training_time: Time,
    /// Ether time its data section began.
    pub data_time: Time,
    /// The lead-relative CFO it measured from the sync header, Hz
    /// (`f_lead − f_co`; what §5 pre-rotation corrects).
    pub cfo_hz: f64,
}

/// One co-sender's outcome in a joint transmission: the node and either
/// its transmission record or the typed reason it stayed silent.
#[derive(Debug, Clone)]
pub struct CosenderOutcome {
    /// The co-sender node.
    pub node: NodeId,
    /// Join record, or the first protocol step that failed.
    pub join: Result<CosenderTx, JoinFailure>,
}

impl CosenderOutcome {
    /// Whether this co-sender transmitted.
    pub fn joined(&self) -> bool {
        self.join.is_ok()
    }
}

/// The lead's scheduled frame: geometry plus the ether times every other
/// stage keys off. Produced by [`LeadTx`]; consumed by [`CosenderJoin`]
/// and [`ReceiverDecode`].
#[derive(Debug, Clone)]
pub struct LeadFrame {
    /// The sync header the lead announces.
    pub header: SyncHeader,
    /// The joint-frame layout (Figs. 6–7).
    pub timeline: JointTimeline,
    /// CRC-appended payload every sender derives its waveform from.
    pub psdu: Vec<u8>,
    /// Ether time of the sync header's first sample.
    pub t0: Time,
    /// Ether time of the lead's first data sample.
    pub data_time: Time,
}

/// One joint transmission, described once and driven stage by stage.
///
/// Build with [`JointSession::new`] + the chained setters, then either
/// call [`run_with`](JointSession::run_with) (the whole protocol, in order) or
/// invoke the per-role stages yourself via [`lead_tx`](JointSession::lead_tx),
/// [`cosender_join`](JointSession::cosender_join) and
/// [`receiver_decode`](JointSession::receiver_decode).
#[derive(Debug, Clone)]
pub struct JointSession {
    lead: NodeId,
    plans: Vec<CosenderPlan>,
    receivers: Vec<NodeId>,
    payload: Vec<u8>,
    config: JointConfig,
}

impl JointSession {
    /// A session led by `lead`, with no co-senders or receivers yet.
    pub fn new(lead: NodeId) -> Self {
        JointSession {
            lead,
            plans: Vec::new(),
            receivers: Vec::new(),
            payload: Vec::new(),
            config: JointConfig::default(),
        }
    }

    /// Adds one co-sender plan (node + §4.3 wait time).
    pub fn cosender(mut self, plan: CosenderPlan) -> Self {
        self.plans.push(plan);
        self
    }

    /// Adds several co-sender plans.
    pub fn cosenders<I: IntoIterator<Item = CosenderPlan>>(mut self, plans: I) -> Self {
        self.plans.extend(plans);
        self
    }

    /// Adds one receiver.
    pub fn receiver(mut self, node: NodeId) -> Self {
        self.receivers.push(node);
        self
    }

    /// Adds several receivers.
    pub fn receivers<I: IntoIterator<Item = NodeId>>(mut self, nodes: I) -> Self {
        self.receivers.extend(nodes);
        self
    }

    /// Sets the packet every sender holds.
    pub fn payload(mut self, payload: impl Into<Vec<u8>>) -> Self {
        self.payload = payload.into();
        self
    }

    /// Sets the joint-transmission knobs.
    pub fn config(mut self, config: JointConfig) -> Self {
        self.config = config;
        self
    }

    /// The lead sender.
    pub fn lead(&self) -> NodeId {
        self.lead
    }

    /// The co-sender plans, in slot order.
    pub fn plans(&self) -> &[CosenderPlan] {
        &self.plans
    }

    /// Stage 1, the lead sender's role.
    pub fn lead_tx(&self) -> LeadTx<'_> {
        LeadTx { session: self }
    }

    /// Stage 2, co-sender `index`'s role against a scheduled `frame`.
    ///
    /// # Panics
    /// Panics if `index` is out of range of the configured co-senders.
    pub fn cosender_join<'a>(&'a self, index: usize, frame: &'a LeadFrame) -> CosenderJoin<'a> {
        assert!(
            index < self.plans.len(),
            "co-sender {index} of {}",
            self.plans.len()
        );
        CosenderJoin {
            session: self,
            index,
            frame,
        }
    }

    /// Stage 3, receiver `node`'s role against a scheduled `frame`.
    pub fn receiver_decode<'a>(&'a self, node: NodeId, frame: &'a LeadFrame) -> ReceiverDecode<'a> {
        ReceiverDecode {
            session: self,
            node,
            frame,
        }
    }

    /// Runs the complete protocol: lead transmission, every co-sender's
    /// join attempt (in slot order), then every receiver's decode — the
    /// exact stage order (and RNG consumption order) of the historical
    /// monolith, so the outputs stay byte-identical to it. One
    /// [`SessionWorkspace`] serves the whole frame; callers driving many
    /// sessions reuse all planned machinery and scratch across frames, and
    /// a reused workspace gives the same bytes as a fresh one.
    pub fn run_with<R: Rng + ?Sized>(
        &self,
        net: &mut Network,
        rng: &mut R,
        db: &DelayDatabase,
        ws: &mut SessionWorkspace,
    ) -> JointOutcome {
        let frame = self.lead_tx().transmit_with(net, ws);
        let cosenders: Vec<CosenderOutcome> = (0..self.plans.len())
            .map(|i| CosenderOutcome {
                node: self.plans[i].node,
                join: self.cosender_join(i, &frame).join_with(net, rng, db, ws),
            })
            .collect();
        let mut reports = Vec::with_capacity(self.receivers.len());
        let mut true_misalign = Vec::with_capacity(self.receivers.len());
        for &rcv in &self.receivers {
            reports.push(self.receiver_decode(rcv, &frame).decode_with(net, rng, ws));
            true_misalign.push(ground_truth_misalign_s(
                net, self.lead, &frame, &cosenders, rcv,
            ));
        }
        let co_tx_times = cosenders
            .iter()
            .map(|c| c.join.as_ref().ok().map(|tx| tx.training_time))
            .collect();
        JointOutcome {
            reports,
            true_misalign_s: true_misalign,
            co_tx_times,
            cosenders,
        }
    }
}

/// Ground-truth data-section misalignment of each co-sender vs the lead at
/// receiver `rcv`, from the simulator's exact delays (`NaN` for co-senders
/// that did not join) — the quantity the Fig. 12 experiment compares the
/// receivers' *measurements* against.
pub fn ground_truth_misalign_s(
    net: &Network,
    lead: NodeId,
    frame: &LeadFrame,
    cosenders: &[CosenderOutcome],
    rcv: NodeId,
) -> Vec<f64> {
    cosenders
        .iter()
        .map(|co| match &co.join {
            Ok(tx) => {
                let lead_arrival = frame.data_time.as_secs_f64() + net.true_delay_s(lead, rcv);
                let co_arrival = tx.data_time.as_secs_f64() + net.true_delay_s(co.node, rcv);
                co_arrival - lead_arrival
            }
            Err(_) => f64::NAN,
        })
        .collect()
}

/// The planned per-frame machinery and scratch every stage shares: the
/// numerology, FFT tables, the modem transmitter, the detector-equipped
/// receiver, and the reusable TX/RX/combine workspaces. The RX workspace's
/// CFO-corrected capture serves both the header receive and the joint
/// decode that follows it, so the decode stage keeps no capture copy of
/// its own.
///
/// Built once per [`JointSession::run_with`] call or once per staged
/// drive. Callers driving many sessions (sweeps, benches, the last-hop
/// downlink) hold one `SessionWorkspace` per thread and pass it to every
/// stage — each stage then runs its per-symbol hot loops without heap
/// allocation, and the outputs stay byte-identical to a fresh
/// workspace's.
pub struct SessionWorkspace {
    params: Params,
    fft: FftPlan,
    tx: Transmitter,
    rx: Receiver,
    /// Transmit-side modulator scratch (header waveform).
    tx_ws: TxWorkspace,
    /// Receive-chain scratch (detection, equalisation, soft bits).
    rx_ws: RxWorkspace,
    /// Joint data-section scratch (space-time coding and combining).
    combine_ws: CombineWorkspace,
    /// Co-sender training-slot estimates and phase slopes.
    chanest: ChanestScratch,
}

impl SessionWorkspace {
    /// Plans all machinery for one numerology.
    pub fn new(params: Params) -> Self {
        SessionWorkspace {
            fft: FftPlan::new(params.fft_size),
            tx: Transmitter::new(params.clone()),
            rx: Receiver::new(params.clone()),
            tx_ws: TxWorkspace::new(&params),
            rx_ws: RxWorkspace::new(&params),
            combine_ws: CombineWorkspace::new(&params),
            chanest: ChanestScratch::new(),
            params,
        }
    }

    /// The numerology this workspace was planned for.
    pub fn params(&self) -> &Params {
        &self.params
    }
}

/// The lead sender's stage: frame layout + header and data scheduling.
#[derive(Debug, Clone, Copy)]
pub struct LeadTx<'a> {
    session: &'a JointSession,
}

impl LeadTx<'_> {
    /// Computes the frame schedule without touching the medium: the sync
    /// header, the Fig. 6 timeline, and the ether times of the header and
    /// the lead's data section. Useful to stage a [`CosenderJoin`] or
    /// [`ReceiverDecode`] against a frame somebody *else* put on the air.
    pub fn schedule(&self, params: &Params) -> LeadFrame {
        let s = self.session;
        let period = params.sample_period_fs();
        let psdu = crc::append_crc(&s.payload);
        let header = SyncHeader {
            lead: s.lead.0 as u16,
            packet_id: packet_id(&s.payload),
            rate: s.config.rate,
            psdu_len: psdu.len() as u16,
            cp_extension: s.config.cp_extension as u8,
            n_cosenders: s.plans.len() as u8,
        };
        let timeline = JointTimeline::new(
            params,
            psdu.len(),
            s.config.rate,
            s.config.cp_extension,
            s.plans.len(),
        );
        let t0 = Time((CAPTURE_MARGIN as u64) * period);
        let data_time = Time(t0.0 + (timeline.data_start() as u64) * period);
        LeadFrame {
            header,
            timeline,
            psdu,
            t0,
            data_time,
        }
    }

    /// Clears the medium, schedules the sync header at `t0` and the lead's
    /// space-time-coded data after the SIFS + training slots, and returns
    /// the frame the other stages key off.
    pub fn transmit_with(&self, net: &mut Network, ws: &mut SessionWorkspace) -> LeadFrame {
        let s = self.session;
        let frame_sched = self.schedule(&ws.params);

        net.medium.clear_transmissions();
        // The medium takes ownership of each waveform, so the outer vectors
        // are necessarily fresh; the workspace still serves the per-symbol
        // modulator scratch inside.
        let mut header_wave = Vec::new();
        ws.tx.frame_waveform_into(
            &frame_sched.header.to_bytes(),
            HEADER_RATE,
            frame::FLAG_JOINT,
            &mut ws.tx_ws,
            &mut header_wave,
        );
        debug_assert_eq!(header_wave.len(), frame_sched.timeline.header_len);
        net.medium.transmit(s.lead, frame_sched.t0, header_wave);

        let spec = s.config.data_section(frame_sched.timeline.data_cp);
        let mut lead_data = Vec::new();
        crate::combiner::joint_data_waveform_into(
            &ws.params,
            &ws.fft,
            &frame_sched.psdu,
            codeword_for(0),
            &spec,
            &mut ws.combine_ws,
            &mut lead_data,
        );
        net.medium
            .transmit(s.lead, frame_sched.data_time, lead_data);
        frame_sched
    }
}

/// One co-sender's stage: detect → estimate → compensate → quantise →
/// transmit (§4.3), or a typed [`JoinFailure`].
#[derive(Debug, Clone, Copy)]
pub struct CosenderJoin<'a> {
    session: &'a JointSession,
    index: usize,
    frame: &'a LeadFrame,
}

impl CosenderJoin<'_> {
    /// The co-sender this stage drives.
    pub fn node(&self) -> NodeId {
        self.session.plans[self.index].node
    }

    /// Attempts the join. On success the co-sender's training and data are
    /// on the medium and the returned [`CosenderTx`] records its timing;
    /// on failure nothing was transmitted and the reason is typed.
    pub fn join_with<R: Rng + ?Sized>(
        &self,
        net: &mut Network,
        rng: &mut R,
        db: &DelayDatabase,
        ws: &mut SessionWorkspace,
    ) -> Result<CosenderTx, JoinFailure> {
        let s = self.session;
        let plan = &s.plans[self.index];
        let co = plan.node;
        let SessionWorkspace {
            params,
            fft,
            rx,
            rx_ws,
            combine_ws,
            ..
        } = ws;
        let period = params.sample_period_fs();
        let timeline = &self.frame.timeline;

        // 1. Detect the sync header in this co-sender's own noisy capture.
        let window = CAPTURE_MARGIN * 2 + timeline.header_len + 200;
        let buf = net.medium.capture(rng, co, Time::ZERO, window);
        let Ok(res) = rx.receive_with(&buf, rx_ws) else {
            return Err(JoinFailure::NoDetect);
        };
        if res.signal.flags & frame::FLAG_JOINT == 0 {
            return Err(JoinFailure::NotJointFlagged);
        }
        let Ok(decoded_header) = SyncHeader::from_bytes(&res.payload) else {
            return Err(JoinFailure::MalformedHeader);
        };
        if decoded_header.packet_id != self.frame.header.packet_id {
            return Err(JoinFailure::WrongPacket {
                expected: self.frame.header.packet_id,
                heard: decoded_header.packet_id,
            });
        }

        // 2. Compensate: estimated ether time of the header's first sample
        // at the lead, minus the measured lead→co propagation delay, plus
        // this slot's offset and the wait time.
        let slot_offset_s = (timeline.training_slot(self.index) as u64 * period) as f64 * 1e-15;
        let target_s = if s.config.delay_compensation {
            let arrival_s = arrival_estimate_s(params, &res.diag, Time::ZERO);
            let Some(d_lead_co) = db.delay_s(s.lead, co) else {
                return Err(JoinFailure::MissingDelay {
                    lead: s.lead,
                    cosender: co,
                });
            };
            arrival_s - d_lead_co + slot_offset_s + plan.wait_s
        } else {
            // Baseline (paper §8.1.2): the co-sender joins "without
            // compensating for delay differences" — it references its raw
            // *detection instant* minus a bench-calibrated mean detection
            // latency (~10 samples for the default detector: ~2 samples of
            // threshold crossing plus half the 16-sample pipeline
            // decimation). The residual misalignment is the per-packet
            // detection variability of [42] (the pipeline phase and the
            // SNR-dependent crossing jitter) plus the uncompensated
            // propagation-delay differences.
            let nominal_detect = 10.0;
            let arrival_raw_s =
                (res.diag.detection.detect_idx as f64 - nominal_detect) * period as f64 * 1e-15;
            arrival_raw_s + slot_offset_s
        };

        // 3. Quantise to this co-sender's sample clock, no earlier than its
        // hardware turnaround allows.
        let detect_time = Time((res.diag.detection.detect_idx as u64) * period);
        let earliest = detect_time + net.node(co).turnaround;
        let tx_time = Time((target_s.max(0.0) * 1e15).round() as u64)
            .round_to_sample(period)
            .max(earliest.ceil_to_sample(period));

        // 4. Build and transmit: training then (after any other co-senders'
        // slots) data, with a continuous CFO pre-rotation.
        let spec = s.config.data_section(timeline.data_cp);
        let mut training = cosender_training(params, fft, timeline.data_cp);
        let mut data = Vec::new();
        crate::combiner::joint_data_waveform_into(
            params,
            fft,
            &self.frame.psdu,
            codeword_for(self.index + 1),
            &spec,
            combine_ws,
            &mut data,
        );
        let data_gap_samples = (timeline.data_start() - timeline.training_slot(self.index)) as u64;
        let data_time = Time(tx_time.0 + data_gap_samples * period);
        if s.config.cfo_precorrection {
            // The header detection measured f_lead − f_co at this co-sender;
            // pre-rotating by it moves the co-sender onto the lead's
            // oscillator so the receiver's single CFO correction serves
            // both. The NCO runs continuously across training and data.
            let cfo = res.diag.detection.cfo_hz;
            apply_cfo_from(&mut training, cfo, params.sample_rate_hz, 0.0, 0);
            apply_cfo_from(
                &mut data,
                cfo,
                params.sample_rate_hz,
                data_gap_samples as f64,
                0,
            );
        }
        net.medium.transmit(co, tx_time, training);
        net.medium.transmit(co, data_time, data);
        Ok(CosenderTx {
            node: co,
            training_time: tx_time,
            data_time,
            cfo_hz: res.diag.detection.cfo_hz,
        })
    }
}

/// One receiver's stage: capture, joint channel estimation, space-time
/// combining, and the §4.5 misalignment measurements.
#[derive(Debug, Clone, Copy)]
pub struct ReceiverDecode<'a> {
    session: &'a JointSession,
    node: NodeId,
    frame: &'a LeadFrame,
}

impl ReceiverDecode<'_> {
    /// The receiver this stage drives.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Captures this receiver's view of the joint frame and decodes it.
    pub fn decode_with<R: Rng + ?Sized>(
        &self,
        net: &mut Network,
        rng: &mut R,
        ws: &mut SessionWorkspace,
    ) -> ReceiverReport {
        let timeline = &self.frame.timeline;
        let window = CAPTURE_MARGIN * 2 + timeline.total_len() + 400;
        let buf = net.medium.capture(rng, self.node, Time::ZERO, window);
        decode_capture(ws, &buf, self.node, self.frame, &self.session.config)
    }
}

/// Joint-frame reception from an already-captured buffer.
///
/// The header is received through `ws.rx_ws`, which CFO-corrects a copy of
/// `buf` over the span the phy receiver reads; the training slots and the
/// data section are then read from that same copy, its rotation extended
/// to the end of the joint data by [`RxWorkspace::corrected_to`], so every
/// captured sample is copied once and rotated at most once, and the
/// capture margins no decode reads are not rotated at all.
fn decode_capture(
    ws: &mut SessionWorkspace,
    buf: &[Complex64],
    node: NodeId,
    frame_sched: &LeadFrame,
    cfg: &JointConfig,
) -> ReceiverReport {
    let SessionWorkspace {
        params,
        fft,
        rx,
        rx_ws,
        combine_ws,
        chanest,
        ..
    } = ws;
    // The receiver's common early-window offset (same convention as the
    // phy receiver's default backoff).
    let backoff = params.cp_len / 4;
    let header = &frame_sched.header;
    let timeline = &frame_sched.timeline;
    let n_co = header.n_cosenders as usize;
    let empty = ReceiverReport {
        node,
        header_ok: false,
        payload: None,
        lead_channel: None,
        co_channels: vec![None; n_co],
        measured_misalign_s: vec![None; n_co],
        effective_snr_db: Vec::new(),
        stats: CombinerStats::default(),
    };
    let Ok(res) = rx.receive_with(buf, rx_ws) else {
        return empty;
    };
    if res.signal.flags & frame::FLAG_JOINT == 0 {
        return empty;
    }
    let Ok(rx_header) = SyncHeader::from_bytes(&res.payload) else {
        return empty;
    };
    if rx_header.packet_id != header.packet_id {
        return empty;
    }
    let layout = ssync_phy::preamble::PreambleLayout::of(params);
    let Some(base) = res.diag.detection.lts_start.checked_sub(layout.lts_start()) else {
        return empty;
    };
    let period = params.sample_period_fs();
    let data_cp = timeline.data_cp;
    let window = JointDataWindow {
        data_start: base + timeline.data_start(),
        n_syms: timeline.n_data_symbols,
        psdu_len: rx_header.psdu_len as usize,
        backoff,
    };

    // One correction, referenced to sample 0, for every co-sender slot and
    // the data section: the receiver's own corrected copy, rotated on to
    // the end of the joint data and no further. Every read below lies past
    // the header, and every length check compares against an index at or
    // before the data end, so each check has the outcome it would have on
    // the whole capture.
    let corrected = rx_ws.corrected_to(window.end(params.fft_size + data_cp));

    // Noise floor from the SIFS silence (time domain), for presence checks.
    let sifs_lo = base + timeline.header_len + timeline.sifs_len / 4;
    let sifs_hi = (base + timeline.header_len + 3 * timeline.sifs_len / 4).min(corrected.len());
    let time_noise = if sifs_hi > sifs_lo {
        ssync_dsp::complex::mean_power(&corrected[sifs_lo..sifs_hi])
    } else {
        1.0
    };

    // Per-co-sender channel estimates + misalignment measurements.
    let mut co_channels: Vec<Option<ChannelEstimate>> = Vec::with_capacity(n_co);
    let mut misalign: Vec<Option<f64>> = Vec::with_capacity(n_co);
    for i in 0..n_co {
        let slot = base + timeline.training_slot(i);
        // Presence is measured on the central 60 % of the slot: adjacent
        // transmissions (the next slot, or the lead's data section) are
        // band-limited and pre-/post-ring a few samples into neighbouring
        // regions, which must not masquerade as a present co-sender.
        let trim = timeline.training_slot_len / 5;
        let ratio = training_slot_energy_ratio(
            corrected,
            slot + trim,
            timeline.training_slot_len - 2 * trim,
            time_noise,
        );
        if ratio < PRESENCE_THRESHOLD || corrected.len() < slot + timeline.training_slot_len {
            co_channels.push(None);
            misalign.push(None);
            continue;
        }
        let est =
            estimate_from_training_slot(params, fft, corrected, slot, data_cp, backoff, chanest);
        // Misalignment: co-sender's sub-sample offset minus the lead's.
        let slope = phase_slope(params, &est, 3e6, chanest);
        let delta_co = delay_from_slope(params, slope) - backoff.min(data_cp) as f64;
        let delta_lead = res.diag.timing_offset_samples;
        misalign.push(Some((delta_co - delta_lead) * period as f64 * 1e-15));
        co_channels.push(Some(est));
    }

    // Fold into role channels and decode the joint data.
    let mut senders: Vec<Option<&ChannelEstimate>> = vec![Some(&res.diag.channel)];
    senders.extend(co_channels.iter().map(|c| c.as_ref()));
    let roles = RoleChannels::from_estimates(params, &senders);
    let effective_snr_db = roles.effective_snr_db();
    let spec = DataSectionSpec {
        rate: rx_header.rate,
        cp_len: data_cp,
        smart_combiner: cfg.smart_combiner,
        pilot_sharing: cfg.pilot_sharing,
    };
    let decode = decode_joint_data_with(params, fft, corrected, &window, &spec, &roles, combine_ws);
    let (payload, stats) = match decode {
        Some((psdu, stats)) => {
            let payload = psdu.as_deref().and_then(crc::check_crc).map(|p| p.to_vec());
            (payload, stats)
        }
        None => (None, CombinerStats::default()),
    };

    ReceiverReport {
        node,
        header_ok: true,
        payload,
        lead_channel: Some(res.diag.channel.clone()),
        co_channels,
        measured_misalign_s: misalign,
        effective_snr_db,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssync_channel::Position;
    use ssync_phy::OfdmParams;
    use ssync_sim::ChannelModels;

    /// A fresh workspace for one call (every network here is dot11a).
    fn fresh_ws() -> SessionWorkspace {
        SessionWorkspace::new(OfdmParams::dot11a())
    }

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

    fn session(payload: &[u8], wait_s: f64) -> JointSession {
        JointSession::new(NodeId(0))
            .cosender(CosenderPlan {
                node: NodeId(1),
                wait_s,
            })
            .receiver(NodeId(2))
            .payload(payload.to_vec())
            .config(JointConfig::default())
    }

    #[test]
    fn stages_separately_invoked_deliver() {
        let payload = vec![0x3Au8; 120];
        let mut net = test_network(31);
        let db = measured_db(&mut net, 32);
        let sol = db
            .wait_solution(NodeId(0), &[NodeId(1)], &[NodeId(2)])
            .unwrap();
        let s = session(&payload, sol.waits[0]);
        let mut rng = StdRng::seed_from_u64(33);
        let frame = s.lead_tx().transmit_with(&mut net, &mut fresh_ws());
        let join = s
            .cosender_join(0, &frame)
            .join_with(&mut net, &mut rng, &db, &mut fresh_ws());
        assert!(join.is_ok(), "join failed: {join:?}");
        let report =
            s.receiver_decode(NodeId(2), &frame)
                .decode_with(&mut net, &mut rng, &mut fresh_ws());
        assert!(report.header_ok);
        assert_eq!(report.payload.as_deref(), Some(&payload[..]));
    }

    #[test]
    fn schedule_without_transmit_touches_no_medium() {
        let net = test_network(41);
        let s = session(&[1, 2, 3], 0.0);
        let frame = s.lead_tx().schedule(&net.params);
        assert_eq!(frame.header.packet_id, packet_id(&[1, 2, 3]));
        assert_eq!(
            frame.t0,
            Time((CAPTURE_MARGIN as u64) * net.params.sample_period_fs())
        );
        assert!(frame.timeline.total_len() > frame.timeline.header_len);
    }

    #[test]
    fn missing_delay_is_typed_not_zero() {
        // The co-sender detects the header fine, but the delay database is
        // empty: the join must fail as MissingDelay rather than silently
        // compensating with d = 0.
        let payload = vec![0x11u8; 90];
        let mut net = test_network(51);
        let s = session(&payload, 0.0);
        let empty_db = DelayDatabase::new();
        let mut rng = StdRng::seed_from_u64(52);
        let frame = s.lead_tx().transmit_with(&mut net, &mut fresh_ws());
        let join =
            s.cosender_join(0, &frame)
                .join_with(&mut net, &mut rng, &empty_db, &mut fresh_ws());
        assert_eq!(
            join.unwrap_err(),
            JoinFailure::MissingDelay {
                lead: NodeId(0),
                cosender: NodeId(1),
            }
        );
    }

    #[test]
    fn outcome_carries_per_cosender_diagnostics() {
        let payload = vec![0x22u8; 100];
        let mut net = test_network(61);
        let db = measured_db(&mut net, 62);
        let sol = db
            .wait_solution(NodeId(0), &[NodeId(1)], &[NodeId(2)])
            .unwrap();
        let mut rng = StdRng::seed_from_u64(63);
        let out =
            session(&payload, sol.waits[0]).run_with(&mut net, &mut rng, &db, &mut fresh_ws());
        assert_eq!(out.cosenders.len(), 1);
        assert_eq!(out.cosenders[0].node, NodeId(1));
        let tx = out.cosenders[0].join.as_ref().expect("co-sender joined");
        assert_eq!(Some(tx.training_time), out.co_tx_times[0]);
        assert!(tx.data_time > tx.training_time);
    }

    #[test]
    fn join_failure_classes_are_payload_free() {
        assert_eq!(JoinFailure::NoDetect.class(), JoinFailureClass::NoDetect);
        assert_eq!(
            JoinFailure::WrongPacket {
                expected: 1,
                heard: 2
            }
            .class(),
            JoinFailureClass::WrongPacket
        );
        assert_eq!(
            JoinFailure::MissingDelay {
                lead: NodeId(0),
                cosender: NodeId(1)
            }
            .class(),
            JoinFailureClass::MissingDelay
        );
    }

    #[test]
    fn join_failure_displays_are_informative() {
        let wrong = JoinFailure::WrongPacket {
            expected: 0x1234,
            heard: 0x5678,
        };
        assert!(wrong.to_string().contains("0x1234"));
        assert!(wrong.to_string().contains("0x5678"));
        let missing = JoinFailure::MissingDelay {
            lead: NodeId(0),
            cosender: NodeId(3),
        };
        assert!(missing.to_string().contains("delay-database"));
        assert!(!JoinFailure::NoDetect.to_string().is_empty());
        assert!(!JoinFailure::NotJointFlagged.to_string().is_empty());
        assert!(!JoinFailure::MalformedHeader.to_string().is_empty());
    }
}
