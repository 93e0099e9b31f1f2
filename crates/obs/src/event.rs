//! The typed trace-event taxonomy.
//!
//! Every observable thing the stack does is one [`TraceEventKind`]
//! variant. The taxonomy is deliberately closed (no free-form string
//! events on the hot path): a closed enum keeps emission allocation-free,
//! makes exhaustive exporter mappings a compile error to miss, and pins
//! the event vocabulary DESIGN.md documents.
//!
//! Field types mirror the wire formats they describe (`u16` MAC
//! addresses and sequence numbers, `u64` femtoseconds) so an event is a
//! faithful record, not a lossy rounding of one.

use ssync_exp::record::Value;

/// What kind of frame an on-air event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameClass {
    /// A plain unicast or broadcast DATA frame (payload + batch map).
    Data,
    /// A unicast ACK.
    Ack,
    /// The destination's batch-map broadcast.
    BatchMap,
    /// A joint frame's sync header (the lead's announcement).
    SyncHeader,
    /// A co-sender's training slot.
    Training,
    /// The space-time-coded joint data section.
    JointData,
}

impl FrameClass {
    /// Stable lower-snake label used by every exporter.
    pub fn label(&self) -> &'static str {
        match self {
            FrameClass::Data => "data",
            FrameClass::Ack => "ack",
            FrameClass::BatchMap => "batch_map",
            FrameClass::SyncHeader => "sync_header",
            FrameClass::Training => "training",
            FrameClass::JointData => "joint_data",
        }
    }
}

/// Compact receive-chain diagnostics attached to rx events — the trace
/// form of `ssync_phy::RxDiagnostics` (the full struct carries whole
/// channel estimates; events carry the scalars the paper's plots use).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RxDiagSummary {
    /// Mean SNR across occupied carriers, dB.
    pub mean_snr_db: f64,
    /// Decision-directed EVM SNR over data symbols, dB.
    pub evm_snr_db: f64,
    /// Estimated carrier-frequency offset, Hz.
    pub cfo_hz: f64,
    /// Residual timing offset from the channel phase slope, samples.
    pub timing_offset_samples: f64,
}

/// Why a co-sender stayed silent — the trace-level mirror of
/// `ssync_core::session::JoinFailure`, payload-free so `ssync_obs` stays
/// below `ssync_core` in the dependency order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinFailureClass {
    /// Sync header never decoded.
    NoDetect,
    /// Decoded frame was not joint-flagged.
    NotJointFlagged,
    /// Joint-flagged payload did not parse as a sync header.
    MalformedHeader,
    /// Header announced a different packet.
    WrongPacket,
    /// No delay-database entry for the lead↔co-sender pair.
    MissingDelay,
}

impl JoinFailureClass {
    /// Stable lower-snake label used by every exporter.
    pub fn label(&self) -> &'static str {
        match self {
            JoinFailureClass::NoDetect => "no_detect",
            JoinFailureClass::NotJointFlagged => "not_joint_flagged",
            JoinFailureClass::MalformedHeader => "malformed_header",
            JoinFailureClass::WrongPacket => "wrong_packet",
            JoinFailureClass::MissingDelay => "missing_delay",
        }
    }
}

/// One join attempt's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JoinResult {
    /// Training + data went on the air; the co-sender measured this
    /// lead-relative CFO from the sync header.
    Joined {
        /// Measured `f_lead − f_co`, Hz.
        cfo_hz: f64,
    },
    /// The typed first failure.
    Failed(JoinFailureClass),
}

/// A typed trace event. See the module docs for the taxonomy rationale.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A frame (or frame section) this node put on the air.
    FrameTx {
        /// What went on the air.
        class: FrameClass,
        /// MPDU / section length in bytes (0 where not byte-framed).
        bytes: u32,
        /// Packet / sequence number the frame carries.
        seq: u16,
        /// Destination MAC address (`0xFFFF` broadcast).
        dst: u16,
    },
    /// A frame this node's receive chain recovered, with the decode
    /// diagnostics the chain measured on the way.
    FrameRx {
        /// What was recovered.
        class: FrameClass,
        /// Sender MAC address.
        src: u16,
        /// Packet / sequence number the frame carries.
        seq: u16,
        /// Receive-chain measurements (absent when the capture never
        /// reached the diagnostics stage).
        diag: Option<RxDiagSummary>,
    },
    /// The DCF granted this station a transmission attempt.
    DcfAttempt {
        /// Scheduled attempt instant, femtoseconds.
        at_fs: u64,
        /// Retry count the contender is at.
        retries: u32,
    },
    /// A pending attempt was frozen by a busy air period and rescheduled
    /// (802.11 countdown freeze).
    DcfDefer {
        /// The attempt instant that was frozen, femtoseconds.
        was_fs: u64,
        /// Start of the busy period that froze it, femtoseconds.
        busy_from_fs: u64,
    },
    /// Stop-and-wait ARQ scheduled a retransmission.
    ArqRetry {
        /// The packet being retried.
        seq: u16,
        /// Retry count after this failure.
        retries: u32,
    },
    /// ARQ gave up on a packet.
    PacketAbandoned {
        /// The abandoned packet.
        seq: u16,
    },
    /// An ExOR forwarder spent one opportunistic transmission of its
    /// per-packet budget.
    ExorForward {
        /// The forwarded packet.
        packet: u16,
        /// Budget spent on this packet after this transmission.
        tx_count: u32,
    },
    /// A forwarder led a SourceSync joint frame (plain→joint escalation).
    JointLead {
        /// The packet the joint frame carries.
        packet: u16,
        /// Co-sender slots offered.
        cosenders: u8,
    },
    /// One co-sender's join-stage outcome against a lead frame.
    JoinOutcome {
        /// The lead's MAC address.
        lead: u16,
        /// The announced packet.
        packet: u16,
        /// Joined (with measured CFO) or the typed first failure.
        result: JoinResult,
    },
    /// One receiver's joint-decode outcome.
    JointDecode {
        /// The lead's MAC address.
        lead: u16,
        /// Whether the combined payload survived its CRC.
        ok: bool,
        /// Combiner EVM SNR, dB.
        evm_snr_db: f64,
        /// Mean effective per-carrier gain `Σ|H|²`.
        mean_gain: f64,
    },
    /// A packet reached the destination.
    Delivered {
        /// The delivered packet.
        packet: u16,
        /// `"opportunistic"` or `"cleanup"`.
        via: &'static str,
    },
    /// A lookup that older code silently zeroed came up empty (the
    /// counter twin lives in the metric registry).
    LookupMiss {
        /// Which lookup.
        what: &'static str,
    },
}

impl TraceEventKind {
    /// The stable exporter-facing event name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::FrameTx { .. } => "frame_tx",
            TraceEventKind::FrameRx { .. } => "frame_rx",
            TraceEventKind::DcfAttempt { .. } => "dcf_attempt",
            TraceEventKind::DcfDefer { .. } => "dcf_defer",
            TraceEventKind::ArqRetry { .. } => "arq_retry",
            TraceEventKind::PacketAbandoned { .. } => "packet_abandoned",
            TraceEventKind::ExorForward { .. } => "exor_forward",
            TraceEventKind::JointLead { .. } => "joint_lead",
            TraceEventKind::JoinOutcome { .. } => "join_outcome",
            TraceEventKind::JointDecode { .. } => "joint_decode",
            TraceEventKind::Delivered { .. } => "delivered",
            TraceEventKind::LookupMiss { .. } => "lookup_miss",
        }
    }

    /// The event's arguments as `(key, value)` pairs, in a fixed order —
    /// the single source every exporter renders from.
    pub fn args(&self) -> Vec<(&'static str, Value)> {
        fn diag_args(out: &mut Vec<(&'static str, Value)>, diag: &Option<RxDiagSummary>) {
            if let Some(d) = diag {
                out.push(("snr_db", Value::F(d.mean_snr_db, 2)));
                out.push(("evm_snr_db", Value::F(d.evm_snr_db, 2)));
                out.push(("cfo_hz", Value::F(d.cfo_hz, 1)));
                out.push(("timing_samples", Value::F(d.timing_offset_samples, 3)));
            }
        }
        let mut a = Vec::new();
        match self {
            TraceEventKind::FrameTx {
                class,
                bytes,
                seq,
                dst,
            } => {
                a.push(("class", Value::s(class.label())));
                a.push(("bytes", Value::Int(*bytes as i64)));
                a.push(("seq", Value::Int(*seq as i64)));
                a.push(("dst", Value::Int(*dst as i64)));
            }
            TraceEventKind::FrameRx {
                class,
                src,
                seq,
                diag,
            } => {
                a.push(("class", Value::s(class.label())));
                a.push(("src", Value::Int(*src as i64)));
                a.push(("seq", Value::Int(*seq as i64)));
                diag_args(&mut a, diag);
            }
            TraceEventKind::DcfAttempt { at_fs, retries } => {
                a.push(("at_fs", Value::Int(*at_fs as i64)));
                a.push(("retries", Value::Int(*retries as i64)));
            }
            TraceEventKind::DcfDefer {
                was_fs,
                busy_from_fs,
            } => {
                a.push(("was_fs", Value::Int(*was_fs as i64)));
                a.push(("busy_from_fs", Value::Int(*busy_from_fs as i64)));
            }
            TraceEventKind::ArqRetry { seq, retries } => {
                a.push(("seq", Value::Int(*seq as i64)));
                a.push(("retries", Value::Int(*retries as i64)));
            }
            TraceEventKind::PacketAbandoned { seq } => {
                a.push(("seq", Value::Int(*seq as i64)));
            }
            TraceEventKind::ExorForward { packet, tx_count } => {
                a.push(("packet", Value::Int(*packet as i64)));
                a.push(("tx_count", Value::Int(*tx_count as i64)));
            }
            TraceEventKind::JointLead { packet, cosenders } => {
                a.push(("packet", Value::Int(*packet as i64)));
                a.push(("cosenders", Value::Int(*cosenders as i64)));
            }
            TraceEventKind::JoinOutcome {
                lead,
                packet,
                result,
            } => {
                a.push(("lead", Value::Int(*lead as i64)));
                a.push(("packet", Value::Int(*packet as i64)));
                match result {
                    JoinResult::Joined { cfo_hz } => {
                        a.push(("result", Value::s("joined")));
                        a.push(("cfo_hz", Value::F(*cfo_hz, 1)));
                    }
                    JoinResult::Failed(class) => {
                        a.push(("result", Value::s(class.label())));
                    }
                }
            }
            TraceEventKind::JointDecode {
                lead,
                ok,
                evm_snr_db,
                mean_gain,
            } => {
                a.push(("lead", Value::Int(*lead as i64)));
                a.push(("ok", Value::Int(*ok as i64)));
                a.push(("evm_snr_db", Value::F(*evm_snr_db, 2)));
                a.push(("mean_gain", Value::F(*mean_gain, 4)));
            }
            TraceEventKind::Delivered { packet, via } => {
                a.push(("packet", Value::Int(*packet as i64)));
                a.push(("via", Value::s(*via)));
            }
            TraceEventKind::LookupMiss { what } => {
                a.push(("what", Value::s(*what)));
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_labels_are_stable() {
        assert_eq!(FrameClass::SyncHeader.label(), "sync_header");
        assert_eq!(JoinFailureClass::MissingDelay.label(), "missing_delay");
        assert_eq!(
            TraceEventKind::Delivered {
                packet: 3,
                via: "cleanup"
            }
            .name(),
            "delivered"
        );
    }

    #[test]
    fn args_render_in_fixed_order() {
        let kind = TraceEventKind::FrameRx {
            class: FrameClass::Data,
            src: 2,
            seq: 5,
            diag: Some(RxDiagSummary {
                mean_snr_db: 12.345,
                evm_snr_db: 10.0,
                cfo_hz: -310.25,
                timing_offset_samples: 0.5,
            }),
        };
        let keys: Vec<&str> = kind.args().iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            vec![
                "class",
                "src",
                "seq",
                "snr_db",
                "evm_snr_db",
                "cfo_hz",
                "timing_samples"
            ]
        );
        assert_eq!(kind.args()[3].1.render_json(), "12.35");
    }

    #[test]
    fn join_outcome_renders_both_arms() {
        let joined = TraceEventKind::JoinOutcome {
            lead: 1,
            packet: 2,
            result: JoinResult::Joined { cfo_hz: 100.0 },
        };
        assert!(joined
            .args()
            .iter()
            .any(|(k, v)| *k == "result" && v.render_tsv() == "joined"));
        let failed = TraceEventKind::JoinOutcome {
            lead: 1,
            packet: 2,
            result: JoinResult::Failed(JoinFailureClass::NoDetect),
        };
        assert!(failed
            .args()
            .iter()
            .any(|(k, v)| *k == "result" && v.render_tsv() == "no_detect"));
    }
}
