//! The event-driven testbed runtime.
//!
//! One [`run_transfer_observed`] call plays a whole multi-hop transfer the way the
//! paper's physical testbed did (§8): every node runs a real protocol
//! state machine — event-queue-scheduled CSMA/CA contention
//! ([`ssync_mac::dcf`]), stop-and-wait ARQ, ExOR forwarder sets ordered
//! by [`ssync_routing::forwarder_priority`], and (with
//! [`RoutingMode::ExorSourceSync`]) sample-accurate joint frames driven
//! role by role through [`JointSession`] — over the shared
//! [`WaveformMedium`](ssync_sim::WaveformMedium). Delivery, collisions,
//! capture effects, co-sender misalignment and join failures all emerge
//! from the superposed waveforms, not from PER tables.
//!
//! ## Event model
//!
//! The femtosecond [`EventQueue`] carries exactly one event kind:
//! *transmission attempts*. A station with work asks its
//! [`DcfContender`] for an attempt time (DIFS + residual backoff after
//! the air goes idle) and schedules it; attempts that land in a busy
//! period are frozen and rescheduled (802.11's countdown freeze); two
//! attempts landing on the same instant collide on the air and are
//! resolved by waveform superposition. Everything *inside* one exchange
//! (the DATA waveform, the SIFS, the ACK or batch-map reply, the ACK
//! timeout) is resolved synchronously on the same femtosecond timeline
//! using [`ssync_mac::dcf::ack_schedule`] arithmetic, then the air is
//! marked busy until the exchange's true end — an equivalent but far
//! simpler formulation than per-ACK events, since DIFS > SIFS guarantees
//! no contender may interleave with the SIFS-spaced reply anyway.
//!
//! ## Knowledge model
//!
//! ExOR batch maps are *piggybacked on every data frame* and merged on
//! every successful reception (no free out-of-band gossip): each node
//! keeps its own view of who holds what, the destination broadcasts a
//! short batch-map frame (at the robust rate) after each new reception,
//! and forwarder suppression runs on each node's *local* view. The only
//! god-view shortcuts are batch termination (the opportunistic phase
//! ends when the destination truly holds 90 % of the batch) and the
//! cleanup phase's holder election, both of which ExOR itself resolves
//! with control traffic the paper does not charge either.

use crate::faults::{apply_classified, FaultCounters, FaultPlan, Faulted};
use crate::link::{Modem, BROADCAST};
use rand::Rng;
use ssync_core::wire::SYNC_HEADER_LEN;
use ssync_core::{
    CosenderPlan, CosenderTx, DelayDatabase, JoinFailure, JointConfig, JointSession, LeadFrame,
    SessionWorkspace, SyncHeader,
};
use ssync_dsp::Complex64;
use ssync_mac::{ack_schedule, DataFrame, DcfContender, DcfTiming, MacFrame, RETRY_LIMIT};
use ssync_obs::{
    FrameClass, Histogram, JoinResult, MetricRegistry, Scope, TraceEventKind, TraceRecorder,
};
use ssync_phy::ber::PerTable;
use ssync_phy::RateId;
use ssync_routing::{best_path, forwarder_priority, MeshTopology};
use ssync_sim::{Duration, EventQueue, Network, NodeId, Time};
use std::collections::VecDeque;
use std::sync::Arc;

/// How packets travel from source to destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingMode {
    /// Best-ETX path, hop-by-hop unicast with per-hop ARQ.
    SinglePath,
    /// Opportunistic batch forwarding over the ExOR forwarder set.
    Exor,
    /// ExOR where forwarders holding the same packet join the
    /// transmission as SourceSync co-senders.
    ExorSourceSync,
}

/// SourceSync co-senders per joint frame. Two senders on one Alamouti
/// role sum like multipath and can null subcarriers, so every joint frame
/// is a lead plus at most one co-sender: the pure-Alamouti regime that
/// §6 proves non-destructive.
pub const MAX_COSENDERS: usize = 1;

/// Resolved exchanges per batch packet before a run stops: a generous
/// livelock guard.
const EXCHANGES_PER_PACKET: usize = 50;

/// Where the §4.3 delay database comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelaySource {
    /// Ground-truth propagation delays from the simulator (the probe
    /// protocol is validated separately in `ssync_core::sls`).
    Oracle,
    /// No measurements at all: every delay-compensated join fails
    /// `MissingDelay` and joint frames degrade to lead-only.
    Empty,
}

/// One testbed transfer: endpoints and protocol knobs.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// DATA rate (ACKs and batch maps go at the robust R6).
    pub rate: RateId,
    /// User payload bytes per packet.
    pub payload_len: usize,
    /// Packets in the batch. Each packet gets [`RETRY_LIMIT`] ARQ attempts
    /// (single-path hops and the cleanup phase) and, at each forwarder, as
    /// many opportunistic transmissions.
    pub batch_size: usize,
    /// Routing scheme under test.
    pub mode: RoutingMode,
    /// Fault injection at the protocol seams.
    pub faults: FaultPlan,
    /// Delay-database provenance.
    pub delays: DelaySource,
}

impl TestbedConfig {
    /// Paper-like defaults for one routing mode.
    pub fn new(rate: RateId, mode: RoutingMode) -> Self {
        TestbedConfig {
            rate,
            payload_len: 384,
            batch_size: 8,
            mode,
            faults: FaultPlan::none(),
            delays: DelaySource::Oracle,
        }
    }
}

/// Typed join accounting across every joint frame of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Join attempts (one per planned co-sender per joint frame).
    pub attempted: u64,
    /// Successful joins (training + data on the air).
    pub joined: u64,
    /// `JoinFailure::NoDetect` outcomes (incl. injected header drops).
    pub no_detect: u64,
    /// `JoinFailure::NotJointFlagged` outcomes.
    pub not_joint_flagged: u64,
    /// `JoinFailure::MalformedHeader` outcomes (incl. injected corruption).
    pub malformed_header: u64,
    /// `JoinFailure::WrongPacket` outcomes.
    pub wrong_packet: u64,
    /// `JoinFailure::MissingDelay` outcomes.
    pub missing_delay: u64,
}

impl JoinStats {
    /// Records one typed failure.
    pub fn record_failure(&mut self, f: &JoinFailure) {
        match f {
            JoinFailure::NoDetect => self.no_detect += 1,
            JoinFailure::NotJointFlagged => self.not_joint_flagged += 1,
            JoinFailure::MalformedHeader => self.malformed_header += 1,
            JoinFailure::WrongPacket { .. } => self.wrong_packet += 1,
            JoinFailure::MissingDelay { .. } => self.missing_delay += 1,
        }
    }

    /// Total typed failures.
    pub fn failures(&self) -> u64 {
        self.no_detect
            + self.not_joint_flagged
            + self.malformed_header
            + self.wrong_packet
            + self.missing_delay
    }
}

/// What one testbed transfer produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TestbedOutcome {
    /// Packets that reached the destination.
    pub delivered: usize,
    /// Simulated time from first contention to last exchange end.
    pub elapsed: Duration,
    /// Delivered payload bits over elapsed time.
    pub throughput_bps: f64,
    /// Plain DATA frames put on the air.
    pub data_frames: u64,
    /// Joint frames led (ExOR+SourceSync only).
    pub joint_frames: u64,
    /// Exchanges where two or more stations transmitted concurrently.
    pub collisions: u64,
    /// ARQ retransmissions (failed attempts that were retried).
    pub arq_retries: u64,
    /// Packets abandoned after the retry limit.
    pub packets_abandoned: u64,
    /// Exchanges where the DATA arrived but the ACK did not.
    pub acks_lost: u64,
    /// Packets delivered by the single-path cleanup phase.
    pub cleanup_deliveries: u64,
    /// Typed join accounting.
    pub joins: JoinStats,
    /// Injected-fault accounting.
    pub faults: FaultCounters,
}

/// Runs one batch transfer `src → dst` over the candidate forwarders.
/// Returns `None` if the destination is unreachable (no ETX route for
/// single-path; empty forwarder order for ExOR).
///
/// Typed trace events go into `trace` (stamped with absolute femtosecond
/// exchange times) and run metrics into `metrics`. Every event and metric
/// is computed from values the engine already produced, never from extra
/// RNG draws, so the outcome is bit-identical whether `trace` is enabled
/// or [`TraceRecorder::disabled`].
#[allow(clippy::too_many_arguments)] // the transfer inputs plus (trace, metrics)
pub fn run_transfer_observed<R: Rng + ?Sized>(
    net: &mut Network,
    rng: &mut R,
    src: usize,
    dst: usize,
    candidates: &[usize],
    cfg: &TestbedConfig,
    trace: &mut TraceRecorder,
    metrics: &mut MetricRegistry,
) -> Option<TestbedOutcome> {
    let mut engine = Engine::new(net, rng, src, dst, candidates, cfg, trace, metrics)?;
    engine.run();
    Some(engine.finish())
}

/// One scheduled transmission attempt. The generation stamp invalidates
/// attempts that were deferred or superseded after scheduling.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    node: usize,
    gen: u64,
}

/// Per-station protocol state.
struct Station {
    dcf: DcfContender,
    gen: u64,
    /// The pending attempt, if any: (fire time, generation).
    scheduled: Option<(Time, u64)>,
    /// Single-path forward queue (packet indices).
    queue: VecDeque<usize>,
}

struct Engine<'a, R: Rng + ?Sized> {
    net: &'a mut Network,
    rng: &'a mut R,
    cfg: TestbedConfig,
    modem: Modem,
    ws: SessionWorkspace,
    db: DelayDatabase,
    src: usize,
    dst: usize,
    n: usize,
    /// Forwarder priority rank per node (0 = destination, `usize::MAX` =
    /// not a forwarder).
    priority: Vec<usize>,
    /// Forwarders (src included) by increasing ETX distance to `dst`.
    order: Vec<usize>,
    /// Single-path next hop per node.
    next_hop: Vec<Option<usize>>,
    /// Ground truth: `has[v][p]`.
    has: Vec<Vec<bool>>,
    /// Per-node knowledge: `know[v][u][p]` — v believes u holds p.
    know: Vec<Vec<Vec<bool>>>,
    /// Opportunistic transmission budget spent: `tx_count[v][p]`.
    tx_count: Vec<Vec<u32>>,
    stations: Vec<Station>,
    events: EventQueue<Attempt>,
    now: Time,
    air_busy_until: Time,
    exchanges: usize,
    map_len: usize,
    timing: DcfTiming,
    out: TestbedOutcome,
    trace: &'a mut TraceRecorder,
    metrics: &'a mut MetricRegistry,
    /// Data-frame SNR at each successful reception (observed runs get it
    /// in their snapshot; unobserved runs feed a throwaway registry).
    m_rx_snr_db: Histogram,
    /// Combiner EVM SNR at each joint-frame decode attempt.
    m_joint_evm_db: Histogram,
}

/// Deterministic user payload of packet `p`.
pub fn packet_payload(p: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            (p as u8)
                .wrapping_mul(37)
                .wrapping_add((i as u8).wrapping_mul(11))
        })
        .collect()
}

impl<'a, R: Rng + ?Sized> Engine<'a, R> {
    #[allow(clippy::too_many_arguments)] // private ctor; params mirror run_transfer_observed's
    fn new(
        net: &'a mut Network,
        rng: &'a mut R,
        src: usize,
        dst: usize,
        candidates: &[usize],
        cfg: &TestbedConfig,
        trace: &'a mut TraceRecorder,
        metrics: &'a mut MetricRegistry,
    ) -> Option<Self> {
        let n = net.len();
        assert!(src < n && dst < n && src != dst, "bad endpoints");
        assert!(cfg.batch_size >= 1 && cfg.payload_len >= 1);
        let per = PerTable::analytic();
        let topo = MeshTopology::from_network(net);

        // Forwarder priority (ExOR) and the best-ETX path (single path).
        let mut pool: Vec<usize> = candidates.to_vec();
        if !pool.contains(&src) {
            pool.push(src);
        }
        pool.retain(|&c| c != dst);
        let order = forwarder_priority(&topo, &per, cfg.rate, &pool, dst);
        let path = best_path(&topo, &per, cfg.rate, src, dst);
        match cfg.mode {
            RoutingMode::SinglePath => path.as_ref()?,
            _ if order.is_empty() => return None,
            _ => &vec![],
        };
        let mut priority = vec![usize::MAX; n];
        priority[dst] = 0;
        for (i, &f) in order.iter().enumerate() {
            priority[f] = 1 + i;
        }
        let mut next_hop = vec![None; n];
        if let Some(p) = &path {
            for hop in p.windows(2) {
                next_hop[hop[0]] = Some(hop[1]);
            }
        }

        // The §4.3 delay database.
        let mut db = DelayDatabase::new();
        match cfg.delays {
            DelaySource::Oracle => {
                for a in 0..n {
                    for b in a + 1..n {
                        db.set_delay(NodeId(a), NodeId(b), net.true_delay_s(NodeId(a), NodeId(b)));
                    }
                }
            }
            DelaySource::Empty => {}
        }

        let params = net.params.clone();
        let b = cfg.batch_size;
        let map_len = if cfg.mode == RoutingMode::SinglePath {
            0
        } else {
            (n * b).div_ceil(8)
        };
        let timing = DcfTiming::default();
        let stations = (0..n)
            .map(|_| Station {
                dcf: DcfContender::new(timing),
                gen: 0,
                scheduled: None,
                queue: VecDeque::new(),
            })
            .collect();
        // The run-global metrics are registered up front so they appear in
        // the snapshot (at zero) even when nothing fires; per-node and
        // per-link metrics register lazily at their first event.
        let mut modem = Modem::new(params.clone());
        modem.set_empty_exchange_counter(
            metrics.counter("lookup_miss_exchange_empty", Scope::Global),
        );
        metrics.counter("lookup_miss_plain_empty", Scope::Global);
        let m_rx_snr_db = metrics.histogram("rx_snr_db", Scope::Global);
        let m_joint_evm_db = metrics.histogram("joint_evm_snr_db", Scope::Global);
        Some(Engine {
            modem,
            ws: SessionWorkspace::new(params),
            trace,
            metrics,
            m_rx_snr_db,
            m_joint_evm_db,
            db,
            net,
            rng,
            cfg: cfg.clone(),
            src,
            dst,
            n,
            priority,
            order,
            next_hop,
            has: vec![vec![false; b]; n],
            know: vec![vec![vec![false; b]; n]; n],
            tx_count: vec![vec![0; b]; n],
            stations,
            events: EventQueue::new(),
            now: Time::ZERO,
            air_busy_until: Time::ZERO,
            exchanges: 0,
            map_len,
            timing,
            out: TestbedOutcome {
                delivered: 0,
                elapsed: Duration::ZERO,
                throughput_bps: 0.0,
                data_frames: 0,
                joint_frames: 0,
                collisions: 0,
                arq_retries: 0,
                packets_abandoned: 0,
                acks_lost: 0,
                cleanup_deliveries: 0,
                joins: JoinStats::default(),
                faults: FaultCounters::default(),
            },
        })
    }

    // ----- knowledge helpers -------------------------------------------

    fn grant(&mut self, node: usize, p: usize) {
        self.has[node][p] = true;
        self.know[node][node][p] = true;
    }

    fn encode_map(&self, viewer: usize) -> Vec<u8> {
        let b = self.cfg.batch_size;
        let mut bytes = vec![0u8; self.map_len];
        for u in 0..self.n {
            for p in 0..b {
                if self.know[viewer][u][p] {
                    let bit = u * b + p;
                    bytes[bit / 8] |= 1 << (bit % 8);
                }
            }
        }
        bytes
    }

    fn merge_map(&mut self, viewer: usize, bytes: &[u8]) {
        let b = self.cfg.batch_size;
        for u in 0..self.n {
            for p in 0..b {
                let bit = u * b + p;
                if bytes
                    .get(bit / 8)
                    .is_some_and(|byte| byte & (1 << (bit % 8)) != 0)
                {
                    self.know[viewer][u][p] = true;
                }
            }
        }
    }

    fn dst_count(&self) -> usize {
        self.has[self.dst].iter().filter(|h| **h).count()
    }

    fn dst_threshold(&self) -> usize {
        (self.cfg.batch_size * 9).div_ceil(10)
    }

    /// The lowest packet index `v` should transmit opportunistically, per
    /// its own view: it holds it, the destination is not known to, no
    /// strictly higher-priority forwarder is known to, and the per-packet
    /// transmission budget is not exhausted.
    fn eligible_packet(&self, v: usize) -> Option<usize> {
        if self.priority[v] == usize::MAX {
            return None;
        }
        (0..self.cfg.batch_size).find(|&p| {
            self.has[v][p]
                && self.tx_count[v][p] < RETRY_LIMIT
                && !self.know[v][self.dst][p]
                && !self
                    .order
                    .iter()
                    .any(|&u| self.priority[u] < self.priority[v] && self.know[v][u][p])
        })
    }

    fn has_work(&self, v: usize) -> bool {
        if v == self.dst {
            return false;
        }
        match self.cfg.mode {
            RoutingMode::SinglePath => !self.stations[v].queue.is_empty(),
            _ => self.eligible_packet(v).is_some(),
        }
    }

    // ----- scheduling ---------------------------------------------------

    fn schedule_attempt(&mut self, v: usize, idle_from: Time) {
        let idle_from = idle_from.max(self.now).max(self.air_busy_until);
        let at = self.stations[v].dcf.attempt_at(self.rng, idle_from);
        self.trace.emit(
            at.0,
            v as u32,
            TraceEventKind::DcfAttempt {
                at_fs: at.0,
                retries: self.stations[v].dcf.retries(),
            },
        );
        self.stations[v].gen += 1;
        let gen = self.stations[v].gen;
        self.stations[v].scheduled = Some((at, gen));
        self.events.schedule(at, Attempt { node: v, gen });
    }

    fn maybe_schedule(&mut self, v: usize) {
        if self.stations[v].scheduled.is_none() && self.has_work(v) {
            self.schedule_attempt(v, self.now);
        }
    }

    /// The air just went busy `[from, until)`: freeze every pending
    /// attempt's residual backoff and reschedule it after the busy period
    /// (802.11 countdown freeze, one deferral at a time).
    fn defer_pending(&mut self, from: Time, until: Time) {
        for v in 0..self.n {
            if let Some((at, _)) = self.stations[v].scheduled.take() {
                self.trace.emit(
                    from.0,
                    v as u32,
                    TraceEventKind::DcfDefer {
                        was_fs: at.0,
                        busy_from_fs: from.0,
                    },
                );
                self.stations[v].dcf.defer(at, from);
                self.schedule_attempt(v, until);
            }
        }
    }

    // ----- main loop ----------------------------------------------------

    fn run(&mut self) {
        match self.cfg.mode {
            RoutingMode::SinglePath => {
                for p in 0..self.cfg.batch_size {
                    self.stations[self.src].queue.push_back(p);
                }
            }
            _ => {
                for p in 0..self.cfg.batch_size {
                    self.grant(self.src, p);
                }
            }
        }
        self.maybe_schedule(self.src);

        while let Some(sched) = self.events.pop() {
            self.now = self.now.max(sched.at);
            let Attempt { node, gen } = sched.event;
            if self.stations[node].scheduled != Some((sched.at, gen)) {
                continue; // deferred or superseded after scheduling
            }
            self.stations[node].scheduled = None;
            if self.exchanges >= EXCHANGES_PER_PACKET * self.cfg.batch_size {
                break;
            }
            // Same-instant attempts collide on the air.
            let mut txs = vec![node];
            while self.events.peek_time() == Some(sched.at) {
                let co = self.events.pop().expect("peeked event");
                let Attempt { node: v, gen: g } = co.event;
                if self.stations[v].scheduled == Some((co.at, g)) {
                    self.stations[v].scheduled = None;
                    txs.push(v);
                }
            }
            self.resolve(sched.at, &txs);
            if self.cfg.mode != RoutingMode::SinglePath && self.dst_count() >= self.dst_threshold()
            {
                break;
            }
        }

        if self.cfg.mode != RoutingMode::SinglePath {
            self.cleanup();
        }
    }

    /// What a station transmits when its attempt fires.
    fn pick_action(&self, v: usize) -> Option<(usize, Vec<usize>)> {
        match self.cfg.mode {
            RoutingMode::SinglePath => self.stations[v].queue.front().map(|&p| (p, vec![])),
            RoutingMode::Exor => self.eligible_packet(v).map(|p| (p, vec![])),
            RoutingMode::ExorSourceSync => {
                // Plain-then-joint escalation: the first attempt at a
                // packet is an ordinary ExOR frame; once that failed to
                // silence the batch map (a retry), the forwarder leads a
                // joint frame. Slots are offered to the best-ETX-priority
                // other forwarders *without* needing holder knowledge —
                // each offered forwarder joins opportunistically iff it
                // holds the packet (§7.2), its silence reading as an
                // absent sender at the Joint Channel Estimator.
                let p = self.eligible_packet(v)?;
                if self.tx_count[v][p] == 0 {
                    return Some((p, vec![]));
                }
                let mut cos: Vec<usize> = self.order.iter().copied().filter(|&u| u != v).collect();
                cos.truncate(MAX_COSENDERS);
                Some((p, cos))
            }
        }
    }

    fn resolve(&mut self, at: Time, txs: &[usize]) {
        // Stations whose work evaporated since scheduling no-op.
        let active: Vec<(usize, (usize, Vec<usize>))> = txs
            .iter()
            .filter_map(|&v| self.pick_action(v).map(|a| (v, a)))
            .collect();
        if active.is_empty() {
            for &v in txs {
                self.maybe_schedule(v);
            }
            return;
        }
        self.exchanges += 1;
        if active.len() > 1 {
            self.out.collisions += 1;
        }

        let busy = if active.len() == 1 && !active[0].1 .1.is_empty() {
            let (lead, (p, cos)) = (&active[0].0, &active[0].1);
            self.resolve_joint(at, *lead, *p, cos)
        } else {
            self.resolve_plain(at, &active)
        };
        let until = at + busy;
        self.air_busy_until = until;
        self.defer_pending(at, until);
        self.now = until;
        for v in 0..self.n {
            self.maybe_schedule(v);
        }
    }

    /// One or more plain DATA frames on the air simultaneously, then the
    /// SIFS-spaced replies (unicast ACK / destination batch map). Returns
    /// the total busy duration.
    fn resolve_plain(&mut self, at: Time, active: &[(usize, (usize, Vec<usize>))]) -> Duration {
        let single_path = self.cfg.mode == RoutingMode::SinglePath;
        let transmissions: Vec<(NodeId, Arc<Vec<Complex64>>)> = active
            .iter()
            .map(|&(v, (p, _))| {
                let mut payload = self.encode_map(v);
                payload.extend_from_slice(&packet_payload(p, self.cfg.payload_len));
                let frame = MacFrame::Data(DataFrame {
                    src: v as u16,
                    dst: if single_path {
                        self.next_hop[v].expect("single-path station has a hop") as u16
                    } else {
                        BROADCAST
                    },
                    seq: p as u16,
                    retry: self.stations[v].dcf.retries() > 0,
                    payload,
                });
                (NodeId(v), self.modem.mac_waveform(&frame, self.cfg.rate))
            })
            .collect();
        self.out.data_frames += active.len() as u64;
        for (i, &(v, (p, _))) in active.iter().enumerate() {
            let dur = self.modem.samples_duration(transmissions[i].1.len());
            self.trace.emit_span(
                at.0,
                dur.0,
                v as u32,
                TraceEventKind::FrameTx {
                    class: FrameClass::Data,
                    bytes: (self.map_len + self.cfg.payload_len) as u32,
                    seq: p as u16,
                    dst: if single_path {
                        self.next_hop[v].expect("hop") as u16
                    } else {
                        BROADCAST
                    },
                },
            );
            self.metrics
                .counter("frames_tx", Scope::Node(v as u32))
                .inc();
            if !single_path {
                self.tx_count[v][p] += 1;
                self.trace.emit(
                    at.0,
                    v as u32,
                    TraceEventKind::ExorForward {
                        packet: p as u16,
                        tx_count: self.tx_count[v][p],
                    },
                );
            }
        }

        // Half-duplex: a node transmitting in this exchange cannot also
        // listen (the medium strips only self-interference, so without
        // the filter a colliding relay would cleanly decode its upstream
        // sender). Listeners are deduplicated — one capture per radio.
        let mut listeners: Vec<NodeId> = if single_path {
            active
                .iter()
                .map(|&(v, _)| self.next_hop[v].expect("hop"))
                .filter(|&h| !active.iter().any(|&(t, _)| t == h))
                .map(NodeId)
                .collect()
        } else {
            (0..self.n)
                .filter(|v| !active.iter().any(|&(t, _)| t == *v))
                .map(NodeId)
                .collect()
        };
        let mut seen = vec![false; self.n];
        listeners.retain(|l| !std::mem::replace(&mut seen[l.0], true));
        let longest = match transmissions.iter().map(|(_, w)| w.len()).max() {
            Some(longest) => longest,
            None => {
                // `active` is non-empty here, so an empty transmission set
                // means frame construction was skipped upstream — count it
                // and trace it instead of treating it as a zero-length
                // frame.
                self.metrics
                    .counter("lookup_miss_plain_empty", Scope::Global)
                    .inc();
                self.trace.emit(
                    at.0,
                    active[0].0 as u32,
                    TraceEventKind::LookupMiss {
                        what: "plain_longest",
                    },
                );
                0
            }
        };
        let decoded = self
            .modem
            .exchange(self.net, self.rng, &transmissions, &listeners);
        let data_busy = self.modem.samples_duration(longest);
        let t_rx = at.0 + data_busy.0;
        let mut busy = data_busy;

        // Receptions through the DATA fault seam.
        let mut received: Vec<(usize, usize, usize)> = Vec::new(); // (rx, src, p)
        for (l, got) in &decoded {
            let Some((MacFrame::Data(d), diag)) = got else {
                continue;
            };
            if !self.data_seam(&d.payload) {
                continue;
            }
            self.trace.emit(
                t_rx,
                l.0 as u32,
                TraceEventKind::FrameRx {
                    class: FrameClass::Data,
                    src: d.src,
                    seq: d.seq,
                    diag: Some(*diag),
                },
            );
            self.m_rx_snr_db.record(diag.mean_snr_db);
            self.metrics
                .counter("rx_ok", Scope::Link(d.src as u32, l.0 as u32))
                .inc();
            received.push((l.0, d.src as usize, d.seq as usize));
            if !single_path {
                // The map is the payload's prefix; merge_map bounds-checks
                // each byte, so a frame shorter than the map merges what it
                // carries instead of panicking.
                self.merge_map(l.0, &d.payload);
            }
        }

        if single_path {
            busy = busy + self.resolve_acks(t_rx, active, &received);
        } else {
            for &(rx, src, p) in &received {
                if rx == self.dst && !self.has[self.dst][p] {
                    self.trace.emit(
                        t_rx,
                        rx as u32,
                        TraceEventKind::Delivered {
                            packet: p as u16,
                            via: "opportunistic",
                        },
                    );
                }
                self.grant(rx, p);
                self.know[rx][src][p] = true;
            }
            for &(v, _) in active {
                self.stations[v].dcf.on_success();
            }
            let fresh_at_dst = received.iter().any(|&(rx, _, _)| rx == self.dst);
            if fresh_at_dst {
                busy = busy + self.destination_map_reply(t_rx);
            }
        }
        busy
    }

    /// Unicast ACK turnarounds for every active single-path sender.
    /// `reply_base_fs` is the absolute end of the DATA phase — each
    /// sender's turnaround events land at that base plus the turnarounds
    /// already resolved before it.
    fn resolve_acks(
        &mut self,
        reply_base_fs: u64,
        active: &[(usize, (usize, Vec<usize>))],
        received: &[(usize, usize, usize)],
    ) -> Duration {
        let mut extra = Duration::ZERO;
        for &(v, (p, _)) in active {
            let hop = self.next_hop[v].expect("hop");
            let t_fs = reply_base_fs + extra.0;
            let data_ok = received
                .iter()
                .any(|&(rx, src, seq)| rx == hop && src == v && seq == p);
            let mut ack_ok = false;
            if data_ok {
                // The hop replies a real ACK waveform a SIFS later.
                let ack = MacFrame::Ack(ssync_mac::AckFrame {
                    dst: v as u16,
                    seq: p as u16,
                    misalign_feedback_s: vec![],
                });
                let wave = self.modem.mac_waveform(&ack, RateId::R6);
                let ack_dur = self.modem.samples_duration(wave.len());
                self.trace.emit_span(
                    t_fs + self.timing.sifs.0,
                    ack_dur.0,
                    hop as u32,
                    TraceEventKind::FrameTx {
                        class: FrameClass::Ack,
                        bytes: 0,
                        seq: p as u16,
                        dst: v as u16,
                    },
                );
                let sched = ack_schedule(&self.timing, Time::ZERO, ack_dur);
                extra = extra + sched.timeout.saturating_since(Time::ZERO);
                let out =
                    self.modem
                        .exchange(self.net, self.rng, &[(NodeId(hop), wave)], &[NodeId(v)]);
                if let Some((MacFrame::Ack(a), _)) = &out[0].1 {
                    if a.dst == v as u16 && a.seq == p as u16 {
                        ack_ok = self.ack_seam(&ack.to_bytes()).is_some();
                    }
                }
                if ack_ok {
                    self.trace.emit(
                        t_fs + self.timing.sifs.0 + ack_dur.0,
                        v as u32,
                        TraceEventKind::FrameRx {
                            class: FrameClass::Ack,
                            src: hop as u16,
                            seq: p as u16,
                            diag: None,
                        },
                    );
                } else {
                    self.out.acks_lost += 1;
                }
            } else {
                // Waited out the ACK timeout in silence.
                extra = extra + self.timing.sifs + self.timing.slot;
            }
            // Receive-side state advances on reception, not on the ACK's
            // fate: the receiving hop owns a decoded packet (802.11
            // sequence-number dedup absorbs the sender's retries), so it
            // forwards or counts it delivered whether or not the sender
            // ever learns.
            if data_ok {
                if hop == self.dst {
                    if !self.has[self.dst][p] {
                        self.has[self.dst][p] = true;
                        self.out.delivered += 1;
                        self.trace.emit(
                            t_fs,
                            hop as u32,
                            TraceEventKind::Delivered {
                                packet: p as u16,
                                via: "arq",
                            },
                        );
                    }
                } else if !self.has[hop][p] {
                    self.has[hop][p] = true; // dedup marker for re-deliveries
                    self.stations[hop].queue.push_back(p);
                }
            }
            if ack_ok {
                self.stations[v].dcf.on_success();
                self.stations[v].queue.pop_front();
            } else if self.stations[v].dcf.on_failure() {
                self.out.arq_retries += 1;
                self.trace.emit(
                    t_fs,
                    v as u32,
                    TraceEventKind::ArqRetry {
                        seq: p as u16,
                        retries: self.stations[v].dcf.retries(),
                    },
                );
            } else {
                self.stations[v].queue.pop_front();
                // Only a packet the hop never decoded is actually lost;
                // a delivered-but-unacknowledged one lives on downstream.
                if !data_ok {
                    self.out.packets_abandoned += 1;
                    self.trace.emit(
                        t_fs,
                        v as u32,
                        TraceEventKind::PacketAbandoned { seq: p as u16 },
                    );
                }
            }
        }
        extra
    }

    /// The destination's SIFS-spaced batch-map broadcast (robust rate),
    /// through the ACK fault seam at every listener. `t_fs` is the
    /// absolute end of the exchange that triggered the reply.
    fn destination_map_reply(&mut self, t_fs: u64) -> Duration {
        let map = self.encode_map(self.dst);
        let map_bytes = map.len() as u32;
        let frame = MacFrame::Data(DataFrame {
            src: self.dst as u16,
            dst: BROADCAST,
            seq: 0,
            retry: false,
            payload: map,
        });
        let wave = self.modem.mac_waveform(&frame, RateId::R6);
        let dur = self.modem.samples_duration(wave.len());
        self.trace.emit_span(
            t_fs + self.timing.sifs.0,
            dur.0,
            self.dst as u32,
            TraceEventKind::FrameTx {
                class: FrameClass::BatchMap,
                bytes: map_bytes,
                seq: 0,
                dst: BROADCAST,
            },
        );
        let listeners: Vec<NodeId> = (0..self.n).filter(|&v| v != self.dst).map(NodeId).collect();
        let decoded =
            self.modem
                .exchange(self.net, self.rng, &[(NodeId(self.dst), wave)], &listeners);
        for (l, got) in &decoded {
            let Some((MacFrame::Data(d), _)) = got else {
                continue;
            };
            let Some(bytes) = self.ack_seam(&d.payload) else {
                continue;
            };
            self.trace.emit(
                t_fs + self.timing.sifs.0 + dur.0,
                l.0 as u32,
                TraceEventKind::FrameRx {
                    class: FrameClass::BatchMap,
                    src: self.dst as u16,
                    seq: 0,
                    diag: None,
                },
            );
            self.merge_map(l.0, &bytes)
        }
        self.timing.sifs + dur
    }

    /// One SourceSync joint frame: the lead announces, co-senders join
    /// through the staged session (detect → compensate → transmit), every
    /// listener decodes the superposed space-time-coded data.
    fn resolve_joint(&mut self, at: Time, lead: usize, p: usize, cos: &[usize]) -> Duration {
        self.out.joint_frames += 1;
        self.tx_count[lead][p] += 1;
        self.trace.emit(
            at.0,
            lead as u32,
            TraceEventKind::JointLead {
                packet: p as u16,
                cosenders: cos.len() as u8,
            },
        );
        self.metrics
            .counter("frames_tx", Scope::Node(lead as u32))
            .inc();

        // Every sender of a joint frame must transmit *identical bits*,
        // so the payload is exactly what every holder of the packet can
        // reconstruct from the sync header: the lead-addressed MAC frame
        // around the shared packet bytes — no per-sender batch map.
        let mac_bytes = MacFrame::Data(DataFrame {
            src: lead as u16,
            dst: BROADCAST,
            seq: p as u16,
            retry: false,
            payload: packet_payload(p, self.cfg.payload_len),
        })
        .to_bytes();

        let waits = self
            .db
            .wait_solution(
                NodeId(lead),
                &cos.iter().map(|&c| NodeId(c)).collect::<Vec<_>>(),
                &[NodeId(self.dst)],
            )
            .map(|s| s.waits)
            .unwrap_or_else(|| vec![0.0; cos.len()]);
        let session = JointSession::new(NodeId(lead))
            .cosenders(
                cos.iter()
                    .zip(&waits)
                    .map(|(&c, &w)| CosenderPlan {
                        node: NodeId(c),
                        wait_s: w,
                    })
                    .collect::<Vec<_>>(),
            )
            .payload(mac_bytes)
            .config(JointConfig {
                rate: self.cfg.rate,
                ..JointConfig::default()
            });

        let frame = session.lead_tx().transmit_with(self.net, &mut self.ws);
        self.emit_lead_frame(at, lead, &frame);

        // Co-sender joins: a forwarder only attempts its slot when it
        // actually holds the packet (silent slots read as absent senders
        // at the Joint Channel Estimator); each attempt passes through
        // the sync-header fault seam.
        let mut joined: Vec<usize> = Vec::new();
        for (i, &c) in cos.iter().enumerate() {
            if !self.has[c][p] {
                continue;
            }
            self.out.joins.attempted += 1;
            let header_bytes = frame.header.to_bytes();
            let join = match apply_classified(&self.cfg.faults.header, self.rng, &header_bytes) {
                Faulted::Dropped => {
                    self.out.faults.headers_dropped += 1;
                    Err(JoinFailure::NoDetect)
                }
                Faulted::Corrupted(bytes) => {
                    self.out.faults.headers_corrupted += 1;
                    match SyncHeader::from_bytes(&bytes) {
                        Err(_) => Err(JoinFailure::MalformedHeader),
                        Ok(h) if h.packet_id != frame.header.packet_id => {
                            Err(JoinFailure::WrongPacket {
                                expected: frame.header.packet_id,
                                heard: h.packet_id,
                            })
                        }
                        // Corruption in any other field the join arithmetic
                        // consumes (lead id, rate, length, CP extension,
                        // slot count) would drive this co-sender's timeline
                        // and waveform off the real frame — it cannot join
                        // correctly, and the mangled header reads as
                        // malformed. Only a flip the parser provably
                        // ignores leaves the join intact.
                        Ok(h) if h != frame.header => Err(JoinFailure::MalformedHeader),
                        Ok(_) => session.cosender_join(i, &frame).join_with(
                            self.net,
                            self.rng,
                            &self.db,
                            &mut self.ws,
                        ),
                    }
                }
                Faulted::Intact(_) => session.cosender_join(i, &frame).join_with(
                    self.net,
                    self.rng,
                    &self.db,
                    &mut self.ws,
                ),
            };
            self.emit_join_outcome(at, c, &frame, &join);
            match join {
                Ok(_) => {
                    self.out.joins.joined += 1;
                    joined.push(c);
                    // Joining means this forwarder decoded the lead's
                    // sync header announcing packet `p` — that is holder
                    // knowledge, and the only way a co-sender (deaf while
                    // transmitting) learns the lead holds the packet.
                    self.know[c][lead][p] = true;
                }
                Err(f) => {
                    if matches!(f, JoinFailure::MissingDelay { .. }) {
                        // The header decoded fine; only the database entry
                        // was missing.
                        self.know[c][lead][p] = true;
                    }
                    self.out.joins.record_failure(&f);
                }
            }
        }

        let data_busy = self.modem.samples_duration(frame.timeline.total_len());
        let t_decoded = at.0 + frame.t0.0 + data_busy.0;
        // Everyone who did not transmit decodes the superposed joint
        // frame (half-duplex: actual co-senders cannot hear it; planned
        // co-senders whose slot stayed silent can).
        let mut received: Vec<(usize, usize)> = Vec::new();
        for v in 0..self.n {
            if v == lead || joined.contains(&v) {
                continue;
            }
            let report = session.receiver_decode(NodeId(v), &frame).decode_with(
                self.net,
                self.rng,
                &mut self.ws,
            );
            self.trace.emit(
                t_decoded,
                v as u32,
                TraceEventKind::JointDecode {
                    lead: frame.header.lead,
                    ok: report.payload.is_some(),
                    evm_snr_db: report.stats.evm_snr_db,
                    mean_gain: report.stats.mean_effective_gain,
                },
            );
            self.m_joint_evm_db.record(report.stats.evm_snr_db);
            let Some(bytes) = report.payload else {
                continue;
            };
            let Some(MacFrame::Data(d)) = MacFrame::from_bytes(&bytes) else {
                continue;
            };
            if self.data_seam(&d.payload) {
                received.push((v, d.seq as usize));
            }
        }
        for &(rx, seq) in &received {
            if rx == self.dst && !self.has[self.dst][seq] {
                self.trace.emit(
                    at.0 + data_busy.0,
                    rx as u32,
                    TraceEventKind::Delivered {
                        packet: seq as u16,
                        via: "joint",
                    },
                );
            }
            self.grant(rx, seq);
            self.know[rx][lead][seq] = true;
        }
        self.stations[lead].dcf.on_success();

        let mut busy = data_busy;
        if received.iter().any(|&(rx, _)| rx == self.dst) {
            busy = busy + self.destination_map_reply(at.0 + data_busy.0);
        }
        busy
    }

    /// Traces the lead's half of a joint frame: its sync header and its
    /// data section, each a span at `at` plus the frame's ether time.
    fn emit_lead_frame(&mut self, at: Time, lead: usize, frame: &LeadFrame) {
        if !self.trace.is_enabled() {
            return;
        }
        let period = self.modem.params().sample_period_fs();
        let tl = &frame.timeline;
        self.trace.emit_span(
            at.0 + frame.t0.0,
            tl.header_len as u64 * period,
            lead as u32,
            TraceEventKind::FrameTx {
                class: FrameClass::SyncHeader,
                bytes: SYNC_HEADER_LEN as u32,
                seq: frame.header.packet_id,
                dst: u16::MAX,
            },
        );
        self.trace.emit_span(
            at.0 + frame.data_time.0,
            (tl.total_len() - tl.data_start()) as u64 * period,
            lead as u32,
            TraceEventKind::FrameTx {
                class: FrameClass::JointData,
                bytes: frame.psdu.len() as u32,
                seq: frame.header.packet_id,
                dst: u16::MAX,
            },
        );
    }

    /// Traces one co-sender's join, whether the staged session ran or the
    /// sync-header fault seam short-circuited it. A join that went on the
    /// air gets its training and data spans and a `Joined` outcome at its
    /// training start. A failure is stamped at the end of the sync header,
    /// the instant the co-sender knew it could not join.
    fn emit_join_outcome(
        &mut self,
        at: Time,
        co: usize,
        frame: &LeadFrame,
        join: &Result<CosenderTx, JoinFailure>,
    ) {
        if !self.trace.is_enabled() {
            return;
        }
        let period = self.modem.params().sample_period_fs();
        let tl = &frame.timeline;
        let packet = frame.header.packet_id;
        let (t_outcome, result) = match join {
            Ok(tx) => {
                self.trace.emit_span(
                    at.0 + tx.training_time.0,
                    tl.training_slot_len as u64 * period,
                    co as u32,
                    TraceEventKind::FrameTx {
                        class: FrameClass::Training,
                        bytes: 0,
                        seq: packet,
                        dst: u16::MAX,
                    },
                );
                self.trace.emit_span(
                    at.0 + tx.data_time.0,
                    (tl.total_len() - tl.data_start()) as u64 * period,
                    co as u32,
                    TraceEventKind::FrameTx {
                        class: FrameClass::JointData,
                        bytes: frame.psdu.len() as u32,
                        seq: packet,
                        dst: u16::MAX,
                    },
                );
                (tx.training_time.0, JoinResult::Joined { cfo_hz: tx.cfo_hz })
            }
            Err(f) => (
                frame.t0.0 + tl.header_len as u64 * period,
                JoinResult::Failed(f.class()),
            ),
        };
        self.trace.emit(
            at.0 + t_outcome,
            co as u32,
            TraceEventKind::JoinOutcome {
                lead: frame.header.lead,
                packet,
                result,
            },
        );
    }

    /// The DATA fault seam for one decoded DATA or joint-frame payload.
    /// Counts a drop or a corruption (a corrupted MPDU fails its modelled
    /// MAC check) and returns whether the payload arrived intact.
    fn data_seam(&mut self, payload: &[u8]) -> bool {
        match apply_classified(&self.cfg.faults.data, self.rng, payload) {
            Faulted::Dropped => self.out.faults.data_dropped += 1,
            Faulted::Corrupted(_) => self.out.faults.data_corrupted += 1,
            Faulted::Intact(_) => return true,
        }
        false
    }

    /// The ACK fault seam for one decoded ACK or batch-map frame. Counts a
    /// drop or a corruption and returns the bytes that arrived intact.
    fn ack_seam(&mut self, bytes: &[u8]) -> Option<Vec<u8>> {
        match apply_classified(&self.cfg.faults.ack, self.rng, bytes) {
            Faulted::Dropped => self.out.faults.acks_dropped += 1,
            Faulted::Corrupted(_) => self.out.faults.acks_corrupted += 1,
            Faulted::Intact(bytes) => return Some(bytes),
        }
        None
    }

    /// ExOR's traditional-routing tail: packets the opportunistic phase
    /// did not finish travel by single-path ARQ from their best holder.
    fn cleanup(&mut self) {
        for p in 0..self.cfg.batch_size {
            if self.has[self.dst][p] {
                continue;
            }
            let holder = self
                .order
                .iter()
                .copied()
                .filter(|&f| self.has[f][p])
                .min_by_key(|&f| self.priority[f]);
            let Some(holder) = holder else { continue };
            let frame = MacFrame::Data(DataFrame {
                src: holder as u16,
                dst: self.dst as u16,
                seq: p as u16,
                retry: false,
                payload: packet_payload(p, self.cfg.payload_len),
            });
            let wave = self.modem.mac_waveform(&frame, self.cfg.rate);
            let data_dur = self.modem.samples_duration(wave.len());
            for _attempt in 0..RETRY_LIMIT {
                let start = self.stations[holder]
                    .dcf
                    .attempt_at(self.rng, self.air_busy_until);
                self.out.data_frames += 1;
                self.trace.emit_span(
                    start.0,
                    data_dur.0,
                    holder as u32,
                    TraceEventKind::FrameTx {
                        class: FrameClass::Data,
                        bytes: self.cfg.payload_len as u32,
                        seq: p as u16,
                        dst: self.dst as u16,
                    },
                );
                self.metrics
                    .counter("frames_tx", Scope::Node(holder as u32))
                    .inc();
                let decoded = self.modem.exchange(
                    self.net,
                    self.rng,
                    &[(NodeId(holder), Arc::clone(&wave))],
                    &[NodeId(self.dst)],
                );
                let mut got = false;
                if let Some((MacFrame::Data(d), diag)) = &decoded[0].1 {
                    if d.src == holder as u16 && d.seq == p as u16 && self.data_seam(&d.payload) {
                        got = true;
                        self.trace.emit(
                            start.0 + data_dur.0,
                            self.dst as u32,
                            TraceEventKind::FrameRx {
                                class: FrameClass::Data,
                                src: d.src,
                                seq: d.seq,
                                diag: Some(*diag),
                            },
                        );
                        self.m_rx_snr_db.record(diag.mean_snr_db);
                        self.metrics
                            .counter("rx_ok", Scope::Link(holder as u32, self.dst as u32))
                            .inc();
                    }
                }
                let mut busy = data_dur;
                let mut ack_ok = false;
                if got {
                    let ack = MacFrame::Ack(ssync_mac::AckFrame {
                        dst: holder as u16,
                        seq: p as u16,
                        misalign_feedback_s: vec![],
                    });
                    let ack_wave = self.modem.mac_waveform(&ack, RateId::R6);
                    let sched = ack_schedule(
                        &self.timing,
                        Time::ZERO,
                        self.modem.samples_duration(ack_wave.len()),
                    );
                    busy = busy + sched.timeout.saturating_since(Time::ZERO);
                    let out = self.modem.exchange(
                        self.net,
                        self.rng,
                        &[(NodeId(self.dst), ack_wave)],
                        &[NodeId(holder)],
                    );
                    if let Some((MacFrame::Ack(a), _)) = &out[0].1 {
                        if a.dst == holder as u16 && a.seq == p as u16 {
                            ack_ok = self.ack_seam(&ack.to_bytes()).is_some();
                        }
                    }
                    if !ack_ok {
                        self.out.acks_lost += 1;
                    }
                } else {
                    busy = busy + self.timing.sifs + self.timing.slot;
                }
                self.air_busy_until = start + busy;
                self.now = self.air_busy_until;
                if got {
                    // Once the destination decoded the packet this MPDU's
                    // lifetime is over whether or not the ACK survived
                    // (the loss is already in `acks_lost`): record the
                    // delivery, reset the contention state for the next
                    // packet, and stop — no phantom retransmission.
                    self.grant(self.dst, p);
                    self.stations[holder].dcf.on_success();
                    self.out.delivered += 1;
                    self.out.cleanup_deliveries += 1;
                    self.trace.emit(
                        self.air_busy_until.0,
                        self.dst as u32,
                        TraceEventKind::Delivered {
                            packet: p as u16,
                            via: "cleanup",
                        },
                    );
                    break;
                }
                if self.stations[holder].dcf.on_failure() {
                    self.out.arq_retries += 1;
                    self.trace.emit(
                        self.air_busy_until.0,
                        holder as u32,
                        TraceEventKind::ArqRetry {
                            seq: p as u16,
                            retries: self.stations[holder].dcf.retries(),
                        },
                    );
                } else {
                    self.out.packets_abandoned += 1;
                    self.trace.emit(
                        self.air_busy_until.0,
                        holder as u32,
                        TraceEventKind::PacketAbandoned { seq: p as u16 },
                    );
                    break;
                }
            }
        }
    }

    fn finish(mut self) -> TestbedOutcome {
        if self.cfg.mode != RoutingMode::SinglePath {
            self.out.delivered = self.dst_count();
        }
        self.out.elapsed = self.air_busy_until.saturating_since(Time::ZERO);
        let s = self.out.elapsed.as_secs_f64();
        self.out.throughput_bps = if s > 0.0 {
            (self.out.delivered * self.cfg.payload_len * 8) as f64 / s
        } else {
            0.0
        };
        // Mirror the outcome ledger into the registry so an observed run's
        // metrics snapshot is self-contained (counters sum across trials).
        let g = Scope::Global;
        self.metrics
            .counter("delivered", g)
            .add(self.out.delivered as u64);
        self.metrics
            .counter("data_frames", g)
            .add(self.out.data_frames);
        self.metrics
            .counter("joint_frames", g)
            .add(self.out.joint_frames);
        self.metrics
            .counter("collisions", g)
            .add(self.out.collisions);
        self.metrics
            .counter("arq_retries", g)
            .add(self.out.arq_retries);
        self.metrics
            .counter("packets_abandoned", g)
            .add(self.out.packets_abandoned);
        self.metrics.counter("acks_lost", g).add(self.out.acks_lost);
        self.metrics
            .counter("cleanup_deliveries", g)
            .add(self.out.cleanup_deliveries);
        self.metrics
            .counter("joins_attempted", g)
            .add(self.out.joins.attempted);
        self.metrics
            .counter("joins_joined", g)
            .add(self.out.joins.joined);
        self.metrics
            .counter("faults_injected", g)
            .add(self.out.faults.total());
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssync_channel::Position;
    use ssync_obs::{JoinFailureClass, TraceEvent};
    use ssync_phy::OfdmParams;
    use ssync_sim::ChannelModels;

    /// A diamond: src 0, relays 1–2, dst 3. Link SNRs pinned after build.
    fn diamond(seed: u64, src_relay_db: f64, relay_dst_db: f64) -> Network {
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
            for (a, b, snr) in [(0, r, src_relay_db), (r, 3, relay_dst_db)] {
                net.pin_snr_db(NodeId(a), NodeId(b), snr);
                net.pin_snr_db(NodeId(b), NodeId(a), snr);
            }
        }
        net.pin_snr_db(NodeId(1), NodeId(2), 20.0);
        net.pin_snr_db(NodeId(2), NodeId(1), 20.0);
        net.pin_snr_db(NodeId(0), NodeId(3), -15.0);
        net.pin_snr_db(NodeId(3), NodeId(0), -15.0);
        net
    }

    fn small_cfg(mode: RoutingMode) -> TestbedConfig {
        TestbedConfig {
            batch_size: 4,
            payload_len: 64,
            ..TestbedConfig::new(RateId::R12, mode)
        }
    }

    /// A transfer from node 0 through [`run_transfer_observed`], with a
    /// disabled recorder and a throwaway registry.
    fn run_untraced(
        net: &mut Network,
        rng: &mut StdRng,
        dst: usize,
        candidates: &[usize],
        cfg: &TestbedConfig,
    ) -> Option<TestbedOutcome> {
        run_transfer_observed(
            net,
            rng,
            0,
            dst,
            candidates,
            cfg,
            &mut TraceRecorder::disabled(),
            &mut MetricRegistry::new(),
        )
    }

    /// The DATA rates the delivery tests run at: Fig. 18's two.
    const RATES: [RateId; 2] = [RateId::R6, RateId::R12];

    #[test]
    fn single_path_delivers_on_clean_links() {
        for rate in RATES {
            let mut net = diamond(1, 25.0, 25.0);
            let mut rng = StdRng::seed_from_u64(2);
            let cfg = TestbedConfig {
                rate,
                ..small_cfg(RoutingMode::SinglePath)
            };
            let o = run_untraced(&mut net, &mut rng, 3, &[1, 2], &cfg).unwrap();
            assert_eq!(o.delivered, 4, "{rate:?}: {o:?}");
            assert!(o.throughput_bps > 0.0);
            assert_eq!(o.joint_frames, 0);
        }
    }

    #[test]
    fn exor_delivers_on_clean_links() {
        for rate in RATES {
            let mut net = diamond(3, 25.0, 25.0);
            let mut rng = StdRng::seed_from_u64(4);
            let cfg = TestbedConfig {
                rate,
                ..small_cfg(RoutingMode::Exor)
            };
            let o = run_untraced(&mut net, &mut rng, 3, &[1, 2], &cfg).unwrap();
            assert_eq!(o.delivered, 4, "{rate:?}: {o:?}");
            assert!(o.data_frames >= 4);
        }
    }

    #[test]
    fn sourcesync_mode_joins_cosenders() {
        // Final hop lossy enough that plain first attempts fail and the
        // retries escalate to joint frames; 3 dB lower at 6 Mbps, 802.11a's
        // sensitivity step between the two rates.
        for (rate, final_hop_db) in [(RateId::R6, 2.0), (RateId::R12, 5.0)] {
            let mut net = diamond(5, 25.0, final_hop_db);
            let mut rng = StdRng::seed_from_u64(6);
            let cfg = TestbedConfig {
                rate,
                ..small_cfg(RoutingMode::ExorSourceSync)
            };
            let o = run_untraced(&mut net, &mut rng, 3, &[1, 2], &cfg).unwrap();
            assert!(o.delivered >= 3, "{rate:?}: {o:?}");
            assert!(o.joint_frames > 0, "{rate:?}: {o:?}");
            assert!(o.joins.joined > 0, "{rate:?}: {o:?}");
        }
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        let run = || {
            let mut net = diamond(7, 18.0, 9.0);
            let mut rng = StdRng::seed_from_u64(8);
            run_untraced(
                &mut net,
                &mut rng,
                3,
                &[1, 2],
                &small_cfg(RoutingMode::ExorSourceSync),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn long_run_keeps_the_live_transmission_set_bounded() {
        // The unbounded-growth regression: transmissions used to pile up
        // on the medium between clear calls. A lossy multihop run pushes
        // hundreds of frames; every exchange must leave the ether empty.
        let mut net = diamond(11, 18.0, 8.0);
        let mut rng = StdRng::seed_from_u64(12);
        let cfg = TestbedConfig {
            batch_size: 32,
            payload_len: 64,
            ..TestbedConfig::new(RateId::R12, RoutingMode::ExorSourceSync)
        };
        let o = run_untraced(&mut net, &mut rng, 3, &[1, 2], &cfg).unwrap();
        assert!(o.data_frames > 40, "not a long run: {o:?}");
        assert!(
            net.medium.transmissions().is_empty(),
            "live set leaked {} transmissions",
            net.medium.transmissions().len()
        );
        // And the capture extent check was live throughout the run.
        assert!(net.medium.propagate_count() > 0);
    }

    #[test]
    fn observed_run_is_bit_identical_and_traces() {
        let run = |trace: &mut TraceRecorder, metrics: &mut MetricRegistry| {
            let mut net = diamond(7, 18.0, 9.0);
            let mut rng = StdRng::seed_from_u64(8);
            run_transfer_observed(
                &mut net,
                &mut rng,
                0,
                3,
                &[1, 2],
                &small_cfg(RoutingMode::ExorSourceSync),
                trace,
                metrics,
            )
            .unwrap()
        };
        let plain = run(&mut TraceRecorder::disabled(), &mut MetricRegistry::new());
        let mut trace = TraceRecorder::enabled();
        let mut metrics = MetricRegistry::new();
        let observed = run(&mut trace, &mut metrics);
        assert_eq!(plain, observed, "observation must not perturb the run");

        // The trace saw the protocol happen: contention, frames on the
        // air, receptions, and the joint-frame stages.
        assert!(!trace.is_empty());
        let names: Vec<&str> = trace.merged().iter().map(|e| e.kind.name()).collect();
        for expected in [
            "dcf_attempt",
            "frame_tx",
            "frame_rx",
            "joint_lead",
            "join_outcome",
            "joint_decode",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        // Events are stamped in nondecreasing merged order by construction.
        let merged = trace.merged();
        assert!(merged.windows(2).all(|w| w[0].t_fs <= w[1].t_fs));

        // The registry mirrors the outcome ledger, and the lookup-miss
        // counters stayed at their registered zero in a healthy run.
        assert_eq!(
            metrics.counter_value("delivered", Scope::Global),
            Some(observed.delivered as u64)
        );
        assert_eq!(
            metrics.counter_value("data_frames", Scope::Global),
            Some(observed.data_frames)
        );
        assert_eq!(
            metrics.counter_value("lookup_miss_exchange_empty", Scope::Global),
            Some(0)
        );
        assert_eq!(
            metrics.counter_value("lookup_miss_plain_empty", Scope::Global),
            Some(0)
        );
    }

    #[test]
    fn observed_trace_repeats_byte_for_byte() {
        let run = || {
            let mut net = diamond(7, 18.0, 9.0);
            let mut rng = StdRng::seed_from_u64(8);
            let mut trace = TraceRecorder::enabled();
            let mut metrics = MetricRegistry::new();
            run_transfer_observed(
                &mut net,
                &mut rng,
                0,
                3,
                &[1, 2],
                &small_cfg(RoutingMode::ExorSourceSync),
                &mut trace,
                &mut metrics,
            )
            .unwrap();
            (
                trace.merged(),
                ssync_exp::sink::render_tsv(&metrics.snapshot()),
            )
        };
        assert_eq!(run(), run());
    }

    /// Traces one ExOR+SourceSync transfer over `diamond(seed, 25, 5)` and
    /// returns the first joint frame's `joint_lead` and every later event,
    /// in emission order, with the frame that lead scheduled (rebuilt
    /// from the packet and slot count its `joint_lead` announces).
    fn first_joint_frame(seed: u64, cfg: &TestbedConfig) -> (Vec<TraceEvent>, LeadFrame) {
        let mut net = diamond(seed, 25.0, 5.0);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let mut trace = TraceRecorder::enabled();
        run_transfer_observed(
            &mut net,
            &mut rng,
            0,
            3,
            &[1, 2],
            cfg,
            &mut trace,
            &mut MetricRegistry::new(),
        )
        .unwrap();
        let mut events = trace.merged();
        events.sort_by_key(|e| e.seq);
        let first = events
            .iter()
            .position(|e| matches!(e.kind, TraceEventKind::JointLead { .. }))
            .expect("the run led a joint frame");
        let events = events.split_off(first);
        let TraceEventKind::JointLead { packet, cosenders } = events[0].kind else {
            unreachable!()
        };
        let lead = events[0].node as usize;
        let p = packet as usize;
        let payload = MacFrame::Data(DataFrame {
            src: lead as u16,
            dst: BROADCAST,
            seq: packet,
            retry: false,
            payload: packet_payload(p, cfg.payload_len),
        })
        .to_bytes();
        let session = JointSession::new(NodeId(lead))
            .cosenders((0..cosenders as usize).map(|c| CosenderPlan {
                node: NodeId(c),
                wait_s: 0.0,
            }))
            .payload(payload)
            .config(JointConfig {
                rate: cfg.rate,
                ..JointConfig::default()
            });
        let frame = session.lead_tx().schedule(&net.params);
        (events, frame)
    }

    /// Asserts `e` is a `frame_tx` span of `class` by `node` at `t_fs`
    /// lasting `dur_fs`.
    fn assert_span(e: &TraceEvent, class: FrameClass, node: u32, t_fs: u64, dur_fs: u64) {
        assert!(
            matches!(e.kind, TraceEventKind::FrameTx { class: c, .. } if c == class),
            "{e:?}"
        );
        assert_eq!((e.node, e.t_fs, e.dur_fs), (node, t_fs, dur_fs), "{e:?}");
    }

    /// Asserts the lead's two spans open the frame and returns the index
    /// of the first event after them.
    fn assert_lead_spans(events: &[TraceEvent], frame: &LeadFrame, period: u64) -> usize {
        let (at, lead) = (events[0].t_fs, events[0].node);
        let tl = &frame.timeline;
        let data_fs = (tl.total_len() - tl.data_start()) as u64 * period;
        assert_span(
            &events[1],
            FrameClass::SyncHeader,
            lead,
            at + frame.t0.0,
            tl.header_len as u64 * period,
        );
        assert_span(
            &events[2],
            FrameClass::JointData,
            lead,
            at + frame.data_time.0,
            data_fs,
        );
        3
    }

    /// Asserts one `joint_decode` per listener (every node but the lead
    /// and the joined co-senders, in node order) at the end of the joint
    /// frame, starting at `events[i]`.
    fn assert_decodes(
        events: &[TraceEvent],
        i: usize,
        frame: &LeadFrame,
        period: u64,
        joined: &[u32],
    ) {
        let (at, lead) = (events[0].t_fs, events[0].node);
        let t_end = at + frame.t0.0 + frame.timeline.total_len() as u64 * period;
        let listeners: Vec<u32> = (0..4)
            .filter(|v| *v != lead && !joined.contains(v))
            .collect();
        for (k, &v) in listeners.iter().enumerate() {
            let e = &events[i + k];
            assert!(
                matches!(e.kind, TraceEventKind::JointDecode { lead: l, .. } if l as u32 == lead),
                "{e:?}"
            );
            assert_eq!((e.node, e.t_fs, e.dur_fs), (v, t_end, 0), "{e:?}");
        }
        assert!(
            !matches!(
                events[i + listeners.len()].kind,
                TraceEventKind::JointDecode { .. }
            ),
            "one joint_decode per listener"
        );
    }

    #[test]
    fn joint_frame_events_come_from_returned_outcomes() {
        let cfg = small_cfg(RoutingMode::ExorSourceSync);
        let (events, frame) = first_joint_frame(5, &cfg);
        let period = OfdmParams::dot11a().sample_period_fs();
        let tl = &frame.timeline;
        let data_fs = (tl.total_len() - tl.data_start()) as u64 * period;
        let at = events[0].t_fs;
        let mut i = assert_lead_spans(&events, &frame, period);

        // Per joined co-sender: its training span, its data span one slot
        // gap later, then `Joined` at its training start.
        let mut joined = Vec::new();
        while let TraceEventKind::FrameTx {
            class: FrameClass::Training,
            ..
        } = events[i].kind
        {
            let (co, t_train) = (events[i].node, events[i].t_fs);
            assert_eq!(events[i].dur_fs, tl.training_slot_len as u64 * period);
            let t_data = events[i + 1].t_fs;
            assert_span(&events[i + 1], FrameClass::JointData, co, t_data, data_fs);
            assert!(
                (0..tl.n_cosenders).any(|k| {
                    t_data - t_train == (tl.data_start() - tl.training_slot(k)) as u64 * period
                }),
                "data span one training-slot gap after the training span"
            );
            assert!(t_train >= at + frame.t0.0 + tl.header_len as u64 * period);
            let e = &events[i + 2];
            assert!(
                matches!(
                    e.kind,
                    TraceEventKind::JoinOutcome {
                        lead,
                        packet,
                        result: JoinResult::Joined { .. },
                    } if lead == frame.header.lead && packet == frame.header.packet_id
                ),
                "{e:?}"
            );
            assert_eq!((e.node, e.t_fs), (co, t_train), "{e:?}");
            joined.push(co);
            i += 3;
        }
        assert!(!joined.is_empty(), "the first joint frame has a co-sender");
        assert_decodes(&events, i, &frame, period, &joined);
    }

    #[test]
    fn header_faults_stamp_join_failures_at_the_sync_header_end() {
        let cfg = TestbedConfig {
            faults: FaultPlan {
                header: ssync_sim::FaultInjector::new(1.0, 0.0),
                ..FaultPlan::none()
            },
            ..small_cfg(RoutingMode::ExorSourceSync)
        };
        let (events, frame) = first_joint_frame(5, &cfg);
        let period = OfdmParams::dot11a().sample_period_fs();
        let at = events[0].t_fs;
        let mut i = assert_lead_spans(&events, &frame, period);

        // Every attempted join fails at the seam, stamped at the end of
        // the sync header; nothing joins, so every other node decodes.
        let header_end = at + frame.t0.0 + frame.timeline.header_len as u64 * period;
        let mut failed = 0;
        while let TraceEventKind::JoinOutcome { lead, result, .. } = events[i].kind {
            assert_eq!(lead, frame.header.lead);
            assert_eq!(result, JoinResult::Failed(JoinFailureClass::NoDetect));
            assert_eq!(events[i].t_fs, header_end);
            failed += 1;
            i += 1;
        }
        assert!(failed > 0, "the first joint frame attempted a join");
        assert_decodes(&events, i, &frame, period, &[]);
    }

    #[test]
    fn unreachable_destination_is_none() {
        let params = OfdmParams::dot11a();
        let mut rng = StdRng::seed_from_u64(9);
        let positions = vec![Position::new(0.0, 0.0), Position::new(10.0, 0.0)];
        let mut net = Network::build(
            &mut rng,
            &params,
            &positions,
            &ChannelModels::clean(&params),
        );
        net.pin_snr_db(NodeId(0), NodeId(1), f64::NEG_INFINITY);
        net.pin_snr_db(NodeId(1), NodeId(0), f64::NEG_INFINITY);
        let o = run_untraced(
            &mut net,
            &mut rng,
            1,
            &[],
            &small_cfg(RoutingMode::SinglePath),
        );
        assert!(o.is_none());
    }

    #[test]
    fn empty_delay_db_degrades_joins_to_missing_delay() {
        let mut net = diamond(10, 25.0, 5.0);
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = TestbedConfig {
            delays: DelaySource::Empty,
            ..small_cfg(RoutingMode::ExorSourceSync)
        };
        let o = run_untraced(&mut net, &mut rng, 3, &[1, 2], &cfg).unwrap();
        assert!(o.joins.attempted > 0, "{o:?}");
        assert_eq!(o.joins.joined, 0, "{o:?}");
        assert_eq!(o.joins.missing_delay, o.joins.attempted, "{o:?}");
        // ExOR fallback: the lead's own signal still carries packets.
        assert!(o.delivered > 0, "{o:?}");
    }

    #[test]
    fn batch_map_merge_tolerates_short_payloads_and_ignores_trailing_bytes() {
        let mut net = diamond(9, 25.0, 25.0);
        let mut rng = StdRng::seed_from_u64(10);
        let mut trace = TraceRecorder::disabled();
        let mut metrics = MetricRegistry::new();
        let cfg = small_cfg(RoutingMode::Exor);
        let mut engine = Engine::new(
            &mut net,
            &mut rng,
            0,
            3,
            &[1, 2],
            &cfg,
            &mut trace,
            &mut metrics,
        )
        .expect("diamond has forwarders");
        // 4 nodes × 4 packets = 16 map bits = 2 bytes.
        assert_eq!(engine.map_len, 2);

        // A one-byte payload carries bits 0..8 (nodes 0 and 1) only.
        let mut want = engine.know[1].clone();
        engine.merge_map(1, &[0xFF]);
        for row in &mut want[..2] {
            row.fill(true);
        }
        assert_eq!(engine.know[1], want);

        // An empty map prefix followed by packet bytes teaches nothing.
        let before = engine.know[2].clone();
        engine.merge_map(2, &[0x00, 0x00, 0xFF, 0xFF, 0xFF]);
        assert_eq!(engine.know[2], before);
    }
}
