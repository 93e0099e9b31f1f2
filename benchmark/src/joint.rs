//! Workload `joint`: SourceSync's own path, one joint frame per unit.
//!
//! Set-up draws placements on the testbed floor plan with every link
//! pinned to one SNR: 1–3 co-senders × 1–2 receivers × SNR 6–24 dB in
//! 3 dB steps, one placement per cell. Each placement runs the §4.3 probe
//! protocol (`DelayDatabase::measure_all`) and the wait LP
//! (`wait_solution`). A unit is one `JointSession::run_with` — lead
//! transmit, one join per co-sender, one decode per receiver — and between
//! units the receivers' measured misalignment feeds `tracking_update`
//! (§4.5), as an ACK would. The traced run drives the same stages one by
//! one to time each.

use crate::host::HostSpeed;
use crate::stats::{closed_loop, timed, Metric, UnitLog};
use crate::trace::Recorder;
use crate::Size;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sourcesync::channel::FloorPlan;
use sourcesync::core::session::ground_truth_misalign_s;
use sourcesync::core::{
    tracking_update, CosenderOutcome, CosenderPlan, DelayDatabase, JoinFailure, JointConfig,
    JointOutcome, JointSession, SessionWorkspace,
};
use sourcesync::exp::trial_seed;
use sourcesync::phy::{OfdmParams, RateId};
use sourcesync::sim::{ChannelModels, Network, NodeId};

/// The lead sender of every placement.
const LEAD: NodeId = NodeId(0);
/// Probe exchanges per node pair.
const PROBES: usize = 2;
/// Payload every sender holds, bytes.
const PAYLOAD_BYTES: usize = 256;
/// Redraws allowed when a placement's probes or LP fail.
const MAX_DRAWS: u64 = 16;

/// One placement with its measured delays and current waits.
pub struct Placement {
    net: Network,
    db: DelayDatabase,
    cosenders: Vec<NodeId>,
    receivers: Vec<NodeId>,
    /// Current wait per co-sender (LP solution, then tracked).
    waits: Vec<f64>,
    payload: Vec<u8>,
}

impl Placement {
    /// The payload every sender holds.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    fn session(&self) -> JointSession {
        JointSession::new(LEAD)
            .cosenders(
                self.cosenders
                    .iter()
                    .zip(&self.waits)
                    .map(|(&node, &wait_s)| CosenderPlan { node, wait_s }),
            )
            .receivers(self.receivers.iter().copied())
            .payload(self.payload.clone())
            .config(JointConfig {
                rate: RateId::R12,
                ..JointConfig::default()
            })
    }

    /// §4.5: each co-sender shifts its wait by the mean misalignment the
    /// receivers measured for it.
    fn track(&mut self, outcome: &JointOutcome) {
        for (j, wait) in self.waits.iter_mut().enumerate() {
            let measured: Vec<f64> = outcome
                .reports
                .iter()
                .filter_map(|r| r.measured_misalign_s.get(j).copied().flatten())
                .collect();
            if !measured.is_empty() {
                let mean = measured.iter().sum::<f64>() / measured.len() as f64;
                *wait = tracking_update(*wait, mean);
            }
        }
    }
}

/// Everything the timed phase consumes, plus set-up measurements.
pub struct Inputs {
    /// Placements in seed-shuffled issue order.
    pub placements: Vec<Placement>,
    ws: SessionWorkspace,
    rng: StdRng,
    /// `measure_all` calls in set-up and their total time, nanoseconds.
    measure_calls: u64,
    measure_ns: u64,
    /// `wait_solution` calls in set-up and their total time, nanoseconds.
    lp_calls: u64,
    lp_ns: u64,
}

/// The (co-senders, receivers, SNR) cells, one placement each.
fn cells(size: Size) -> Vec<(usize, usize, f64)> {
    let snrs: Vec<f64> = match size {
        Size::Full => (0..7).map(|k| 6.0 + 3.0 * k as f64).collect(),
        Size::Smoke => vec![18.0],
    };
    let mut out = Vec::new();
    for n_co in 1..=3 {
        for n_rx in 1..=2 {
            for &snr in &snrs {
                out.push((n_co, n_rx, snr));
            }
        }
    }
    out
}

/// Draws, measures and solves every placement, then runs one warm-up unit.
pub fn setup(seed: u64, size: Size) -> Inputs {
    let params = OfdmParams::dot11a();
    let models = ChannelModels::testbed(&params);
    let plan = FloorPlan::testbed();
    let mut inputs = Inputs {
        placements: Vec::new(),
        ws: SessionWorkspace::new(params.clone()),
        rng: StdRng::seed_from_u64(trial_seed(seed, u64::MAX, 0)),
        measure_calls: 0,
        measure_ns: 0,
        lp_calls: 0,
        lp_ns: 0,
    };
    for (k, (n_co, n_rx, snr_db)) in cells(size).into_iter().enumerate() {
        let n = 1 + n_co + n_rx;
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let cosenders = nodes[1..=n_co].to_vec();
        let receivers = nodes[1 + n_co..].to_vec();
        let placement = (0..MAX_DRAWS).find_map(|draw| {
            let mut rng = StdRng::seed_from_u64(trial_seed(seed, k as u64, draw));
            let positions: Vec<_> = (0..n).map(|_| plan.random_position(&mut rng)).collect();
            let mut net = Network::build(&mut rng, &params, &positions, &models);
            for &a in &nodes {
                for &b in &nodes {
                    if a != b {
                        net.pin_snr_db(a, b, snr_db);
                    }
                }
            }
            let mut db = DelayDatabase::new();
            let (ns, measured) = timed(|| db.measure_all(&mut net, &mut rng, &nodes, PROBES));
            inputs.measure_calls += 1;
            inputs.measure_ns += ns;
            if !measured {
                return None;
            }
            let (ns, solution) = timed(|| db.wait_solution(LEAD, &cosenders, &receivers));
            inputs.lp_calls += 1;
            inputs.lp_ns += ns;
            Some(Placement {
                net,
                db,
                cosenders: cosenders.clone(),
                receivers: receivers.clone(),
                waits: solution?.waits,
                payload: (0..PAYLOAD_BYTES).map(|_| rng.gen()).collect(),
            })
        });
        inputs.placements.push(placement.unwrap_or_else(|| {
            panic!("no measurable placement for cell {k} in {MAX_DRAWS} draws")
        }));
    }
    let mut order_rng = StdRng::seed_from_u64(trial_seed(seed, u64::MAX, 1));
    for i in (1..inputs.placements.len()).rev() {
        inputs.placements.swap(i, order_rng.gen_range(0..=i));
    }
    let (_, ok) = unit(&mut inputs, 0);
    assert!(ok, "warm-up unit failed its check");
    inputs
}

/// The output check: every recovered payload equals the one sent. A frame
/// that did not decode is an outcome, not a failure.
fn check(placement: &Placement, outcome: &JointOutcome) -> bool {
    outcome.reports.len() == placement.receivers.len()
        && outcome.cosenders.len() == placement.cosenders.len()
        && outcome
            .reports
            .iter()
            .all(|r| r.payload.as_ref().is_none_or(|p| *p == placement.payload))
}

/// One unit on placement `k`: the session (timed), its check, tracking.
fn unit(inputs: &mut Inputs, k: usize) -> (u64, bool) {
    let Inputs {
        placements,
        ws,
        rng,
        ..
    } = inputs;
    let p = &mut placements[k];
    let session = p.session();
    let (ns, outcome) = timed(|| session.run_with(&mut p.net, rng, &p.db, ws));
    let ok = check(p, &outcome);
    p.track(&outcome);
    (ns, ok)
}

/// The untraced closed loop over the placements, from unit number `first`
/// on.
pub fn run(inputs: &mut Inputs, seconds: f64, first: u64, host: &mut HostSpeed) -> UnitLog {
    let n = inputs.placements.len();
    closed_loop(seconds, 1, host, |i| unit(inputs, (first + i) as usize % n))
}

/// Per-layer counts of the first pass over the placements.
#[derive(Default)]
struct Counts {
    /// Sessions in the pass.
    sessions: u64,
    /// Co-sender join attempts.
    attempted: u64,
    /// Joins that put training and data on the air.
    joined: u64,
    /// Failed joins by typed cause.
    no_detect: u64,
    /// See `no_detect`.
    not_joint_flagged: u64,
    /// See `no_detect`.
    malformed_header: u64,
    /// See `no_detect`.
    wrong_packet: u64,
    /// See `no_detect`.
    missing_delay: u64,
    /// Receiver decodes attempted and decoded.
    decodes: u64,
    /// See `decodes`.
    decoded: u64,
    /// Link propagations the sessions' captures ran.
    propagations: u64,
}

/// Drives one session stage by stage, each stage in its own span, and
/// assembles the outcome `run_with` would return.
fn staged(inputs: &mut Inputs, k: usize, rec: &mut Recorder) -> (u64, JointOutcome) {
    let Inputs {
        placements,
        ws,
        rng,
        ..
    } = inputs;
    let p = &mut placements[k];
    let session = p.session();
    let unit_span = rec.begin("joint.unit");
    let (frame, _) = rec.span("core.transmit_with", || {
        session.lead_tx().transmit_with(&mut p.net, ws)
    });
    let mut cosenders = Vec::with_capacity(p.cosenders.len());
    for (j, &node) in p.cosenders.iter().enumerate() {
        let (join, _) = rec.span("core.join_with", || {
            session
                .cosender_join(j, &frame)
                .join_with(&mut p.net, rng, &p.db, ws)
        });
        cosenders.push(CosenderOutcome { node, join });
    }
    let mut reports = Vec::with_capacity(p.receivers.len());
    let mut true_misalign_s = Vec::with_capacity(p.receivers.len());
    for &rcv in &p.receivers {
        let (report, _) = rec.span("core.decode_with", || {
            session
                .receiver_decode(rcv, &frame)
                .decode_with(&mut p.net, rng, ws)
        });
        reports.push(report);
        true_misalign_s.push(ground_truth_misalign_s(
            &p.net, LEAD, &frame, &cosenders, rcv,
        ));
    }
    let co_tx_times = cosenders
        .iter()
        .map(|c| c.join.as_ref().ok().map(|tx| tx.training_time))
        .collect();
    let ns = rec.end(unit_span);
    (
        ns,
        JointOutcome {
            reports,
            true_misalign_s,
            co_tx_times,
            cosenders,
        },
    )
}

/// The traced closed loop. The first pass over the placements always
/// completes and is counted; each of its sessions is also run through
/// `JointSession::run_with` from the same state, and the two outcomes
/// must agree field by field.
pub fn run_traced(
    inputs: &mut Inputs,
    seconds: f64,
    host: &mut HostSpeed,
    rec: &mut Recorder,
    out: &mut Vec<Metric>,
) -> UnitLog {
    let n = inputs.placements.len();
    let mut counts = Counts::default();
    let log = closed_loop(seconds, n as u64, host, |i| {
        let k = i as usize % n;
        rec.set_unit(Some(i));
        let counted = (i as usize) < n;
        let reference = counted.then(|| {
            let mut rng = inputs.rng.clone();
            let p = &mut inputs.placements[k];
            let outcome = p
                .session()
                .run_with(&mut p.net, &mut rng, &p.db, &mut inputs.ws);
            format!("{outcome:?}")
        });
        let before = inputs.placements[k].net.medium.propagate_count();
        let (ns, outcome) = staged(inputs, k, rec);
        let p = &mut inputs.placements[k];
        let mut ok = check(p, &outcome);
        if let Some(reference) = reference {
            ok &= reference == format!("{outcome:?}");
            counts.sessions += 1;
            counts.propagations += p.net.medium.propagate_count() - before;
            for c in &outcome.cosenders {
                counts.attempted += 1;
                match &c.join {
                    Ok(_) => counts.joined += 1,
                    Err(JoinFailure::NoDetect) => counts.no_detect += 1,
                    Err(JoinFailure::NotJointFlagged) => counts.not_joint_flagged += 1,
                    Err(JoinFailure::MalformedHeader) => counts.malformed_header += 1,
                    Err(JoinFailure::WrongPacket { .. }) => counts.wrong_packet += 1,
                    Err(JoinFailure::MissingDelay { .. }) => counts.missing_delay += 1,
                }
            }
            counts.decodes += outcome.reports.len() as u64;
            counts.decoded += outcome
                .reports
                .iter()
                .filter(|r| r.payload.is_some())
                .count() as u64;
        }
        p.track(&outcome);
        (ns, ok)
    });
    let totals = rec.totals();
    for (metric, span) in [
        ("core.lead_tx_us", "core.transmit_with"),
        ("core.join_us", "core.join_with"),
        ("core.decode_us", "core.decode_with"),
    ] {
        let t = totals.get(span).copied().unwrap_or_default();
        out.push(Metric::new(metric, t.mean_us(), "us"));
    }
    out.push(Metric::new(
        "core.sls.measure_ms",
        inputs.measure_ns as f64 * 1e-6 / inputs.measure_calls.max(1) as f64,
        "ms",
    ));
    out.push(Metric::new(
        "linprog.wait_solution_us",
        inputs.lp_ns as f64 * 1e-3 / inputs.lp_calls.max(1) as f64,
        "us",
    ));
    push_counts(&counts, out);
    log
}

fn push_counts(c: &Counts, out: &mut Vec<Metric>) {
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    out.push(Metric::new(
        "sim.capture.propagations",
        c.propagations as f64,
        "count",
    ));
    out.push(Metric::new(
        "sim.propagations_per_session",
        ratio(c.propagations, c.sessions),
        "count",
    ));
    out.push(Metric::new(
        "core.join.attempted",
        c.attempted as f64,
        "count",
    ));
    out.push(Metric::new("core.join.joined", c.joined as f64, "count"));
    out.push(Metric::new(
        "core.join.joined_ratio",
        ratio(c.joined, c.attempted),
        "ratio",
    ));
    for (name, v) in [
        ("core.join.fail.no_detect", c.no_detect),
        ("core.join.fail.not_joint_flagged", c.not_joint_flagged),
        ("core.join.fail.malformed_header", c.malformed_header),
        ("core.join.fail.wrong_packet", c.wrong_packet),
        ("core.join.fail.missing_delay", c.missing_delay),
    ] {
        out.push(Metric::new(name, v as f64, "count"));
    }
    out.push(Metric::new(
        "core.decode.ok_ratio",
        ratio(c.decoded, c.decodes),
        "ratio",
    ));
}
