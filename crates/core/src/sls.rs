//! The Symbol-Level Synchronizer (paper §4).
//!
//! Three jobs live here:
//!
//! 1. **Arrival estimation** — turning a receiver's detection + channel
//!    phase slope into a fractional-sample estimate of when a packet's
//!    first sample hit the antenna. This is the mechanism (§4.2(a)) that
//!    stops the jittery, SNR-dependent *detection instant* from polluting
//!    every downstream delay estimate.
//! 2. **The probe/response protocol** (§4.2(c), Eq. 2) — measuring one-way
//!    propagation delays and pairwise carrier-frequency offsets by counting
//!    a round trip and subtracting the responder's self-reported
//!    receive→transmit interval.
//! 3. **Wait-time computation** (§4.3, §4.6) — exact single-receiver waits
//!    `wᵢ = T₀ − tᵢ` or the min-max LP over multiple receivers, plus the
//!    ACK-driven tracking update of §4.5.

use crate::timeline::SIFS_S;
use rand::Rng;
use ssync_dsp::Complex64;
use ssync_linprog::{MisalignmentProblem, WaitSolution};
use ssync_phy::preamble::PreambleLayout;
use ssync_phy::{Receiver, RxDiagnostics, RxWorkspace, Transmitter, TxWorkspace};
use ssync_sim::{Network, NodeId, Time};
use std::collections::BTreeMap;

/// Estimated ether time (seconds, fractional) at which a received packet's
/// first sample arrived at the antenna, given the capture start time and
/// the receiver diagnostics.
///
/// The integer part comes from the detector's LTS fine timing; the
/// sub-sample part from the channel phase slope (`timing_offset_samples`),
/// so the estimate is immune to the detection-instant jitter.
pub fn arrival_estimate_s(
    params: &ssync_phy::Params,
    diag: &RxDiagnostics,
    capture_start: Time,
) -> f64 {
    let layout_lts = PreambleLayout::of(params).lts_start();
    let samples = diag.detection.lts_start as f64 + diag.timing_offset_samples - layout_lts as f64;
    capture_start.as_secs_f64() + samples * params.sample_period_fs() as f64 * 1e-15
}

/// One probe/response measurement.
#[derive(Debug, Clone, Copy)]
pub struct ProbeOutcome {
    /// Estimated one-way propagation delay, seconds.
    pub delay_s: f64,
    /// Ground-truth one-way delay (from the simulator), seconds.
    pub true_delay_s: f64,
    /// Estimated CFO of the prober as observed by the responder
    /// (`f_prober − f_responder`), Hz.
    pub cfo_hz: f64,
}

/// Margin of noise-only samples captured before an expected packet.
const CAPTURE_MARGIN: usize = 400;

/// The modem every probe of a measurement runs through: one planned
/// transmitter and receiver and their workspaces, held across probes, so
/// a probe plans nothing and allocates little beyond its two waveforms.
/// Bit-identical to a fresh modem per probe.
struct ProbeModem {
    tx: Transmitter,
    rx: Receiver,
    tx_ws: TxWorkspace,
    rx_ws: RxWorkspace,
}

impl ProbeModem {
    fn new(params: &ssync_phy::Params) -> Self {
        ProbeModem {
            tx: Transmitter::new(params.clone()),
            rx: Receiver::new(params.clone()),
            tx_ws: TxWorkspace::new(params),
            rx_ws: RxWorkspace::new(params),
        }
    }

    /// `payload`'s frame at the header rate, in a buffer of its own (the
    /// medium takes the waveform).
    fn frame(&mut self, payload: &[u8]) -> Vec<Complex64> {
        let rate = crate::timeline::HEADER_RATE;
        let mut wave = Vec::with_capacity(self.tx.frame_len(payload.len(), rate));
        self.tx
            .frame_waveform_into(payload, rate, 0, &mut self.tx_ws, &mut wave);
        wave
    }
}

/// Runs one probe/response exchange `a → b → a` on the sample-level medium
/// and estimates the one-way delay per Eq. 2. Returns `None` if either
/// frame fails to decode (the caller retries — probes are cheap).
pub fn probe_pair<R: Rng + ?Sized>(
    net: &mut Network,
    rng: &mut R,
    a: NodeId,
    b: NodeId,
) -> Option<ProbeOutcome> {
    let mut modem = ProbeModem::new(&net.params);
    probe_with(&mut modem, net, rng, a, b)
}

/// [`probe_pair`] through a held [`ProbeModem`].
fn probe_with<R: Rng + ?Sized>(
    modem: &mut ProbeModem,
    net: &mut Network,
    rng: &mut R,
    a: NodeId,
    b: NodeId,
) -> Option<ProbeOutcome> {
    let params = &net.params;
    let period = params.sample_period_fs();
    net.medium.clear_transmissions();

    // A transmits a probe.
    let probe_payload = [0xA5u8; 16];
    let probe_wave = modem.frame(&probe_payload);
    let probe_len = probe_wave.len();
    let t0 = Time((CAPTURE_MARGIN as u64) * period);
    net.medium.transmit(a, t0, probe_wave);

    // B captures and decodes.
    let b_window = CAPTURE_MARGIN * 2 + probe_len + 200;
    let b_buf = net.medium.capture(rng, b, Time::ZERO, b_window);
    let b_res = modem.rx.receive_with(&b_buf, &mut modem.rx_ws).ok()?;
    if b_res.payload != probe_payload {
        return None;
    }
    let b_arrival_s = arrival_estimate_s(params, &b_res.diag, Time::ZERO);
    let b_detect = Time((b_res.diag.detection.detect_idx as u64) * period);

    // B responds after the probe ends plus its hardware turnaround plus a
    // SIFS-like clearance; it reports its receive→transmit interval.
    let turnaround = net.node(b).turnaround;
    let clearance = ssync_sim::Duration::from_secs_f64(SIFS_S);
    let resp_earliest =
        Time((b_arrival_s * 1e15) as u64 + (probe_len as u64) * period) + turnaround + clearance;
    let resp_time = resp_earliest
        .max(b_detect + turnaround)
        .ceil_to_sample(period);
    let rx_to_tx_s = resp_time.as_secs_f64() - b_arrival_s;
    let mut resp_payload = Vec::with_capacity(16);
    resp_payload.extend_from_slice(&rx_to_tx_s.to_le_bytes());
    resp_payload.extend_from_slice(&b_res.diag.detection.cfo_hz.to_le_bytes());
    let resp_wave = modem.frame(&resp_payload);
    let resp_len = resp_wave.len();
    net.medium.transmit(b, resp_time, resp_wave);

    // A captures the response. Scan from after its own transmission ended.
    let a_from = t0 + ssync_sim::Duration((probe_len as u64) * period);
    let a_window =
        resp_time.saturating_since(a_from).0 as usize / period as usize + resp_len + CAPTURE_MARGIN;
    let a_buf = net.medium.capture(rng, a, a_from, a_window);
    let a_res = modem.rx.receive_with(&a_buf, &mut modem.rx_ws).ok()?;
    let reported_rx_to_tx = f64::from_le_bytes(a_res.payload.get(0..8)?.try_into().ok()?);
    let reported_cfo = f64::from_le_bytes(a_res.payload.get(8..16)?.try_into().ok()?);
    let a_arrival_s = arrival_estimate_s(params, &a_res.diag, a_from);

    // Eq. 2 rearranged: RTT = 2·d + (responder's rx→tx interval).
    let rtt_s = a_arrival_s - t0.as_secs_f64();
    let delay_s = (rtt_s - reported_rx_to_tx) / 2.0;
    net.medium.clear_transmissions();
    Some(ProbeOutcome {
        delay_s,
        true_delay_s: net.true_delay_s(a, b),
        cfo_hz: reported_cfo,
    })
}

/// The measurement database SourceSync nodes build by exchanging periodic
/// probes (§4.3: co-senders need lead→co, lead→rx and co→rx delays).
#[derive(Debug, Default, Clone)]
pub struct DelayDatabase {
    /// Estimated one-way delay per unordered pair, seconds. BTreeMap for
    /// canonical iteration order (determinism contract, `nondet-iteration`).
    delays_s: BTreeMap<(usize, usize), f64>,
    /// Estimated CFO `f_x − f_y` per ordered pair, Hz.
    cfo_hz: BTreeMap<(usize, usize), f64>,
}

impl DelayDatabase {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Measures the pair `(a, b)` with `n_probes` exchanges (averaging) and
    /// stores the result. Returns `false` if every probe failed.
    pub fn measure<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        a: NodeId,
        b: NodeId,
        n_probes: usize,
    ) -> bool {
        let mut modem = ProbeModem::new(&net.params);
        self.measure_with(&mut modem, net, rng, a, b, n_probes)
    }

    /// [`DelayDatabase::measure`] through a held [`ProbeModem`].
    fn measure_with<R: Rng + ?Sized>(
        &mut self,
        modem: &mut ProbeModem,
        net: &mut Network,
        rng: &mut R,
        a: NodeId,
        b: NodeId,
        n_probes: usize,
    ) -> bool {
        let mut delays = Vec::new();
        let mut cfos = Vec::new();
        for _ in 0..n_probes {
            if let Some(p) = probe_with(modem, net, rng, a, b) {
                delays.push(p.delay_s);
                cfos.push(p.cfo_hz);
            }
        }
        if delays.is_empty() {
            return false;
        }
        self.set_delay(a, b, ssync_dsp::stats::mean(&delays));
        self.cfo_hz
            .insert((a.0, b.0), ssync_dsp::stats::mean(&cfos));
        self.cfo_hz
            .insert((b.0, a.0), -ssync_dsp::stats::mean(&cfos));
        true
    }

    /// Measures every pair among `nodes`, every probe through one modem.
    pub fn measure_all<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        nodes: &[NodeId],
        n_probes: usize,
    ) -> bool {
        let mut modem = ProbeModem::new(&net.params);
        let mut ok = true;
        for i in 0..nodes.len() {
            for j in i + 1..nodes.len() {
                ok &= self.measure_with(&mut modem, net, rng, nodes[i], nodes[j], n_probes);
            }
        }
        ok
    }

    /// Installs a delay directly (tests, or oracle-delay ablations).
    pub fn set_delay(&mut self, a: NodeId, b: NodeId, delay_s: f64) {
        let key = (a.0.min(b.0), a.0.max(b.0));
        self.delays_s.insert(key, delay_s);
    }

    /// The stored one-way delay between two nodes, seconds.
    pub fn delay_s(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.delays_s.get(&(a.0.min(b.0), a.0.max(b.0))).copied()
    }

    /// The stored CFO `f_a − f_b`, Hz.
    pub fn cfo_hz(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.cfo_hz.get(&(a.0, b.0)).copied()
    }

    /// Wait times for a joint transmission (§4.3 / §4.6): solves the
    /// min-max misalignment LP over all receivers (which reduces to
    /// `wᵢ = T₀ − tᵢ` exactly for a single receiver). Returns `None` if any
    /// needed delay is missing from the database.
    pub fn wait_solution(
        &self,
        lead: NodeId,
        cosenders: &[NodeId],
        receivers: &[NodeId],
    ) -> Option<WaitSolution> {
        let lead_delays: Option<Vec<f64>> =
            receivers.iter().map(|r| self.delay_s(lead, *r)).collect();
        let cosender_delays: Option<Vec<Vec<f64>>> = cosenders
            .iter()
            .map(|c| receivers.iter().map(|r| self.delay_s(*c, *r)).collect())
            .collect();
        let problem = MisalignmentProblem {
            lead_delays: lead_delays?,
            cosender_delays: cosender_delays?,
        };
        Some(problem.solve())
    }
}

/// The §4.5 tracking update: the receiver's ACK reports the measured
/// misalignment of a co-sender relative to the lead (positive = co-sender
/// arrived late); the co-sender shifts its wait accordingly.
pub fn tracking_update(current_wait_s: f64, measured_misalignment_s: f64) -> f64 {
    current_wait_s - measured_misalignment_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssync_channel::Position;
    use ssync_phy::OfdmParams;
    use ssync_sim::ChannelModels;

    fn line_network(seed: u64, spacing_m: f64) -> Network {
        let params = OfdmParams::dot11a();
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(spacing_m, 0.0),
            Position::new(spacing_m / 2.0, 6.0),
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
    fn probe_estimates_real_delay_within_a_nanosecond() {
        let mut net = line_network(1, 12.0);
        let mut rng = StdRng::seed_from_u64(2);
        let p = probe_pair(&mut net, &mut rng, NodeId(0), NodeId(1)).expect("probe failed");
        // 12 m = 40 ns of flight.
        assert!((p.true_delay_s - 40e-9).abs() < 0.5e-9);
        assert!(
            (p.delay_s - p.true_delay_s).abs() < 2e-9,
            "estimate {} vs truth {}",
            p.delay_s,
            p.true_delay_s
        );
    }

    #[test]
    fn probe_recovers_cfo_sign_and_magnitude() {
        let mut net = line_network(3, 8.0);
        let true_cfo = net.medium.link(NodeId(0), NodeId(1)).unwrap().cfo_hz;
        let mut rng = StdRng::seed_from_u64(4);
        let p = probe_pair(&mut net, &mut rng, NodeId(0), NodeId(1)).expect("probe failed");
        assert!(
            (p.cfo_hz - true_cfo).abs() < 1500.0,
            "estimated {} vs true {true_cfo}",
            p.cfo_hz
        );
    }

    #[test]
    fn database_measures_and_solves_waits() {
        let mut net = line_network(5, 15.0);
        let mut rng = StdRng::seed_from_u64(6);
        let mut db = DelayDatabase::new();
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        assert!(db.measure_all(&mut net, &mut rng, &nodes, 2));
        // Lead 0, co-sender 1, receiver 2: single receiver → perfect waits.
        let sol = db
            .wait_solution(NodeId(0), &[NodeId(1)], &[NodeId(2)])
            .unwrap();
        assert!(sol.max_misalignment < 1e-12);
        let expect =
            db.delay_s(NodeId(0), NodeId(2)).unwrap() - db.delay_s(NodeId(1), NodeId(2)).unwrap();
        assert!((sol.waits[0] - expect).abs() < 1e-12);
        // And the estimated delays are close to geometric truth.
        assert!(
            (db.delay_s(NodeId(0), NodeId(1)).unwrap() - net.true_delay_s(NodeId(0), NodeId(1)))
                .abs()
                < 2e-9
        );
    }

    #[test]
    fn wait_solution_missing_delay_is_none() {
        let db = DelayDatabase::new();
        assert!(db
            .wait_solution(NodeId(0), &[NodeId(1)], &[NodeId(2)])
            .is_none());
    }

    #[test]
    fn tracking_update_cancels_reported_error() {
        // Co-sender arrives 30 ns late → wait shrinks by 30 ns.
        let w = tracking_update(100e-9, 30e-9);
        assert!((w - 70e-9).abs() < 1e-15);
        // Arriving early (negative misalignment) grows the wait.
        let w2 = tracking_update(100e-9, -10e-9);
        assert!((w2 - 110e-9).abs() < 1e-15);
    }

    #[test]
    fn set_delay_is_symmetric() {
        let mut db = DelayDatabase::new();
        db.set_delay(NodeId(3), NodeId(7), 55e-9);
        assert_eq!(db.delay_s(NodeId(7), NodeId(3)), Some(55e-9));
    }
}
