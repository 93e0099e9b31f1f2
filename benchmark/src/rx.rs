//! Workload `rx`: the 802.11a receive chain over a pool of captures.
//!
//! Set-up builds one capture per (rate, side of the decode threshold,
//! frame size): all eight rates, an SNR below and one above each rate's
//! threshold, and MAC frames from ACK size (14 B) to 1500 B on a log
//! grid. The grid is fixed; the seed draws the geometry, the multipath
//! and oscillators, the frame contents and the noise, so every seed has
//! the same mix of work. A unit is one `Receiver::receive_with`, then the
//! MAC CRC check and `MacFrame::from_bytes` — what every listener of the
//! testbed does per frame. Nothing in the timed phase touches the channel,
//! the medium or a protocol crate.

use crate::host::HostSpeed;
use crate::stats::{closed_loop, timed, Metric, UnitLog};
use crate::trace::Recorder;
use crate::Size;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sourcesync::channel::FloorPlan;
use sourcesync::dsp::Complex64;
use sourcesync::mac::{AckFrame, DataFrame, MacFrame};
use sourcesync::phy::ber::PerTable;
use sourcesync::phy::{
    crc, OfdmParams, RateId, Receiver, RxError, RxWorkspace, Transmitter, TxWorkspace,
};
use sourcesync::sim::{ChannelModels, Network, NodeId, Time};

/// All eight 802.11a rates.
const RATES: [RateId; 8] = [
    RateId::R6,
    RateId::R9,
    RateId::R12,
    RateId::R18,
    RateId::R24,
    RateId::R36,
    RateId::R48,
    RateId::R54,
];

/// Smallest MAC frame: an ACK carrying one misalignment report.
const MIN_BYTES: usize = 14;
/// Largest MAC frame.
const MAX_BYTES: usize = 1500;
/// SNR offsets from a rate's 50 % PER point: one side fails, one decodes.
const BELOW_DB: f64 = -3.0;
const ABOVE_DB: f64 = 6.0;
/// Transmitters around the one receiver (each its own channel draw).
const TRANSMITTERS: usize = 8;
/// Noise-only samples before the frame (and twice that plus 200 after),
/// as the testbed's exchanges capture.
const MARGIN: usize = 400;

/// Frame sizes on the log grid from [`MIN_BYTES`] to [`MAX_BYTES`].
fn frame_sizes(n: usize) -> Vec<usize> {
    let ratio = MAX_BYTES as f64 / MIN_BYTES as f64;
    (0..n)
        .map(|k| {
            let f = k as f64 / (n.max(2) - 1) as f64;
            (MIN_BYTES as f64 * ratio.powf(f)).round() as usize
        })
        .collect()
}

/// The SNR at which `rate` reaches 50 % PER on the repository's analytic
/// 802.11a curves.
fn threshold_db(table: &PerTable, rate: RateId) -> f64 {
    let (mut lo, mut hi) = (-5.0, 40.0);
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if table.per(rate, mid) > 0.5 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// A MAC frame of exactly `bytes` serialised bytes.
fn mac_frame(rng: &mut StdRng, bytes: usize) -> MacFrame {
    if bytes == MIN_BYTES {
        MacFrame::Ack(AckFrame {
            dst: rng.gen(),
            seq: rng.gen(),
            misalign_feedback_s: vec![rng.gen_range(-1e-7..1e-7)],
        })
    } else {
        MacFrame::Data(DataFrame {
            src: rng.gen(),
            dst: rng.gen(),
            seq: rng.gen(),
            retry: rng.gen(),
            payload: (0..bytes - 10).map(|_| rng.gen()).collect(),
        })
    }
}

/// One pool entry.
pub struct Capture {
    /// What the receive antenna recorded.
    pub samples: Vec<Complex64>,
    /// The MAC frame that was sent.
    frame: MacFrame,
    /// PHY payload bytes (MAC frame plus its CRC).
    psdu_bytes: usize,
}

/// What one unit recovered.
enum RxOutcome {
    /// A frame passed both CRCs and parsed.
    Decoded(MacFrame),
    /// The receive chain returned this error.
    Lost(RxError),
    /// The PHY frame decoded but the MAC CRC or parse failed.
    MacParseFail,
}

/// Everything the timed phase consumes, plus set-up measurements.
pub struct Inputs {
    rx: Receiver,
    ws: RxWorkspace,
    /// The capture pool, in seed-shuffled issue order.
    pub pool: Vec<Capture>,
    /// Frames modulated in set-up and the time it took, nanoseconds.
    tx_frames: u64,
    tx_ns: u64,
    /// Samples captured in set-up and the time it took, nanoseconds.
    capture_samples: u64,
    capture_ns: u64,
}

/// Builds the capture pool and runs one warm-up unit.
pub fn setup(seed: u64, size: Size) -> Inputs {
    let params = OfdmParams::dot11a();
    let n_sizes = match size {
        Size::Full => 24,
        Size::Smoke => 3,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let plan = FloorPlan::testbed();
    let positions: Vec<_> = (0..=TRANSMITTERS)
        .map(|_| plan.random_position(&mut rng))
        .collect();
    let mut net = Network::build(
        &mut rng,
        &params,
        &positions,
        &ChannelModels::testbed(&params),
    );
    let table = PerTable::analytic();
    let tx = Transmitter::new(params.clone());
    let mut tx_ws = TxWorkspace::new(&params);
    let period = params.sample_period_fs();
    let receiver = NodeId(0);

    let mut inputs = Inputs {
        rx: Receiver::new(params.clone()),
        ws: RxWorkspace::new(&params),
        pool: Vec::new(),
        tx_frames: 0,
        tx_ns: 0,
        capture_samples: 0,
        capture_ns: 0,
    };
    let mut k = 0;
    for &rate in &RATES {
        let threshold = threshold_db(&table, rate);
        for offset in [BELOW_DB, ABOVE_DB] {
            for &bytes in &frame_sizes(n_sizes) {
                let sender = NodeId(1 + k % TRANSMITTERS);
                k += 1;
                let frame = mac_frame(&mut rng, bytes);
                let psdu = crc::append_crc(&frame.to_bytes());
                let mut wave = Vec::new();
                let (ns, ()) =
                    timed(|| tx.frame_waveform_into(&psdu, rate, 0, &mut tx_ws, &mut wave));
                inputs.tx_ns += ns;
                inputs.tx_frames += 1;

                net.pin_snr_db(sender, receiver, threshold + offset);
                net.medium.clear_transmissions();
                let window = 2 * MARGIN + wave.len() + 200;
                net.medium
                    .transmit(sender, Time(MARGIN as u64 * period), wave);
                let (ns, samples) =
                    timed(|| net.medium.capture(&mut rng, receiver, Time::ZERO, window));
                inputs.capture_ns += ns;
                inputs.capture_samples += window as u64;
                inputs.pool.push(Capture {
                    samples,
                    frame,
                    psdu_bytes: psdu.len(),
                });
            }
        }
    }
    // Seed-shuffled issue order, so neighbouring units differ in rate and
    // size the way a listener's traffic does.
    for i in (1..inputs.pool.len()).rev() {
        inputs.pool.swap(i, rng.gen_range(0..=i));
    }
    let warm = unit(&mut inputs, 0);
    assert!(
        check(&inputs.pool[0], &warm),
        "warm-up unit failed its check"
    );
    inputs
}

/// One unit: receive, MAC CRC, MAC parse.
fn unit(inputs: &mut Inputs, i: usize) -> RxOutcome {
    let Inputs { rx, ws, pool, .. } = inputs;
    match rx.receive_with(&pool[i].samples, ws) {
        Ok(res) => match crc::check_crc(&res.payload).and_then(MacFrame::from_bytes) {
            Some(frame) => RxOutcome::Decoded(frame),
            None => RxOutcome::MacParseFail,
        },
        Err(e) => RxOutcome::Lost(e),
    }
}

/// The output check: a frame that passed CRC must equal the bytes sent.
/// A lost frame is an outcome, not a failure.
fn check(capture: &Capture, out: &RxOutcome) -> bool {
    match out {
        RxOutcome::Decoded(frame) => *frame == capture.frame,
        RxOutcome::Lost(_) | RxOutcome::MacParseFail => true,
    }
}

/// The untraced closed loop over the pool, from unit number `first` on.
pub fn run(inputs: &mut Inputs, seconds: f64, first: u64, host: &mut HostSpeed) -> UnitLog {
    let n = inputs.pool.len();
    closed_loop(seconds, 1, host, |i| {
        let k = (first + i) as usize % n;
        let (ns, out) = timed(|| unit(inputs, k));
        (ns, check(&inputs.pool[k], &out))
    })
}

/// Per-layer counts of one pass over the pool (deterministic per seed).
#[derive(Default)]
struct Counts {
    /// Frames offered to the receiver.
    frames: u64,
    /// Frames that passed both CRCs and parsed.
    decoded: u64,
    /// Receive-chain errors by kind.
    no_packet: u64,
    bad_signal: u64,
    bad_crc: u64,
    truncated: u64,
    /// PHY frames whose MAC CRC or parse failed.
    mac_parse_fail: u64,
}

/// The traced closed loop: each call gets its own span. The first pass
/// over the pool always completes and is counted; timings use every
/// traced unit.
pub fn run_traced(
    inputs: &mut Inputs,
    seconds: f64,
    host: &mut HostSpeed,
    rec: &mut Recorder,
    out: &mut Vec<Metric>,
) -> UnitLog {
    let n = inputs.pool.len();
    let mut counts = Counts::default();
    let (mut rx_ns, mut rx_samples, mut rx_frames) = (0u64, 0u64, 0u64);
    let (mut decoded_ns, mut decoded_bits) = (0u64, 0u64);
    let log = closed_loop(seconds, n as u64, host, |i| {
        let k = i as usize % n;
        rec.set_unit(Some(i));
        let unit_span = rec.begin("rx.unit");
        let Inputs { rx, ws, pool, .. } = &mut *inputs;
        let capture = &pool[k];
        let (res, ns) = rec.span("phy.receive_with", || rx.receive_with(&capture.samples, ws));
        let outcome = match res {
            Ok(res) => {
                let (mac, _) = rec.span("phy.check_crc", || crc::check_crc(&res.payload));
                let (frame, _) = rec.span("mac.from_bytes", || mac.and_then(MacFrame::from_bytes));
                match frame {
                    Some(f) => RxOutcome::Decoded(f),
                    None => RxOutcome::MacParseFail,
                }
            }
            Err(e) => RxOutcome::Lost(e),
        };
        let unit_ns = rec.end(unit_span);
        rx_ns += ns;
        rx_samples += capture.samples.len() as u64;
        rx_frames += 1;
        if let RxOutcome::Decoded(_) = outcome {
            decoded_ns += ns;
            decoded_bits += 8 * capture.psdu_bytes as u64;
        }
        if (i as usize) < n {
            counts.frames += 1;
            match &outcome {
                RxOutcome::Decoded(_) => counts.decoded += 1,
                RxOutcome::MacParseFail => counts.mac_parse_fail += 1,
                RxOutcome::Lost(RxError::NoPacket) => counts.no_packet += 1,
                RxOutcome::Lost(RxError::BadSignal(_)) => counts.bad_signal += 1,
                RxOutcome::Lost(RxError::BadCrc(_)) => counts.bad_crc += 1,
                RxOutcome::Lost(RxError::Truncated(_)) => counts.truncated += 1,
            }
        }
        (unit_ns, check(capture, &outcome))
    });
    out.push(Metric::new(
        "phy.rx.us_per_frame",
        rx_ns as f64 * 1e-3 / rx_frames.max(1) as f64,
        "us",
    ));
    out.push(Metric::new(
        "phy.rx.ns_per_sample",
        rx_ns as f64 / rx_samples.max(1) as f64,
        "ns",
    ));
    out.push(Metric::new(
        "phy.rx.ns_per_decoded_bit",
        decoded_ns as f64 / decoded_bits.max(1) as f64,
        "ns",
    ));
    out.push(Metric::new(
        "phy.tx.us_per_frame",
        inputs.tx_ns as f64 * 1e-3 / inputs.tx_frames.max(1) as f64,
        "us",
    ));
    out.push(Metric::new(
        "sim.capture.ns_per_sample",
        inputs.capture_ns as f64 / inputs.capture_samples.max(1) as f64,
        "ns",
    ));
    push_counts(&counts, out);
    log
}

fn push_counts(c: &Counts, out: &mut Vec<Metric>) {
    out.push(Metric::new("phy.rx.frames", c.frames as f64, "count"));
    out.push(Metric::new("phy.rx.decoded", c.decoded as f64, "count"));
    out.push(Metric::new(
        "phy.rx.decoded_ratio",
        c.decoded as f64 / c.frames.max(1) as f64,
        "ratio",
    ));
    out.push(Metric::new(
        "phy.rx.err.no_packet",
        c.no_packet as f64,
        "count",
    ));
    out.push(Metric::new(
        "phy.rx.err.bad_signal",
        c.bad_signal as f64,
        "count",
    ));
    out.push(Metric::new("phy.rx.err.bad_crc", c.bad_crc as f64, "count"));
    out.push(Metric::new(
        "phy.rx.err.truncated",
        c.truncated as f64,
        "count",
    ));
    out.push(Metric::new(
        "mac.parse_fail",
        c.mac_parse_fail as f64,
        "count",
    ));
}
