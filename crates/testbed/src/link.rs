//! The waveform link layer: MAC frames as real modulated captures.
//!
//! Every testbed frame — DATA, ACK, batch map — is an actual OFDM
//! waveform placed on the [`WaveformMedium`](ssync_sim::WaveformMedium)
//! and recovered by the real receive chain at every listener, so
//! delivery, collisions and capture effects *emerge* from superposition
//! and SNR instead of being drawn from a PER table. A CRC-32 guards the
//! MAC bytes (the PHY frame alone would let Viterbi hallucinate payloads
//! out of noise).

use rand::Rng;
use ssync_dsp::Complex64;
use ssync_mac::MacFrame;
use ssync_obs::{Counter, RxDiagSummary};
use ssync_phy::workspace::{RxWorkspace, TxWorkspace};
use ssync_phy::{crc, Params, RateId, Receiver, Transmitter};
use ssync_sim::{Duration, Network, NodeId, Time};
use std::sync::Arc;

/// Broadcast MAC address (ExOR data frames, batch maps).
pub const BROADCAST: u16 = 0xFFFF;

/// Noise-only margin (samples) captured around every frame.
pub const CAPTURE_MARGIN: usize = 400;

/// The planned modem machinery one testbed run reuses for every frame.
///
/// [`Modem::exchange`] is its one decode entry point. All receive-side
/// scratch lives in one owned [`RxWorkspace`], and the transmit side's in
/// one [`TxWorkspace`], so every frame built and every per-listener
/// decode reuses warm buffers instead of re-allocating the modem
/// workspace per frame.
pub struct Modem {
    params: Params,
    tx: Transmitter,
    rx: Receiver,
    ws: RxWorkspace,
    tx_ws: TxWorkspace,
    /// Counts [`Modem::exchange`] calls with an empty transmission set —
    /// an upstream scheduling bug this layer used to zero out silently.
    empty_tx_batches: Counter,
}

impl Modem {
    /// Plans the modem for one numerology.
    pub fn new(params: Params) -> Self {
        Modem {
            tx: Transmitter::new(params.clone()),
            rx: Receiver::new(params.clone()),
            ws: RxWorkspace::new(&params),
            tx_ws: TxWorkspace::new(&params),
            params,
            empty_tx_batches: Counter::default(),
        }
    }

    /// The numerology.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Rebinds the empty-transmission-set counter to a registry-owned
    /// cell, so runs that carry a [`ssync_obs::MetricRegistry`] see the
    /// anomaly in their snapshot instead of a private field.
    pub fn set_empty_exchange_counter(&mut self, counter: Counter) {
        self.empty_tx_batches = counter;
    }

    /// How many exchanges arrived with no transmitters at all.
    pub fn empty_exchange_count(&self) -> u64 {
        self.empty_tx_batches.get()
    }

    /// Serialises a MAC frame into a CRC-protected PHY waveform, shared so
    /// that retries and exchanges place it on the medium without a copy.
    pub fn mac_waveform(&mut self, frame: &MacFrame, rate: RateId) -> Arc<Vec<Complex64>> {
        let mut wave = Vec::new();
        self.tx.frame_waveform_into(
            &crc::append_crc(&frame.to_bytes()),
            rate,
            0,
            &mut self.tx_ws,
            &mut wave,
        );
        Arc::new(wave)
    }

    /// On-air duration of `n_samples` at this numerology.
    pub fn samples_duration(&self, n_samples: usize) -> Duration {
        Duration::from_samples(n_samples as u64, self.params.sample_period_fs())
    }

    /// One broadcast air instance: clears the medium, places every
    /// `(sender, waveform)` at the same sample-grid start (colliders share
    /// a backoff slot — their relative arrival offsets come from the
    /// per-link propagation delays), then lets every `listener` capture
    /// and decode the superposition. Returns, per listener, the MAC frame
    /// and the receive chain's diagnostics summary if detection, the full
    /// receive chain, CRC and MAC parse all succeeded; `None` on any
    /// failure.
    pub fn exchange<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        transmissions: &[(NodeId, Arc<Vec<Complex64>>)],
        listeners: &[NodeId],
    ) -> Vec<(NodeId, Option<(MacFrame, RxDiagSummary)>)> {
        let period = self.params.sample_period_fs();
        let t0 = Time((CAPTURE_MARGIN as u64) * period);
        let longest = match transmissions.iter().map(|(_, w)| w.len()).max() {
            Some(longest) => longest,
            None => {
                // No transmitters: every capture below is pure noise. That
                // is a legal (if suspicious) exchange, but it used to read
                // as a zero-length frame — count it instead of hiding it.
                self.empty_tx_batches.inc();
                0
            }
        };
        net.medium.clear_transmissions();
        for (tx, wave) in transmissions {
            net.medium.transmit(*tx, t0, Arc::clone(wave));
        }
        let window = CAPTURE_MARGIN * 2 + longest + 200;
        // Every delivered extent (t0 + frame + multipath and interpolator
        // spill) must end inside the capture window, or a listener would
        // decode a truncated frame.
        debug_assert!(
            transmissions.iter().all(|(tx, wave)| {
                listeners.iter().all(|&l| {
                    net.medium.link(*tx, l).is_none_or(|link| {
                        let (base, len) = link.delivered_span(wave.len(), t0.0, period);
                        base + len as u64 <= window as u64
                    })
                })
            }),
            "transmission extent outlived its exchange window"
        );
        // Capture in listener order and decode each capture through the
        // one owned workspace. Each capture takes exactly one word of
        // `rng`, its noise key, whatever the window length, so capture
        // order fixes which listener gets which key but a window change
        // moves no later protocol draw.
        let decoded = listeners
            .iter()
            .map(|&l| {
                let capture = net.medium.capture(rng, l, Time::ZERO, window);
                let decoded = match self.rx.receive_with(&capture, &mut self.ws) {
                    Ok(res) => crc::check_crc(&res.payload)
                        .and_then(MacFrame::from_bytes)
                        .map(|frame| (frame, res.diag.summary())),
                    Err(_) => None,
                };
                (l, decoded)
            })
            .collect();
        // The exchange epoch is over: the next one starts from an empty
        // ether.
        net.medium.clear_transmissions();
        decoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssync_channel::Position;
    use ssync_mac::DataFrame;
    use ssync_phy::OfdmParams;
    use ssync_sim::ChannelModels;

    fn net(seed: u64) -> Network {
        let params = OfdmParams::dot11a();
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(10.0, 0.0),
            Position::new(5.0, 7.0),
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        Network::build(
            &mut rng,
            &params,
            &positions,
            &ChannelModels::clean(&params),
        )
    }

    fn data_frame(src: u16, seq: u16) -> MacFrame {
        MacFrame::Data(DataFrame {
            src,
            dst: BROADCAST,
            seq,
            retry: false,
            payload: (0..40)
                .map(|i| (i as u8).wrapping_mul(src as u8 + 1))
                .collect(),
        })
    }

    #[test]
    fn clean_link_delivers_mac_frame() {
        let mut n = net(1);
        n.pin_snr_db(NodeId(0), NodeId(1), 25.0);
        let mut modem = Modem::new(n.params.clone());
        let frame = data_frame(0, 7);
        let wave = modem.mac_waveform(&frame, RateId::R12);
        let mut rng = StdRng::seed_from_u64(2);
        let out = modem.exchange(&mut n, &mut rng, &[(NodeId(0), wave)], &[NodeId(1)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.as_ref().map(|(got, _)| got), Some(&frame));
    }

    #[test]
    fn dead_link_delivers_nothing() {
        let mut n = net(3);
        n.pin_snr_db(NodeId(0), NodeId(1), -25.0);
        let mut modem = Modem::new(n.params.clone());
        let wave = modem.mac_waveform(&data_frame(0, 1), RateId::R12);
        let mut rng = StdRng::seed_from_u64(4);
        let out = modem.exchange(&mut n, &mut rng, &[(NodeId(0), wave)], &[NodeId(1)]);
        assert!(out[0].1.is_none());
    }

    #[test]
    fn collision_with_capture_effect() {
        // Two simultaneous senders: the much stronger one captures the
        // receiver; with near-equal powers the collision destroys both.
        let mut n = net(5);
        let mut modem = Modem::new(n.params.clone());
        let f0 = data_frame(0, 1);
        let f1 = data_frame(1, 2);
        let mut rng = StdRng::seed_from_u64(6);

        let both = [
            (NodeId(0), modem.mac_waveform(&f0, RateId::R12)),
            (NodeId(1), modem.mac_waveform(&f1, RateId::R12)),
        ];

        n.pin_snr_db(NodeId(0), NodeId(2), 30.0);
        n.pin_snr_db(NodeId(1), NodeId(2), 0.0);
        let out = modem.exchange(&mut n, &mut rng, &both, &[NodeId(2)]);
        assert_eq!(
            out[0].1.as_ref().map(|(got, _)| got),
            Some(&f0),
            "strong frame should capture"
        );

        n.pin_snr_db(NodeId(0), NodeId(2), 15.0);
        n.pin_snr_db(NodeId(1), NodeId(2), 15.0);
        let out = modem.exchange(&mut n, &mut rng, &both, &[NodeId(2)]);
        assert!(out[0].1.is_none(), "balanced collision should destroy both");
    }

    #[test]
    fn exchange_reports_link_quality() {
        let mut n = net(7);
        n.pin_snr_db(NodeId(0), NodeId(1), 25.0);
        let mut modem = Modem::new(n.params.clone());
        let frame = data_frame(0, 3);
        let wave = modem.mac_waveform(&frame, RateId::R12);
        let mut rng = StdRng::seed_from_u64(8);
        let out = modem.exchange(&mut n, &mut rng, &[(NodeId(0), wave)], &[NodeId(1)]);
        let (got, diag) = out[0].1.as_ref().expect("clean link decodes");
        assert_eq!(got, &frame);
        assert!(diag.mean_snr_db > 10.0, "{diag:?}");
        assert!(diag.evm_snr_db > 5.0, "{diag:?}");
    }

    #[test]
    fn empty_transmission_set_is_counted_not_zeroed() {
        let mut n = net(11);
        let mut modem = Modem::new(n.params.clone());
        let mut rng = StdRng::seed_from_u64(12);
        assert_eq!(modem.empty_exchange_count(), 0);
        let out = modem.exchange(&mut n, &mut rng, &[], &[NodeId(0), NodeId(1)]);
        assert_eq!(modem.empty_exchange_count(), 1);
        assert!(out.iter().all(|(_, d)| d.is_none()));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "transmission extent outlived its exchange window")]
    fn frame_ending_past_the_window_trips_the_span_check() {
        // The exchange clears the ether after its captures, which is sound
        // only if every delivered extent ends inside the capture window: a
        // listener link delayed past the window must trip the check.
        let mut n = net(13);
        let mut modem = Modem::new(n.params.clone());
        let wave = modem.mac_waveform(&data_frame(0, 1), RateId::R12);
        let window = (CAPTURE_MARGIN * 2 + wave.len() + 200) as u64;
        let link = n.medium.link_mut(NodeId(0), NodeId(1)).expect("link");
        link.delay_fs += window * n.params.sample_period_fs();
        let mut rng = StdRng::seed_from_u64(14);
        modem.exchange(&mut n, &mut rng, &[(NodeId(0), wave)], &[NodeId(1)]);
    }

    #[test]
    fn corrupted_capture_fails_crc_not_parse() {
        // A strong transmitter sending pure noise instead of a frame must
        // never yield a MAC frame at a listener.
        let mut n = net(9);
        n.pin_snr_db(NodeId(0), NodeId(1), 25.0);
        let mut modem = Modem::new(n.params.clone());
        let mut rng = StdRng::seed_from_u64(9);
        let noise: Vec<Complex64> = (0..4000)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let out = modem.exchange(&mut n, &mut rng, &[(NodeId(0), noise.into())], &[NodeId(1)]);
        assert!(out[0].1.is_none());
    }
}
