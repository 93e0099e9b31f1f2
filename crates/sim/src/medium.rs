//! The shared wireless medium at sample resolution.
//!
//! Every transmission is a complex baseband waveform placed on the ether at
//! an absolute femtosecond start time. A receiver capturing a window sees
//! the *superposition* of every transmission propagated through its
//! per-pair [`Link`] (gain, multipath, CFO, fractional delay) plus AWGN at
//! unit noise power — exactly the composite-channel physics of paper §5.
//!
//! All nodes share the ether sample grid; clock *frequency* offsets are
//! modelled (CFO), per-node sampling-phase offsets are not (documented
//! simplification in DESIGN.md — their effect is a constant sub-sample
//! delay absorbed by the same phase-slope machinery under test).

use crate::node::NodeId;
use crate::time::Time;
use rand::Rng;
use ssync_channel::{add_awgn, Link, PropagationScratch};
use ssync_dsp::Complex64;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One transmission on the ether.
#[derive(Debug, Clone)]
pub struct Transmission {
    /// The transmitting node.
    pub tx: NodeId,
    /// Ether time of the first waveform sample.
    pub start: Time,
    /// The unit-power baseband waveform.
    pub waveform: Arc<Vec<Complex64>>,
}

/// The sample-level medium.
#[derive(Debug, Default)]
pub struct WaveformMedium {
    /// Sample period, femtoseconds.
    pub sample_period_fs: u64,
    // BTreeMap (not HashMap) so link iteration order — should any future
    // code iterate — is the canonical key order, per the determinism
    // contract (ssync_lint `nondet-iteration`).
    links: BTreeMap<(NodeId, NodeId), Link>,
    transmissions: Vec<Transmission>,
    /// Receiver noise power (unit convention: link gains already fold the
    /// power budget in, so this is 1.0 unless an experiment scales it).
    pub noise_power: f64,
    // Pooled propagation buffers: one scratch serves every link, so the
    // steady-state capture path performs no per-transmission allocation.
    scratch: PropagationScratch,
    // Lifetime accounting: how many times a capture actually ran a link
    // propagation (the regression hook proving non-overlapping
    // transmissions are skipped).
    propagate_calls: u64,
}

impl WaveformMedium {
    /// An empty medium on a sample grid.
    pub fn new(sample_period_fs: u64) -> Self {
        WaveformMedium {
            sample_period_fs,
            links: BTreeMap::new(),
            transmissions: Vec::new(),
            noise_power: 1.0,
            scratch: PropagationScratch::default(),
            propagate_calls: 0,
        }
    }

    /// Installs the directed link `tx → rx`.
    pub fn set_link(&mut self, tx: NodeId, rx: NodeId, link: Link) {
        self.links.insert((tx, rx), link);
    }

    /// The directed link `tx → rx`, if any.
    pub fn link(&self, tx: NodeId, rx: NodeId) -> Option<&Link> {
        self.links.get(&(tx, rx))
    }

    /// Mutable link access (experiments that perturb delays — mobility).
    pub fn link_mut(&mut self, tx: NodeId, rx: NodeId) -> Option<&mut Link> {
        self.links.get_mut(&(tx, rx))
    }

    /// All installed directed links, in canonical `(tx, rx)` key order
    /// (the iteration the region-partitioning and subnetwork extraction
    /// machinery is built on).
    pub fn links(&self) -> impl Iterator<Item = (&(NodeId, NodeId), &Link)> {
        self.links.iter()
    }

    /// Places a waveform on the ether. A shared waveform
    /// (`Arc<Vec<Complex64>>`) is placed without a copy, so a frame sent
    /// to several exchanges or retried is built once.
    ///
    /// # Panics
    /// Panics if `start` is not on the sample grid (transmitters can only
    /// start on their clock ticks; callers use [`Time::ceil_to_sample`]).
    pub fn transmit(&mut self, tx: NodeId, start: Time, waveform: impl Into<Arc<Vec<Complex64>>>) {
        assert_eq!(
            start.0 % self.sample_period_fs,
            0,
            "transmission start {start} not on the sample grid"
        );
        self.transmissions.push(Transmission {
            tx,
            start,
            waveform: waveform.into(),
        });
    }

    /// Removes all transmissions (reuse the topology for the next trial).
    pub fn clear_transmissions(&mut self) {
        self.transmissions.clear();
    }

    /// All transmissions currently on the ether.
    pub fn transmissions(&self) -> &[Transmission] {
        &self.transmissions
    }

    /// Lifetime count of actual link propagations run by captures. The
    /// regression hook for the capture extent check: capturing a window no
    /// transmission overlaps must leave this counter unchanged.
    pub fn propagate_count(&self) -> u64 {
        self.propagate_calls
    }

    /// Captures `n_samples` at receiver `rx` starting at ether time `from`
    /// (which must lie on the sample grid): superposition of all
    /// transmissions with a `tx → rx` link, plus AWGN.
    ///
    /// Each transmission's delivered extent is predicted from the link
    /// delay *before* propagating ([`Link::delivered_span`]), so
    /// transmissions that cannot overlap the window cost an integer
    /// comparison, not a multipath/CFO/interpolation pass. A transmission
    /// that overlaps the window only in part is propagated only over the
    /// part inside it ([`Link::propagate_into`] computes just the samples
    /// a window reads). The superposition adds the transmissions in the
    /// order they were placed, so the output bits are those of
    /// propagating every transmission whole and clipping it to the window.
    /// The returned buffer is the only allocation once the medium's
    /// propagation scratch has grown to the working size. The noise costs
    /// `rng` exactly one word, whatever `n_samples` is (see
    /// [`add_awgn`]).
    pub fn capture<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        rx: NodeId,
        from: Time,
        n_samples: usize,
    ) -> Vec<Complex64> {
        assert_eq!(
            from.0 % self.sample_period_fs,
            0,
            "capture start not on the sample grid"
        );
        let from_sample = from.0 / self.sample_period_fs;
        let end_sample = from_sample + n_samples as u64;
        let mut buf = vec![Complex64::ZERO; n_samples];
        let WaveformMedium {
            sample_period_fs,
            links,
            transmissions,
            scratch,
            propagate_calls,
            ..
        } = self;
        for t in transmissions.iter() {
            if t.tx == rx {
                continue; // half-duplex: a node does not hear itself
            }
            let Some(link) = links.get(&(t.tx, rx)) else {
                continue;
            };
            let (base, out_len) =
                link.delivered_span(t.waveform.len(), t.start.0, *sample_period_fs);
            if base >= end_sample || base + out_len as u64 <= from_sample {
                continue; // no overlap with [from_sample, end_sample)
            }
            *propagate_calls += 1;
            let (rx_wave, lo) = link.propagate_into(
                &t.waveform,
                t.start.0,
                *sample_period_fs,
                from_sample..end_sample,
                scratch,
            );
            let at = (lo - from_sample) as usize;
            for (b, s) in buf[at..at + rx_wave.len()].iter_mut().zip(rx_wave) {
                *b += *s;
            }
        }
        add_awgn(rng, &mut buf, self.noise_power);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const PERIOD: u64 = 50_000_000; // 20 Msps

    fn quiet_medium() -> WaveformMedium {
        let mut m = WaveformMedium::new(PERIOD);
        m.noise_power = 0.0;
        m
    }

    #[test]
    fn single_link_delivery() {
        let mut m = quiet_medium();
        m.set_link(NodeId(0), NodeId(1), Link::ideal());
        m.transmit(
            NodeId(0),
            Time(2 * PERIOD),
            vec![Complex64::ONE, Complex64::J],
        );
        let buf = m.capture(&mut StdRng::seed_from_u64(1), NodeId(1), Time::ZERO, 6);
        assert!(buf[0].abs() < 1e-12);
        assert!(buf[2].dist(Complex64::ONE) < 1e-12);
        assert!(buf[3].dist(Complex64::J) < 1e-12);
    }

    #[test]
    fn no_link_means_silence() {
        let mut m = quiet_medium();
        m.transmit(NodeId(0), Time::ZERO, vec![Complex64::ONE; 4]);
        let buf = m.capture(&mut StdRng::seed_from_u64(2), NodeId(1), Time::ZERO, 4);
        assert!(buf.iter().all(|s| s.abs() < 1e-12));
    }

    #[test]
    fn half_duplex_self_silence() {
        let mut m = quiet_medium();
        m.set_link(NodeId(0), NodeId(0), Link::ideal());
        m.transmit(NodeId(0), Time::ZERO, vec![Complex64::ONE; 4]);
        let buf = m.capture(&mut StdRng::seed_from_u64(3), NodeId(0), Time::ZERO, 4);
        assert!(buf.iter().all(|s| s.abs() < 1e-12));
    }

    #[test]
    fn superposition_of_two_senders() {
        let mut m = quiet_medium();
        m.set_link(NodeId(0), NodeId(2), Link::ideal());
        m.set_link(NodeId(1), NodeId(2), Link::ideal());
        m.transmit(NodeId(0), Time::ZERO, vec![Complex64::ONE; 4]);
        m.transmit(NodeId(1), Time::ZERO, vec![Complex64::J; 4]);
        let buf = m.capture(&mut StdRng::seed_from_u64(4), NodeId(2), Time::ZERO, 4);
        for s in &buf {
            assert!(s.dist(Complex64::new(1.0, 1.0)) < 1e-12);
        }
    }

    #[test]
    fn staggered_transmissions_offset_in_buffer() {
        let mut m = quiet_medium();
        m.set_link(NodeId(0), NodeId(2), Link::ideal());
        m.set_link(NodeId(1), NodeId(2), Link::ideal());
        m.transmit(NodeId(0), Time::ZERO, vec![Complex64::ONE; 2]);
        m.transmit(NodeId(1), Time(3 * PERIOD), vec![Complex64::ONE; 2]);
        let buf = m.capture(&mut StdRng::seed_from_u64(5), NodeId(2), Time::ZERO, 6);
        assert!(buf[0].abs() > 0.9 && buf[1].abs() > 0.9);
        assert!(buf[2].abs() < 1e-12);
        assert!(buf[3].abs() > 0.9 && buf[4].abs() > 0.9);
        assert!(buf[5].abs() < 1e-12);
    }

    #[test]
    fn propagation_delay_shifts_arrival() {
        let mut m = quiet_medium();
        let mut link = Link::ideal();
        link.delay_fs = 5 * PERIOD; // exactly 5 samples
        m.set_link(NodeId(0), NodeId(1), link);
        m.transmit(NodeId(0), Time::ZERO, vec![Complex64::ONE]);
        let buf = m.capture(&mut StdRng::seed_from_u64(6), NodeId(1), Time::ZERO, 8);
        for (i, s) in buf.iter().enumerate() {
            if i == 5 {
                assert!(s.dist(Complex64::ONE) < 1e-12);
            } else {
                assert!(s.abs() < 1e-12, "sample {i} not silent");
            }
        }
    }

    #[test]
    fn capture_window_clips_transmission() {
        let mut m = quiet_medium();
        m.set_link(NodeId(0), NodeId(1), Link::ideal());
        m.transmit(NodeId(0), Time::ZERO, vec![Complex64::ONE; 10]);
        // Window starts inside the transmission.
        let buf = m.capture(
            &mut StdRng::seed_from_u64(7),
            NodeId(1),
            Time(5 * PERIOD),
            10,
        );
        for (i, s) in buf.iter().enumerate() {
            if i < 5 {
                assert!(s.abs() > 0.9, "sample {i}");
            } else {
                assert!(s.abs() < 1e-12, "sample {i}");
            }
        }
    }

    #[test]
    fn noise_present_by_default() {
        let mut m = WaveformMedium::new(PERIOD);
        m.set_link(NodeId(0), NodeId(1), Link::ideal());
        let buf = m.capture(&mut StdRng::seed_from_u64(8), NodeId(1), Time::ZERO, 10_000);
        let p = ssync_dsp::complex::mean_power(&buf);
        assert!((p - 1.0).abs() < 0.05, "noise power {p}");
    }

    #[test]
    #[should_panic(expected = "sample grid")]
    fn off_grid_transmit_rejected() {
        let mut m = quiet_medium();
        m.transmit(NodeId(0), Time(1), vec![Complex64::ONE]);
    }

    #[test]
    fn capture_skips_non_overlapping_transmissions() {
        // The regression for the propagate-everything bug: a capture whose
        // window no transmission overlaps must not run a single link
        // propagation, and the cost of a real capture must not grow with
        // stale history outside its window.
        let mut m = quiet_medium();
        m.set_link(NodeId(0), NodeId(1), Link::ideal());
        for k in 0..100 {
            m.transmit(NodeId(0), Time(k * 10 * PERIOD), vec![Complex64::ONE; 4]);
        }
        assert_eq!(m.propagate_count(), 0);
        // A window past all 100 transmissions: zero propagations.
        let far = Time(5_000 * PERIOD);
        let buf = m.capture(&mut StdRng::seed_from_u64(20), NodeId(1), far, 16);
        assert_eq!(m.propagate_count(), 0, "non-overlapping propagated");
        assert!(buf.iter().all(|s| s.abs() < 1e-12));
        // A window covering exactly one transmission: exactly one.
        let buf = m.capture(
            &mut StdRng::seed_from_u64(21),
            NodeId(1),
            Time(10 * PERIOD),
            4,
        );
        assert_eq!(m.propagate_count(), 1, "capture cost depends on history");
        assert!(buf[0].dist(Complex64::ONE) < 1e-12);
    }

    #[test]
    fn capture_advances_the_rng_by_one_word() {
        let mut m = WaveformMedium::new(PERIOD);
        m.set_link(NodeId(0), NodeId(1), Link::ideal());
        m.transmit(NodeId(0), Time::ZERO, vec![Complex64::ONE; 300]);
        for n in [1, 1_000, 10_000] {
            let mut rng = StdRng::seed_from_u64(30);
            let _ = m.capture(&mut rng, NodeId(1), Time::ZERO, n);
            let mut reference = StdRng::seed_from_u64(30);
            reference.gen::<u64>();
            assert_eq!(rng.gen::<u64>(), reference.gen::<u64>(), "window {n}");
        }
    }

    #[test]
    fn capture_bits_unchanged_by_stale_history() {
        // Superposition output with non-overlapping history present must be
        // bit-identical to the same capture on a fresh medium: the skipped
        // transmissions contributed exactly zero before the fix.
        let mk = |with_history: bool| {
            let mut m = WaveformMedium::new(PERIOD);
            let mut link = Link::ideal();
            link.delay_fs = PERIOD / 3; // off-grid: exercises the interpolator
            link.cfo_hz = 20e3;
            m.set_link(NodeId(0), NodeId(1), link);
            if with_history {
                for k in 0..50 {
                    m.transmit(NodeId(0), Time(k * 20 * PERIOD), vec![Complex64::J; 8]);
                }
            }
            m.transmit(NodeId(0), Time(2_000 * PERIOD), vec![Complex64::ONE; 16]);
            m.capture(
                &mut StdRng::seed_from_u64(22),
                NodeId(1),
                Time(2_000 * PERIOD),
                64,
            )
        };
        let (fresh, stale) = (mk(false), mk(true));
        for (a, b) in fresh.iter().zip(&stale) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    /// FNV-1a over the bits of every sample, folded into `hash`.
    fn fnv_samples(hash: &mut u64, buf: &[Complex64]) {
        for s in buf {
            for word in [s.re.to_bits(), s.im.to_bits()] {
                for byte in word.to_le_bytes() {
                    *hash ^= byte as u64;
                    *hash = hash.wrapping_mul(0x100000001b3);
                }
            }
        }
    }

    #[test]
    fn capture_bits_pinned_over_window_grid() {
        // Windows that clip a transmission at its start, at its end and on
        // both sides, windows narrower than the interpolator kernel, and
        // windows that hold every transmission whole — across on- and
        // off-grid delays, 1 and 5 taps, unit and non-unit gain, zero and
        // nonzero CFO, and noise power 0 and 1. A second sender overlaps
        // the first, so the superposition order is pinned too.
        use ssync_channel::Multipath;
        use ssync_dsp::rng::ComplexGaussian;
        let mut rng = StdRng::seed_from_u64(40);
        let gauss = ComplexGaussian::unit();
        let wave_a = gauss.sample_vec(&mut rng, 160);
        let wave_b = gauss.sample_vec(&mut rng, 96);
        let five = Multipath::from_taps(gauss.sample_vec(&mut rng, 5));
        let other = Link {
            amplitude_gain: 0.8,
            multipath: five.clone(),
            delay_fs: 7 * PERIOD + 9_000_000,
            cfo_hz: -21e3,
        };
        // Sender 0 lands from sample 103 (to 263..283 by taps and grid),
        // sender 1 on [187, 303).
        let windows: [(u64, usize); 8] = [
            (0, 50),
            (90, 40),
            (103, 1),
            (150, 20),
            (120, 120),
            (250, 60),
            (262, 3),
            (80, 260),
        ];
        let mut hash = 0xcbf29ce484222325u64;
        for noise_power in [0.0, 1.0] {
            for delay_fs in [3 * PERIOD, 3 * PERIOD + 18_500_000] {
                for multipath in [Multipath::identity(), five.clone()] {
                    for amplitude_gain in [1.0, 0.6] {
                        for cfo_hz in [0.0, 37e3] {
                            let mut m = WaveformMedium::new(PERIOD);
                            m.noise_power = noise_power;
                            let link = Link {
                                amplitude_gain,
                                multipath: multipath.clone(),
                                delay_fs,
                                cfo_hz,
                            };
                            m.set_link(NodeId(0), NodeId(2), link);
                            m.set_link(NodeId(1), NodeId(2), other.clone());
                            m.transmit(NodeId(0), Time(100 * PERIOD), wave_a.clone());
                            m.transmit(NodeId(1), Time(180 * PERIOD), wave_b.clone());
                            for (from, n) in windows {
                                let mut noise = StdRng::seed_from_u64(from);
                                let buf = m.capture(&mut noise, NodeId(2), Time(from * PERIOD), n);
                                assert_eq!(buf.len(), n);
                                fnv_samples(&mut hash, &buf);
                            }
                            hash ^= m.propagate_count();
                            hash = hash.wrapping_mul(0x100000001b3);
                        }
                    }
                }
            }
        }
        assert_eq!(hash, PINNED_CAPTURE_HASH, "capture bits diverged: {hash}");
    }

    /// Re-pinned with the keyed channel noise and the block-anchored CFO
    /// mixer; identical on the simd and scalar builds.
    const PINNED_CAPTURE_HASH: u64 = 2340729742912649392;

    #[test]
    fn clear_transmissions_resets() {
        let mut m = quiet_medium();
        m.set_link(NodeId(0), NodeId(1), Link::ideal());
        m.transmit(NodeId(0), Time::ZERO, vec![Complex64::ONE]);
        m.clear_transmissions();
        assert!(m.transmissions().is_empty());
        let buf = m.capture(&mut StdRng::seed_from_u64(9), NodeId(1), Time::ZERO, 2);
        assert!(buf.iter().all(|s| s.abs() < 1e-12));
    }
}
