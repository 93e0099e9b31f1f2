//! Modem integration tests: the full TX → channel → RX chain over the
//! fading substrate, at the level a link-layer consumer cares about.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sourcesync::channel::{
    add_awgn, Link, Multipath, MultipathProfile, Oscillator, PropagationScratch,
};
use sourcesync::dsp::rng::ComplexGaussian;
use sourcesync::dsp::Complex64;
use sourcesync::phy::modulation::DemapTable;
use sourcesync::phy::{
    Detection, Modulation, OfdmParams, RateId, Receiver, RxDiagnostics, RxError, Transmitter,
};

/// FNV-1a over little-endian words: the pinned-hash accumulator.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn feed(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.feed(v.to_bits());
    }

    fn complex(&mut self, v: Complex64) {
        self.f64(v.re);
        self.f64(v.im);
    }

    /// The receive diagnostics a link-layer consumer reads.
    fn diag(&mut self, diag: &RxDiagnostics) {
        self.f64(diag.evm_snr_db);
        self.f64(diag.mean_snr_db);
        self.f64(diag.timing_offset_samples);
        for v in &diag.per_carrier_snr_db {
            self.f64(*v);
        }
    }

    fn detection(&mut self, d: &Detection) {
        self.feed(d.detect_idx as u64);
        self.feed(d.lts_start as u64);
        self.f64(d.cfo_hz);
        self.f64(d.lts_quality);
    }
}

/// TX → link → AWGN: a seeded capture of one 500-byte frame, with the
/// payload it carries.
fn capture(
    seed: u64,
    rate: RateId,
    snr_db: f64,
    multipath: bool,
    cfo_hz: f64,
    delay_frac: f64,
) -> (Vec<Complex64>, Vec<u8>) {
    let params = OfdmParams::dot11a();
    let tx = Transmitter::new(params.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let payload: Vec<u8> = (0..500).map(|_| rng.gen()).collect();
    let wave = tx.frame_waveform(&payload, rate, 0);
    let mp = if multipath {
        MultipathProfile::testbed(params.sample_rate_hz).draw(&mut rng)
    } else {
        Multipath::identity()
    };
    let link = Link {
        amplitude_gain: sourcesync::dsp::stats::linear_from_db(snr_db).sqrt() / mp.power().sqrt(),
        multipath: mp,
        delay_fs: (delay_frac * params.sample_period_fs() as f64) as u64,
        cfo_hz,
    };
    let mut scratch = PropagationScratch::default();
    let (tx_start, period) = (300 * params.sample_period_fs(), params.sample_period_fs());
    let (base, len) = link.delivered_span(wave.len(), tx_start, period);
    let (rxwave, start) = link.propagate_into(
        &wave,
        tx_start,
        period,
        base..base + len as u64,
        &mut scratch,
    );
    let mut buf = vec![Complex64::ZERO; start as usize + rxwave.len() + 400];
    buf[start as usize..start as usize + rxwave.len()].copy_from_slice(rxwave);
    add_awgn(&mut rng, &mut buf, 1.0);
    (buf, payload)
}

/// TX → link → AWGN → RX, returning whether the payload survived.
fn one_packet(
    seed: u64,
    rate: RateId,
    snr_db: f64,
    multipath: bool,
    cfo_hz: f64,
    delay_frac: f64,
) -> bool {
    let (buf, payload) = capture(seed, rate, snr_db, multipath, cfo_hz, delay_frac);
    match Receiver::new(OfdmParams::dot11a()).receive(&buf) {
        Ok(res) => res.payload == payload,
        Err(_) => false,
    }
}

#[test]
fn high_snr_survives_everything_at_once() {
    // Multipath + CFO + fractional delay + 30 dB noise, all rates.
    for (i, rate) in [RateId::R6, RateId::R12, RateId::R24]
        .into_iter()
        .enumerate()
    {
        let mut ok = 0;
        for seed in 0..6u64 {
            if one_packet(1000 + seed + i as u64 * 100, rate, 30.0, true, 40e3, 0.37) {
                ok += 1;
            }
        }
        assert!(ok >= 5, "{rate:?}: only {ok}/6 at 30 dB over fading");
    }
}

#[test]
fn per_is_monotone_in_snr() {
    let rate = RateId::R24;
    let mut success_by_snr = Vec::new();
    for snr in [8.0, 14.0, 20.0, 28.0] {
        let mut ok = 0;
        for seed in 0..12u64 {
            if one_packet(2000 + seed + (snr as u64) * 37, rate, snr, false, 0.0, 0.0) {
                ok += 1;
            }
        }
        success_by_snr.push(ok);
    }
    assert!(
        success_by_snr.windows(2).all(|w| w[0] <= w[1]),
        "success counts not monotone: {success_by_snr:?}"
    );
    assert_eq!(*success_by_snr.last().unwrap(), 12, "28 dB should be clean");
    assert_eq!(success_by_snr[0], 0, "8 dB should fail for 16-QAM 1/2");
}

#[test]
fn oscillator_offsets_within_spec_are_handled() {
    // ±20 ppm at 5.3 GHz = ±106 kHz: the worst legal pairing must decode.
    let worst = Oscillator::with_ppm(20.0).cfo_to_hz(&Oscillator::with_ppm(-20.0));
    assert!(worst > 200e3, "worst-case CFO {worst}");
    // The detector's range covers ±2 subcarrier spacings (±625 kHz at
    // 20 Msps), so even the doubled offset decodes.
    let mut ok = 0;
    for seed in 0..6u64 {
        if one_packet(3000 + seed, RateId::R12, 28.0, false, worst, 0.0) {
            ok += 1;
        }
    }
    assert!(ok >= 5, "only {ok}/6 with worst-case CFO");
}

#[test]
fn truncation_and_garbage_do_not_panic() {
    let params = OfdmParams::dot11a();
    let rx = Receiver::new(params.clone());
    let mut rng = StdRng::seed_from_u64(9);
    // Garbage of various lengths.
    for len in [0usize, 1, 63, 64, 1000, 5000] {
        let buf: Vec<Complex64> = (0..len)
            .map(|_| Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        match rx.receive(&buf) {
            Ok(_)
            | Err(RxError::NoPacket)
            | Err(RxError::Truncated(_))
            | Err(RxError::BadSignal(_))
            | Err(RxError::BadCrc(_)) => {}
        }
    }
    // A real frame cut at every quarter.
    let tx = Transmitter::new(params);
    let wave = tx.frame_waveform(&[7u8; 200], RateId::R12, 0);
    let mut buf = vec![Complex64::ZERO; 200];
    buf.extend(wave);
    for cut in [buf.len() / 4, buf.len() / 2, 3 * buf.len() / 4] {
        let _ = rx.receive(&buf[..cut]);
    }
}

/// The full receive chain pinned to exact bits: this test compiles in every
/// feature mode, so the `simd` and scalar builds (and the runtime AVX2 tier
/// on hosts that have it) must all reproduce these constants for the suite
/// to pass in both CI jobs — a cross-build differential test without
/// cross-build plumbing.
#[test]
fn full_chain_bits_are_build_invariant() {
    let params = OfdmParams::dot11a();
    let tx = Transmitter::new(params.clone());
    let rx = Receiver::new(params.clone());
    let mut rng = StdRng::seed_from_u64(2024);
    let payload: Vec<u8> = (0..700).map(|_| rng.gen()).collect();
    let wave = tx.frame_waveform(&payload, RateId::R24, 0);
    let noise = ComplexGaussian::with_power(1e-3);
    let mut buf = noise.sample_vec(&mut rng, 200);
    buf.extend(wave);
    buf.extend(noise.sample_vec(&mut rng, 200));

    let res = rx.receive(&buf).expect("seeded frame decodes");
    assert_eq!(res.payload, payload);

    // FNV-1a over the diagnostic bits: any cross-kernel divergence anywhere
    // in the chain (correlator, FFT, demap, Viterbi, EVM) changes this hash.
    let mut hash = Fnv::new();
    hash.diag(&res.diag);
    assert_eq!(
        hash.0, PINNED_DIAG_HASH,
        "receive-chain bits diverged from the pinned capture \
         (evm={:.12}, mean={:.12})",
        res.diag.evm_snr_db, res.diag.mean_snr_db
    );
}

/// Pinned by running the seeded capture above on the scalar build; the simd
/// build must reproduce it exactly.
const PINNED_DIAG_HASH: u64 = 12792249986871947276;

/// SNRs per rate, in dB: below, near and above the rate's decode
/// threshold over the testbed's multipath, so the pinned outcomes cover
/// CRC failures as well as clean decodes at every modulation.
fn pin_snrs(rate: RateId) -> [f64; 3] {
    let base = match rate {
        RateId::R6 => 3.0,
        RateId::R9 => 5.0,
        RateId::R12 => 6.0,
        RateId::R18 => 9.0,
        RateId::R24 => 12.0,
        RateId::R36 => 16.0,
        RateId::R48 => 20.0,
        RateId::R54 => 22.0,
    };
    [base - 2.0, base + 2.0, base + 10.0]
}

/// [`full_chain_bits_are_build_invariant`] at every rate: seeded noisy
/// multipath frames at R6–R54, some of which fail their CRC. The hash
/// covers each outcome's variant, its diagnostics (or detection) and the
/// decoded payload, so any change to a receive-chain kernel's bits —
/// detection, FFT, channel estimate, demap, EVM, Viterbi — shows up.
#[test]
fn all_rates_receive_chain_bits_are_build_invariant() {
    let rx = Receiver::new(OfdmParams::dot11a());
    let mut hash = Fnv::new();
    let (mut decoded, mut bad_crc) = (0, 0);
    for (i, rate) in RateId::ALL.into_iter().enumerate() {
        for (j, snr) in pin_snrs(rate).into_iter().enumerate() {
            let seed = 7000 + 10 * i as u64 + j as u64;
            let (buf, payload) = capture(seed, rate, snr, true, 30e3, 0.41);
            match rx.receive(&buf) {
                Ok(res) => {
                    decoded += 1;
                    hash.feed(0);
                    hash.diag(&res.diag);
                    assert_eq!(res.payload, payload, "{rate:?} at {snr} dB");
                    for b in &res.payload {
                        hash.feed(*b as u64);
                    }
                }
                Err(RxError::BadCrc(diag)) => {
                    bad_crc += 1;
                    hash.feed(1);
                    hash.diag(&diag);
                }
                Err(RxError::BadSignal(d)) => {
                    hash.feed(2);
                    hash.detection(&d);
                }
                Err(RxError::Truncated(d)) => {
                    hash.feed(3);
                    hash.detection(&d);
                }
                Err(RxError::NoPacket) => hash.feed(4),
            }
        }
    }
    assert!(decoded >= 8, "only {decoded} of 24 frames decoded");
    assert!(bad_crc >= 4, "only {bad_crc} of 24 frames failed their CRC");
    assert_eq!(
        hash.0, PINNED_ALL_RATES_HASH,
        "all-rates receive-chain bits diverged from the pinned captures"
    );
}

/// Pinned from the seeded captures above; every build and kernel tier
/// must reproduce it exactly.
const PINNED_ALL_RATES_HASH: u64 = 7990516213451300345;

/// Seeded `(y, h, n0)` demap inputs plus fixed edge cases: signed zeros,
/// a zero channel, a received symbol exactly midway between two points,
/// points far outside the constellation and the `n0` floor.
fn demap_grid() -> Vec<(Complex64, Complex64, f64)> {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut grid = Vec::new();
    for _ in 0..600 {
        let h = Complex64::from_polar(rng.gen_range(0.05..3.0), rng.gen_range(-3.2..3.2));
        let y = Complex64::new(rng.gen_range(-2.5..2.5), rng.gen_range(-2.5..2.5));
        let n0 = [1e-3, 0.05, 0.7, 0.0][rng.gen_range(0..4usize)];
        grid.push((y, h, n0));
    }
    let k64 = 1.0 / 42f64.sqrt();
    for (y, h) in [
        (Complex64::ZERO, Complex64::ONE),
        (Complex64::new(-0.0, -0.0), Complex64::ONE),
        (Complex64::new(0.3, -0.2), Complex64::ZERO),
        (Complex64::new(2.0 * k64, 0.0), Complex64::ONE),
        (Complex64::new(2.0 * k64, -4.0 * k64), Complex64::ONE),
        (Complex64::new(40.0, -35.0), Complex64::new(0.5, 0.5)),
        (Complex64::new(1e-300, -1e-300), Complex64::new(1e-3, 0.0)),
    ] {
        grid.push((y, h, 0.1));
    }
    grid
}

/// The `DemapTable` kernels pinned to exact bits: every LLR and every
/// nearest point over [`demap_grid`] for all four modulations. The whole
/// grid is one symbol through the per-symbol demap, each carrier with its
/// own channel and noise, in demapper order (identity placement).
#[test]
fn demap_table_bits_are_build_invariant() {
    let mut hash = Fnv::new();
    let grid = demap_grid();
    let y: Vec<Complex64> = grid.iter().map(|g| g.0).collect();
    let h: Vec<Complex64> = grid.iter().map(|g| g.1).collect();
    let n0: Vec<f64> = grid.iter().map(|g| g.2).collect();
    for m in [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ] {
        let mut table = DemapTable::new(m);
        let bps = m.bits_per_symbol();
        let place: Vec<u32> = (0..(grid.len() * bps) as u32).collect();
        let mut llrs = vec![0.0; place.len()];
        table.demap_symbol(&y, &h, &n0, &place, &mut llrs);
        for (carrier, (&y, &h)) in llrs.chunks_exact(bps).zip(y.iter().zip(&h)) {
            for v in carrier {
                hash.f64(*v);
            }
            hash.complex(table.nearest(y, h));
        }
    }
    assert_eq!(hash.0, PINNED_DEMAP_HASH, "demap bits diverged");
}

/// Pinned from the grid above.
const PINNED_DEMAP_HASH: u64 = 1586342438918732750;
