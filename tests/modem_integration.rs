//! Modem integration tests: the full TX → channel → RX chain over the
//! fading substrate, at the level a link-layer consumer cares about.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sourcesync::channel::{
    add_awgn, Link, Multipath, MultipathProfile, Oscillator, PropagationScratch,
};
use sourcesync::dsp::rng::ComplexGaussian;
use sourcesync::dsp::Complex64;
use sourcesync::phy::{OfdmParams, RateId, Receiver, RxError, Transmitter};

/// TX → link → AWGN → RX, returning whether the payload survived.
fn one_packet(
    seed: u64,
    rate: RateId,
    snr_db: f64,
    multipath: bool,
    cfo_hz: f64,
    delay_frac: f64,
) -> bool {
    let params = OfdmParams::dot11a();
    let tx = Transmitter::new(params.clone());
    let rx = Receiver::new(params.clone());
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
    let (rxwave, start) = link.propagate_into(
        &wave,
        300 * params.sample_period_fs(),
        params.sample_period_fs(),
        &mut scratch,
    );
    let mut buf = vec![Complex64::ZERO; start as usize + rxwave.len() + 400];
    buf[start as usize..start as usize + rxwave.len()].copy_from_slice(rxwave);
    add_awgn(&mut rng, &mut buf, 1.0);
    match rx.receive(&buf) {
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
    let mut hash = 0xcbf29ce484222325u64;
    let mut feed = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    };
    feed(res.diag.evm_snr_db.to_bits());
    feed(res.diag.mean_snr_db.to_bits());
    feed(res.diag.timing_offset_samples.to_bits());
    for v in &res.diag.per_carrier_snr_db {
        feed(v.to_bits());
    }
    assert_eq!(
        hash, PINNED_DIAG_HASH,
        "receive-chain bits diverged from the pinned capture \
         (evm={:.12}, mean={:.12})",
        res.diag.evm_snr_db, res.diag.mean_snr_db
    );
}

/// Pinned by running the seeded capture above on the scalar build; the simd
/// build must reproduce it exactly.
const PINNED_DIAG_HASH: u64 = 12792249986871947276;
