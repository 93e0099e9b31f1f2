//! Criterion microbenchmarks of the signal-path hot spots and the
//! synchronizer's solver.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssync_channel::MultipathProfile;
use ssync_core::{joint_data_waveform_into, CombineWorkspace, DataSectionSpec};
use ssync_dsp::rng::ComplexGaussian;
use ssync_dsp::{Complex64, FftPlan};
use ssync_linprog::MisalignmentProblem;
use ssync_phy::modulation::DemapTable;
use ssync_phy::{
    DetectScratch, Modulation, OfdmParams, RateId, Receiver, Transmitter, TxWorkspace,
};
use ssync_stbc::Codeword;

fn bench_fft(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let gauss = ComplexGaussian::unit();
    for n in [64usize, 128] {
        let fft = FftPlan::new(n);
        let input = gauss.sample_vec(&mut rng, n);
        c.bench_function(&format!("fft_forward_{n}"), |b| {
            b.iter_batched(
                || input.clone(),
                |mut buf| fft.forward(&mut buf),
                BatchSize::SmallInput,
            )
        });
    }
    // The transmitter's per-symbol transform.
    let fft = FftPlan::new(64);
    let input = gauss.sample_vec(&mut rng, 64);
    c.bench_function("fft_inverse_64", |b| {
        b.iter_batched(
            || input.clone(),
            |mut buf| fft.inverse(&mut buf),
            BatchSize::SmallInput,
        )
    });
}

fn bench_viterbi(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let info: Vec<u8> = (0..1000).map(|_| rng.gen_range(0..2u8)).collect();
    let mut bits = info.clone();
    bits.extend([0u8; 6]);
    let coded = ssync_phy::convcode::encode_half(&bits);
    let llrs = ssync_phy::viterbi::llrs_from_bits(&coded);
    c.bench_function("viterbi_decode_1000bits", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            assert!(
                ssync_phy::viterbi::ViterbiDecoder::new().decode_terminated_into(&llrs, &mut out)
            );
            out
        })
    });
    // Noisy soft LLRs over the trellis steps of a 1500 B frame's DATA field
    // (16 SERVICE bits, the PSDU, 6 tail bits), through one reused decoder
    // as the receiver's workspace holds it.
    let info: Vec<u8> = (0..16 + 8 * 1500).map(|_| rng.gen_range(0..2u8)).collect();
    let mut bits = info.clone();
    bits.extend([0u8; 6]);
    let coded = ssync_phy::convcode::encode_half(&bits);
    let gauss = ssync_dsp::rng::Gaussian::standard();
    let sigma = 0.8;
    let llrs: Vec<f64> = coded
        .iter()
        .map(|&c| {
            let tx = if c == 0 { 1.0 } else { -1.0 };
            2.0 * (tx + sigma * gauss.sample(&mut rng)) / (sigma * sigma)
        })
        .collect();
    let mut decoder = ssync_phy::viterbi::ViterbiDecoder::new();
    let mut out = Vec::new();
    c.bench_function("viterbi_decode_soft_12k", |b| {
        b.iter(|| {
            assert!(decoder.decode_terminated_into(&llrs, &mut out));
            out.len()
        })
    });
}

fn bench_full_frame(c: &mut Criterion) {
    let params = OfdmParams::dot11a();
    let tx = Transmitter::new(params.clone());
    let rx = Receiver::new(params.clone());
    let mut rng = StdRng::seed_from_u64(3);
    let payload: Vec<u8> = (0..1460).map(|_| rng.gen()).collect();

    c.bench_function("tx_frame_1460B_r24", |b| {
        b.iter(|| tx.frame_waveform(&payload, RateId::R24, 0))
    });

    // The transmitter as every sender drives it: through a warm workspace
    // into a reused waveform buffer.
    let mut tx_ws = TxWorkspace::new(&params);
    let mut wave = Vec::new();
    c.bench_function("tx_frame_1460B_r12", |b| {
        b.iter(|| {
            tx.frame_waveform_into(&payload, RateId::R12, 0, &mut tx_ws, &mut wave);
            wave.len()
        })
    });

    let wave = tx.frame_waveform(&payload, RateId::R24, 0);
    let noise = ComplexGaussian::with_power(1e-3);
    let mut buf: Vec<Complex64> = noise.sample_vec(&mut rng, 200);
    buf.extend(wave);
    buf.extend(noise.sample_vec(&mut rng, 200));
    for (i, s) in buf.iter_mut().enumerate() {
        if i >= 200 {
            *s += noise.sample(&mut rng);
        }
    }
    c.bench_function("rx_frame_1460B_r24", |b| {
        b.iter(|| rx.receive(&buf).expect("decodes"))
    });

    let wave = tx.frame_waveform(&payload, RateId::R54, 0);
    let quiet = ComplexGaussian::with_power(1e-4);
    let mut buf: Vec<Complex64> = quiet.sample_vec(&mut rng, 200);
    buf.extend(wave);
    buf.extend(quiet.sample_vec(&mut rng, 200));
    for s in buf.iter_mut().skip(200) {
        *s += quiet.sample(&mut rng);
    }
    c.bench_function("rx_frame_1460B_r54", |b| {
        b.iter(|| rx.receive(&buf).expect("decodes"))
    });

    // BPSK and QPSK frames carry most of the benchmark's receive symbols.
    let wave = tx.frame_waveform(&payload, RateId::R6, 0);
    let mut buf: Vec<Complex64> = noise.sample_vec(&mut rng, 200);
    buf.extend(wave);
    buf.extend(noise.sample_vec(&mut rng, 200));
    for s in buf.iter_mut().skip(200) {
        *s += noise.sample(&mut rng);
    }
    c.bench_function("rx_frame_1460B_r6", |b| {
        b.iter(|| rx.receive(&buf).expect("decodes"))
    });
}

/// Noisy received symbols over random channels: one OFDM symbol's worth
/// of received values and channels (48 data carriers).
fn demap_inputs(m: Modulation, rng: &mut StdRng) -> (Vec<Complex64>, Vec<Complex64>) {
    let noise = ComplexGaussian::with_power(0.05);
    let points = ssync_phy::modulation::constellation(m);
    (0..48)
        .map(|_| {
            let h = Complex64::from_polar(rng.gen_range(0.3..2.0), rng.gen_range(-3.1..3.1));
            let x = points[rng.gen_range(0..points.len())].1;
            (h * x + noise.sample(rng), h)
        })
        .unzip()
}

fn bench_demap(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    for (m, name) in [
        (Modulation::Bpsk, "bpsk"),
        (Modulation::Qpsk, "qpsk"),
        (Modulation::Qam16, "qam16"),
        (Modulation::Qam64, "qam64"),
    ] {
        let (ys, hs) = demap_inputs(m, &mut rng);
        let table = DemapTable::new(m);
        let n0 = vec![0.05; ys.len()];
        let place: Vec<u32> = (0..(ys.len() * m.bits_per_symbol()) as u32).collect();
        let mut llrs = vec![0.0; place.len()];
        c.bench_function(&format!("demap_llrs_{name}"), |b| {
            b.iter(|| {
                table.demap_symbol(&ys, &hs, &n0, &place, &mut llrs);
                llrs[0]
            })
        });
    }
    // The decision-directed EVM of one symbol: carriers already equalised,
    // as the receiver and the combiner pass them.
    for (m, name) in [
        (Modulation::Bpsk, "bpsk"),
        (Modulation::Qpsk, "qpsk"),
        (Modulation::Qam16, "qam16"),
        (Modulation::Qam64, "qam64"),
    ] {
        let (ys, hs) = demap_inputs(m, &mut rng);
        let equalised: Vec<Complex64> = ys.iter().zip(&hs).map(|(y, h)| *y / *h).collect();
        let mut table = DemapTable::new(m);
        c.bench_function(&format!("evm_nearest_{name}"), |b| {
            b.iter(|| {
                let (mut err, mut sig) = (0.0, 0.0);
                table.evm_into(&equalised, &mut err, &mut sig);
                (err, sig)
            })
        });
    }
}

fn bench_detection(c: &mut Criterion) {
    let params = OfdmParams::dot11a();
    let fft = FftPlan::new(params.fft_size);
    let det = ssync_phy::Detector::new(&params, &fft);
    let pre = ssync_phy::preamble::preamble_waveform(&params, &fft);
    let mut rng = StdRng::seed_from_u64(4);
    let mut buf = ComplexGaussian::with_power(0.01).sample_vec(&mut rng, 4000);
    for (i, s) in pre.iter().enumerate() {
        buf[1000 + i] += *s;
    }
    c.bench_function("packet_detect_4k_samples", |b| {
        b.iter(|| {
            det.detect_with(&params, &buf, 0, &mut DetectScratch::new())
                .expect("detects")
        })
    });
}

fn bench_alamouti(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let gauss = ComplexGaussian::unit();
    let xs = gauss.sample_vec(&mut rng, 96);
    let h_a = gauss.sample(&mut rng);
    let h_b = gauss.sample(&mut rng);
    let sa = ssync_stbc::encode_stream(ssync_stbc::Codeword::A, &xs);
    let sb = ssync_stbc::encode_stream(ssync_stbc::Codeword::B, &xs);
    let ys: Vec<Complex64> = sa
        .iter()
        .zip(&sb)
        .map(|(a, b)| h_a * *a + h_b * *b)
        .collect();
    c.bench_function("alamouti_decode_96syms", |b| {
        b.iter(|| ssync_stbc::decode_stream(&ys, h_a, h_b))
    });
}

/// Both Alamouti roles of a joint frame's data section, 260 B at R12,
/// through one warm workspace: the PSDU changes every iteration, so each
/// one codes a fresh frame and modulates both roles.
fn bench_joint_data(c: &mut Criterion) {
    let params = OfdmParams::dot11a();
    let fft = FftPlan::new(params.fft_size);
    let mut rng = StdRng::seed_from_u64(10);
    let mut psdu: Vec<u8> = (0..260).map(|_| rng.gen()).collect();
    let spec = DataSectionSpec {
        rate: RateId::R12,
        cp_len: params.cp_len,
        smart_combiner: true,
        pilot_sharing: true,
    };
    let mut ws = CombineWorkspace::new(&params);
    let mut wave = Vec::new();
    c.bench_function("tx_joint_data_260B_r12", |b| {
        b.iter(|| {
            psdu[0] = psdu[0].wrapping_add(1);
            for role in [Codeword::A, Codeword::B] {
                joint_data_waveform_into(&params, &fft, &psdu, role, &spec, &mut ws, &mut wave);
            }
            wave.len()
        })
    });
}

fn bench_wait_lp(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let problem = MisalignmentProblem {
        lead_delays: (0..4).map(|_| rng.gen_range(10e-9..300e-9)).collect(),
        cosender_delays: (0..4)
            .map(|_| (0..4).map(|_| rng.gen_range(10e-9..300e-9)).collect())
            .collect(),
    };
    c.bench_function("wait_lp_4co_4rx", |b| b.iter(|| problem.solve()));
}

fn bench_fractional_delay(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let sig = ComplexGaussian::unit().sample_vec(&mut rng, 2000);
    c.bench_function("fractional_delay_2k_samples", |b| {
        b.iter(|| ssync_dsp::delay::fractional_delay(&sig, 0.37))
    });
}

/// The two per-sample channel kernels every capture runs: receiver noise
/// and the CFO mixer, over a 4096-sample buffer (divide by 4096 for the
/// per-sample cost).
fn bench_channel_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let mut buf = vec![Complex64::ZERO; 4096];
    c.bench_function("awgn_4k_samples", |b| {
        b.iter(|| ssync_channel::add_awgn(&mut rng, &mut buf, 1.0))
    });
    c.bench_function("cfo_mix_4k_samples", |b| {
        b.iter(|| ssync_dsp::mixer::apply_cfo_from(&mut buf, 123e3, 20e6, 0.37, 1_001))
    });
}

/// The capture's multipath convolution and the detector's fine-timing
/// search: a testbed-profile channel (40 ns RMS spread at 20 Msps) over
/// 1500 samples, and the LTS cross-correlation over the 448-sample window
/// `Detector::detect_with` searches (385 lags of the 64-sample LTS).
fn bench_capture_and_detect_kernels(c: &mut Criterion) {
    let params = OfdmParams::dot11a();
    let mut rng = StdRng::seed_from_u64(9);
    let gauss = ComplexGaussian::unit();
    let channel = MultipathProfile::testbed(params.sample_rate_hz).draw(&mut rng);
    let input = gauss.sample_vec(&mut rng, 1500);
    let full = 0..input.len() + channel.taps.len() - 1;
    let mut out = Vec::new();
    c.bench_function("multipath_1500_samples", |b| {
        b.iter(|| {
            channel.apply_into(&input, full.clone(), &mut out);
            out.len()
        })
    });

    let fft = FftPlan::new(params.fft_size);
    let lts = ssync_phy::preamble::lts_symbol(&params, &fft);
    let mut window = ComplexGaussian::with_power(0.01).sample_vec(&mut rng, 448);
    let pre = ssync_phy::preamble::preamble_waveform(&params, &fft);
    for (w, s) in window[32..].iter_mut().zip(&pre) {
        *w += *s;
    }
    let mut xc = Vec::new();
    c.bench_function("lts_xcorr_448_samples", |b| {
        b.iter(|| {
            ssync_dsp::correlate::normalized_cross_correlate_into(&window, &lts, &mut xc);
            xc.len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_fft, bench_viterbi, bench_full_frame, bench_demap, bench_detection, bench_alamouti, bench_joint_data, bench_wait_lp, bench_fractional_delay, bench_channel_kernels, bench_capture_and_detect_kernels
}
criterion_main!(benches);
