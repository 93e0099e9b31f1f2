//! Property-based tests (proptest) on the core data structures and
//! invariants of the workspace.

use proptest::prelude::*;
use sourcesync::core::wire::SYNC_HEADER_LEN;
use sourcesync::core::{SyncHeader, WireError};
use sourcesync::dsp::{Complex64, FftPlan};
use sourcesync::linprog::MisalignmentProblem;
use sourcesync::mac::{AckFrame, DataFrame, MacFrame};
use sourcesync::phy::modulation::DemapTable;
use sourcesync::phy::params::CodeRate;
use sourcesync::phy::scramble::Scrambler;
use sourcesync::phy::{
    convcode, frame, interleave::Interleaver, viterbi, Modulation, OfdmParams, RateId,
};
use sourcesync::sim::{Duration, Time};
use sourcesync::stbc::{decode_pair, encode_pair, Codeword};

fn arb_complex() -> impl Strategy<Value = Complex64> {
    (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| Complex64::new(re, im))
}

/// Any well-formed DATA or ACK frame (finite feedback values, so frames
/// compare equal after a round trip).
fn arb_mac_frame() -> impl Strategy<Value = MacFrame> {
    (
        any::<bool>(),
        (any::<u16>(), any::<u16>(), any::<u16>(), any::<bool>()),
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::collection::vec(any::<f64>(), 0..8),
    )
        .prop_map(|(is_data, (src, dst, seq, retry), payload, feedback)| {
            if is_data {
                MacFrame::Data(DataFrame {
                    src,
                    dst,
                    seq,
                    retry,
                    payload,
                })
            } else {
                MacFrame::Ack(AckFrame {
                    dst,
                    seq,
                    misalign_feedback_s: feedback,
                })
            }
        })
}

fn arb_sync_header() -> impl Strategy<Value = SyncHeader> {
    (
        (any::<u16>(), any::<u16>()),
        0u8..8,
        any::<u16>(),
        any::<u8>(),
        any::<u8>(),
    )
        .prop_map(
            |((lead, packet_id), rate_idx, psdu_len, cp_extension, n_cosenders)| SyncHeader {
                lead,
                packet_id,
                rate: RateId::from_index(rate_idx).unwrap(),
                psdu_len,
                cp_extension,
                n_cosenders,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_roundtrip_any_signal(values in proptest::collection::vec(arb_complex(), 64)) {
        let fft = FftPlan::new(64);
        let back = fft.inverse_to_vec(&fft.forward_to_vec(&values));
        for (a, b) in values.iter().zip(&back) {
            prop_assert!(a.dist(*b) < 1e-9);
        }
    }

    #[test]
    fn fft_linearity(a in proptest::collection::vec(arb_complex(), 64),
                     b in proptest::collection::vec(arb_complex(), 64)) {
        let fft = FftPlan::new(64);
        let fa = fft.forward_to_vec(&a);
        let fb = fft.forward_to_vec(&b);
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fsum = fft.forward_to_vec(&sum);
        for i in 0..64 {
            prop_assert!(fsum[i].dist(fa[i] + fb[i]) < 1e-9);
        }
    }

    #[test]
    fn crc_rejects_any_corruption(
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        byte_idx in any::<usize>(),
        bit in 0u8..8,
    ) {
        let framed = sourcesync::phy::crc::append_crc(&payload);
        let mut bad = framed.clone();
        let idx = byte_idx % bad.len();
        bad[idx] ^= 1 << bit;
        prop_assert_eq!(sourcesync::phy::crc::check_crc(&bad), None);
        prop_assert_eq!(sourcesync::phy::crc::check_crc(&framed), Some(&payload[..]));
    }

    #[test]
    fn interleaver_bijective_roundtrip(
        modulation in prop::sample::select(vec![
            Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64
        ]),
        wiglan in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Interleave, then de-interleave the block as hard-decision LLRs
        // (bit 0 -> +1, bit 1 -> -1) and slice them back to bits.
        let params = if wiglan { OfdmParams::wiglan() } else { OfdmParams::dot11a() };
        let il = Interleaver::new(&params, modulation);
        let bits: Vec<u8> = (0..il.block_len())
            .map(|i| ((seed >> (i % 64)) & 1) as u8)
            .collect();
        let llrs: Vec<f64> = il
            .interleave(&bits)
            .iter()
            .map(|b| if *b == 0 { 1.0 } else { -1.0 })
            .collect();
        let mut back = Vec::new();
        il.deinterleave_llrs_append(&llrs, &mut back);
        let sliced: Vec<u8> = back.iter().map(|l| u8::from(*l < 0.0)).collect();
        prop_assert_eq!(sliced, bits);
    }

    #[test]
    fn alamouti_decodes_any_channel(
        x0 in arb_complex(), x1 in arb_complex(),
        h_a in arb_complex(), h_b in arb_complex(),
    ) {
        prop_assume!(h_a.norm_sqr() + h_b.norm_sqr() > 1e-6);
        let (a0, a1) = encode_pair(Codeword::A, x0, x1);
        let (b0, b1) = encode_pair(Codeword::B, x0, x1);
        let y0 = h_a * a0 + h_b * b0;
        let y1 = h_a * a1 + h_b * b1;
        let d = decode_pair(y0, y1, h_a, h_b);
        prop_assert!(d.x0.dist(x0) < 1e-6, "{:?} vs {:?}", d.x0, x0);
        prop_assert!(d.x1.dist(x1) < 1e-6);
    }

    #[test]
    fn signal_field_roundtrip(
        rate_idx in 0u8..8,
        length in any::<u16>(),
        flags in 0u8..8,
    ) {
        let sig = frame::SignalField {
            rate: RateId::from_index(rate_idx).unwrap(),
            length,
            flags,
        };
        prop_assert_eq!(frame::SignalField::from_bits(&sig.to_bits()), Some(sig));
    }

    #[test]
    fn data_pipeline_roundtrip_clean(
        payload in proptest::collection::vec(any::<u8>(), 0..120),
        rate_idx in 0u8..8,
    ) {
        let params = OfdmParams::dot11a();
        let rate = RateId::from_index(rate_idx).unwrap();
        let table = DemapTable::new(rate.modulation());
        let syms = frame::encode_data(&params, &payload, rate);
        let ones = vec![Complex64::ONE; params.n_data()];
        let n0 = vec![1e-3; params.n_data()];
        let mut scratch = frame::DecodeScratch::new();
        let stream = scratch.mother_stream(&params, rate, syms.len());
        for (sym, block) in syms.iter().zip(stream.blocks) {
            table.demap_symbol(sym, &ones, &n0, stream.place, block);
        }
        let decoded = frame::decode_data_with(&mut scratch, payload.len());
        prop_assert_eq!(decoded.as_deref(), Some(&payload[..]));
    }

    #[test]
    fn minimax_lp_never_beaten_by_naive(
        lead in proptest::collection::vec(1e-9f64..400e-9, 1..4),
        co_flat in proptest::collection::vec(1e-9f64..400e-9, 1..10),
    ) {
        let n_rx = lead.len();
        let n_co = (co_flat.len() / n_rx).max(1);
        let co: Vec<Vec<f64>> = (0..n_co)
            .map(|i| (0..n_rx).map(|j| co_flat[(i * n_rx + j) % co_flat.len()]).collect())
            .collect();
        let p = MisalignmentProblem { lead_delays: lead.clone(), cosender_delays: co.clone() };
        let sol = p.solve();
        // Naive: align at receiver 0 only.
        let naive: Vec<f64> = (0..n_co).map(|i| lead[0] - co[i][0]).collect();
        prop_assert!(sol.max_misalignment <= p.misalignment_of(&naive) + 1e-9);
        // Zero waits are also never better.
        let zeros = vec![0.0; n_co];
        prop_assert!(sol.max_misalignment <= p.misalignment_of(&zeros) + 1e-9);
    }

    // ---- Workspace-API round trips: the same invariants the allocating
    // paths above rely on, driven through the `_into`/`_append`/workspace
    // entry points with deliberately stale buffers. ----

    #[test]
    fn interleaver_into_roundtrip_and_matches_legacy(
        modulation in prop::sample::select(vec![
            Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64
        ]),
        wiglan in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let params = if wiglan { OfdmParams::wiglan() } else { OfdmParams::dot11a() };
        let il = Interleaver::new(&params, modulation);
        let bits: Vec<u8> = (0..il.block_len())
            .map(|i| ((seed >> (i % 64)) & 1) as u8)
            .collect();
        // Bijective round trip: interleave, then de-interleave the block as
        // LLRs through the append path.
        let inter = il.interleave(&bits);
        let llrs: Vec<f64> = inter.iter().map(|b| *b as f64 - 0.5).collect();
        let mut appended = vec![7.0f64; 2]; // pre-existing prefix is kept
        il.deinterleave_llrs_append(&llrs, &mut appended);
        prop_assert_eq!(&appended[..2], &[7.0, 7.0][..]);
        let want: Vec<f64> = bits.iter().map(|b| *b as f64 - 0.5).collect();
        prop_assert_eq!(&appended[2..], &want[..]);
    }

    #[test]
    fn scramble_is_an_involution_and_seed_sensitive(
        data in proptest::collection::vec(0u8..2, 1..300),
        seed in 1u8..128,
    ) {
        // scramble(scramble(x)) == x for any seed (XOR with the same LFSR
        // stream twice), driven through the in-place workspace-style API.
        let mut bits = data.clone();
        Scrambler::new(seed).scramble_in_place(&mut bits);
        let whitened = bits.clone();
        Scrambler::new(seed).scramble_in_place(&mut bits);
        prop_assert_eq!(&bits, &data);
        // And the builder-style API agrees with the in-place one.
        prop_assert_eq!(Scrambler::new(seed).scramble(&data), whitened);
    }

    #[test]
    fn convcode_into_pipeline_roundtrips_through_viterbi(
        info in proptest::collection::vec(0u8..2, 1..120),
        rate in prop::sample::select(vec![
            CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters
        ]),
    ) {
        // Pad to a puncturing-period multiple (as the frame layer does),
        // append the tail, then run encode→puncture→depuncture→viterbi,
        // the receive side through stale reused buffers.
        let (num, _) = rate.ratio();
        let mut bits = info.clone();
        while !(bits.len() + convcode::TAIL_BITS).is_multiple_of(num * 2) {
            bits.push(0);
        }
        bits.extend(std::iter::repeat_n(0, convcode::TAIL_BITS));
        let coded = convcode::encode_half(&bits);
        let punct = convcode::puncture(&coded, rate);
        let llrs: Vec<f64> = punct.iter().map(|b| if *b == 0 { 1.0 } else { -1.0 }).collect();
        let mut mother = vec![9.0f64; 5]; // stale content must be cleared
        convcode::depuncture_llr_into(&llrs, rate, coded.len(), &mut mother);
        let mut fresh = Vec::new();
        convcode::depuncture_llr_into(&llrs, rate, coded.len(), &mut fresh);
        prop_assert_eq!(&mother, &fresh);
        let mut decoded = vec![1u8; 7];
        let mut dec = viterbi::ViterbiDecoder::new();
        prop_assert!(dec.decode_terminated_into(&mother, &mut decoded), "terminated trellis");
        prop_assert_eq!(&decoded[..info.len()], &info[..]);
    }

    #[test]
    fn modulation_workspace_roundtrip_and_matches_legacy(
        modulation in prop::sample::select(vec![
            Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64
        ]),
        seed in any::<u64>(),
        h in arb_complex(),
    ) {
        prop_assume!(h.norm_sqr() > 1e-4);
        let bps = modulation.bits_per_symbol();
        let bits: Vec<u8> = (0..bps * 8).map(|i| ((seed >> (i % 64)) & 1) as u8).collect();
        let points = sourcesync::phy::modulation::map_bits(modulation, &bits);
        // Hard demap through the channel recovers every bit group, and the
        // table agrees with the allocating demappers bit for bit.
        let mut table = DemapTable::new(modulation);
        for (g, x) in points.iter().enumerate() {
            let y = h * *x;
            let hard = sourcesync::phy::modulation::demap_hard(modulation, y, h);
            prop_assert_eq!(&hard, &bits[g * bps..(g + 1) * bps]);
            let near = table.nearest(y, h);
            prop_assert_eq!((near.re.to_bits(), near.im.to_bits()), (x.re.to_bits(), x.im.to_bits()));
            let place: Vec<u32> = (0..bps as u32).collect();
            let mut llrs = vec![0.0; bps];
            table.demap_symbol(&[y], &[h], &[1e-3], &place, &mut llrs);
            prop_assert_eq!(&llrs, &sourcesync::phy::modulation::demap_llrs(modulation, y, h, 1e-3));
            for (i, &b) in bits[g * bps..(g + 1) * bps].iter().enumerate() {
                prop_assert!(if b == 0 { llrs[i] > 0.0 } else { llrs[i] < 0.0 });
            }
        }
    }

    #[test]
    fn time_arithmetic_consistent(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let t = Time(a) + Duration(b);
        prop_assert_eq!(t - Time(a), Duration(b));
        prop_assert_eq!(t.saturating_since(Time(a)), Duration(b));
        prop_assert_eq!(Time(a).saturating_since(t), Duration::ZERO);
    }

    #[test]
    fn event_queue_pops_in_time_then_fifo_order(
        ops in proptest::collection::vec((0u8..4, 0u64..50), 1..200),
    ) {
        // Arbitrary interleaving of pushes (op 1..4, with heavy time
        // collisions from the tiny time range) and pops (op 0) against a
        // reference model: the queue must always yield the pending event
        // with the smallest (time, insertion index).
        let mut q = sourcesync::sim::EventQueue::new();
        let mut model: Vec<(u64, usize)> = Vec::new(); // (time, insertion id)
        let mut next_id = 0usize;
        for (op, t) in ops {
            if op == 0 {
                let popped = q.pop().map(|s| (s.at, s.event));
                let expect = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(time, id))| (time, id))
                    .map(|(i, _)| i);
                match (popped, expect) {
                    (None, None) => {}
                    (Some((at, event)), Some(i)) => {
                        let (mt, mid) = model.remove(i);
                        prop_assert_eq!(at, Time(mt), "popped wrong instant");
                        prop_assert_eq!(event, mid, "FIFO tie-break violated");
                    }
                    (got, want) => prop_assert!(false, "pop {got:?} vs model {want:?}"),
                }
            } else {
                q.schedule(Time(t), next_id);
                model.push((t, next_id));
                next_id += 1;
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(
                q.peek_time(),
                model.iter().map(|&(t, _)| Time(t)).min()
            );
        }
        // Drain: the remainder must come out fully sorted, FIFO within ties.
        let mut last: Option<(Time, usize)> = None;
        while let Some(s) = q.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!((s.at, s.event) > (lt, lid), "order violated in drain");
            }
            last = Some((s.at, s.event));
        }
    }

    #[test]
    fn time_roundtrips_through_sample_counts_exactly(
        n in 0u64..1_000_000_000,
        period in prop::sample::select(vec![7_812_500u64, 50_000_000]),
        extra in 0u64..1_000_000,
    ) {
        // A whole number of samples is exactly representable: femtosecond
        // precision survives Duration ↔ sample-count round trips.
        let d = Duration::from_samples(n, period);
        prop_assert_eq!(d.0, n * period);
        prop_assert_eq!(d.as_samples_f64(period), n as f64);
        // An on-grid instant recovers its sample index exactly, and the
        // grid-rounding helpers are identities on it.
        let t = Time(n * period);
        prop_assert_eq!(t.sample_index(period), n);
        prop_assert_eq!(t.ceil_to_sample(period), t);
        prop_assert_eq!(t.round_to_sample(period), t);
        // Off-grid instants floor to the same index until the next tick.
        let off = Time(n * period + extra % period);
        prop_assert_eq!(off.sample_index(period), n);
        // Time + Duration arithmetic is exact at femtosecond granularity.
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!(Time(0) + d + d, Time(2 * n * period));
    }

    #[test]
    fn sample_grid_rounding(t in 0u64..u64::MAX / 2, period in prop::sample::select(vec![7_812_500u64, 50_000_000])) {
        let time = Time(t);
        let up = time.ceil_to_sample(period);
        let near = time.round_to_sample(period);
        prop_assert_eq!(up.0 % period, 0);
        prop_assert_eq!(near.0 % period, 0);
        prop_assert!(up.0 >= time.0 && up.0 - time.0 < period);
        let err = near.0.abs_diff(time.0);
        prop_assert!(err * 2 <= period);
    }
}

// The parsers that see bytes off the air: a corrupted or foreign frame
// must come back as `None` or a typed error, never as a panic.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parsers_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        if let Some(frame) = MacFrame::from_bytes(&bytes) {
            // Whatever parses re-encodes to bytes that parse to the same
            // encoding (byte comparison: feedback may decode to NaN).
            let again = MacFrame::from_bytes(&frame.to_bytes()).expect("re-encoding parses");
            prop_assert_eq!(again.to_bytes(), frame.to_bytes());
        }
        match SyncHeader::from_bytes(&bytes) {
            Ok(header) => prop_assert_eq!(&header.to_bytes()[..], &bytes[..9]),
            Err(WireError::Truncated { len }) => {
                prop_assert!(bytes.len() < SYNC_HEADER_LEN);
                prop_assert_eq!(len, bytes.len());
            }
            Err(WireError::UnknownRate(b)) => {
                prop_assert!(bytes.len() >= SYNC_HEADER_LEN);
                prop_assert_eq!(b, bytes[4]);
                prop_assert!(RateId::from_index(b).is_none());
            }
        }
    }

    #[test]
    fn mac_frame_roundtrips_and_rejects_every_prefix(frame in arb_mac_frame()) {
        let bytes = frame.to_bytes();
        prop_assert_eq!(MacFrame::from_bytes(&bytes), Some(frame));
        for len in 0..bytes.len() {
            prop_assert_eq!(MacFrame::from_bytes(&bytes[..len]), None, "prefix {}", len);
        }
    }

    #[test]
    fn sync_header_roundtrips_and_rejects_every_prefix(header in arb_sync_header()) {
        let bytes = header.to_bytes();
        prop_assert_eq!(SyncHeader::from_bytes(&bytes), Ok(header));
        for len in 0..bytes.len() {
            prop_assert_eq!(
                SyncHeader::from_bytes(&bytes[..len]),
                Err(WireError::Truncated { len }),
                "prefix {}",
                len
            );
        }
    }
}
