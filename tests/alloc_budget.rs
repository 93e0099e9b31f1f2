//! Allocation-regression tests: a counting global allocator proves the
//! zero-allocation claims of the modem workspaces.
//!
//! The allocator wraps [`System`] and counts allocation events (alloc,
//! alloc_zeroed, realloc) in a thread-local, so concurrently running tests
//! in this binary cannot pollute each other's counts. The headline
//! assertions:
//!
//! * the steady-state per-symbol receive loop (window demod → equalise →
//!   LLR demap) performs **zero** heap allocations after warm-up,
//! * so does the per-symbol transmit loop,
//! * a warmed `frame_waveform_into` allocates only the CRC-appended PSDU
//!   ([`WARM_TX_ALLOCS`]), at every rate and length,
//! * a warmed full-frame `receive_with` allocates only what it returns —
//!   at most [`WARM_R12_RX_ALLOCS`] at R12, however long the frame, and
//!   at R54 (64-QAM) the count does not change with the length either,
//! * the warmed workspace-threaded frame/combiner entry points
//!   allocate several times less than the same calls through a fresh
//!   workspace (the receiver's allocating twin builds one per call),
//! * a warmed medium capture allocates only the buffer it returns,
//! * and a warmed joint session allocates no more than the pinned count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sourcesync::core::{
    decode_joint_data_with, joint_data_waveform_into, CombineWorkspace, DataSectionSpec,
    JointDataWindow, RoleChannels,
};
use sourcesync::dsp::rng::ComplexGaussian;
use sourcesync::dsp::{Complex64, FftPlan};
use sourcesync::phy::chanest::ChannelEstimate;
use sourcesync::phy::modulation::DemapTable;
use sourcesync::phy::{
    frame, ofdm, Modulation, OfdmParams, RateId, Receiver, RxWorkspace, Transmitter, TxWorkspace,
};

struct CountingAlloc;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump() {
    // `try_with` so allocations during TLS teardown cannot panic inside
    // the allocator.
    let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method delegates verbatim to `System`, the allocator the
// program would use anyway; the counter bump allocates nothing itself.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System.alloc` — forwarded unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    // SAFETY: same contract as `System.alloc_zeroed` — forwarded unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    // SAFETY: same contract as `System.realloc` — forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: same contract as `System.dealloc` — forwarded unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns (allocation events on this thread, result).
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let start = ALLOC_EVENTS.with(|c| c.get());
    let result = f();
    let end = ALLOC_EVENTS.with(|c| c.get());
    (end - start, result)
}

#[test]
fn counter_actually_counts() {
    let (n, v) = allocations(|| Vec::<u8>::with_capacity(64));
    assert!(n >= 1, "allocator counter saw nothing");
    drop(v);
}

#[test]
fn per_symbol_rx_loop_is_allocation_free_after_warmup() {
    // The steady-state per-symbol receive loop: FFT-window demodulation,
    // per-carrier equalisation, and max-log LLR demapping, exactly as
    // `Receiver::receive_with` runs it per OFDM symbol — driven through
    // the public workspace entry points on a real transmitted frame.
    let params = OfdmParams::dot11a();
    let fft = FftPlan::new(params.fft_size);
    let tx = Transmitter::new(params.clone());
    let mut rng = StdRng::seed_from_u64(1);
    let payload: Vec<u8> = (0..800).map(|_| rng.gen()).collect();
    let wave = tx.frame_waveform(&payload, RateId::R24, 0);

    let mut grid: Vec<Complex64> = Vec::new();
    let mut ys: Vec<Complex64> = Vec::new();
    let table = DemapTable::new(Modulation::Qam16);
    let sym_len = params.symbol_len();
    let n_syms = wave.len() / sym_len;
    let hs = vec![Complex64::from_polar(0.9, 0.3); params.n_data()];
    let n0 = vec![1e-2; params.n_data()];
    let place: Vec<u32> = (0..params.coded_bits_per_symbol(Modulation::Qam16) as u32).collect();
    let mut llrs = vec![0.0; place.len()];

    let pass = |grid: &mut Vec<Complex64>, ys: &mut Vec<Complex64>, llrs: &mut [f64]| {
        let mut acc = 0.0f64;
        for s in 0..n_syms {
            ofdm::demodulate_window_into(&params, &fft, &wave, s * sym_len + params.cp_len, grid);
            ys.clear();
            ys.extend(params.data_carriers.iter().map(|&k| grid[params.bin(k)]));
            table.demap_symbol(ys, &hs, &n0, &place, llrs);
            acc += llrs[0];
        }
        acc
    };

    // Warm-up grows every buffer to its working size...
    let warm = pass(&mut grid, &mut ys, &mut llrs);
    // ...after which the identical loop must not allocate at all.
    let (n, steady) = allocations(|| pass(&mut grid, &mut ys, &mut llrs));
    assert_eq!(
        n, 0,
        "steady-state per-symbol rx loop performed {n} heap allocations"
    );
    assert_eq!(warm.to_bits(), steady.to_bits(), "passes diverged");
}

#[test]
fn warmed_r54_receive_has_no_per_symbol_allocations() {
    // The 64-QAM demap has its own grid layout (8 × 8 rows and columns),
    // so the R54 chain gets its own budget: once warmed, a frame with 4x
    // the data symbols allocates exactly as often as the short one, so
    // nothing in the per-symbol path (demod, demap, EVM nearest point,
    // deinterleave, Viterbi) touches the heap.
    let params = OfdmParams::dot11a();
    let tx = Transmitter::new(params.clone());
    let rx = Receiver::new(params.clone());
    let mut rng = StdRng::seed_from_u64(5);
    let noise = ComplexGaussian::with_power(sourcesync::dsp::stats::linear_from_db(-35.0));
    let mut capture = |len: usize| {
        let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let wave = tx.frame_waveform(&payload, RateId::R54, 0);
        let mut buf = noise.sample_vec(&mut rng, wave.len() + 600);
        for (i, s) in wave.iter().enumerate() {
            buf[200 + i] += *s;
        }
        (buf, payload)
    };
    let (buf, payload) = capture(400);
    let (buf_long, payload_long) = capture(1600);

    let mut ws = RxWorkspace::new(&params);
    let _ = rx
        .receive_with(&buf_long, &mut ws)
        .expect("warmup decode long");
    let _ = rx.receive_with(&buf, &mut ws).expect("warmup decode");
    let (n, res) = allocations(|| rx.receive_with(&buf, &mut ws));
    let (n_long, res_long) = allocations(|| rx.receive_with(&buf_long, &mut ws));
    assert_eq!(res.expect("decode").payload, payload);
    assert_eq!(res_long.expect("decode long").payload, payload_long);
    assert_eq!(
        n, n_long,
        "R54 receive allocations scale with the symbol count: {n} -> {n_long}"
    );
}

#[test]
fn per_symbol_tx_loop_is_allocation_free_after_warmup() {
    let params = OfdmParams::dot11a();
    let fft = FftPlan::new(params.fft_size);
    let mut rng = StdRng::seed_from_u64(2);
    let data: Vec<Complex64> = (0..params.n_data())
        .map(|_| ComplexGaussian::unit().sample(&mut rng))
        .collect();
    let mut ws = TxWorkspace::new(&params);
    let mut out: Vec<Complex64> = Vec::new();

    let pass = |ws: &mut TxWorkspace, out: &mut Vec<Complex64>| {
        out.clear();
        for s in 0..40 {
            ofdm::modulate_symbol_append(&params, &fft, &data, s, params.cp_len, true, ws, out);
        }
    };

    pass(&mut ws, &mut out);
    let (n, ()) = allocations(|| pass(&mut ws, &mut out));
    assert_eq!(
        n, 0,
        "steady-state per-symbol tx loop performed {n} heap allocations"
    );
}

/// Allocation events of one warmed `Transmitter::frame_waveform_into`,
/// whatever the rate and the frame's length: the CRC-appended PSDU.
const WARM_TX_ALLOCS: u64 = 1;

#[test]
fn warmed_frame_waveform_into_allocates_only_the_crc_psdu() {
    // The one-pass encoder's buffers and tables live in the workspace, so
    // once every frame shape has been built through it a frame allocates
    // only the PSDU with its CRC — the same count for a 14-byte and a
    // 1500-byte frame at every rate.
    let params = OfdmParams::dot11a();
    let tx = Transmitter::new(params.clone());
    let mut rng = StdRng::seed_from_u64(5);
    let mut ws = TxWorkspace::new(&params);
    let mut wave = Vec::new();
    let shapes: Vec<(RateId, Vec<u8>)> = [RateId::R6, RateId::R12, RateId::R54]
        .into_iter()
        .flat_map(|rate| [14usize, 1500].map(|len| (rate, (0..len).map(|_| rng.gen()).collect())))
        .collect();
    for (rate, payload) in &shapes {
        tx.frame_waveform_into(payload, *rate, 0, &mut ws, &mut wave);
    }
    for (rate, payload) in &shapes {
        let (n, ()) = allocations(|| tx.frame_waveform_into(payload, *rate, 0, &mut ws, &mut wave));
        eprintln!("tx allocs {rate:?} {} B: {n}", payload.len());
        assert_eq!(
            n,
            WARM_TX_ALLOCS,
            "warmed frame_waveform_into at {rate:?}, {} B allocated {n}",
            payload.len()
        );
        assert_eq!(wave, tx.frame_waveform(payload, *rate, 0));
    }
}

#[test]
fn warmed_receive_with_allocates_an_order_less_than_legacy() {
    let params = OfdmParams::dot11a();
    let tx = Transmitter::new(params.clone());
    let rx = Receiver::new(params.clone());
    let mut rng = StdRng::seed_from_u64(3);
    let payload: Vec<u8> = (0..600).map(|_| rng.gen()).collect();
    let wave = tx.frame_waveform(&payload, RateId::R12, 0);
    let noise_p = sourcesync::dsp::stats::linear_from_db(-30.0);
    let mut buf = ComplexGaussian::with_power(noise_p).sample_vec(&mut rng, wave.len() + 600);
    for (i, s) in wave.iter().enumerate() {
        buf[200 + i] += *s;
    }

    // A frame with 4x the payload (4x the data symbols), same channel.
    let payload_long: Vec<u8> = (0..2400).map(|_| rng.gen()).collect();
    let wave_long = tx.frame_waveform(&payload_long, RateId::R12, 0);
    let mut buf_long =
        ComplexGaussian::with_power(noise_p).sample_vec(&mut rng, wave_long.len() + 600);
    for (i, s) in wave_long.iter().enumerate() {
        buf_long[200 + i] += *s;
    }

    let mut ws = RxWorkspace::new(&params);
    let _ = rx.receive_with(&buf, &mut ws).expect("warmup decode");
    let _ = rx
        .receive_with(&buf_long, &mut ws)
        .expect("warmup decode long");
    let (n_ws, pooled) = allocations(|| rx.receive_with(&buf, &mut ws));
    let (n_ws_long, pooled_long) = allocations(|| rx.receive_with(&buf_long, &mut ws));
    let (n_legacy, legacy) = allocations(|| rx.receive(&buf));
    assert_eq!(
        pooled.expect("pooled decode").payload,
        legacy.expect("legacy decode").payload
    );
    assert_eq!(pooled_long.expect("pooled long").payload, payload_long);
    eprintln!("rx allocs: short={n_ws} long={n_ws_long} legacy={n_legacy}");
    // The workspace path must beat the legacy path even though the legacy
    // wrappers now delegate to the same lean internals (their only
    // overhead is building throwaway workspace machinery per call)...
    assert!(
        n_ws * 2 <= n_legacy,
        "warmed workspace rx allocated {n_ws} vs legacy {n_legacy} — expected >=2x reduction"
    );
    // ...and, the stronger claim: what remains is per-frame bookkeeping,
    // not per-symbol churn — 4x the OFDM symbols may not cost 4x the
    // allocations, only the O(log) growth of the frame-level vectors.
    assert!(
        n_ws_long < n_ws + n_ws / 2 + 25,
        "per-frame allocations scale with symbol count: {n_ws} -> {n_ws_long}"
    );
    // ...and the ceiling: what a warm frame allocates is what it returns.
    for n in [n_ws, n_ws_long] {
        assert!(
            n <= WARM_R12_RX_ALLOCS,
            "warmed R12 receive_with allocated {n}, above the ceiling of {WARM_R12_RX_ALLOCS}"
        );
    }
}

/// Allocation events of one warmed R12 `receive_with` on `dot11a`,
/// whatever the frame's length: the channel estimate's carrier and gain
/// vectors, the per-carrier SNR vector, the decoded PSDU and the returned
/// payload.
const WARM_R12_RX_ALLOCS: u64 = 5;

#[test]
fn warmed_combiner_allocates_an_order_less_than_legacy() {
    let params = OfdmParams::dot11a();
    let fft = FftPlan::new(params.fft_size);
    let mut rng = StdRng::seed_from_u64(4);
    let psdu: Vec<u8> = (0..300).map(|_| rng.gen()).collect();
    let spec = DataSectionSpec {
        rate: RateId::R12,
        cp_len: params.cp_len,
        smart_combiner: true,
        pilot_sharing: true,
    };
    let h_a = Complex64::from_polar(1.0, 0.4);
    let h_b = Complex64::from_polar(0.8, -1.2);
    let mut ws = CombineWorkspace::new(&params);
    let (mut wa, mut wb) = (Vec::new(), Vec::new());
    let role_a = sourcesync::stbc::Codeword::A;
    joint_data_waveform_into(&params, &fft, &psdu, role_a, &spec, &mut ws, &mut wa);
    let role_b = sourcesync::stbc::Codeword::B;
    joint_data_waveform_into(&params, &fft, &psdu, role_b, &spec, &mut ws, &mut wb);
    let noise = ComplexGaussian::with_power(1e-4);
    let buf: Vec<Complex64> = wa
        .iter()
        .zip(&wb)
        .map(|(a, b)| h_a * *a + h_b * *b + noise.sample(&mut rng))
        .collect();
    let occupied = params.occupied_carriers();
    let mk = |v: Complex64| ChannelEstimate {
        carriers: occupied.clone(),
        values: vec![v; occupied.len()],
        noise_power: 1e-4,
    };
    let (lead, co) = (mk(h_a), mk(h_b));
    let roles = RoleChannels::from_estimates(&params, &[Some(&lead), Some(&co)]);
    let window = JointDataWindow {
        data_start: 0,
        n_syms: frame::n_data_symbols(&params, psdu.len(), RateId::R12),
        psdu_len: psdu.len(),
        backoff: 0,
    };

    let _ = decode_joint_data_with(&params, &fft, &buf, &window, &spec, &roles, &mut ws)
        .expect("warmup decode");
    let (n_ws, pooled) = allocations(|| {
        decode_joint_data_with(&params, &fft, &buf, &window, &spec, &roles, &mut ws)
    });
    // The fresh-workspace side builds its workspace inside the count, as
    // a one-shot caller must.
    let (n_legacy, legacy) = allocations(|| {
        let mut fresh = CombineWorkspace::new(&params);
        decode_joint_data_with(&params, &fft, &buf, &window, &spec, &roles, &mut fresh)
    });
    assert_eq!(
        pooled.expect("pooled").0,
        legacy.expect("legacy").0,
        "decoded PSDUs diverged"
    );
    eprintln!("combiner allocs: ws={n_ws} legacy={n_legacy}");
    assert!(
        n_ws * 2 <= n_legacy,
        "warmed combiner allocated {n_ws} vs legacy {n_legacy} — expected >=2x reduction"
    );
}

#[test]
fn warmed_capture_allocates_only_its_returned_buffer() {
    // Propagation runs in the medium's pooled scratch, so once that has
    // grown to the working size a capture's one allocation is the buffer
    // it returns — however many transmissions overlap the window, and
    // whether they overlap it whole or in part.
    use sourcesync::channel::{Link, MultipathProfile};
    use sourcesync::sim::{NodeId, Time, WaveformMedium};
    let params = OfdmParams::dot11a();
    let period = params.sample_period_fs();
    let mut rng = StdRng::seed_from_u64(50);
    let profile = MultipathProfile::testbed(params.sample_rate_hz);
    for n_tx in [1u64, 3, 6] {
        let mut medium = WaveformMedium::new(period);
        for tx in 0..n_tx {
            let link = Link {
                amplitude_gain: 0.5,
                multipath: profile.draw(&mut rng),
                delay_fs: 4 * period + 7_000_000 * tx,
                cfo_hz: 10e3 * tx as f64,
            };
            medium.set_link(NodeId(tx as usize + 1), NodeId(0), link);
            let wave = ComplexGaussian::unit().sample_vec(&mut rng, 900);
            medium.transmit(NodeId(tx as usize + 1), Time(100 * tx * period), wave);
        }
        for (from, len) in [(0u64, 2_000usize), (300, 400), (50, 1_000)] {
            let mut noise = StdRng::seed_from_u64(from);
            let _ = medium.capture(&mut noise, NodeId(0), Time(from * period), len);
            let (n, buf) =
                allocations(|| medium.capture(&mut noise, NodeId(0), Time(from * period), len));
            assert_eq!(buf.len(), len);
            assert_eq!(
                n, 1,
                "{n_tx} transmissions, window ({from}, {len}): {n} allocations"
            );
        }
    }
}

/// Allocation events of one warmed `JointSession::run_with` (two
/// co-senders, one receiver, a 300-byte payload), as measured once the
/// transmit side codes every frame through workspace-held buffers and
/// tables (677 before windowed propagation and the per-frame role
/// waveforms landed, 268 before the co-sender training slots were
/// demodulated into the session workspace's channel-estimation scratch,
/// 251 before the one-pass encoder).
const RUN_WITH_ALLOCS_BEFORE: u64 = 69;

#[test]
fn warmed_run_with_allocates_no_more_than_before() {
    use sourcesync::channel::Position;
    use sourcesync::core::{
        CosenderPlan, DelayDatabase, JointConfig, JointSession, SessionWorkspace,
    };
    use sourcesync::sim::{ChannelModels, Network, NodeId};
    let params = OfdmParams::dot11a();
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(12.0, 0.0),
        Position::new(6.0, 8.0),
        Position::new(3.0, -7.0),
    ];
    let mut net = Network::build(
        &mut StdRng::seed_from_u64(51),
        &params,
        &positions,
        &ChannelModels::clean(&params),
    );
    let mut db = DelayDatabase::new();
    for (a, b) in [(0, 1), (0, 3), (1, 2), (0, 2), (3, 2)] {
        let (a, b) = (NodeId(a), NodeId(b));
        db.set_delay(a, b, net.true_delay_s(a, b));
    }
    let session = |payload: Vec<u8>| {
        JointSession::new(NodeId(0))
            .cosender(CosenderPlan {
                node: NodeId(1),
                wait_s: 60e-9,
            })
            .cosender(CosenderPlan {
                node: NodeId(3),
                wait_s: 40e-9,
            })
            .receiver(NodeId(2))
            .payload(payload)
            .config(JointConfig::default())
    };
    let mut rng = StdRng::seed_from_u64(52);
    let mut ws = SessionWorkspace::new(params.clone());
    let warm: Vec<u8> = (0..300).map(|_| rng.gen()).collect();
    let frame: Vec<u8> = (0..300).map(|_| rng.gen()).collect();
    let _ = session(warm).run_with(&mut net, &mut rng, &db, &mut ws);
    let next = session(frame.clone());
    let (n, outcome) = allocations(|| next.run_with(&mut net, &mut rng, &db, &mut ws));
    assert_eq!(outcome.reports[0].payload.as_deref(), Some(&frame[..]));
    eprintln!("warmed run_with allocs: {n} (before: {RUN_WITH_ALLOCS_BEFORE})");
    assert!(
        n <= RUN_WITH_ALLOCS_BEFORE,
        "warmed run_with allocated {n}, more than the {RUN_WITH_ALLOCS_BEFORE} before"
    );
}
