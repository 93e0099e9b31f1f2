//! The Smart Combiner (paper §6): distributed space-time coding of the
//! joint data section, and the receiver-side combining that turns a pair of
//! received OFDM symbols into soft bits for the standard decode pipeline.
//!
//! Each sender derives its transmit waveform from the *same* PSDU: the
//! coded-modulation pipeline is identical, then each symbol pair is mapped
//! through the sender's Alamouti codeword role per subcarrier. Pilots are
//! shared: role A drives pilots on even data symbols, role B on odd ones
//! (paper §5), so the receiver can track the two roles' residual rotations
//! independently.

use crate::jce::{role_pilot_phase, RoleChannels};
use ssync_dsp::{Complex64, FftPlan};
use ssync_phy::frame::{DecodeScratch, EncodeScratch};
use ssync_phy::workspace::{DemapTables, TxWorkspace};
use ssync_phy::{frame, ofdm, Params, RateId};
use ssync_stbc::{encode_pair, Codeword};
use std::sync::Arc;

/// Reusable scratch for the joint data section, transmit and receive side:
/// the space-time-coded symbol pair, the two demodulated grids, the
/// combined carriers, and the demap tables. One workspace per driving
/// loop (a `JointSession` stage, a bench iteration); buffers are reused
/// across frames so the per-symbol-pair loop is allocation-free at steady
/// state.
///
/// The transmit side also keeps the data section of the last frame built
/// through it: every sender of a joint frame codes the same PSDU, and
/// Alamouti gives them only two roles, so a frame needs one encoding and
/// two distinct waveforms however many senders join. They are keyed by
/// the PSDU bytes, the [`DataSectionSpec`] and the numerology handle
/// (the `Params` pointer, so clones of one handle share the section), and
/// rebuilt when any of them changes, so a reused workspace gives a fresh
/// workspace's bits for any sequence of frames. It holds at most one
/// encoding and two waveforms.
#[derive(Debug, Clone)]
pub struct CombineWorkspace {
    /// Transmit side: the last frame's data section and its modulator.
    section: DataSection,
    /// Demodulated grids of the current pair.
    g0: Vec<Complex64>,
    g1: Vec<Complex64>,
    /// Composite pilot channel (the no-pilot-sharing ablation path).
    composite: Vec<Complex64>,
    /// The pair's combined estimates per data carrier, even and odd symbol.
    x0: Vec<Complex64>,
    x1: Vec<Complex64>,
    /// The channel the combined estimates are demapped through: 1 on
    /// every data carrier.
    ones: Vec<Complex64>,
    /// Effective noise per data carrier, `n0 / gain`.
    n_eff: Vec<f64>,
    /// Both estimates per carrier, interleaved, for the EVM.
    eq: Vec<Complex64>,
    /// Demap tables for every modulation, built once.
    tables: DemapTables,
    /// Bit-pipeline scratch (mother-code stream + planned Viterbi).
    decode: DecodeScratch,
}

impl CombineWorkspace {
    /// A workspace keyed to `params`.
    pub fn new(params: &Params) -> Self {
        CombineWorkspace {
            section: DataSection::new(params),
            g0: Vec::with_capacity(params.fft_size),
            g1: Vec::with_capacity(params.fft_size),
            composite: Vec::with_capacity(params.pilot_carriers.len()),
            x0: Vec::with_capacity(params.n_data()),
            x1: Vec::with_capacity(params.n_data()),
            ones: Vec::with_capacity(params.n_data()),
            n_eff: Vec::with_capacity(params.n_data()),
            eq: Vec::with_capacity(2 * params.n_data()),
            tables: DemapTables::new(),
            decode: DecodeScratch::new(),
        }
    }
}

/// The transmit side of a [`CombineWorkspace`]: the frame the section was
/// built for, its constellation points (padded to whole Alamouti pairs),
/// each role's waveform once built, and the encoder and modulator scratch
/// that builds them.
#[derive(Debug, Clone)]
struct DataSection {
    /// `None` until the first frame.
    key: Option<(Params, DataSectionSpec)>,
    psdu: Vec<u8>,
    /// The frame's points, `n_data` per OFDM symbol, symbol after symbol;
    /// an odd count gets a zero symbol.
    points: Vec<Complex64>,
    /// Bit-pipeline scratch behind `points`.
    encode: EncodeScratch,
    /// Waveforms of roles A and B; `built[r]` says whether `waves[r]`
    /// belongs to the keyed frame.
    waves: [Vec<Complex64>; 2],
    built: [bool; 2],
    /// OFDM modulator scratch.
    tx: TxWorkspace,
    /// Space-time-coded even/odd symbol of the current pair.
    s0: Vec<Complex64>,
    s1: Vec<Complex64>,
}

impl DataSection {
    fn new(params: &Params) -> Self {
        DataSection {
            key: None,
            psdu: Vec::new(),
            points: Vec::new(),
            encode: EncodeScratch::new(),
            waves: [Vec::new(), Vec::new()],
            built: [false; 2],
            tx: TxWorkspace::new(params),
            s0: Vec::with_capacity(params.n_data()),
            s1: Vec::with_capacity(params.n_data()),
        }
    }

    /// `role`'s waveform of the frame, encoding the frame first if the
    /// section holds another one and modulating the role on first request.
    fn waveform(
        &mut self,
        params: &Params,
        fft: &FftPlan,
        psdu: &[u8],
        role: Codeword,
        spec: &DataSectionSpec,
    ) -> &[Complex64] {
        let held = self
            .key
            .as_ref()
            .is_some_and(|(p, s)| Arc::ptr_eq(p, params) && s == spec && self.psdu == psdu);
        if !held {
            self.key = Some((Arc::clone(params), *spec));
            self.psdu.clear();
            self.psdu.extend_from_slice(psdu);
            let coded = frame::encode_data_with(params, psdu, spec.rate, &mut self.encode);
            self.points.clear();
            for s in 0..coded.len() {
                self.points.extend(coded.points(s));
            }
            if coded.len() % 2 == 1 {
                self.points
                    .resize(self.points.len() + params.n_data(), Complex64::ZERO);
            }
            self.built = [false; 2];
        }
        let r = match role {
            Codeword::A => 0,
            Codeword::B => 1,
        };
        if !self.built[r] {
            self.modulate(params, fft, role, spec, r);
            self.built[r] = true;
        }
        &self.waves[r]
    }

    /// Space-time codes and modulates the encoding for `role` into
    /// `waves[r]`.
    fn modulate(
        &mut self,
        params: &Params,
        fft: &FftPlan,
        role: Codeword,
        spec: &DataSectionSpec,
        r: usize,
    ) {
        let DataSection {
            points,
            waves,
            tx,
            s0,
            s1,
            ..
        } = self;
        let DataSectionSpec {
            cp_len,
            smart_combiner,
            pilot_sharing,
            ..
        } = *spec;
        let out = &mut waves[r];
        out.clear();
        let n_data = params.n_data();
        for (pair_idx, pair) in points.chunks_exact(2 * n_data).enumerate() {
            let (x0, x1) = pair.split_at(n_data);
            let (d0, d1) = if smart_combiner {
                s0.clear();
                s1.clear();
                for (&a, &b) in x0.iter().zip(x1) {
                    let (a, b) = encode_pair(role, a, b);
                    s0.push(a);
                    s1.push(b);
                }
                (&s0[..], &s1[..])
            } else {
                (x0, x1)
            };
            let even_idx = 2 * pair_idx;
            let odd_idx = 2 * pair_idx + 1;
            // Shared pilots: role A on even symbols, role B on odd. Without
            // pilot sharing (ablation), every sender drives every pilot.
            let (pilots_even, pilots_odd) = if pilot_sharing {
                match role {
                    Codeword::A => (true, false),
                    Codeword::B => (false, true),
                }
            } else {
                (true, true)
            };
            ofdm::modulate_symbol_append(params, fft, d0, even_idx, cp_len, pilots_even, tx, out);
            ofdm::modulate_symbol_append(params, fft, d1, odd_idx, cp_len, pilots_odd, tx, out);
        }
    }
}

/// How the joint data section is coded on the air — the knobs every
/// sender of one joint frame shares (derived from
/// [`JointConfig`](crate::joint::JointConfig) plus the frame's extended
/// CP by [`JointConfig::data_section`](crate::joint::JointConfig::data_section)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataSectionSpec {
    /// Data-section rate.
    pub rate: RateId,
    /// Data cyclic-prefix length (base + §4.6 extension), samples.
    pub cp_len: usize,
    /// Space-time-code the data (§6). `false` = every sender transmits
    /// identical symbols — the naive ablation baseline.
    pub smart_combiner: bool,
    /// Share pilots across roles (§5). `false` = everyone drives pilots.
    pub pilot_sharing: bool,
}

/// Builds the joint data waveform one sender transmits for `psdu` under
/// codeword `role`, coded per `spec`, through a reusable
/// [`CombineWorkspace`]: `out` is cleared and refilled with a copy of the
/// role's waveform, which the workspace builds once per frame (see its
/// docs) with the per-pair space-time-coded symbols in workspace scratch.
///
/// With `spec.smart_combiner = false` the space-time code is bypassed and
/// every sender transmits identical symbols — the naive strategy the
/// paper's §6 shows suffers destructive combining (kept for the ablation
/// bench).
pub fn joint_data_waveform_into(
    params: &Params,
    fft: &FftPlan,
    psdu: &[u8],
    role: Codeword,
    spec: &DataSectionSpec,
    ws: &mut CombineWorkspace,
    out: &mut Vec<Complex64>,
) {
    let wave = ws.section.waveform(params, fft, psdu, role, spec);
    out.clear();
    out.extend_from_slice(wave);
}

/// Per-frame statistics the joint decoder gathers.
#[derive(Debug, Clone, Default)]
pub struct CombinerStats {
    /// Mean effective per-carrier gain `|H_A|²+|H_B|²` (with pilot-tracked
    /// phases applied), averaged over the frame.
    pub mean_effective_gain: f64,
    /// Decision-directed EVM SNR over combined symbols, dB.
    pub evm_snr_db: f64,
}

/// Where the joint data section sits in one receiver's capture, and how
/// to window it.
#[derive(Debug, Clone, Copy)]
pub struct JointDataWindow {
    /// Buffer index of the first data symbol.
    pub data_start: usize,
    /// Meaningful symbol count (STBC pad excluded).
    pub n_syms: usize,
    /// Expected PSDU length, bytes.
    pub psdu_len: usize,
    /// The receiver's common early-window offset, samples.
    pub backoff: usize,
}

impl JointDataWindow {
    /// The buffer index one past the last data sample on the air (the STBC
    /// pad included) for symbols of `sym_len` samples: the length
    /// [`decode_joint_data_with`] requires of its buffer.
    pub fn end(&self, sym_len: usize) -> usize {
        self.data_start + (self.n_syms + self.n_syms % 2) * sym_len
    }
}

/// Decodes the joint data section from a receiver buffer: `window` says
/// where the data sits, `spec` how it was coded, `roles` the per-role
/// channels from the JCE. Each symbol's combined estimates are demapped
/// straight into the frame's mother-code stream. The per-pair grids,
/// carrier buffers and demap scratch live in the reusable
/// [`CombineWorkspace`] `ws`, so the symbol-pair loop is allocation-free
/// at steady state.
///
/// Returns the PSDU candidate (before CRC checking) and combiner stats, or
/// `None` if the buffer is too short.
pub fn decode_joint_data_with(
    params: &Params,
    fft: &FftPlan,
    buf: &[Complex64],
    window: &JointDataWindow,
    spec: &DataSectionSpec,
    roles: &RoleChannels,
    ws: &mut CombineWorkspace,
) -> Option<(Option<Vec<u8>>, CombinerStats)> {
    let JointDataWindow {
        data_start,
        n_syms,
        psdu_len,
        backoff,
    } = *window;
    let DataSectionSpec {
        rate,
        cp_len,
        pilot_sharing,
        ..
    } = *spec;
    let n = params.fft_size;
    let sym_len = n + cp_len;
    let n_on_air = n_syms + n_syms % 2;
    let b = backoff.min(cp_len);
    if buf.len() < window.end(sym_len) {
        return None;
    }
    let m = rate.modulation();
    let n0 = roles.noise_power.max(1e-15);
    let CombineWorkspace {
        g0,
        g1,
        composite,
        x0,
        x1,
        ones,
        n_eff,
        eq,
        tables,
        decode,
        ..
    } = ws;
    let table = tables.get_mut(m);
    ones.clear();
    ones.resize(params.n_data(), Complex64::ONE);
    // The STBC pad symbol (odd `n_syms`) gets no block: it is demodulated
    // and counted in the EVM, never decoded.
    let mut stream = decode.mother_stream(params, rate, n_syms);
    let mut gain_acc = 0.0;
    let mut gain_count = 0usize;
    let mut evm_err = 0.0;
    let mut evm_sig = 0.0;
    for pair_idx in 0..n_on_air / 2 {
        let even_start = data_start + (2 * pair_idx) * sym_len + cp_len - b;
        let odd_start = even_start + sym_len;
        ofdm::demodulate_window_into(params, fft, buf, even_start, g0);
        ofdm::demodulate_window_into(params, fft, buf, odd_start, g1);
        // Residual phase per role from the shared pilots. Without pilot
        // sharing, both roles' pilots superpose in every symbol; track a
        // single common phase against the *composite* pilot channel.
        let (theta_a, theta_b) = if pilot_sharing {
            (
                role_pilot_phase(params, g0, &roles.h_a_pilot, 2 * pair_idx),
                role_pilot_phase(params, g1, &roles.h_b_pilot, 2 * pair_idx + 1),
            )
        } else {
            composite.clear();
            composite.extend(
                roles
                    .h_a_pilot
                    .iter()
                    .zip(&roles.h_b_pilot)
                    .map(|(a, b)| *a + *b),
            );
            let t0 = role_pilot_phase(params, g0, composite, 2 * pair_idx);
            (t0, t0)
        };
        let rot_a = Complex64::cis(theta_a);
        let rot_b = Complex64::cis(theta_b);
        x0.clear();
        x1.clear();
        n_eff.clear();
        eq.clear();
        for (j, &k) in params.data_carriers.iter().enumerate() {
            let y0 = g0[params.bin(k)];
            let y1 = g1[params.bin(k)];
            let h_a = roles.h_a[j] * rot_a;
            let h_b = roles.h_b[j] * rot_b;
            let d = ssync_stbc::decode_pair(y0, y1, h_a, h_b);
            let gain = d.gain.max(1e-15);
            gain_acc += d.gain;
            gain_count += 1;
            x0.push(d.x0);
            x1.push(d.x1);
            n_eff.push(n0 / gain);
            eq.extend([d.x0, d.x1]);
        }
        for x in [&*x0, &*x1] {
            if let Some(block) = stream.blocks.next() {
                table.demap_symbol(x, ones, n_eff, stream.place, block);
            }
        }
        // Decision-directed EVM on the combined estimates.
        table.evm_into(eq, &mut evm_err, &mut evm_sig);
    }
    let psdu = frame::decode_data_with(decode, psdu_len);
    let stats = CombinerStats {
        mean_effective_gain: if gain_count > 0 {
            gain_acc / gain_count as f64
        } else {
            0.0
        },
        evm_snr_db: ssync_dsp::stats::snr_db_from_evm(evm_sig, evm_err),
    };
    Some((psdu, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jce::RoleChannels;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ssync_dsp::rng::ComplexGaussian;
    use ssync_phy::chanest::ChannelEstimate;
    use ssync_phy::OfdmParams;

    /// One sender's data waveform through a fresh workspace.
    fn waveform_fresh(
        params: &ssync_phy::Params,
        fft: &FftPlan,
        psdu: &[u8],
        role: Codeword,
        spec: &DataSectionSpec,
    ) -> Vec<Complex64> {
        let mut wave = Vec::new();
        let mut ws = CombineWorkspace::new(params);
        joint_data_waveform_into(params, fft, psdu, role, spec, &mut ws, &mut wave);
        wave
    }

    /// One joint decode through a fresh workspace.
    fn decode_fresh(
        params: &ssync_phy::Params,
        fft: &FftPlan,
        buf: &[Complex64],
        window: &JointDataWindow,
        spec: &DataSectionSpec,
        roles: &RoleChannels,
    ) -> Option<(Option<Vec<u8>>, CombinerStats)> {
        let mut ws = CombineWorkspace::new(params);
        decode_joint_data_with(params, fft, buf, window, spec, roles, &mut ws)
    }

    /// Builds role channels with constant per-sender gains.
    fn const_roles(
        params: &ssync_phy::Params,
        h_a: Complex64,
        h_b: Complex64,
        n0: f64,
    ) -> RoleChannels {
        let occupied = params.occupied_carriers();
        let mk = |v: Complex64| ChannelEstimate {
            carriers: occupied.clone(),
            values: vec![v; occupied.len()],
            noise_power: n0,
        };
        let lead = mk(h_a);
        let co = mk(h_b);
        RoleChannels::from_estimates(params, &[Some(&lead), Some(&co)])
    }

    /// Transmits both roles over flat channels `(h_a, h_b)` and sums at the
    /// receiver, adding AWGN of power `awgn.0` drawn from seed `awgn.1`.
    fn joint_on_air(
        params: &ssync_phy::Params,
        fft: &FftPlan,
        psdu: &[u8],
        spec: &DataSectionSpec,
        (h_a, h_b): (Complex64, Complex64),
        awgn: (f64, u64),
    ) -> Vec<Complex64> {
        let wa = waveform_fresh(params, fft, psdu, Codeword::A, spec);
        let wb = waveform_fresh(params, fft, psdu, Codeword::B, spec);
        let mut rng = StdRng::seed_from_u64(awgn.1);
        let noise = ComplexGaussian::with_power(awgn.0);
        wa.iter()
            .zip(&wb)
            .map(|(a, b)| h_a * *a + h_b * *b + noise.sample(&mut rng))
            .collect()
    }

    /// The default coding knobs at a given CP and rate.
    fn spec(rate: RateId, cp_len: usize) -> DataSectionSpec {
        DataSectionSpec {
            rate,
            cp_len,
            smart_combiner: true,
            pilot_sharing: true,
        }
    }

    #[test]
    fn reused_workspace_builds_every_frame_like_a_fresh_one() {
        // A sequence of frames through one workspace: repeated roles of
        // one frame, a frame coming back after another, a PSDU that is a
        // prefix of the last one, one changed byte, and each knob of the
        // section spec changed alone, then a second numerology. Every
        // waveform must carry a fresh workspace's bits.
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let mut rng = StdRng::seed_from_u64(21);
        let p1: Vec<u8> = (0..120).map(|_| rng.gen()).collect();
        let p2: Vec<u8> = (0..61).map(|_| rng.gen()).collect();
        let prefix = p1[..119].to_vec();
        let mut flipped = p1.clone();
        flipped[60] ^= 0x10;
        let base = DataSectionSpec {
            rate: RateId::R12,
            cp_len: params.cp_len,
            smart_combiner: true,
            pilot_sharing: true,
        };
        let (a, b) = (Codeword::A, Codeword::B);
        let steps: Vec<(&[u8], DataSectionSpec, Codeword)> = vec![
            (&p1, base, a),
            (&p1, base, b),
            (&p1, base, a),
            (&p2, base, b),
            (&p1, base, b),
            (&prefix, base, b),
            (&flipped, base, b),
            (
                &p1,
                DataSectionSpec {
                    rate: RateId::R24,
                    ..base
                },
                a,
            ),
            (
                &p1,
                DataSectionSpec {
                    cp_len: params.cp_len + 8,
                    ..base
                },
                a,
            ),
            (
                &p1,
                DataSectionSpec {
                    smart_combiner: false,
                    ..base
                },
                b,
            ),
            (
                &p1,
                DataSectionSpec {
                    pilot_sharing: false,
                    ..base
                },
                b,
            ),
            (&p1, base, a),
        ];
        let mut ws = CombineWorkspace::new(&params);
        let mut out = Vec::new();
        let bits = |w: &[Complex64]| -> Vec<(u64, u64)> {
            w.iter().map(|s| (s.re.to_bits(), s.im.to_bits())).collect()
        };
        for (i, (psdu, spec, role)) in steps.into_iter().enumerate() {
            joint_data_waveform_into(&params, &fft, psdu, role, &spec, &mut ws, &mut out);
            let want = waveform_fresh(&params, &fft, psdu, role, &spec);
            assert_eq!(bits(&out), bits(&want), "step {i}");
        }
        let wiglan = OfdmParams::wiglan();
        let wiglan_fft = FftPlan::new(wiglan.fft_size);
        let spec = DataSectionSpec {
            cp_len: wiglan.cp_len,
            ..base
        };
        joint_data_waveform_into(&wiglan, &wiglan_fft, &p1, a, &spec, &mut ws, &mut out);
        let want = waveform_fresh(&wiglan, &wiglan_fft, &p1, a, &spec);
        assert_eq!(bits(&out), bits(&want), "second numerology");
    }

    #[test]
    fn joint_roundtrip_flat_channels() {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let mut rng = StdRng::seed_from_u64(1);
        let psdu: Vec<u8> = (0..200).map(|_| rng.gen()).collect();
        let cp = params.cp_len;
        let h_a = Complex64::from_polar(1.0, 0.7);
        let h_b = Complex64::from_polar(0.8, -2.1);
        let buf = joint_on_air(
            &params,
            &fft,
            &psdu,
            &spec(RateId::R12, cp),
            (h_a, h_b),
            (1e-4, 2),
        );
        let n_syms = frame::n_data_symbols(&params, psdu.len(), RateId::R12);
        let roles = const_roles(&params, h_a, h_b, 1e-4);
        let window = JointDataWindow {
            data_start: 0,
            n_syms,
            psdu_len: psdu.len(),
            backoff: 0,
        };
        let (decoded, stats) =
            decode_fresh(&params, &fft, &buf, &window, &spec(RateId::R12, cp), &roles)
                .expect("buffer length");
        assert_eq!(decoded.as_deref(), Some(&psdu[..]));
        assert!(stats.evm_snr_db > 20.0, "EVM {}", stats.evm_snr_db);
        assert!((stats.mean_effective_gain - (h_a.norm_sqr() + h_b.norm_sqr())).abs() < 0.05);
    }

    #[test]
    fn destructive_channels_smart_wins_naive_loses() {
        // The §6 story end-to-end: h_B = −h_A nulls naive transmission but
        // not the Alamouti-coded one.
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let mut rng = StdRng::seed_from_u64(3);
        let psdu: Vec<u8> = (0..100).map(|_| rng.gen()).collect();
        let cp = params.cp_len;
        let h_a = Complex64::from_polar(1.0, 1.1);
        let h_b = -h_a;
        let n_syms = frame::n_data_symbols(&params, psdu.len(), RateId::R12);
        let roles = const_roles(&params, h_a, h_b, 1e-3);
        let window = JointDataWindow {
            data_start: 0,
            n_syms,
            psdu_len: psdu.len(),
            backoff: 0,
        };

        let smart_spec = spec(RateId::R12, cp);
        let smart_buf = joint_on_air(&params, &fft, &psdu, &smart_spec, (h_a, h_b), (1e-3, 4));
        let (smart, _) =
            decode_fresh(&params, &fft, &smart_buf, &window, &smart_spec, &roles).unwrap();
        assert_eq!(smart.as_deref(), Some(&psdu[..]), "smart combiner failed");

        let naive_spec = DataSectionSpec {
            smart_combiner: false,
            ..smart_spec
        };
        let naive_buf = joint_on_air(&params, &fft, &psdu, &naive_spec, (h_a, h_b), (1e-3, 5));
        let (naive, _) =
            decode_fresh(&params, &fft, &naive_buf, &window, &naive_spec, &roles).unwrap();
        assert_ne!(naive.as_deref(), Some(&psdu[..]), "naive should null out");
    }

    #[test]
    fn lone_lead_still_decodes() {
        // Subset decodability: role B absent entirely.
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let mut rng = StdRng::seed_from_u64(6);
        let psdu: Vec<u8> = (0..80).map(|_| rng.gen()).collect();
        let cp = params.cp_len;
        let h_a = Complex64::from_polar(0.9, 0.3);
        let wa = waveform_fresh(&params, &fft, &psdu, Codeword::A, &spec(RateId::R6, cp));
        let noise = ComplexGaussian::with_power(1e-4);
        let buf: Vec<Complex64> = wa
            .iter()
            .map(|a| h_a * *a + noise.sample(&mut rng))
            .collect();
        let occupied = params.occupied_carriers();
        let lead_est = ChannelEstimate {
            carriers: occupied.clone(),
            values: vec![h_a; occupied.len()],
            noise_power: 1e-4,
        };
        let roles = RoleChannels::from_estimates(&params, &[Some(&lead_est), None]);
        let n_syms = frame::n_data_symbols(&params, psdu.len(), RateId::R6);
        let window = JointDataWindow {
            data_start: 0,
            n_syms,
            psdu_len: psdu.len(),
            backoff: 0,
        };
        let (decoded, _) =
            decode_fresh(&params, &fft, &buf, &window, &spec(RateId::R6, cp), &roles).unwrap();
        assert_eq!(decoded.as_deref(), Some(&psdu[..]));
    }

    #[test]
    fn residual_rotation_tracked_by_shared_pilots() {
        // Give role B a slow continuous rotation (residual CFO after
        // pre-correction) and check the pilots keep the decode alive.
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let mut rng = StdRng::seed_from_u64(7);
        let psdu: Vec<u8> = (0..150).map(|_| rng.gen()).collect();
        let cp = params.cp_len;
        let h_a = Complex64::from_polar(1.0, 0.2);
        let h_b = Complex64::from_polar(1.0, -0.9);
        let wa = waveform_fresh(&params, &fft, &psdu, Codeword::A, &spec(RateId::R12, cp));
        let wb = waveform_fresh(&params, &fft, &psdu, Codeword::B, &spec(RateId::R12, cp));
        // 300 Hz residual on role B at 20 Msps.
        let noise = ComplexGaussian::with_power(1e-4);
        let step = 2.0 * std::f64::consts::PI * 300.0 / params.sample_rate_hz;
        let buf: Vec<Complex64> = wa
            .iter()
            .zip(&wb)
            .enumerate()
            .map(|(i, (a, b))| {
                h_a * *a + h_b * *b * Complex64::cis(step * i as f64) + noise.sample(&mut rng)
            })
            .collect();
        let n_syms = frame::n_data_symbols(&params, psdu.len(), RateId::R12);
        let roles = const_roles(&params, h_a, h_b, 1e-4);
        let window = JointDataWindow {
            data_start: 0,
            n_syms,
            psdu_len: psdu.len(),
            backoff: 0,
        };
        let (decoded, _) =
            decode_fresh(&params, &fft, &buf, &window, &spec(RateId::R12, cp), &roles).unwrap();
        assert_eq!(decoded.as_deref(), Some(&psdu[..]), "pilot tracking failed");
    }

    #[test]
    fn short_buffer_returns_none() {
        let params = OfdmParams::dot11a();
        let fft = FftPlan::new(params.fft_size);
        let roles = const_roles(&params, Complex64::ONE, Complex64::ONE, 1e-3);
        let buf = vec![Complex64::ZERO; 10];
        let window = JointDataWindow {
            data_start: 0,
            n_syms: 4,
            psdu_len: 10,
            backoff: 0,
        };
        assert!(decode_fresh(
            &params,
            &fft,
            &buf,
            &window,
            &spec(RateId::R6, params.cp_len),
            &roles
        )
        .is_none());
    }
}
