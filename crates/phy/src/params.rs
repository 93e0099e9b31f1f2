//! OFDM numerology and transmission rates.
//!
//! Two presets matter for the reproduction:
//!
//! * [`OfdmParams::dot11a`] — the standard 802.11a/g numerology: 64-point
//!   FFT at 20 Msps (312.5 kHz subcarrier spacing), 16-sample cyclic prefix,
//!   48 data + 4 pilot subcarriers, 4 µs symbols.
//! * [`OfdmParams::wiglan`] — the paper's WiGLAN platform (§8): 128 Msps
//!   sampling (7.8125 ns per sample, so the paper's "15 samples = 117 ns"
//!   cyclic-prefix numbers are reproduced exactly), 128-point FFT (1 µs
//!   symbol), ~20 MHz of occupied bandwidth in the middle of the band.
//!
//! All PHY, channel and synchronizer code is parameterised on
//! [`OfdmParams`], so every experiment states its numerology explicitly.

use std::sync::Arc;

/// Modulation order of a subcarrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// 1 bit per subcarrier.
    Bpsk,
    /// 2 bits per subcarrier.
    Qpsk,
    /// 4 bits per subcarrier.
    Qam16,
    /// 6 bits per subcarrier.
    Qam64,
}

impl Modulation {
    /// Coded bits carried per subcarrier (`N_BPSC`).
    #[inline]
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// A dense index in `0..4`, in order of size: the slot of per-modulation
    /// tables.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Convolutional code rate after puncturing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// Rate 1/2 (mother code, no puncturing).
    Half,
    /// Rate 2/3 (puncture pattern of 802.11).
    TwoThirds,
    /// Rate 3/4 (puncture pattern of 802.11).
    ThreeQuarters,
}

impl CodeRate {
    /// `(input bits, output bits)` of the punctured code per puncturing period.
    #[inline]
    pub fn ratio(self) -> (usize, usize) {
        match self {
            CodeRate::Half => (1, 2),
            CodeRate::TwoThirds => (2, 3),
            CodeRate::ThreeQuarters => (3, 4),
        }
    }
}

/// An 802.11a transmission rate: a (modulation, code-rate) pair.
///
/// The `Mbps` numbers are the familiar 802.11a values for the `dot11a`
/// numerology; for other numerologies the enum still identifies the
/// modulation/coding pair and the true bit rate is
/// [`OfdmParams::data_bits_per_symbol`] over
/// [`OfdmParams::symbol_duration_s`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RateId {
    /// BPSK 1/2 — 6 Mbps in 802.11a.
    R6,
    /// BPSK 3/4 — 9 Mbps.
    R9,
    /// QPSK 1/2 — 12 Mbps.
    R12,
    /// QPSK 3/4 — 18 Mbps.
    R18,
    /// 16-QAM 1/2 — 24 Mbps.
    R24,
    /// 16-QAM 3/4 — 36 Mbps.
    R36,
    /// 64-QAM 2/3 — 48 Mbps.
    R48,
    /// 64-QAM 3/4 — 54 Mbps.
    R54,
}

impl RateId {
    /// All rates, slowest first.
    pub const ALL: [RateId; 8] = [
        RateId::R6,
        RateId::R9,
        RateId::R12,
        RateId::R18,
        RateId::R24,
        RateId::R36,
        RateId::R48,
        RateId::R54,
    ];

    /// The modulation used by this rate.
    pub fn modulation(self) -> Modulation {
        match self {
            RateId::R6 | RateId::R9 => Modulation::Bpsk,
            RateId::R12 | RateId::R18 => Modulation::Qpsk,
            RateId::R24 | RateId::R36 => Modulation::Qam16,
            RateId::R48 | RateId::R54 => Modulation::Qam64,
        }
    }

    /// The code rate used by this rate.
    pub fn code_rate(self) -> CodeRate {
        match self {
            RateId::R6 | RateId::R12 | RateId::R24 => CodeRate::Half,
            RateId::R48 => CodeRate::TwoThirds,
            RateId::R9 | RateId::R18 | RateId::R36 | RateId::R54 => CodeRate::ThreeQuarters,
        }
    }

    /// The 802.11a nominal rate in Mbps (for naming/reporting).
    pub fn nominal_mbps(self) -> u32 {
        match self {
            RateId::R6 => 6,
            RateId::R9 => 9,
            RateId::R12 => 12,
            RateId::R18 => 18,
            RateId::R24 => 24,
            RateId::R36 => 36,
            RateId::R48 => 48,
            RateId::R54 => 54,
        }
    }

    /// Stable wire encoding (4 bits) used in the SIGNAL field.
    pub fn to_index(self) -> u8 {
        RateId::ALL.iter().position(|r| *r == self).unwrap() as u8
    }

    /// Inverse of [`RateId::to_index`].
    pub fn from_index(idx: u8) -> Option<RateId> {
        RateId::ALL.get(idx as usize).copied()
    }

    /// The next faster rate, if any.
    pub fn faster(self) -> Option<RateId> {
        RateId::from_index(self.to_index() + 1)
    }

    /// The next slower rate, if any.
    pub fn slower(self) -> Option<RateId> {
        self.to_index().checked_sub(1).and_then(RateId::from_index)
    }
}

/// Fixed OFDM numerology shared by transmitter and receiver.
///
/// Subcarrier indices are *signed*: index `k` maps to FFT bin `k mod N`.
/// Index 0 (DC) is never occupied.
#[derive(Debug, Clone)]
pub struct OfdmParams {
    /// FFT size `N`.
    pub fft_size: usize,
    /// Cyclic prefix length in samples (the *base* CP; SourceSync may extend
    /// it per joint frame, see paper §4.6).
    pub cp_len: usize,
    /// Complex sample rate in Hz.
    pub sample_rate_hz: f64,
    /// Signed indices of data subcarriers.
    pub data_carriers: Vec<i32>,
    /// Signed indices of pilot subcarriers.
    pub pilot_carriers: Vec<i32>,
    /// Human-readable preset name.
    pub name: &'static str,
}

/// Shared, immutable handle to a numerology (cheap to clone across nodes).
pub type Params = Arc<OfdmParams>;

impl OfdmParams {
    /// Standard 802.11a numerology.
    pub fn dot11a() -> Params {
        let pilots = vec![-21, -7, 7, 21];
        let data = (-26i32..=26)
            .filter(|k| *k != 0 && !pilots.contains(k))
            .collect();
        Arc::new(OfdmParams {
            fft_size: 64,
            cp_len: 16,
            sample_rate_hz: 20e6,
            data_carriers: data,
            pilot_carriers: pilots,
            name: "dot11a",
        })
    }

    /// The paper's WiGLAN-like numerology: 128 Msps, 128-point FFT (1 µs
    /// symbols), ~20 MHz occupied in the centre of the band (subcarrier
    /// spacing 1 MHz), 20 data + 4 pilot subcarriers.
    pub fn wiglan() -> Params {
        let pilots = vec![-9, -3, 3, 9];
        let data = (-12i32..=12)
            .filter(|k| *k != 0 && !pilots.contains(k))
            .collect();
        Arc::new(OfdmParams {
            fft_size: 128,
            cp_len: 32,
            sample_rate_hz: 128e6,
            data_carriers: data,
            pilot_carriers: pilots,
            name: "wiglan",
        })
    }

    /// Same numerology with a different cyclic-prefix length (used by the
    /// Fig. 13 CP sweep and by SourceSync's per-frame CP extension).
    pub fn with_cp(&self, cp_len: usize) -> Params {
        Arc::new(OfdmParams {
            cp_len,
            data_carriers: self.data_carriers.clone(),
            pilot_carriers: self.pilot_carriers.clone(),
            ..*self
        })
    }

    /// All occupied subcarriers (data + pilots), sorted ascending.
    pub fn occupied_carriers(&self) -> Vec<i32> {
        let mut all: Vec<i32> = self
            .data_carriers
            .iter()
            .chain(self.pilot_carriers.iter())
            .copied()
            .collect();
        all.sort_unstable();
        all
    }

    /// Number of data subcarriers (`N_SD`).
    #[inline]
    pub fn n_data(&self) -> usize {
        self.data_carriers.len()
    }

    /// Samples per OFDM symbol including the cyclic prefix.
    #[inline]
    pub fn symbol_len(&self) -> usize {
        self.fft_size + self.cp_len
    }

    /// Duration of one OFDM symbol in seconds.
    #[inline]
    pub fn symbol_duration_s(&self) -> f64 {
        self.symbol_len() as f64 / self.sample_rate_hz
    }

    /// Duration of one sample in femtoseconds (exact for both presets).
    #[inline]
    pub fn sample_period_fs(&self) -> u64 {
        (1e15 / self.sample_rate_hz).round() as u64
    }

    /// Subcarrier spacing in Hz.
    #[inline]
    pub fn subcarrier_spacing_hz(&self) -> f64 {
        self.sample_rate_hz / self.fft_size as f64
    }

    /// Maps a signed subcarrier index to its FFT bin.
    #[inline]
    pub fn bin(&self, carrier: i32) -> usize {
        carrier.rem_euclid(self.fft_size as i32) as usize
    }

    /// Coded bits per OFDM symbol (`N_CBPS`) for a modulation.
    #[inline]
    pub fn coded_bits_per_symbol(&self, m: Modulation) -> usize {
        self.n_data() * m.bits_per_symbol()
    }

    /// Information (data) bits per OFDM symbol (`N_DBPS`) for a rate.
    #[inline]
    pub fn data_bits_per_symbol(&self, rate: RateId) -> usize {
        let cbps = self.coded_bits_per_symbol(rate.modulation());
        let (num, den) = rate.code_rate().ratio();
        cbps * num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot11a_matches_standard() {
        let p = OfdmParams::dot11a();
        assert_eq!(p.fft_size, 64);
        assert_eq!(p.n_data(), 48);
        assert_eq!(p.pilot_carriers.len(), 4);
        assert_eq!(p.symbol_len(), 80);
        assert!((p.symbol_duration_s() - 4e-6).abs() < 1e-12);
        assert_eq!(p.sample_period_fs(), 50_000_000);
        // 802.11a data rates: N_DBPS for 6 Mbps is 24 bits.
        assert_eq!(p.data_bits_per_symbol(RateId::R6), 24);
        assert_eq!(p.data_bits_per_symbol(RateId::R54), 216);
    }

    #[test]
    fn wiglan_matches_paper_numbers() {
        let p = OfdmParams::wiglan();
        // 1 µs symbols at 128 Msps; 7.8125 ns samples so 15 samples = 117.2 ns
        // (the paper's Fig. 13 CP numbers).
        assert!((p.symbol_duration_s() - 1.25e-6).abs() < 1e-12); // with CP 32
        assert_eq!(p.sample_period_fs(), 7_812_500);
        // 15 samples = 117.1875 ns (fs → ns is 1e-6).
        assert!((15.0 * p.sample_period_fs() as f64 * 1e-6 - 117.1875).abs() < 1e-9);
        // Occupied bandwidth ≈ 24 MHz (within "configured to 20 MHz" ballpark).
        let occ = p.occupied_carriers();
        let width_hz =
            (occ.last().unwrap() - occ.first().unwrap()) as f64 * p.subcarrier_spacing_hz();
        assert!(width_hz <= 25e6, "width {width_hz}");
    }

    #[test]
    fn bins_wrap_correctly() {
        let p = OfdmParams::dot11a();
        assert_eq!(p.bin(1), 1);
        assert_eq!(p.bin(-1), 63);
        assert_eq!(p.bin(-26), 38);
    }

    #[test]
    fn dc_never_occupied() {
        for p in [OfdmParams::dot11a(), OfdmParams::wiglan()] {
            assert!(!p.occupied_carriers().contains(&0));
        }
    }

    #[test]
    fn pilots_and_data_disjoint() {
        for p in [OfdmParams::dot11a(), OfdmParams::wiglan()] {
            for k in &p.pilot_carriers {
                assert!(!p.data_carriers.contains(k));
            }
        }
    }

    #[test]
    fn rate_ordering_and_indices() {
        let mut last = 0;
        for r in RateId::ALL {
            assert!(r.nominal_mbps() > last);
            last = r.nominal_mbps();
            assert_eq!(RateId::from_index(r.to_index()), Some(r));
        }
        assert_eq!(RateId::from_index(8), None);
        assert_eq!(RateId::R6.slower(), None);
        assert_eq!(RateId::R54.faster(), None);
        assert_eq!(RateId::R6.faster(), Some(RateId::R9));
    }

    #[test]
    fn with_cp_overrides_only_cp() {
        let p = OfdmParams::wiglan();
        let q = p.with_cp(15);
        assert_eq!(q.cp_len, 15);
        assert_eq!(q.fft_size, p.fft_size);
        assert_eq!(q.data_carriers, p.data_carriers);
    }

    #[test]
    fn code_rate_ratios() {
        assert_eq!(CodeRate::Half.ratio(), (1, 2));
        assert_eq!(CodeRate::TwoThirds.ratio(), (2, 3));
        assert_eq!(CodeRate::ThreeQuarters.ratio(), (3, 4));
    }
}
