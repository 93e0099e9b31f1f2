//! The 802.11 frame-synchronous scrambler, generator `x⁷ + x⁴ + 1`.
//!
//! Scrambling whitens the transmitted bit stream so constant payloads do not
//! produce spectral lines; the same function descrambles (XOR with the same
//! PRBS). The pilot-polarity sequence of 802.11 is the output of this PRBS
//! seeded with all-ones, which we reuse in [`crate::ofdm`].

/// 7-bit LFSR scrambler state. State must be non-zero.
#[derive(Debug, Clone, Copy)]
pub struct Scrambler {
    state: u8,
}

/// The fixed scrambler seed used for data (deterministic experiments; 802.11
/// randomises this per frame, which only matters for spectral regulation).
pub const DEFAULT_SEED: u8 = 0b101_1101;

/// Seed producing the 802.11 pilot polarity sequence.
pub const PILOT_SEED: u8 = 0b111_1111;

/// The sequence's period: a maximal-length 7-bit LFSR visits all 127
/// non-zero states once per cycle.
const PERIOD: usize = 127;

/// One LFSR step from `state`: `(output bit, next state)`.
const fn step(state: u8) -> (u8, u8) {
    let bit = ((state >> 6) ^ (state >> 3)) & 1;
    (bit, ((state << 1) | bit) & 0x7F)
}

/// The register over one cycle from [`PILOT_SEED`]: `STATES[i]` is the
/// state before output bit `i`, `PRBS[i]` that bit (repeated once more, so
/// any phase can read `PERIOD` bits without wrapping), and `PHASE[s]` the
/// `i` at which the register holds `s`.
struct Cycle {
    states: [u8; PERIOD],
    prbs: [u8; 2 * PERIOD],
    phase: [u8; 128],
}

const CYCLE: Cycle = {
    let mut c = Cycle {
        states: [0; PERIOD],
        prbs: [0; 2 * PERIOD],
        phase: [0; 128],
    };
    let mut state = PILOT_SEED;
    let mut i = 0;
    while i < PERIOD {
        let (bit, next) = step(state);
        c.states[i] = state;
        c.phase[state as usize] = i as u8;
        c.prbs[i] = bit;
        c.prbs[i + PERIOD] = bit;
        state = next;
        i += 1;
    }
    assert!(state == PILOT_SEED, "the LFSR is not maximal-length");
    c
};

/// 802.11's pilot polarity `p_n` for `n` in `0..127`: `+1` for a PRBS
/// zero, `−1` for a one.
const POLARITY: [f64; PERIOD] = {
    let mut p = [0.0; PERIOD];
    let mut i = 0;
    while i < PERIOD {
        p[i] = if CYCLE.prbs[i] == 0 { 1.0 } else { -1.0 };
        i += 1;
    }
    p
};

impl Scrambler {
    /// Creates a scrambler with the given 7-bit seed.
    ///
    /// # Panics
    /// Panics if the seed is zero or wider than 7 bits (an all-zero LFSR
    /// never leaves the zero state).
    pub fn new(seed: u8) -> Self {
        assert!(
            seed != 0 && seed < 0x80,
            "scrambler seed must be a non-zero 7-bit value"
        );
        Scrambler { state: seed }
    }

    /// Produces the next PRBS bit and advances the register.
    pub fn next_bit(&mut self) -> u8 {
        let (bit, next) = step(self.state);
        self.state = next;
        bit
    }

    /// Scrambles (or descrambles — the operation is an involution) a bit
    /// slice in place: the bits [`Scrambler::next_bit`] would produce,
    /// read from the cycle table at the register's phase, leaving the
    /// register where stepping once per bit would.
    pub fn scramble_in_place(&mut self, bits: &mut [u8]) {
        let phase = CYCLE.phase[self.state as usize] as usize;
        // The sequence repeats every PERIOD bits, so every chunk starts
        // at the same phase.
        let prbs = &CYCLE.prbs[phase..phase + PERIOD];
        for chunk in bits.chunks_mut(PERIOD) {
            for (b, p) in chunk.iter_mut().zip(prbs) {
                *b ^= p;
            }
        }
        self.state = CYCLE.states[(phase + bits.len()) % PERIOD];
    }

    /// Scrambles into a fresh vector.
    pub fn scramble(mut self, bits: &[u8]) -> Vec<u8> {
        let mut out = bits.to_vec();
        self.scramble_in_place(&mut out);
        out
    }
}

/// The pilot polarity for OFDM symbol `n` (+1.0 or −1.0): 802.11's
/// `p_{n mod 127}` sequence from the all-ones-seeded PRBS.
#[inline]
pub fn pilot_polarity(symbol_index: usize) -> f64 {
    POLARITY[symbol_index % PERIOD]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_is_127() {
        let mut s = Scrambler::new(DEFAULT_SEED);
        let first: Vec<u8> = (0..127).map(|_| s.next_bit()).collect();
        let second: Vec<u8> = (0..127).map(|_| s.next_bit()).collect();
        assert_eq!(first, second);
        // And the sequence is not constant.
        assert!(first.contains(&0) && first.contains(&1));
    }

    #[test]
    fn scramble_is_involution() {
        let bits: Vec<u8> = (0..200).map(|i| (i * 7 % 3 == 0) as u8).collect();
        let scrambled = Scrambler::new(DEFAULT_SEED).scramble(&bits);
        assert_ne!(scrambled, bits);
        let back = Scrambler::new(DEFAULT_SEED).scramble(&scrambled);
        assert_eq!(back, bits);
    }

    #[test]
    fn balanced_output() {
        let mut s = Scrambler::new(DEFAULT_SEED);
        let ones: usize = (0..127).map(|_| s.next_bit() as usize).sum();
        // A maximal-length 7-bit LFSR emits 64 ones and 63 zeros per period.
        assert_eq!(ones, 64);
    }

    #[test]
    fn pilot_polarity_first_values() {
        // 802.11a Annex G: the polarity sequence starts 1,1,1,1,-1,-1,-1,1...
        let head: Vec<f64> = (0..8).map(pilot_polarity).collect();
        assert_eq!(head, vec![1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0]);
    }

    #[test]
    fn pilot_polarity_periodic() {
        for n in 0..10 {
            assert_eq!(pilot_polarity(n), pilot_polarity(n + 127));
        }
    }

    /// The LFSR the tables replaced: pilot polarity by stepping a fresh
    /// register, kept as their oracle.
    fn stepped_polarity(symbol_index: usize) -> f64 {
        let mut s = Scrambler::new(PILOT_SEED);
        let mut bit = 0;
        for _ in 0..=(symbol_index % 127) {
            bit = s.next_bit();
        }
        if bit == 0 {
            1.0
        } else {
            -1.0
        }
    }

    #[test]
    fn polarity_table_matches_lfsr() {
        for n in 0..=300 {
            assert_eq!(
                pilot_polarity(n).to_bits(),
                stepped_polarity(n).to_bits(),
                "n {n}"
            );
        }
    }

    #[test]
    fn table_scrambler_matches_bit_loop() {
        // Every length 0..=400 from a few seeds, and a few lengths from
        // every seed: the same bits out, and the register left where one
        // `next_bit` per bit leaves it.
        let check = |seed: u8, len: usize| {
            let bits: Vec<u8> = (0..len).map(|i| (i * 5 % 7 < 3) as u8).collect();
            let mut table = Scrambler::new(seed);
            let mut got = bits.clone();
            table.scramble_in_place(&mut got);
            let mut stepped = Scrambler::new(seed);
            let want: Vec<u8> = bits.iter().map(|b| b ^ stepped.next_bit()).collect();
            assert_eq!(got, want, "seed {seed} len {len}");
            assert_eq!(table.state, stepped.state, "seed {seed} len {len}");
        };
        for seed in [DEFAULT_SEED, PILOT_SEED, 1, 0x40] {
            for len in 0..=400 {
                check(seed, len);
            }
        }
        for seed in 1..0x80 {
            for len in [0, 1, 126, 127, 128, 254, 381, 400] {
                check(seed, len);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_seed_rejected() {
        let _ = Scrambler::new(0);
    }
}
