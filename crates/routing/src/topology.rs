//! Packet-level mesh topology: per-link delivery probabilities and SNRs.
//!
//! The link SNRs come from the sample-level network's channel models; the
//! delivery probabilities read them off a PER table — in every caller the
//! hand-typed logistic curves of `PerTable::analytic()`, not curves
//! measured through the modem. They serve ETX and the ExOR forwarder
//! order only: every frame the testbed sends is decoded from the waveform.

use ssync_phy::ber::PerTable;
use ssync_phy::RateId;
use ssync_sim::{Network, NodeId};

/// A mesh topology reduced to link statistics.
#[derive(Debug, Clone)]
pub struct MeshTopology {
    /// Number of nodes.
    pub n: usize,
    /// `snr_db[i][j]`: mean SNR of the directed link `i → j` (−inf if no
    /// link).
    pub snr_db: Vec<Vec<f64>>,
}

impl MeshTopology {
    /// Extracts link statistics from a built network.
    pub fn from_network(net: &Network) -> Self {
        let n = net.len();
        let snr_db = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if i == j {
                            f64::NEG_INFINITY
                        } else {
                            net.snr_db(NodeId(i), NodeId(j))
                        }
                    })
                    .collect()
            })
            .collect();
        MeshTopology { n, snr_db }
    }

    /// A topology from explicit SNRs (tests, controlled sweeps).
    pub fn from_snrs(snr_db: Vec<Vec<f64>>) -> Self {
        let n = snr_db.len();
        for row in &snr_db {
            assert_eq!(row.len(), n, "SNR matrix must be square");
        }
        MeshTopology { n, snr_db }
    }

    /// Delivery probability of `i → j` at `rate` under `per`. A link with
    /// `−inf` SNR (no link) delivers nothing, regardless of how the PER
    /// curve clamps. Links pay the frequency-selective fading penalty
    /// ([`ssync_phy::ber::FADING_PENALTY_DB`]) against the AWGN-shaped
    /// PER table.
    pub fn delivery(&self, per: &PerTable, rate: RateId, i: usize, j: usize) -> f64 {
        let snr = self.snr_db[i][j];
        if i == j || snr == f64::NEG_INFINITY {
            return 0.0;
        }
        1.0 - per.per(rate, snr - ssync_phy::ber::FADING_PENALTY_DB)
    }

    /// The full delivery matrix at one rate.
    pub fn delivery_matrix(&self, per: &PerTable, rate: RateId) -> Vec<Vec<f64>> {
        (0..self.n)
            .map(|i| {
                (0..self.n)
                    .map(|j| self.delivery(per, rate, i, j))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node(snr: f64) -> MeshTopology {
        MeshTopology::from_snrs(vec![
            vec![f64::NEG_INFINITY, snr],
            vec![snr, f64::NEG_INFINITY],
        ])
    }

    #[test]
    fn delivery_tracks_snr() {
        let per = PerTable::analytic();
        let good = two_node(30.0);
        let bad = two_node(0.0);
        assert!(good.delivery(&per, RateId::R12, 0, 1) > 0.99);
        assert!(bad.delivery(&per, RateId::R12, 0, 1) < 0.05);
        assert_eq!(good.delivery(&per, RateId::R12, 0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn ragged_matrix_rejected() {
        let _ = MeshTopology::from_snrs(vec![vec![0.0], vec![0.0, 1.0]]);
    }
}
