//! Protocol-seam fault injection.
//!
//! [`ssync_sim::FaultInjector`] is a packet-level drop/corrupt knob; this
//! module wires one injector into each seam of the testbed's protocol
//! stack — DATA receptions, ACK/batch-map receptions, and sync-header
//! receptions at co-senders — and keeps typed per-seam accounting so
//! tests can assert that each injected fault class surfaces as the right
//! protocol outcome (an ARQ retry, an ExOR fallback, a typed
//! [`ssync_core::session::JoinFailure`]).

use rand::Rng;
use ssync_sim::FaultInjector;

/// What the injector did to one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Faulted {
    /// Passed through untouched.
    Intact(Vec<u8>),
    /// One bit was flipped.
    Corrupted(Vec<u8>),
    /// Silently dropped.
    Dropped,
}

impl Faulted {
    /// The surviving bytes, if any.
    pub fn bytes(&self) -> Option<&[u8]> {
        match self {
            Faulted::Intact(b) | Faulted::Corrupted(b) => Some(b),
            Faulted::Dropped => None,
        }
    }
}

/// Applies an injector and classifies the result (the raw
/// [`FaultInjector::apply`] does not say whether it corrupted).
pub fn apply_classified<R: Rng + ?Sized>(
    inj: &FaultInjector,
    rng: &mut R,
    packet: &[u8],
) -> Faulted {
    match inj.apply(rng, packet) {
        None => Faulted::Dropped,
        Some(bytes) if bytes != packet => Faulted::Corrupted(bytes),
        Some(bytes) => Faulted::Intact(bytes),
    }
}

/// One injector per protocol seam.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Applied to every decoded DATA / joint-frame payload at a receiver.
    pub data: FaultInjector,
    /// Applied to every decoded ACK and batch-map frame.
    pub ack: FaultInjector,
    /// Applied to the sync-header bytes a co-sender acts on when deciding
    /// to join a joint frame.
    pub header: FaultInjector,
}

impl FaultPlan {
    /// No faults anywhere.
    pub fn none() -> Self {
        FaultPlan::default()
    }
}

/// Per-seam fault accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// DATA payloads dropped by the injector.
    pub data_dropped: u64,
    /// DATA payloads corrupted by the injector.
    pub data_corrupted: u64,
    /// ACK / batch-map frames dropped by the injector.
    pub acks_dropped: u64,
    /// ACK / batch-map frames corrupted by the injector.
    pub acks_corrupted: u64,
    /// Sync headers dropped before a co-sender could act on them.
    pub headers_dropped: u64,
    /// Sync headers corrupted before a co-sender could act on them.
    pub headers_corrupted: u64,
}

impl FaultCounters {
    /// Total injected faults across all seams.
    pub fn total(&self) -> u64 {
        self.data_dropped
            + self.data_corrupted
            + self.acks_dropped
            + self.acks_corrupted
            + self.headers_dropped
            + self.headers_corrupted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classification_matches_injector_behaviour() {
        let mut rng = StdRng::seed_from_u64(1);
        let pkt = [7u8; 8];
        assert_eq!(
            apply_classified(&FaultInjector::none(), &mut rng, &pkt),
            Faulted::Intact(pkt.to_vec())
        );
        assert_eq!(
            apply_classified(&FaultInjector::new(1.0, 0.0), &mut rng, &pkt),
            Faulted::Dropped
        );
        match apply_classified(&FaultInjector::new(0.0, 1.0), &mut rng, &pkt) {
            Faulted::Corrupted(bytes) => {
                let flipped: u32 = bytes
                    .iter()
                    .zip(&pkt)
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                assert_eq!(flipped, 1);
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn counters_sum() {
        let c = FaultCounters {
            data_dropped: 1,
            acks_corrupted: 2,
            headers_dropped: 3,
            ..Default::default()
        };
        assert_eq!(c.total(), 6);
    }
}
