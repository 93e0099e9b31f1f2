//! The synchronization-header payload (paper §4.4).
//!
//! The lead sender's sync header is an ordinary PHY frame (standard
//! preamble usable for detection and channel estimation) whose SIGNAL
//! flags carry [`ssync_phy::frame::FLAG_JOINT`] and whose payload encodes:
//! the lead sender identifier, a 16-bit packet identifier (so co-senders
//! can check they hold the packet being transmitted), the data rate and
//! length of the joint data section, the advertised cyclic-prefix extension
//! (§4.6), and the co-sender count.

use ssync_phy::RateId;

/// Decoded synchronization-header contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncHeader {
    /// The lead sender's node id.
    pub lead: u16,
    /// 16-bit packet identifier (paper: a hash of IP src/dst/id; here the
    /// caller provides any stable hash of the payload).
    pub packet_id: u16,
    /// Rate of the joint data section.
    pub rate: RateId,
    /// PSDU length of the joint data section, bytes.
    pub psdu_len: u16,
    /// Cyclic-prefix extension for the data symbols, in samples over the
    /// numerology's base CP.
    pub cp_extension: u8,
    /// Number of co-sender training slots that follow.
    pub n_cosenders: u8,
}

/// Serialised size in bytes.
pub const SYNC_HEADER_LEN: usize = 9;

impl SyncHeader {
    /// Serialises to the 9-byte wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SYNC_HEADER_LEN);
        out.extend_from_slice(&self.lead.to_le_bytes());
        out.extend_from_slice(&self.packet_id.to_le_bytes());
        out.push(self.rate.to_index());
        out.extend_from_slice(&self.psdu_len.to_le_bytes());
        out.push(self.cp_extension);
        out.push(self.n_cosenders);
        out
    }

    /// Parses the wire form. Bytes past the ninth are ignored.
    ///
    /// # Errors
    /// [`WireError::Truncated`] when fewer than [`SYNC_HEADER_LEN`] bytes
    /// arrive, [`WireError::UnknownRate`] when the rate byte names no
    /// [`RateId`].
    pub fn from_bytes(bytes: &[u8]) -> Result<SyncHeader, WireError> {
        if bytes.len() < SYNC_HEADER_LEN {
            return Err(WireError::Truncated { len: bytes.len() });
        }
        Ok(SyncHeader {
            lead: u16::from_le_bytes([bytes[0], bytes[1]]),
            packet_id: u16::from_le_bytes([bytes[2], bytes[3]]),
            rate: RateId::from_index(bytes[4]).ok_or(WireError::UnknownRate(bytes[4]))?,
            psdu_len: u16::from_le_bytes([bytes[5], bytes[6]]),
            cp_extension: bytes[7],
            n_cosenders: bytes[8],
        })
    }
}

/// Why bytes did not parse as a [`SyncHeader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer than [`SYNC_HEADER_LEN`] bytes.
    Truncated {
        /// The number of bytes that arrived.
        len: usize,
    },
    /// The rate byte is not the index of any [`RateId`].
    UnknownRate(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { len } => {
                write!(f, "sync header truncated: {len} of {SYNC_HEADER_LEN} bytes")
            }
            WireError::UnknownRate(b) => write!(f, "sync header names unknown rate index {b}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The 16-bit packet identifier used in sync headers: an FNV-1a hash folded
/// to 16 bits (stands in for the paper's IP-header hash).
pub fn packet_id(payload: &[u8]) -> u16 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in payload {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    ((h >> 16) ^ (h & 0xFFFF)) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SyncHeader {
        SyncHeader {
            lead: 3,
            packet_id: 0xBEEF,
            rate: RateId::R12,
            psdu_len: 1464,
            cp_extension: 17,
            n_cosenders: 2,
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let bytes = h.to_bytes();
        assert_eq!(bytes.len(), SYNC_HEADER_LEN);
        assert_eq!(SyncHeader::from_bytes(&bytes), Ok(h));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..SYNC_HEADER_LEN {
            assert_eq!(
                SyncHeader::from_bytes(&bytes[..cut]),
                Err(WireError::Truncated { len: cut })
            );
        }
    }

    #[test]
    fn unknown_rate_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 200;
        assert_eq!(
            SyncHeader::from_bytes(&bytes),
            Err(WireError::UnknownRate(200))
        );
    }

    #[test]
    fn extra_bytes_tolerated() {
        let mut bytes = sample().to_bytes();
        bytes.push(0xFF);
        assert_eq!(SyncHeader::from_bytes(&bytes), Ok(sample()));
    }

    #[test]
    fn packet_id_distinguishes_payloads() {
        let a = packet_id(b"payload one");
        let b = packet_id(b"payload two");
        assert_ne!(a, b);
        assert_eq!(packet_id(b"payload one"), a);
    }
}
