//! CRC-32 (IEEE 802.3), used as the frame check sequence appended to every
//! PSDU so the receiver can declare packet success/failure exactly as an
//! 802.11 MAC does.

const POLY: u32 = 0xEDB8_8320; // reflected 0x04C11DB7

fn table() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            b += 1;
        }
        t[i] = crc;
        i += 1;
    }
    t
}

/// Computes the IEEE CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    // The table is tiny; recomputing it per call keeps the API stateless and
    // it is still far from the hot path (4 bytes per packet).
    let t = table();
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ t[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Appends the CRC-32 of `data` (little-endian) and returns the framed copy.
pub fn append_crc(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + 4);
    out.extend_from_slice(data);
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out
}

/// Verifies and strips a trailing CRC-32. Returns the payload on success.
pub fn check_crc(framed: &[u8]) -> Option<&[u8]> {
    if framed.len() < 4 {
        return None;
    }
    let (payload, fcs) = framed.split_at(framed.len() - 4);
    let expect = u32::from_le_bytes([fcs[0], fcs[1], fcs[2], fcs[3]]);
    (crc32(payload) == expect).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip() {
        let data = b"SourceSync joint frame payload";
        let framed = append_crc(data);
        assert_eq!(check_crc(&framed), Some(&data[..]));
    }

    #[test]
    fn detects_single_bit_flip() {
        let framed = append_crc(b"some payload bytes");
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert_eq!(check_crc(&bad), None, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn too_short_rejected() {
        assert_eq!(check_crc(&[1, 2, 3]), None);
        assert_eq!(check_crc(&[]), None);
    }
}
