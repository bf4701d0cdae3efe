//! CRC-32 framed transport.
//!
//! The gearbox moves opaque frames (the host's packets) across the striped
//! channels. Every frame carries a sequence number, a length, and an IEEE
//! CRC-32 over header + payload, so any corruption that slips past FEC is
//! *detected* and surfaced as a lost frame — the simulator's ground truth
//! for frame-loss-rate measurements.

/// IEEE 802.3 CRC-32 (reflected, polynomial 0xEDB88320), slicing-by-8:
/// eight bytes per step through eight 256-entry tables, the tail a byte
/// at a time through the first. Allocation-free (lint R4).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// The slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte table and
/// `CRC_TABLES[k][i]` the CRC state of byte `i` followed by `k` zero
/// bytes, so one step folds eight bytes with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Frame header magic (helps resynchronization scans in tests).
pub const FRAME_MAGIC: u16 = 0xA55A;

/// A transport frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Monotonic sequence number assigned by the sender.
    pub seq: u32,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Errors that can occur while parsing a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than a minimal frame.
    Truncated,
    /// Header magic mismatch.
    BadMagic,
    /// Declared length inconsistent with the buffer.
    BadLength,
    /// CRC mismatch: corruption detected.
    BadCrc,
}

impl Frame {
    /// Wire size of the header + trailer around the payload.
    pub const OVERHEAD: usize = 2 + 4 + 4 + 4; // magic, seq, len, crc

    /// Serialize: `magic | seq | len | payload | crc32`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::OVERHEAD + self.payload.len());
        frame_into(self.seq, &self.payload, &mut out);
        out
    }

    /// Parse a frame from exactly one serialized buffer.
    pub fn from_bytes(buf: &[u8]) -> Result<Frame, FrameError> {
        let (seq, payload) = parse_frame(buf)?;
        Ok(Frame {
            seq,
            payload: payload.to_vec(),
        })
    }
}

/// Append one serialized frame (`magic | seq | len | payload | crc32`) to
/// `out` without constructing a [`Frame`]. The CRC covers only this
/// frame's bytes, so frames may be packed back to back in one buffer.
/// Allocation-free once `out` has capacity (lint R4).
pub fn frame_into(seq: u32, payload: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Parse exactly one serialized frame, borrowing the payload from `buf`
/// instead of copying it. Allocation-free counterpart of
/// [`Frame::from_bytes`] (lint R4).
pub fn parse_frame(buf: &[u8]) -> Result<(u32, &[u8]), FrameError> {
    if buf.len() < Frame::OVERHEAD {
        return Err(FrameError::Truncated);
    }
    let magic = u16::from_le_bytes([buf[0], buf[1]]);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let seq = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]);
    let len = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]) as usize;
    if buf.len() != Frame::OVERHEAD + len {
        return Err(FrameError::BadLength);
    }
    let body = &buf[..10 + len];
    let crc_rx = u32::from_le_bytes([buf[10 + len], buf[11 + len], buf[12 + len], buf[13 + len]]);
    if crc32(body) != crc_rx {
        return Err(FrameError::BadCrc);
    }
    Ok((seq, &buf[10..10 + len]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time table CRC-32 the sliced kernel replaced, kept
    /// as its oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_answer() {
        // The classic check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc_matches_oracle_at_every_length() {
        let data: Vec<u8> = (0..4096 + 7usize)
            .map(|i| (i.wrapping_mul(131) ^ (i >> 5)) as u8)
            .collect();
        for len in 0..=4096 {
            for start in [0, 3] {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} start {start}");
            }
        }
    }

    #[test]
    fn frame_roundtrip() {
        let f = Frame {
            seq: 7,
            payload: b"hello mosaic".to_vec(),
        };
        let parsed = Frame::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn corruption_detected() {
        let f = Frame {
            seq: 1,
            payload: vec![0u8; 64],
        };
        let mut bytes = f.to_bytes();
        bytes[20] ^= 0x40;
        assert_eq!(Frame::from_bytes(&bytes), Err(FrameError::BadCrc));
    }

    #[test]
    fn header_corruption_detected() {
        let f = Frame {
            seq: 1,
            payload: vec![1, 2, 3],
        };
        let mut bytes = f.to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(Frame::from_bytes(&bytes), Err(FrameError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let f = Frame {
            seq: 1,
            payload: vec![9; 32],
        };
        let bytes = f.to_bytes();
        assert_eq!(
            Frame::from_bytes(&bytes[..bytes.len() - 3]),
            Err(FrameError::BadLength)
        );
        assert_eq!(Frame::from_bytes(&bytes[..5]), Err(FrameError::Truncated));
    }

    #[test]
    fn frame_into_packs_back_to_back() {
        let mut buf = Vec::new();
        frame_into(3, b"abc", &mut buf);
        let first_len = buf.len();
        frame_into(4, b"defgh", &mut buf);
        let (seq_a, pay_a) = parse_frame(&buf[..first_len]).unwrap();
        let (seq_b, pay_b) = parse_frame(&buf[first_len..]).unwrap();
        assert_eq!((seq_a, pay_a), (3, &b"abc"[..]));
        assert_eq!((seq_b, pay_b), (4, &b"defgh"[..]));
    }

    proptest! {
        /// The sliced kernel equals the byte-table oracle at every length
        /// and at every alignment of the slice start.
        #[test]
        fn sliced_crc_matches_bytewise_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
            skip in 0usize..8,
            cut in 0usize..8,
        ) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
            let a = skip.min(data.len());
            let b = data.len().saturating_sub(cut).max(a);
            prop_assert_eq!(crc32(&data[a..b]), crc32_bytewise(&data[a..b]));
        }

        #[test]
        fn frame_into_matches_to_bytes(
            seq: u32,
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let f = Frame { seq, payload };
            let mut buf = Vec::new();
            frame_into(f.seq, &f.payload, &mut buf);
            prop_assert_eq!(&buf, &f.to_bytes());
            let (pseq, ppay) = parse_frame(&buf).unwrap();
            prop_assert_eq!(pseq, f.seq);
            prop_assert_eq!(ppay, f.payload.as_slice());
        }

        #[test]
        fn roundtrip_random(seq: u32, payload in proptest::collection::vec(any::<u8>(), 0..512)) {
            let f = Frame { seq, payload };
            prop_assert_eq!(Frame::from_bytes(&f.to_bytes()).unwrap(), f);
        }

        #[test]
        fn any_single_byte_corruption_detected(
            seq: u32,
            payload in proptest::collection::vec(any::<u8>(), 1..128),
            pos_frac in 0f64..1.0,
            flip in 1u8..=255,
        ) {
            let f = Frame { seq, payload };
            let mut bytes = f.to_bytes();
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            bytes[pos] ^= flip;
            prop_assert!(Frame::from_bytes(&bytes).is_err());
        }
    }
}
