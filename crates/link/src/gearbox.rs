//! The assembled gearbox: frames in, hundreds of lane streams out — and
//! back. This is the executable model of Mosaic's FPGA prototype logic.
//!
//! Transmit path: frames → self-delimiting byte stream (CRC-32 framing) →
//! 64-bit words → scrambler → round-robin striping with alignment markers
//! over the *active* physical channels (per [`LaneMap`]). Spare channels
//! idle. Receive path: select assigned channels, deskew on markers,
//! descramble, scan the byte stream for valid frames. Any corruption that
//! survives the optical layer's FEC surfaces here as a CRC-failed frame,
//! never as silently wrong data.
//!
//! Failure handling: when the caller retires a channel (its BER monitor
//! tripped, or it went dark) the map swaps in a spare; the next `transmit`
//! epoch uses the new assignment. In-flight data on the dead channel is
//! lost and shows up as dropped frames — exactly the behaviour the F11
//! resilience experiment measures.

use crate::framing::{frame_into, parse_frame, Frame, FrameError};
use crate::lanes::{FailureKind, LaneMap, NoSpares};
use crate::scrambler::Scrambler;
use crate::striping::{
    DeskewError, DeskewScratch, Deskewer, Distributor, LaneStream, StripeConfig,
};

/// Idle word transmitted on spare/unassigned channels.
const IDLE_WORD: u64 = 0x1E1E_1E1E_1E1E_1E1E;

/// A full-duplex-capable gearbox endpoint (use one per direction).
#[derive(Debug, Clone)]
pub struct Gearbox {
    cfg: StripeConfig,
    map: LaneMap,
    physical: usize,
    dist: Distributor,
    tx_scrambler: Scrambler,
    rx_scrambler: Scrambler,
    next_tx_seq: u32,
}

/// What came out of a receive epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct RxReport {
    /// Frames recovered intact (CRC-verified), in arrival order.
    pub frames: Vec<Frame>,
    /// Byte positions that failed CRC or framing — corruption *detected*.
    pub corrupt_frames: usize,
    /// Total payload bytes delivered.
    pub payload_bytes: usize,
    /// True if deskew failed entirely this epoch (e.g. a channel died
    /// mid-epoch); the epoch's data is lost.
    pub deskew_failed: bool,
}

/// Reusable transmit-side working buffers for [`Gearbox::transmit_into`].
/// One per gearbox; capacities grow to the epoch's working set and then
/// stay, so the steady-state epoch loop allocates nothing (lint R4).
#[derive(Debug, Clone, Default)]
pub struct TxScratch {
    bytes: Vec<u8>,
    words: Vec<u64>,
}

/// Reusable receive-side working buffers for [`Gearbox::receive_into`].
#[derive(Debug, Clone, Default)]
pub struct RxScratch {
    deskew: DeskewScratch,
    words: Vec<u64>,
}

/// One recovered frame inside an [`RxBatch`]: the sequence number plus
/// the payload's position in the batch's descrambled byte stream. Borrow
/// the bytes via [`RxBatch::payload`] — no per-frame allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSlot {
    /// Sender-assigned sequence number.
    pub seq: u32,
    /// Payload start offset into [`RxBatch::bytes`].
    pub start: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// Allocation-free counterpart of [`RxReport`]: frames are descriptors
/// into the reused `bytes` buffer instead of owned vectors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RxBatch {
    /// The epoch's descrambled byte stream (valid until the next call).
    pub bytes: Vec<u8>,
    /// Frames recovered intact (CRC-verified), in arrival order.
    pub frames: Vec<FrameSlot>,
    /// Byte positions that failed CRC or framing — corruption *detected*.
    pub corrupt_frames: usize,
    /// Total payload bytes delivered.
    pub payload_bytes: usize,
    /// Set when deskew failed entirely this epoch; carries the offending
    /// lane and observed skew for fault attribution.
    pub deskew_error: Option<DeskewError>,
}

impl RxBatch {
    /// Payload bytes of recovered frame `i`.
    pub fn payload(&self, i: usize) -> &[u8] {
        let s = self.frames[i];
        &self.bytes[s.start..s.start + s.len]
    }

    /// True if deskew failed entirely this epoch (mirror of
    /// [`RxReport::deskew_failed`]).
    pub fn deskew_failed(&self) -> bool {
        self.deskew_error.is_some()
    }
}

impl Gearbox {
    /// Build a gearbox striping over `logical` lanes drawn from
    /// `physical` channels (surplus = spares), with alignment markers
    /// every `am_period` words per lane.
    ///
    /// # Panics
    /// Panics on invalid geometry; use [`Gearbox::try_new`] to handle
    /// the error instead.
    pub fn new(logical: usize, physical: usize, am_period: usize) -> Self {
        match Self::try_new(logical, physical, am_period) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Gearbox::new`]: errors on zero lanes, zero marker
    /// period, or fewer physical channels than logical lanes.
    pub fn try_new(
        logical: usize,
        physical: usize,
        am_period: usize,
    ) -> mosaic_units::Result<Self> {
        let cfg = StripeConfig::try_new(logical, am_period)?;
        Ok(Gearbox {
            cfg,
            map: LaneMap::try_new(logical, physical)?,
            physical,
            dist: Distributor::new(cfg),
            tx_scrambler: Scrambler::new(),
            rx_scrambler: Scrambler::new(),
            next_tx_seq: 0,
        })
    }

    /// The lane map (assignments, spares, retirements).
    pub fn lane_map(&self) -> &LaneMap {
        &self.map
    }

    /// Number of physical channels (active + spare + retired).
    pub fn physical_channels(&self) -> usize {
        self.physical
    }

    /// Retire a physical channel and swap in a spare.
    pub fn fail_channel(
        &mut self,
        physical: usize,
        kind: FailureKind,
    ) -> Result<Option<usize>, NoSpares> {
        self.map.fail_channel(physical, kind)
    }

    /// Frame and transmit `payloads` (one frame each). Returns one word
    /// stream per *physical* channel: assigned channels carry stripes,
    /// spares carry idles, retired channels carry nothing.
    pub fn transmit(&mut self, payloads: &[&[u8]]) -> Vec<LaneStream> {
        let mut scratch = TxScratch::default();
        let mut channels = Vec::with_capacity(self.physical);
        self.transmit_into(payloads, &mut scratch, &mut channels);
        channels
    }

    /// [`Gearbox::transmit`] into caller-owned buffers: `channels` is
    /// resized to the physical channel count and each stream refilled in
    /// place. With a warm `scratch` the epoch loop allocates nothing
    /// (lint R4: registered in the no-alloc registry with a
    /// counting-allocator harness).
    pub fn transmit_into(
        &mut self,
        payloads: &[&[u8]],
        scratch: &mut TxScratch,
        channels: &mut Vec<LaneStream>,
    ) {
        // Frames → byte stream.
        scratch.bytes.clear();
        for p in payloads {
            frame_into(self.next_tx_seq, p, &mut scratch.bytes);
            self.next_tx_seq = self.next_tx_seq.wrapping_add(1);
        }
        // Bytes → words (zero-padded tail), padded with zero words to a
        // whole marker block *before* scrambling, so the TX and RX
        // scrambler states advance by exactly the same word count.
        let block = self.cfg.block_payload();
        let padded = scratch.bytes.len().div_ceil(8).div_ceil(block).max(1) * block;
        scratch.words.clear();
        let chunks = scratch.bytes.chunks_exact(8);
        let tail = chunks.remainder();
        scratch.words.extend(chunks.map(le_word));
        if !tail.is_empty() {
            scratch.words.push(le_word(tail));
        }
        scratch.words.resize(padded, 0);
        self.tx_scrambler.scramble_words(&mut scratch.words);
        // Stripe straight into the assigned physical channels.
        channels.truncate(self.physical);
        channels.resize_with(self.physical, LaneStream::new);
        let assignment = self.map.assignment();
        self.dist
            .stripe_into(&scratch.words, 0, channels, assignment);
        // Spares idle at the same epoch length so the medium stays lit;
        // retired channels carry nothing.
        let stream_len = padded / block * (self.cfg.am_period + 1);
        for (ch, stream) in channels.iter_mut().enumerate() {
            if assignment.contains(&ch) {
                continue;
            }
            if self.map.retired().iter().any(|&(p, _)| p == ch) {
                stream.clear();
            } else {
                stream.fill(stream_len, IDLE_WORD);
            }
        }
    }

    /// Receive one epoch of physical channel streams.
    ///
    /// A failed deskew is *not* an error — it is a measured link outcome,
    /// reported via [`RxReport::deskew_failed`]. `Err` means the input is
    /// malformed: the number of streams does not match the gearbox's
    /// physical channel count.
    pub fn receive(&mut self, channels: &[LaneStream]) -> mosaic_units::Result<RxReport> {
        let mut scratch = RxScratch::default();
        let mut batch = RxBatch::default();
        self.receive_into(channels, &mut scratch, &mut batch)?;
        let frames = batch
            .frames
            .iter()
            .map(|s| Frame {
                seq: s.seq,
                payload: batch.bytes[s.start..s.start + s.len].to_vec(),
            })
            .collect();
        Ok(RxReport {
            frames,
            corrupt_frames: batch.corrupt_frames,
            payload_bytes: batch.payload_bytes,
            deskew_failed: batch.deskew_error.is_some(),
        })
    }

    /// [`Gearbox::receive`] into caller-owned buffers: recovered frames
    /// are descriptors into `batch.bytes` instead of owned vectors. With
    /// warm buffers the epoch loop allocates nothing (lint R4: registered
    /// in the no-alloc registry with a counting-allocator harness).
    pub fn receive_into(
        &mut self,
        channels: &[LaneStream],
        scratch: &mut RxScratch,
        batch: &mut RxBatch,
    ) -> mosaic_units::Result<()> {
        if channels.len() != self.physical {
            return Err(mosaic_units::MosaicError::LengthMismatch {
                what: "channel streams",
                expected: self.physical,
                got: channels.len(),
            });
        }
        batch.bytes.clear();
        batch.frames.clear();
        batch.corrupt_frames = 0;
        batch.payload_bytes = 0;
        batch.deskew_error = None;
        // Deskew the assigned channels in place, in logical order.
        let deskewer = Deskewer::new(self.cfg);
        if let Err(e) = deskewer.reassemble_into(
            channels,
            self.map.assignment(),
            &mut scratch.deskew,
            &mut scratch.words,
        ) {
            batch.deskew_error = Some(e);
            return Ok(());
        }
        // Descramble and flatten to bytes.
        self.rx_scrambler.descramble_words(&mut scratch.words);
        batch.bytes.resize(scratch.words.len() * 8, 0);
        for (dst, w) in batch.bytes.chunks_exact_mut(8).zip(&scratch.words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        batch.corrupt_frames = scan_frames_into(&batch.bytes, &mut batch.frames);
        batch.payload_bytes = batch.frames.iter().map(|s| s.len).sum();
        Ok(())
    }
}

/// Up to eight bytes as a little-endian word, zero-padded.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// Index of the first `byte` in `bytes` at or after `from`, or
/// `bytes.len()` when there is none. Tests eight bytes per step: a
/// zero byte of `x` sets its top bit in `(x − 0x01…01) & !x & 0x80…80`,
/// and the lowest set bit marks the first one exactly (a borrow only
/// runs upward from a zero byte).
fn find_byte(bytes: &[u8], from: usize, byte: u8) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let mut i = from;
    while i + 8 <= bytes.len() {
        let x = le_word(&bytes[i..i + 8]) ^ (ONES * u64::from(byte));
        let zero = x.wrapping_sub(ONES) & !x & (ONES << 7);
        if zero != 0 {
            return i + (zero.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < bytes.len() && bytes[i] != byte {
        i += 1;
    }
    i.min(bytes.len())
}

/// Scan a byte stream for valid frames, resynchronizing on the magic after
/// any corruption. Returns intact frames and the count of detected-corrupt
/// frame candidates.
pub fn scan_frames(bytes: &[u8]) -> (Vec<Frame>, usize) {
    let mut slots = Vec::new();
    let corrupt = scan_frames_into(bytes, &mut slots);
    let frames = slots
        .iter()
        .map(|s| Frame {
            seq: s.seq,
            payload: bytes[s.start..s.start + s.len].to_vec(),
        })
        .collect();
    (frames, corrupt)
}

/// [`scan_frames`] into a caller-owned slot buffer: `frames` is cleared
/// and refilled with descriptors into `bytes`. Returns the count of
/// detected-corrupt frame candidates. Allocation-free once `frames` is
/// warm (lint R4).
pub fn scan_frames_into(bytes: &[u8], frames: &mut Vec<FrameSlot>) -> usize {
    frames.clear();
    let mut corrupt = 0usize;
    let magic = crate::framing::FRAME_MAGIC.to_le_bytes();
    let mut pos = 0usize;
    while pos + Frame::OVERHEAD <= bytes.len() {
        if bytes[pos] != magic[0] || bytes[pos + 1] != magic[1] {
            pos = find_byte(bytes, pos + 1, magic[0]);
            continue;
        }
        let len = u32::from_le_bytes([
            bytes[pos + 6],
            bytes[pos + 7],
            bytes[pos + 8],
            bytes[pos + 9],
        ]) as usize;
        let total = Frame::OVERHEAD + len;
        if len > bytes.len() || pos + total > bytes.len() {
            // Length field implausible — corrupted header or tail padding.
            corrupt += 1;
            pos += 2;
            continue;
        }
        match parse_frame(&bytes[pos..pos + total]) {
            Ok((seq, payload)) => {
                frames.push(FrameSlot {
                    seq,
                    start: pos + 10,
                    len: payload.len(),
                });
                pos += total;
            }
            Err(FrameError::BadCrc) => {
                corrupt += 1;
                pos += 2; // skip the magic, rescan inside
            }
            Err(_) => {
                pos += 2;
            }
        }
    }
    corrupt
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(n: usize, size: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| (0..size).map(|j| ((i * 31 + j * 7) & 0xFF) as u8).collect())
            .collect()
    }

    #[test]
    fn clean_link_delivers_everything() {
        let mut tx = Gearbox::new(8, 10, 16);
        let mut rx = Gearbox::new(8, 10, 16);
        let data = payloads(20, 200);
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        let channels = tx.transmit(&refs);
        let report = rx.receive(&channels).unwrap();
        assert!(!report.deskew_failed);
        assert_eq!(report.frames.len(), 20);
        assert_eq!(report.corrupt_frames, 0);
        for (i, f) in report.frames.iter().enumerate() {
            assert_eq!(f.seq, i as u32);
            assert_eq!(f.payload, data[i]);
        }
    }

    #[test]
    fn skewed_channels_still_deliver() {
        let mut tx = Gearbox::new(4, 4, 8);
        let mut rx = Gearbox::new(4, 4, 8);
        let data = payloads(5, 100);
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        let channels = tx.transmit(&refs);
        let skewed: Vec<LaneStream> = channels
            .iter()
            .enumerate()
            .map(|(i, s)| crate::striping::apply_skew(s, i * 5, 0xBAD))
            .collect();
        let report = rx.receive(&skewed).unwrap();
        assert_eq!(report.frames.len(), 5);
    }

    #[test]
    fn corrupted_word_loses_only_affected_frames() {
        let mut tx = Gearbox::new(4, 4, 8);
        let mut rx = Gearbox::new(4, 4, 8);
        let data = payloads(30, 64);
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        let mut channels = tx.transmit(&refs);
        // Corrupt a handful of data words on channel 2.
        let mut hits = 0;
        for i in 0..channels[2].len() {
            if channels[2].flip_bit(i, 31) {
                hits += 1;
                if hits == 3 {
                    break;
                }
            }
        }
        let report = rx.receive(&channels).unwrap();
        assert!(!report.deskew_failed);
        assert!(
            report.frames.len() >= 24,
            "lost too many: {}",
            report.frames.len()
        );
        assert!(report.frames.len() < 30);
        assert!(report.corrupt_frames > 0);
        // Delivered frames are bit-exact.
        for f in &report.frames {
            assert_eq!(f.payload, data[f.seq as usize]);
        }
    }

    #[test]
    fn failover_to_spare_restores_service() {
        let mut tx = Gearbox::new(4, 6, 8);
        let mut rx = Gearbox::new(4, 6, 8);
        let data = payloads(10, 80);
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();

        // Epoch 1: clean.
        let r1 = rx.receive(&tx.transmit(&refs)).unwrap();
        assert_eq!(r1.frames.len(), 10);

        // Channel 1 dies; both ends remap (control plane coordination).
        assert_eq!(tx.fail_channel(1, FailureKind::Dead).unwrap(), Some(1));
        assert_eq!(rx.fail_channel(1, FailureKind::Dead).unwrap(), Some(1));

        // Epoch 2: full service on the spare.
        let r2 = rx.receive(&tx.transmit(&refs)).unwrap();
        assert_eq!(r2.frames.len(), 10);
        assert_eq!(tx.lane_map().spares_left(), 1);
    }

    #[test]
    fn dead_channel_without_remap_fails_deskew() {
        let mut tx = Gearbox::new(4, 4, 8);
        let mut rx = Gearbox::new(4, 4, 8);
        let data = payloads(5, 50);
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        let mut channels = tx.transmit(&refs);
        // Channel 3 goes dark mid-epoch: its stream is junk.
        channels[3] = LaneStream::filled(channels[3].len(), 0);
        let report = rx.receive(&channels).unwrap();
        assert!(report.deskew_failed);
        assert!(report.frames.is_empty());
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        assert!(Gearbox::try_new(0, 4, 8).is_err());
        assert!(Gearbox::try_new(4, 2, 8).is_err());
        assert!(Gearbox::try_new(4, 4, 0).is_err());
        let mut rx = Gearbox::new(4, 4, 8);
        // Wrong number of channel streams is malformed input, not a
        // measured deskew failure.
        assert!(rx.receive(&[LaneStream::new(), LaneStream::new()]).is_err());
    }

    #[test]
    fn into_pair_matches_allocating_path() {
        // Same seeds, same traffic: the scratch-reuse pair must produce
        // byte-identical channel streams and recover identical frames.
        let mut tx_a = Gearbox::new(4, 6, 8);
        let mut rx_a = Gearbox::new(4, 6, 8);
        let mut tx_b = Gearbox::new(4, 6, 8);
        let mut rx_b = Gearbox::new(4, 6, 8);
        let mut scratch_tx = TxScratch::default();
        let mut scratch_rx = RxScratch::default();
        let mut channels_b = Vec::new();
        let mut batch = RxBatch::default();
        for epoch in 0..4 {
            let data = payloads(6 + epoch, 90);
            let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
            let channels_a = tx_a.transmit(&refs);
            tx_b.transmit_into(&refs, &mut scratch_tx, &mut channels_b);
            assert_eq!(channels_a, channels_b);
            let report = rx_a.receive(&channels_a).unwrap();
            rx_b.receive_into(&channels_b, &mut scratch_rx, &mut batch)
                .unwrap();
            assert_eq!(report.frames.len(), batch.frames.len());
            assert_eq!(report.corrupt_frames, batch.corrupt_frames);
            assert_eq!(report.payload_bytes, batch.payload_bytes);
            assert_eq!(report.deskew_failed, batch.deskew_failed());
            for (i, f) in report.frames.iter().enumerate() {
                assert_eq!(f.seq, batch.frames[i].seq);
                assert_eq!(f.payload.as_slice(), batch.payload(i));
            }
        }
        // Mid-test failover keeps the pair in lockstep too.
        for g in [&mut tx_a, &mut rx_a, &mut tx_b, &mut rx_b] {
            g.fail_channel(2, FailureKind::Dead).unwrap();
        }
        let data = payloads(5, 64);
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        let channels_a = tx_a.transmit(&refs);
        tx_b.transmit_into(&refs, &mut scratch_tx, &mut channels_b);
        assert_eq!(channels_a, channels_b);
        let report = rx_a.receive(&channels_a).unwrap();
        rx_b.receive_into(&channels_b, &mut scratch_rx, &mut batch)
            .unwrap();
        assert_eq!(report.frames.len(), 5);
        assert_eq!(batch.frames.len(), 5);
    }

    #[test]
    fn receive_into_reports_deskew_error_detail() {
        let mut tx = Gearbox::new(4, 4, 8);
        let mut rx = Gearbox::new(4, 4, 8);
        let data = payloads(5, 50);
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        let mut channels = tx.transmit(&refs);
        channels[3] = LaneStream::filled(channels[3].len(), 0);
        let mut scratch = RxScratch::default();
        let mut batch = RxBatch::default();
        rx.receive_into(&channels, &mut scratch, &mut batch)
            .unwrap();
        assert!(batch.deskew_failed());
        // The dark channel is attributed: logical lane 3 maps to physical
        // channel 3 under the identity assignment.
        assert_eq!(batch.deskew_error, Some(DeskewError::NoMarker { lane: 3 }));
        assert!(batch.frames.is_empty());
    }

    #[test]
    fn find_byte_matches_a_linear_search() {
        let mut bytes = vec![0u8; 40];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37) & 0xF0;
        }
        for target in [0x00, 0x10, 0x50, 0x5A, 0xF0] {
            for from in 0..=bytes.len() + 2 {
                let linear = (from..bytes.len())
                    .find(|&i| bytes[i] == target)
                    .unwrap_or(bytes.len());
                assert_eq!(find_byte(&bytes, from, target), linear, "{target} {from}");
            }
        }
    }

    #[test]
    fn scan_resynchronizes_after_garbage() {
        let f1 = Frame {
            seq: 1,
            payload: vec![1; 20],
        };
        let f2 = Frame {
            seq: 2,
            payload: vec![2; 20],
        };
        let mut bytes = vec![0x5Au8; 7]; // leading garbage
        bytes.extend(f1.to_bytes());
        bytes.extend(vec![0xFF; 13]); // mid-stream garbage
        bytes.extend(f2.to_bytes());
        let (frames, _) = scan_frames(&bytes);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].seq, 1);
        assert_eq!(frames[1].seq, 2);
    }
}
