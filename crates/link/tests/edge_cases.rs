//! Edge-case coverage for `apply_skew` and `scan_frames`: zero-length
//! payloads, skew at or past the buffered stream length, truncated
//! trailing frames, and payload bytes that collide with the alignment
//! magic. These are the corners the traffic harness leans on when a
//! fault campaign slices an epoch mid-frame.

use mosaic_link::framing::{Frame, FRAME_MAGIC};
use mosaic_link::gearbox::{scan_frames, scan_frames_into, Gearbox};
use mosaic_link::striping::{apply_skew, Deskewer, Distributor, LaneStream, StripeConfig};

#[test]
fn zero_length_payload_roundtrips() {
    // A zero-length frame is legal: 14 bytes of pure header+CRC.
    let f = Frame {
        seq: 41,
        payload: vec![],
    };
    let bytes = f.to_bytes();
    assert_eq!(bytes.len(), Frame::OVERHEAD);
    assert_eq!(Frame::from_bytes(&bytes).unwrap(), f);

    // And it survives the full gearbox pipeline mixed with sized frames.
    let mut tx = Gearbox::new(4, 4, 8);
    let mut rx = Gearbox::new(4, 4, 8);
    let sized = vec![7u8; 120];
    let refs: Vec<&[u8]> = vec![&[], &sized, &[], &sized];
    let report = rx.receive(&tx.transmit(&refs)).unwrap();
    assert!(!report.deskew_failed);
    assert_eq!(report.frames.len(), 4);
    assert_eq!(report.frames[0].payload.len(), 0);
    assert_eq!(report.frames[2].payload.len(), 0);
    assert_eq!(report.payload_bytes, 240);
}

#[test]
fn scan_handles_stream_of_empty_frames() {
    let mut bytes = Vec::new();
    for seq in 0..5u32 {
        bytes.extend(
            Frame {
                seq,
                payload: vec![],
            }
            .to_bytes(),
        );
    }
    let (frames, corrupt) = scan_frames(&bytes);
    assert_eq!(corrupt, 0);
    assert_eq!(frames.len(), 5);
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(f.seq, i as u32);
        assert!(f.payload.is_empty());
    }
}

#[test]
fn skew_at_and_past_stream_length_still_recovers() {
    // apply_skew prepends junk; the data itself stays buffered, so even
    // skew ≥ the original stream length deskews — the receiver just
    // spends longer hunting for the first marker.
    let cfg = StripeConfig::new(4, 8);
    let payload: Vec<u64> = (0..4 * 8 * 2).map(|i| i as u64 + 100).collect();
    let mut dist = Distributor::new(cfg);
    let streams = dist.stripe(&payload, 0);
    let len = streams[0].len();
    for extreme in [len - 1, len, len + 1, 3 * len] {
        let skewed: Vec<LaneStream> = streams
            .iter()
            .enumerate()
            .map(|(i, s)| apply_skew(s, if i == 2 { extreme } else { i }, 0xBAD))
            .collect();
        let out = Deskewer::new(cfg).reassemble(&skewed).unwrap();
        assert_eq!(out, payload, "skew {extreme} should still deskew");
    }
}

#[test]
fn zero_skew_on_empty_stream_is_identity() {
    // Degenerate apply_skew inputs: no stream, no skew.
    assert_eq!(apply_skew(&LaneStream::new(), 0, 0xBAD), LaneStream::new());
    let junk_only = apply_skew(&LaneStream::new(), 3, 0x1234);
    assert_eq!(junk_only, LaneStream::filled(3, 0x1234));
    assert!((0..3).all(|i| !junk_only.is_marker(i)));
}

#[test]
fn truncated_trailing_frame_is_detected_not_delivered() {
    let f1 = Frame {
        seq: 1,
        payload: vec![0x11; 40],
    };
    let f2 = Frame {
        seq: 2,
        payload: vec![0x22; 40],
    };
    let mut bytes = f1.to_bytes();
    let tail = f2.to_bytes();

    // Cut mid-payload: the header promises more bytes than remain, so the
    // candidate is counted corrupt and never delivered.
    let mut cut_payload = bytes.clone();
    cut_payload.extend(&tail[..tail.len() - 10]);
    let (frames, corrupt) = scan_frames(&cut_payload);
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].seq, 1);
    assert!(
        corrupt >= 1,
        "truncated frame must be flagged, got {corrupt}"
    );

    // Cut mid-header: fewer than OVERHEAD bytes remain — nothing to
    // deliver, nothing misparsed.
    bytes.extend(&tail[..8]);
    let (frames, _) = scan_frames(&bytes);
    assert_eq!(frames.len(), 1);
}

#[test]
fn magic_bytes_inside_payload_do_not_break_scanning() {
    // Fill payloads with back-to-back copies of the frame magic; the
    // scanner must not resynchronize inside a valid frame.
    let magic = FRAME_MAGIC.to_le_bytes();
    let tricky: Vec<u8> = magic.iter().copied().cycle().take(64).collect();
    let mut bytes = Vec::new();
    for seq in 0..4u32 {
        bytes.extend(
            Frame {
                seq,
                payload: tricky.clone(),
            }
            .to_bytes(),
        );
    }
    let (frames, corrupt) = scan_frames(&bytes);
    assert_eq!(corrupt, 0);
    assert_eq!(frames.len(), 4);
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(f.seq, i as u32);
        assert_eq!(f.payload, tricky);
    }

    // After corruption knocks out one frame, the scanner resyncs on the
    // next real frame even with decoy magics littered through payloads.
    let mut corrupted = bytes.clone();
    corrupted[2] ^= 0x40; // break frame 0's CRC via its seq field
    let (frames, corrupt) = scan_frames(&corrupted);
    assert!(corrupt >= 1);
    // Frames 1..3 still come through (decoy magics may produce extra
    // corrupt candidates but never bogus deliveries).
    let seqs: Vec<u32> = frames.iter().map(|f| f.seq).collect();
    assert!(seqs.contains(&1) && seqs.contains(&2) && seqs.contains(&3));
    for f in &frames {
        assert_eq!(f.payload, tricky, "delivered frames must be bit-exact");
    }

    // Slot-based scanning sees the identical picture.
    let mut slots = Vec::new();
    let c2 = scan_frames_into(&corrupted, &mut slots);
    assert_eq!(c2, corrupt);
    assert_eq!(slots.len(), frames.len());
}

#[test]
fn marker_collision_with_idle_pattern_survives_gearbox() {
    // Payload bytes equal to the idle word and the magic, interleaved:
    // the striping layer is payload-agnostic and the framing layer must
    // deliver the bytes bit-exact through scramble/stripe/deskew.
    let mut tx = Gearbox::new(4, 6, 8);
    let mut rx = Gearbox::new(4, 6, 8);
    let mut tricky = Vec::new();
    for _ in 0..16 {
        tricky.extend([0x1E, 0x1E, 0x5A, 0xA5]); // idle byte + magic LE
    }
    let refs: Vec<&[u8]> = vec![&tricky; 6];
    let report = rx.receive(&tx.transmit(&refs)).unwrap();
    assert!(!report.deskew_failed);
    assert_eq!(report.frames.len(), 6);
    for f in &report.frames {
        assert_eq!(f.payload, tricky);
    }
}
