//! Proof of the "zero heap allocations per traffic epoch" claim for the
//! gearbox scratch-reuse pair: a counting global allocator wraps the
//! system allocator, and `transmit_into` / `receive_into` (plus the
//! framing, CRC, striping and lane-fault helpers underneath them) must
//! not touch it once their buffers are warmed — on clean epochs and on
//! faulty ones (killed, truncated and bit-flipped lanes, failed deskew).
//!
//! The sim-side twin is `crates/sim/tests/alloc_free.rs`; both harnesses
//! are cross-checked against the `mosaic_lint` R4 no-alloc registry.
//! Everything runs in a single `#[test]` so no concurrent test can
//! pollute the process-wide counter.

use mosaic_link::framing::{self, frame_into, parse_frame};
use mosaic_link::gearbox::{scan_frames_into, Gearbox, RxBatch, RxScratch, TxScratch};
use mosaic_link::striping::{
    DeskewError, DeskewScratch, Deskewer, Distributor, LaneStream, StripeConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations observed while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    f();
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn gearbox_epoch_loop_does_not_allocate() {
    let mut tx = Gearbox::new(8, 10, 16);
    let mut rx = Gearbox::new(8, 10, 16);
    let mut tx_scratch = TxScratch::default();
    let mut rx_scratch = RxScratch::default();
    let mut channels: Vec<LaneStream> = Vec::new();
    let mut batch = RxBatch::default();
    let data: Vec<Vec<u8>> = (0..24)
        .map(|i| (0..180).map(|j| ((i * 31 + j * 7) & 0xFF) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();

    // Warm-up: one full epoch grows every buffer to its working set (and
    // runs before the first counter read, so the libtest harness's own
    // startup allocations cannot race the measurement).
    tx.transmit_into(&refs, &mut tx_scratch, &mut channels);
    rx.receive_into(&channels, &mut rx_scratch, &mut batch)
        .unwrap();
    assert_eq!(batch.frames.len(), 24);
    std::thread::sleep(std::time::Duration::from_millis(20));

    // --- Steady-state epochs: the full TX→RX loop is allocation-free ----
    let mut delivered = 0usize;
    let n = allocs_during(|| {
        for _ in 0..16 {
            tx.transmit_into(&refs, &mut tx_scratch, &mut channels);
            rx.receive_into(&channels, &mut rx_scratch, &mut batch)
                .unwrap();
            delivered += batch.frames.len();
            for i in 0..batch.frames.len() {
                delivered += usize::from(!batch.payload(i).is_empty());
            }
        }
    });
    assert_eq!(n, 0, "gearbox epoch loop allocated {n} times");
    assert_eq!(delivered, 16 * 24 * 2);

    // --- Framing helpers on warmed buffers ------------------------------
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut seqs = 0u64;
    let n = allocs_during(|| {
        for round in 0..32u32 {
            buf.clear();
            for s in 0..8 {
                frame_into(round * 8 + s, &data[s as usize], &mut buf);
            }
            seqs += u64::from(framing::crc32(&buf) & 1);
            let mut pos = 0usize;
            while pos < buf.len() {
                let total = 14 + 180;
                let (seq, payload) = parse_frame(&buf[pos..pos + total]).unwrap();
                seqs += u64::from(seq) + payload.len() as u64;
                pos += total;
            }
        }
    });
    assert_eq!(n, 0, "framing helpers allocated {n} times");
    assert!(seqs > 0);

    // --- Frame scanning into a warmed slot buffer -----------------------
    let mut slots = Vec::with_capacity(64);
    let n = allocs_during(|| {
        for _ in 0..16 {
            let corrupt = scan_frames_into(&batch.bytes, &mut slots);
            seqs += slots.len() as u64 + corrupt as u64;
        }
    });
    assert_eq!(n, 0, "scan_frames_into allocated {n} times");

    // --- Striping and deskew straight on warmed channel streams ---------
    let cfg = StripeConfig::new(8, 16);
    let assignment = [3, 0, 9, 1, 4, 7, 2, 5];
    let payload: Vec<u64> = (0..8 * 16 * 4).collect();
    let mut dist = Distributor::new(cfg);
    let deskewer = Deskewer::new(cfg);
    let mut lanes = vec![LaneStream::new(); 10];
    let mut deskew_scratch = DeskewScratch::default();
    let mut words = Vec::new();
    dist.stripe_into(&payload, 0, &mut lanes, &assignment);
    deskewer
        .reassemble_into(&lanes, &assignment, &mut deskew_scratch, &mut words)
        .unwrap();
    let n = allocs_during(|| {
        for _ in 0..16 {
            dist.stripe_into(&payload, 0, &mut lanes, &assignment);
            let ok = deskewer
                .reassemble_into(&lanes, &assignment, &mut deskew_scratch, &mut words)
                .is_ok();
            seqs += u64::from(ok && words == payload);
        }
    });
    assert_eq!(n, 0, "stripe_into/reassemble_into allocated {n} times");

    // --- Faulty epochs: killed, truncated and bit-flipped lanes ---------
    // One clean warm-up epoch above sized every buffer; a fault only ever
    // shortens or rewrites streams in place, and a failed deskew returns
    // a plain error value.
    let mut flips = 0usize;
    let mut outcomes = [0usize; 2];
    let n = allocs_during(|| {
        for round in 0..8u32 {
            tx.transmit_into(&refs, &mut tx_scratch, &mut channels);
            for k in 0..12 {
                flips += usize::from(channels[5].flip_bit(k * 7, round + k as u32));
            }
            let len = channels[3].len();
            channels[3].truncate(len - 17);
            if round % 2 == 1 {
                channels[1].kill();
            }
            rx.receive_into(&channels, &mut rx_scratch, &mut batch)
                .unwrap();
            match batch.deskew_error {
                None => outcomes[0] += batch.frames.len() + batch.corrupt_frames,
                Some(DeskewError::NoMarker { lane: 1 }) => outcomes[1] += 1,
                Some(other) => panic!("unexpected deskew error {other:?}"),
            }
        }
    });
    assert_eq!(n, 0, "faulty gearbox epochs allocated {n} times");
    assert!(flips > 0, "bit flips must have hit data words");
    assert!(
        outcomes[0] > 0,
        "truncated epochs must still deliver or flag frames"
    );
    assert_eq!(outcomes[1], 4, "every killed-lane epoch must fail deskew");

    // Keep the accumulators live so nothing above is optimized away.
    assert!(seqs > 0, "scans must have recovered frames (seqs {seqs})");
}
