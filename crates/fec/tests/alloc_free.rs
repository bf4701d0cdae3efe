//! Proof of the "zero heap allocations per decoded codeword" claim: a
//! counting global allocator wraps the system allocator, and decoding
//! through a warmed [`DecodeScratch`] must not touch it.
//!
//! Everything runs in a single `#[test]` so no concurrent test can
//! pollute the process-wide counter.

use mosaic_fec::{Bch, BchOutcome, DecodeOutcome, DecodeScratch, ReedSolomon};
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

#[test]
fn scratch_decode_paths_do_not_allocate() {
    // --- Reed-Solomon: KP4 with a correctable error burst ---------------
    let rs = ReedSolomon::kp4();
    let data: Vec<u16> = (0..rs.k() as u16).map(|v| v & 0x3FF).collect();
    let clean = rs.encode(&data);
    let mut corrupted = clean.clone();
    for i in 0..rs.t() {
        corrupted[i * 36] ^= 0x155;
    }
    let mut word = corrupted.clone();
    let mut scratch = DecodeScratch::new();
    // Warm-up decode sizes every scratch buffer.
    assert_eq!(
        rs.decode_scratch(&mut word, &mut scratch).unwrap(),
        DecodeOutcome::Corrected(rs.t())
    );

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..50 {
        word.copy_from_slice(&corrupted);
        let out = rs.decode_scratch(&mut word, &mut scratch).unwrap();
        assert!(matches!(out, DecodeOutcome::Corrected(_)));
    }
    // Clean words exercise the fused-syndrome early exit.
    word.copy_from_slice(&clean);
    for _ in 0..50 {
        let out = rs.decode_scratch(&mut word, &mut scratch).unwrap();
        assert!(matches!(out, DecodeOutcome::Clean));
    }
    let rs_allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        rs_allocs, 0,
        "RS scratch decode allocated {rs_allocs} times"
    );

    // --- Erasure path reuses the same scratch ---------------------------
    let erasures: Vec<usize> = (0..10).map(|i| i * 36).collect();
    word.copy_from_slice(&corrupted);
    rs.decode_with_erasures_scratch(&mut word, &erasures, &mut scratch)
        .unwrap();
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..50 {
        word.copy_from_slice(&corrupted);
        rs.decode_with_erasures_scratch(&mut word, &erasures, &mut scratch)
            .unwrap();
    }
    let er_allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        er_allocs, 0,
        "RS erasure scratch decode allocated {er_allocs} times"
    );

    // --- Error-pattern decode: the same errors without the codeword ----
    let pattern: Vec<u16> = corrupted.iter().zip(&clean).map(|(a, b)| a ^ b).collect();
    let support: Vec<usize> = (0..rs.n()).filter(|&i| pattern[i] != 0).collect();
    let mut err = pattern.clone();
    rs.decode_error_pattern(&mut err, &support, &mut scratch)
        .unwrap();
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..50 {
        err.copy_from_slice(&pattern);
        let out = rs
            .decode_error_pattern(&mut err, &support, &mut scratch)
            .unwrap();
        assert_eq!(out, DecodeOutcome::Corrected(rs.t()));
    }
    let ep_allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        ep_allocs, 0,
        "RS error-pattern decode allocated {ep_allocs} times"
    );
    assert!(err.iter().all(|&v| v == 0));

    // --- Encode into a warmed buffer ------------------------------------
    let mut enc = Vec::new();
    rs.try_encode_into(&data, &mut enc).unwrap();
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..50 {
        rs.try_encode_into(&data, &mut enc).unwrap();
    }
    let enc_allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(enc_allocs, 0, "RS encode_into allocated {enc_allocs} times");
    assert_eq!(enc, clean);

    // --- BCH: same scratch object, different code entirely ---------------
    let bch = Bch::new(8, 255, 5);
    let bdata: Vec<u8> = (0..bch.k()).map(|i| (i % 2) as u8).collect();
    let bclean = bch.encode(&bdata);
    let mut bcorrupt = bclean.clone();
    for i in 0..bch.t() {
        bcorrupt[i * 50] ^= 1;
    }
    let mut bword = bcorrupt.clone();
    bch.decode_scratch(&mut bword, &mut scratch).unwrap();
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..50 {
        bword.copy_from_slice(&bcorrupt);
        let out = bch.decode_scratch(&mut bword, &mut scratch).unwrap();
        assert!(matches!(out, BchOutcome::Corrected(_)));
    }
    let bch_allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        bch_allocs, 0,
        "BCH scratch decode allocated {bch_allocs} times"
    );
}
