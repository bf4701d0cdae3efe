//! Proof of the "zero heap allocations per Monte-Carlo inner loop" claim
//! for the bit-sliced kernels: a counting global allocator wraps the
//! system allocator, and the sliced slicer / injector / RS channel step /
//! scrambler / PRBS hot paths must not touch it once their buffers are
//! warmed, and neither may a labelled `TrialPlan` while no telemetry
//! capture is listening.
//!
//! The fec-side twin is `crates/fec/tests/alloc_free.rs`; both harnesses
//! are cross-checked against the `mosaic_lint` R4 no-alloc registry.
//! Everything runs in a single `#[test]` so no concurrent test can
//! pollute the process-wide counter.

use mosaic_fec::ReedSolomon;
use mosaic_link::prbs::{Prbs, PrbsBank};
use mosaic_link::scrambler::Scrambler;
use mosaic_link::striping::LaneStream;
use mosaic_sim::inject::BitErrorInjector;
use mosaic_sim::montecarlo::{CodedRun, RsChannelScratch, SlicerPoint};
use mosaic_sim::rng::DetRng;
use mosaic_sim::sweep::{Exec, TrialPlan};
use mosaic_sim::telemetry;
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
fn sliced_kernel_paths_do_not_allocate() {
    // --- OOK slicer: packed tx/decision arrays live on the stack --------
    let point = SlicerPoint {
        i1: 1.0e-5,
        i0: 1.0e-6,
        s1: 3.0e-6,
        s0: 2.0e-6,
        threshold: 4.6e-6,
    };
    let mut rng = DetRng::substream(3, "alloc-free-slicer");
    let mut total = 0u64;
    // Warm-up: one pass through the slicer before the first counter read,
    // so the libtest harness's own startup allocations (made from its
    // main thread while this test begins) cannot race the measurement.
    total += point.count_errors(4096, &mut rng);
    std::thread::sleep(std::time::Duration::from_millis(20));
    // Boundary bit counts: tail blocks must not fall back to heap scratch.
    let n = allocs_during(|| {
        for bits in [1u64, 63, 64, 65, 1024, 100_000] {
            total += point.count_errors(bits, &mut rng);
            total += point.count_errors_sliced(bits, &mut rng);
            total += point.count_errors_scalar(bits, &mut rng);
        }
    });
    assert_eq!(n, 0, "slicer kernels allocated {n} times");

    // --- Tail importance sampler: the tilted-draw batch is pure
    //     register arithmetic over the warmed RNG ------------------------
    let mut tail_rng = DetRng::substream(3, "alloc-free-tail");
    let mut tail_mass = 0.0f64;
    let n = allocs_during(|| {
        for d in [0.0f64, 2.0, 6.0, 8.5] {
            let (w, w2) = mosaic_sim::fidelity::tail_batch(d, 4096, &mut tail_rng);
            tail_mass += w + w2;
        }
    });
    assert_eq!(n, 0, "tail_batch allocated {n} times");
    assert!(tail_mass > 0.0, "tail batches must have drawn real mass");

    // --- Bit-error injector: batched word and symbol corruption ---------
    let mut inj = BitErrorInjector::new(1e-3, DetRng::substream(3, "alloc-free-inject"));
    let mut words = vec![0u64; 1024];
    let mut symbols = vec![0u16; 4096];
    let n = allocs_during(|| {
        for _ in 0..8 {
            total += inj.corrupt_words(&mut words);
            total += inj.corrupt_words_sliced(&mut words);
            total += inj.corrupt_words_scalar(&mut words);
            total += inj.corrupt_symbols(&mut symbols, 10);
        }
    });
    assert_eq!(n, 0, "injector kernels allocated {n} times");

    // --- RS channel: the error-pattern codeword step, with the tracked
    //     injector under it, through a warmed scratch -------------------
    let kp4 = ReedSolomon::kp4();
    let mut channel = RsChannelScratch::new();
    let mut run = CodedRun {
        codewords: 0,
        decoded: 0,
        failures: 0,
        miscorrected: 0,
        pre_fec_bit_errors: 0,
        bits: 0,
        residual_symbol_errors: 0,
    };
    // BER 1e-2 puts ~54 bit errors in every KP4 word (failures, and the
    // largest supports); 2.4e-4 gives corrected words, which size the
    // Chien and Forney buffers. Both run in the warm-up.
    let mut harsh = BitErrorInjector::new(1e-2, DetRng::substream(3, "alloc-free-rs-harsh"));
    let mut mild = BitErrorInjector::new(2.4e-4, DetRng::substream(3, "alloc-free-rs-mild"));
    let mut support = Vec::with_capacity(symbols.len());
    for _ in 0..64 {
        channel.sparse_codeword(&kp4, &mut harsh, &mut run);
        channel.sparse_codeword(&kp4, &mut mild, &mut run);
    }
    let n = allocs_during(|| {
        for _ in 0..64 {
            channel.sparse_codeword(&kp4, &mut harsh, &mut run);
            channel.sparse_codeword(&kp4, &mut mild, &mut run);
            total += inj.corrupt_symbols_tracked(&mut symbols, 10, &mut support);
        }
    });
    assert_eq!(n, 0, "RS channel step allocated {n} times");
    assert!(run.failures > 0 && run.decoded > 0, "{run:?}");

    // --- Lane corruption: data runs are corrupted in place ---------------
    let mut lane = LaneStream::new();
    for i in 0..512u64 {
        if i % 33 == 0 {
            lane.push_marker(i as u32);
        } else {
            lane.push_data(i);
        }
    }
    let n = allocs_during(|| {
        for _ in 0..8 {
            total += inj.corrupt_lane(&mut lane);
        }
    });
    assert_eq!(n, 0, "lane corruption allocated {n} times");

    // --- Scrambler: pure register arithmetic ----------------------------
    let mut tx = Scrambler::new();
    let mut rx = Scrambler::new();
    let n = allocs_during(|| {
        for i in 0..512u64 {
            let w = tx.scramble_word(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            total += u64::from(rx.descramble_word(w).count_ones());
            let w = tx.scramble_word_sliced(i);
            total += u64::from(rx.descramble_word_sliced(w).count_ones());
        }
        let mut block = [0u64; 128];
        for round in 0..8u64 {
            block
                .iter_mut()
                .for_each(|w| *w = round.wrapping_mul(0x9E37_79B9));
            tx.scramble_words(&mut block);
            rx.descramble_words(&mut block);
            tx.scramble_words_sliced(&mut block);
            rx.descramble_words_sliced(&mut block);
            total += u64::from(block[127].count_ones());
        }
    });
    assert_eq!(n, 0, "scrambler word kernels allocated {n} times");

    // --- Raw-draw primitives: slab fill and packed thinning -------------
    let mut slab64 = [0u64; 3 * 256];
    let thin = mosaic_sim::rng::Bernoulli::new(0.125);
    let n = allocs_during(|| {
        for _ in 0..64 {
            rng.fill_u64(&mut slab64);
            total += slab64
                .iter()
                .map(|w| u64::from(w.count_ones()))
                .sum::<u64>();
            total += u64::from(thin.at_most(640, 3, &mut rng));
        }
    });
    assert_eq!(n, 0, "raw-draw primitives allocated {n} times");

    // --- PRBS bank: slab generation into warmed buffers -----------------
    let mut bank = PrbsBank::with_seeds(&Prbs::prbs31(), 130, |l| 1 + l as u64);
    let mut slab = vec![0u64; bank.words()];
    let mut bulk = vec![0u64; 64 * bank.words()];
    let n = allocs_during(|| {
        for _ in 0..64 {
            bank.next_bits(&mut slab);
            total += slab.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        }
        bank.bits_into(64, &mut bulk);
    });
    assert_eq!(n, 0, "PRBS bank kernels allocated {n} times");

    // --- Telemetry off: a labelled plan outside any capture formats no
    //     metric name, takes no clock and reads no /proc file ----------
    let plan = TrialPlan::new().trials(64).seed(3).label("alloc-free-plan");
    let exec = Exec::with_threads(1);
    total += plan.sum(&exec, |ctx| ctx.trial());
    let n = allocs_during(|| {
        for _ in 0..8 {
            total += plan.sum(&exec, |ctx| ctx.trial());
        }
    });
    assert_eq!(
        n, 0,
        "a labelled plan with telemetry off allocated {n} times"
    );
    // The same plan inside a capture does record.
    let (sum, snap) = telemetry::capture(|| plan.sum(&exec, |ctx| ctx.trial()));
    assert_eq!(sum, 64 * 63 / 2);
    assert_eq!(snap.counters["trials.alloc-free-plan"], 64);
    assert_eq!(snap.stages.len(), 1);

    // Keep the accumulator live so nothing above is optimized away.
    assert!(
        total > 0,
        "kernels must have done real work (total {total})"
    );
}
