//! Proof of the "must not allocate" claim for the reach-bisection kernels:
//! a counting global allocator wraps the system allocator, and
//! `BudgetEngine::set_length`, `all_feasible` and `worst_margin` must not
//! touch it. A reach solve runs them about 48 times per design query, so
//! a per-probe allocation would show up in every design query.
//!
//! Cross-checked against the `mosaic_lint` R4 no-alloc registry. Everything
//! runs in a single `#[test]` so no concurrent test can pollute the
//! process-wide counter.

use mosaic::budget::BudgetEngine;
use mosaic::MosaicConfig;
use mosaic_fiber::crosstalk::Misalignment;
use mosaic_units::{BitRate, Length};
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

/// The design grid's largest query (1,600 Gb/s over 0.25 Gb/s channels:
/// 6,978 channels) under the given rotational misalignment.
fn largest_query(rotation_rad: f64) -> MosaicConfig {
    MosaicConfig::builder()
        .bit_rate(BitRate::from_gbps(1600.0))
        .channel_rate(BitRate::from_gbps(0.25))
        .misalignment(Misalignment {
            lateral: Length::ZERO,
            rotation_rad,
        })
        .reach(Length::from_m(10.0))
        .build()
        .expect("valid config")
}

#[test]
fn reach_bisection_kernels_do_not_allocate() {
    // The class-table walk must be allocation-free with a handful of
    // classes and with hundreds. Each case also pins its class count and
    // how many of the probed lengths close, so the zero count below
    // measured both verdicts and both paths.
    let cases = [
        // Aligned: a handful of classes, feasible to tens of metres.
        (0.0, 1..=5, 1..=6),
        // The outer channels never close: the early-exit path.
        (0.02, 100..=6978, 0..=0),
        // Many classes, still feasible to tens of metres.
        (1e-4, 100..=6978, 1..=6),
    ];
    // Let libtest's own start-up allocations finish before the first
    // counter read.
    std::thread::sleep(std::time::Duration::from_millis(20));
    for (rotation_rad, classes, feasible_lengths) in cases {
        let cfg = largest_query(rotation_rad);
        let mut engine = BudgetEngine::new(&cfg);
        assert_eq!(engine.fiber().channels(), 6978);
        let mut feasible = 0u32;
        let n = allocs_during(|| {
            for m in [1.0, 3.0, 10.0, 25.0, 50.0, 200.0, 1000.0] {
                engine.set_length(Length::from_m(m));
                let verdict = engine.all_feasible(&cfg.led);
                let margin = engine.worst_margin(&cfg.led);
                assert_eq!(verdict, matches!(margin, Some(m) if m.as_db() >= 0.0));
                feasible += u32::from(verdict);
            }
        });
        assert_eq!(
            n, 0,
            "{rotation_rad} rad: set_length/all_feasible/worst_margin allocated {n} times"
        );
        assert!(
            classes.contains(&engine.class_count()),
            "{rotation_rad} rad"
        );
        assert!(feasible_lengths.contains(&feasible), "{rotation_rad} rad");
    }
}
