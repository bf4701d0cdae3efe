//! R2 violating fixture: wall clock and ambient entropy in a crate
//! that feeds deterministic pipelines.

use std::time::Instant;

pub fn timed_sum(xs: &[u64]) -> (u64, u128) {
    let start = Instant::now();
    let sum = xs.iter().sum();
    (sum, start.elapsed().as_nanos())
}

pub fn noisy() -> u8 {
    rand::random::<u8>()
}

/// Ambient mutable state: a process-global counter, a lazily built
/// cache, and a per-thread scratch cell.
pub static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

static CACHE: std::sync::OnceLock<std::sync::Mutex<Vec<u64>>> = std::sync::OnceLock::new();

thread_local! {
    static SCRATCH: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

pub fn cached() -> usize {
    CACHE.get().map_or(0, |c| c.lock().map_or(0, |v| v.len()))
}
