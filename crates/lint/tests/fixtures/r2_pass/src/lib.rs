//! R2 passing fixture: no wall clock, no ambient entropy. Timing (if
//! any) would flow through `mosaic_sim::telemetry::Stopwatch`; random
//! draws come from a counter-based stream passed in by the caller.

pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Immutable statics are fine: a lookup table and a borrowed name.
static TABLE: [u64; 4] = [1, 3, 7, 15];

pub static NAME: &str = "fixture";

pub fn table(i: usize) -> u64 {
    TABLE[i % TABLE.len()]
}

/// State passed in by the caller instead of held ambiently.
pub fn bump(counter: &std::cell::Cell<u64>) -> u64 {
    counter.set(counter.get() + 1);
    counter.get()
}
