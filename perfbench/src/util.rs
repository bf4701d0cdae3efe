//! Small shared helpers: process accounting, the benchmark's own input
//! generator, digests, order statistics and the checkpoint stores.

use mosaic_bench::fragments::{FragmentRollupStore, TrafficRollupStore};
use std::path::Path;

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
///
/// The kernel folds the time of exited threads into the process totals,
/// so this stays right after the sweep engine's workers have joined.
/// `mosaic_sim::telemetry::process_cpu_ns` sums only the *live* tasks in
/// `/proc/self/task`, which undercounts at more than one thread.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Field 2 (comm) may contain spaces; everything after its closing
    // parenthesis is space-separated. utime and stime are fields 14 and
    // 15, i.e. indices 11 and 12 after the parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// The unit of the `/proc/<pid>/stat` time fields. Linux fixes it at 100
/// on every architecture the benchmark runs on.
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process in MiB (`VmHWM`). Each
/// benchmark invocation runs one workload, so the high-water mark is that
/// workload's alone.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own input generator. Inputs derive from
/// `--seed` through this, never through the crates' RNGs, so a change to
/// a crate's RNG cannot silently change what the benchmark feeds it.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over 64-bit words: the value digest the output checks pin.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold in one word.
    pub fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// Fold in a float by its exact bits.
    pub fn mix_f64(&mut self, v: f64) {
        self.mix(v.to_bits());
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Median of `xs` (mean of the middle two for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated percentile `q ∈ [0, 1]` of `xs`; 0 if empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The concrete checkpoint stores the traffic and fleet workloads hand to
/// `run_point_with` and `simulate_with`, both writing under `dir` with
/// file names keyed by `tag`. The only place the benchmark names them.
pub fn checkpoint_stores(dir: &Path, tag: &str) -> (TrafficRollupStore, FragmentRollupStore) {
    (
        TrafficRollupStore::new(dir, tag),
        FragmentRollupStore::new(dir, tag),
    )
}

/// Total bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Wilson-interval agreement with slack: true when `observed` successes
/// out of `trials` are consistent with probability `p`. The 95 % Wilson
/// half-width around `p` is widened by `slack` (and a floor of a few
/// counts), so a correct sampler fails this with negligible probability
/// while a biased one is still caught.
pub fn agrees_with(p: f64, observed: u64, trials: u64, slack: f64) -> bool {
    if trials == 0 {
        return false;
    }
    let expected = (p * trials as f64).round() as u64;
    let (lo, hi) = mosaic_sim::montecarlo::wilson_ci(expected, trials);
    let half = slack * 0.5 * (hi - lo) + 3.0 / trials as f64;
    let est = observed as f64 / trials as f64;
    (est - p).abs() <= half
}
