//! Deterministic run telemetry: counters, histograms, series, and
//! per-stage timers.
//!
//! Every figure pipeline and Monte-Carlo driver records what it did into
//! a process-global collector; `run_all` snapshots the collector per
//! experiment and folds the snapshots into the run manifest. Two design
//! rules keep the data trustworthy:
//!
//! 1. **Metric values are thread-count invariant.** Counters only ever
//!    accumulate integers (addition is commutative, so parallel workers
//!    cannot perturb them), and histograms/series are recorded from
//!    sequential code after the sweep engine's index-ordered reassembly.
//!    The CI determinism gate diffs these values across
//!    `MOSAIC_THREADS=1` and the machine default.
//! 2. **Timings are segregated.** Wall/CPU time lives in stage records,
//!    which the manifest diff treats as advisory (ratio checks), never as
//!    determinism failures.
//!
//! The collector is a plain `Mutex` around BTreeMaps — telemetry calls
//! are coarse (per stage, per figure, per sweep) so contention is nil,
//! and BTreeMap keeps key order stable for byte-stable JSON output.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A histogram with caller-fixed bucket edges.
///
/// A value `v` lands in bucket `i` where `i` is the first edge with
/// `v <= edges[i]`, or in the overflow bucket when `v` exceeds every
/// edge. Edges are part of the histogram's identity: re-registering the
/// same name with different edges is a caller bug and panics.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bucket edges (inclusive), strictly increasing.
    pub edges: Vec<f64>,
    /// `edges.len() + 1` counts; the last is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub total: u64,
}

impl Histogram {
    fn new(edges: &[f64]) -> Self {
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        Histogram {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            total: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self
            .edges
            .iter()
            .position(|&e| v <= e)
            .unwrap_or(self.edges.len());
        self.counts[idx] += 1;
        self.total += 1;
    }

    fn to_json(&self) -> Json {
        Json::object()
            .with("edges", Json::from(self.edges.as_slice()))
            .with(
                "counts",
                Json::Arr(self.counts.iter().map(|&c| Json::from(c)).collect()),
            )
            .with("total", self.total)
    }
}

/// One completed stage: a labelled, timed unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage label (e.g. `"fig4.waterfall"`, `"par_trials.pool"`).
    pub name: String,
    /// Work units the stage executed (trials, codewords, sweep cells).
    pub trials: u64,
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// CPU nanoseconds across all threads (0 when unavailable).
    pub cpu_ns: u64,
}

impl StageRecord {
    fn to_json(&self) -> Json {
        Json::object()
            .with("name", self.name.as_str())
            .with("trials", self.trials)
            .with("wall_ns", self.wall_ns)
            .with("cpu_ns", self.cpu_ns)
    }
}

/// An immutable snapshot of the collector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic integer counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms, by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Numeric series (a figure's plotted values), by name.
    pub series: BTreeMap<String, Vec<f64>>,
    /// Completed stages, in completion order.
    pub stages: Vec<StageRecord>,
}

impl Snapshot {
    /// The deterministic (thread-count invariant) part as JSON: counters,
    /// histograms, series, and per-stage trial counts — no timings.
    pub fn values_json(&self) -> Json {
        let mut counters = Json::object();
        for (k, v) in &self.counters {
            counters.set(k, *v);
        }
        let mut histograms = Json::object();
        for (k, h) in &self.histograms {
            histograms.set(k, h.to_json());
        }
        let mut series = Json::object();
        for (k, xs) in &self.series {
            series.set(k, Json::from(xs.as_slice()));
        }
        Json::object()
            .with("counters", counters)
            .with("histograms", histograms)
            .with("series", series)
    }

    /// The timing part as JSON: one record per stage.
    pub fn timings_json(&self) -> Json {
        Json::Arr(self.stages.iter().map(|s| s.to_json()).collect())
    }

    /// Total trials across all stages.
    pub fn total_trials(&self) -> u64 {
        self.stages.iter().map(|s| s.trials).sum()
    }

    /// Total wall nanoseconds across all stages (stages may overlap only
    /// if nested; figure pipelines run them sequentially).
    pub fn total_wall_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.wall_ns).sum()
    }
}

#[derive(Default)]
struct Collector {
    snap: Snapshot,
}

fn collector() -> &'static Mutex<Collector> {
    static COLLECTOR: Mutex<Collector> = Mutex::new(Collector {
        snap: Snapshot {
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            series: BTreeMap::new(),
            stages: Vec::new(),
        },
    });
    &COLLECTOR
}

fn lock() -> std::sync::MutexGuard<'static, Collector> {
    #[cfg(test)]
    test_guard::assert_held();
    // A poisoned collector only means a panicking thread held the lock;
    // the telemetry maps are still structurally sound.
    match collector().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Add `delta` to the named counter (creating it at zero).
///
/// Integer addition commutes, so this is safe to call from parallel
/// workers without breaking thread-count invariance.
pub fn counter_add(name: &str, delta: u64) {
    let mut g = lock();
    *g.snap.counters.entry(name.to_string()).or_insert(0) += delta;
}

/// Observe one value in the named histogram, creating it with `edges` on
/// first use.
///
/// # Panics
/// Panics if the histogram exists with different edges — bucket edges
/// are fixed at first registration by design.
pub fn observe(name: &str, edges: &[f64], v: f64) {
    let mut g = lock();
    let h = g
        .snap
        .histograms
        .entry(name.to_string())
        .or_insert_with(|| Histogram::new(edges));
    assert_eq!(
        h.edges, edges,
        "histogram {name:?} re-registered with different edges"
    );
    h.observe(v);
}

/// Append values to the named series. Call from sequential code only
/// (series order is part of the deterministic output).
pub fn record_series(name: &str, values: &[f64]) {
    let mut g = lock();
    g.snap
        .series
        .entry(name.to_string())
        .or_default()
        .extend_from_slice(values);
}

/// CPU time (user + system) consumed by this process so far, in
/// nanoseconds. Reads utime and stime from `/proc/self/stat`: the kernel
/// folds the time of every exited thread into those process totals, so
/// the count stays right after sweep workers have joined. The fields
/// count clock ticks (`USER_HZ`, 100 per second on Linux), so the
/// resolution is 10 ms. Returns 0 where that interface is unavailable,
/// so callers must treat 0 as "unknown", not "free".
pub fn process_cpu_ns() -> u64 {
    /// Nanoseconds per `/proc/<pid>/stat` clock tick (`USER_HZ` = 100).
    const NS_PER_TICK: u64 = 10_000_000;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Field 2 (comm) may contain spaces and parentheses; the fields
    // after its last `)` are space-separated, utime and stime being the
    // 12th and 13th of them (fields 14 and 15 of the line).
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|v| v.parse::<u64>().unwrap_or(0))
        .sum();
    ticks.saturating_mul(NS_PER_TICK)
}

/// Peak resident-set size of this process so far, in bytes. Reads the
/// `VmHWM` line of `/proc/self/status` (reported in kB); returns 0 where
/// that interface is unavailable, so callers must treat 0 as "unknown".
/// The hyperfleet memory gate uses this to show that 10⁶-link runs stay
/// bounded by shard size, not fleet size.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            if let Some(kb) = rest.split_whitespace().next() {
                return kb.parse::<u64>().unwrap_or(0) * 1024;
            }
        }
    }
    0
}

/// The sanctioned wall-clock for advisory timings. This module is the
/// only place allowed to touch `std::time::Instant` (lint rule R2, see
/// DESIGN.md §9): every figure pipeline and the sweep engine measure
/// elapsed time through `Stopwatch` so the timer surface stays auditable
/// and timings stay out of the value path.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    t0: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[allow(clippy::disallowed_methods)] // the one sanctioned Instant::now
    pub fn start() -> Self {
        Stopwatch { t0: Instant::now() }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.t0.elapsed()
    }
}

/// Run `f`, recording a [`StageRecord`] with the given label and trial
/// count. Nested stages each get their own record.
pub fn stage<T>(name: &str, trials: u64, f: impl FnOnce() -> T) -> T {
    let cpu0 = process_cpu_ns();
    let t0 = Stopwatch::start();
    let out = f();
    let wall_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let cpu1 = process_cpu_ns();
    let mut g = lock();
    g.snap.stages.push(StageRecord {
        name: name.to_string(),
        trials,
        wall_ns,
        cpu_ns: cpu1.saturating_sub(cpu0),
    });
    out
}

/// Snapshot the collector's current contents.
pub fn snapshot() -> Snapshot {
    lock().snap.clone()
}

/// Clear the collector (between figures, and at test boundaries).
pub fn reset() {
    let mut g = lock();
    g.snap = Snapshot::default();
}

/// Snapshot and clear in one locked step — what `run_all` uses at each
/// figure boundary.
pub fn take() -> Snapshot {
    let mut g = lock();
    std::mem::take(&mut g.snap)
}

/// The lock the crate's lib tests share the process-global collector
/// under. A test that reads snapshot deltas, or clears the collector,
/// holds it [`exclusive`](test_guard::exclusive)ly; a test that only
/// writes telemetry holds it [`shared`](test_guard::shared), so writers
/// still run in parallel with each other but never inside a reader's
/// window. Every collector access checks that some test holds it, so a
/// new telemetry-writing test cannot silently join the race.
#[cfg(test)]
pub(crate) mod test_guard {
    use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

    static TEST_GUARD: RwLock<()> = RwLock::new(());

    /// Sole access to the collector, for the length of the guard.
    pub(crate) fn exclusive() -> RwLockWriteGuard<'static, ()> {
        TEST_GUARD.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Write access alongside other writers, excluding every reader.
    pub(crate) fn shared() -> RwLockReadGuard<'static, ()> {
        TEST_GUARD.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Panic unless a test holds the guard in either mode.
    pub(crate) fn assert_held() {
        assert!(
            matches!(TEST_GUARD.try_write(), Err(TryLockError::WouldBlock)),
            "a lib test touched the telemetry collector without holding \
             telemetry::test_guard::shared() or exclusive()"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::test_guard::exclusive;
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let _x = exclusive();
        reset();
        counter_add("trials.test", 5);
        counter_add("trials.test", 7);
        let snap = take();
        assert_eq!(snap.counters["trials.test"], 12);
        assert!(snapshot().counters.is_empty());
    }

    #[test]
    fn histogram_buckets_values() {
        let _x = exclusive();
        reset();
        for v in [0.5, 1.0, 1.5, 99.0] {
            observe("h", &[1.0, 2.0], v);
        }
        let snap = take();
        let h = &snap.histograms["h"];
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.total, 4);
    }

    #[test]
    fn series_and_stage_record() {
        let _x = exclusive();
        reset();
        record_series("fig.x", &[1.0, 2.0]);
        record_series("fig.x", &[3.0]);
        let out = stage("unit", 10, || 42);
        assert_eq!(out, 42);
        let snap = take();
        assert_eq!(snap.series["fig.x"], vec![1.0, 2.0, 3.0]);
        assert_eq!(snap.stages.len(), 1);
        assert_eq!(snap.stages[0].trials, 10);
        assert_eq!(snap.total_trials(), 10);
        assert!(snap.stages[0].wall_ns > 0);
    }

    #[test]
    fn values_json_excludes_timings() {
        let _x = exclusive();
        reset();
        counter_add("c", 1);
        observe("h", &[1.0], 0.5);
        record_series("s", &[2.5]);
        stage("timed", 3, || ());
        let snap = take();
        let values = snap.values_json().to_string_pretty();
        assert!(values.contains("\"c\": 1"));
        assert!(!values.contains("wall_ns"));
        let timings = snap.timings_json().to_string_pretty();
        assert!(timings.contains("wall_ns"));
        assert!(timings.contains("\"trials\": 3"));
    }

    /// On-CPU nanoseconds of the calling thread so far (first field of
    /// its `schedstat`), or `None` where that interface is unavailable.
    fn thread_cpu_ns() -> Option<u64> {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        text.split_whitespace().next()?.parse().ok()
    }

    #[test]
    fn process_cpu_counts_exited_threads() {
        if process_cpu_ns() == 0 || thread_cpu_ns().is_none() {
            return; // no procfs: the count is documented as unknown
        }
        const SPIN_NS: u64 = 200_000_000;
        let before = process_cpu_ns();
        // The worker spins until it has itself been on a CPU for
        // SPIN_NS, reports that, and exits before the second read.
        let worker_ns = std::thread::spawn(|| {
            let t0 = Stopwatch::start();
            let mut x = 1u64;
            loop {
                for _ in 0..10_000 {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                }
                let on_cpu = thread_cpu_ns().unwrap_or(0);
                if on_cpu >= SPIN_NS || t0.elapsed() > Duration::from_secs(20) {
                    return on_cpu;
                }
            }
        })
        .join()
        .unwrap_or(0);
        let after = process_cpu_ns();
        assert!(worker_ns >= SPIN_NS, "worker only ran {worker_ns} ns");
        // Two 10 ms ticks of slack for the tick-granular process totals.
        let counted = after.saturating_sub(before);
        assert!(
            counted + 20_000_000 >= worker_ns,
            "process CPU grew {counted} ns across a joined worker that ran {worker_ns} ns"
        );
    }

    #[test]
    fn counter_adds_commute_across_threads() {
        let _x = exclusive();
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        counter_add("par", 2);
                    }
                });
            }
        });
        assert_eq!(take().counters["par"], 800);
    }
}
