//! Deterministic run telemetry: counters, histograms, series, and
//! per-stage timers.
//!
//! Every figure pipeline and Monte-Carlo driver records what it did into
//! the sink of the run that asked: [`capture`] scopes a fresh sink to one
//! closure and the sweep workers it fans out to, and returns what was
//! recorded; `run_all` captures each experiment for the run manifest.
//! Outside a capture, recording is a no-op. Two design rules keep the
//! data trustworthy:
//!
//! 1. **Metric values are thread-count invariant.** Counters only ever
//!    accumulate integers (addition is commutative, so parallel workers
//!    cannot perturb them), and histograms/series are recorded from
//!    sequential code after the sweep engine's index-ordered reassembly.
//!    The CI determinism gate diffs these values across
//!    `MOSAIC_THREADS` = 1, 2 and 8.
//! 2. **Timings are segregated.** Wall/CPU time lives in stage records,
//!    which the manifest diff treats as advisory (ratio checks), never as
//!    determinism failures.
//!
//! A sink is a plain `Mutex` around BTreeMaps — telemetry calls are
//! coarse (per stage, per figure, per sweep) so contention is nil, and
//! BTreeMap keeps key order stable for byte-stable JSON output.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
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

/// Everything one [`capture`] recorded.
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
}

/// A run's sink: the snapshot every recording call on the run's
/// threads adds to.
type Sink = Arc<Mutex<Snapshot>>;

thread_local! {
    /// The sink recording calls on this thread write to: installed by
    /// [`capture`] on the calling thread and by the sweep engine on each
    /// of its workers, `None` when nobody listens.
    static SINK: RefCell<Option<Sink>> = const { RefCell::new(None) };
}

/// Restores the thread's previous sink when dropped — on return and on
/// unwind alike, so a panicking capture cannot leave its sink installed.
struct Restore(Option<Sink>);

impl Drop for Restore {
    fn drop(&mut self) {
        let prev = self.0.take();
        // `try_with` fails only during thread teardown, when there is
        // nothing left to restore into.
        let _ = SINK.try_with(|s| *s.borrow_mut() = prev);
    }
}

/// Run `f` with `sink` installed as this thread's sink, then restore the
/// previous one. Sweep workers call this with their caller's
/// [`current`] sink so their counters land in the caller's run.
pub(crate) fn with_sink<T>(sink: Option<Sink>, f: impl FnOnce() -> T) -> T {
    let _restore = Restore(SINK.with(|s| s.replace(sink)));
    f()
}

/// This thread's sink, for handing to the workers of a fan-out.
pub(crate) fn current() -> Option<Sink> {
    SINK.with(|s| s.borrow().clone())
}

/// Whether a [`capture`] is listening on this thread. Call sites that
/// build a metric name with `format!` check this first, so telemetry
/// costs nothing when it is off.
pub(crate) fn active() -> bool {
    SINK.with(|s| s.borrow().is_some())
}

/// Run `f` and return its result together with everything it and the
/// sweep workers it fans out to recorded. Captures nest: only the
/// innermost records, and the outer sink is back when this returns or
/// unwinds.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let sink: Sink = Arc::default();
    let out = with_sink(Some(Arc::clone(&sink)), f);
    let snap = std::mem::take(&mut *lock(&sink));
    (out, snap)
}

fn lock(sink: &Sink) -> MutexGuard<'_, Snapshot> {
    // A poisoned sink only means a recording thread panicked mid-update
    // (a histogram edge mismatch); the maps are still structurally sound.
    sink.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Apply `f` to this thread's sink, if one is installed.
fn record(f: impl FnOnce(&mut Snapshot)) {
    SINK.with(|s| {
        if let Some(sink) = &*s.borrow() {
            f(&mut lock(sink));
        }
    });
}

/// Add `delta` to the named counter (creating it at zero).
///
/// Integer addition commutes, so this is safe to call from parallel
/// workers without breaking thread-count invariance.
pub fn counter_add(name: &str, delta: u64) {
    record(|snap| *snap.counters.entry(name.to_string()).or_insert(0) += delta);
}

/// Observe one value in the named histogram, creating it with `edges` on
/// first use.
///
/// # Panics
/// Panics if the histogram exists with different edges — bucket edges
/// are fixed at first registration by design.
pub fn observe(name: &str, edges: &[f64], v: f64) {
    record(|snap| {
        let h = snap
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(edges));
        assert_eq!(
            h.edges, edges,
            "histogram {name:?} re-registered with different edges"
        );
        h.observe(v);
    });
}

/// Append values to the named series. Call from sequential code only
/// (series order is part of the deterministic output).
pub fn record_series(name: &str, values: &[f64]) {
    record(|snap| {
        snap.series
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(values);
    });
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
/// count. Nested stages each get their own record. Outside a
/// [`capture`] this is just `f()`: no clock and no `/proc` read.
pub fn stage<T>(name: &str, trials: u64, f: impl FnOnce() -> T) -> T {
    if !active() {
        return f();
    }
    let cpu0 = process_cpu_ns();
    let t0 = Stopwatch::start();
    let out = f();
    let wall_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let cpu1 = process_cpu_ns();
    record(|snap| {
        snap.stages.push(StageRecord {
            name: name.to_string(),
            trials,
            wall_ns,
            cpu_ns: cpu1.saturating_sub(cpu0),
        })
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{Exec, TrialPlan};

    #[test]
    fn counters_accumulate_in_a_capture() {
        let ((), snap) = capture(|| {
            counter_add("trials.test", 5);
            counter_add("trials.test", 7);
        });
        assert_eq!(snap.counters["trials.test"], 12);
        // The capture is gone: a second one starts empty.
        let ((), again) = capture(|| ());
        assert_eq!(again, Snapshot::default());
    }

    #[test]
    fn histogram_buckets_values() {
        let ((), snap) = capture(|| {
            for v in [0.5, 1.0, 1.5, 99.0] {
                observe("h", &[1.0, 2.0], v);
            }
        });
        let h = &snap.histograms["h"];
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.total, 4);
    }

    #[test]
    fn series_and_stage_record() {
        let (out, snap) = capture(|| {
            record_series("fig.x", &[1.0, 2.0]);
            record_series("fig.x", &[3.0]);
            stage("unit", 10, || 42)
        });
        assert_eq!(out, 42);
        assert_eq!(snap.series["fig.x"], vec![1.0, 2.0, 3.0]);
        assert_eq!(snap.stages.len(), 1);
        assert_eq!(snap.stages[0].trials, 10);
        assert!(snap.stages[0].wall_ns > 0);
    }

    #[test]
    fn values_json_excludes_timings() {
        let ((), snap) = capture(|| {
            counter_add("c", 1);
            observe("h", &[1.0], 0.5);
            record_series("s", &[2.5]);
            stage("timed", 3, || ());
        });
        let values = snap.values_json().to_string_pretty();
        assert!(values.contains("\"c\": 1"));
        assert!(!values.contains("wall_ns"));
        let timings = snap.timings_json().to_string_pretty();
        assert!(timings.contains("wall_ns"));
        assert!(timings.contains("\"trials\": 3"));
    }

    #[test]
    fn recording_outside_a_capture_is_dropped() {
        assert!(!active());
        counter_add("nobody.listens", 1);
        record_series("nobody.listens", &[1.0]);
        assert_eq!(stage("nobody.listens", 1, || 5), 5);
        let ((), snap) = capture(|| assert!(active()));
        assert_eq!(snap, Snapshot::default());
        assert!(!active());
    }

    #[test]
    fn nested_captures_record_only_into_the_innermost() {
        let (inner, outer) = capture(|| {
            counter_add("outer", 1);
            let ((), inner) = capture(|| counter_add("inner", 2));
            counter_add("outer", 3);
            inner
        });
        assert_eq!(inner.counters.len(), 1);
        assert_eq!(inner.counters["inner"], 2);
        assert_eq!(outer.counters.len(), 1);
        assert_eq!(outer.counters["outer"], 4);
    }

    #[test]
    fn a_panicking_capture_restores_the_outer_sink() {
        let ((), outer) = capture(|| {
            counter_add("outer", 1);
            let unwound = std::panic::catch_unwind(|| {
                capture(|| {
                    counter_add("inner", 1);
                    panic!("capture body died");
                })
            });
            assert!(unwound.is_err());
            counter_add("outer", 1);
        });
        assert_eq!(outer.counters.len(), 1, "{:?}", outer.counters);
        assert_eq!(outer.counters["outer"], 2);
        assert!(!active());
    }

    /// Two runs on two threads at once, each fanning a labelled plan out
    /// over two workers that record counters: each capture sees exactly
    /// its own counters and its own stage.
    #[test]
    fn concurrent_captures_are_isolated_and_inherited_by_workers() {
        // Both captures are active before either plan starts.
        let both_active = std::sync::Barrier::new(2);
        let run = |label: &'static str, trials: u64| {
            capture(|| {
                both_active.wait();
                TrialPlan::new().trials(trials).seed(1).label(label).sum(
                    &Exec::with_threads(2),
                    |ctx| {
                        counter_add(label, 1);
                        ctx.trial()
                    },
                )
            })
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| run("iso.a", 300));
            let b = s.spawn(|| run("iso.b", 500));
            (a.join().unwrap(), b.join().unwrap())
        });
        for ((sum, snap), label, trials) in [(a, "iso.a", 300u64), (b, "iso.b", 500)] {
            assert_eq!(sum, trials * (trials - 1) / 2);
            let expected: BTreeMap<String, u64> = [
                (label.to_string(), trials),
                (format!("trials.{label}"), trials),
            ]
            .into_iter()
            .collect();
            assert_eq!(snap.counters, expected, "{label}");
            assert_eq!(snap.stages.len(), 1, "{label}");
            assert_eq!(snap.stages[0].name, format!("par_trials.{label}"));
            assert_eq!(snap.stages[0].trials, trials);
        }
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
        let ((), snap) = capture(|| {
            let sink = current();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let sink = sink.clone();
                    s.spawn(move || {
                        with_sink(sink, || {
                            for _ in 0..100 {
                                counter_add("par", 2);
                            }
                        })
                    });
                }
            });
        });
        assert_eq!(snap.counters["par"], 800);
    }
}
