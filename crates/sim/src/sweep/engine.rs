//! The execution core: scoped worker threads, self-scheduling off an
//! atomic counter, index-ordered reassembly.
//!
//! Everything here is *mechanism* — how a fixed task set fans out over a
//! worker pool deterministically. Policy (trial counts, seeds, retry
//! budgets, fidelity hints) lives in [`super::scheduler`], and the
//! panic-tolerant retry machinery in [`super::resilience`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Environment variable selecting the worker count (`1` = sequential).
pub const THREADS_ENV: &str = "MOSAIC_THREADS";

/// Render a panic payload as text (panics carry `&str` or `String` in
/// practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Parse a `MOSAIC_THREADS` value: a positive integer (`1` = sequential).
///
/// `"0"`, non-numeric text, and the empty string are structured
/// [`mosaic_units::MosaicError::InvalidConfig`] errors, never panics —
/// [`Exec::from_env`] documents the fallback it applies on such input.
pub fn parse_threads(raw: &str) -> mosaic_units::Result<usize> {
    let parsed = raw.trim().parse::<usize>().map_err(|_| {
        mosaic_units::MosaicError::invalid_config(
            THREADS_ENV,
            format!("must be a positive integer, got {raw:?}"),
        )
    })?;
    if parsed == 0 {
        return Err(mosaic_units::MosaicError::invalid_config(
            THREADS_ENV,
            "must be >= 1 (use 1 for a sequential run)",
        ));
    }
    Ok(parsed)
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// An execution context: how many workers to fan out over.
#[derive(Debug, Clone, Copy)]
pub struct Exec {
    threads: usize,
}

impl Default for Exec {
    fn default() -> Self {
        Exec::from_env()
    }
}

impl Exec {
    /// Resolve from `MOSAIC_THREADS`, defaulting to available parallelism.
    ///
    /// Malformed values (`"0"`, `"abc"`, `""`) do **not** panic: the
    /// documented fallback is a one-line stderr warning plus the machine
    /// default, so a bad environment can degrade a run's parallelism but
    /// never abort it. Use [`Exec::try_from_env`] to surface the error.
    pub fn from_env() -> Self {
        match Exec::try_from_env() {
            Ok(exec) => exec,
            Err(e) => {
                eprintln!("[sweep] {e}; falling back to available parallelism");
                Exec::with_threads(default_parallelism())
            }
        }
    }

    /// Resolve from `MOSAIC_THREADS`, returning a structured error on a
    /// malformed value instead of applying [`Exec::from_env`]'s fallback.
    pub fn try_from_env() -> mosaic_units::Result<Self> {
        match std::env::var(THREADS_ENV) {
            Ok(v) => Ok(Exec::with_threads(parse_threads(&v)?)),
            Err(_) => Ok(Exec::with_threads(default_parallelism())),
        }
    }

    /// Fixed worker count (used by tests to compare 1 vs N threads).
    pub fn with_threads(threads: usize) -> Self {
        Exec {
            threads: threads.max(1),
        }
    }

    /// Worker count this context fans out over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Infallible task fan-out for internal callers (the sweep/resilience
    /// machinery itself): panics once with the `WorkerFailed` message.
    /// The public entry points are [`super::TrialPlan::run`] and
    /// [`Exec::try_run_tasks`].
    pub(crate) fn run_tasks_infallible<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.try_run_tasks(n, f) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible task fan-out: run `n` independent tasks and return their
    /// results in task order; a panicking task closure surfaces as
    /// `Err(WorkerFailed)` carrying the worker index and the panic
    /// payload message.
    ///
    /// Tasks self-schedule off an atomic counter (coarse tasks of uneven
    /// cost still balance), collect `(index, result)` pairs per worker,
    /// and the results are reassembled by index — so the output is
    /// independent of which worker ran what.
    ///
    /// When several tasks panic, the reported failure is the one with the
    /// smallest task index — a pure function of the task set, so the
    /// error is as deterministic as the closure itself even though the
    /// task→worker mapping is not.
    pub fn try_run_tasks<T, F>(&self, n: usize, f: F) -> mosaic_units::Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.try_run_tasks_with(n, || (), |i, _| f(i))
    }

    /// Fallible task fan-out with one reusable scratch state per *worker*
    /// (not per task): `make_state` runs once per worker, and every task
    /// the worker claims folds through the same `&mut S`. This is how the
    /// Monte-Carlo kernels reuse decode buffers across codewords without
    /// per-word allocation. Panicking task closures (and panicking
    /// `make_state`) surface as `Err(WorkerFailed)`; failure selection
    /// follows [`Exec::try_run_tasks`]: smallest panicking task index
    /// wins.
    ///
    /// The state must not carry information between tasks that affects
    /// results (scratch buffers are overwritten, RNGs are rebuilt per
    /// task) — otherwise output would depend on the task→worker mapping.
    pub fn try_run_tasks_with<S, T, FS, F>(
        &self,
        n: usize,
        make_state: FS,
        f: F,
    ) -> mosaic_units::Result<Vec<T>>
    where
        T: Send,
        FS: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> T + Sync,
    {
        let mut tagged: Vec<(usize, T)> = Vec::with_capacity(n);
        self.fan_out(
            n,
            make_state,
            Vec::new,
            |i, state, out| out.push((i, f(i, state))),
            |out| tagged.extend(out),
        )?;
        tagged.sort_unstable_by_key(|(i, _)| *i);
        Ok(tagged.into_iter().map(|(_, v)| v).collect())
    }

    /// Fold `n` independent tasks straight into an accumulator — no
    /// intermediate per-task collection — with one reusable scratch state
    /// per worker. `make_acc` builds each worker's accumulator (it must
    /// be `merge`'s identity); `f(i, &mut state, &mut acc)` folds task
    /// `i`; worker accumulators merge into the first one at join time.
    ///
    /// **Determinism contract**: workers fold whichever task indices they
    /// claim, so the fold and `merge` must be *exactly* commutative and
    /// associative — integer adds, xor, min/max. Floating-point sums do
    /// **not** qualify (rounding is order-dependent); for those, use
    /// [`super::TrialPlan::run`] and fold the returned vector in index
    /// order.
    ///
    /// # Panics
    /// Panics (once, with the [`mosaic_units::MosaicError::WorkerFailed`]
    /// message) if a task closure panics; use
    /// [`Exec::try_fold_tasks_commutative`] to handle the failure as a
    /// `Result` instead.
    pub fn fold_tasks_commutative<S, A, FS, FA, F, M>(
        &self,
        n: usize,
        make_state: FS,
        make_acc: FA,
        f: F,
        merge: M,
    ) -> A
    where
        A: Send,
        FS: Fn() -> S + Sync,
        FA: Fn() -> A + Sync,
        F: Fn(usize, &mut S, &mut A) + Sync,
        M: Fn(&mut A, A),
    {
        match self.try_fold_tasks_commutative(n, make_state, make_acc, f, merge) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Exec::fold_tasks_commutative`]: panicking task closures
    /// surface as `Err(WorkerFailed)` instead of the former double panic
    /// at `join()`. A worker that panics mid-fold has a *partial*
    /// accumulator, so no partial results are merged on failure — the
    /// whole fold either completes or errors.
    pub fn try_fold_tasks_commutative<S, A, FS, FA, F, M>(
        &self,
        n: usize,
        make_state: FS,
        make_acc: FA,
        f: F,
        merge: M,
    ) -> mosaic_units::Result<A>
    where
        A: Send,
        FS: Fn() -> S + Sync,
        FA: Fn() -> A + Sync,
        F: Fn(usize, &mut S, &mut A) + Sync,
        M: Fn(&mut A, A),
    {
        let mut total: Option<A> = None;
        self.fan_out(n, make_state, &make_acc, f, |acc| match &mut total {
            Some(total) => merge(total, acc),
            None => total = Some(acc),
        })?;
        Ok(total.unwrap_or_else(make_acc))
    }

    /// The one worker pool behind every `try_*` fan-out. Each worker
    /// builds a scratch state and an output with `make_state` and
    /// `make_out`, then claims task indices off an atomic counter and
    /// folds each through `step`; `collect` receives every worker's
    /// output, in worker order, on the calling thread. Workers record
    /// telemetry into the caller's sink.
    ///
    /// Failure selection: a panicking `step` reports its task index, a
    /// panicking `make_state`/`make_out` reports index 0 (it fails
    /// before claiming any task), and a worker whose join fails reports
    /// `usize::MAX`; the smallest index wins, ties going to the lowest
    /// worker. On failure the outputs collected so far are partial and
    /// the caller discards them. One worker (or at most one task) runs
    /// inline on the calling thread, without spawning.
    fn fan_out<S, O, FS, FO, F, C>(
        &self,
        n: usize,
        make_state: FS,
        make_out: FO,
        step: F,
        mut collect: C,
    ) -> mosaic_units::Result<()>
    where
        O: Send,
        FS: Fn() -> S + Sync,
        FO: Fn() -> O + Sync,
        F: Fn(usize, &mut S, &mut O) + Sync,
        C: FnMut(O),
    {
        let failed = |worker, p| mosaic_units::MosaicError::WorkerFailed {
            worker,
            message: panic_message(p),
        };
        if self.threads == 1 || n <= 1 {
            let out = catch_unwind(AssertUnwindSafe(|| {
                let (mut state, mut out) = (make_state(), make_out());
                for i in 0..n {
                    step(i, &mut state, &mut out);
                }
                out
            }))
            .map_err(|p| failed(0, p))?;
            collect(out);
            return Ok(());
        }
        let workers = self.threads.min(n);
        let next = AtomicUsize::new(0);
        // (task index, worker index, panic payload) of observed failures.
        let mut failures = Vec::new();
        let sink = crate::telemetry::current();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let sink = sink.clone();
                    s.spawn(|| {
                        crate::telemetry::with_sink(sink, || {
                            let (mut state, mut out) =
                                catch_unwind(AssertUnwindSafe(|| (make_state(), make_out())))
                                    .map_err(|p| (0, p))?;
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    return Ok(out);
                                }
                                catch_unwind(AssertUnwindSafe(|| step(i, &mut state, &mut out)))
                                    .map_err(|p| (i, p))?;
                            }
                        })
                    })
                })
                .collect();
            for (w, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(Ok(out)) => collect(out),
                    Ok(Err((task, p))) => failures.push((task, w, p)),
                    // A panic that escaped catch_unwind (foreign
                    // unwinding) still joins as Err; fold it in rather
                    // than re-panicking.
                    Err(p) => failures.push((usize::MAX, w, p)),
                }
            }
        });
        match failures.into_iter().min_by_key(|&(task, _, _)| task) {
            Some((_, worker, p)) => Err(failed(worker, p)),
            None => Ok(()),
        }
    }

    /// Parameter sweep: map `f` over `points`, in parallel, preserving
    /// input order in the output.
    pub fn par_sweep<I, T, F>(&self, points: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.run_tasks_infallible(points.len(), |i| f(&points[i]))
    }

    /// In-place parallel update of independent elements (e.g. one state
    /// per physical channel). Elements are partitioned into contiguous
    /// blocks; `f` receives the element's index in `items`.
    pub fn par_map_mut<I, F>(&self, items: &mut [I], f: F)
    where
        I: Send,
        F: Fn(usize, &mut I) + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let chunk = n.div_ceil(self.threads.min(n));
        let sink = crate::telemetry::current();
        std::thread::scope(|s| {
            for (ci, block) in items.chunks_mut(chunk).enumerate() {
                let f = &f;
                let sink = sink.clone();
                s.spawn(move || {
                    crate::telemetry::with_sink(sink, || {
                        for (j, item) in block.iter_mut().enumerate() {
                            f(ci * chunk + j, item);
                        }
                    })
                });
            }
        });
    }
}

/// Fixed chunking of `total` units into tasks of `chunk` units: returns
/// the number of tasks. The chunk size is a call-site constant — *never*
/// derive it from the thread count, or output would depend on it.
pub fn chunk_count(total: u64, chunk: u64) -> u64 {
    assert!(chunk > 0, "chunk size must be positive");
    total.div_ceil(chunk)
}

/// Length of chunk `idx` when splitting `total` units into `chunk`-sized
/// tasks (the final chunk may be short).
pub fn chunk_len(idx: u64, total: u64, chunk: u64) -> u64 {
    let start = idx * chunk;
    debug_assert!(start < total || total == 0);
    chunk.min(total - start)
}

/// Per-run execution statistics a figure binary reports alongside its
/// results. Reported on **stderr** so result files stay byte-identical
/// across thread counts (wall time is the one legitimately
/// nondeterministic output).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Independent work units executed (trials, codewords, sweep cells).
    pub trials: u64,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Worker threads the run fanned out over.
    pub threads: usize,
    /// Trial panics caught by the resilient path (every attempt counts).
    pub panics: u64,
    /// Retries issued after caught panics (fresh substream per attempt).
    pub retries: u64,
    /// Trials whose retry budget ran dry without a successful attempt.
    pub failed_trials: u64,
}

impl RunStats {
    /// Stats for a clean run: `panics`/`retries`/`failed_trials` zero.
    pub fn new(trials: u64, wall: Duration, threads: usize) -> Self {
        RunStats {
            trials,
            wall,
            threads,
            panics: 0,
            retries: 0,
            failed_trials: 0,
        }
    }

    /// Throughput in work units per second.
    pub fn trials_per_sec(&self) -> f64 {
        self.trials as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Emit the one-line stats record to stderr (plus a fault line when
    /// the resilient path caught anything).
    pub fn report(&self, label: &str) {
        eprintln!(
            "[stats] {label}: trials={} wall={:.3}s trials/sec={:.0} threads={}",
            self.trials,
            self.wall.as_secs_f64(),
            self.trials_per_sec(),
            self.threads,
        );
        if self.panics > 0 || self.failed_trials > 0 {
            eprintln!(
                "[stats] {label}: faults: panics={} retries={} failed_trials={}",
                self.panics, self.retries, self.failed_trials,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_equals_seq_for_tasks() {
        let work = |i: usize| {
            // Uneven task cost to exercise self-scheduling.
            let spin = (i * 7919) % 97;
            (0..spin).fold(i as u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64))
        };
        let seq = Exec::with_threads(1).try_run_tasks(257, work).unwrap();
        for threads in [2, 3, 8, 32] {
            assert_eq!(
                seq,
                Exec::with_threads(threads)
                    .try_run_tasks(257, work)
                    .unwrap()
            );
        }
    }

    #[test]
    fn fold_tasks_commutative_is_thread_count_invariant() {
        let fold = |exec: &Exec| {
            exec.fold_tasks_commutative(
                311,
                || (),
                || 0u64,
                |i, _s, acc| *acc += (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 32,
                |total, part| *total += part,
            )
        };
        let seq = fold(&Exec::with_threads(1));
        for threads in [2, 5, 16] {
            assert_eq!(seq, fold(&Exec::with_threads(threads)), "threads={threads}");
        }
    }

    #[test]
    fn par_sweep_preserves_order_and_values() {
        let points: Vec<f64> = (0..50).map(|i| i as f64 * 0.5).collect();
        let seq = Exec::with_threads(1).par_sweep(&points, |p| p * p);
        let par = Exec::with_threads(8).par_sweep(&points, |p| p * p);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_mut_touches_every_element_once() {
        for threads in [1, 2, 5, 16] {
            let mut items: Vec<u64> = vec![0; 103];
            Exec::with_threads(threads).par_map_mut(&mut items, |i, x| *x += i as u64 + 1);
            for (i, x) in items.iter().enumerate() {
                assert_eq!(*x, i as u64 + 1, "threads={threads} idx={i}");
            }
        }
    }

    #[test]
    fn chunking_covers_total_exactly() {
        for (total, chunk) in [(10u64, 3u64), (12, 4), (1, 5), (65_536, 4096), (100, 1)] {
            let n = chunk_count(total, chunk);
            let sum: u64 = (0..n).map(|i| chunk_len(i, total, chunk)).sum();
            assert_eq!(sum, total, "total={total} chunk={chunk}");
        }
    }

    #[test]
    fn parse_threads_rejects_malformed_values() {
        assert!(parse_threads("0").is_err());
        assert!(parse_threads("abc").is_err());
        assert!(parse_threads("").is_err());
        assert!(parse_threads("-2").is_err());
        assert_eq!(parse_threads("1").unwrap(), 1);
        assert_eq!(parse_threads(" 8 ").unwrap(), 8);
        let msg = parse_threads("abc").unwrap_err().to_string();
        assert!(msg.contains(THREADS_ENV), "{msg}");
    }

    #[test]
    fn try_run_tasks_reports_worker_failed() {
        for threads in [1, 4] {
            let err = Exec::with_threads(threads)
                .try_run_tasks(64, |i| {
                    if i == 13 {
                        panic!("task 13 exploded");
                    }
                    i
                })
                .unwrap_err();
            match err {
                mosaic_units::MosaicError::WorkerFailed { message, .. } => {
                    assert!(message.contains("task 13 exploded"), "{message}");
                }
                other => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn try_run_tasks_with_reports_worker_failed() {
        let err = Exec::with_threads(3)
            .try_run_tasks_with(32, Vec::<u64>::new, |i, _buf| {
                if i == 5 {
                    panic!("scratch task died");
                }
                i
            })
            .unwrap_err();
        assert!(err.to_string().contains("scratch task died"));
    }

    #[test]
    fn try_fold_tasks_commutative_reports_worker_failed() {
        for threads in [1, 4] {
            let err = Exec::with_threads(threads)
                .try_fold_tasks_commutative(
                    48,
                    || (),
                    || 0u64,
                    |i, _s, acc| {
                        if i == 20 {
                            panic!("fold task died");
                        }
                        *acc += i as u64;
                    },
                    |total, part| *total += part,
                )
                .unwrap_err();
            assert!(
                err.to_string().contains("fold task died"),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn try_variants_match_infallible_on_clean_runs() {
        let exec = Exec::with_threads(4);
        assert_eq!(
            exec.try_run_tasks(50, |i| i * 2).unwrap(),
            exec.run_tasks_infallible(50, |i| i * 2)
        );
        let folded = exec
            .try_fold_tasks_commutative(
                50,
                || (),
                || 0u64,
                |i, _s, acc| *acc += i as u64,
                |t, p| *t += p,
            )
            .unwrap();
        assert_eq!(folded, (0..50u64).sum::<u64>());
    }
}
