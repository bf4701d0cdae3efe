//! Trial planning: the builder-style [`TrialPlan`] API that unifies the
//! engine's Monte-Carlo entry points.
//!
//! A plan captures *what* a fan-out is — trial count, root seed, stream
//! label, per-trial retry budget, fidelity hint — separately from *how*
//! it executes (an [`Exec`] passed to the terminal method). One plan,
//! five terminal shapes:
//!
//! | terminal                     | closure                             |
//! |------------------------------|-------------------------------------|
//! | [`TrialPlan::run`]           | `Fn(&mut TrialCtx) -> T`            |
//! | [`TrialPlan::sum`]           | `Fn(&mut TrialCtx) -> u64`          |
//! | [`TrialPlan::run_with`]      | `Fn(&mut TrialCtx, &mut S) -> T`    |
//! | [`TrialPlan::fold`]          | `Fn(&mut TrialCtx, &mut S, &mut A)` |
//! | [`TrialPlan::run_resilient`] | `Fn(&mut TrialCtx) -> T`            |
//!
//! Each trial's closure receives a [`TrialCtx`]: the trial index, the
//! retry attempt, and counter-derived RNG streams ([`TrialCtx::rng`] for
//! the plan's labelled stream, [`TrialCtx::stream`] for named stream
//! families like `"rs-data"`/`"rs-noise"`).
//!
//! **Telemetry is label opt-in**: a plan with a label records the
//! `trials.{label}` counter and a `par_trials.{label}` stage into the
//! enclosing `telemetry::capture`; an unlabelled plan, or one run
//! outside any capture, records nothing and formats no metric name.

use super::engine::Exec;
use super::resilience::{self, ResilientRun};
use crate::rng::DetRng;

/// Advisory fidelity tier attached to a [`TrialPlan`] by the adaptive
/// engine (`sim::fidelity`). The scheduler carries the hint so kernels
/// and telemetry can see *why* a budget was chosen; it never changes how
/// trials execute — determinism stays a property of `(config, seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FidelityHint {
    /// No tier decision attached (the default; full-fidelity call sites).
    #[default]
    Unspecified,
    /// Closed-form fast path; the plan's trials are an audit budget (often
    /// zero).
    Analytic,
    /// Full Monte-Carlo, possibly at a controller-adapted budget.
    FullMc,
    /// Rare-event tail sampling on stratified substreams.
    TailMc,
}

/// Per-trial execution context handed to [`TrialPlan`] closures.
///
/// Carries the trial index, the retry attempt (0 on the first try), and
/// derives counter-based RNG streams on demand — a pure function of
/// `(seed, label, trial, attempt)`, never of scheduling order.
#[derive(Debug)]
pub struct TrialCtx<'p> {
    trial: u64,
    attempt: u32,
    seed: u64,
    label: &'p str,
}

impl TrialCtx<'_> {
    /// Trial index in the fan-out (`0..trials`).
    pub fn trial(&self) -> u64 {
        self.trial
    }

    /// Retry attempt: `0` for the first try, `1..` for retries issued by
    /// [`TrialPlan::run_resilient`].
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// This trial's stream under the plan's label: identical to the
    /// historic `par_trials` derivation `(seed, label, trial)`; retries
    /// draw from the fresh `"{label}#retry{attempt}"` substream.
    pub fn rng(&self) -> DetRng {
        if self.attempt == 0 {
            // lint: allow(R5) reason=forwards the plan's label; collision checking happens at the literal call sites
            DetRng::substream_indexed(self.seed, self.label, self.trial)
        } else {
            // lint: allow(R5) reason=retry stream derived from the plan label; #retry{n} suffix cannot collide with a literal label
            DetRng::substream_indexed(
                self.seed,
                &format!("{}#retry{}", self.label, self.attempt),
                self.trial,
            )
        }
    }

    /// This trial's stream in a named family, for call sites that draw
    /// from several independent streams per trial (e.g. `"rs-data"` and
    /// `"rs-noise"`): `(seed, family, trial)`, exactly the historic
    /// direct `substream_indexed` derivation.
    pub fn stream(&self, family: &str) -> DetRng {
        // lint: allow(R5) reason=forwards the caller's family label; collision checking happens at the literal call sites
        DetRng::substream_indexed(self.seed, family, self.trial)
    }
}

/// A declarative Monte-Carlo fan-out: trial count, root seed, stream
/// label, retry budget, and fidelity hint, executed against an [`Exec`]
/// by one of the terminal methods listed in the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialPlan<'a> {
    trials: u64,
    seed: u64,
    label: Option<&'a str>,
    retry_budget: u32,
    fidelity: FidelityHint,
}

impl<'a> TrialPlan<'a> {
    /// An empty plan: zero trials, seed 0, no label (telemetry off), no
    /// retries, no fidelity hint.
    pub fn new() -> Self {
        TrialPlan::default()
    }

    /// Set the number of independent trials.
    pub fn trials(mut self, n: u64) -> Self {
        self.trials = n;
        self
    }

    /// Set the root seed trials derive their streams from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Label the plan: names the RNG stream family *and* opts into
    /// telemetry (`trials.{label}` counter + `par_trials.{label}` stage).
    pub fn label(mut self, label: &'a str) -> Self {
        self.label = Some(label);
        self
    }

    /// Per-trial retry budget for [`TrialPlan::run_resilient`].
    pub fn retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Attach an advisory fidelity tier (see [`FidelityHint`]).
    pub fn fidelity(mut self, hint: FidelityHint) -> Self {
        self.fidelity = hint;
        self
    }

    /// Planned trial count.
    pub fn planned_trials(&self) -> u64 {
        self.trials
    }

    /// Root seed.
    pub fn planned_seed(&self) -> u64 {
        self.seed
    }

    /// Stream label, if set.
    pub fn planned_label(&self) -> Option<&'a str> {
        self.label
    }

    /// Retry budget.
    pub fn planned_retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// Attached fidelity hint.
    pub fn fidelity_hint(&self) -> FidelityHint {
        self.fidelity
    }

    fn stream_label(&self) -> &'a str {
        self.label.unwrap_or("")
    }

    /// The label, when the plan has one and a capture is listening —
    /// the only case in which a metric name is worth formatting.
    fn telemetry_label(&self) -> Option<&'a str> {
        self.label.filter(|_| crate::telemetry::active())
    }

    fn record_trials(&self) {
        if let Some(label) = self.telemetry_label() {
            crate::telemetry::counter_add(&format!("trials.{label}"), self.trials);
        }
    }

    fn staged<T>(&self, f: impl FnOnce() -> T) -> T {
        match self.telemetry_label() {
            Some(label) => crate::telemetry::stage(&format!("par_trials.{label}"), self.trials, f),
            None => f(),
        }
    }

    fn ctx(&self, trial: u64) -> TrialCtx<'a> {
        TrialCtx {
            trial,
            attempt: 0,
            seed: self.seed,
            label: self.stream_label(),
        }
    }

    /// Run every trial, returning results in trial order.
    ///
    /// # Panics
    /// Panics (once, with the [`mosaic_units::MosaicError::WorkerFailed`]
    /// message) if a trial closure panics; use
    /// [`TrialPlan::run_resilient`] to tolerate panicking trials, or
    /// [`Exec::try_run_tasks`] for a `Result`.
    pub fn run<T, F>(&self, exec: &Exec, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut TrialCtx) -> T + Sync,
    {
        self.record_trials();
        self.staged(|| {
            exec.run_tasks_infallible(self.trials as usize, |i| f(&mut self.ctx(i as u64)))
        })
    }

    /// Run every trial with one reusable scratch state per worker (the
    /// historic `run_tasks_with` shape, now with a [`TrialCtx`]).
    ///
    /// # Panics
    /// As [`TrialPlan::run`]; use [`Exec::try_run_tasks_with`] for a
    /// `Result`.
    pub fn run_with<S, T, FS, F>(&self, exec: &Exec, make_scratch: FS, f: F) -> Vec<T>
    where
        T: Send,
        FS: Fn() -> S + Sync,
        F: Fn(&mut TrialCtx, &mut S) -> T + Sync,
    {
        self.record_trials();
        self.staged(|| {
            match exec.try_run_tasks_with(self.trials as usize, make_scratch, |i, scratch| {
                f(&mut self.ctx(i as u64), scratch)
            }) {
                Ok(v) => v,
                Err(e) => panic!("{e}"),
            }
        })
    }

    /// Sum a `u64` statistic over all trials: the allocation-free form of
    /// [`TrialPlan::run`]`(..).iter().sum()`. Exact integer addition, so
    /// the total is thread-count invariant.
    ///
    /// # Panics
    /// As [`TrialPlan::run`].
    pub fn sum<F>(&self, exec: &Exec, f: F) -> u64
    where
        F: Fn(&mut TrialCtx) -> u64 + Sync,
    {
        self.fold(
            exec,
            || (),
            || 0u64,
            |ctx, _scratch, acc| *acc += f(ctx),
            |total, part| *total += part,
        )
    }

    /// Fold trials straight into an accumulator with per-worker scratch
    /// (the historic `fold_tasks_commutative` shape, now with a
    /// [`TrialCtx`]). The fold and `merge` must be exactly commutative
    /// and associative — see [`Exec::fold_tasks_commutative`] for the
    /// determinism contract.
    ///
    /// # Panics
    /// As [`TrialPlan::run`]; use [`Exec::try_fold_tasks_commutative`]
    /// for a `Result`.
    pub fn fold<S, A, FS, FA, F, M>(
        &self,
        exec: &Exec,
        make_scratch: FS,
        make_acc: FA,
        f: F,
        merge: M,
    ) -> A
    where
        A: Send,
        FS: Fn() -> S + Sync,
        FA: Fn() -> A + Sync,
        F: Fn(&mut TrialCtx, &mut S, &mut A) + Sync,
        M: Fn(&mut A, A),
    {
        self.record_trials();
        self.staged(|| {
            exec.fold_tasks_commutative(
                self.trials as usize,
                make_scratch,
                make_acc,
                |i, scratch, acc| f(&mut self.ctx(i as u64), scratch, acc),
                merge,
            )
        })
    }

    /// Panic-tolerant fan-out: a panicking trial is caught, counted, and
    /// retried on a fresh `"{label}#retry{attempt}"` substream under the
    /// plan's per-trial [`TrialPlan::retry_budget`]. A trial that fails
    /// every attempt yields `None` and a
    /// [`super::TrialFailure`] record instead of aborting the sweep.
    ///
    /// Attempt `0` draws from the exact stream [`TrialPlan::run`] would
    /// use, so a run where nothing panics is bit-identical to the
    /// non-resilient path. The retry budget is *per trial* — a pure
    /// function of the trial index — so `values`, `failures`, and the
    /// fault counters are all thread-count invariant (DESIGN §10).
    pub fn run_resilient<T, F>(&self, exec: &Exec, f: F) -> ResilientRun<T>
    where
        T: Send,
        F: Fn(&mut TrialCtx) -> T + Sync,
    {
        self.record_trials();
        let run = self.staged(|| {
            resilience::run_trials_resilient(
                exec,
                self.trials,
                self.seed,
                self.stream_label(),
                self.retry_budget,
                |trial, attempt, _rng| {
                    let mut ctx = TrialCtx {
                        trial,
                        attempt,
                        seed: self.seed,
                        label: self.stream_label(),
                    };
                    f(&mut ctx)
                },
            )
        });
        // Fault counters are deterministic (which (trial, attempt) pairs
        // panic is a property of the closure), so they are safe to put in
        // value-checked telemetry.
        if let Some(label) = self.telemetry_label() {
            if run.stats.panics > 0 {
                crate::telemetry::counter_add(&format!("trial_panics.{label}"), run.stats.panics);
            }
            if run.stats.retries > 0 {
                crate::telemetry::counter_add(&format!("trial_retries.{label}"), run.stats.retries);
            }
            if run.stats.failed_trials > 0 {
                crate::telemetry::counter_add(
                    &format!("trial_failures.{label}"),
                    run.stats.failed_trials,
                );
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_run_preserves_order() {
        let exec = Exec::with_threads(4);
        let out = TrialPlan::new()
            .trials(100)
            .run(&exec, |ctx| ctx.trial() * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn plan_streams_are_per_trial_and_match_direct_derivation() {
        let exec = Exec::with_threads(4);
        let draws = TrialPlan::new()
            .trials(16)
            .seed(9)
            .label("t")
            .run(&exec, |ctx| ctx.rng().next_u64());
        let mut uniq = draws.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), draws.len());
        let direct = DetRng::substream_indexed(9, "t", 3).next_u64();
        assert_eq!(draws[3], direct);
    }

    #[test]
    fn plan_stream_families_match_direct_derivation() {
        let exec = Exec::with_threads(2);
        let draws = TrialPlan::new().trials(8).seed(21).run(&exec, |ctx| {
            (
                ctx.stream("rs-data").next_u64(),
                ctx.stream("rs-noise").next_u64(),
            )
        });
        assert_eq!(
            draws[5].0,
            DetRng::substream_indexed(21, "rs-data", 5).next_u64()
        );
        assert_eq!(
            draws[5].1,
            DetRng::substream_indexed(21, "rs-noise", 5).next_u64()
        );
    }

    #[test]
    fn plan_sum_matches_plan_run() {
        let seq: u64 = TrialPlan::new()
            .trials(40)
            .seed(7)
            .label("sum-t")
            .run(&Exec::with_threads(1), |ctx| ctx.rng().next_u64() >> 40)
            .iter()
            .sum();
        for threads in [1, 4, 9] {
            let summed = TrialPlan::new()
                .trials(40)
                .seed(7)
                .label("sum-t")
                .sum(&Exec::with_threads(threads), |ctx| {
                    ctx.rng().next_u64() >> 40
                });
            assert_eq!(seq, summed, "threads={threads}");
        }
    }

    #[test]
    fn plan_run_with_matches_run() {
        let plain = TrialPlan::new()
            .trials(97)
            .run(&Exec::with_threads(1), |ctx| {
                ctx.trial().wrapping_mul(2654435761)
            });
        for threads in [1, 3, 8] {
            let with = TrialPlan::new().trials(97).run_with(
                &Exec::with_threads(threads),
                Vec::<u64>::new,
                |ctx, buf| {
                    buf.clear();
                    buf.push(ctx.trial().wrapping_mul(2654435761));
                    buf[0]
                },
            );
            assert_eq!(plain, with, "threads={threads}");
        }
    }

    #[test]
    fn plan_telemetry_is_label_opt_in() {
        let exec = Exec::with_threads(2);
        let label = "sched-telemetry-probe";
        let (_, snap) = crate::telemetry::capture(|| {
            TrialPlan::new()
                .trials(13)
                .seed(1)
                .label(label)
                .run(&exec, |ctx| ctx.trial())
        });
        assert_eq!(
            snap.counters.get(&format!("trials.{label}")),
            Some(&13),
            "labelled plan must bump trials.{label}"
        );
        assert_eq!(snap.stages.len(), 1);

        // Unlabelled plans record nothing.
        let (_, snap) =
            crate::telemetry::capture(|| TrialPlan::new().trials(5).run(&exec, |ctx| ctx.trial()));
        assert_eq!(snap, crate::telemetry::Snapshot::default());
    }

    #[test]
    fn plan_fidelity_hint_is_carried() {
        let plan = TrialPlan::new().trials(10).fidelity(FidelityHint::TailMc);
        assert_eq!(plan.fidelity_hint(), FidelityHint::TailMc);
        assert_eq!(TrialPlan::new().fidelity_hint(), FidelityHint::Unspecified);
    }

    #[test]
    fn plan_resilient_retry_uses_fresh_substream_deterministically() {
        // Trial 7 panics on attempt 0 only; its retry must draw from the
        // "{label}#retry1" substream, identically at every thread count.
        let run_at = |threads: usize| {
            TrialPlan::new()
                .trials(24)
                .seed(5)
                .label("res-b")
                .retry_budget(1)
                .run_resilient(&Exec::with_threads(threads), |ctx| {
                    if ctx.trial() == 7 && ctx.attempt() == 0 {
                        panic!("transient fault");
                    }
                    ctx.rng().next_u64()
                })
        };
        let seq = run_at(1);
        assert_eq!(seq.stats.panics, 1);
        assert_eq!(seq.stats.retries, 1);
        assert_eq!(seq.stats.failed_trials, 0);
        let expected = DetRng::substream_indexed(5, "res-b#retry1", 7).next_u64();
        assert_eq!(seq.values[7], Some(expected));
        // Every trial that did not panic drew exactly the stream a plain
        // `run` of the same plan draws.
        let plain = TrialPlan::new()
            .trials(24)
            .seed(5)
            .label("res-b")
            .run(&Exec::with_threads(1), |ctx| ctx.rng().next_u64());
        for (i, v) in seq.values.iter().enumerate().filter(|&(i, _)| i != 7) {
            assert_eq!(*v, Some(plain[i]), "trial {i}");
        }
        for threads in [2, 8] {
            let par = run_at(threads);
            assert_eq!(seq.values, par.values, "threads={threads}");
            assert_eq!(seq.stats.panics, par.stats.panics);
        }
    }

    #[test]
    fn plan_resilient_budget_exhaustion_yields_none() {
        let run = TrialPlan::new()
            .trials(16)
            .seed(3)
            .label("res-c")
            .retry_budget(2)
            .run_resilient(&Exec::with_threads(4), |ctx| {
                if ctx.trial() == 4 {
                    panic!("permanent fault on trial {}", ctx.trial());
                }
                ctx.rng().next_u64()
            });
        assert_eq!(run.values[4], None);
        assert_eq!(run.stats.failed_trials, 1);
        assert_eq!(run.stats.panics, 3); // attempts 0..=2 all panicked
        assert_eq!(run.stats.retries, 2);
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.failures[0].trial, 4);
        assert_eq!(run.failures[0].attempts, 3);
        assert!(run.failures[0].message.contains("permanent fault"));
        assert_eq!(run.values.iter().filter(|v| v.is_some()).count(), 15);
    }
}
