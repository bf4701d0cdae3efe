//! Panic-tolerant trial execution: bounded per-trial retries on fresh
//! RNG substreams.
//!
//! A trial that panics is caught, counted, and retried on the
//! `"{label}#retry{attempt}"` substream under a per-trial retry budget —
//! a pure function of the trial index, never a shared pool, so results
//! stay thread-count invariant (see DESIGN §10). The policy surface is
//! [`super::TrialPlan::run_resilient`]; this module owns the outcome
//! types and the retry loop.

use super::engine::{Exec, RunStats};
use crate::rng::DetRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// One trial that exhausted its retry budget in
/// [`super::TrialPlan::run_resilient`] without a successful attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFailure {
    /// Trial index in the fan-out.
    pub trial: u64,
    /// Attempts made (`1 + retry_budget`).
    pub attempts: u32,
    /// Panic message of the *last* attempt.
    pub message: String,
}

/// Outcome of a resilient fan-out: per-trial values (`None` where the
/// retry budget ran dry), the exhausted trials, and run statistics
/// including fault counters.
#[derive(Debug, Clone)]
pub struct ResilientRun<T> {
    /// Trial results in trial order; `None` marks an exhausted trial.
    pub values: Vec<Option<T>>,
    /// Trials that failed every attempt, in trial order.
    pub failures: Vec<TrialFailure>,
    /// Trial/fault statistics for the run (wall time left at zero — the
    /// caller owns timing).
    pub stats: RunStats,
}

/// The retry loop behind [`super::TrialPlan::run_resilient`]: the
/// closure receives `(trial, attempt, rng)`; attempt `0` draws from the
/// exact stream the non-resilient path would use, so a run where
/// nothing panics is bit-identical to it. Telemetry (the `trials.` /
/// `par_trials.` records and the fault counters) is the caller's job —
/// this function only executes.
pub(crate) fn run_trials_resilient<T, F>(
    exec: &Exec,
    n: u64,
    seed: u64,
    label: &str,
    retry_budget: u32,
    f: F,
) -> ResilientRun<T>
where
    T: Send,
    F: Fn(u64, u32, &mut DetRng) -> T + Sync,
{
    let outcomes: Vec<(Option<T>, u32, Option<String>)> =
        exec.run_tasks_infallible(n as usize, |i| {
            let i = i as u64;
            let mut panics = 0u32;
            let mut last_msg: Option<String> = None;
            for attempt in 0..=retry_budget {
                let mut rng = if attempt == 0 {
                    // lint: allow(R5) reason=forwards the caller's plan label; collision checking happens at the literal call sites
                    DetRng::substream_indexed(seed, label, i)
                } else {
                    // lint: allow(R5) reason=retry stream derived from the caller's label; #retry{n} suffix cannot collide with a literal label
                    DetRng::substream_indexed(seed, &format!("{label}#retry{attempt}"), i)
                };
                match catch_unwind(AssertUnwindSafe(|| f(i, attempt, &mut rng))) {
                    Ok(v) => return (Some(v), panics, last_msg),
                    Err(p) => {
                        panics += 1;
                        last_msg = Some(super::engine::panic_message(p));
                    }
                }
            }
            (None, panics, last_msg)
        });
    let mut values = Vec::with_capacity(outcomes.len());
    let mut failures = Vec::new();
    let mut total_panics = 0u64;
    for (i, (value, panics, last_msg)) in outcomes.into_iter().enumerate() {
        total_panics += u64::from(panics);
        if value.is_none() {
            failures.push(TrialFailure {
                trial: i as u64,
                attempts: retry_budget + 1,
                message: last_msg.unwrap_or_else(|| "no attempt recorded".to_string()),
            });
        }
        values.push(value);
    }
    let failed_trials = failures.len() as u64;
    let retries = total_panics - failed_trials.min(total_panics);
    ResilientRun {
        values,
        failures,
        stats: RunStats {
            trials: n,
            wall: Duration::ZERO,
            threads: exec.threads(),
            panics: total_panics,
            retries,
            failed_trials,
        },
    }
}
