//! Multi-run traffic sweeps: batched, checkpointable, thread-invariant.
//!
//! A *point* is `(TrafficConfig, seed, runs)`: `runs` independent
//! harness executions whose rollups merge into one [`TrafficRollup`].
//! Per-run seeds derive from the point seed via the `"traffic-run"`
//! substream indexed by run number — a pure function of `(seed, run)`,
//! so the same campaigns hit every policy and every thread count
//! bit-identically.
//!
//! Runs execute in batches of [`RUNS_PER_BATCH`] fanned out through
//! [`TrialPlan::fold`] under the shared checkpoint protocol,
//! [`resume_batches`]: the cumulative rollup is saved to a
//! [`Checkpoint`] store keyed by [`point_digest`] after each batch, and
//! on entry the sweep resumes after the newest valid checkpoint.
//! `stop_after_batches` bounds the batches executed *this invocation*
//! (the CI kill/resume drill); `Ok(None)` means "stopped early, resume
//! me".

use crate::harness::{LinkHarness, TrafficConfig};
use crate::rollup::TrafficRollup;
use mosaic_sim::checkpoint::{resume_batches, Checkpoint, NoStore};
use mosaic_sim::digest::Fnv64;
use mosaic_sim::rng::DetRng;
use mosaic_sim::sweep::{Exec, TrialPlan};
use mosaic_units::{MosaicError, Result};

/// Harness runs folded per checkpoint batch.
pub const RUNS_PER_BATCH: u64 = 4;

/// FNV-1a digest over the full point configuration and seed — the
/// checkpoint-store key that makes stale checkpoints unloadable.
pub fn point_digest(cfg: &TrafficConfig, seed: u64, runs: u64) -> u64 {
    let mut h = Fnv64::sim();
    h.word(seed)
        .word(runs)
        .word(cfg.logical as u64)
        .word(cfg.physical as u64)
        .word(cfg.am_period as u64)
        .word(cfg.epochs)
        .word(u64::from(cfg.retransmit_budget))
        .word(cfg.replay_window)
        .word(cfg.max_batch as u64)
        .word(cfg.faults_per_kilo_epoch.to_bits())
        .word(cfg.max_fault_duration as u64)
        .word(cfg.permanent_fraction.to_bits())
        .word(match cfg.policy {
            crate::harness::Policy::Static => 1,
            crate::harness::Policy::Controller => 2,
            crate::harness::Policy::ControllerHitless => 3,
        })
        .word(cfg.degrade.window_bits)
        .word(cfg.degrade.max_windows as u64)
        .word(cfg.degrade.suspect_ber.to_bits())
        .word(cfg.degrade.clear_ber.to_bits())
        .word(cfg.degrade.quarantine_ber.to_bits())
        .word(cfg.degrade.suspect_dwell_limit as u64)
        .word(cfg.degrade.clear_epochs as u64)
        .word(cfg.degrade.spared_dwell_limit as u64)
        .word(u64::from(cfg.workload.flows))
        .word(cfg.workload.deadline_epochs)
        .word(cfg.workload.base_frame_bytes as u64);
    let kind = crate::workload::kind_tag(cfg.workload.kind);
    h.word(kind.len() as u64);
    for b in kind.bytes() {
        h.word(u64::from(b));
    }
    h.finish()
}

/// Per-run seed: pure in `(point_seed, run)` and *policy-blind*, so the
/// three F19 policies face identical workloads and campaigns run for
/// run.
pub fn run_seed(point_seed: u64, run: u64) -> u64 {
    DetRng::substream_indexed(point_seed, "traffic-run", run).next_u64()
}

/// Execute one harness run to completion.
pub fn run_one(cfg: &TrafficConfig, point_seed: u64, run: u64) -> Result<TrafficRollup> {
    let mut h = LinkHarness::try_new(*cfg, run_seed(point_seed, run))?;
    Ok(h.run_to_completion())
}

/// Run a sweep point with checkpointing (see the module docs for the
/// batch/resume protocol). Thread-invariance rests on the exact-integer
/// [`TrafficRollup::merge`] fold (lint R6, proof
/// `crates/traffic/tests/parallel_determinism.rs`).
pub fn run_point_with(
    cfg: &TrafficConfig,
    seed: u64,
    runs: u64,
    exec: &Exec,
    store: &mut dyn Checkpoint<TrafficRollup>,
    stop_after_batches: Option<u64>,
) -> Result<Option<TrafficRollup>> {
    cfg.validate()?;
    let digest = point_digest(cfg, seed, runs);
    let batches = runs.div_ceil(RUNS_PER_BATCH);
    let rollup = resume_batches(store, digest, batches, stop_after_batches, |b| {
        let first = b * RUNS_PER_BATCH;
        let count = RUNS_PER_BATCH.min(runs - first);
        TrialPlan::new()
            .trials(count)
            .seed(seed)
            .label("traffic-point")
            .fold(
                exec,
                || (),
                TrafficRollup::default,
                |ctx, _scratch, acc| {
                    let run = first + ctx.trial();
                    // The harness constructor validates the already
                    // validated config; a failure here would be a bug,
                    // surfaced as a zeroed run (runs stays short, which
                    // the caller's run count check catches).
                    if let Ok(r) = run_one(cfg, seed, run) {
                        acc.merge(&r);
                    }
                },
                |total, other| total.merge(&other),
            )
    })?;
    match rollup {
        Some(r) if r.runs != runs => Err(MosaicError::invalid_config(
            "traffic_runs",
            format!("expected {} merged runs, got {}", runs, r.runs),
        )),
        done => Ok(done),
    }
}

/// [`run_point_with`] without persistence or early stop.
pub fn run_point(cfg: &TrafficConfig, seed: u64, runs: u64, exec: &Exec) -> Result<TrafficRollup> {
    // `None` is unreachable: no stop limit was set.
    run_point_with(cfg, seed, runs, exec, &mut NoStore, None)?.ok_or_else(|| {
        MosaicError::invalid_config("traffic_stop", "sweep stopped without a stop limit")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Policy;
    use mosaic_sim::checkpoint::MemStore;

    fn quick_cfg() -> TrafficConfig {
        TrafficConfig {
            epochs: 64,
            faults_per_kilo_epoch: 6.0,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn run_seed_is_policy_blind_and_spread() {
        let a = run_seed(7, 0);
        let b = run_seed(7, 1);
        let c = run_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, run_seed(7, 0));
    }

    #[test]
    fn point_rollup_is_exactly_the_merge_of_runs() {
        let cfg = quick_cfg();
        let exec = Exec::with_threads(1);
        let rollup = run_point(&cfg, 3, 6, &exec).unwrap();
        let mut manual = TrafficRollup::default();
        for run in 0..6 {
            manual.merge(&run_one(&cfg, 3, run).unwrap());
        }
        assert_eq!(rollup, manual);
        assert_eq!(rollup.runs, 6);
        assert!(rollup.balanced());
    }

    /// The point digest keys every checkpoint on disk.
    #[test]
    fn point_digest_is_pinned() {
        assert_eq!(point_digest(&quick_cfg(), 3, 6), 0xaffc_e913_3deb_9898);
    }

    #[test]
    fn digests_separate_policies_and_seeds() {
        let a = quick_cfg();
        let b = TrafficConfig {
            policy: Policy::Static,
            ..a
        };
        assert_ne!(point_digest(&a, 1, 4), point_digest(&b, 1, 4));
        assert_ne!(point_digest(&a, 1, 4), point_digest(&a, 2, 4));
        assert_ne!(point_digest(&a, 1, 4), point_digest(&a, 1, 8));
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let cfg = quick_cfg();
        let exec = Exec::with_threads(1);
        let uninterrupted = run_point(&cfg, 9, 10, &exec).unwrap();
        let mut store = MemStore::default();
        // First invocation: one batch, then "killed".
        let early = run_point_with(&cfg, 9, 10, &exec, &mut store, Some(1)).unwrap();
        assert!(early.is_none());
        assert!(!store.saved.is_empty());
        // Resume to completion.
        let resumed = run_point_with(&cfg, 9, 10, &exec, &mut store, None)
            .unwrap()
            .unwrap();
        assert_eq!(resumed, uninterrupted);
        assert_eq!(resumed.fingerprint(), uninterrupted.fingerprint());
    }
}
