//! The lint R6 proof for the traffic fold: the merged [`TrafficRollup`]
//! of a sweep point is bit-identical across thread counts (1/2/8),
//! across batch/resume boundaries (a store killed after every batch),
//! and across merge orders — the exact-integer contract `FleetRollup`
//! established, upheld for live-traffic accounting.

use mosaic_sim::checkpoint::MemStore;
use mosaic_sim::sweep::Exec;
use mosaic_traffic::{
    point_digest, run_one, run_point, run_point_with, Policy, TrafficConfig, TrafficRollup,
    RUNS_PER_BATCH,
};

fn point_cfg(policy: Policy) -> TrafficConfig {
    TrafficConfig {
        epochs: 96,
        faults_per_kilo_epoch: 8.0,
        permanent_fraction: 0.4,
        policy,
        ..TrafficConfig::default()
    }
}

#[test]
fn thread_count_does_not_change_the_rollup() {
    for policy in [
        Policy::Static,
        Policy::Controller,
        Policy::ControllerHitless,
    ] {
        let cfg = point_cfg(policy);
        let base = run_point(&cfg, 41, 10, &Exec::with_threads(1)).unwrap();
        for threads in [2usize, 8] {
            let par = run_point(&cfg, 41, 10, &Exec::with_threads(threads)).unwrap();
            assert_eq!(par, base, "{policy:?} diverged at {threads} threads");
            assert_eq!(par.fingerprint(), base.fingerprint());
        }
        assert!(base.balanced());
        assert_eq!(base.runs, 10);
    }
}

#[test]
fn merge_order_does_not_change_the_rollup() {
    let cfg = point_cfg(Policy::ControllerHitless);
    let runs: Vec<TrafficRollup> = (0..8).map(|r| run_one(&cfg, 5, r).unwrap()).collect();
    let mut fwd = TrafficRollup::default();
    for r in &runs {
        fwd.merge(r);
    }
    let mut rev = TrafficRollup::default();
    for r in runs.iter().rev() {
        rev.merge(r);
    }
    // Pairwise tree merge: ((0+1)+(2+3)) + ((4+5)+(6+7)).
    let mut tree = TrafficRollup::default();
    for pair in runs.chunks(2) {
        let mut p = TrafficRollup::default();
        for r in pair {
            p.merge(r);
        }
        tree.merge(&p);
    }
    assert_eq!(fwd, rev);
    assert_eq!(fwd, tree);
    assert_eq!(fwd, run_point(&cfg, 5, 8, &Exec::with_threads(4)).unwrap());
}

#[test]
fn kill_after_every_batch_then_resume_matches_uninterrupted() {
    let cfg = point_cfg(Policy::Controller);
    let runs = 2 * RUNS_PER_BATCH + 1; // 3 batches, last one ragged
    let exec = Exec::with_threads(2);
    let base = run_point(&cfg, 17, runs, &exec).unwrap();

    let mut store = MemStore::default();
    let mut kills = 0u32;
    let finished = loop {
        match run_point_with(&cfg, 17, runs, &exec, &mut store, Some(1)).unwrap() {
            Some(rollup) => break rollup,
            None => {
                kills += 1;
                assert!(kills < 16, "resume never converged");
            }
        }
    };
    assert_eq!(finished, base);
    assert_eq!(kills, 2, "each invocation runs exactly one batch");
    assert_eq!(store.saved.len(), 3, "one checkpoint per batch");
}

#[test]
fn stale_digest_invalidates_checkpoints() {
    let cfg = point_cfg(Policy::Controller);
    let exec = Exec::with_threads(1);
    let mut store = MemStore::default();
    // Checkpoint one batch under seed 17 …
    assert!(run_point_with(&cfg, 17, 8, &exec, &mut store, Some(1))
        .unwrap()
        .is_none());
    // … then finish under seed 18: the stale checkpoint must not load.
    let resumed = run_point_with(&cfg, 18, 8, &exec, &mut store, None)
        .unwrap()
        .unwrap();
    assert_eq!(resumed, run_point(&cfg, 18, 8, &exec).unwrap());
    assert_ne!(point_digest(&cfg, 17, 8), point_digest(&cfg, 18, 8));
}
