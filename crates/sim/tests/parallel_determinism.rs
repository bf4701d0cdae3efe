//! Property tests for the repo invariant: parallel execution is
//! bit-identical to sequential execution for the same seed.
//!
//! Two families of properties:
//!
//! 1. *Stream independence* — distinct task ids derive streams that do
//!    not collide (no shared prefix, no overlap among early draws), so
//!    splitting a seed across tasks never silently correlates trials.
//! 2. *Schedule invariance* — `TrialPlan` runs (and the integer-fold
//!    Monte-Carlo kernel built on them) return exactly the sequential
//!    results at every thread count and chunk size.

// HashSet here is set-equality of raw u64 draws; iteration order is
// never observed, so the determinism ban does not apply.
#![allow(clippy::disallowed_types)]

use mosaic_sim::rng::DetRng;
use mosaic_sim::sweep::{chunk_count, chunk_len, Exec, TrialPlan};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    /// Distinct task ids under one seed must yield streams with no
    /// overlap anywhere in their first 1000 draws — 2000 draws from a
    /// 2^64 space collide with probability ~1e-13, so any hit means the
    /// seed-splitting map is broken.
    #[test]
    fn distinct_task_ids_do_not_overlap(seed: u64, a: u64, b: u64) {
        prop_assume!(a != b);
        let mut ra = DetRng::stream(seed, a);
        let mut rb = DetRng::stream(seed, b);
        let da: HashSet<u64> = (0..1000).map(|_| ra.next_u64()).collect();
        let db: HashSet<u64> = (0..1000).map(|_| rb.next_u64()).collect();
        prop_assert!(da.is_disjoint(&db), "streams {a} and {b} of seed {seed} overlap");
    }

    /// Labelled stream families must not collide either: the same task id
    /// under different labels is a different stream.
    #[test]
    fn distinct_labels_do_not_overlap(seed: u64, task: u64) {
        let mut ra = DetRng::substream_indexed(seed, "family-a", task);
        let mut rb = DetRng::substream_indexed(seed, "family-b", task);
        let da: HashSet<u64> = (0..1000).map(|_| ra.next_u64()).collect();
        let db: HashSet<u64> = (0..1000).map(|_| rb.next_u64()).collect();
        prop_assert!(da.is_disjoint(&db));
    }

    /// The stream for (seed, task) is a pure function of the pair — it
    /// never depends on construction order or what other streams exist.
    #[test]
    fn streams_are_pure_functions_of_seed_and_task(seed: u64, task: u64) {
        let direct: Vec<u64> = {
            let mut r = DetRng::stream(seed, task);
            (0..32).map(|_| r.next_u64()).collect()
        };
        // Interleave construction of unrelated streams.
        let mut decoy = DetRng::stream(seed ^ 1, task.wrapping_add(1));
        decoy.next_u64();
        let mut again = DetRng::stream(seed, task);
        let replay: Vec<u64> = (0..32).map(|_| again.next_u64()).collect();
        prop_assert_eq!(direct, replay);
    }

    /// Chunked accumulation (the BER-counter pattern): splitting `total`
    /// trials into any fixed chunk size and summing per-chunk counters in
    /// chunk order gives the same total at every thread count — and every
    /// trial is counted exactly once.
    #[test]
    fn chunked_counters_are_chunk_size_and_thread_invariant(
        seed: u64,
        total in 1u64..5000,
        chunk in 1u64..512,
        threads in 2usize..9,
    ) {
        let run_at = |t: usize| {
            TrialPlan::new()
                .trials(chunk_count(total, chunk))
                .seed(seed)
                .label("count")
                .run(&Exec::with_threads(t), |ctx| {
                    let len = chunk_len(ctx.trial(), total, chunk);
                    let mut rng = ctx.rng();
                    let hits = (0..len).filter(|_| rng.chance(0.5)).count() as u64;
                    (len, hits)
                })
        };
        let seq = run_at(1);
        let par = run_at(threads);
        prop_assert_eq!(&seq, &par);
        let trials: u64 = seq.iter().map(|(len, _)| len).sum();
        prop_assert_eq!(trials, total, "chunking must cover every trial exactly once");
    }

    /// TrialPlan::run returns results in trial order regardless of
    /// scheduling.
    #[test]
    fn trial_plan_order_is_stable(n in 0u64..300, threads in 2usize..9) {
        let out = TrialPlan::new()
            .trials(n)
            .run(&Exec::with_threads(threads), |ctx| ctx.trial());
        prop_assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    /// TrialPlan::run is bit-identical to sequential execution at every
    /// thread count.
    #[test]
    fn trial_plan_run_equals_sequential(
        seed: u64,
        n in 0u64..200,
        draws in 1usize..32,
        threads in 2usize..17,
    ) {
        let run_at = |t: usize| {
            TrialPlan::new().trials(n).seed(seed).label("plan-prop").run(
                &Exec::with_threads(t),
                |ctx| {
                    let mut rng = ctx.rng();
                    let mut acc = 0u64;
                    for _ in 0..draws {
                        acc = acc.wrapping_add(rng.next_u64());
                    }
                    (ctx.trial(), acc)
                },
            )
        };
        prop_assert_eq!(run_at(1), run_at(threads));
    }

    /// TrialPlan::sum (exact integer fold) is thread-count invariant and
    /// equal to summing TrialPlan::run's per-trial values.
    #[test]
    fn trial_plan_sum_is_thread_invariant(
        seed: u64,
        n in 0u64..300,
        threads in 2usize..9,
    ) {
        let stat = |ctx: &mut mosaic_sim::sweep::TrialCtx| ctx.rng().next_u64() >> 32;
        let seq: u64 = TrialPlan::new().trials(n).seed(seed).label("plan-sum")
            .run(&Exec::with_threads(1), |ctx| stat(ctx)).iter().sum();
        let par = TrialPlan::new().trials(n).seed(seed).label("plan-sum")
            .sum(&Exec::with_threads(threads), stat);
        prop_assert_eq!(seq, par);
    }
}

/// Integer-rollup proof for the R6 exactness registry: the coded-channel
/// fold `rs_channel_fold` (under `run_rs_channel_with` and both of its
/// channels) merges per-worker `u64` counters only, so every counter of
/// `CodedRun` is bit-identical at every thread count. `mosaic_lint`
/// cross-checks that this test names the registered fold — removing it
/// (or the mention) is an R6 violation.
#[test]
fn run_rs_channel_with_counters_are_thread_invariant() {
    use mosaic_fec::rs::ReedSolomon;
    use mosaic_sim::montecarlo::{
        run_rs_channel_dense_with, run_rs_channel_sparse_with, run_rs_channel_with,
    };

    let rs = ReedSolomon::new(8, 31, 23);
    let baseline = run_rs_channel_with(&Exec::with_threads(1), &rs, 2e-2, 400, 11);
    assert!(baseline.codewords == 400 && baseline.bits > 0);
    for threads in [1, 2, 4, 8] {
        let exec = Exec::with_threads(threads);
        for run in [
            run_rs_channel_with(&exec, &rs, 2e-2, 400, 11),
            run_rs_channel_sparse_with(&exec, &rs, 2e-2, 400, 11),
            run_rs_channel_dense_with(&exec, &rs, 2e-2, 400, 11),
        ] {
            assert_eq!(
                run, baseline,
                "threads={threads}: exact integer fold must be schedule-invariant"
            );
        }
    }
}
