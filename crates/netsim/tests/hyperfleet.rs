//! Integration tests for the hyperfleet engine: thread-count and
//! batch-size invariance of the merged rollup at F18-like scale, resume
//! equivalence through a checkpoint store killed at every batch
//! boundary, and a property sweep over randomized small fleets.

use mosaic_netsim::hyperfleet::{simulate, simulate_with, HyperClass, HyperFleetConfig};
use mosaic_sim::checkpoint::MemStore;
use mosaic_sim::fidelity::FidelityMode;
use mosaic_sim::sweep::Exec;
use mosaic_units::{BitRate, Duration, Fit};
use proptest::prelude::*;

fn fleet_cfg(mosaic_links: u64, optics_links: u64, years: f64) -> HyperFleetConfig {
    HyperFleetConfig {
        classes: vec![
            HyperClass {
                name: "tor-agg/Mosaic".into(),
                links: mosaic_links,
                link_fit: Fit::new(120.0),
                aggregate: BitRate::from_gbps(800.0),
                groups: 12,
                logical_groups: 10,
            },
            HyperClass {
                name: "agg-spine/optics".into(),
                links: optics_links,
                link_fit: Fit::new(1200.0),
                aggregate: BitRate::from_gbps(800.0),
                groups: 0,
                logical_groups: 0,
            },
        ],
        years,
        mttr: Duration::from_hours(8.0),
        shard_links: 256,
        shards_per_batch: 4,
        faults_per_kilo_hour: 0.05,
        max_fault_duration: 24,
        permanent_fraction: 0.25,
        rebuild_lost_fraction: 0.2,
        fidelity: FidelityMode::Full,
    }
}

#[test]
fn rollup_is_byte_identical_across_1_2_8_threads() {
    // ~6k links (12 event-sourced batches' worth) — big enough that the
    // 8-thread fold interleaves shard completions in earnest.
    let cfg = fleet_cfg(4096, 2048, 2.0);
    let base = simulate(&cfg, 505, &Exec::with_threads(1)).unwrap();
    assert!(base.rollup.channel_faults > 0, "faults must have fired");
    assert!(base.rollup.spares_activated > 0, "spares must have moved");
    for threads in [2, 8] {
        let r = simulate(&cfg, 505, &Exec::with_threads(threads)).unwrap();
        // FleetRollup is all integers: equality here is bit-exactness.
        assert_eq!(r.rollup, base.rollup, "threads={threads}");
        assert_eq!(r, base, "threads={threads}");
    }
}

#[test]
fn kill_at_every_batch_boundary_resumes_byte_identically() {
    let cfg = fleet_cfg(1024, 512, 1.5);
    let exec = Exec::with_threads(4);
    let clean = simulate(&cfg, 7, &exec).unwrap();
    let batches = (1024 / 256 + 512 / 256 + 3) / 4 + 1; // upper bound
    for stop in 1..=batches {
        let mut store = MemStore::default();
        // Run with a per-invocation batch limit until completion, as a
        // kill/restart loop would.
        let mut finished = None;
        for _ in 0..=batches {
            match simulate_with(&cfg, 7, &exec, &mut store, Some(stop as u64)).unwrap() {
                Some(report) => {
                    finished = Some(report);
                    break;
                }
                None => continue,
            }
        }
        let report = finished.expect("run must finish within the batch budget");
        assert_eq!(report, clean, "stop-after={stop}");
    }
}

/// The event-driven degrade controller keeps its channel sets in
/// multi-word bitsets, so a class wider than one 64-bit word must
/// validate and run like any other: 100 logical of 130 groups.
#[test]
fn wide_classes_validate_and_are_thread_invariant() {
    let mut cfg = fleet_cfg(512, 256, 1.0);
    cfg.classes[0].groups = 130;
    cfg.classes[0].logical_groups = 100;
    cfg.validate().unwrap();
    let run = |threads| {
        simulate_with(
            &cfg,
            3,
            &Exec::with_threads(threads),
            &mut MemStore::default(),
            None,
        )
        .unwrap()
        .expect("no stop limit was set")
    };
    let one = run(1);
    assert!(one.rollup.channel_faults > 0, "faults must have fired");
    assert_eq!(run(2).rollup, one.rollup);
}

/// The config digest keys every checkpoint on disk: a silent change
/// would orphan checkpoints of a killed run.
#[test]
fn config_digest_is_pinned() {
    assert_eq!(fleet_cfg(1024, 512, 1.5).digest(7), 0xefda_8a2e_5431_3245);
}

#[test]
fn checkpoints_from_a_different_config_are_never_resumed() {
    let cfg_a = fleet_cfg(1024, 512, 1.5);
    let mut cfg_b = fleet_cfg(1024, 512, 1.5);
    cfg_b.faults_per_kilo_hour = 0.08;
    let exec = Exec::with_threads(2);
    let mut store = MemStore::default();
    // Partially run config A, then complete config B through the same
    // store: B must ignore A's checkpoints (digest mismatch) and match
    // a storeless run exactly.
    assert!(simulate_with(&cfg_a, 9, &exec, &mut store, Some(1))
        .unwrap()
        .is_none());
    let resumed = simulate_with(&cfg_b, 9, &exec, &mut store, None)
        .unwrap()
        .expect("no stop limit");
    let clean = simulate(&cfg_b, 9, &exec).unwrap();
    assert_eq!(resumed, clean);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariance holds over randomized small fleets, not just the
    /// hand-picked configs: any (links, rate, shard size, batch size)
    /// yields the same rollup at 1 and 4 threads and at a different
    /// batching.
    #[test]
    fn random_fleets_are_thread_and_batch_invariant(
        mosaic_links in 1u64..600,
        optics_links in 0u64..600,
        shard_links in 32u64..200,
        spb in 1u64..6,
        rate in 0.0f64..0.2,
        seed in 0u64..1000,
    ) {
        // At least one class must have links.
        let optics_links = optics_links.max(1);
        let mut cfg = fleet_cfg(mosaic_links, optics_links, 1.0);
        cfg.shard_links = shard_links;
        cfg.shards_per_batch = spb;
        cfg.faults_per_kilo_hour = rate;
        let base = simulate(&cfg, seed, &Exec::with_threads(1)).unwrap();
        let par = simulate(&cfg, seed, &Exec::with_threads(4)).unwrap();
        prop_assert_eq!(par.rollup, base.rollup);
        let mut rebatched = cfg.clone();
        rebatched.shards_per_batch = spb + 3;
        let re = simulate(&rebatched, seed, &Exec::with_threads(4)).unwrap();
        prop_assert_eq!(re.rollup, base.rollup);
    }
}
