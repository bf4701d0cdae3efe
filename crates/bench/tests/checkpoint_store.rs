//! The rollup checkpoint store behind F18 and F19 kill/resume.
//!
//! * Golden files: `tests/golden/` holds the exact bytes of one
//!   `FleetRollup` and one `TrafficRollup` checkpoint in the
//!   `mosaic-hyperfleet-rollup/v1` and `mosaic-traffic-rollup/v1`
//!   formats, with counters above 2^53 and full-width u128 sums. The
//!   store must load them and write the same bytes back, so checkpoints
//!   left by an older build stay resumable.
//! * One contract, both rollups: wrong digest, wrong batch, corrupt
//!   file, tag isolation and `clear` behave identically for every
//!   `ExactRollup`.

use mosaic_bench::fragments::{FragmentRollupStore, TrafficRollupStore};
use mosaic_netsim::hyperfleet::FleetRollup;
use mosaic_sim::checkpoint::{Checkpoint, ExactRollup, FileStore};
use mosaic_traffic::{TrafficRollup, LAT_BUCKETS};
use std::fmt::Debug;
use std::path::PathBuf;

const GOLDEN_FLEET: &str = include_str!("golden/hf-golden-b2.json");
const GOLDEN_TRAFFIC: &str = include_str!("golden/tr-golden-b3.json");

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mosaic-ckpt-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn golden_fleet() -> FleetRollup {
    FleetRollup {
        shards: 1,
        links: 1_277_952,
        event_sourced_links: 3,
        tickets: 4,
        hard_failures: 5,
        rebuilds: 6,
        channel_faults: (1u64 << 53) + 1,
        spares_activated: 8,
        lanes_shed: 9,
        exhausted_links: 10,
        downtime_q: (1u128 << 77) + 12345,
        degraded_q: 12,
        capacity_lost_q: u128::MAX / 7,
        spare_occupancy: [u64::MAX, 8, 7, 6, 5, 4, 3, 2],
    }
}

fn golden_traffic() -> TrafficRollup {
    let mut latency_hist = [0u64; LAT_BUCKETS];
    for (i, h) in latency_hist.iter_mut().enumerate() {
        *h = 100 + i as u64;
    }
    latency_hist[LAT_BUCKETS - 1] = (1u64 << 60) + 3;
    TrafficRollup {
        runs: 8,
        offered: 15_360,
        delivered: 15_200,
        retried: 4,
        expired: 5,
        exhausted: 6,
        reordered: 7,
        corrupt_frames: 8,
        deskew_epochs: 9,
        remaps: 10,
        pause_epochs: 11,
        lost_lanes: 12,
        payload_bytes: (1u64 << 60) + 77,
        latency_hist,
        latency_sum: (1u128 << 90) + 5,
    }
}

/// Load `golden` from disk as batch `batch` under `digest`, check it
/// decodes to `value`, and check a save writes `golden` byte for byte.
fn golden_round_trip<R: ExactRollup + PartialEq + Debug>(
    golden: &str,
    value: R,
    batch: u64,
    digest: u64,
) {
    let dir = temp_dir(&format!("golden-{}", R::FAMILY));
    let mut store = FileStore::<R>::new(&dir, "golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(store.path(batch), golden).unwrap();
    assert_eq!(store.load(batch, digest), Some(value.clone()));
    std::fs::remove_file(store.path(batch)).unwrap();
    store.save(batch, digest, &value).unwrap();
    assert_eq!(std::fs::read_to_string(store.path(batch)).unwrap(), golden);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_fleet_checkpoint_is_byte_stable() {
    assert_eq!(
        FragmentRollupStore::new("d", "golden").path(2),
        PathBuf::from("d/hf-golden-b2.json")
    );
    golden_round_trip(GOLDEN_FLEET, golden_fleet(), 2, 0xdead_beef_0123_4567);
}

#[test]
fn golden_traffic_checkpoint_is_byte_stable() {
    assert_eq!(
        TrafficRollupStore::new("d", "golden").path(3),
        PathBuf::from("d/tr-golden-b3.json")
    );
    golden_round_trip(GOLDEN_TRAFFIC, golden_traffic(), 3, 0xfeed_f00d_89ab_cdef);
}

/// The store contract every rollup type must satisfy.
fn store_contract<R: ExactRollup + PartialEq + Debug>(r: R) {
    let dir = temp_dir(&format!("contract-{}", R::FAMILY));
    let mut store = FileStore::<R>::new(&dir, "hitless-r2");
    store.save(4, 0xdead_beef, &r).unwrap();
    assert_eq!(store.load(4, 0xdead_beef), Some(r.clone()));
    // Wrong digest, wrong batch, wrong tag: all ignored.
    assert_eq!(store.load(4, 0xdead_beee), None);
    assert_eq!(store.load(3, 0xdead_beef), None);
    let mut other = FileStore::<R>::new(&dir, "static-r2");
    assert_eq!(other.load(4, 0xdead_beef), None);
    // A corrupt or truncated file is ignored, never trusted.
    let text = std::fs::read_to_string(store.path(4)).unwrap();
    for damaged in ["{not json", &text[..text.len() / 2], ""] {
        std::fs::write(store.path(4), damaged).unwrap();
        assert_eq!(store.load(4, 0xdead_beef), None);
    }
    // Clearing one tag leaves the other alone.
    store.save(4, 0xdead_beef, &r).unwrap();
    store.save(5, 0xdead_beef, &r).unwrap();
    other.save(0, 0xabcd, &r).unwrap();
    store.clear();
    assert_eq!(store.load(4, 0xdead_beef), None);
    assert_eq!(store.load(5, 0xdead_beef), None);
    assert_eq!(other.load(0, 0xabcd), Some(r));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_store_meets_the_contract() {
    store_contract(golden_fleet());
}

#[test]
fn traffic_store_meets_the_contract() {
    store_contract(golden_traffic());
}

#[test]
fn families_in_one_directory_do_not_collide() {
    let dir = temp_dir("families");
    let mut fleet = FragmentRollupStore::new(&dir, "p");
    let mut traffic = TrafficRollupStore::new(&dir, "p");
    fleet.save(0, 1, &golden_fleet()).unwrap();
    traffic.save(0, 1, &golden_traffic()).unwrap();
    fleet.clear();
    assert_eq!(fleet.load(0, 1), None);
    assert_eq!(traffic.load(0, 1), Some(golden_traffic()));
    let _ = std::fs::remove_dir_all(&dir);
}
