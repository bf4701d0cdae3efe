//! Criterion benches: the degrade controller's event-driven step and one
//! fleet-link fault-window replay (the F18 inner loop).

use criterion::{criterion_group, criterion_main, Criterion};
use mosaic_link::degrade::{CtlState, DegradeConfig, DegradeController};
use mosaic_netsim::hyperfleet::{self, BITS_PER_EPOCH};
use mosaic_sim::faults::{CampaignConfig, FaultCampaign, Persistence};

fn controller(logical: usize, physical: usize, cfg: DegradeConfig) -> DegradeController {
    DegradeController::try_new(logical, physical, cfg).unwrap()
}

fn bench_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("degrade");
    g.sample_size(20);
    // Idle links: no channel is hot, so a step touches no channel.
    for (logical, physical) in [(10, 12), (14, 16), (120, 128)] {
        let mut ctl = controller(logical, physical, hyperfleet::degrade_policy());
        g.bench_function(format!("idle_step_{physical}ch"), |b| b.iter(|| ctl.step()));
    }
    // One channel held in Suspect: BER between the clear and quarantine
    // thresholds, and a dwell limit it never reaches.
    let cfg = DegradeConfig {
        suspect_dwell_limit: usize::MAX,
        ..hyperfleet::degrade_policy()
    };
    let mut ctl = controller(10, 12, cfg);
    ctl.record(3, BITS_PER_EPOCH, 41);
    ctl.step();
    assert_eq!(ctl.state(3), CtlState::Suspect);
    g.bench_function("suspect_step_12ch", |b| b.iter(|| ctl.step()));
    g.finish();
}

fn bench_fleet_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("hyperfleet");
    g.sample_size(20);
    // A with-Mosaic fleet link over the F18 horizon (3 years of hourly
    // epochs, 12 groups carrying 10): the first campaign seed that
    // strikes the link, replayed over its first fault window the way
    // the shard loop bounds it.
    let camp_cfg = CampaignConfig {
        channels: 12,
        epochs: 26_280,
        faults_per_kilo_epoch: 0.004,
        max_duration: 24,
        permanent_fraction: 0.25,
    };
    let campaign = (1u64..)
        .map(|seed| FaultCampaign::generate(camp_cfg, seed))
        .find(|c| !c.events().is_empty())
        .unwrap();
    let events = campaign.events();
    let first = events.iter().min_by_key(|ev| ev.start).unwrap();
    let policy = hyperfleet::degrade_policy();
    let span = match first.persistence {
        Persistence::Permanent => 16,
        _ => first.duration.min(16),
    };
    let tail = policy.suspect_dwell_limit + policy.clear_epochs + 2;
    let to = (first.start + span + tail).min(camp_cfg.epochs - 1);
    let mut ctl = controller(10, 12, policy);
    g.bench_function("replay_fleet_link_window", |b| {
        b.iter(|| {
            ctl.reset();
            hyperfleet::replay_fault_window(&mut ctl, events, first.start, to, 0, BITS_PER_EPOCH);
            ctl.spares_activated()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    // Short windows: these are smoke/regression benches, not a tuning lab.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_step, bench_fleet_replay
}
criterion_main!(benches);
