//! Criterion benches: link-budget evaluation and the design explorer.

use criterion::{criterion_group, criterion_main, Criterion};
use mosaic::budget::{max_reach_with, BudgetEngine};
use mosaic::config::MosaicConfig;
use mosaic_fiber::crosstalk::Misalignment;
use mosaic_units::{BitRate, Length};

fn bench_budget(c: &mut Criterion) {
    let mut g = c.benchmark_group("budget");
    g.sample_size(20);
    let cfg = MosaicConfig::builder()
        .bit_rate(BitRate::from_gbps(800.0))
        .reach(Length::from_m(10.0))
        .build()
        .unwrap();
    g.bench_function("engine_build_428ch", |b| b.iter(|| BudgetEngine::new(&cfg)));
    let engine = BudgetEngine::new(&cfg);
    g.bench_function("all_channels_428", |b| {
        b.iter(|| engine.all_channels(&cfg.led))
    });
    g.bench_function("full_evaluate_800g", |b| b.iter(|| cfg.evaluate()));

    // The same link under 0.02 rad of rotation: the path terms vary with
    // radius, so the engine budgets hundreds of channel classes, not five.
    let mut rotated = cfg.clone();
    rotated.misalignment = Misalignment {
        lateral: Length::ZERO,
        rotation_rad: 0.02,
    };
    let engine = BudgetEngine::new(&rotated);
    g.bench_function("all_channels_428_misaligned", |b| {
        b.iter(|| engine.all_channels(&rotated.led))
    });

    // The largest design query: 1,600 Gb/s over 0.25 Gb/s channels.
    let widest = MosaicConfig::builder()
        .bit_rate(BitRate::from_gbps(1600.0))
        .channel_rate(BitRate::from_gbps(0.25))
        .reach(Length::from_m(10.0))
        .build()
        .unwrap();
    assert_eq!(widest.total_channels(), 6978);
    g.bench_function("engine_build_6978ch", |b| {
        b.iter(|| BudgetEngine::new(&widest))
    });
    let mut engine = BudgetEngine::new(&widest);
    g.bench_function("max_reach_6978ch", |b| {
        b.iter(|| max_reach_with(&mut engine, &widest))
    });
    g.finish();
}

fn bench_devices(c: &mut Criterion) {
    let mut g = c.benchmark_group("devices");
    let led = mosaic_phy::microled::MicroLed::default();
    let i = led.current_for_density(3000.0);
    g.bench_function("microled_operating_point", |b| {
        b.iter(|| (led.optical_power(i), led.modulation_bandwidth(i)))
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
    targets = bench_budget, bench_devices
}
criterion_main!(benches);
