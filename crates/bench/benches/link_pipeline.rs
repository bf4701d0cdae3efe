//! Criterion benches: the gearbox transmit/receive pipeline.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mosaic_link::gearbox::{Gearbox, RxBatch, RxScratch, TxScratch};
use mosaic_link::scrambler::Scrambler;
use mosaic_link::striping::{Deskewer, Distributor, StripeConfig};

fn bench_gearbox(c: &mut Criterion) {
    let mut g = c.benchmark_group("gearbox");
    g.sample_size(20);
    let payloads: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 1024]).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    let bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("transmit_100ch_16k", |b| {
        b.iter_with_setup(|| Gearbox::new(100, 108, 32), |mut tx| tx.transmit(&refs))
    });
    g.bench_function("roundtrip_100ch_16k", |b| {
        b.iter_with_setup(
            || (Gearbox::new(100, 108, 32), Gearbox::new(100, 108, 32)),
            |(mut tx, mut rx)| {
                let ch = tx.transmit(&refs);
                rx.receive(&ch).unwrap()
            },
        )
    });
    // The F19 harness geometry and path: 8 logical lanes over 12
    // physical, am_period 16, batches of up to 32 frames of about the
    // mixed workload's sizes, pushed through the allocation-free
    // scratch pair with warm buffers.
    let f19: Vec<Vec<u8>> = (0..32).map(|i| vec![i as u8; 96 + 7 * i]).collect();
    let f19_refs: Vec<&[u8]> = f19.iter().map(|p| p.as_slice()).collect();
    g.throughput(Throughput::Bytes(
        f19.iter().map(|p| p.len() as u64).sum::<u64>(),
    ));
    let mut tx = Gearbox::new(8, 12, 16);
    let (mut txs, mut rxs, mut batch) = (
        TxScratch::default(),
        RxScratch::default(),
        RxBatch::default(),
    );
    let mut channels = Vec::new();
    g.bench_function("transmit_into_8of12ch_32frames", |b| {
        b.iter(|| tx.transmit_into(&f19_refs, &mut txs, &mut channels))
    });
    // A fresh pair, so the receiver's descrambler and frame numbering
    // track this transmitter from the first epoch.
    let mut tx = Gearbox::new(8, 12, 16);
    let mut rx = Gearbox::new(8, 12, 16);
    g.bench_function("roundtrip_into_8of12ch_32frames", |b| {
        b.iter(|| {
            tx.transmit_into(&f19_refs, &mut txs, &mut channels);
            rx.receive_into(&channels, &mut rxs, &mut batch).unwrap();
            batch.frames.len()
        })
    });
    g.finish();
}

fn bench_striping(c: &mut Criterion) {
    let mut g = c.benchmark_group("striping");
    let cfg = StripeConfig::new(64, 16);
    let payload: Vec<u64> = (0..64 * 16 * 8).collect();
    g.throughput(Throughput::Bytes(payload.len() as u64 * 8));
    g.bench_function("stripe_64lanes", |b| {
        b.iter_with_setup(|| Distributor::new(cfg), |mut d| d.stripe(&payload, 0))
    });
    let streams = Distributor::new(cfg).stripe(&payload, 0);
    g.bench_function("deskew_64lanes", |b| {
        b.iter(|| Deskewer::new(cfg).reassemble(&streams).unwrap())
    });
    g.finish();
}

fn bench_scrambler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scrambler");
    let words: Vec<u64> = (0..4096).map(|i| i * 0x9E37_79B9_7F4A_7C15).collect();
    g.throughput(Throughput::Bytes(words.len() as u64 * 8));
    g.bench_function("scramble_32kB", |b| {
        b.iter_with_setup(Scrambler::new, |mut s| {
            words
                .iter()
                .map(|&w| s.scramble_word(w))
                .collect::<Vec<_>>()
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
    targets = bench_gearbox, bench_striping, bench_scrambler
}
criterion_main!(benches);
