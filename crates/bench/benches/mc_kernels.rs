//! Criterion benches: the allocation-free Monte-Carlo kernels against
//! their allocating predecessors.
//!
//! Three comparisons, one per rewritten kernel:
//!   * RS decode through a reused [`DecodeScratch`] vs the
//!     allocate-per-word `decode` wrapper (corrected and clean words —
//!     the clean case isolates the fused Horner syndrome early exit);
//!   * symbol-domain error injection (`corrupt_symbols`) vs the
//!     serialize → `corrupt_bits` → reassemble round trip;
//!   * the end-to-end coded-channel step (`run_rs_channel_with`), whose
//!     wall time is what the manifest perf gate tracks: the weak F10 code
//!     at 2e-2 and KP4 at its 2.4e-4 threshold, where the error-pattern
//!     decode does its work;
//!   * the OOK slicer (`count_errors`) at the F4 sweep power whose BER is
//!     nearest 1e-3, where rejection before Box-Muller skips most bits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mosaic_fec::{DecodeScratch, ReedSolomon};
use mosaic_phy::ber::OokReceiver;
use mosaic_phy::noise::NoiseBudget;
use mosaic_phy::photodiode::Photodiode;
use mosaic_phy::tia::Tia;
use mosaic_sim::inject::BitErrorInjector;
use mosaic_sim::montecarlo::{run_rs_channel_with, SlicerPoint};
use mosaic_sim::rng::DetRng;
use mosaic_sim::sweep::Exec;
use mosaic_units::Power;

fn bench_scratch_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("rs_scratch_decode");
    g.sample_size(20);
    let rs = ReedSolomon::kp4();
    let data: Vec<u16> = (0..rs.k() as u16).map(|v| v & 0x3FF).collect();
    let clean = rs.encode(&data);
    let mut corrupted = clean.clone();
    for i in 0..rs.t() / 2 {
        corrupted[i * 37 % rs.n()] ^= 0x155;
    }
    g.throughput(Throughput::Elements((rs.k() as u64) * 10));
    for (case, word) in [("t_half", &corrupted), ("clean", &clean)] {
        g.bench_with_input(BenchmarkId::new("alloc_per_word", case), word, |b, w| {
            b.iter(|| {
                let mut word = w.clone();
                rs.decode(&mut word)
            });
        });
        g.bench_with_input(BenchmarkId::new("scratch", case), word, |b, w| {
            let mut scratch = DecodeScratch::new();
            let mut word = w.clone();
            b.iter(|| {
                word.copy_from_slice(w);
                rs.decode_scratch(&mut word, &mut scratch)
            });
        });
    }
    g.finish();
}

fn bench_corrupt_symbols(c: &mut Criterion) {
    let mut g = c.benchmark_group("error_injection_symbols");
    g.sample_size(20);
    let rs = ReedSolomon::kp4();
    let m = rs.symbol_bits();
    let data: Vec<u16> = (0..rs.k() as u16).map(|v| v & 0x3FF).collect();
    let clean = rs.encode(&data);
    let ber = 1e-3;
    g.throughput(Throughput::Elements(rs.n() as u64 * m as u64));
    g.bench_function("serialize_round_trip", |b| {
        let mut inj = BitErrorInjector::new(ber, DetRng::new(7));
        b.iter(|| {
            let mut bits: Vec<u8> = Vec::with_capacity(rs.n() * m as usize);
            for &s in &clean {
                for bit in 0..m {
                    bits.push(((s >> bit) & 1) as u8);
                }
            }
            inj.corrupt_bits(&mut bits);
            let word: Vec<u16> = bits
                .chunks(m as usize)
                .map(|chunk| {
                    chunk
                        .iter()
                        .enumerate()
                        .fold(0u16, |acc, (i, &b)| acc | ((b as u16) << i))
                })
                .collect();
            word
        });
    });
    g.bench_function("corrupt_symbols", |b| {
        let mut inj = BitErrorInjector::new(ber, DetRng::new(7));
        let mut word = clean.clone();
        b.iter(|| {
            word.copy_from_slice(&clean);
            inj.corrupt_symbols(&mut word, m)
        });
    });
    g.finish();
}

fn bench_rs_channel(c: &mut Criterion) {
    let mut g = c.benchmark_group("rs_channel");
    g.sample_size(10);
    let rs = ReedSolomon::new(8, 31, 23);
    let exec = Exec::with_threads(1);
    g.throughput(Throughput::Elements(200));
    g.bench_function("run_rs_channel_200w", |b| {
        b.iter(|| run_rs_channel_with(&exec, &rs, 2e-2, 200, 11));
    });
    let kp4 = ReedSolomon::kp4();
    g.throughput(Throughput::Elements(400));
    g.bench_function("kp4_2.4e-4_400w", |b| {
        b.iter(|| run_rs_channel_with(&exec, &kp4, 2.4e-4, 400, 11));
    });
    g.finish();
}

fn bench_slicer(c: &mut Criterion) {
    let mut g = c.benchmark_group("ook_slicer");
    g.sample_size(20);
    // The F4 2 Gb/s receiver, at the F4 sweep power (−30 … −21 dBm)
    // whose analytic BER is nearest 1e-3.
    let tia = Tia::low_speed(2.0);
    let rx = OokReceiver {
        pd: Photodiode::silicon_blue(),
        noise: NoiseBudget {
            thermal_a: tia.rms_noise_current(),
            bandwidth: tia.bandwidth,
            rin_db_per_hz: None,
        },
        extinction_ratio: 6.0,
    };
    let distance = |p: &Power| (rx.ber_at(*p).log10() + 3.0).abs();
    let power = (-30..=-21)
        .map(|dbm| Power::from_dbm(dbm as f64))
        .min_by(|a, b| distance(a).total_cmp(&distance(b)))
        .expect("the sweep is not empty");
    let point = SlicerPoint::of(&rx, power);
    const BITS: u64 = 65_536;
    g.throughput(Throughput::Elements(BITS));
    let id = format!("ber_{:.1e}", point.model_ber());
    g.bench_function(BenchmarkId::new("count_errors", id), |b| {
        let mut rng = DetRng::new(5);
        b.iter(|| point.count_errors(BITS, &mut rng));
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
    targets = bench_scratch_decode, bench_corrupt_symbols, bench_rs_channel, bench_slicer
}
criterion_main!(benches);
