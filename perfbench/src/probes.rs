//! Per-layer probes for the traced run.
//!
//! Each probe calls one layer's public functions on inputs taken from the
//! workloads (the F19 link's frames and campaigns, the hyperscale fleet's
//! links and shards, the design grid) and wraps every call in a span.
//! The per-layer metrics are span self times divided by the work done,
//! plus the exact counters the layers return. Every probe runs on every
//! workload's traced run, so each workload reports the full metric set.

use crate::trace::Tracer;
use crate::util::{agrees_with, percentile, Digest, SplitMix};
use crate::workloads::{design, fleet, montecarlo, traffic, Checks};
use mosaic::budget::{max_reach_with, BudgetEngine};
use mosaic_bench::fragments::{load_fragment, write_fragment};
use mosaic_bench::manifest::FigureRecord;
use mosaic_fec::{DecodeOutcome, DecodeScratch, ReedSolomon};
use mosaic_link::degrade::DegradeController;
use mosaic_link::gearbox::{Gearbox, RxBatch, RxScratch, TxScratch};
use mosaic_netsim::hyperfleet::{self, ClassTier, HardFailTally, BITS_PER_EPOCH};
use mosaic_netsim::ClassFailureProcess;
use mosaic_reliability::montecarlo::simulate_pool_no_repair_with;
use mosaic_reliability::weibull::{pool_survival_weibull_with, Weibull};
use mosaic_sim::faults::{CampaignConfig, FaultCampaign, Persistence};
use mosaic_sim::inject::BitErrorInjector;
use mosaic_sim::montecarlo::SlicerPoint;
use mosaic_sim::rng::DetRng;
use mosaic_sim::sweep::Exec;
use mosaic_sim::telemetry::Snapshot;
use mosaic_sim::EventQueue;
use mosaic_traffic::{run_seed, LinkHarness, Policy, TrafficRollup, Workload as FrameSource};
use mosaic_units::{Duration, Power};
use std::path::Path;

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What the probes measured.
#[derive(Debug, Default)]
pub struct ProbeReport {
    /// Per-layer metrics, in report order.
    pub metrics: Vec<Metric>,
    /// The probes' output checks.
    pub checks: Checks,
}

impl ProbeReport {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

/// Harness runs replayed by the gearbox, step and degrade probes.
const TRAFFIC_RUNS: u64 = 4;
/// Event-sourced fleet links replayed by the netsim probe.
const FLEET_LINKS: u64 = 40_000;
/// Links per netsim span (keeps the span count small).
const FLEET_CHUNK: u64 = 1024;
/// Links per class in the fleet-rollup count probe.
const FLEET_COUNT_LINKS: u64 = 20_000;
/// Epochs a fleet fault window is replayed for at most, before the tail
/// (the engine's resolve cap).
const FLEET_RESOLVE_CAP: usize = 16;

fn per(total_ns: u64, work: f64) -> f64 {
    if work > 0.0 {
        total_ns as f64 / work
    } else {
        0.0
    }
}

/// Run every probe. `seed` is the workload seed; `threads` the
/// workload's thread count; `dir` a scratch directory for checkpoint
/// round trips; `ckpt_bytes` what the workload left in its own
/// checkpoint directory per pass.
pub fn run_all(
    seed: u64,
    threads: usize,
    dir: &Path,
    ckpt_bytes: u64,
    tr: &mut Tracer,
) -> ProbeReport {
    let mut rep = ProbeReport::default();
    gearbox_and_emit(seed, tr, &mut rep);
    let degrade_epochs = degrade_and_steps(seed, tr, &mut rep);
    netsim(seed, threads, degrade_epochs, tr, &mut rep);
    sim_kernels(seed, tr, &mut rep);
    fec(seed, tr, &mut rep);
    reliability(seed, tr, &mut rep);
    core(seed, tr, &mut rep);
    checkpoints(dir, ckpt_bytes, tr, &mut rep);
    rep
}

/// `link` gearbox and `traffic` emission: the F19 link's own frames
/// through `Gearbox::transmit_into` / `receive_into` at harness geometry
/// (≤ `max_batch` frames per epoch batch), checked byte for byte.
fn gearbox_and_emit(seed: u64, tr: &mut Tracer, rep: &mut ProbeReport) {
    let cfg = traffic::config(0.0, Policy::ControllerHitless);
    let mut bytes = 0u64;
    let mut frames = 0u64;
    let mut intact = true;
    for run in 0..TRAFFIC_RUNS {
        let (Ok(mut tx), Ok(mut rx)) = (
            Gearbox::try_new(cfg.logical, cfg.physical, cfg.am_period),
            Gearbox::try_new(cfg.logical, cfg.physical, cfg.am_period),
        ) else {
            rep.checks
                .check(false, || "gearbox probe: harness geometry rejected".into());
            return;
        };
        let mut source = FrameSource::new(cfg.workload, run_seed(seed, run));
        let (mut txs, mut rxs, mut batch) = (
            TxScratch::default(),
            RxScratch::default(),
            RxBatch::default(),
        );
        let mut channels = Vec::new();
        let (mut specs, mut arena, mut spans) = (Vec::new(), Vec::new(), Vec::new());
        for epoch in 0..cfg.epochs {
            specs.clear();
            arena.clear();
            spans.clear();
            tr.span(
                "traffic.emit",
                || format!("probe/emit/{run}"),
                |_| {
                    source.emit_epoch(epoch, &mut specs);
                    for s in &specs {
                        spans.push(FrameSource::payload_into(s, &mut arena));
                    }
                },
            );
            frames += specs.len() as u64;
            for chunk in spans.chunks(cfg.max_batch) {
                let refs: Vec<&[u8]> = chunk.iter().map(|&(s, l)| &arena[s..s + l]).collect();
                tr.span(
                    "link.gearbox.tx",
                    || format!("probe/gearbox/{run}"),
                    |_| tx.transmit_into(&refs, &mut txs, &mut channels),
                );
                let ok = tr
                    .span(
                        "link.gearbox.rx",
                        || format!("probe/gearbox/{run}"),
                        |_| rx.receive_into(&channels, &mut rxs, &mut batch),
                    )
                    .is_ok();
                intact &= ok
                    && batch.frames.len() == refs.len()
                    && refs.iter().enumerate().all(|(i, r)| batch.payload(i) == *r);
                bytes += refs.iter().map(|r| r.len() as u64).sum::<u64>();
            }
        }
    }
    rep.checks.check(intact, || {
        "gearbox probe: received frames differ from sent".into()
    });
    rep.put(
        "link.gearbox.tx_ns_per_byte",
        per(tr.stat("link.gearbox.tx").self_ns, bytes as f64),
        "ns/byte",
    );
    rep.put(
        "link.gearbox.rx_ns_per_byte",
        per(tr.stat("link.gearbox.rx").self_ns, bytes as f64),
        "ns/byte",
    );
    rep.put("link.gearbox.bytes", bytes as f64, "bytes");
    rep.put(
        "traffic.emit_ns_per_frame",
        per(tr.stat("traffic.emit").self_ns, frames as f64),
        "ns/frame",
    );
}

/// `link` degrade controller on the traffic campaigns, and the `traffic`
/// epoch loop: `LinkHarness::step` per epoch on the workload's first
/// runs at fault rate 4 under the hitless policy. Returns the controller
/// epochs replayed.
fn degrade_and_steps(seed: u64, tr: &mut Tracer, rep: &mut ProbeReport) -> u64 {
    let cfg = traffic::config(4.0, Policy::ControllerHitless);
    let mut epochs = 0u64;
    for run in 0..TRAFFIC_RUNS {
        let campaign = FaultCampaign::generate(
            CampaignConfig {
                channels: cfg.physical,
                epochs: cfg.epochs as usize,
                faults_per_kilo_epoch: cfg.faults_per_kilo_epoch,
                max_duration: cfg.max_fault_duration,
                permanent_fraction: cfg.permanent_fraction,
            },
            run_seed(seed, run),
        );
        let Ok(mut ctl) = DegradeController::try_new(cfg.logical, cfg.physical, cfg.degrade) else {
            rep.checks.check(false, || {
                "degrade probe: controller geometry rejected".into()
            });
            return epochs;
        };
        let last = cfg.epochs as usize - 1;
        tr.span(
            "link.degrade.replay",
            || format!("probe/degrade/{run}"),
            |_| {
                hyperfleet::replay_fault_window(
                    &mut ctl,
                    campaign.events(),
                    0,
                    last,
                    0,
                    BITS_PER_EPOCH,
                )
            },
        );
        epochs += cfg.epochs;
    }

    let cap =
        cfg.epochs + cfg.workload.deadline_epochs + (u64::from(cfg.retransmit_budget) + 2) * 8 + 64;
    let mut total = TrafficRollup::default();
    for run in 0..TRAFFIC_RUNS {
        let Ok(mut h) = LinkHarness::try_new(cfg, run_seed(seed, run)) else {
            rep.checks.check(false, || {
                "step probe: harness rejected the F19 config".into()
            });
            return epochs;
        };
        while h.epoch() < cap {
            tr.span(
                "traffic.step",
                || format!("probe/traffic/{run}"),
                |_| h.step(),
            );
            if h.epoch() >= cfg.epochs && h.in_flight() == 0 {
                break;
            }
        }
        let r = if h.in_flight() > 0 {
            h.run_to_completion()
        } else {
            *h.rollup()
        };
        rep.checks.check(r.balanced(), || {
            format!("step probe run {run}: unbalanced rollup")
        });
        total.merge(&r);
    }
    let steps_us: Vec<f64> = tr
        .durations_ns("traffic.step")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    rep.put("traffic.step_us.p50", percentile(&steps_us, 0.50), "us");
    rep.put("traffic.step_us.p99", percentile(&steps_us, 0.99), "us");
    rep.put("traffic.steps", steps_us.len() as f64, "count");
    let offered = total.offered.max(1) as f64;
    rep.put("traffic.offered", total.offered as f64, "count");
    rep.put("traffic.delivered", total.delivered as f64, "count");
    rep.put("traffic.retried", total.retried as f64, "count");
    rep.put("traffic.remaps", total.remaps as f64, "count");
    rep.put("traffic.lost_lanes", total.lost_lanes as f64, "count");
    rep.put("traffic.goodput", total.delivered as f64 / offered, "ratio");
    rep.put(
        "traffic.retry_ratio",
        total.retried as f64 / offered,
        "ratio",
    );
    epochs
}

/// `netsim`: the with-Mosaic hyperscale fleet's own links. Campaign
/// generation and fault-window replay on the first event-sourced links,
/// the hard-failure drain on every shard, and the `FleetRollup` counts
/// of a reduced-size run. `traffic_epochs` is what the degrade probe
/// replayed, so `link.degrade.ns_per_epoch` covers both controllers.
fn netsim(seed: u64, threads: usize, traffic_epochs: u64, tr: &mut Tracer, rep: &mut ProbeReport) {
    let cfg = fleet::config(mosaic_netsim::Policy::WithMosaic);
    let tiers = hyperfleet::class_tiers(&cfg);
    let horizon_epochs = cfg.horizon_hours() as usize;
    let pol = hyperfleet::degrade_policy();
    let tail = pol.suspect_dwell_limit + pol.clear_epochs + 2;

    // First event-sourced class; link ids are global across classes.
    let mut link_base = 0u64;
    let mut target = None;
    for (class, tier) in cfg.classes.iter().zip(&tiers) {
        if *tier == ClassTier::EventSourced {
            target = Some(class);
            break;
        }
        link_base += class.links;
    }
    let mut fleet_epochs = 0u64;
    let mut faults = 0u64;
    let links = target.map_or(0, |c| c.links.min(FLEET_LINKS));
    if let Some(class) = target {
        let camp_cfg = CampaignConfig {
            channels: class.groups,
            epochs: horizon_epochs,
            faults_per_kilo_epoch: cfg.faults_per_kilo_hour,
            max_duration: cfg.max_fault_duration,
            permanent_fraction: cfg.permanent_fraction,
        };
        let mut campaigns = Vec::with_capacity(links as usize);
        for chunk in 0..links.div_ceil(FLEET_CHUNK) {
            let ids = chunk * FLEET_CHUNK..((chunk + 1) * FLEET_CHUNK).min(links);
            tr.span(
                "netsim.campaign_generate",
                || format!("probe/fleet/c{chunk}"),
                |_| {
                    for l in ids {
                        let link_seed =
                            DetRng::substream_indexed(seed, "hyperfleet-link", link_base + l)
                                .next_u64();
                        campaigns.push(FaultCampaign::generate(camp_cfg, link_seed));
                    }
                },
            );
        }
        faults = campaigns.iter().map(|c| c.events().len() as u64).sum();
        match DegradeController::try_new(class.logical_groups, class.groups, pol) {
            Ok(mut ctl) => {
                for (chunk, group) in campaigns.chunks(FLEET_CHUNK as usize).enumerate() {
                    tr.span(
                        "netsim.replay_fault_window",
                        || format!("probe/fleet/c{chunk}"),
                        |_| {
                            for c in group {
                                ctl.reset();
                                let mut done = 0usize;
                                for ev in c.events() {
                                    let span = match ev.persistence {
                                        Persistence::Permanent => FLEET_RESOLVE_CAP,
                                        _ => ev.duration.min(FLEET_RESOLVE_CAP),
                                    };
                                    let from = ev.start.max(done);
                                    let to = (ev.start + span + tail).min(horizon_epochs - 1);
                                    if from > to {
                                        continue;
                                    }
                                    hyperfleet::replay_fault_window(
                                        &mut ctl,
                                        c.events(),
                                        from,
                                        to,
                                        0,
                                        BITS_PER_EPOCH,
                                    );
                                    fleet_epochs += (to - from + 1) as u64;
                                    done = to + 1;
                                }
                            }
                        },
                    );
                }
            }
            Err(e) => rep.checks.check(false, || format!("netsim probe: {e}")),
        }
    }

    let mut queue = EventQueue::with_capacity(2);
    let mut shards = 0u64;
    let mut tickets = 0u64;
    for class in &cfg.classes {
        let mut first = 0u64;
        while first < class.links {
            let n = (class.links - first).min(cfg.shard_links);
            let mut rng = DetRng::substream_indexed(seed, "hyperfleet-hardfail", shards);
            let mut tally = HardFailTally::default();
            tr.span(
                "netsim.drain_hard_failures",
                || format!("probe/fleet/s{shards}"),
                |_| {
                    hyperfleet::drain_hard_failures(
                        &mut queue,
                        &mut rng,
                        ClassFailureProcess::new(class.link_fit, n),
                        cfg.horizon_hours(),
                        cfg.mttr.as_hours(),
                        class.aggregate.as_gbps(),
                        &mut tally,
                    )
                },
            );
            tickets += tally.tickets;
            shards += 1;
            first += n;
        }
    }
    rep.checks.check(tickets > 0, || {
        "netsim probe: no hard failures over the fleet".into()
    });

    let small = fleet::reduced(&cfg, FLEET_COUNT_LINKS);
    let counted = tr.span(
        "netsim.simulate",
        || "probe/fleet/counts".into(),
        |_| hyperfleet::simulate(&small, seed, &Exec::with_threads(threads)),
    );
    match counted {
        Ok(r) => {
            rep.checks.check(r.links == small.total_links(), || {
                format!("netsim probe: {} links of {}", r.links, small.total_links())
            });
            let f = r.rollup;
            rep.put("netsim.links", f.links as f64, "count");
            rep.put(
                "netsim.event_sourced_links",
                f.event_sourced_links as f64,
                "count",
            );
            rep.put("netsim.channel_faults", f.channel_faults as f64, "count");
            rep.put(
                "netsim.spares_activated",
                f.spares_activated as f64,
                "count",
            );
            rep.put("netsim.hard_failures", f.hard_failures as f64, "count");
        }
        Err(e) => rep.checks.check(false, || format!("netsim probe: {e}")),
    }

    let campaign_ns = tr.stat("netsim.campaign_generate").self_ns;
    let replay_ns = tr.stat("netsim.replay_fault_window").self_ns;
    rep.put(
        "netsim.campaign_ns_per_link",
        per(campaign_ns, links as f64),
        "ns/link",
    );
    rep.put(
        "netsim.replay_ns_per_link",
        per(replay_ns, links as f64),
        "ns/link",
    );
    rep.put(
        "netsim.drain_ns_per_shard",
        per(tr.stat("netsim.drain_hard_failures").self_ns, shards as f64),
        "ns/shard",
    );
    rep.put(
        "netsim.us_per_fault",
        per(campaign_ns + replay_ns, faults as f64) / 1e3,
        "us/fault",
    );
    rep.put(
        "link.degrade.ns_per_epoch",
        per(
            tr.stat("link.degrade.replay").self_ns + replay_ns,
            (traffic_epochs + fleet_epochs) as f64,
        ),
        "ns/epoch",
    );
}

/// `sim` kernels: RNG slab fill, the bit-sliced OOK slicer and the
/// symbol error injector, on the F4 receiver and the KP4 code geometry.
fn sim_kernels(seed: u64, tr: &mut Tracer, rep: &mut ProbeReport) {
    let mut g = SplitMix::new(seed, 0x73696d);
    let mut rng = DetRng::new(g.next_u64());
    let mut slab = vec![0u64; 4096];
    let mut words = 0u64;
    let mut d = Digest::default();
    for i in 0..256 {
        tr.span(
            "sim.rng.fill_u64",
            || format!("probe/rng/{i}"),
            |_| rng.fill_u64(&mut slab),
        );
        words += slab.len() as u64;
        d.mix(slab[0]);
    }
    rep.checks.check(
        d.value() != Digest::default().value() && slab.iter().any(|&w| w != 0),
        || "rng probe: slab not filled".into(),
    );

    let rx = montecarlo::receiver(2.0);
    let point = SlicerPoint::of(&rx, Power::from_dbm(-24.0));
    let mut rng = DetRng::new(g.next_u64());
    let (chunk, chunks) = (65_536u64, 32u64);
    let mut errors = 0u64;
    for i in 0..chunks {
        errors += tr.span(
            "sim.slicer.count_errors",
            || format!("probe/slicer/{i}"),
            |_| point.count_errors(chunk, &mut rng),
        );
    }
    let slicer_bits = chunk * chunks;
    rep.checks.check(
        agrees_with(point.model_ber(), errors, slicer_bits, 3.0),
        || {
            format!(
                "slicer probe: {errors} errors in {slicer_bits} bits vs model {:.3e}",
                point.model_ber()
            )
        },
    );

    let rs = ReedSolomon::kp4();
    let mut inj = BitErrorInjector::new(2.4e-4, DetRng::new(g.next_u64()));
    let mut word = vec![0u16; rs.n()];
    let (mut symbols, mut flipped) = (0u64, 0u64);
    for i in 0..4000 {
        flipped += tr.span(
            "sim.inject.corrupt_symbols",
            || format!("probe/inject/{i}"),
            |_| inj.corrupt_symbols(&mut word, 10),
        );
        symbols += word.len() as u64;
    }
    rep.checks
        .check(agrees_with(2.4e-4, flipped, symbols * 10, 3.0), || {
            format!("inject probe: {flipped} flips in {} bits", symbols * 10)
        });

    rep.put(
        "sim.rng.fill_ns_per_word",
        per(tr.stat("sim.rng.fill_u64").self_ns, words as f64),
        "ns/word",
    );
    rep.put(
        "sim.slicer.ns_per_bit",
        per(
            tr.stat("sim.slicer.count_errors").self_ns,
            slicer_bits as f64,
        ),
        "ns/bit",
    );
    rep.put(
        "sim.inject.ns_per_symbol",
        per(
            tr.stat("sim.inject.corrupt_symbols").self_ns,
            symbols as f64,
        ),
        "ns/symbol",
    );
    rep.put("sim.mc_bits", (slicer_bits + symbols * 10) as f64, "bits");
}

/// `fec`: KP4 Reed–Solomon `decode_scratch` with one reused scratch, on
/// clean codewords and on words with 1..=t+2 symbol errors.
fn fec(seed: u64, tr: &mut Tracer, rep: &mut ProbeReport) {
    let rs = ReedSolomon::kp4();
    let mut scratch = DecodeScratch::new();
    let mut g = SplitMix::new(seed, 0x666563);
    let data: Vec<u16> = (0..rs.k()).map(|_| (g.next_u64() & 0x3ff) as u16).collect();
    let mut code = Vec::new();
    if let Err(e) = rs.try_encode_into(&data, &mut code) {
        rep.checks.check(false, || format!("fec probe: {e}"));
        return;
    }
    let mut word = code.clone();
    let (clean, corrupt) = (2000u64, 2000u64);
    let mut ok = true;
    for i in 0..clean {
        word.copy_from_slice(&code);
        let out = tr.span(
            "fec.rs.decode.clean",
            || format!("probe/fec/{i}"),
            |_| rs.decode_scratch(&mut word, &mut scratch),
        );
        ok &= matches!(out, Ok(DecodeOutcome::Clean)) && word == code;
    }
    let t = rs.t() as u64;
    let mut failures = 0u64;
    for i in 0..corrupt {
        word.copy_from_slice(&code);
        let errors = 1 + i % (t + 2);
        for _ in 0..errors {
            let pos = (g.next_u64() % rs.n() as u64) as usize;
            word[pos] ^= 1 + (g.next_u64() % 0x3ff) as u16;
        }
        let out = tr.span(
            "fec.rs.decode.corrupt",
            || format!("probe/fec/{i}"),
            |_| rs.decode_scratch(&mut word, &mut scratch),
        );
        match out {
            Ok(DecodeOutcome::Failure) => failures += 1,
            Ok(_) => ok &= errors > t || word == code,
            Err(_) => ok = false,
        }
    }
    rep.checks.check(ok, || {
        "fec probe: a correctable word did not decode to its codeword".into()
    });
    rep.put(
        "fec.rs.decode_ns.clean",
        per(tr.stat("fec.rs.decode.clean").self_ns, clean as f64),
        "ns",
    );
    rep.put(
        "fec.rs.decode_ns.corrupt",
        per(tr.stat("fec.rs.decode.corrupt").self_ns, corrupt as f64),
        "ns",
    );
    rep.put("fec.codewords", (clean + corrupt) as f64, "count");
    rep.put("fec.failures", failures as f64, "count");
}

/// `reliability`: the two pool samplers at one thread.
fn reliability(seed: u64, tr: &mut Tracer, rep: &mut ProbeReport) {
    let one = Exec::with_threads(1);
    let mut g = SplitMix::new(seed, 0x72656c);
    let trials = 40_000u64;
    let seven = Duration::from_years(7.0);
    let fit = mosaic::reliability_model::channel_fit();
    let (k, n) = (montecarlo::POOL_K, montecarlo::POOL_N);
    let s = g.next_u64();
    let pool = tr.span(
        "reliability.pool",
        || "probe/pool".into(),
        |_| simulate_pool_no_repair_with(&one, k, n, fit, seven, trials, s),
    );
    let s = g.next_u64();
    let wear = Weibull::matching_fit_at(fit, 2.5, seven);
    let surv = tr.span(
        "reliability.weibull",
        || "probe/weibull".into(),
        |_| pool_survival_weibull_with(&one, k, n, wear, Duration::from_years(12.0), trials, s),
    );
    rep.checks
        .check(pool.trials == trials && (0.0..=1.0).contains(&surv), || {
            "reliability probe: sampler returned an impossible result".into()
        });
    rep.put(
        "reliability.pool_ns_per_trial",
        per(tr.stat("reliability.pool").self_ns, trials as f64),
        "ns/trial",
    );
    rep.put(
        "reliability.weibull_ns_per_trial",
        per(tr.stat("reliability.weibull").self_ns, trials as f64),
        "ns/trial",
    );
}

/// `core`: `BudgetEngine::new`, `max_reach_with` and `try_evaluate` on
/// every eighth query of the design grid.
fn core(seed: u64, tr: &mut Tracer, rep: &mut ProbeReport) {
    let queries: Vec<design::Query> = design::grid(seed).into_iter().step_by(8).collect();
    let (mut channels, mut feasible, mut evaluated) = (0u64, 0u64, 0u64);
    for (i, q) in queries.iter().enumerate() {
        let cfg = match design::build(q) {
            Ok(c) => c,
            Err(e) => {
                rep.checks
                    .check(false, || format!("core probe query {i}: {e}"));
                continue;
            }
        };
        let mut engine = tr.span(
            "core.engine_new",
            || format!("probe/core/{i}"),
            |_| BudgetEngine::new(&cfg),
        );
        let reach = tr.span(
            "core.max_reach_with",
            || format!("probe/core/{i}"),
            |_| max_reach_with(&mut engine, &cfg),
        );
        match tr.span(
            "core.evaluate",
            || format!("probe/core/{i}"),
            |_| cfg.try_evaluate(),
        ) {
            Ok(report) => {
                rep.checks.check(report.reach_limit == reach, || {
                    format!("core probe query {i}: reach disagrees with the report")
                });
                channels += cfg.total_channels() as u64;
                feasible += u64::from(report.is_feasible());
                evaluated += 1;
            }
            Err(e) => rep
                .checks
                .check(false, || format!("core probe query {i}: {e}")),
        }
    }
    let n = queries.len() as f64;
    rep.put(
        "core.engine_new_us",
        per(tr.stat("core.engine_new").self_ns, n) / 1e3,
        "us",
    );
    rep.put(
        "core.max_reach_us",
        per(tr.stat("core.max_reach_with").self_ns, n) / 1e3,
        "us",
    );
    rep.put(
        "core.evaluate_us",
        per(tr.stat("core.evaluate").self_ns, n) / 1e3,
        "us",
    );
    rep.put("core.channels", channels as f64, "count");
    rep.put(
        "core.feasible_frac",
        feasible as f64 / evaluated.max(1) as f64,
        "ratio",
    );
}

/// `bench` checkpoint I/O: `write_fragment` / `load_fragment` round trips
/// of a figure-sized record, checked field by field.
fn checkpoints(dir: &Path, workload_bytes: u64, tr: &mut Tracer, rep: &mut ProbeReport) {
    let mut telemetry = Snapshot::default();
    for i in 0..32u64 {
        telemetry
            .counters
            .insert(format!("probe.counter.{i}"), i * 7919);
    }
    telemetry.series.insert(
        "probe.series".into(),
        (0..256).map(|i| f64::from(i) * 0.37).collect(),
    );
    let record = FigureRecord {
        id: "PB".into(),
        title: "checkpoint probe".into(),
        output: "0123456789abcdef ".repeat(512),
        telemetry,
        wall_ns: 1,
    };
    let rounds = 50u64;
    let mut ok = true;
    for i in 0..rounds {
        let saved = tr.span(
            "bench.ckpt.save",
            || format!("probe/ckpt/{i}"),
            |_| write_fragment(dir, &record, "full"),
        );
        let loaded = tr.span(
            "bench.ckpt.load",
            || format!("probe/ckpt/{i}"),
            |_| load_fragment(dir, "PB", "full"),
        );
        ok &= saved.is_ok()
            && loaded.is_some_and(|r| {
                r.id == record.id
                    && r.output == record.output
                    && r.telemetry.values_json() == record.telemetry.values_json()
            });
    }
    rep.checks.check(ok, || {
        "checkpoint probe: a fragment did not round-trip".into()
    });
    let fragment = crate::util::dir_bytes(dir);
    rep.put(
        "bench.ckpt.save_us",
        per(tr.stat("bench.ckpt.save").self_ns, rounds as f64) / 1e3,
        "us",
    );
    rep.put(
        "bench.ckpt.load_us",
        per(tr.stat("bench.ckpt.load").self_ns, rounds as f64) / 1e3,
        "us",
    );
    rep.put(
        "bench.ckpt.bytes",
        (fragment + workload_bytes) as f64,
        "bytes",
    );
}
