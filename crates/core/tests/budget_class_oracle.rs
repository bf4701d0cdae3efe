//! Oracle for the budget engine's channel-class table.
//!
//! `BudgetEngine` budgets each distinct set of length-independent path
//! terms once and copies the result to every channel that shares it. The
//! reference here is the per-channel engine it replaced: it rebuilds the
//! fiber assembly, budgets every channel through
//! [`ImagingFiber::channel_path_with`], and solves the reach by the same
//! bisection over a per-channel feasibility test (one cached statics entry
//! per channel, as the engine kept before channel classes). Every value must agree
//! bit for bit over random configurations spanning aggregate and channel
//! rate, core pitch, lateral and rotational misalignment, NRZ/PAM4, every
//! FEC choice and span length.

use mosaic::budget::{max_reach, BudgetEngine, ChannelBudget, MIN_EYE_OPENING};
use mosaic::{FecChoice, MosaicConfig};
use mosaic_fiber::crosstalk::Misalignment;
use mosaic_fiber::path::ChannelStatics;
use mosaic_fiber::{CoreLattice, ImagingFiber};
use mosaic_phy::eye::{isi_penalty, worst_case_eye_opening};
use mosaic_phy::modulation::Modulation;
use mosaic_units::{BitRate, Db, Length, Power};
use proptest::prelude::*;

/// The per-channel reference engine.
struct Reference<'a> {
    cfg: &'a MosaicConfig,
    engine: &'a BudgetEngine,
    fiber: ImagingFiber,
    /// Every channel's length-independent terms, one entry per channel:
    /// the table the class engine replaced, reused across reach probes.
    statics: Vec<ChannelStatics>,
    /// Receiver sensitivity at the FEC threshold (length-independent, and
    /// slow to solve for BCH).
    sensitivity: Option<Power>,
}

impl<'a> Reference<'a> {
    /// The fiber assembly built the way `BudgetEngine::new` builds it; the
    /// engine lends only its drive and receiver models.
    fn new(cfg: &'a MosaicConfig, engine: &'a BudgetEngine) -> Self {
        let mut fiber = ImagingFiber::mosaic_default(cfg.total_channels(), cfg.length);
        fiber.lattice = CoreLattice::spiral(cfg.total_channels(), cfg.core_pitch);
        fiber.crosstalk.misalignment = cfg.misalignment;
        fiber.coupling = cfg.coupling.clone();
        let statics = (0..fiber.channels())
            .map(|i| fiber.channel_statics(i))
            .collect();
        let sensitivity = engine.receiver().sensitivity(cfg.fec.ber_threshold());
        Reference {
            cfg,
            engine,
            fiber,
            statics,
            sensitivity,
        }
    }

    /// The channel-independent ISI penalty at the current span length.
    fn isi(&self) -> Option<Db> {
        let symbol_rate = BitRate::from_bps(
            self.cfg
                .modulation
                .symbol_rate(self.cfg.channel_rate)
                .as_hz(),
        );
        let span = self.fiber.span_budget(self.cfg.led.wavelength_m);
        let net_bw = self
            .cfg
            .led
            .modulation_bandwidth(self.cfg.drive_current())
            .cascade(span.modal_bandwidth);
        if worst_case_eye_opening(symbol_rate, net_bw) < MIN_EYE_OPENING {
            None
        } else {
            isi_penalty(symbol_rate, net_bw)
        }
    }

    /// Budget every channel, one path solve per channel.
    fn all_channels(&self) -> Vec<ChannelBudget> {
        let rx = self.engine.receiver();
        let (launch, isi, sensitivity) = self.span_terms();
        let span = self.fiber.span_budget(self.cfg.led.wavelength_m);
        (0..self.fiber.channels())
            .map(|idx| {
                let path = self.fiber.channel_path_with(&span, idx);
                let received = launch.apply(path.loss);
                let effective = penalized(received, isi, path.crosstalk_penalty);
                ChannelBudget {
                    channel: idx,
                    launch,
                    received,
                    isi_penalty: isi,
                    crosstalk_penalty: path.crosstalk_penalty,
                    margin: effective.and_then(|e| sensitivity.map(|s| e.ratio_to(s))),
                    expected_ber: effective.map_or(0.5, |e| rx.ber_at(e)),
                }
            })
            .collect()
    }

    /// Launch power, ISI penalty and receiver sensitivity: the terms every
    /// channel shares at the current span length.
    fn span_terms(&self) -> (Power, Option<Db>, Option<Power>) {
        (
            self.engine.drive().launch_power(&self.cfg.led),
            self.isi(),
            self.sensitivity,
        )
    }

    /// Every channel's margin, without the BER evaluation.
    fn margins(&self) -> impl Iterator<Item = Option<Db>> + '_ {
        let (launch, isi, sensitivity) = self.span_terms();
        let span = self.fiber.span_budget(self.cfg.led.wavelength_m);
        self.statics.iter().enumerate().map(move |(idx, statics)| {
            let path = self.fiber.channel_path_cached(&span, statics, idx);
            penalized(launch.apply(path.loss), isi, path.crosstalk_penalty)
                .and_then(|e| sensitivity.map(|s| e.ratio_to(s)))
        })
    }

    /// The per-channel worst-margin fold.
    fn worst_margin(&self) -> Option<Db> {
        self.margins()
            .try_fold(Db::new(f64::INFINITY), |acc, m| m.map(|m| acc.min(m)))
    }

    fn all_feasible(&self) -> bool {
        self.margins()
            .all(|m| matches!(m, Some(m) if m.as_db() >= 0.0))
    }

    /// `max_reach`'s bisection over the per-channel feasibility test.
    fn max_reach(&mut self) -> Option<Length> {
        let mut feasible_at = |m: f64| {
            self.fiber.length = Length::from_m(m);
            self.all_feasible()
        };
        if !feasible_at(1.0) {
            return None;
        }
        let (mut lo, mut hi) = (1.0f64, 1.0f64);
        while feasible_at(hi) {
            hi *= 2.0;
            if hi > 4096.0 {
                return Some(Length::from_m(hi));
            }
        }
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if feasible_at(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(Length::from_m(lo))
    }
}

/// Received power after both penalties, `None` once either eye closes.
fn penalized(received: Power, isi: Option<Db>, xt: Option<Db>) -> Option<Power> {
    match (isi, xt) {
        (Some(isi_db), Some(xt_db)) => Some(received.apply((isi_db + xt_db).invert())),
        _ => None,
    }
}

fn db_bits(d: Option<Db>) -> Option<u64> {
    d.map(|d| d.as_db().to_bits())
}

/// Every field of a budget as raw bits.
fn budget_bits(b: &ChannelBudget) -> (usize, u64, u64, [Option<u64>; 3], u64) {
    (
        b.channel,
        b.launch.as_watts().to_bits(),
        b.received.as_watts().to_bits(),
        [
            db_bits(b.isi_penalty),
            db_bits(b.crosstalk_penalty),
            db_bits(b.margin),
        ],
        b.expected_ber.to_bits(),
    )
}

/// Check the engine against the reference at the config's span length.
fn check(cfg: &MosaicConfig) {
    let engine = BudgetEngine::new(cfg);
    let mut reference = Reference::new(cfg, &engine);
    assert_eq!(engine.fiber(), &reference.fiber);
    assert!((1..=cfg.total_channels()).contains(&engine.class_count()));

    let got = engine.all_channels(&cfg.led);
    let want = reference.all_channels();
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(budget_bits(g), budget_bits(w));
        assert_eq!(
            budget_bits(&engine.channel(&cfg.led, g.channel)),
            budget_bits(w)
        );
    }
    assert_eq!(
        db_bits(engine.worst_margin(&cfg.led)),
        db_bits(reference.worst_margin())
    );
    assert_eq!(engine.all_feasible(&cfg.led), reference.all_feasible());
    assert_eq!(
        max_reach(cfg).map(|l| l.as_m().to_bits()),
        reference.max_reach().map(|l| l.as_m().to_bits())
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn class_engine_matches_per_channel_reference(
        aggregate in 25.0f64..1600.0,
        channel_kind in 0u8..3,
        channel in 0.25f64..8.0,
        pitch_um in 12.0f64..35.0,
        misalignment_kind in 0u8..4,
        lateral_um in 0.0f64..4.0,
        // Log-uniform 1e-5..0.03 rad: the outer cores of a large lattice
        // stay usable at small rotations, so many-class engines reach the
        // bisection, not just the infeasible-at-1-m exit.
        rotation_log10 in -5.0f64..-1.5,
        pam4: bool,
        fec_kind in 0u8..5,
        // Up to t = 20 (1.24× overhead): at t = 102 the 3× overhead alone
        // makes lattices of 10⁵+ cores.
        bch_t in 1usize..=20,
        span_m in 1.0f64..120.0,
    ) {
        // The slowest channels give the largest lattices.
        let channel = [0.25, 0.5, channel][channel_kind as usize];
        let rotation_rad = 10f64.powf(rotation_log10);
        // Aligned (a few classes) or misaligned laterally, rotationally or
        // both (up to one class per channel).
        let misalignment = match misalignment_kind {
            0 => Misalignment::NONE,
            1 => Misalignment { lateral: Length::from_um(lateral_um), rotation_rad: 0.0 },
            2 => Misalignment { lateral: Length::ZERO, rotation_rad },
            _ => Misalignment { lateral: Length::from_um(lateral_um), rotation_rad },
        };
        let fec = match fec_kind {
            0 => FecChoice::None,
            1 => FecChoice::Hamming,
            2 => FecChoice::Bch { t: bch_t },
            3 => FecChoice::Kr4,
            _ => FecChoice::Kp4,
        };
        let cfg = MosaicConfig::builder()
            .bit_rate(BitRate::from_gbps(aggregate))
            .channel_rate(BitRate::from_gbps(channel))
            .core_pitch(Length::from_um(pitch_um))
            .misalignment(misalignment)
            .modulation(if pam4 { Modulation::Pam4 } else { Modulation::Nrz })
            .fec(fec)
            .reach(Length::from_m(span_m))
            .build()
            .expect("every generated parameter is in range");
        check(&cfg);
    }
}

#[test]
fn largest_design_query_matches_reference() {
    // 1,600 Gb/s at 0.25 Gb/s per channel: 6,978 channels in a handful of
    // classes when aligned, hundreds when rotated. At 1e-4 rad the rotated
    // engine still closes and runs the full bisection; at 0.02 rad the
    // outer channels never close.
    for rotation_rad in [0.0, 1e-4, 0.02] {
        let cfg = MosaicConfig::builder()
            .bit_rate(BitRate::from_gbps(1600.0))
            .channel_rate(BitRate::from_gbps(0.25))
            .misalignment(Misalignment {
                lateral: Length::ZERO,
                rotation_rad,
            })
            .reach(Length::from_m(10.0))
            .build()
            .unwrap();
        assert_eq!(cfg.total_channels(), 6978);
        check(&cfg);
        assert_eq!(max_reach(&cfg).is_some(), rotation_rad < 0.01);
    }
}

#[test]
fn binding_last_class_matches_reference() {
    // A lattice that ends on the first core of a new ring ends on its
    // largest radius. Under rotation that corner core is the worst
    // channel and the last class to appear, so the reach solve depends
    // on the engine walking the class table to its end.
    for rings in 1..=6 {
        let total = mosaic_fiber::geometry::cores_in_rings(rings) + 1;
        let corner_radius_um = 20.0 * f64::from(rings + 1);
        let cfg = MosaicConfig::builder()
            .bit_rate(BitRate::from_gbps(2.0))
            .spares(total - 2)
            .misalignment(Misalignment {
                lateral: Length::ZERO,
                rotation_rad: 3.0 / corner_radius_um,
            })
            .reach(Length::from_m(10.0))
            .build()
            .unwrap();
        assert_eq!(cfg.total_channels(), total);
        let engine = BudgetEngine::new(&cfg);
        let last = engine.channel(&cfg.led, total - 1).margin;
        assert_eq!(db_bits(last), db_bits(engine.worst_margin(&cfg.led)));
        check(&cfg);
    }
}

#[test]
fn aligned_lattices_collapse_to_a_few_classes() {
    let cfg = MosaicConfig::builder()
        .bit_rate(BitRate::from_gbps(800.0))
        .reach(Length::from_m(10.0))
        .build()
        .unwrap();
    let engine = BudgetEngine::new(&cfg);
    assert!(
        engine.class_count() <= 5,
        "{} classes for {} channels",
        engine.class_count(),
        cfg.total_channels()
    );
}
