//! `design`: one closed-loop client evaluating a grid of `MosaicConfig`s
//! (aggregate 200–1600 Gb/s × 0.25–8 Gb/s per channel × 1–50 m span).
//! Each query builds a fresh config, then runs `try_evaluate` and
//! `max_reach`; the next query is sent only when the previous returns.

use super::{Outcome, Workload};
use crate::trace::Tracer;
use crate::util::{Digest, SplitMix};
use mosaic::budget::max_reach;
use mosaic::MosaicConfig;
use mosaic_sim::sweep::Exec;
use mosaic_units::{BitRate, Length};
use std::time::Instant;

/// Aggregate rates, Gb/s.
pub const AGGREGATES: [f64; 4] = [200.0, 400.0, 800.0, 1600.0];
/// Per-channel rates, Gb/s.
pub const CHANNEL_RATES: [f64; 6] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
/// Span lengths, m.
pub const SPANS: [f64; 5] = [1.0, 3.0, 10.0, 25.0, 50.0];

/// One design query: aggregate Gb/s, per-channel Gb/s, span m.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// Aggregate rate, Gb/s.
    pub aggregate: f64,
    /// Per-channel rate, Gb/s.
    pub channel: f64,
    /// Span, m.
    pub span: f64,
}

/// The full grid in an order shuffled by `seed`. The grid itself does not
/// depend on the seed: jittering it moved points near their feasibility
/// boundary across it, and one large config flipping changes a pass's
/// cost by several percent.
pub fn grid(seed: u64) -> Vec<Query> {
    let mut g = SplitMix::new(seed, 0x6465);
    let mut qs = Vec::new();
    for &aggregate in &AGGREGATES {
        for &channel in &CHANNEL_RATES {
            for &span in &SPANS {
                qs.push(Query {
                    aggregate,
                    channel,
                    span,
                });
            }
        }
    }
    g.shuffle(&mut qs);
    qs
}

/// Build the config a query asks about.
pub fn build(q: &Query) -> mosaic_units::Result<MosaicConfig> {
    MosaicConfig::builder()
        .bit_rate(BitRate::from_gbps(q.aggregate))
        .channel_rate(BitRate::from_gbps(q.channel))
        .reach(Length::from_m(q.span))
        .build()
}

/// The workload's inputs.
pub struct Design {
    queries: Vec<Query>,
}

impl Design {
    /// Grid generation.
    pub fn setup(seed: u64) -> Self {
        Design {
            queries: grid(seed),
        }
    }

    fn serve(&self, queries: &[Query], tr: &mut Tracer, rep: u64) -> Outcome {
        let mut out = Outcome::default();
        let mut digest = Digest::default();
        for (i, q) in queries.iter().enumerate() {
            let t0 = Instant::now();
            let answer = tr.span(
                "core.query",
                || format!("design/q{i}/{rep}"),
                |tr| {
                    let cfg =
                        tr.span("core.build", || format!("design/q{i}/{rep}"), |_| build(q))?;
                    let report = tr.span(
                        "core.try_evaluate",
                        || format!("design/q{i}/{rep}"),
                        |_| cfg.try_evaluate(),
                    )?;
                    let reach = tr.span(
                        "core.max_reach",
                        || format!("design/q{i}/{rep}"),
                        |_| max_reach(&cfg),
                    );
                    Ok::<_, mosaic_units::MosaicError>((cfg, report, reach))
                },
            );
            out.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match answer {
                Ok((cfg, report, reach)) => {
                    out.checks.check(
                        report.reach_limit == reach
                            && report.channels.len() == cfg.total_channels(),
                        || format!("design query {i}: reach or channel count disagrees"),
                    );
                    digest.mix(report.channels.len() as u64);
                    digest.mix(u64::from(report.is_feasible()));
                    digest.mix_f64(report.worst_margin.map_or(f64::NAN, |m| m.as_db()));
                    digest.mix_f64(report.worst_ber);
                    digest.mix_f64(report.link_power.as_watts());
                    digest.mix_f64(report.energy_per_bit.as_pj_per_bit());
                    digest.mix_f64(report.array_radius.as_m());
                    digest.mix_f64(reach.map_or(f64::NAN, |r| r.as_m()));
                    out.units += 1.0;
                }
                Err(e) => out.checks.check(false, || format!("design query {i}: {e}")),
            }
        }
        out.digest = digest.value();
        out
    }
}

impl Workload for Design {
    fn run(&mut self, _exec: &Exec, tr: &mut Tracer, rep: u64) -> Outcome {
        self.serve(&self.queries, tr, rep)
    }

    fn small(&mut self, _exec: &Exec) -> Outcome {
        // The smallest-channel-count tenth of the grid.
        let mut qs = self.queries.clone();
        qs.sort_by(|a, b| (a.aggregate / a.channel).total_cmp(&(b.aggregate / b.channel)));
        qs.truncate(qs.len() / 10);
        self.serve(&qs, &mut Tracer::new(false), 0)
    }

    fn throughput(&self) -> Option<(&'static str, &'static str)> {
        Some(("designs_per_s", "queries/s"))
    }

    fn multithreaded(&self) -> bool {
        false
    }

    fn describe(&self) -> String {
        format!(
            "{} queries (aggregate {:?} Gb/s x channel {:?} Gb/s x span {:?} m), seed-shuffled order, one client",
            self.queries.len(),
            AGGREGATES,
            CHANNEL_RATES,
            SPANS
        )
    }
}
