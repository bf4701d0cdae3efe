//! `fleet`: the hyperscale Clos region (1,277,952 links per policy) over
//! 3 years through `hyperfleet::simulate_with`, all-optics and with
//! Mosaic, with per-batch rollup checkpoints on disk.

use super::{Outcome, Workload};
use crate::trace::Tracer;
use crate::util::{checkpoint_stores, dir_bytes, Digest};
use mosaic::compare::candidates;
use mosaic_netsim::assignment::{assign, Policy};
use mosaic_netsim::hyperfleet::{self, HyperFleetConfig, HyperFleetReport};
use mosaic_netsim::topology::ClosTopology;
use mosaic_sim::fidelity::FidelityMode;
use mosaic_sim::sweep::Exec;
use mosaic_units::{BitRate, Duration};
use std::path::{Path, PathBuf};

/// Simulated horizon.
pub const YEARS: f64 = 3.0;

/// Links kept per class in the reduced-size pass.
const SMALL_CLASS_LINKS: u64 = 6000;

/// The F18 full-mode configuration for one deployment policy.
pub fn config(policy: Policy) -> HyperFleetConfig {
    let classes = ClosTopology::hyperscale().link_classes();
    let cands = candidates(BitRate::from_gbps(800.0));
    let assignments = assign(&classes, &cands, policy);
    let mut cfg = HyperFleetConfig::from_assignments(
        &assignments,
        YEARS,
        Duration::from_hours(8.0),
        FidelityMode::Full,
    );
    cfg.shards_per_batch = 8;
    cfg
}

/// `cfg` with every class cut to at most `links` links.
pub fn reduced(cfg: &HyperFleetConfig, links: u64) -> HyperFleetConfig {
    let mut small = cfg.clone();
    for c in &mut small.classes {
        c.links = c.links.min(links);
    }
    small
}

/// Fold every simulated value of a report into `d`.
fn mix_report(d: &mut Digest, r: &HyperFleetReport) {
    let f = &r.rollup;
    for v in [
        r.links,
        f.shards,
        f.links,
        f.event_sourced_links,
        f.tickets,
        f.hard_failures,
        f.rebuilds,
        f.channel_faults,
        f.spares_activated,
        f.lanes_shed,
        f.exhausted_links,
    ] {
        d.mix(v);
    }
    for q in [f.downtime_q, f.degraded_q, f.capacity_lost_q] {
        d.mix(q as u64);
        d.mix((q >> 64) as u64);
    }
    for &n in &f.spare_occupancy {
        d.mix(n);
    }
    for x in [
        r.availability,
        r.delivered_capacity_fraction,
        r.tickets_per_1k_link_years,
        r.spare_exhausted_fraction,
    ] {
        d.mix_f64(x);
    }
}

/// The workload's inputs.
pub struct Fleet {
    seed: u64,
    cfgs: Vec<(&'static str, HyperFleetConfig)>,
    dir: PathBuf,
}

impl Fleet {
    /// Topology assignment and config generation for both policies.
    pub fn setup(seed: u64, ckpt_dir: &Path) -> Self {
        Fleet {
            seed,
            cfgs: vec![
                ("optics", config(Policy::AllOptics)),
                ("mosaic", config(Policy::WithMosaic)),
            ],
            dir: ckpt_dir.join("fleet"),
        }
    }

    fn simulate(
        &self,
        cfgs: &[(&'static str, HyperFleetConfig)],
        exec: &Exec,
        tr: &mut Tracer,
        rep: u64,
    ) -> Outcome {
        let mut out = Outcome::default();
        let mut digest = Digest::default();
        for (tag, cfg) in cfgs {
            let (_, mut store) = checkpoint_stores(&self.dir, tag);
            let res = tr.span(
                "netsim.simulate_with",
                || format!("fleet/{tag}/{rep}"),
                |_| hyperfleet::simulate_with(cfg, self.seed, exec, &mut store, None),
            );
            match res {
                Ok(Some(r)) => {
                    out.checks.check(
                        r.links == cfg.total_links() && r.rollup.links == r.links,
                        || {
                            format!(
                                "fleet {tag}: {} links reported, {} configured",
                                r.links,
                                cfg.total_links()
                            )
                        },
                    );
                    mix_report(&mut digest, &r);
                    out.units += r.links as f64 * r.years;
                }
                Ok(None) => out
                    .checks
                    .check(false, || format!("fleet {tag}: stopped early")),
                Err(e) => out.checks.check(false, || format!("fleet {tag}: {e}")),
            }
            out.ckpt_bytes += dir_bytes(&self.dir);
            tr.span(
                "bench.ckpt.clear",
                || format!("fleet/{tag}/{rep}"),
                |_| store.clear(),
            );
        }
        out.digest = digest.value();
        out
    }
}

impl Workload for Fleet {
    fn run(&mut self, exec: &Exec, tr: &mut Tracer, rep: u64) -> Outcome {
        self.simulate(&self.cfgs, exec, tr, rep)
    }

    fn small(&mut self, exec: &Exec) -> Outcome {
        let small: Vec<_> = self
            .cfgs
            .iter()
            .map(|(tag, cfg)| (*tag, reduced(cfg, SMALL_CLASS_LINKS)))
            .collect();
        self.simulate(&small, exec, &mut Tracer::new(false), 0)
    }

    fn throughput(&self) -> Option<(&'static str, &'static str)> {
        Some(("link_years_per_s", "link-yr/s"))
    }

    fn describe(&self) -> String {
        format!(
            "hyperscale Clos, {} links per policy x 2 policies, {YEARS} years",
            self.cfgs[0].1.total_links()
        )
    }
}
