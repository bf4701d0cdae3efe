//! `traffic`: the F19 link (8 logical lanes over 12 physical, `am_period`
//! 16, mixed workload, 400 epochs) at fault rates 0 and 4 per kilo-epoch
//! under all three lane-map policies, through `run_point_with` with
//! on-disk checkpoints.

use super::{Outcome, Workload};
use crate::trace::Tracer;
use crate::util::{checkpoint_stores, dir_bytes, Digest};
use mosaic_sim::sweep::Exec;
use mosaic_traffic::{policy_tag, run_point, run_point_with, Policy, TrafficConfig};
use std::path::{Path, PathBuf};

/// Fault arrivals per channel per 1000 epochs: the steady stripe path,
/// and a rate that forces remaps, replays and width reductions.
pub const RATES: [f64; 2] = [0.0, 4.0];

/// Every lane-map policy, so all three remap protocols run.
pub const POLICIES: [Policy; 3] = [
    Policy::Static,
    Policy::Controller,
    Policy::ControllerHitless,
];

/// Harness runs merged per point (as in F19).
pub const RUNS: u64 = 16;

/// Emission horizon per run (as in F19).
pub const EPOCHS: u64 = 400;

/// The F19 configuration at one fault rate and policy.
pub fn config(rate: f64, policy: Policy) -> TrafficConfig {
    TrafficConfig {
        epochs: EPOCHS,
        faults_per_kilo_epoch: rate,
        permanent_fraction: 0.4,
        policy,
        ..TrafficConfig::default()
    }
}

/// The workload's inputs.
pub struct Traffic {
    seed: u64,
    points: Vec<(String, TrafficConfig)>,
    dir: PathBuf,
}

impl Traffic {
    /// Build the six points. Every point shares the workload seed, so the
    /// three policies face identical campaigns and offered load per rate.
    pub fn setup(seed: u64, ckpt_dir: &Path) -> Self {
        let mut points = Vec::new();
        for (ri, &rate) in RATES.iter().enumerate() {
            for &policy in &POLICIES {
                points.push((
                    format!("{}-r{ri}", policy_tag(policy)),
                    config(rate, policy),
                ));
            }
        }
        Traffic {
            seed,
            points,
            dir: ckpt_dir.join("traffic"),
        }
    }
}

impl Workload for Traffic {
    fn run(&mut self, exec: &Exec, tr: &mut Tracer, rep: u64) -> Outcome {
        let mut out = Outcome::default();
        let mut digest = Digest::default();
        for (tag, cfg) in &self.points {
            let (mut store, _) = checkpoint_stores(&self.dir, tag);
            let res = tr.span(
                "traffic.run_point_with",
                || format!("traffic/{tag}/{rep}"),
                |_| run_point_with(cfg, self.seed, RUNS, exec, &mut store, None),
            );
            match res {
                Ok(Some(r)) => {
                    out.checks.check(r.balanced() && r.runs == RUNS, || {
                        format!(
                            "traffic {tag}: runs {} of {RUNS}, offered {} vs resolved {}",
                            r.runs,
                            r.offered,
                            r.resolved()
                        )
                    });
                    digest.mix(r.fingerprint());
                    out.units += r.resolved() as f64;
                }
                Ok(None) => out
                    .checks
                    .check(false, || format!("traffic {tag}: stopped early")),
                Err(e) => out.checks.check(false, || format!("traffic {tag}: {e}")),
            }
            out.ckpt_bytes += dir_bytes(&self.dir);
            tr.span(
                "bench.ckpt.clear",
                || format!("traffic/{tag}/{rep}"),
                |_| store.clear(),
            );
        }
        out.digest = digest.value();
        out
    }

    fn small(&mut self, exec: &Exec) -> Outcome {
        let mut out = Outcome::default();
        let mut digest = Digest::default();
        for &rate in &RATES {
            let cfg = TrafficConfig {
                epochs: 64,
                ..config(rate, Policy::ControllerHitless)
            };
            // Two checkpoint batches, so the batch fold runs at N threads.
            match run_point(&cfg, self.seed, 8, exec) {
                Ok(r) => {
                    out.checks.check(r.balanced() && r.runs == 8, || {
                        format!("traffic small point at rate {rate}: unbalanced")
                    });
                    digest.mix(r.fingerprint());
                }
                Err(e) => out
                    .checks
                    .check(false, || format!("traffic small point: {e}")),
            }
        }
        out.digest = digest.value();
        out
    }

    fn throughput(&self) -> Option<(&'static str, &'static str)> {
        Some(("frames_per_s", "frames/s"))
    }

    fn describe(&self) -> String {
        format!(
            "{} points (rates {:?} x static/controller/hitless), {RUNS} runs x {EPOCHS} epochs each",
            self.points.len(),
            RATES
        )
    }
}
