//! The four workloads. Each builds its inputs from the seed in `setup`,
//! runs one fixed-size unit of work per `run` call, and checks what the
//! crates returned.

pub mod design;
pub mod fleet;
pub mod montecarlo;
pub mod traffic;

use crate::trace::Tracer;
use mosaic_sim::sweep::Exec;
use std::path::Path;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["traffic", "fleet", "montecarlo", "design"];

/// Operations attempted and the ones that failed, with the reasons.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations attempted: entry-point calls and output checks.
    pub attempted: u64,
    /// Operations that returned `Err` or failed their check.
    pub failed: u64,
    /// Human-readable reason for each failure.
    pub problems: Vec<String>,
}

impl Checks {
    /// Record one operation and whether it passed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Fold in another tally.
    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems.iter().cloned());
    }
}

/// What one pass over a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// One operation per entry-point call, failed on `Err` or a bad output.
    pub checks: Checks,
    /// Digest over every simulated value the pass returned.
    pub digest: u64,
    /// Work completed in the workload's throughput unit (frames,
    /// link-years, queries); 0 for workloads without one.
    pub units: f64,
    /// Per-call latency in ms, for closed-loop workloads.
    pub latencies_ms: Vec<f64>,
    /// Bytes the pass left in its checkpoint directory before clearing it.
    pub ckpt_bytes: u64,
}

/// One benchmark workload.
pub trait Workload {
    /// One timed unit of work at the workload's fixed size.
    fn run(&mut self, exec: &Exec, tr: &mut Tracer, rep: u64) -> Outcome;
    /// The same work at a reduced size: the warm-up pass, and the input
    /// of the 1-thread versus N-thread digest check.
    fn small(&mut self, exec: &Exec) -> Outcome;
    /// Name and unit of the workload's throughput metric, if it has one.
    fn throughput(&self) -> Option<(&'static str, &'static str)>;
    /// Whether the crates parallelise this workload over `Exec`.
    fn multithreaded(&self) -> bool {
        true
    }
    /// One line describing the fixed size.
    fn describe(&self) -> String;
}

/// Build the named workload's inputs from `seed`. Checkpoints go under
/// `ckpt_dir`. `None` for an unknown name.
pub fn setup(name: &str, seed: u64, ckpt_dir: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "traffic" => Box::new(traffic::Traffic::setup(seed, ckpt_dir)),
        "fleet" => Box::new(fleet::Fleet::setup(seed, ckpt_dir)),
        "montecarlo" => Box::new(montecarlo::MonteCarlo::setup(seed)),
        "design" => Box::new(design::Design::setup(seed)),
        _ => return None,
    })
}
