//! Regenerates experiment `fig19_traffic_resilience`. See EXPERIMENTS.md.
//!
//! `MOSAIC_TRAFFIC_STOP_AFTER_BATCHES=<n>` limits each sweep point to
//! `n` run batches and exits with code 3, leaving the batch checkpoints
//! on disk — rerunning without the limit resumes and prints output
//! byte-identical to an uninterrupted run (the CI kill/resume drill).
fn main() {
    mosaic_bench::fragments::main_with_stop_env(
        "F19",
        "MOSAIC_TRAFFIC_STOP_AFTER_BATCHES",
        mosaic_bench::fig19_traffic_resilience::run_with_stop,
    );
}
