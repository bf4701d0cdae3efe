//! Regenerates experiment `fig18_hyperfleet`. See EXPERIMENTS.md.
//!
//! `MOSAIC_HYPERFLEET_STOP_AFTER_BATCHES=<n>` limits each policy's
//! simulation to `n` shard batches and exits with code 3, leaving the
//! batch checkpoints on disk — rerunning without the limit resumes and
//! prints output byte-identical to an uninterrupted run (the CI
//! kill/resume drill).
fn main() {
    mosaic_bench::fragments::main_with_stop_env(
        "F18",
        "MOSAIC_HYPERFLEET_STOP_AFTER_BATCHES",
        mosaic_bench::fig18_hyperfleet::run_with_stop,
    );
}
