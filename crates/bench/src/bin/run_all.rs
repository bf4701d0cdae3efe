//! Regenerates every figure and table into `results/` and prints a summary.
//!
//! `--quick` (or `MOSAIC_QUICK=1`) runs every Monte-Carlo-heavy experiment
//! at reduced trial counts — a smoke pass over all 20 artifacts in
//! seconds, used by CI. Thread count comes from `MOSAIC_THREADS`
//! (default: all cores); per-experiment `[stats]` lines go to stderr so
//! the result files stay byte-identical across thread counts.
//!
//! `--fidelity adaptive` (or `MOSAIC_FIDELITY=adaptive`) routes every
//! Monte-Carlo measurement through the adaptive-fidelity controller
//! (DESIGN §12): analytic closed forms far from decision thresholds,
//! reduced-budget MC near them, importance-sampled tail estimates below
//! MC resolution. Adaptive outputs land in `results/adaptive/` (the
//! committed `results/` files stay full-fidelity ground truth) and CI
//! checks them against a full-fidelity manifest with
//! `bench-report fidelity-diff`.
//!
//! Every run also emits a machine-readable manifest (JSON, schema
//! `mosaic-run-manifest/v1`) with per-figure telemetry and timings —
//! default path `results/manifests/run_all-<mode>.json`, overridable with
//! `--manifest-out <path>`. Inspect or compare manifests with the
//! `bench-report` binary.
//!
//! **Checkpointing.** Each completed figure is checkpointed as a manifest
//! fragment (schema `mosaic-manifest-fragment/v1`) under
//! `results/manifests/fragments/`. A killed run can restart with
//! `--resume`: completed figures are loaded from their fragments instead
//! of re-running, and the final `results/` files and manifest values are
//! byte-identical to an uninterrupted run (fragments store the full
//! output text and telemetry snapshot, and all experiment outputs are
//! deterministic). Without `--resume`, stale fragments are cleared at
//! startup; on successful completion they are cleared either way.
//! `--stop-after <n>` (testing hook) exits cleanly after `n` figures to
//! simulate a mid-run kill.

use mosaic_bench::fragments;
use mosaic_bench::manifest::FigureRecord;
use mosaic_bench::manifest::RunManifest;
use mosaic_sim::fidelity::{FidelityMode, FIDELITY_ENV};
use mosaic_sim::telemetry;
use mosaic_sim::telemetry::Stopwatch;
use std::fs;
use std::path::Path;

fn main() {
    let mut manifest_out: Option<String> = None;
    let mut resume = false;
    let mut stop_after: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => std::env::set_var(mosaic_bench::runcfg::QUICK_ENV, "1"),
            "--resume" => resume = true,
            "--manifest-out" => match args.next() {
                Some(path) => manifest_out = Some(path),
                None => {
                    eprintln!("--manifest-out requires a path");
                    std::process::exit(2);
                }
            },
            "--stop-after" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => stop_after = Some(n),
                None => {
                    eprintln!("--stop-after requires a figure count");
                    std::process::exit(2);
                }
            },
            "--fidelity" => match args.next().as_deref().and_then(FidelityMode::parse) {
                Some(f) => std::env::set_var(FIDELITY_ENV, f.name()),
                None => {
                    eprintln!("--fidelity requires full|adaptive");
                    std::process::exit(2);
                }
            },
            other if other.starts_with("--fidelity=") => {
                match FidelityMode::parse(&other["--fidelity=".len()..]) {
                    Some(f) => std::env::set_var(FIDELITY_ENV, f.name()),
                    None => {
                        eprintln!("--fidelity requires full|adaptive, got {other}");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!(
                    "unknown argument: {other} (supported: --quick, --resume, \
                     --fidelity full|adaptive, --manifest-out <path>, --stop-after <n>)"
                );
                std::process::exit(2);
            }
        }
    }
    let mode = if mosaic_bench::runcfg::quick() {
        "quick"
    } else {
        "full"
    };
    let fidelity = mosaic_bench::runcfg::fidelity();
    // Fragments from a different fidelity mode must never satisfy a
    // resume (the figure outputs legitimately differ), so the fragment
    // key carries the fidelity suffix when it deviates from full.
    let frag_mode = if fidelity.is_adaptive() {
        format!("{mode}-adaptive")
    } else {
        mode.to_string()
    };
    let threads = mosaic_sim::sweep::Exec::from_env().threads();
    eprintln!(
        "[run_all] mode={mode} fidelity={} threads={threads} resume={resume}",
        fidelity.name()
    );
    // Adaptive runs annotate tier decisions in the figure text, so they
    // land in results/adaptive/ — the committed results/ files are the
    // full-fidelity ground truth and only a full run may rewrite them.
    let results_dir = if fidelity.is_adaptive() {
        "results/adaptive"
    } else {
        "results"
    };
    fs::create_dir_all(results_dir).expect("create results dir");
    let fragment_dir = Path::new(fragments::FRAGMENT_DIR);
    if !resume {
        // Fresh start: stale checkpoints must not leak into this run.
        fragments::clear_fragments(fragment_dir);
    }

    let run_start = Stopwatch::start();
    let cpu_start = telemetry::process_cpu_ns();
    let mut figures: Vec<FigureRecord> = Vec::new();
    let mut resumed = 0usize;
    let mut executed = 0usize;
    for (id, title, runner) in mosaic_bench::all_experiments() {
        let record = match resume
            .then(|| fragments::load_fragment(fragment_dir, id, &frag_mode))
            .flatten()
        {
            Some(record) => {
                resumed += 1;
                println!("[{id}] {title} (resumed from fragment)");
                record
            }
            None => {
                if let Some(limit) = stop_after {
                    if executed >= limit {
                        eprintln!(
                            "[run_all] --stop-after {limit}: stopping with {} fragments on disk",
                            figures.len()
                        );
                        return;
                    }
                }
                telemetry::reset();
                let start = Stopwatch::start();
                let output = runner();
                let wall_ns = start.elapsed().as_nanos() as u64;
                let snapshot = telemetry::take();
                executed += 1;
                println!("[{id}] {title} ({:.1}s)", wall_ns as f64 / 1e9);
                let record = FigureRecord {
                    id: id.to_string(),
                    title: title.to_string(),
                    output,
                    telemetry: snapshot,
                    wall_ns,
                };
                fragments::write_fragment(fragment_dir, &record, &frag_mode)
                    .expect("write fragment");
                record
            }
        };
        let path = format!("{results_dir}/{}.txt", id.to_lowercase());
        fs::write(&path, &record.output).expect("write result");
        figures.push(record);
    }
    if resume {
        eprintln!("[run_all] resumed {resumed} figures from fragments, ran {executed}");
    }

    let manifest = RunManifest {
        mode: mode.to_string(),
        fidelity: fidelity.name().to_string(),
        threads,
        figures,
        total_wall_ns: run_start.elapsed().as_nanos() as u64,
        total_cpu_ns: telemetry::process_cpu_ns().saturating_sub(cpu_start),
        peak_rss_bytes: telemetry::peak_rss_bytes(),
    };
    let path =
        manifest_out.unwrap_or_else(|| format!("results/manifests/run_all-{frag_mode}.json"));
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir).expect("create manifest directory");
        }
    }
    fs::write(&path, manifest.to_pretty_string()).expect("write manifest");
    println!("manifest -> {path}");
    // The run completed: the checkpoints have served their purpose.
    fragments::clear_fragments(fragment_dir);
    println!("\nall experiments regenerated; see EXPERIMENTS.md for the paper-vs-measured index");
}
