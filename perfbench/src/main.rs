//! End-to-end and per-layer benchmark of the Mosaic reproduction.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload traffic --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Runs one workload (see `workloads`) for `--seconds` of timed passes,
//! checks every output, prints a report, and ends with one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when an output check fails and 2 on bad usage.
//! See `perfbench/README.md` for the workloads, metrics and predictions.

// The repository bans `Instant` so that no timing can reach a simulated
// value. Measuring host time is this program's job, and its timings stay
// out of every digest it checks.
#![allow(clippy::disallowed_methods)]

mod probes;
mod trace;
mod util;
mod workloads;

use mosaic_sim::sweep::Exec;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use util::{cpu_seconds, median, peak_rss_mib, percentile};
use workloads::{Checks, Outcome, Workload};

/// The seed the pinned digests were recorded at.
const DEFAULT_SEED: u64 = 1;

/// Full-size output digest of each workload at [`DEFAULT_SEED`]. A
/// change that only makes the code faster must leave these unchanged.
const PINNED: [(&str, u64); 4] = [
    ("traffic", 0x0b5c_72ac_27ee_1ba6),
    ("fleet", 0xd9b8_459b_0b98_f1cd),
    ("montecarlo", 0x0f7c_b48c_2dea_9f9d),
    ("design", 0x882e_b3f3_4c11_0fa6),
];

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Fewest timed passes per phase, however long a pass takes.
const MIN_REPS: usize = 3;

/// A phase stops starting passes after this long, whatever `--seconds`
/// says, so a run always ends well inside its time limit.
const PHASE_CAP_S: f64 = 60.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    Ok(args)
}

/// One timed pass.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    out: Outcome,
}

/// Timed passes for at least `seconds`, cycling through `tracers` one
/// pass each, with at least [`MIN_REPS`] passes per tracer. Returns the
/// passes made under each tracer. Alternating pass by pass exposes traced
/// and untraced passes to the same drift in host speed.
fn timed(
    w: &mut dyn Workload,
    exec: &Exec,
    seconds: f64,
    tracers: &mut [Tracer],
) -> Vec<Vec<Pass>> {
    let start = Instant::now();
    let mut phases: Vec<Vec<Pass>> = tracers.iter().map(|_| Vec::new()).collect();
    for i in 0.. {
        let k = i % tracers.len();
        let c0 = cpu_seconds();
        let t0 = Instant::now();
        let out = w.run(exec, &mut tracers[k], i as u64);
        let wall_s = t0.elapsed().as_secs_f64();
        phases[k].push(Pass {
            wall_s,
            cpu_s: cpu_seconds() - c0,
            out,
        });
        let elapsed = start.elapsed().as_secs_f64();
        let enough = k + 1 == tracers.len() && phases[k].len() >= MIN_REPS;
        if (elapsed >= seconds && enough) || elapsed >= PHASE_CAP_S {
            break;
        }
    }
    phases
}

/// Value-identity checks over a phase: every pass of one seed returns the
/// same digest, and at the default seed that digest is the pinned one.
fn check_digests(name: &str, seed: u64, passes: &[Pass], tally: &mut Checks) -> u64 {
    let first = passes[0].out.digest;
    tally.check(passes.iter().all(|p| p.out.digest == first), || {
        format!("{name}: digests differ between passes of one seed")
    });
    if seed == DEFAULT_SEED {
        let pinned = PINNED.iter().find(|(n, _)| *n == name).map_or(0, |p| p.1);
        tally.check(first == pinned, || {
            format!("{name}: digest {first:#018x} differs from pinned {pinned:#018x}")
        });
    }
    first
}

/// Medians of a phase.
struct Summary {
    wall_s: f64,
    cpu_s: f64,
    q1: f64,
    q3: f64,
}

fn summarize(passes: &[Pass]) -> Summary {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    Summary {
        wall_s: median(&walls),
        cpu_s: median(&cpus),
        q1: percentile(&walls, 0.25),
        q3: percentile(&walls, 0.75),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn result_line(tally: &Checks, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<34} {value:>16.6} {unit:<10} {note}");
}

fn run(args: &Args, scratch: &Path) -> Result<bool, String> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let exec = Exec::with_threads(threads);
    let ckpt_dir = scratch.join("ckpt");
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        exec.threads()
    );

    // Set-up: input generation plus a reduced-size warm-up pass, repeated.
    let mut tally = Checks::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    let mut warm_digest = 0;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut w = workloads::setup(&args.workload, args.seed, &ckpt_dir)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?;
        let warm = w.small(&exec);
        setup_s.push(t0.elapsed().as_secs_f64());
        tally.absorb(&warm.checks);
        warm_digest = warm.digest;
        built = Some(w);
    }
    let Some(mut w) = built else {
        return Err("no set-up ran".into());
    };
    println!("  size: {}", w.describe());

    // The reduced-size digests at 1 thread equal those at N threads.
    let single = w.small(&Exec::with_threads(1));
    tally.absorb(&single.checks);
    tally.check(single.digest == warm_digest, || {
        format!(
            "{}: 1-thread digest differs from {threads}-thread digest",
            args.workload
        )
    });

    // Untraced passes; with `--trace 1`, alternating with traced ones.
    let mut tracers = vec![Tracer::new(false)];
    if args.trace {
        tracers.push(Tracer::new(true));
    }
    let mut phases = timed(w.as_mut(), &exec, args.seconds, &mut tracers);
    let passes = phases.remove(0);
    for p in &passes {
        tally.absorb(&p.out.checks);
    }
    let digest = check_digests(&args.workload, args.seed, &passes, &mut tally);
    let e2e = summarize(&passes);
    let units = passes[0].out.units;
    let n = passes.len();

    let metrics: Vec<(&str, f64, &str)> = if !args.trace {
        let rss = peak_rss_mib();
        let setup = median(&setup_s);
        println!("end-to-end (median of {n} passes, tracing off)");
        print_metric(
            "wall_s",
            e2e.wall_s,
            "s",
            &format!("q1 {:.4} q3 {:.4}", e2e.q1, e2e.q3),
        );
        print_metric(
            "cpu_s",
            e2e.cpu_s,
            "s",
            "utime+stime per pass (/proc/self/stat), median",
        );
        print_metric("setup_s", setup, "s", &format!("median of {SETUP_REPS}"));
        print_metric("peak_rss_mb", rss, "MiB", "VmHWM");
        let frac = tally.failed as f64 / tally.attempted.max(1) as f64;
        print_metric(
            "failed_frac",
            frac,
            "ratio",
            &format!("{} of {} operations", tally.failed, tally.attempted),
        );
        if let Some((name, unit)) = w.throughput() {
            print_metric(name, units / e2e.wall_s, unit, &format!("{units} per pass"));
        }
        let lat: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.out.latencies_ms.clone())
            .collect();
        if !lat.is_empty() {
            let note = format!("n={}", lat.len());
            print_metric("design_p50_ms", percentile(&lat, 0.50), "ms", &note);
            print_metric("design_p90_ms", percentile(&lat, 0.90), "ms", &note);
        }
        vec![
            ("wall_s", e2e.wall_s, "s"),
            ("cpu_s", e2e.cpu_s, "s"),
            ("setup_s", setup, "s"),
            ("peak_rss_mb", rss, "MiB"),
        ]
    } else {
        let (traced, tr) = (&phases[0], &tracers[1]);
        for p in traced {
            tally.absorb(&p.out.checks);
        }
        tally.check(traced.iter().all(|p| p.out.digest == digest), || {
            format!("{}: traced digest differs from untraced", args.workload)
        });
        let traced_wall = summarize(traced).wall_s;
        print!(
            "{}",
            tr.render_table(&format!(
                "{} workload, {} traced passes",
                args.workload,
                traced.len()
            ))
        );

        let mut probe_tr = Tracer::new(true);
        let probe_dir = scratch.join("probe");
        std::fs::create_dir_all(&probe_dir).map_err(|e| format!("probe dir: {e}"))?;
        let probes = probes::run_all(
            args.seed,
            threads,
            &probe_dir,
            passes[0].out.ckpt_bytes,
            &mut probe_tr,
        );
        tally.absorb(&probes.checks);
        print!("{}", probe_tr.render_table("layer probes"));

        let out = Path::new("perfbench/.scratch")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        tr.write_jsonl(&out)
            .map_err(|e| format!("writing spans: {e}"))?;
        let probe_out = out.with_extension("probes.jsonl");
        probe_tr
            .write_jsonl(&probe_out)
            .map_err(|e| format!("writing spans: {e}"))?;
        println!(
            "  spans written to {} and {}",
            out.display(),
            probe_out.display()
        );

        let engine_threads = if w.multithreaded() { threads } else { 1 };
        let mut m = probes.metrics;
        m.push((
            "sim.sweep.util",
            e2e.cpu_s / (e2e.wall_s * engine_threads as f64),
            "ratio",
        ));
        m.push((
            "trace.overhead_frac",
            traced_wall / e2e.wall_s - 1.0,
            "ratio",
        ));
        println!(
            "per-layer (traced run; untraced wall {:.4} s, traced {:.4} s)",
            e2e.wall_s, traced_wall
        );
        for (name, v, unit) in &m {
            print_metric(name, *v, unit, "");
        }
        m
    };

    println!("  digest {digest:#018x}");
    for p in tally.problems.iter().take(20) {
        println!("  FAILED: {p}");
    }
    println!("{}", result_line(&tally, &metrics));
    Ok(tally.failed == 0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch: PathBuf =
        Path::new("perfbench/.scratch").join(format!("{}-{}", args.workload, std::process::id()));
    let result = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))
        .and_then(|()| run(&args, &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
