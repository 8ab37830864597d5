//! Seeded end-to-end and per-layer benchmark of the TM3270 simulator,
//! its sweep engine and its session server, driven from one process
//! through the crates' public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table5_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around every call it makes and prints the
//! per-layer metrics instead. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod report;
mod rng;
mod serve;
mod sim;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use report::Metrics;
use workloads::Workload;

/// Set-ups before the measured loop (the last one is measured) and
/// after it; `setup_s` is their median. Spreading them over the run
/// keeps one slow stretch of the host from setting the figure.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: Workload,
    name: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(n, _)| n == value)
                        .copied()
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (name, workload) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        name,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Worker threads and client connections: one per core, at most two.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
        .min(2)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args, began: Instant) -> Result<(), String> {
    let workers = workers();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} workers={workers}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // The first set-up is timed from process start. A traced run does
    // not report set-up time and sets up once.
    let (before, after) = if args.trace {
        (1, 0)
    } else {
        (SETUPS_BEFORE, SETUPS_AFTER)
    };
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for i in 0..before {
        if let Some(p) = prepared.take() {
            workloads::teardown(p)?;
        }
        let start = if i == 0 { began } else { Instant::now() };
        prepared = Some(workloads::setup(args.workload, workers, args.trace)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up");
    let m = workloads::measure(
        args.workload,
        prepared,
        workers,
        args.seed,
        args.seconds,
        args.trace,
    );
    for _ in 0..after {
        let start = Instant::now();
        let p = workloads::setup(args.workload, workers, args.trace)?;
        setup_s.push(start.elapsed().as_secs_f64());
        workloads::teardown(p)?;
    }
    let mut errors = m.errors.clone();

    let metrics = if args.trace {
        // Without the probe not every per-layer metric has samples, so
        // a probe failure ends the run without a result.
        let probe = workloads::probe(workers)?;
        if let Err(e) = m.own.check_coverage() {
            errors.push(e);
        }
        layers::metrics(&m.own, &probe, workers)?
    } else {
        let done = m.latencies_ms.len();
        if done == 0 {
            return Err("no op completed".to_string());
        }
        let tail = stats::tail(&m.latencies_ms).ok_or("too few ops for a tail percentile")?;
        println!(
            "ops={done} attempted={} failed={} failed_share={} elapsed_s={:.3} windows={} tail=p{:.2}",
            m.attempted,
            m.failed,
            m.failed as f64 / m.attempted as f64,
            m.elapsed_s,
            m.windows.len(),
            stats::tail_percentile(done).expect("tail exists")
        );
        let per_window = |f: &dyn Fn(&workloads::Window) -> f64| {
            stats::median(&m.windows.iter().map(f).collect::<Vec<_>>())
        };
        let mut metrics = Metrics::default();
        metrics.put("setup_s", stats::median(&setup_s), "s");
        metrics.put("ops_per_s", per_window(&|w| w.ops / w.secs), "1/s");
        metrics.put("op_p50_ms", stats::smoothed_median(&m.latencies_ms), "ms");
        metrics.put("op_tail_ms", tail, "ms");
        metrics.put(
            "sim_mips",
            per_window(&|w| w.instrs / w.run_ns.max(1.0) * 1e3),
            "MIPS",
        );
        metrics.put("peak_rss_mb", peak_rss_mb()?, "MB");
        metrics
    };
    for (name, value, unit) in metrics.iter() {
        println!("{name} = {value} {unit}");
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = errors.is_empty() && m.failed == 0;
    println!("{}", metrics.result_json(correct, m.attempted, m.failed));
    Ok(())
}

fn main() -> ExitCode {
    let began = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                Workload::ALL.map(|(n, _)| n).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args, began) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
