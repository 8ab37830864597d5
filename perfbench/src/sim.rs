//! In-process ops: kernels built, run and verified through the crates'
//! public APIs, each call wrapped in a span.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use tm3270_bench::profile::{profile_kernel_with, ProfileOptions};
use tm3270_core::{EngineTelemetry, Machine, MachineConfig, RunOptions, RunStats, Snapshot};
use tm3270_harness::{sweep, SweepOptions, SweepTelemetry};
use tm3270_kernels::{evaluation_kernels, pinned_counts, Kernel};
use tm3270_obs::{CounterSink, FanoutSink, ProfileSink, SinkHandle};

use crate::layers::{SnapshotProbe, GOLDEN};
use crate::stats;
use crate::trace::OpTrace;

/// Index of config D in [`MachineConfig::evaluation_suite`].
pub const CONFIG_D: usize = 3;

/// One untraced-engine run and what it measured.
#[derive(Debug, Clone, Copy)]
pub struct RunOut {
    /// Golden kernel name.
    pub kernel: &'static str,
    /// Whether the run was on config D.
    pub config_d: bool,
    /// Final statistics.
    pub stats: RunStats,
    /// Host nanoseconds inside `run_with`.
    pub run_ns: u64,
    /// Which engine ran the instructions.
    pub engine: EngineTelemetry,
}

/// Golden kernel `idx`, freshly constructed (`dyn Kernel` is not `Sync`,
/// so sweep jobs build their own, as `repro_all` does).
fn kernel(idx: usize) -> Box<dyn Kernel> {
    let k = evaluation_kernels().swap_remove(idx);
    assert_eq!(k.name(), GOLDEN[idx], "registry order changed");
    k
}

/// `(instrs, cycles)` must equal the pinned golden counts.
pub fn check_counts(config: &str, kernel: &str, stats: &RunStats) -> Result<(), String> {
    let pinned = pinned_counts(config, kernel)
        .ok_or_else(|| format!("{kernel} on {config} has no pinned counts"))?;
    if (stats.instrs, stats.cycles) != pinned {
        return Err(format!(
            "{kernel} on {config}: (instrs, cycles) = ({}, {}), pinned {pinned:?}",
            stats.instrs, stats.cycles
        ));
    }
    Ok(())
}

/// One Table 5 job: `Kernel::build` → `Machine::new` → `setup` →
/// `run_with` → `verify`, then the pinned-count check.
pub fn direct_op(kidx: usize, config: &MachineConfig, t: &mut OpTrace) -> Result<RunOut, String> {
    let k = t.span("kernels.new", || kernel(kidx));
    let name = GOLDEN[kidx];
    let program = t
        .span("asm.build", || k.build(&config.issue))
        .map_err(|e| format!("{name}: build: {e}"))?;
    let mut m = t
        .span("core.new", || Machine::new(config.clone(), program))
        .map_err(|e| format!("{name}: machine: {e}"))?;
    t.span("kernels.setup", || k.setup(&mut m));
    let (outcome, run_ns) = t.timed("core.run", || {
        m.run_with(RunOptions::budget(k.cycle_budget()))
    });
    let stats = outcome
        .into_result()
        .map_err(|e| format!("{name} on {}: {e}", config.name))?;
    t.span("kernels.verify", || k.verify(&m))
        .map_err(|e| format!("{name} on {}: verify: {e}", config.name))?;
    t.span("bench.check", || check_counts(config.name, name, &stats))?;
    Ok(RunOut {
        kernel: name,
        config_d: config.name == MachineConfig::config_d().name,
        stats,
        run_ns,
        engine: m.engine_telemetry(),
    })
}

/// One profiled op: `profile_kernel_with(.., hotspots: true)`, then
/// `check_conservation` and the pinned-count check. Returns the run's
/// statistics and the profiled call's host time.
pub fn profile_op(
    kidx: usize,
    config: &MachineConfig,
    t: &mut OpTrace,
) -> Result<(RunStats, u64), String> {
    let k = t.span("kernels.new", || kernel(kidx));
    let name = GOLDEN[kidx];
    let opts = ProfileOptions {
        hotspots: true,
        ..ProfileOptions::default()
    };
    let (profile, ns) = t.timed("obs.profile", || {
        profile_kernel_with(k.as_ref(), config, &opts)
    });
    let profile = profile.map_err(|e| format!("{name}: profile: {e}"))?;
    t.span("bench.check", || {
        profile.check_conservation()?;
        check_counts(config.name, name, &profile.stats)
    })?;
    Ok((profile.stats, ns))
}

/// Builds, loads and sets up kernel `kidx` on `config` (not timed).
fn prepared(kidx: usize, config: &MachineConfig) -> Result<(Box<dyn Kernel>, Machine), String> {
    let k = kernel(kidx);
    let program = k.build(&config.issue).map_err(|e| e.to_string())?;
    let m = Machine::new(config.clone(), program).map_err(|e| e.to_string())?;
    Ok((k, m))
}

/// Times one `run_with` to halt on a prepared machine and verifies it.
fn timed_run(
    k: &dyn Kernel,
    m: &mut Machine,
    config: &MachineConfig,
) -> Result<(RunStats, u64), String> {
    k.setup(m);
    let start = Instant::now();
    let outcome = m.run_with(RunOptions::budget(k.cycle_budget()));
    let ns = start.elapsed().as_nanos() as u64;
    let stats = outcome.into_result().map_err(|e| e.to_string())?;
    k.verify(m)?;
    check_counts(config.name, k.name(), &stats)?;
    Ok((stats, ns))
}

/// The observability-overhead op: an untraced run, a run with the
/// hot-spot sinks `profile_kernel_with` attaches, and another untraced
/// run, all of kernel `kidx` on `config` in this thread. Returns the
/// mean untraced `run_with` time, the profiled `run_with` time, and the
/// profiled run's statistics and engine telemetry.
pub fn overhead_op(
    kidx: usize,
    config: &MachineConfig,
) -> Result<(u64, u64, RunStats, EngineTelemetry), String> {
    let (k, mut m) = prepared(kidx, config)?;
    let (_, before) = timed_run(k.as_ref(), &mut m, config)?;

    let (k, mut m) = prepared(kidx, config)?;
    let counters = Rc::new(RefCell::new(CounterSink::new()));
    let hotspots = Rc::new(RefCell::new(ProfileSink::new(m.program().instrs.len())));
    let mut fan = FanoutSink::new();
    fan.push(counters.clone());
    fan.push(hotspots);
    m.attach_sink(SinkHandle::from(Rc::new(RefCell::new(fan))));
    let (stats, profiled) = timed_run(k.as_ref(), &mut m, config)?;
    if counters.borrow().buckets().total() != stats.cycles {
        return Err(format!("{}: stall buckets do not sum to cycles", k.name()));
    }
    let engine = m.engine_telemetry();

    let (k, mut m) = prepared(kidx, config)?;
    let (_, after) = timed_run(k.as_ref(), &mut m, config)?;
    Ok(((before + after) / 2, profiled, stats, engine))
}

/// The snapshot probe: memset on config D stopped half-way, then
/// `reps` rounds of snapshot → hex → parse → restore into a fresh
/// machine, with medians. The last restored machine must finish with
/// the uninterrupted run's statistics.
pub fn snapshot_probe(reps: usize) -> Result<SnapshotProbe, String> {
    let config = MachineConfig::config_d();
    let kidx = 0;
    let (k, mut whole) = prepared(kidx, &config)?;
    let (reference, _) = timed_run(k.as_ref(), &mut whole, &config)?;

    let (k, mut m) = prepared(kidx, &config)?;
    k.setup(&mut m);
    let cut = reference.cycles / 2;
    if m.run_with(RunOptions::budget(cut)).result.is_ok() {
        return Err("memset halted before the snapshot point".to_string());
    }
    let mut times = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut bytes = 0;
    let mut restored = None;
    for _ in 0..reps {
        let lap = |i: usize, times: &mut [Vec<f64>; 4], start: Instant| {
            times[i].push(start.elapsed().as_nanos() as f64 / 1e6);
        };
        let s = Instant::now();
        let snap = m.snapshot();
        lap(0, &mut times, s);
        bytes = snap.len() as u64;
        let s = Instant::now();
        let hex = snap.to_hex();
        lap(1, &mut times, s);
        let s = Instant::now();
        let parsed = Snapshot::from_hex(&hex).map_err(|e| e.to_string())?;
        lap(2, &mut times, s);
        let (_, mut fresh) = prepared(kidx, &config)?;
        let s = Instant::now();
        fresh.restore(&parsed).map_err(|e| e.to_string())?;
        lap(3, &mut times, s);
        restored = Some(fresh);
    }
    let mut fresh = restored.ok_or("no snapshot rounds")?;
    let finished = fresh
        .run_with(RunOptions::budget(k.cycle_budget()))
        .into_result()
        .map_err(|e| e.to_string())?;
    k.verify(&fresh)?;
    if finished != reference {
        return Err("restored memset run diverged from the uninterrupted one".to_string());
    }
    Ok(SnapshotProbe {
        bytes,
        snapshot_ms: stats::median(&times[0]),
        to_hex_ms: stats::median(&times[1]),
        from_hex_ms: stats::median(&times[2]),
        restore_ms: stats::median(&times[3]),
    })
}

/// Runs `n` jobs through the harness sweep engine on `workers` threads,
/// returning each job's result in job order (a panic is a failure).
pub fn sweep_jobs<T: Send>(
    n: usize,
    workers: usize,
    telemetry: Option<&SweepTelemetry>,
    job: impl Fn(usize) -> Result<T, String> + Sync,
) -> Vec<Result<T, String>> {
    let mut opts = SweepOptions::new().threads(workers);
    if let Some(tel) = telemetry {
        opts = opts.observe(tel);
    }
    sweep(n, &opts, |ctx| job(ctx.id))
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect()
}
