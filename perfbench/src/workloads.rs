//! The four workloads, each a closed loop on at most `workers` threads
//! or connections, and the fixed layer probe of a traced run.

use std::time::{Duration, Instant};

use tm3270_core::MachineConfig;
use tm3270_harness::SweepTelemetry;

use crate::layers::{Layers, GOLDEN};
use crate::rng::{Deck, Rng};
use crate::serve::{self, Conn, Reference, ServeOut, Served};
use crate::sim::{self, CONFIG_D};
use crate::trace::{OpRecord, OpTrace};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 44 Table 5 jobs through the sweep engine.
    Table5Sweep,
    /// Whole served sessions from a weighted kernel mix.
    ServeSessions,
    /// Served sessions checkpointed mid-run and restored.
    ServeCheckpoint,
    /// Hot-spot profiles of the 11 kernels on config D.
    ProfileHotspots,
}

impl Workload {
    /// Every workload with its command-line name.
    pub const ALL: [(&'static str, Workload); 4] = [
        ("table5_sweep", Workload::Table5Sweep),
        ("serve_sessions", Workload::ServeSessions),
        ("serve_checkpoint", Workload::ServeCheckpoint),
        ("profile_hotspots", Workload::ProfileHotspots),
    ];
}

/// Kernel indices into [`GOLDEN`].
const MEMSET: usize = 0;
const MEMCPY: usize = 1;
const FILTER: usize = 2;
const RGB2YUV: usize = 3;
const MPEG2_A: usize = 6;

/// `serve_sessions` mix: mostly memset/memcpy, a minority of longer
/// sessions. Weights per deck of 20.
const SESSION_MIX: [(usize, usize); 5] = [
    (MEMSET, 8),
    (MEMCPY, 8),
    (FILTER, 2),
    (RGB2YUV, 1),
    (MPEG2_A, 1),
];
/// `serve_checkpoint` mix: short kernels only.
const CHECKPOINT_MIX: [(usize, usize); 3] = [(MEMSET, 2), (MEMCPY, 2), (FILTER, 1)];

/// What the measured loop of one run saw.
#[derive(Debug, Default)]
pub struct Measured {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a call or a check.
    pub failed: u64,
    /// Failures outside any op (server shutdown checks, conservation).
    pub errors: Vec<String>,
    /// Latency of each completed op.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the measured loop.
    pub elapsed_s: f64,
    /// The measured loop cut into windows (sweep passes, or equal time
    /// slices of a served run), so throughput can be reported as a
    /// median that a burst of host noise does not move.
    pub windows: Vec<Window>,
    /// Per-layer samples of the workload's own ops.
    pub own: Layers,
}

/// Completed ops in one window of the measured loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Window length.
    pub secs: f64,
    /// Ops completed and verified in it.
    pub ops: f64,
    /// Simulated instructions of their timed runs.
    pub instrs: f64,
    /// Host time of those runs in nanoseconds (see `sim_mips`).
    pub run_ns: f64,
}

/// Length of one window of a served run.
const SERVE_WINDOW_S: f64 = 2.0;

impl Measured {
    fn record<T>(&mut self, op: &OpRecord, result: &Result<T, String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(_) => {
                self.latencies_ms.push(op.wall_ns as f64 / 1e6);
                true
            }
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e.clone());
                }
                false
            }
        }
    }
}

/// State a workload keeps from set-up into its measured loop.
#[derive(Debug)]
pub enum Prepared {
    /// In-process workloads need nothing beyond the warm-up.
    InProcess,
    /// A running server with one connection per client.
    Server {
        /// The server.
        served: Served,
        /// Client connections.
        conns: Vec<Conn>,
        /// In-process reference results per kernel.
        refs: std::collections::BTreeMap<&'static str, Reference>,
    },
}

/// One set-up: bind the server if the workload serves, and run one
/// warm-up op per distinct (kernel, config).
pub fn setup(w: Workload, workers: usize, traced: bool) -> Result<Prepared, String> {
    match w {
        Workload::Table5Sweep => {
            let jobs = table5_jobs();
            let configs = MachineConfig::evaluation_suite();
            for r in sim::sweep_jobs(jobs.len(), workers, None, |i| {
                let (k, c) = jobs[i];
                sim::direct_op(k, &configs[c], &mut OpTrace::begin(false))
            }) {
                r.map_err(|e| format!("warm-up: {e}"))?;
            }
            Ok(Prepared::InProcess)
        }
        Workload::ProfileHotspots => {
            let d = MachineConfig::config_d();
            for r in sim::sweep_jobs(GOLDEN.len(), workers, None, |k| {
                sim::profile_op(k, &d, &mut OpTrace::begin(false))
            }) {
                r.map_err(|e| format!("warm-up: {e}"))?;
            }
            Ok(Prepared::InProcess)
        }
        Workload::ServeSessions | Workload::ServeCheckpoint => {
            let kernels: Vec<usize> = mix(w).iter().map(|&(k, _)| k).collect();
            let served = Served::start(workers, traced)?;
            let mut conns = (0..workers)
                .map(|_| served.connect(if traced { 16 } else { 0 }))
                .collect::<Result<Vec<_>, _>>()?;
            let refs = serve::references(&kernels)?;
            for &k in &kernels {
                serve_op(w, &mut conns[0], k, &refs, &mut Rng::new(0, 0), false)
                    .1
                    .map_err(|e| format!("warm-up: {e}"))?;
            }
            for c in &mut conns {
                c.bytes = 0;
            }
            Ok(Prepared::Server {
                served,
                conns,
                refs,
            })
        }
    }
}

/// Releases a set-up that will not be measured, checking the server's
/// session count.
pub fn teardown(p: Prepared) -> Result<(), String> {
    if let Prepared::Server { served, conns, .. } = p {
        let created = conns.iter().map(|c| c.created).sum();
        drop(conns);
        served.stop(created)?;
    }
    Ok(())
}

fn mix(w: Workload) -> &'static [(usize, usize)] {
    if w == Workload::ServeCheckpoint {
        &CHECKPOINT_MIX
    } else {
        &SESSION_MIX
    }
}

/// The 44 (kernel, config) jobs of one Table 5 pass.
fn table5_jobs() -> Vec<(usize, usize)> {
    (0..GOLDEN.len())
        .flat_map(|k| (0..4).map(move |c| (k, c)))
        .collect()
}

fn serve_op(
    w: Workload,
    conn: &mut Conn,
    kidx: usize,
    refs: &std::collections::BTreeMap<&'static str, Reference>,
    cuts: &mut Rng,
    traced: bool,
) -> (OpRecord, Result<ServeOut, String>) {
    let kernel = GOLDEN[kidx];
    let reference = &refs[kernel];
    let mut t = OpTrace::begin(traced);
    let out = if w == Workload::ServeCheckpoint {
        // A seeded checkpoint between 20% and 80% of the run.
        let cut = reference.cycles / 5 + cuts.below(reference.cycles * 3 / 5);
        serve::checkpoint_op(conn, kernel, cut, reference, &mut t)
    } else {
        serve::session_op(conn, kernel, reference, &mut t)
    };
    (t.finish(), out)
}

/// The measured loop: ops until `seconds` have passed. In a traced run
/// every other op keeps its spans, so traced and untraced ops
/// interleave and the tracing overhead can be read off.
pub fn measure(
    w: Workload,
    prepared: Prepared,
    workers: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Measured {
    let mut m = Measured::default();
    let deadline = Duration::from_secs_f64(seconds);
    match prepared {
        Prepared::InProcess => in_process_loop(w, workers, seed, deadline, traced, &mut m),
        Prepared::Server {
            served,
            conns,
            refs,
        } => serve_loop(w, served, conns, &refs, seed, deadline, traced, &mut m),
    }
    m
}

/// A completed in-process op.
enum Done {
    /// An untraced-engine run.
    Run(sim::RunOut),
    /// A profiled run: its statistics and the profiled call's host time.
    Profiled(tm3270_core::RunStats, u64),
}

fn in_process_loop(
    w: Workload,
    workers: usize,
    seed: u64,
    deadline: Duration,
    traced: bool,
    m: &mut Measured,
) {
    let configs = MachineConfig::evaluation_suite();
    // 44 jobs per pass either way: the 11 kernels on configs A-D, or
    // each kernel four times on config D.
    let jobs: Vec<(usize, usize)> = if w == Workload::Table5Sweep {
        table5_jobs()
    } else {
        table5_jobs()
            .into_iter()
            .map(|(k, _)| (k, CONFIG_D))
            .collect()
    };
    let telemetry = traced.then(SweepTelemetry::new);
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed() < deadline {
        let pass_start = Instant::now();
        let mut window = Window::default();
        // The seed shuffles job order only; the inputs stay pinned.
        let mut order = jobs.clone();
        Rng::new(seed, pass).shuffle(&mut order);
        let results = sim::sweep_jobs(order.len(), workers, telemetry.as_ref(), |i| {
            let (k, c) = order[i];
            let mut t = OpTrace::begin(traced && i % 2 == 0);
            let out = if w == Workload::Table5Sweep {
                sim::direct_op(k, &configs[c], &mut t).map(Done::Run)
            } else {
                sim::profile_op(k, &configs[c], &mut t).map(|(stats, ns)| Done::Profiled(stats, ns))
            };
            Ok((t.finish(), out))
        });
        for r in results {
            let (op, out) = r.unwrap_or_else(|e| (OpTrace::begin(false).finish(), Err(e)));
            if !m.record(&op, &out) {
                continue;
            }
            m.own.absorb(&op);
            window.ops += 1.0;
            match out.expect("recorded as completed") {
                Done::Run(run) => {
                    window.instrs += run.stats.instrs as f64;
                    window.run_ns += run.run_ns as f64;
                    m.own
                        .add_run(run.kernel, run.config_d, &run.stats, run.run_ns, run.engine);
                }
                Done::Profiled(stats, ns) => {
                    window.instrs += stats.instrs as f64;
                    window.run_ns += ns as f64;
                    m.own.mem.add(&stats);
                }
            }
        }
        window.secs = pass_start.elapsed().as_secs_f64();
        m.windows.push(window);
        pass += 1;
    }
    m.elapsed_s = start.elapsed().as_secs_f64();
    if let Some(tel) = telemetry {
        m.own.sweep = Some((tel.report(), workers));
    }
}

#[allow(clippy::too_many_arguments)]
fn serve_loop(
    w: Workload,
    served: Served,
    mut conns: Vec<Conn>,
    refs: &std::collections::BTreeMap<&'static str, Reference>,
    seed: u64,
    deadline: Duration,
    traced: bool,
    m: &mut Measured,
) {
    let start = Instant::now();
    type Done = (OpRecord, Result<ServeOut, String>, f64);
    let per_conn: Vec<Vec<Done>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                s.spawn(move || {
                    let mut deck = Deck::new(mix(w), Rng::new(seed, 100 + i as u64));
                    let mut cuts = Rng::new(seed, 200 + i as u64);
                    let mut ops = Vec::new();
                    while start.elapsed() < deadline {
                        let kidx = deck.draw();
                        let trace_this = traced && ops.len() % 2 == 0;
                        let (op, out) = serve_op(w, conn, kidx, refs, &mut cuts, trace_this);
                        ops.push((op, out, start.elapsed().as_secs_f64()));
                    }
                    ops
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    m.elapsed_s = start.elapsed().as_secs_f64();

    let created = conns.iter().map(|c| c.created).sum();
    let bytes: u64 = conns.iter().map(|c| c.bytes).sum();
    let payloads: Vec<String> = conns
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.payloads))
        .collect();
    drop(conns);
    let server_workers = served.workers;
    let report = match served.stop(created) {
        Ok(report) => report,
        Err(e) => {
            m.errors.push(e);
            None
        }
    };
    let server_us = report
        .as_ref()
        .map(serve::server_run_us)
        .unwrap_or_default();
    // Equal windows over the run, the last one stretched to the end of
    // the ops that finish past the deadline. An op counts in each
    // window by the share of its time spent there, so window rates are
    // not quantized to whole ops.
    let n = (deadline.as_secs_f64() / SERVE_WINDOW_S).round().max(1.0) as usize;
    let len = deadline.as_secs_f64() / n as f64;
    let last_end = per_conn
        .iter()
        .flatten()
        .map(|d| d.2)
        .fold(deadline.as_secs_f64(), f64::max);
    let bounds: Vec<f64> = (0..n).map(|i| i as f64 * len).chain([last_end]).collect();
    m.windows = bounds
        .windows(2)
        .map(|b| Window {
            secs: b[1] - b[0],
            ..Window::default()
        })
        .collect();
    let mut ops = 0;
    for (mut op, out, end_s) in per_conn.into_iter().flatten() {
        if !m.record(&op, &out) {
            continue;
        }
        let out = out.expect("recorded as completed");
        ops += 1;
        let start_s = end_s - op.wall_ns as f64 / 1e9;
        for (window, b) in m.windows.iter_mut().zip(bounds.windows(2)) {
            let overlap = end_s.min(b[1]) - start_s.max(b[0]);
            if overlap > 0.0 {
                let share = overlap / (end_s - start_s);
                window.ops += share;
                window.instrs += share * out.instrs as f64;
                window.run_ns += share * out.run_ns as f64;
            }
        }
        m.own.run_slices.extend(&out.slices);
        serve::attach_server_runs(&mut op, &out.runs, &server_us);
        m.own.absorb(&op);
    }
    m.own.wire_ops = (ops, bytes);
    m.own.payloads = payloads;
    m.own.server = report.map(|r| (r, server_workers));
}

/// The fixed layer probe of a traced run, the same for every workload:
/// the 11 kernels on config D through the sweep engine (each with an
/// interleaved profiled run for `obs.overhead_ratio`), the snapshot
/// probe, and a short served block of five sessions and two
/// checkpointed ones on a one-worker server.
pub fn probe(workers: usize) -> Result<Layers, String> {
    let mut l = Layers::default();
    let d = MachineConfig::config_d();
    let telemetry = SweepTelemetry::new();
    let results = sim::sweep_jobs(GOLDEN.len(), workers, Some(&telemetry), |k| {
        let mut t = OpTrace::begin(true);
        let run = sim::direct_op(k, &d, &mut t)?;
        Ok((t.finish(), run, sim::overhead_op(k, &d)?))
    });
    for r in results {
        let (op, run, (baseline_ns, profiled_ns, stats, engine)) = r?;
        l.absorb(&op);
        l.add_run(run.kernel, true, &run.stats, run.run_ns, run.engine);
        l.profiled.instrs += stats.instrs;
        l.profiled.cycles += stats.cycles;
        l.profiled.run_ns += profiled_ns;
        l.profiled.fused += engine.fused_instrs;
        l.profiled.fallback += engine.fallback_instrs;
        l.profiled_baseline_ns += baseline_ns;
    }
    l.sweep = Some((telemetry.report(), workers));
    l.snapshot = Some(sim::snapshot_probe(5)?);

    let served = Served::start(1, true)?;
    let mut conn = served.connect(usize::MAX)?;
    let kernels = [MEMSET, MEMCPY, FILTER, RGB2YUV, MPEG2_A];
    let refs = serve::references(&kernels)?;
    let mut outs = Vec::new();
    let mut cuts = Rng::new(0, 0);
    for k in kernels {
        outs.push(serve_op(
            Workload::ServeSessions,
            &mut conn,
            k,
            &refs,
            &mut cuts,
            true,
        ));
    }
    for k in [MEMSET, FILTER] {
        outs.push(serve_op(
            Workload::ServeCheckpoint,
            &mut conn,
            k,
            &refs,
            &mut cuts,
            true,
        ));
    }
    let created = conn.created;
    l.wire_ops = (outs.len() as u64, conn.bytes);
    l.payloads = std::mem::take(&mut conn.payloads);
    drop(conn);
    let report = served
        .stop(created)?
        .ok_or("probe server without telemetry")?;
    let server_us = serve::server_run_us(&report);
    for (mut op, out) in outs {
        let out = out?;
        l.run_slices.extend(&out.slices);
        serve::attach_server_runs(&mut op, &out.runs, &server_us);
        l.absorb(&op);
    }
    l.server = Some((report, 1));
    l.check_coverage()
        .map_err(|e| format!("layer probe: {e}"))?;
    Ok(l)
}
