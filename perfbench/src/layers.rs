//! Per-layer samples and the per-layer metrics of a traced run.
//!
//! A traced run fills two [`Layers`]: one from the workload's own ops
//! and one from the fixed layer probe (see `probe.rs`). Each per-layer
//! metric is taken from the workload's own ops when they call that
//! layer, and from the probe otherwise, so every traced run reports
//! every metric.

use std::collections::BTreeMap;

use tm3270_core::{EngineTelemetry, RunStats};
use tm3270_harness::SweepReport;

use crate::report::Metrics;
use crate::stats;
use crate::trace::{OpRecord, CONSERVATION_NS, CONSERVATION_SHARE, COVERAGE_SHARE};

/// The eleven Table 5 kernels, in the paper's order.
pub const GOLDEN: [&str; 11] = [
    "memset",
    "memcpy",
    "filter",
    "rgb2yuv",
    "rgb2cmyk",
    "rgb2yiq",
    "mpeg2_a",
    "mpeg2_b",
    "mpeg2_c",
    "filmdet",
    "majority_sel",
];

/// Engine counters summed over runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineSums {
    /// Simulated instructions.
    pub instrs: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Host nanoseconds inside `run_with`.
    pub run_ns: u64,
    /// Instructions the fused engine ran.
    pub fused: u64,
    /// Instructions the fallback engine ran.
    pub fallback: u64,
    /// Full memory-model calls from the fused engine.
    pub mem_calls: u64,
}

impl EngineSums {
    fn add(&mut self, stats: &RunStats, run_ns: u64, engine: EngineTelemetry) {
        self.instrs += stats.instrs;
        self.cycles += stats.cycles;
        self.run_ns += run_ns;
        self.fused += engine.fused_instrs;
        self.fallback += engine.fallback_instrs;
        self.mem_calls += engine.mem_calls;
    }
}

/// Memory-model counters from `RunStats.mem`, summed over runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemSums {
    runs: u64,
    instrs: u64,
    cycles: u64,
    loads: u64,
    stores: u64,
    line_crossers: u64,
    dcache_accesses: u64,
    dcache_misses: u64,
    copyback_bytes: u64,
    prefetch_issued: u64,
    dram_transfers: u64,
    data_stall_cycles: u64,
}

impl MemSums {
    /// Adds one run's counters.
    pub fn add(&mut self, s: &RunStats) {
        let d = &s.mem.dcache;
        self.runs += 1;
        self.instrs += s.instrs;
        self.cycles += s.cycles;
        self.loads += s.mem.mem.loads;
        self.stores += s.mem.mem.stores;
        self.line_crossers += s.mem.mem.line_crossers;
        self.dcache_accesses += d.hits + d.partial_hits + d.misses;
        self.dcache_misses += d.misses;
        self.copyback_bytes += d.copyback_bytes;
        self.prefetch_issued += s.mem.prefetch.issued;
        self.dram_transfers += s.mem.dram.transfers;
        self.data_stall_cycles += s.data_stall_cycles;
    }
}

/// Snapshot probe results (medians over repeats, on one machine state).
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotProbe {
    /// Container bytes.
    pub bytes: u64,
    /// `Machine::snapshot`.
    pub snapshot_ms: f64,
    /// `Machine::restore` into a fresh machine.
    pub restore_ms: f64,
    /// `Snapshot::to_hex`.
    pub to_hex_ms: f64,
    /// `Snapshot::from_hex`.
    pub from_hex_ms: f64,
}

/// Everything one source of ops (the workload, or the probe) measured.
#[derive(Debug, Default)]
pub struct Layers {
    /// Self-time samples per span name, from traced ops.
    pub self_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Duration samples per span name, from traced ops.
    pub span_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Traced ops and their summed wall time.
    pub traced: (u64, u64),
    /// Untraced ops and their summed wall time.
    pub untraced: (u64, u64),
    /// Traced wall time outside every span.
    pub uncovered_ns: u64,
    /// Largest uncovered share of one op.
    pub max_gap_share: f64,
    /// Untraced-engine runs, all configs.
    pub engine: EngineSums,
    /// Untraced-engine runs on config D, per golden kernel.
    pub engine_d: BTreeMap<&'static str, EngineSums>,
    /// Runs with a profiling sink attached.
    pub profiled: EngineSums,
    /// Untraced runs interleaved with the profiled ones (same kernels).
    pub profiled_baseline_ns: u64,
    /// Memory counters of every in-process run.
    pub mem: MemSums,
    /// Sweep-engine telemetry (with the sweep's worker count).
    pub sweep: Option<(SweepReport, usize)>,
    /// Server telemetry (with the server's worker count).
    pub server: Option<(SweepReport, usize)>,
    /// Served ops and the frame bytes they moved both ways.
    pub wire_ops: (u64, u64),
    /// Captured request payloads, for the re-parse probe.
    pub payloads: Vec<String>,
    /// Quantum slices per served run to halt.
    pub run_slices: Vec<u64>,
    /// The snapshot probe.
    pub snapshot: Option<SnapshotProbe>,
    /// Conservation failures.
    pub errors: Vec<String>,
}

impl Layers {
    /// Folds in one finished op: wall time, self times, conservation.
    pub fn absorb(&mut self, op: &OpRecord) {
        if !op.traced {
            self.untraced.0 += 1;
            self.untraced.1 += op.wall_ns;
            return;
        }
        self.traced.0 += 1;
        self.traced.1 += op.wall_ns;
        match op.check_conservation(CONSERVATION_SHARE, CONSERVATION_NS) {
            Ok(gap) => {
                self.uncovered_ns += gap;
                let share = gap as f64 / op.wall_ns.max(1) as f64;
                self.max_gap_share = self.max_gap_share.max(share);
            }
            Err(e) => self.errors.push(e),
        }
        for span in &op.spans {
            self.span_ns.entry(span.name).or_default().push(span.ns());
        }
        if let Ok(times) = op.self_times() {
            for (name, ns) in times {
                self.self_ns.entry(name).or_default().push(ns);
            }
        }
    }

    /// The conservation failures of single ops, and whether the spans
    /// covered the traced ops as a whole.
    pub fn check_coverage(&self) -> Result<(), String> {
        if let Some(e) = self.errors.first() {
            return Err(format!(
                "{} ops failed conservation, first: {e}",
                self.errors.len()
            ));
        }
        let share = self.uncovered_ns as f64 / self.traced.1.max(1) as f64;
        if share > COVERAGE_SHARE {
            return Err(format!(
                "spans leave {share:.4} of traced op time uncovered"
            ));
        }
        Ok(())
    }

    /// Records one untraced-engine run.
    pub fn add_run(
        &mut self,
        kernel: &'static str,
        config_d: bool,
        stats: &RunStats,
        run_ns: u64,
        engine: EngineTelemetry,
    ) {
        self.engine.add(stats, run_ns, engine);
        if config_d {
            self.engine_d
                .entry(kernel)
                .or_default()
                .add(stats, run_ns, engine);
        }
        self.mem.add(stats);
    }

    fn samples_ms(&self, name: &str) -> Option<Vec<f64>> {
        let v = self.self_ns.get(name)?;
        (!v.is_empty()).then(|| v.iter().map(|&ns| ns as f64 / 1e6).collect())
    }

    fn mean_ms(&self, name: &str) -> Option<f64> {
        let v = self.samples_ms(name)?;
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }

    /// Median duration (children included) of span `name`.
    fn p50_ms(&self, name: &str) -> Option<f64> {
        let v = self.span_ns.get(name)?;
        (!v.is_empty())
            .then(|| stats::median(&v.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>()))
    }

    fn share_of_traced(&self, name: &str) -> Option<f64> {
        let total: u64 = self.self_ns.get(name)?.iter().sum();
        (self.traced.1 > 0).then(|| total as f64 / self.traced.1 as f64)
    }

    fn mem_ratio(
        &self,
        num: impl Fn(&MemSums) -> u64,
        den: impl Fn(&MemSums) -> u64,
    ) -> Option<f64> {
        let d = den(&self.mem);
        (d > 0).then(|| num(&self.mem) as f64 / d as f64)
    }
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

fn busy_share(report: &Option<(SweepReport, usize)>) -> Option<f64> {
    let (r, workers) = report.as_ref()?;
    let busy: u64 = r.workers.iter().map(|w| w.wall_us).sum();
    ratio(busy, r.wall_us * *workers as u64)
}

type Getter = Box<dyn Fn(&Layers) -> Option<f64>>;

/// The per-layer metrics: name, unit, and how to read it from a source.
fn table() -> Vec<(String, &'static str, Getter)> {
    let mut t: Vec<(String, &'static str, Getter)> = Vec::new();
    let mut put = |name: &str, unit: &'static str, g: Getter| t.push((name.to_string(), unit, g));

    put(
        "harness.worker_busy_share",
        "share",
        Box::new(|l| busy_share(&l.sweep)),
    );
    put(
        "harness.inflight_high_water",
        "count",
        Box::new(|l| l.sweep.as_ref().map(|(r, _)| r.inflight_high_water as f64)),
    );
    put("asm.build_ms", "ms", Box::new(|l| l.mean_ms("asm.build")));
    put(
        "asm.build_share",
        "share",
        Box::new(|l| l.share_of_traced("asm.build")),
    );
    put(
        "kernels.setup_ms",
        "ms",
        Box::new(|l| l.mean_ms("kernels.setup")),
    );
    put(
        "kernels.verify_ms",
        "ms",
        Box::new(|l| l.mean_ms("kernels.verify")),
    );
    put("core.new_ms", "ms", Box::new(|l| l.mean_ms("core.new")));
    put("core.run_ms", "ms", Box::new(|l| l.mean_ms("core.run")));
    put(
        "core.ns_per_instr",
        "ns",
        Box::new(|l| ratio(l.engine.run_ns, l.engine.instrs)),
    );
    put(
        "core.fused_share",
        "share",
        Box::new(|l| ratio(l.engine.fused, l.engine.fused + l.engine.fallback)),
    );
    put(
        "core.fused_share_profiled",
        "share",
        Box::new(|l| ratio(l.profiled.fused, l.profiled.fused + l.profiled.fallback)),
    );
    put(
        "core.mem_calls_per_instr",
        "count",
        Box::new(|l| ratio(l.engine.mem_calls, l.engine.fused)),
    );
    put(
        "core.cpi",
        "cycles",
        Box::new(|l| ratio(l.engine.cycles, l.engine.instrs)),
    );
    for k in GOLDEN {
        put(
            &format!("core.ns_per_instr.{k}"),
            "ns",
            Box::new(move |l| l.engine_d.get(k).and_then(|e| ratio(e.run_ns, e.instrs))),
        );
        put(
            &format!("core.mem_calls_per_instr.{k}"),
            "count",
            Box::new(move |l| l.engine_d.get(k).and_then(|e| ratio(e.mem_calls, e.fused))),
        );
    }
    put(
        "core.snapshot_bytes",
        "bytes",
        Box::new(|l| l.snapshot.map(|s| s.bytes as f64)),
    );
    put(
        "core.snapshot_ms",
        "ms",
        Box::new(|l| l.snapshot.map(|s| s.snapshot_ms)),
    );
    put(
        "core.restore_ms",
        "ms",
        Box::new(|l| l.snapshot.map(|s| s.restore_ms)),
    );
    put(
        "snapshot.to_hex_ms",
        "ms",
        Box::new(|l| l.snapshot.map(|s| s.to_hex_ms)),
    );
    put(
        "snapshot.from_hex_ms",
        "ms",
        Box::new(|l| l.snapshot.map(|s| s.from_hex_ms)),
    );
    put(
        "mem.loads_per_instr",
        "count",
        Box::new(|l| l.mem_ratio(|m| m.loads, |m| m.instrs)),
    );
    put(
        "mem.stores_per_instr",
        "count",
        Box::new(|l| l.mem_ratio(|m| m.stores, |m| m.instrs)),
    );
    put(
        "mem.line_crossers_per_instr",
        "count",
        Box::new(|l| l.mem_ratio(|m| m.line_crossers, |m| m.instrs)),
    );
    put(
        "mem.dcache_miss_ratio",
        "share",
        Box::new(|l| l.mem_ratio(|m| m.dcache_misses, |m| m.dcache_accesses)),
    );
    put(
        "mem.copyback_bytes",
        "bytes",
        Box::new(|l| l.mem_ratio(|m| m.copyback_bytes, |m| m.runs)),
    );
    put(
        "mem.prefetch_issued",
        "count",
        Box::new(|l| l.mem_ratio(|m| m.prefetch_issued, |m| m.runs)),
    );
    put(
        "mem.dram_transfers_per_instr",
        "count",
        Box::new(|l| l.mem_ratio(|m| m.dram_transfers, |m| m.instrs)),
    );
    put(
        "mem.data_stall_share",
        "share",
        Box::new(|l| l.mem_ratio(|m| m.data_stall_cycles, |m| m.cycles)),
    );
    for (metric, span) in [
        ("session.create_ms", "session.create"),
        ("session.load_ms", "session.load"),
        ("session.run_ms", "session.run"),
        ("session.verify_ms", "session.verify"),
        ("session.close_ms", "session.close"),
        ("session.snapshot_ms", "session.snapshot"),
        ("session.restore_ms", "session.restore"),
    ] {
        put(metric, "ms", Box::new(move |l| l.p50_ms(span)));
    }
    put(
        "session.run_slices",
        "count",
        Box::new(|l| {
            let s = &l.run_slices;
            ratio(s.iter().sum(), s.len() as u64)
        }),
    );
    put(
        "wire.bytes_per_op",
        "bytes",
        Box::new(|l| ratio(l.wire_ops.1, l.wire_ops.0)),
    );
    put("wire.parse_us", "us", Box::new(|l| parse_us(&l.payloads)));
    put(
        "server.worker_busy_share",
        "share",
        Box::new(|l| busy_share(&l.server)),
    );
    // `session.run` self time: client run latency minus the server-side
    // run wall time recorded as its `server.run` child.
    put(
        "server.queue_wait_ms",
        "ms",
        Box::new(|l| {
            l.self_ns
                .contains_key("server.run")
                .then(|| l.mean_ms("session.run"))
                .flatten()
        }),
    );
    put(
        "obs.overhead_ratio",
        "ratio",
        Box::new(|l| ratio(l.profiled.run_ns, l.profiled_baseline_ns)),
    );
    t
}

/// Mean `wire::parse_request` time per captured request payload.
fn parse_us(payloads: &[String]) -> Option<f64> {
    if payloads.is_empty() {
        return None;
    }
    let start = std::time::Instant::now();
    for p in payloads {
        let parsed = tm3270_session::wire::parse_request(std::hint::black_box(p));
        assert!(parsed.is_ok(), "a captured request no longer parses");
    }
    Some(start.elapsed().as_nanos() as f64 / 1e3 / payloads.len() as f64)
}

/// Trace-quality metrics, from the workload's own ops only.
fn trace_metrics(own: &Layers, workers: usize, m: &mut Metrics) {
    let per_s = |(n, ns): (u64, u64)| n as f64 * workers as f64 / (ns.max(1) as f64 / 1e9);
    m.put("trace.ops", own.traced.0 as f64, "count");
    m.put("trace.ops_per_s", per_s(own.traced), "1/s");
    m.put("trace.untraced_ops_per_s", per_s(own.untraced), "1/s");
    m.put(
        "trace.uncovered_share",
        own.uncovered_ns as f64 / own.traced.1.max(1) as f64,
        "share",
    );
    m.put("trace.max_gap_share", own.max_gap_share, "share");
}

/// Every per-layer metric name, in emission order.
#[cfg(test)]
pub fn metric_names() -> Vec<String> {
    let mut names: Vec<String> = table().into_iter().map(|(n, _, _)| n).collect();
    let mut m = Metrics::default();
    trace_metrics(&Layers::default(), 1, &mut m);
    names.extend(m.iter().map(|(n, _, _)| n.clone()));
    names
}

/// The per-layer metrics of a traced run: each from the workload's own
/// ops when it has them, else from the probe.
pub fn metrics(own: &Layers, probe: &Layers, workers: usize) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    for (name, unit, get) in table() {
        let value = get(own)
            .or_else(|| get(probe))
            .ok_or_else(|| format!("no samples for per-layer metric {name}"))?;
        m.put(name, value, unit);
    }
    trace_metrics(own, workers, &mut m);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    fn op(wall_ns: u64, covered_ns: u64) -> OpRecord {
        OpRecord {
            wall_ns,
            spans: vec![Span {
                name: "core.run",
                parent: None,
                start_ns: 0,
                end_ns: covered_ns,
            }],
            traced: true,
            wait_ns: 0,
        }
    }

    #[test]
    fn coverage_fails_on_a_gap_every_op_leaves() {
        // 1.5 ms of every 10 ms op is outside the spans: within the
        // per-op allowance, but not within the whole-run coverage.
        let mut l = Layers::default();
        for _ in 0..100 {
            l.absorb(&op(10_000_000, 8_500_000));
        }
        assert!(l.errors.is_empty());
        assert!(l.check_coverage().is_err());

        let mut ok = Layers::default();
        for _ in 0..100 {
            ok.absorb(&op(10_000_000, 9_950_000));
        }
        ok.absorb(&op(10_000_000, 8_500_000));
        assert_eq!(ok.check_coverage(), Ok(()));
        assert_eq!(ok.self_ns["core.run"].len(), 101);
    }

    #[test]
    fn a_single_op_outside_its_tolerance_fails_the_run() {
        let mut l = Layers::default();
        l.absorb(&op(100_000_000, 10_000_000));
        assert_eq!(l.errors.len(), 1);
        assert!(l.check_coverage().is_err());
    }
}
