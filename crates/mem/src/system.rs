//! The composed TM3270/TM3260 memory system: data cache with cache write
//! buffer and write-miss policy, instruction cache, region prefetch unit
//! and the shared DRAM channel (paper, §4).
//!
//! Functional data always lives in the flat backing memory; the cache
//! arrays model presence, validity and recency, which drive the timing
//! (stall cycles) and traffic (DRAM bytes) that the paper's evaluation
//! depends on.

use crate::cache::{CacheArray, CacheGeometry, CacheStats, Lookup};
use crate::dram::{Dram, DramConfig, DramStats, Priority};
use crate::prefetch::{PrefetchStats, PrefetchUnit, Region};
use tm3270_encode::{SectionReader, SectionWriter, SnapshotError};
use tm3270_isa::{CacheOp, DataMemory, FlatMemory, PfParam};
use tm3270_obs::{CacheId, CacheOutcome, MemTxKind, SinkHandle, TraceEvent};

/// `ceil` for the non-negative sub-2^53 stall values this module
/// produces, without the libm `ceil` call the default x86-64 target
/// emits (no SSE4.1 `roundsd`). Truncate, then bump if fractional.
#[inline]
fn ceil_u64(s: f64) -> u64 {
    let t = s as u64;
    if t as f64 == s {
        t
    } else {
        t + 1
    }
}

fn outcome_of(lookup: Lookup) -> CacheOutcome {
    match lookup {
        Lookup::Hit => CacheOutcome::Hit,
        Lookup::PartialHit => CacheOutcome::PartialHit,
        Lookup::Miss => CacheOutcome::Miss,
    }
}

/// Configuration of the complete memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Data-cache geometry.
    pub dcache: CacheGeometry,
    /// Instruction-cache geometry.
    pub icache: CacheGeometry,
    /// `true` = allocate-on-write-miss (TM3270), `false` =
    /// fetch-on-write-miss (TM3260). Paper, Table 6.
    pub allocate_on_write_miss: bool,
    /// CPU clock in MHz (240 for the TM3260, 350 for the TM3270).
    pub cpu_freq_mhz: f64,
    /// The DRAM channel.
    pub dram: DramConfig,
    /// Cache-write-buffer capacity in pending stores.
    pub cwb_entries: u32,
    /// Prefetch request-queue capacity.
    pub prefetch_queue: usize,
    /// Background-traffic backpressure: when the DRAM channel is booked
    /// further than this many CPU cycles ahead, issuing more background
    /// traffic (write-miss fetches, copy-backs) stalls the core — the
    /// finite miss/write queue of the bus interface unit.
    pub bg_backpressure_cycles: f64,
    /// Size of the flat backing memory in bytes (power of two).
    pub mem_size: usize,
    /// Strict access checking: when `true`, accesses beyond `mem_size`
    /// raise `ExecError::OutOfBoundsAccess` instead of wrapping, and
    /// non-naturally-aligned accesses raise `ExecError::MisalignedAccess`.
    /// Off by default — the TM3270 architecturally supports non-aligned
    /// accesses and a wrap-around flat address space; this is a
    /// diagnostic mode for the fault-injection harness.
    pub strict_access: bool,
}

impl MemConfig {
    /// The TM3270 memory system (Tables 1 and 6) at 350 MHz.
    pub fn tm3270() -> MemConfig {
        MemConfig {
            dcache: CacheGeometry::tm3270_dcache(),
            icache: CacheGeometry::tm3270_icache(),
            allocate_on_write_miss: true,
            cpu_freq_mhz: 350.0,
            dram: DramConfig::paper_default(),
            cwb_entries: 8,
            prefetch_queue: 8,
            bg_backpressure_cycles: 300.0,
            mem_size: 16 << 20,
            strict_access: false,
        }
    }

    /// The TM3260 memory system (Table 6) at 240 MHz.
    pub fn tm3260() -> MemConfig {
        MemConfig {
            dcache: CacheGeometry::tm3260_dcache(),
            icache: CacheGeometry::tm3260_icache(),
            allocate_on_write_miss: false,
            cpu_freq_mhz: 240.0,
            dram: DramConfig::paper_default(),
            cwb_entries: 8,
            prefetch_queue: 8,
            // The TM3260's older bus interface tracks far fewer
            // outstanding transfers than the TM3270's.
            bg_backpressure_cycles: 20.0,
            mem_size: 16 << 20,
            strict_access: false,
        }
    }
}

/// Aggregate memory-system statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// Demand load operations.
    pub loads: u64,
    /// Demand store operations.
    pub stores: u64,
    /// Data-side stall cycles (cache misses, CWB back-pressure,
    /// prefetch waits).
    pub data_stall_cycles: f64,
    /// Stall cycles spent waiting for an in-flight prefetch (late
    /// prefetch).
    pub prefetch_wait_cycles: f64,
    /// Instruction-side stall cycles.
    pub instr_stall_cycles: f64,
    /// Instruction fetch requests.
    pub ifetches: u64,
    /// Data accesses that crossed a cache-line boundary (non-aligned,
    /// §4.2).
    pub line_crossers: u64,
}

/// A revocable line-resident access window, returned by
/// [`MemorySystem::try_open_window`]. While open, the holder may service
/// loads and stores confined to `[base, base + len)` with raw flat-memory
/// access plus the indexed hit shortcuts
/// [`MemorySystem::window_hit_load`] /
/// [`window_hit_store`](MemorySystem::window_hit_store), which apply
/// the hit's full architectural effects immediately — nothing is
/// deferred, so the model stays exact at every step. Any condition
/// that could invalidate the preconditions — a structural cache
/// mutation, prefetch activity, a snapshot restore — revokes the
/// window (the holder re-validates against the shape epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineWindow {
    /// Line base address (aligned to `len`).
    pub base: u32,
    /// Window length: the data-cache line size in bytes.
    pub len: u32,
    /// The line's slot in the cache array at open time. Valid while
    /// the cache's shape epoch is unchanged — lines never migrate
    /// between slots without a shape bump — so window hits address the
    /// line directly instead of probing for it, and a revoke check is
    /// an indexed tag compare
    /// ([`window_revalidate`](MemorySystem::window_revalidate)).
    pub line_index: u32,
    /// Constant per-access stall of a hit under quiescence. Zero in
    /// this model — cache hits are fully pipelined (§4.2) — but carried
    /// explicitly so the holder's accounting stays honest if a hit
    /// latency is ever introduced.
    pub hit_stall_cycles: u64,
    /// Whether the line was already dirty when the window opened.
    pub dirty: bool,
}

/// The composed memory system.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemConfig,
    flat: FlatMemory,
    dcache: CacheArray,
    icache: CacheArray,
    prefetch: PrefetchUnit,
    dram: Dram,
    /// Current CPU cycle, set by the pipeline before executing an
    /// instruction's operations.
    now: f64,
    /// VLIW instruction index of the requesting instruction, set by the
    /// pipeline (only when tracing) so cache-access events carry the
    /// requesting PC. Purely presentational: not snapshotted, no effect
    /// on timing.
    pc: usize,
    /// Stall cycles accumulated since `begin_instr`.
    stall: f64,
    cwb_pending: f64,
    cwb_last: f64,
    stats: MemStats,
    /// Trace-event sink (disabled by default; see `tm3270-obs`).
    sink: SinkHandle,
}

impl MemorySystem {
    /// Creates a memory system from a configuration.
    pub fn new(config: MemConfig) -> MemorySystem {
        MemorySystem {
            flat: FlatMemory::new(config.mem_size),
            dcache: CacheArray::new(config.dcache),
            icache: CacheArray::new(config.icache),
            prefetch: PrefetchUnit::new(config.prefetch_queue),
            dram: Dram::new(config.dram, config.cpu_freq_mhz),
            now: 0.0,
            pc: 0,
            stall: 0.0,
            cwb_pending: 0.0,
            cwb_last: 0.0,
            stats: MemStats::default(),
            sink: SinkHandle::disabled(),
            config,
        }
    }

    /// Attaches a trace sink; memory-side events (cache accesses and
    /// evictions, prefetch activity, DRAM transactions) flow to it. Pass
    /// [`SinkHandle::disabled`] to detach.
    pub fn attach_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    fn emit_evict(&self, cache: CacheId, victim: &crate::cache::Victim) {
        self.sink.emit_with(|| TraceEvent::CacheEvict {
            cycle: self.now + self.stall,
            cache,
            base: victim.base,
            copyback_bytes: victim.copyback_bytes,
        });
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Direct access to the flat backing memory (for loading workload data
    /// and inspecting results).
    pub fn flat(&self) -> &FlatMemory {
        &self.flat
    }

    /// Mutable access to the flat backing memory.
    pub fn flat_mut(&mut self) -> &mut FlatMemory {
        &mut self.flat
    }

    /// Configures a prefetch region directly (equivalent to the three
    /// `stpf*` MMIO stores).
    pub fn set_prefetch_region(&mut self, region: u8, r: Region) {
        self.prefetch.set_region(region, r);
    }

    /// Records the VLIW instruction index of the instruction about to
    /// access memory, so trace events can carry the requesting PC. The
    /// pipeline calls this only when a sink is attached; untraced runs
    /// never pay the store.
    #[inline]
    pub fn set_pc(&mut self, pc: usize) {
        self.pc = pc;
    }

    /// Whether any prefetch request is in flight on the DRAM channel.
    /// While this holds, [`begin_instr`](Self::begin_instr) must be
    /// called every instruction so completions are absorbed on the
    /// exact cycle they land; otherwise instructions without memory
    /// ops may skip the call entirely.
    #[inline]
    pub fn prefetch_in_flight(&self) -> bool {
        self.prefetch.has_in_flight()
    }

    /// Advances the memory clock without starting an instruction: the
    /// cheap substitute for [`begin_instr`](Self::begin_instr) on
    /// instructions with no memory operations (and no prefetch in
    /// flight). Nothing reads `now` before the next `begin_instr`
    /// overwrites it, but snapshots serialize it — an engine that
    /// skipped the update entirely would be distinguishable by its
    /// snapshot bytes.
    #[inline]
    pub fn set_now(&mut self, now: u64) {
        self.now = now as f64;
    }

    /// Starts timing a new instruction at CPU cycle `now`. Costs two
    /// stores and one empty-check when no prefetch is in flight (the
    /// common case: this runs once per executed instruction).
    pub fn begin_instr(&mut self, now: u64) {
        self.now = now as f64;
        self.stall = 0.0;
        if self.prefetch.has_in_flight() {
            self.absorb_prefetch_completions();
        }
    }

    /// Returns and clears the stall cycles accumulated since the last
    /// [`begin_instr`](Self::begin_instr).
    pub fn take_stall(&mut self) -> u64 {
        let s = self.stall;
        self.stall = 0.0;
        // Fast path for the overwhelmingly common stall-free
        // instruction: `f64::ceil` is a libm call on the default x86-64
        // target (no SSE4.1 `roundsd`), and worth branching around.
        if s == 0.0 {
            0
        } else {
            ceil_u64(s)
        }
    }

    /// Attempts to open a line-resident access window over the cache
    /// line containing `addr`: the fused engine's licence to service
    /// same-line loads and stores with raw [`FlatMemory`] access plus
    /// the indexed hit shortcuts
    /// [`window_hit_load`](Self::window_hit_load) /
    /// [`window_hit_store`](Self::window_hit_store), skipping the
    /// probe, segmentation and prefetch-observation work the window
    /// preconditions prove to be no-ops. A holder may keep several
    /// windows open at once (a window *set*).
    ///
    /// A window opens only when timing is *provably* inert for same-line
    /// hits:
    ///
    /// * the prefetch unit is quiescent (no region armed, nothing
    ///   queued, nothing in flight) — so the per-load observation hook,
    ///   the issue loop and completion absorption are all no-ops, and
    ///   `begin_instr` degenerates to the `set_now` the fused engine
    ///   already performs;
    /// * the line is resident with every byte valid and its prefetched
    ///   bit clear (`CacheArray::window_probe`) — so every same-line
    ///   access is a plain hit with no demand fill, no refill merge and
    ///   no prefetch-hit accounting.
    ///
    /// Under those conditions a same-line hit makes no DRAM request, so
    /// DRAM-channel state cannot diverge; the only remaining timing
    /// state is the cache write buffer, which
    /// [`window_hit_store`](Self::window_hit_store) drives against the
    /// real occupancy fields. The probe is side-effect free: a refused
    /// or unused window leaves no trace.
    pub fn try_open_window(&self, addr: u32) -> Option<LineWindow> {
        if !self.prefetch.is_quiescent() {
            return None;
        }
        let (line_index, dirty) = self.dcache.window_probe(addr)?;
        let geom = self.config.dcache;
        Some(LineWindow {
            base: geom.line_base(addr),
            len: geom.line,
            line_index,
            hit_stall_cycles: 0,
            dirty,
        })
    }

    /// Timing and statistics of a window-serviced load hit, applied
    /// directly to the line at `index` (the
    /// [`LineWindow::line_index`] captured at open time): bit-identical
    /// to [`access_load`](Self::access_load) of a same-line hit under
    /// window preconditions — load count, cache recency/hit/LRU — with
    /// the probe, byte-coverage, segmentation and prefetch-observation
    /// work all provably no-ops skipped.
    #[inline]
    pub fn window_hit_load(&mut self, index: u32) {
        self.stats.loads += 1;
        self.dcache.window_hit_load(index);
    }

    /// Timing and statistics of a window-serviced store hit:
    /// bit-identical to [`access_store`](Self::access_store) of a
    /// same-line hit under window preconditions, including the write
    /// buffer's drain-and-enqueue against the real occupancy state.
    /// `extra_stall` is stall time the caller has charged this
    /// instruction but not yet pushed into the model (the fused
    /// engine's window-local stall accumulator) — the drain clock runs
    /// at `now + stall + extra_stall`, exactly where the full path's
    /// would. Returns `true` when the write buffer back-pressured,
    /// costing one stall cycle the *caller* must charge (via
    /// [`add_stall`](Self::add_stall) when full timing is active this
    /// instruction, or its local accumulator otherwise); the
    /// `data_stall_cycles` statistic is counted here either way.
    #[inline]
    pub fn window_hit_store(&mut self, index: u32, extra_stall: f64) -> bool {
        self.stats.stores += 1;
        self.dcache.window_hit_store(index);
        let t = self.now + self.stall + extra_stall;
        let drained = (t - self.cwb_last).max(0.0) * 2.0;
        self.cwb_pending = (self.cwb_pending - drained).max(0.0);
        self.cwb_last = t;
        let mut backpressure = false;
        if self.cwb_pending >= f64::from(self.config.cwb_entries) {
            self.stats.data_stall_cycles += 1.0;
            self.cwb_pending -= 1.0;
            backpressure = true;
        }
        self.cwb_pending += 1.0;
        backpressure
    }

    /// Re-checks a window's precondition after a data-cache structural
    /// mutation, by index — see `CacheArray::window_revalidate`. The
    /// caller separately re-checks prefetch quiescence.
    #[inline]
    pub fn window_revalidate(&self, index: u32, base: u32) -> bool {
        self.dcache.window_revalidate(index, base)
    }

    /// The data cache's structural-mutation epoch (see
    /// `CacheArray::shape_epoch`): if this and
    /// [`prefetch_quiescent`](Self::prefetch_quiescent) are unchanged
    /// across full-model activity, every open window's preconditions
    /// provably still hold and per-line re-validation can be skipped.
    #[inline]
    pub fn dcache_epoch(&self) -> u64 {
        self.dcache.shape_epoch()
    }

    /// Whether the prefetch unit is quiescent (no region armed, nothing
    /// queued, nothing in flight) — the prefetch-side half of the
    /// window-open precondition, exposed for cheap re-validation.
    #[inline]
    pub fn prefetch_quiescent(&self) -> bool {
        self.prefetch.is_quiescent()
    }

    /// Adds already-attributed stall cycles to the current instruction's
    /// stall accumulator, so a window-servicing instruction that later
    /// falls back to the full path carries its window-side CWB stalls
    /// into the same [`take_stall`](Self::take_stall). The statistics
    /// side is *not* touched — window stalls are charged to
    /// `data_stall_cycles` once, at commit.
    #[inline]
    pub fn add_stall(&mut self, cycles: f64) {
        self.stall += cycles;
    }

    /// Raw flat-memory read of a window-serviced load:
    /// [`load_le`](DataMemory::load_le) minus the timing model. Legal
    /// only for accesses confined to an open [`LineWindow`], paired
    /// with [`window_hit_load`](Self::window_hit_load) for the timing
    /// and statistics effects.
    #[inline]
    pub fn window_load_le(&self, addr: u32, bytes: usize) -> u32 {
        match bytes {
            1 => u32::from(self.flat.read_fixed::<1>(addr)[0]),
            2 => u32::from(u16::from_le_bytes(self.flat.read_fixed::<2>(addr))),
            4 => u32::from_le_bytes(self.flat.read_fixed::<4>(addr)),
            _ => {
                let mut buf = [0u8; 4];
                self.flat.read_into(addr, &mut buf[..bytes]);
                u32::from_le_bytes(buf)
            }
        }
    }

    /// Raw flat-memory fill of `buf` for a window-serviced multi-byte
    /// load ([`load_bytes`](DataMemory::load_bytes) minus the timing
    /// model); same contract as [`window_load_le`](Self::window_load_le).
    #[inline]
    pub fn window_load_bytes(&self, addr: u32, buf: &mut [u8]) {
        self.flat.read_into(addr, buf);
    }

    /// Raw flat-memory write of a window-serviced store:
    /// [`store_le`](DataMemory::store_le) minus the timing model; same
    /// contract as [`window_load_le`](Self::window_load_le), paired
    /// with [`window_hit_store`](Self::window_hit_store).
    #[inline]
    pub fn window_store_le(&mut self, addr: u32, bytes: usize, value: u32) {
        let buf = value.to_le_bytes();
        match bytes {
            1 => self.flat.write_fixed::<1>(addr, [buf[0]]),
            2 => self.flat.write_fixed::<2>(addr, [buf[0], buf[1]]),
            4 => self.flat.write_fixed::<4>(addr, buf),
            _ => self.flat.write_from(addr, &buf[..bytes]),
        }
    }

    fn absorb_prefetch_completions(&mut self) {
        // Pop-style drain: no intermediate `Vec`s (the old `partition`
        // allocated two per call), same completion order.
        while let Some(base) = self.prefetch.pop_completed(self.now + self.stall) {
            if let Some(victim) = self.dcache.fill(base, true) {
                let t = self.now + self.stall;
                let completion = self
                    .dram
                    .request(t, victim.copyback_bytes, Priority::Background);
                self.sink.emit_with(|| TraceEvent::CacheEvict {
                    cycle: t,
                    cache: CacheId::Data,
                    base: victim.base,
                    copyback_bytes: victim.copyback_bytes,
                });
                self.sink.emit_with(|| TraceEvent::DramTransaction {
                    cycle: t,
                    kind: MemTxKind::Copyback,
                    bytes: victim.copyback_bytes,
                    completion,
                });
            }
        }
    }

    /// Schedules a background transfer, stalling the core if the channel
    /// is booked too far ahead (finite BIU queue).
    fn background_request(&mut self, bytes: u32, kind: MemTxKind) -> f64 {
        let t = self.now + self.stall;
        let completion = self.dram.request(t, bytes, Priority::Background);
        self.sink.emit_with(|| TraceEvent::DramTransaction {
            cycle: t,
            kind,
            bytes,
            completion,
        });
        let lag = self.dram.free_at() - t;
        if lag > self.config.bg_backpressure_cycles {
            let wait = lag - self.config.bg_backpressure_cycles;
            self.stall += wait;
            self.stats.data_stall_cycles += wait;
        }
        completion
    }

    fn issue_queued_prefetches(&mut self) {
        let line = self.config.dcache.line;
        // Prefetches are opportunistic: they are only issued while the
        // channel is not badly congested, and never stall the core.
        while self.dram.free_at() - (self.now + self.stall) <= self.config.bg_backpressure_cycles {
            match self.prefetch.pop_request() {
                Some(base) => {
                    let t = self.now + self.stall;
                    let completion = self.dram.request(t, line, Priority::Background);
                    self.prefetch.mark_in_flight(base, completion);
                    self.sink
                        .emit_with(|| TraceEvent::PrefetchIssue { cycle: t, base });
                    self.sink.emit_with(|| TraceEvent::DramTransaction {
                        cycle: t,
                        kind: MemTxKind::Prefetch,
                        bytes: line,
                        completion,
                    });
                }
                None => break,
            }
        }
    }

    /// Segments `[addr, addr + len)` by cache-line boundary (ordinary
    /// accesses split into at most two segments: the paper's `addr_lo` /
    /// `addr_hi` pair, §4.2; bulk harness reads may span many lines).
    /// An iterator, not a `Vec`: segmentation runs on every load, store
    /// and instruction fetch, and must not allocate.
    fn segments(geom: CacheGeometry, addr: u32, len: u32) -> LineSegments {
        LineSegments {
            a: addr,
            remaining: len,
            line: geom.line,
        }
    }

    fn demand_fill(&mut self, base: u32, prefetched_wait: bool) {
        let t = self.now + self.stall;
        // A line already being prefetched is awaited, not re-fetched.
        if let Some(completion) = self.prefetch.in_flight_completion(base) {
            if completion > t {
                let wait = completion - t;
                self.stall += wait;
                self.stats.prefetch_wait_cycles += wait;
                if prefetched_wait {
                    self.stats.data_stall_cycles += wait;
                }
                self.sink.emit_with(|| TraceEvent::PrefetchLate {
                    cycle: t,
                    base,
                    wait,
                });
            }
            self.absorb_prefetch_completions();
            return;
        }
        let completion = self
            .dram
            .request(t, self.config.dcache.line, Priority::Demand);
        self.sink.emit_with(|| TraceEvent::DramTransaction {
            cycle: t,
            kind: MemTxKind::DemandFill,
            bytes: self.config.dcache.line,
            completion,
        });
        let wait = completion - t;
        self.stall += wait;
        if prefetched_wait {
            self.stats.data_stall_cycles += wait;
        }
        if let Some(victim) = self.dcache.fill(base, false) {
            let cb = self
                .dram
                .request(completion, victim.copyback_bytes, Priority::Background);
            self.sink.emit_with(|| TraceEvent::CacheEvict {
                cycle: completion,
                cache: CacheId::Data,
                base: victim.base,
                copyback_bytes: victim.copyback_bytes,
            });
            self.sink.emit_with(|| TraceEvent::DramTransaction {
                cycle: completion,
                kind: MemTxKind::Copyback,
                bytes: victim.copyback_bytes,
                completion: cb,
            });
        }
    }

    /// Outlined `CacheAccess` emission for the data cache — keeps the
    /// untraced demand-access path compact (the disabled path pays only
    /// the `enabled()` branch at the call site).
    #[cold]
    #[inline(never)]
    fn emit_cache_access(&self, addr: u32, lookup: Lookup, prefetch_hit: bool) {
        self.sink.emit(TraceEvent::CacheAccess {
            cycle: self.now + self.stall,
            cache: CacheId::Data,
            addr,
            outcome: outcome_of(lookup),
            prefetch_hit,
            pc: self.pc,
        });
    }

    /// One line-confined segment of a demand load: lookup, optional
    /// trace emission, demand fill on a miss.
    #[inline]
    fn load_segment(&mut self, a: u32, n: u32, tracing: bool, geom: CacheGeometry) {
        let pf_before = if tracing {
            self.dcache.stats().prefetch_hits
        } else {
            0
        };
        let lookup = self.dcache.lookup(a, n);
        if tracing {
            let prefetch_hit = self.dcache.stats().prefetch_hits > pf_before;
            self.emit_cache_access(a, lookup, prefetch_hit);
        }
        match lookup {
            Lookup::Hit => {}
            Lookup::PartialHit | Lookup::Miss => {
                self.demand_fill(geom.line_base(a), true);
            }
        }
    }

    /// Timing for a demand load of `len` bytes at `addr`.
    fn access_load(&mut self, addr: u32, len: u32) {
        self.stats.loads += 1;
        let geom = self.config.dcache;
        let tracing = self.sink.enabled();
        // Scalar accesses almost never straddle a line: peel the
        // single-segment case past the segmentation iterator.
        if addr & !(geom.line - 1) == addr.wrapping_add(len - 1) & !(geom.line - 1) {
            self.load_segment(addr, len, tracing, geom);
        } else {
            for (seg, (a, n)) in Self::segments(geom, addr, len).enumerate() {
                if seg == 1 {
                    self.stats.line_crossers += 1;
                }
                self.load_segment(a, n, tracing, geom);
            }
        }
        // Region prefetch observation (§2.3): triggered by the load
        // address. With no active region the observation can't match
        // (and records nothing), and with an empty queue the issue loop
        // is a no-op — skip both so kernels that never configure
        // prefetching don't pay per load.
        if self.prefetch.any_region_active() {
            let dcache = &self.dcache;
            let line = geom.line;
            let _ = self
                .prefetch
                .observe_load(addr, line, |base| dcache.contains(base));
        }
        if self.prefetch.has_queued() {
            self.issue_queued_prefetches();
        }
    }

    /// One line-confined segment of a demand store.
    ///
    /// Untraced stores use the fused lookup+write (one tag search); the
    /// traced path keeps the split calls so event order is unchanged. A
    /// miss still writes explicitly after the allocate/fill below.
    #[inline]
    fn store_segment(&mut self, a: u32, n: u32, tracing: bool, geom: CacheGeometry) {
        let lookup = if tracing {
            let l = self.dcache.lookup(a, n);
            self.emit_cache_access(a, l, false);
            l
        } else {
            self.dcache.lookup_write(a, n)
        };
        match lookup {
            Lookup::Hit | Lookup::PartialHit => {
                if tracing {
                    self.dcache.write(a, n);
                }
            }
            Lookup::Miss => {
                if self.config.allocate_on_write_miss {
                    // Tag-only allocation: no fetch, no stall (§4.1).
                    if let Some(victim) = self.dcache.allocate(geom.line_base(a)) {
                        self.emit_evict(CacheId::Data, &victim);
                        self.background_request(victim.copyback_bytes, MemTxKind::Copyback);
                    }
                } else {
                    // Fetch-on-write-miss: the line is read from
                    // memory. The write buffer lets the store retire
                    // without waiting for the data, so the fetch is
                    // background traffic — its cost is the DRAM
                    // bandwidth it consumes (back-pressure when the
                    // BIU queue fills).
                    self.background_request(geom.line, MemTxKind::WriteFetch);
                    if let Some(victim) = self.dcache.fill(geom.line_base(a), false) {
                        self.emit_evict(CacheId::Data, &victim);
                        self.background_request(victim.copyback_bytes, MemTxKind::Copyback);
                    }
                }
                self.dcache.write(a, n);
            }
        }
    }

    /// Timing for a demand store of `len` bytes at `addr`.
    fn access_store(&mut self, addr: u32, len: u32) {
        self.stats.stores += 1;
        let geom = self.config.dcache;
        let tracing = self.sink.enabled();
        // Same single-segment peel as `access_load`.
        if addr & !(geom.line - 1) == addr.wrapping_add(len - 1) & !(geom.line - 1) {
            self.store_segment(addr, len, tracing, geom);
        } else {
            for (seg, (a, n)) in Self::segments(geom, addr, len).enumerate() {
                if seg == 1 {
                    self.stats.line_crossers += 1;
                }
                self.store_segment(a, n, tracing, geom);
            }
        }
        // Cache write buffer: drains up to two pending stores per cycle
        // (the 128-bit bit-write SRAM port absorbs merged stores, §4.2);
        // back-pressure stalls the pipeline.
        let t = self.now + self.stall;
        let drained = (t - self.cwb_last).max(0.0) * 2.0;
        self.cwb_pending = (self.cwb_pending - drained).max(0.0);
        self.cwb_last = t;
        if self.cwb_pending >= f64::from(self.config.cwb_entries) {
            self.stall += 1.0;
            self.stats.data_stall_cycles += 1.0;
            self.cwb_pending -= 1.0;
        }
        self.cwb_pending += 1.0;
    }

    /// One line-confined segment of an instruction fetch. Returns the
    /// stall cycles this segment adds on top of `stall`.
    #[inline]
    fn fetch_segment(&mut self, now: f64, stall: f64, a: u32, n: u32, geom: CacheGeometry) -> f64 {
        let lookup = self.icache.lookup(a, n);
        if self.sink.enabled() {
            self.sink.emit(TraceEvent::CacheAccess {
                cycle: now + stall,
                cache: CacheId::Instr,
                addr: a,
                outcome: outcome_of(lookup),
                prefetch_hit: false,
                pc: self.pc,
            });
        }
        if lookup == Lookup::Hit {
            return 0.0;
        }
        let t = now + stall;
        let completion = self.dram.request(t, geom.line, Priority::Demand);
        self.sink.emit_with(|| TraceEvent::DramTransaction {
            cycle: t,
            kind: MemTxKind::IFetch,
            bytes: geom.line,
            completion,
        });
        if let Some(victim) = self.icache.fill(geom.line_base(a), false) {
            self.sink.emit_with(|| TraceEvent::CacheEvict {
                cycle: t,
                cache: CacheId::Instr,
                base: victim.base,
                copyback_bytes: victim.copyback_bytes,
            });
        }
        completion - t
    }

    /// Timing for an instruction fetch of `len` bytes at `addr`. Returns
    /// the stall cycles (not accumulated into the data-side stall).
    pub fn fetch_instr(&mut self, now: u64, addr: u32, len: u32) -> u64 {
        self.stats.ifetches += 1;
        let geom = self.config.icache;
        let len = len.max(1);
        let mut stall = 0.0;
        // Single-segment peel: the fused engine probes 32-byte chunks
        // that never straddle a line, so nearly every fetch lands here.
        if addr & !(geom.line - 1) == addr.wrapping_add(len - 1) & !(geom.line - 1) {
            stall = self.fetch_segment(now as f64, 0.0, addr, len, geom);
            if stall == 0.0 {
                return 0;
            }
        } else {
            for (a, n) in Self::segments(geom, addr, len) {
                stall += self.fetch_segment(now as f64, stall, a, n, geom);
            }
        }
        self.stats.instr_stall_cycles += stall;
        // Same libm-avoiding fast path as `take_stall`: almost every
        // fetch hits the instruction cache and stalls zero cycles.
        if stall == 0.0 {
            0
        } else {
            ceil_u64(stall)
        }
    }

    /// A point-in-time snapshot of all statistics.
    pub fn stats(&self) -> FullStats {
        FullStats {
            mem: self.stats,
            dcache: self.dcache.stats(),
            icache: self.icache.stats(),
            prefetch: self.prefetch.stats(),
            dram: self.dram.stats(),
        }
    }

    /// Serializes the complete mutable state of the memory system —
    /// backing memory, both cache arrays, prefetch unit, DRAM channel,
    /// write-buffer occupancy and statistics — into one snapshot
    /// section. The flat memory is stored as a page table: the memory
    /// size, a page count, then an offset and the bytes of every
    /// [`FlatMemory::page_len`] page holding a non-zero byte, in
    /// ascending address order. Snapshot size is thus proportional to
    /// the touched footprint, and the bytes depend only on memory
    /// contents.
    pub fn save_state(&self, w: &mut SectionWriter<'_>) {
        let pages: Vec<(usize, &[u8])> = self.flat.nonzero_pages().collect();
        w.u64(self.flat.len() as u64);
        w.u64(pages.len() as u64);
        for (offset, page) in pages {
            w.u64(offset as u64);
            w.bytes(page);
        }
        w.f64(self.now);
        w.f64(self.stall);
        w.f64(self.cwb_pending);
        w.f64(self.cwb_last);
        self.stats.save_state(w);
        self.dcache.save_state(w);
        self.icache.save_state(w);
        self.prefetch.save_state(w);
        self.dram.save_state(w);
    }

    /// Restores state saved by [`save_state`](Self::save_state) into a
    /// system built from the same configuration. The trace sink and the
    /// configuration itself are untouched.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncation, a mismatch against this
    /// system's configuration (memory size, cache geometry, queue
    /// capacity) or a malformed page table (a page count larger than the
    /// memory, or page offsets that are misaligned, out of range,
    /// unsorted or duplicated). The system state is unspecified after an
    /// error.
    pub fn load_state(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        let size = self.flat.len() as u64;
        let page = self.flat.page_len() as u64;
        if r.u64("memory size")? != size {
            return Err(SnapshotError::Corrupt {
                what: "memory size does not match the configuration",
            });
        }
        let count = r.u64("memory page count")?;
        if count > size / page {
            return Err(SnapshotError::Corrupt {
                what: "memory page count exceeds the memory size",
            });
        }
        self.flat.clear();
        // The lowest offset the next page may start at: offsets must be
        // strictly ascending, so unsorted and duplicated pages both trip.
        let mut next = 0u64;
        for _ in 0..count {
            let offset = r.u64("memory page offset")?;
            if offset % page != 0 {
                return Err(SnapshotError::Corrupt {
                    what: "memory page offset is not page-aligned",
                });
            }
            if offset >= size {
                return Err(SnapshotError::Corrupt {
                    what: "memory page offset exceeds the memory size",
                });
            }
            if offset < next {
                return Err(SnapshotError::Corrupt {
                    what: "memory page offsets are not strictly ascending",
                });
            }
            next = offset + page;
            let bytes = r.bytes(page as usize, "memory page")?;
            self.flat.write_from(offset as u32, bytes);
        }
        self.now = r.f64("memory clock")?;
        self.stall = r.f64("memory stall")?;
        self.cwb_pending = r.f64("write buffer occupancy")?;
        self.cwb_last = r.f64("write buffer drain time")?;
        self.stats = MemStats::load_state(r)?;
        self.dcache.load_state(r)?;
        self.icache.load_state(r)?;
        self.prefetch.load_state(r)?;
        self.dram.load_state(r)?;
        Ok(())
    }
}

impl MemStats {
    /// Serializes the statistics into a snapshot section.
    pub fn save_state(&self, w: &mut SectionWriter<'_>) {
        w.u64(self.loads);
        w.u64(self.stores);
        w.f64(self.data_stall_cycles);
        w.f64(self.prefetch_wait_cycles);
        w.f64(self.instr_stall_cycles);
        w.u64(self.ifetches);
        w.u64(self.line_crossers);
    }

    /// Reads statistics saved by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the section runs out.
    pub fn load_state(r: &mut SectionReader<'_>) -> Result<MemStats, SnapshotError> {
        Ok(MemStats {
            loads: r.u64("mem stats")?,
            stores: r.u64("mem stats")?,
            data_stall_cycles: r.f64("mem stats")?,
            prefetch_wait_cycles: r.f64("mem stats")?,
            instr_stall_cycles: r.f64("mem stats")?,
            ifetches: r.u64("mem stats")?,
            line_crossers: r.u64("mem stats")?,
        })
    }
}

impl FullStats {
    /// Serializes the aggregate into a snapshot section (used for the
    /// `RunStats` embedded in a machine snapshot).
    pub fn save_state(&self, w: &mut SectionWriter<'_>) {
        self.mem.save_state(w);
        self.dcache.save_state(w);
        self.icache.save_state(w);
        self.prefetch.save_state(w);
        self.dram.save_state(w);
    }

    /// Reads an aggregate saved by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the section runs out.
    pub fn load_state(r: &mut SectionReader<'_>) -> Result<FullStats, SnapshotError> {
        Ok(FullStats {
            mem: MemStats::load_state(r)?,
            dcache: CacheStats::load_state(r)?,
            icache: CacheStats::load_state(r)?,
            prefetch: PrefetchStats::load_state(r)?,
            dram: DramStats::load_state(r)?,
        })
    }
}

/// Snapshot of every statistic the memory system tracks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FullStats {
    /// Top-level counters and stall breakdown.
    pub mem: MemStats,
    /// Data-cache array statistics.
    pub dcache: CacheStats,
    /// Instruction-cache array statistics.
    pub icache: CacheStats,
    /// Prefetch-unit statistics.
    pub prefetch: PrefetchStats,
    /// DRAM channel statistics.
    pub dram: DramStats,
}

/// Allocation-free iterator over the line-bounded segments of a byte
/// range (see [`MemorySystem::segments`]). Addresses wrap
/// architecturally at 2^32.
#[derive(Debug, Clone, Copy)]
struct LineSegments {
    a: u32,
    remaining: u32,
    line: u32,
}

impl Iterator for LineSegments {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.remaining == 0 {
            return None;
        }
        let base = self.a & !(self.line - 1);
        let line_end = base.wrapping_add(self.line);
        let n = self.remaining.min(line_end.wrapping_sub(self.a));
        let seg = (self.a, n);
        self.a = self.a.wrapping_add(n);
        self.remaining -= n;
        Some(seg)
    }
}

impl DataMemory for MemorySystem {
    fn load_bytes(&mut self, addr: u32, buf: &mut [u8]) {
        self.access_load(addr, buf.len() as u32);
        self.flat.read_into(addr, buf);
    }

    fn store_bytes(&mut self, addr: u32, data: &[u8]) {
        self.access_store(addr, data.len() as u32);
        self.flat.write_from(addr, data);
    }

    fn load_le(&mut self, addr: u32, bytes: usize) -> u32 {
        self.access_load(addr, bytes as u32);
        match bytes {
            1 => u32::from(self.flat.read_fixed::<1>(addr)[0]),
            2 => u32::from(u16::from_le_bytes(self.flat.read_fixed::<2>(addr))),
            4 => u32::from_le_bytes(self.flat.read_fixed::<4>(addr)),
            _ => {
                let mut buf = [0u8; 4];
                self.flat.read_into(addr, &mut buf[..bytes]);
                u32::from_le_bytes(buf)
            }
        }
    }

    fn store_le(&mut self, addr: u32, bytes: usize, value: u32) {
        self.access_store(addr, bytes as u32);
        let buf = value.to_le_bytes();
        match bytes {
            1 => self.flat.write_fixed::<1>(addr, [buf[0]]),
            2 => self.flat.write_fixed::<2>(addr, [buf[0], buf[1]]),
            4 => self.flat.write_fixed::<4>(addr, buf),
            _ => self.flat.write_from(addr, &buf[..bytes]),
        }
    }

    fn check_access(&self, addr: u32, size: u32) -> Result<(), tm3270_isa::ExecError> {
        if !self.config.strict_access {
            return Ok(());
        }
        if u64::from(addr) + u64::from(size) > self.config.mem_size as u64 {
            return Err(tm3270_isa::ExecError::OutOfBoundsAccess { addr, size });
        }
        tm3270_isa::check_alignment(addr, size)
    }

    fn cache_op(&mut self, op: CacheOp, addr: u32) {
        let geom = self.config.dcache;
        let base = geom.line_base(addr);
        let t = self.now + self.stall;
        match op {
            CacheOp::Allocate => {
                if let Some(victim) = self.dcache.allocate(base) {
                    let completion =
                        self.dram
                            .request(t, victim.copyback_bytes, Priority::Background);
                    self.emit_evict(CacheId::Data, &victim);
                    self.sink.emit_with(|| TraceEvent::DramTransaction {
                        cycle: t,
                        kind: MemTxKind::Copyback,
                        bytes: victim.copyback_bytes,
                        completion,
                    });
                }
            }
            CacheOp::Prefetch => {
                if !self.dcache.contains(base) && self.prefetch.in_flight_completion(base).is_none()
                {
                    let completion = self.dram.request(t, geom.line, Priority::Background);
                    self.prefetch.mark_in_flight(base, completion);
                    self.sink
                        .emit_with(|| TraceEvent::PrefetchIssue { cycle: t, base });
                    self.sink.emit_with(|| TraceEvent::DramTransaction {
                        cycle: t,
                        kind: MemTxKind::Prefetch,
                        bytes: geom.line,
                        completion,
                    });
                }
            }
            CacheOp::Invalidate => {
                self.dcache.invalidate(base);
            }
            CacheOp::Flush => {
                let bytes = self.dcache.flush(base);
                if bytes > 0 {
                    let completion = self.dram.request(t, bytes, Priority::Background);
                    self.sink.emit_with(|| TraceEvent::DramTransaction {
                        cycle: t,
                        kind: MemTxKind::CacheControl,
                        bytes,
                        completion,
                    });
                }
            }
        }
    }

    fn write_pf_param(&mut self, param: PfParam, region: u8, value: u32) {
        self.prefetch.write_param(param, region, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> MemorySystem {
        let mut cfg = MemConfig::tm3270();
        cfg.mem_size = 1 << 20;
        MemorySystem::new(cfg)
    }

    fn tm3260_system() -> MemorySystem {
        let mut cfg = MemConfig::tm3260();
        cfg.mem_size = 1 << 20;
        MemorySystem::new(cfg)
    }

    #[test]
    fn ceil_u64_matches_f64_ceil() {
        for s in [
            0.0,
            0.25,
            0.5,
            1.0,
            1.0000001,
            17.0,
            17.999,
            1e9,
            1e9 + 0.5,
            4503599627370495.5,
        ] {
            assert_eq!(ceil_u64(s), s.ceil() as u64, "s = {s}");
        }
    }

    #[test]
    fn load_miss_stalls_then_hits() {
        let mut m = system();
        m.begin_instr(0);
        let mut buf = [0u8; 4];
        m.load_bytes(0x1000, &mut buf);
        let s1 = m.take_stall();
        assert!(s1 > 0, "cold miss must stall");
        m.begin_instr(100_000);
        m.load_bytes(0x1004, &mut buf);
        assert_eq!(m.take_stall(), 0, "same line now hits");
    }

    #[test]
    fn functional_data_round_trips() {
        let mut m = system();
        m.begin_instr(0);
        m.store_bytes(0x2000, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.load_bytes(0x2000, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn allocate_on_write_miss_is_free_and_traffic_less() {
        let mut m = system();
        m.begin_instr(0);
        m.store_bytes(0x3000, &[9; 4]);
        assert_eq!(m.take_stall(), 0, "allocate-on-write-miss has no stall");
        assert_eq!(m.stats().dram.bytes, 0, "no fetch traffic");
        assert_eq!(m.stats().dcache.allocations, 1);
    }

    #[test]
    fn fetch_on_write_miss_generates_fetch_traffic() {
        let mut m = tm3260_system();
        m.begin_instr(0);
        m.store_bytes(0x3000, &[9; 4]);
        // The write buffer hides the fetch latency of a single store...
        assert_eq!(m.take_stall(), 0);
        // ...but the line is fetched from memory (extra traffic vs the
        // TM3270's allocate-on-write-miss).
        assert!(m.stats().dram.bytes >= 64, "line fetched from memory");
    }

    #[test]
    fn sustained_write_misses_backpressure_via_bandwidth() {
        // A long streak of store misses under fetch-on-write-miss becomes
        // bandwidth bound: the BIU queue fills and the core stalls.
        let mut m = tm3260_system();
        let mut cycle = 0u64;
        let mut total_stall = 0u64;
        for i in 0..512u32 {
            m.begin_instr(cycle);
            m.store_bytes(0x8000 + i * 64, &[1; 4]);
            let s = m.take_stall();
            total_stall += s;
            cycle += 1 + s;
        }
        assert!(
            total_stall > 1000,
            "sustained fetch-on-write misses must stall, got {total_stall}"
        );
    }

    #[test]
    fn partial_line_load_after_allocation_refills() {
        let mut m = system();
        m.begin_instr(0);
        m.store_bytes(0x4000, &[1; 4]);
        m.take_stall();
        m.begin_instr(10);
        // Load untouched bytes of the allocated line: byte-validity forces
        // a refill (§4.2: hit-signal generation checks validity).
        let mut buf = [0u8; 4];
        m.load_bytes(0x4010, &mut buf);
        assert!(m.take_stall() > 0);
        let s = m.stats();
        assert!(s.dcache.partial_hits >= 1);
        assert_eq!(
            s.dcache.refill_merges, 1,
            "the demand refill merged into the allocated line"
        );
        assert_eq!(s.dcache.fills, 0, "merge is counted separately from fills");
    }

    #[test]
    fn non_aligned_access_crossing_lines_counts_two_misses() {
        let mut m = system();
        m.begin_instr(0);
        let mut buf = [0u8; 4];
        // 128-byte lines: 0x107e..0x1082 crosses a boundary.
        m.load_bytes(0x107e, &mut buf);
        assert_eq!(m.stats().mem.line_crossers, 1);
        assert_eq!(m.stats().dcache.misses, 2, "both lines miss (§4.2)");
    }

    #[test]
    fn copyback_transfers_only_valid_bytes() {
        let mut m = system();
        let geom = m.config().dcache;
        // Dirty one line via allocation, writing only 8 bytes.
        m.begin_instr(0);
        m.store_bytes(0x5000, &[7; 8]);
        let baseline = m.stats().dram.bytes;
        // Force eviction of set containing 0x5000 by touching `ways` more
        // lines mapping to the same set.
        let set_stride = geom.line * geom.sets();
        for w in 1..=geom.ways {
            m.begin_instr(1000 * u64::from(w));
            let mut buf = [0u8; 4];
            m.load_bytes(0x5000 + w * set_stride, &mut buf);
        }
        let s = m.stats();
        assert_eq!(s.dcache.copyback_bytes, 8, "only the 8 valid bytes move");
        assert!(s.dram.bytes > baseline);
    }

    #[test]
    fn prefetch_region_hides_future_misses() {
        // Stream through a region with next-line prefetch and verify the
        // second half of the lines are prefetch hits.
        let mut m = system();
        m.set_prefetch_region(
            0,
            Region {
                start: 0x10000,
                end: 0x20000,
                stride: 128,
            },
        );
        let mut cycle = 0u64;
        for i in 0..64u32 {
            m.begin_instr(cycle);
            let mut buf = [0u8; 4];
            m.load_bytes(0x10000 + i * 128, &mut buf);
            // Generous compute time between lines lets prefetches land.
            cycle += 200 + m.take_stall();
        }
        let s = m.stats();
        assert!(
            s.prefetch.issued > 30,
            "prefetches issued: {:?}",
            s.prefetch
        );
        assert!(
            s.dcache.prefetch_hits > 30,
            "prefetched lines are consumed: {:?}",
            s.dcache
        );
        // Almost all demand misses were avoided (first line must miss).
        assert!(
            s.dcache.misses < 15,
            "prefetching removed demand misses: {:?}",
            s.dcache
        );
    }

    #[test]
    fn software_prefetch_op_warms_cache() {
        let mut m = system();
        m.begin_instr(0);
        m.cache_op(CacheOp::Prefetch, 0x7000);
        // Wait long enough for the prefetch to land.
        m.begin_instr(10_000);
        let mut buf = [0u8; 4];
        m.load_bytes(0x7000, &mut buf);
        assert_eq!(m.take_stall(), 0, "prefd warmed the line");
    }

    #[test]
    fn instruction_fetch_misses_then_hits() {
        let mut m = system();
        let s1 = m.fetch_instr(0, 0x100, 16);
        assert!(s1 > 0);
        let s2 = m.fetch_instr(1000, 0x110, 16);
        assert_eq!(s2, 0);
        assert_eq!(m.stats().mem.ifetches, 2);
    }

    #[test]
    fn cwb_backpressure_on_store_bursts() {
        let mut m = system();
        // Warm the line so stores are pure CWB traffic.
        m.begin_instr(0);
        m.store_bytes(0x8000, &[0; 1]);
        m.take_stall();
        // Two stores per cycle sustained is fine; force > 2/cycle by
        // issuing many stores in the same instruction window.
        m.begin_instr(100);
        for i in 0..64 {
            m.store_bytes(0x8000 + i, &[1]);
        }
        assert!(m.take_stall() > 0, "CWB fills up and back-pressures");
    }

    #[test]
    fn dflush_writes_back_dirty_bytes() {
        let mut m = system();
        m.begin_instr(0);
        m.store_bytes(0x9000, &[1; 16]);
        let before = m.stats().dram.bytes;
        m.cache_op(CacheOp::Flush, 0x9000);
        assert_eq!(m.stats().dram.bytes - before, 16);
        // Line is gone: next load misses.
        m.begin_instr(10_000);
        let mut buf = [0u8; 4];
        m.load_bytes(0x9000, &mut buf);
        assert!(m.take_stall() > 0);
        assert_eq!(buf, [1; 4], "flat memory kept the data");
    }
}
